import pytest

from flashtune.baselines import (
    EpalParams,
    epal,
    progressive_sampling,
    random_search,
    rank_based,
)
from flashtune.flash import FlashParams, flash_multi, flash_single
from flashtune.runs import OptimizationRun, Trace, write_trace_csv
from flashtune.space import TableOracle, split
from flashtune.synth import generate_synthetic

from conftest import make_dataset


def make_run(**overrides):
    fields = dict(
        evaluated=((3, (1.0, 2.0)), (5, (2.0, 1.0))),
        best=None,
        front=(3, 5),
        measurements_used=2,
        wall_time=0.1,
        stop_reason="budget",
        initial_sample=1,
    )
    fields.update(overrides)
    return OptimizationRun(**fields)


def test_trace_validation():
    run = make_run()
    assert run.evaluated_ids == (3, 5)
    assert run.acquisitions == 1
    with pytest.raises(ValueError, match="trace length"):
        make_run(measurements_used=5)
    with pytest.raises(ValueError, match="best"):
        make_run(best=99, front=None)
    with pytest.raises(ValueError, match="front"):
        make_run(front=(3, 99))
    with pytest.raises(ValueError, match="initial_sample"):
        make_run(initial_sample=7)


def test_write_trace_csv(tmp_path):
    run = make_run()
    path = tmp_path / "trace.csv"
    candidates = {3: (0.0, 1.0), 5: (1.0, 0.0)}
    write_trace_csv(run, path, candidates, ["a", "b"], ["f1", "f2"])
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "step,id,a,b,f1,f2"
    assert lines[1] == "1,3,0.0,1.0,1.0,2.0"
    assert lines[2] == "2,5,1.0,0.0,2.0,1.0"


# --- the shared measurement core ------------------------------------------------

class WidthChangingOracle:
    """Table lookups whose vector gains a column after the first `k` calls."""

    def __init__(self, dataset, k):
        self.inner = TableOracle(dataset)
        self.k = k

    def measure(self, config):
        values = self.inner.measure(config)
        return values if self.inner.count <= self.k else values + (0.0,)


def _pools(ds):
    train, hold, val = split(ds, 0)
    return ds.candidates(train), ds.candidates(hold), ds.candidates(val)


@pytest.mark.parametrize("optimizer", [
    lambda ds, o: flash_single(ds.candidates(), o, FlashParams(size=10, budget=5)),
    lambda ds, o: flash_multi(ds.candidates(), o, FlashParams(size=10, budget=5)),
    lambda ds, o: epal(ds.candidates(), o, EpalParams(epsilon=0.3)),
    lambda ds, o: random_search(ds.candidates(), o, 10, ("minimize",)),
    lambda ds, o: progressive_sampling(*_pools(ds), o),
], ids=["flash_single", "flash_multi", "epal", "random_search", "progressive_sampling"])
def test_every_optimizer_rejects_a_width_change(optimizer):
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=0)
    with pytest.raises(ValueError, match="inconsistent width"):
        optimizer(ds, WidthChangingOracle(ds, k=5))


def test_trace_finish_picks_best_or_front():
    ds = make_dataset([(i,) for i in range(4)], [(3.0, 1.0), (1.0, 4.0), (2.0, 6.0), (1.0, 4.0)],
                      directions=["minimize", "maximize"])
    trace = Trace(ds.candidates(), TableOracle(ds))
    for pos in (2, 3, 1, 0):
        trace.take(pos)
    assert trace.finish("budget", ("minimize",), objective=0).best == 3  # first of the tied 1.0
    assert trace.finish("budget", ("maximize",), objective=1).best == 2
    assert trace.finish("budget", ("minimize",), objective=1).best == 0
    assert trace.finish("budget", ds.directions).front == (1, 2, 3)
    assert trace.finish("budget", ("minimize",), best=2, initial_sample=1).best == 2
    with pytest.raises(ValueError, match="objective index 2"):
        trace.finish("budget", ("minimize",), objective=2)
    with pytest.raises(ValueError, match="3 directions"):
        trace.finish("budget", ("minimize",) * 3)


# --- a Pool and a dict of the same items give the same run ---------------------

def _run_fields(result):
    run = result[1] if isinstance(result, tuple) else result
    return run.evaluated, run.best, run.front, run.stop_reason


def _lives(fn):
    def call(ds, as_pool):
        train, hold, val = split(ds, 3)
        pools = [ds.candidates(part) for part in (train, hold, val)]
        return fn(*[as_pool(p) for p in pools], TableOracle(ds), seed=4)
    return call


@pytest.mark.parametrize("optimizer", [
    lambda ds, p: flash_single(p(ds.candidates()), TableOracle(ds),
                               FlashParams(size=10, budget=15, seed=2), "maximize", objective=1),
    lambda ds, p: flash_multi(p(ds.candidates(range(0, ds.n_rows, 2))), TableOracle(ds),
                              FlashParams(size=10, budget=15, seed=2), ("minimize", "maximize")),
    lambda ds, p: epal(p(ds.candidates()), TableOracle(ds), EpalParams(epsilon=0.3), seed=2),
    lambda ds, p: random_search(p(ds.candidates()), TableOracle(ds), 12, ("minimize",), seed=2),
    _lives(progressive_sampling),
    _lives(rank_based),
], ids=["flash_single", "flash_multi", "epal", "random_search", "progressive_sampling",
        "rank_based"])
def test_pool_and_dict_give_the_same_run(optimizer):
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=1)
    from_pool = _run_fields(optimizer(ds, lambda pool: pool))
    from_dict = _run_fields(optimizer(ds, dict))
    assert from_pool == from_dict
