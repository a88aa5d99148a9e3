"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
module and attribute name and reads some of their return values.  A change
in `src/` that renames one, or changes what it returns, would otherwise only
break a traced benchmark run.  These tests read the tracer; they never edit
it."""

import importlib.util
from pathlib import Path

import pytest

from flashtune import harness
from flashtune.flash import FlashParams
from flashtune.space import TableOracle, split
from flashtune.synth import generate_synthetic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("layer, owner, attr", tracer.ENTRY_POINTS,
                         ids=[f"{owner}.{attr}" for _, owner, attr in tracer.ENTRY_POINTS])
def test_entry_point_resolves(layer, owner, attr):
    # the tracer looks the attribute up in the owner's own namespace
    assert callable(tracer._resolve(owner).__dict__[attr])


@pytest.mark.parametrize("name", ["progressive_sampling", "rank_based"])
def test_lives_counter_reads_a_real_result(name):
    ds = generate_synthetic("single-peak", 6, seed=0)
    pools = tuple(ds.candidates(ids) for ids in split(ds, 1))
    args = (*pools, TableOracle(ds))
    result = getattr(harness, name)(*args)
    _, run = result
    counts = tracer.COUNTERS["baselines.lives"](args, result)
    assert counts == {"holdout": len(pools[1]), "measured": run.measurements_used}


def test_traced_experiment_records_every_method_without_failures():
    spec = harness.ExperimentSpec(
        methods=tuple(harness.MethodSpec(k) for k in ("flash", "progressive", "rank", "random")),
        synthetic=("single-peak", 6), repeats=1, seed=0,
        flash=FlashParams(size=10, budget=5))
    t = tracer.Tracer()
    report = t.run_op(0, harness.run_experiment, spec)
    assert not any(r.failed for r in report.rows)
    assert not any(span[tracer.FAILED] for span in t.spans)
    lives = [span[tracer.COUNTS] for span in t.spans if span[tracer.NAME] == "baselines.lives"]
    assert len(lives) == 2 and all(c["holdout"] > 0 for c in lives)
