import gc
import itertools
import time

import numpy as np
import pytest

from flashtune import cart
from flashtune.baselines import progressive_sampling
from flashtune.flash import FlashParams, bazza_select, flash_multi, flash_single
from flashtune.metrics import pareto_front, rank_difference
from flashtune.runs import STOP_BUDGET, STOP_POOL_EXHAUSTED, Trace
from flashtune.space import TableOracle, direction_signs, split
from flashtune.synth import generate_synthetic

from conftest import dominates, make_dataset

MIN2 = ("minimize", "minimize")


def normalized(predicted, directions):
    """Rows mapped so larger is better, then min-max normalized per column,
    in Python floats."""
    mapped = [[(-float(v) if d == "minimize" else float(v)) for v, d in zip(row, directions)]
              for row in predicted]
    for j in range(len(directions)):
        col = [row[j] for row in mapped]
        lo, hi = min(col), max(col)
        span = hi - lo if hi > lo else 1.0
        for row in mapped:
            row[j] = (row[j] - lo) / span
    return mapped


def bazza_oracle(predicted, weights, directions):
    """Straight-line recomputation: map, normalize, then the raw double sum."""
    m = len(directions)
    mapped = normalized(predicted, directions)
    n = len(weights)
    means = []
    for row in mapped:
        total = 0.0
        for vec in weights:
            for j in range(m):
                total += vec[j] * row[j]
        means.append(total / n)
    best, best_mean = 0, means[0]
    for i, mean in enumerate(means):
        if mean > best_mean:
            best, best_mean = i, mean
    return best, means


def drawn_weights(seed, n, m):
    return np.random.default_rng(seed).random((n, m))


# --- acquisition rule -------------------------------------------------------

def test_bazza_single_objective_collapses_to_argmax():
    preds = [[3.0], [1.0], [2.5]]
    assert bazza_select(preds, 5, ("maximize",), seed=0) == 0
    assert bazza_select(preds, 5, ("minimize",), seed=0) == 1


def test_bazza_picks_weakly_dominant_candidate_for_every_seed():
    preds = [[5.0, 5.0], [4.0, 5.0], [5.0, 4.0], [1.0, 1.0]]
    for seed in range(30):
        assert bazza_select(preds, 10, ("maximize", "maximize"), seed) == 0


def test_bazza_matches_straight_line_recomputation():
    rng = np.random.default_rng(8)
    for seed in range(25):
        preds = rng.uniform(0, 100, size=(5, 2))
        weights = drawn_weights(seed, 3, 2)
        expected, _ = bazza_oracle(preds.tolist(), weights.tolist(), MIN2)
        assert bazza_select(preds, 3, MIN2, seed) == expected


def fixed_order_bazza(predicted, w, directions):
    """`bazza_select`'s arithmetic in Python floats: the normalized rows'
    weighted columns added in column order; the first largest score wins."""
    scores = []
    for row in normalized(predicted, directions):
        score = row[0] * w[0]
        for j in range(1, len(directions)):
            score += row[j] * w[j]
        scores.append(score)
    return scores.index(max(scores))


@pytest.mark.parametrize("m", [2, 3])
def test_bazza_sums_columns_in_a_fixed_order(m):
    """The pick equals, with `==`, the argmax of the column-order sum in
    Python floats, so no BLAS kernel chooses the order of the additions.
    The zero row and the unit rows set each column's range to [0, 1]; pairs
    of rows whose scores agree to about an ulp, some of them repeated, make
    the rounding of each score decide the pick.  The weight means are
    numpy's own axis-0 reduction, which is outside BLAS."""
    rng = np.random.default_rng(40 + m)
    for seed in range(150):
        directions = tuple(rng.choice(["minimize", "maximize"], size=m))
        n_proj = int(rng.integers(1, 12))
        w = drawn_weights(seed, n_proj, m).mean(axis=0)
        rows = [np.zeros(m), *np.eye(m)]
        for _ in range(int(rng.integers(1, 20))):
            x = rng.uniform(0.6, 0.95, size=m)
            y = x.copy()
            d = rng.uniform(1e-6, 1e-2) * min(1.0, w[1] / w[0])
            y[0] -= d
            y[1] += d * w[0] / w[1]
            rows += [x, y] * int(rng.integers(1, 3))
        G = np.array(rows)[rng.permutation(len(rows))]
        preds = G * -direction_signs(directions)
        assert bazza_select(preds, n_proj, directions, seed) == \
            fixed_order_bazza(preds.tolist(), w.tolist(), directions)


def test_bazza_weight_scale_invariance():
    rng = np.random.default_rng(3)
    preds = rng.uniform(0, 10, size=(8, 3)).tolist()
    directions = ("minimize", "maximize", "minimize")
    weights = drawn_weights(17, 6, 3).tolist()
    pick1, _ = bazza_oracle(preds, weights, directions)
    for c in (0.25, 3.0, 1000.0):
        scaled = [[c * w for w in vec] for vec in weights]
        pick2, _ = bazza_oracle(preds, scaled, directions)
        assert pick2 == pick1


def test_bazza_ties_resolve_to_lowest_index():
    preds = [[2.0, 2.0], [2.0, 2.0], [1.0, 1.0]]
    assert bazza_select(preds, 4, ("maximize", "maximize"), seed=5) == 0


def test_bazza_constant_column_scores_nothing():
    # the constant first column weighs 0 everywhere, so the second decides;
    # left unnormalized (0/0) it would turn every score to NaN and pick 0
    assert bazza_select([[1, 5], [1, 3], [1, 9]], 10, MIN2, 0) == 1


def test_bazza_validation():
    with pytest.raises(ValueError):
        bazza_select([], 3, MIN2, 0)
    with pytest.raises(ValueError):
        bazza_select([[1.0, np.inf]], 3, MIN2, 0)
    with pytest.raises(ValueError):
        bazza_select([[1.0, 2.0]], 0, MIN2, 0)


def test_bazza_work_scales_linearly_smoke():
    rng = np.random.default_rng(0)
    small = rng.random((60_000, 2))
    large = rng.random((120_000, 2))

    def best_of(preds):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            bazza_select(preds, 10, MIN2, seed=1)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_small = best_of(small)
    t_large = best_of(large)
    assert t_large <= 3.0 * t_small + 0.01


# --- single objective --------------------------------------------------------

def test_exhaustive_budget_reaches_optimum():
    ds = generate_synthetic("single-peak", 6, seed=0)
    oracle = TableOracle(ds)
    params = FlashParams(size=10, budget=ds.n_rows - 10, seed=4)
    run = flash_single(ds.candidates(), oracle, params, "minimize")
    assert run.measurements_used == ds.n_rows
    assert rank_difference(run.best, ds, 0) == 0
    assert run.stop_reason == "pool-exhausted"


def test_constant_objective_any_answer_optimal():
    configs = [(i,) for i in range(40)]
    ds = make_dataset(configs, [7.0] * 40)
    oracle = TableOracle(ds)
    run = flash_single(ds.candidates(), oracle, FlashParams(size=5, budget=10, seed=0))
    assert run.measurements_used == 15
    assert rank_difference(run.best, ds, 0) == 0


def test_budget_exactness_and_distinct_ids():
    ds = generate_synthetic("interaction", 8, seed=1)
    oracle = TableOracle(ds)
    run = flash_single(ds.candidates(), oracle, FlashParams(size=30, budget=20, seed=2))
    assert run.measurements_used == 50
    assert oracle.count == 50
    assert run.initial_sample == 30
    assert run.acquisitions == 20
    ids = run.evaluated_ids
    assert len(set(ids)) == len(ids)


def test_monotone_best_over_trace():
    ds = generate_synthetic("single-peak", 8, seed=3)
    oracle = TableOracle(ds)
    run = flash_single(ds.candidates(), oracle, FlashParams(size=10, budget=30, seed=5))
    prefix_best = np.minimum.accumulate([v[0] for _, v in run.evaluated])
    assert all(a >= b for a, b in zip(prefix_best, prefix_best[1:]))
    assert prefix_best[-1] == ds.values[run.best, 0]


def test_seed_determinism():
    ds = generate_synthetic("interaction", 7, seed=2)
    params = FlashParams(size=12, budget=15, seed=9)
    run1 = flash_single(ds.candidates(), TableOracle(ds), params)
    run2 = flash_single(ds.candidates(), TableOracle(ds), params)
    assert run1.evaluated == run2.evaluated
    assert run1.best == run2.best


def test_beats_random_search_on_unimodal_landscape():
    from flashtune.baselines import random_search

    ds = generate_synthetic("single-peak", 10, seed=7)
    flash_rds, random_rds = [], []
    for seed in range(5):
        frun = flash_single(ds.candidates(), TableOracle(ds),
                            FlashParams(size=30, budget=20, seed=seed))
        rrun = random_search(ds.candidates(), TableOracle(ds), 50, ("minimize",), seed)
        flash_rds.append(rank_difference(frun.best, ds, 0))
        random_rds.append(rank_difference(rrun.best, ds, 0))
    assert np.median(flash_rds) < np.median(random_rds)


def test_pool_smaller_than_size_rejected():
    ds = make_dataset([(i,) for i in range(5)], [float(i) for i in range(5)])
    with pytest.raises(ValueError, match="size"):
        flash_single(ds.candidates(), TableOracle(ds), FlashParams(size=10, budget=1))


def test_maximize_direction():
    configs = [(i,) for i in range(64)]
    values = [float(i % 13) + 1.0 for i in range(64)]
    ds = make_dataset(configs, values, directions=["maximize"])
    run = flash_single(ds.candidates(), TableOracle(ds),
                       FlashParams(size=10, budget=30, seed=1), "maximize")
    assert ds.values[run.best, 0] == max(values)


def test_params_validation():
    with pytest.raises(ValueError):
        FlashParams(size=0)
    with pytest.raises(ValueError):
        FlashParams(budget=-1)
    with pytest.raises(ValueError):
        FlashParams(n_projections=0)


# --- multi objective ----------------------------------------------------------

def test_exhaustive_budget_recovers_true_front():
    ds = generate_synthetic("bi-objective-tradeoff", 5, seed=0)
    oracle = TableOracle(ds)
    params = FlashParams(size=8, budget=ds.n_rows - 8, seed=3)
    run = flash_multi(ds.candidates(), oracle, params, ds.directions)
    truth = set(pareto_front(ds.values, ds.directions))
    assert set(run.front) == truth


def test_dominating_point_is_the_whole_front():
    configs = [(float(i), float(j)) for i in range(4) for j in range(4)]
    values = [[float(i + j + 1), float(i + j + 1)] for i in range(4) for j in range(4)]
    ds = make_dataset(configs, values)
    # zero budget, init covers the pool: the sole dominator is the front
    run = flash_multi(ds.candidates(), TableOracle(ds),
                      FlashParams(size=16, budget=0, seed=1), MIN2)
    assert run.front == (0,)


def test_front_members_subset_of_truth_gives_zero_gd():
    from flashtune.metrics import front_comparison

    ds = generate_synthetic("bi-objective-tradeoff", 10, seed=5)
    truth_idx = pareto_front(ds.values, ds.directions)
    truth_vectors = [tuple(ds.values[i]) for i in truth_idx]
    run = flash_multi(ds.candidates(), TableOracle(ds),
                      FlashParams(size=30, budget=50, seed=13), ds.directions)
    approx = [tuple(ds.values[i]) for i in run.front]
    assert set(run.front) <= set(truth_idx)
    gd, _ = front_comparison(truth_vectors, approx, ds.directions)
    assert gd == 0.0


def test_multi_needs_two_objectives():
    ds = generate_synthetic("bi-objective-tradeoff", 4, seed=0)
    with pytest.raises(ValueError):
        flash_multi(ds.candidates(), TableOracle(ds), FlashParams(size=4), ("minimize",))


def test_front_is_mutually_non_dominated():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=2)
    run = flash_multi(ds.candidates(), TableOracle(ds),
                      FlashParams(size=10, budget=15, seed=4), ds.directions)
    vectors = {i: tuple(ds.values[i]) for i in run.front}
    for a in run.front:
        for b in run.front:
            assert not dominates(vectors[a], vectors[b], ds.directions) or a == b


def test_single_objective_column_selection():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=1)
    run = flash_single(ds.candidates(), TableOracle(ds),
                       FlashParams(size=10, budget=ds.n_rows - 10, seed=2),
                       "minimize", objective=1)
    assert ds.values[run.best, 1] == ds.values[:, 1].min()
    with pytest.raises(ValueError, match="objective index"):
        flash_single(ds.candidates(), TableOracle(ds),
                     FlashParams(size=5, budget=1, seed=0), objective=7)


@pytest.mark.parametrize("kind", ["single-peak", "interaction"])
@pytest.mark.parametrize("seed", range(6))
def test_multi_with_a_constant_objective_acquires_as_single_on_the_other(kind, seed):
    # a constant prediction column adds 0 to every bazza score, so each pick
    # is the other objective's first best prediction, as flash_single's is
    syn = generate_synthetic(kind, 8, seed)
    values = np.column_stack([np.full(syn.n_rows, 3.0), syn.values[:, 0]])
    params = FlashParams(size=20, budget=30, seed=seed)
    for directions in itertools.product(("minimize", "maximize"), repeat=2):
        ds = make_dataset(syn.configs, values, directions)
        multi = flash_multi(ds.candidates(), TableOracle(ds), params, directions)
        single = flash_single(ds.candidates(), TableOracle(ds), params, directions[1],
                              objective=1)
        assert multi.evaluated_ids == single.evaluated_ids


# --- acquisition sequence against the mask-and-pool step ----------------------

def reference_run(candidates, oracle, params, directions, cart_params=cart.CartParams(),
                  objective=0):
    """flash's step as it was before the predict memo: training rows gathered
    by the measured mask, the single-objective argmin and bazza_select both
    over the pool's rows."""
    trace = Trace(candidates, oracle, directions, objective)
    signs = direction_signs(directions)
    columns = [objective] if len(directions) == 1 else range(len(directions))
    rng = np.random.default_rng(params.seed)
    for pos in rng.choice(trace.ids.size, size=params.size, replace=False):
        trace.take(int(pos))
    spent = 0
    stop = STOP_BUDGET
    while spent < params.budget:
        pool = trace.pool()
        if pool.size == 0:
            stop = STOP_POOL_EXHAUSTED
            break
        if params.budget - spent >= pool.size:
            for pos in pool:
                trace.take(int(pos))
            spent += pool.size
            stop = STOP_POOL_EXHAUSTED
            break
        Xe = trace.X[trace.measured]
        Ye = trace.Y[trace.measured]
        preds = np.column_stack([
            cart.predict_batch(cart.fit(Xe, Ye[:, j], cart_params), trace.X) for j in columns
        ])[pool]
        if len(directions) == 1:
            pick = int(np.argmin(preds[:, 0] * signs[0]))
        else:
            pick = bazza_select(
                preds, params.n_projections, directions, int(rng.integers(2 ** 63))
            )
        trace.take(int(pool[pick]))
        spent += 1
    return trace.finish(stop, initial_sample=params.size)


def tied_table():
    """4 integer options with 4 levels whose objectives read two or three
    options coarsely, so most leaves hold many rows and predictions tie."""
    X = np.array(list(itertools.product(range(4), repeat=4)), dtype=float)
    y0 = 3.0 * (X[:, 0] >= 2) + (X[:, 1] == 3)
    y1 = 2.0 * (X[:, 2] >= 1) - (X[:, 0] >= 1)
    return make_dataset(X, np.column_stack([y0, y1]))


def outcome(run):
    return run.evaluated, run.best, run.front, run.stop_reason


def tenths_table():
    """The tied table's configurations with targets in tenths: leaves whose
    means are equal in exact arithmetic can differ in the last bit with the
    order of their rows, so training rows gathered out of order move picks."""
    X = np.array(tied_table().configs)
    y0 = np.round(0.1 * ((X @ [1.0, 2.0, 3.0, 5.0]) % 7), 1)
    y1 = np.round(0.1 * ((X @ [3.0, 1.0, 4.0, 1.0]) % 5), 1)
    return make_dataset(X, np.column_stack([y0, y1]))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("table, budget", [
    (tied_table, 25), (tied_table, 245), (tied_table, 246), (tenths_table, 40), (tenths_table, 246),
])
def test_acquisition_sequence_matches_the_mask_and_pool_step(table, budget, seed):
    ds = table()
    params = FlashParams(size=10, budget=budget, seed=seed)
    for objective, direction in [(0, "minimize"), (1, "maximize")]:
        got = flash_single(ds.candidates(), TableOracle(ds), params, direction,
                           objective=objective)
        want = reference_run(ds.candidates(), TableOracle(ds), params, (direction,),
                             objective=objective)
        assert outcome(got) == outcome(want)
    got = flash_multi(ds.candidates(), TableOracle(ds), params, ("minimize", "maximize"))
    want = reference_run(ds.candidates(), TableOracle(ds), params, ("minimize", "maximize"))
    assert outcome(got) == outcome(want)
    assert got.stop_reason == ("pool-exhausted" if budget >= 246 else "budget")


# --- targets near the float limit ----------------------------------------------

def near_limit_table(m=1):
    """40 rows whose every target is 1.7e308: their sums overflow, their
    means do not."""
    return make_dataset([(i,) for i in range(40)], np.full((40, m), 1.7e308))


def test_single_never_measures_a_row_twice_on_targets_near_the_float_limit():
    ds = near_limit_table()
    run = flash_single(ds.candidates(), TableOracle(ds), FlashParams(size=4, budget=5, seed=0))
    assert run.measurements_used == 9
    assert len(set(run.evaluated_ids)) == 9


def test_multi_completes_on_targets_near_the_float_limit():
    """Leaf means used to overflow to +inf here, so `bazza_select` refused
    the predictions after the warm-up; the trees now predict 1.7e308."""
    ds = near_limit_table(m=2)
    oracle = TableOracle(ds)
    run = flash_multi(ds.candidates(), oracle, FlashParams(size=4, budget=5, seed=0), ds.directions)
    assert run.measurements_used == oracle.count == 9
    assert len(set(run.evaluated_ids)) == 9


# --- no reference cycles ------------------------------------------------------

def test_runs_leave_no_reference_cycles():
    """A cycle keeps whatever it holds, a pool-sized prediction vector say,
    alive until a collection runs; none of these calls may leave one."""
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=3)
    X = np.array(ds.configs)
    X.flags.writeable = False
    tree = cart.fit(X, ds.values[:, 0])
    train, hold, val = (ds.candidates(part) for part in split(ds, 2))
    params = FlashParams(size=10, budget=10, seed=1)
    gc.collect()
    gc.disable()
    try:
        cart.predict_batch(tree, X)
        cart.predict_batch(tree, X, memo={})
        cart.dump_tree(tree)
        cart.argmin_row(tree, X, np.zeros(X.shape[0], dtype=bool))
        cart.argmin_row(tree, X, np.zeros(X.shape[0], dtype=bool), -1.0, memo={})
        flash_single(ds.candidates(), TableOracle(ds), params)
        flash_multi(ds.candidates(), TableOracle(ds), params, ds.directions)
        progressive_sampling(train, hold, val, TableOracle(ds), seed=4)
        assert gc.collect() == 0
    finally:
        gc.enable()
