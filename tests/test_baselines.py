import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune import baselines, cart, metrics
from flashtune import gp as gp_module
from flashtune.baselines import (
    EPAL_INIT_SIZE,
    EpalParams,
    LivesParams,
    _lives_loop,
    epal,
    epsilon_discard,
    progressive_sampling,
    random_search,
    rank_based,
)
from flashtune.flash import FlashParams, flash_single
from flashtune.gp import LENGTH_SCALES
from flashtune.runs import Trace
from flashtune.space import TableOracle, direction_signs, split
from flashtune.synth import generate_synthetic

from conftest import make_dataset, predict, reference_gp_fit, reference_gp_predict_batch

MIN2 = ("minimize", "minimize")


def pools_for(ds, seed=0):
    train, hold, val = split(ds, seed)
    return ds.candidates(train), ds.candidates(hold), ds.candidates(val)


def rows_of(pool, ids):
    """The option rows of `ids`, each looked up in the pool's own arrays."""
    pos = np.searchsorted(pool.ids, ids)
    assert np.array_equal(pool.ids[pos], ids)
    return pool.X[pos]


def constant_dataset(n=40, value=7.0, direction="minimize"):
    return make_dataset([(i,) for i in range(n)], [value] * n, directions=[direction])


# --- progressive / rank-based ------------------------------------------------

def test_progressive_flat_landscape_burns_lives():
    ds = constant_dataset()
    train, hold, val = pools_for(ds)
    oracle = TableOracle(ds)
    tree, run = progressive_sampling(train, hold, val, oracle, seed=1)
    # the error stays 0: the first model sets the bar, the next 3 lose lives
    assert run.stop_reason == "lives"
    train_additions = run.measurements_used - len(hold) - 1
    assert train_additions == 1 + 3
    assert oracle.count == run.measurements_used
    assert run.initial_sample == len(hold)


def test_rank_based_flat_landscape_burns_lives():
    ds = constant_dataset()
    train, hold, val = pools_for(ds)
    tree, run = rank_based(train, hold, val, TableOracle(ds), seed=1)
    assert run.stop_reason == "lives"
    assert run.measurements_used - len(hold) - 1 == 1 + 3


def test_strictly_improving_scorer_consumes_pool():
    ds = generate_synthetic("single-peak", 6, seed=0)
    train, hold, val = pools_for(ds)
    scores = iter(range(10_000))

    def improving(preds, actual):
        return float(next(scores))

    tree, run = _lives_loop(
        train, hold, val, TableOracle(ds), LivesParams(lives=1),
        cart.CartParams(), "minimize", 0, seed=3, with_replacement=False,
        scorer=improving,
    )
    assert run.stop_reason == "pool-exhausted"
    assert run.measurements_used == len(hold) + len(train) + 1


def test_lives_accounting_replay():
    # replay the trace offline and recount the non-improving iterations
    ds = generate_synthetic("interaction", 8, seed=5)
    train, hold, val = pools_for(ds, seed=2)
    lives = LivesParams(lives=3)
    tree, run = progressive_sampling(train, hold, val, TableOracle(ds),
                                     lives, seed=9)
    assert run.stop_reason == "lives"
    hold_y = ds.values[hold.ids, 0]
    train_trace = run.evaluated[len(hold):-1]
    lost = 0
    last = -np.inf
    ids, y = [], []
    for cid, values in train_trace:
        ids.append(cid)
        y.append(values[0])
        model = cart.fit(rows_of(train, ids), np.array(y), cart.CartParams())
        score = -metrics.mmre(cart.predict_batch(model, hold.X), hold_y)
        if score <= last:
            lost += 1
        last = score
    assert lost == lives.lives


def test_final_answer_comes_from_validation_pool():
    ds = generate_synthetic("single-peak", 7, seed=1)
    train, hold, val = pools_for(ds, seed=4)
    _, run = progressive_sampling(train, hold, val, TableOracle(ds), seed=4)
    assert run.best in val.ids
    assert run.evaluated[-1][0] == run.best


def test_with_replacement_is_deterministic_and_may_repeat():
    ds = generate_synthetic("single-peak", 6, seed=3)
    train, hold, val = pools_for(ds, seed=1)
    _, run1 = progressive_sampling(train, hold, val, TableOracle(ds), seed=6,
                                   with_replacement=True)
    _, run2 = progressive_sampling(train, hold, val, TableOracle(ds), seed=6,
                                   with_replacement=True)
    assert run1.evaluated == run2.evaluated


def test_lives_loop_validation():
    ds = constant_dataset()
    train, hold, val = pools_for(ds)
    with pytest.raises(ValueError, match="disjoint"):
        progressive_sampling(train, train, val, TableOracle(ds))
    with pytest.raises(ValueError, match="non-empty"):
        progressive_sampling(ds.candidates([]), hold, val, TableOracle(ds))
    with pytest.raises(ValueError):
        LivesParams(lives=0)


def oracle_answer(tree, validation, direction):
    """The validation id with the lowest `predict(tree, x) * sign`, the
    lowest id (the lowest trace position) winning a tie."""
    sign = direction_signs((direction,))[0]
    rows = zip(validation.ids.tolist(), validation.X.tolist())
    return min(rows, key=lambda row: predict(tree, row[1]) * sign)[0]


@st.composite
def lives_tables(draw):
    """A small integer table whose few distinct values tie many predictions."""
    d = draw(st.integers(3, 4))
    configs = list(itertools.product(range(draw(st.integers(2, 3))), repeat=d))
    values = draw(st.lists(st.sampled_from([1.0, 2.0, 3.0, 5.0]),
                           min_size=len(configs), max_size=len(configs)))
    direction = draw(st.sampled_from(["minimize", "maximize"]))
    return make_dataset(configs, values, directions=[direction]), direction


@pytest.mark.parametrize("method", [progressive_sampling, rank_based])
@settings(max_examples=60, deadline=None)
@given(case=lives_tables(), seed=st.integers(0, 50), loose=st.booleans())
def test_lives_answer_is_the_validation_id_the_per_row_oracle_ranks_best(method, case, seed, loose):
    ds, direction = case
    train, hold, val = pools_for(ds, seed=seed)
    params = cart.CartParams(min_samples_split=2, min_samples_leaf=1) if loose else cart.CartParams()
    tree, run = method(train, hold, val, TableOracle(ds), cart_params=params,
                       direction=direction, seed=seed)
    assert run.best == oracle_answer(tree, val, direction)
    assert run.evaluated[-1][0] == run.best


@pytest.mark.parametrize("direction", ["minimize", "maximize"])
def test_lives_answer_on_a_flat_table_is_the_smallest_validation_id(direction):
    ds = constant_dataset(direction=direction)
    train, hold, val = pools_for(ds)
    for method in (progressive_sampling, rank_based):
        tree, run = method(train, hold, val, TableOracle(ds), direction=direction, seed=1)
        assert run.best == val.ids.min() == oracle_answer(tree, val, direction)


@pytest.mark.parametrize("shares", ["train-pool", "holdout-pool"])
def test_lives_loop_rejects_a_validation_pool_sharing_ids(shares):
    """The answer is measured after the train pool and the holdout, so a
    validation id in either could be measured twice."""
    ds = generate_synthetic("single-peak", 6, seed=1)
    train, hold, val = split(ds, 3)
    shared = np.concatenate([val, (train if shares == "train-pool" else hold)[::3]])
    pools = [ds.candidates(part) for part in (train, hold, shared)]
    for fn in (progressive_sampling, rank_based):
        oracle = TableOracle(ds)
        with pytest.raises(ValueError, match="^validation must be disjoint from the train pool"):
            fn(*pools, oracle, seed=4)
        assert oracle.count == 0


def test_progressive_needs_more_measurements_than_flash():
    ds = generate_synthetic("single-peak", 8, seed=2)
    worse = 0
    for seed in range(5):
        train, hold, val = pools_for(ds, seed=seed)
        _, prun = progressive_sampling(train, hold, val, TableOracle(ds), seed=seed)
        merged = ds.candidates(np.concatenate([train.ids, val.ids]))
        frun = flash_single(merged, TableOracle(ds),
                            FlashParams(size=30, budget=20, seed=seed))
        if prun.measurements_used > frun.measurements_used:
            worse += 1
    assert worse == 5


# --- random search -------------------------------------------------------------

def test_random_search_full_pool_finds_optimum():
    ds = generate_synthetic("single-peak", 6, seed=4)
    run = random_search(ds.candidates(), TableOracle(ds), ds.n_rows, ("minimize",), seed=0)
    assert metrics.rank_difference(run.best, ds, 0) == 0


def test_random_search_single_draw():
    ds = constant_dataset(10)
    run = random_search(ds.candidates(), TableOracle(ds), 1, ("minimize",), seed=5)
    assert run.measurements_used == 1
    assert run.best == run.evaluated[0][0]


def test_random_search_deterministic():
    ds = generate_synthetic("interaction", 6, seed=1)
    a = random_search(ds.candidates(), TableOracle(ds), 12, ("minimize",), seed=7)
    b = random_search(ds.candidates(), TableOracle(ds), 12, ("minimize",), seed=7)
    assert a.evaluated == b.evaluated


def test_random_search_pool_bounds():
    ds = constant_dataset(10)
    with pytest.raises(ValueError):
        random_search(ds.candidates(), TableOracle(ds), 11, ("minimize",), seed=0)


def test_random_search_multi_objective_front():
    ds = generate_synthetic("bi-objective-tradeoff", 5, seed=0)
    run = random_search(ds.candidates(), TableOracle(ds), 10, ds.directions, seed=3)
    assert run.front is not None and len(run.front) >= 1


# --- epal ------------------------------------------------------------------------

def dense_epsilon_discard(
    h_measured: np.ndarray,
    h_unknown: np.ndarray,
    s_unknown: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """All-pairs oracle: the full (M + U) x U x m comparison cube."""
    pess = np.vstack([h_measured, h_unknown - s_unknown]) + epsilon
    optimistic = h_unknown + s_unknown
    ge = np.all(pess[:, None, :] >= optimistic[None, :, :], axis=2)
    gt = np.any(pess[:, None, :] > optimistic[None, :, :], axis=2)
    pair = ge & gt
    idx = np.arange(h_unknown.shape[0])
    pair[h_measured.shape[0] + idx, idx] = False
    return pair.any(axis=0)


@st.composite
def discard_inputs(draw):
    m = draw(st.sampled_from([2, 3]))
    M = draw(st.integers(0, 6))
    U = draw(st.integers(1, 14))
    # a quarter grid makes ties between pessimistic and optimistic vectors common
    grid = st.integers(0, 4).map(lambda k: k * 0.25)
    h_meas = np.array(draw(st.lists(st.lists(grid, min_size=m, max_size=m),
                                    min_size=M, max_size=M)), dtype=float).reshape(M, m)
    h_unknown = np.array(draw(st.lists(st.lists(grid, min_size=m, max_size=m),
                                       min_size=U, max_size=U)), dtype=float)
    sigma = st.integers(0, 2).map(lambda k: k * 0.125)
    s_unknown = np.array(draw(st.lists(st.lists(sigma, min_size=m, max_size=m),
                                       min_size=U, max_size=U)), dtype=float)
    zero_rows = np.array(draw(st.lists(st.booleans(), min_size=U, max_size=U)))
    s_unknown[zero_rows] = 0.0
    epsilon = draw(st.sampled_from([0.0, 0.01, 0.125, 1e6]))
    return h_meas, h_unknown, s_unknown, epsilon


@settings(max_examples=400)
@given(discard_inputs())
def test_epsilon_discard_matches_dense_oracle(case):
    h_meas, h_unknown, s_unknown, epsilon = case
    got = epsilon_discard(h_meas, h_unknown, s_unknown, epsilon)
    want = dense_epsilon_discard(h_meas, h_unknown, s_unknown, epsilon)
    assert got.tolist() == want.tolist()


def test_epsilon_discard_self_domination_cases():
    s = np.full((1, 2), 0.125)
    # epsilon >= 2 sigma: the candidate's own pessimistic vector beats its
    # optimistic one, but it is its only witness, so it stays; the second
    # candidate falls to the first
    h_unknown = np.array([[0.75, 0.75], [0.0, 0.0]])
    s_unknown = np.vstack([s, np.zeros((1, 2))])
    for discard in (epsilon_discard, dense_epsilon_discard):
        assert discard(np.zeros((0, 2)), h_unknown, s_unknown, 0.5).tolist() == [False, True]
    # two identical self-dominating candidates discard each other
    twins = np.array([[0.25, 0.25], [0.25, 0.25]])
    for discard in (epsilon_discard, dense_epsilon_discard):
        assert discard(np.zeros((0, 2)), twins, np.vstack([s, s]), 0.5).tolist() == [True, True]


@pytest.mark.parametrize("b0", [0.0, 0.25])
def test_epsilon_discard_suffix_maximum_tied_with_self(b0):
    # optimistic (0.375, 0.375), own pessimistic (0.625, 0.625); the measured
    # point's pessimistic second objective ties the candidate's own at 0.625,
    # sorting before (b0 = 0) or after (b0 = 0.25) it on the first
    h_meas = np.array([[b0, 0.125]])
    h_unknown = np.array([[0.25, 0.25]])
    s_unknown = np.full((1, 2), 0.125)
    for discard in (epsilon_discard, dense_epsilon_discard):
        assert discard(h_meas, h_unknown, s_unknown, 0.5).tolist() == [True]


def test_epsilon_discard_blocked_matches_dense_oracle(monkeypatch):
    # objective counts other than two compare in blocks of unknowns; small
    # blocks make a candidate's own row fall in every block position
    monkeypatch.setattr(metrics, "_BLOCK_ELEMS", 30)
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = int(rng.choice([1, 3]))
        M, U = int(rng.integers(0, 5)), int(rng.integers(1, 15))
        h_meas = rng.integers(0, 5, size=(M, m)) * 0.25
        h_unknown = rng.integers(0, 5, size=(U, m)) * 0.25
        s_unknown = rng.integers(0, 3, size=(U, m)) * 0.125
        epsilon = float(rng.choice([0.0, 0.125, 0.5, 1e6]))
        got = epsilon_discard(h_meas, h_unknown, s_unknown, epsilon)
        want = dense_epsilon_discard(h_meas, h_unknown, s_unknown, epsilon)
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("epsilon", [0.01, 0.3])
def test_epal_sequence_unchanged_under_dense_oracle(monkeypatch, epsilon):
    ds = generate_synthetic("bi-objective-tradeoff", 8, seed=1)
    fast = [epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=epsilon),
                 ds.directions, seed) for seed in range(3)]
    monkeypatch.setattr(baselines, "epsilon_discard", dense_epsilon_discard)
    dense = [epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=epsilon),
                  ds.directions, seed) for seed in range(3)]
    for a, b in zip(fast, dense):
        assert a.evaluated == b.evaluated
        assert a.front == b.front
        assert a.stop_reason == b.stop_reason
    assert min(r.measurements_used for r in fast) < ds.n_rows


def reference_epal(candidates, oracle, params, directions, seed):
    """ePAL as it was before the distance store and the shared factors: per
    iteration, one GP fit and one prediction per objective, each computing
    its own distances."""
    trace = Trace(candidates, oracle)
    X = trace.X
    n = trace.ids.size
    m = len(directions)
    signs = direction_signs(directions)
    x_lo = X.min(axis=0)
    x_span = X.max(axis=0) - x_lo
    x_span[x_span == 0.0] = 1.0
    Xn = (X - x_lo) / x_span
    rng = np.random.default_rng(seed)
    discarded = np.zeros(n, dtype=bool)
    for pos in rng.choice(n, size=EPAL_INIT_SIZE, replace=False):
        trace.take(int(pos))
    while True:
        measured = trace.measured
        unknown = np.nonzero(~measured & ~discarded)[0]
        if unknown.size == 0:
            break
        G_meas = -(trace.Y[measured] * signs)
        mu = np.empty((unknown.size, m))
        sd = np.empty((unknown.size, m))
        for j in range(m):
            g = reference_gp_fit(Xn[measured], G_meas[:, j], LENGTH_SCALES)
            mu[:, j], sd[:, j] = reference_gp_predict_batch(g, Xn[unknown])
        lo = G_meas.min(axis=0)
        span = G_meas.max(axis=0) - lo
        span[span == 0.0] = 1.0
        h_meas = (G_meas - lo) / span
        h_unknown = (mu - lo) / span
        s_unknown = sd / span
        discard_now = epsilon_discard(h_meas, h_unknown, s_unknown, params.epsilon)
        discarded[unknown[discard_now]] = True
        survivors = unknown[~discard_now]
        if survivors.size == 0:
            break
        norms = np.linalg.norm(s_unknown[~discard_now], axis=1)
        trace.take(int(survivors[int(np.argmax(norms))]))
    return trace.finish("pool-exhausted", directions, initial_sample=EPAL_INIT_SIZE)


@pytest.mark.parametrize("epsilon", [0.01, 0.3])
def test_epal_sequence_matches_the_per_objective_reference(monkeypatch, epsilon):
    ds = generate_synthetic("bi-objective-tradeoff", 8, seed=2)
    X = ds.candidates().X
    lo, span = X.min(axis=0), X.max(axis=0) - X.min(axis=0)
    position = {row.tobytes(): i for i, row in enumerate((X - lo) / span)}
    gathered = []

    def checked_fit(xs, ys, *, d2=None):
        # training rows in pool order, and the block gathered from the store
        # is their distance matrix, bit for bit
        pos = [position[row.tobytes()] for row in xs]
        gathered.append(pos == sorted(pos))
        gathered.append(d2.tobytes() == gp_module._sq_dists(xs, xs).tobytes())
        return gp_module.gp_fit(xs, ys, d2=d2)

    def checked_predict(gps, xs, *, d2=None):
        gathered.append(d2.tobytes() == gp_module._sq_dists(xs, gps[0].X).tobytes())
        return gp_module.gp_predict_batch(gps, xs, d2=d2)

    monkeypatch.setattr(baselines, "gp_fit", checked_fit)
    monkeypatch.setattr(baselines, "gp_predict_batch", checked_predict)
    for seed in range(3):
        run = epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=epsilon),
                   ds.directions, seed)
        ref = reference_epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=epsilon),
                             ds.directions, seed)
        assert run.evaluated == ref.evaluated
        assert run.front == ref.front
        assert run.stop_reason == ref.stop_reason
        assert run.measurements_used < ds.n_rows
    assert gathered and all(gathered)


def test_epal_fits_once_per_iteration_and_grows_the_store_with_measurements(monkeypatch):
    ds = generate_synthetic("bi-objective-tradeoff", 7, seed=4)
    fits, discards, stored = [], [], []
    real_dists = gp_module._sq_dists
    monkeypatch.setattr(baselines, "gp_fit",
                        lambda *a, **k: fits.append(1) or gp_module.gp_fit(*a, **k))
    monkeypatch.setattr(baselines, "epsilon_discard",
                        lambda *a: discards.append(1) or epsilon_discard(*a))
    monkeypatch.setattr(baselines, "_sq_dists",
                        lambda A, B: stored.append(B.shape[0]) or real_dists(A, B))
    run = epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=0.05), ds.directions, 3)
    assert len(fits) == len(discards) > 0
    # one pool-wide column per measured point, never a pool x pool block
    assert stored == [1] * run.measurements_used


def test_epsilon_discard_rule_direct():
    # larger-is-better space; b pessimistic (0.9, 0.9) vs a optimistic (0.5, 0.5)
    h_meas = np.array([[0.9, 0.9]])
    h_unknown = np.array([[0.5, 0.5]])
    s_unknown = np.zeros((1, 2))
    assert epsilon_discard(h_meas, h_unknown, s_unknown, 0.0).tolist() == [True]
    # equal vectors never discard at epsilon 0 (no strict index)
    assert epsilon_discard(np.array([[0.5, 0.5]]), h_unknown, s_unknown, 0.0).tolist() == [False]
    # a positive epsilon bridges a small gap
    assert epsilon_discard(np.array([[0.45, 0.45]]), h_unknown, s_unknown, 0.2).tolist() == [True]
    # a candidate cannot discard itself even with a huge epsilon
    assert epsilon_discard(np.zeros((0, 2)), h_unknown, s_unknown, 10.0).tolist() == [False]


def test_epsilon_discard_soundness_with_exact_knowledge():
    # noise-free predictions equal to the measured truth: at epsilon 0 no
    # true-front member is ever discarded
    rng = np.random.default_rng(0)
    for _ in range(30):
        values = rng.integers(0, 6, size=(12, 2)).astype(float)
        truth = metrics.pareto_front(values, MIN2)
        mapped = -values
        lo = mapped.min(axis=0)
        span = mapped.max(axis=0) - lo
        span[span == 0.0] = 1.0
        h = (mapped - lo) / span
        mask = epsilon_discard(h, h.copy(), np.zeros_like(h), 0.0)
        # a self-duplicate row may survive elsewhere; front members must stay
        for i in truth:
            assert not mask[i]


def test_epal_huge_epsilon_measures_little():
    ds = generate_synthetic("bi-objective-tradeoff", 7, seed=0)
    oracle = TableOracle(ds)
    run = epal(ds.candidates(), oracle, EpalParams(epsilon=1e6), ds.directions, seed=1)
    assert run.measurements_used <= EPAL_INIT_SIZE + 2
    assert run.stop_reason == "pool-exhausted"
    assert oracle.count == run.measurements_used


def test_epal_epsilon_ordering_on_measurements():
    ds = generate_synthetic("bi-objective-tradeoff", 8, seed=1)
    careless, cautious = [], []
    for seed in range(3):
        careless.append(epal(ds.candidates(), TableOracle(ds),
                             EpalParams(epsilon=0.3), ds.directions, seed).measurements_used)
        cautious.append(epal(ds.candidates(), TableOracle(ds),
                             EpalParams(epsilon=0.01), ds.directions, seed).measurements_used)
    assert np.median(careless) < np.median(cautious)


def test_epal_wall_time_abort_keeps_partial_results():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=2)
    run = epal(ds.candidates(), TableOracle(ds),
               EpalParams(epsilon=0.01, max_wall_time=0.0), ds.directions, seed=0)
    assert run.stop_reason == "wall-time"
    assert run.measurements_used == EPAL_INIT_SIZE
    assert run.front is not None


def test_epal_front_is_non_dominated_subset_of_evaluated():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=3)
    run = epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=0.1),
               ds.directions, seed=4)
    assert set(run.front) <= set(run.evaluated_ids)
    vectors = [tuple(ds.values[i]) for i in run.front]
    assert len(metrics.pareto_front(vectors, ds.directions)) == len(vectors)


def test_epal_validation():
    ds = generate_synthetic("bi-objective-tradeoff", 4, seed=0)
    with pytest.raises(ValueError, match="^candidate pool has 5 rows, need 20 for the warm-up$"):
        epal(ds.candidates(range(5)), TableOracle(ds), EpalParams(), ds.directions)
    with pytest.raises(ValueError, match="two objectives"):
        epal(ds.candidates(), TableOracle(ds), EpalParams(), ("minimize",))
    with pytest.raises(ValueError):
        EpalParams(epsilon=-0.1)
    # NaN compares False with everything, which would switch discarding off
    with pytest.raises(ValueError, match="NaN"):
        EpalParams(epsilon=float("nan"))
    assert EpalParams(epsilon=float("inf")).epsilon == float("inf")
    # a negative limit stopped the run after its warm-up, and NaN switched the limit off
    for limit in (-3.0, -1e-9, float("nan"), float("-inf")):
        with pytest.raises(ValueError, match="max_wall_time must be >= 0 and not NaN"):
            EpalParams(max_wall_time=limit)
    for limit in (None, 0.0, 2.5, float("inf")):
        assert EpalParams(max_wall_time=limit).max_wall_time == limit


def test_epal_deterministic():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=5)
    a = epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=0.2), ds.directions, seed=8)
    b = epal(ds.candidates(), TableOracle(ds), EpalParams(epsilon=0.2), ds.directions, seed=8)
    assert a.evaluated == b.evaluated
    assert a.front == b.front


def test_lives_loop_with_replacement_trains_on_rows_in_measurement_order():
    ds = generate_synthetic("single-peak", 6, seed=3)
    train, hold, val = pools_for(ds, seed=1)
    scores = iter(range(10_000))
    tree, run = _lives_loop(
        train, hold, val, TableOracle(ds), LivesParams(lives=1),
        cart.CartParams(), "minimize", 0, seed=6, with_replacement=True,
        scorer=lambda preds, actual: float(next(scores)),
    )
    train_trace = run.evaluated[len(hold):-1]
    ids = [cid for cid, _ in train_trace]
    assert len(ids) == len(train) > len(set(ids))  # some position drawn twice
    X = rows_of(train, ids)
    y = np.array([values[0] for _, values in train_trace])
    assert tree == cart.fit(X, y, cart.CartParams())
