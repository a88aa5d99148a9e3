import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.metrics import (
    average_ranks,
    best_rows,
    front_comparison,
    front_quality,
    mmre,
    mu_rd,
    pareto_front,
    rank_difference,
)

from conftest import dominates, make_dataset

MIN2 = ("minimize", "minimize")


def brute_force_front(points, directions):
    """O(n^2) double-loop oracle for the non-dominated set."""
    idx = []
    for i, a in enumerate(points):
        if not any(dominates(b, a, directions) for b in points):
            idx.append(i)
    return tuple(idx)


# --- relative error -------------------------------------------------------

def test_mmre_direct():
    assert mmre([110.0], [100.0]) == pytest.approx(10.0)
    assert mmre([100.0, 5.0], [100.0, 5.0]) == 0.0
    # hand evaluation: |90-100|/100*100 = 10, |240-200|/200*100 = 20
    assert mmre([90.0, 240.0], [100.0, 200.0]) == pytest.approx(15.0)


def test_mmre_rejects_bad_inputs():
    with pytest.raises(ValueError):
        mmre([1.0], [0.0])
    with pytest.raises(ValueError):
        mmre([1.0], [-2.0])
    with pytest.raises(ValueError):
        mmre([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        mmre([], [])


# --- rank agreement -------------------------------------------------------

def test_mu_rd_identical_orderings():
    assert mu_rd([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 0.0


def test_mu_rd_reversed_four_elements():
    # ranks (1,2,3,4) vs (4,3,2,1): |diffs| = 3,1,1,3 -> mean 2.0
    assert mu_rd([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.0)


def test_mu_rd_tied_predictions_average_rank():
    # prediction ranks (2,2,2) vs actual (1,2,3): mean(1,0,1) = 2/3
    assert mu_rd([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)


def test_average_ranks_ties():
    assert average_ranks([10.0, 10.0, 20.0]).tolist() == [1.5, 1.5, 3.0]


@settings(max_examples=60)
@given(st.lists(st.integers(-50, 50), min_size=1, max_size=30), st.integers(1, 5))
def test_mu_rd_invariant_under_monotone_transforms(actual, scale):
    predicted = [float(v) for v in actual]
    transformed = [scale * v + 7.0 for v in predicted]
    cubed = [v ** 3 for v in predicted]
    base = mu_rd(predicted, actual)
    assert mu_rd(transformed, actual) == pytest.approx(base)
    assert mu_rd(cubed, actual) == pytest.approx(base)


# --- rank difference ------------------------------------------------------

def test_rank_difference_optimum_is_zero():
    ds = make_dataset([(i,) for i in range(8)], [float(i + 1) for i in range(8)])
    assert rank_difference(0, ds) == 0


def test_rank_difference_seventh_best_of_1512():
    values = [float(i + 1) for i in range(1512)]
    ds = make_dataset([(i,) for i in range(1512)], values)
    assert rank_difference(6, ds) == 6


def test_rank_difference_tied_optima():
    ds = make_dataset([(i,) for i in range(4)], [1.0, 1.0, 2.0, 3.0])
    assert rank_difference(0, ds) == 0
    assert rank_difference(1, ds) == 0


def test_rank_difference_respects_direction():
    ds = make_dataset([(i,) for i in range(4)], [1.0, 2.0, 3.0, 4.0], directions=["maximize"])
    assert rank_difference(3, ds) == 0
    assert rank_difference(0, ds) == 3


def test_rank_difference_unknown_id():
    ds = make_dataset([(0,), (1,)], [1.0, 2.0])
    with pytest.raises(ValueError):
        rank_difference(9, ds)


def min_rank(values, i, direction):
    """1-based rank of entry i, ties taking the smallest tied rank: the
    arithmetic the pool rank used before `rank_difference` took `rows`."""
    v = np.asarray(values, dtype=float) * (1.0 if direction == "minimize" else -1.0)
    return int(np.sum(v < v[i])) + 1


def pool_rank(dataset, pool, best, objective):
    """The harness's rank of `best` within its pool, as first written."""
    values = dataset.values[pool, objective]
    pos = int(np.nonzero(pool == best)[0][0])
    return min_rank(values, pos, dataset.objectives[objective].direction) - 1


@settings(max_examples=300)
@given(st.data())
def test_rank_difference_matches_min_rank_oracle(data):
    n = data.draw(st.integers(2, 30))
    m = data.draw(st.integers(1, 2))
    # few distinct values, so ties are common
    values = [[float(data.draw(st.integers(0, 4))) for _ in range(m)] for _ in range(n)]
    directions = [data.draw(st.sampled_from(["minimize", "maximize"])) for _ in range(m)]
    ds = make_dataset([(i,) for i in range(n)], values, directions=directions)
    objective = data.draw(st.integers(0, m - 1))
    full = data.draw(st.booleans())
    if full:
        pool = list(range(n))
    else:
        pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    pool = data.draw(st.permutations(pool))
    best = data.draw(st.sampled_from(pool))
    if data.draw(st.booleans()):
        best, rows = np.int64(best), np.asarray(pool, dtype=np.int64)
    else:
        rows = [int(i) for i in pool]
    expected = pool_rank(ds, np.asarray(pool), best, objective)
    assert rank_difference(best, ds, objective, rows=rows) == expected
    whole = min_rank(ds.values[:, objective], int(best), directions[objective]) - 1
    assert rank_difference(best, ds, objective) == whole
    if full:
        assert expected == whole
    outside = sorted(set(range(n)) - set(pool))
    if outside:
        with pytest.raises(ValueError, match="not among"):
            rank_difference(outside[0], ds, objective, rows=rows)


def test_best_rows():
    ds = make_dataset([(i,) for i in range(4)], [2.0, 1.0, 1.0, 3.0])
    assert best_rows(ds) == (1, 2)


# --- dominance ------------------------------------------------------------

def test_dominates_basic():
    assert dominates((1.0, 2.0), (2.0, 3.0), MIN2)
    assert not dominates((1.0, 2.0), (1.0, 2.0), MIN2)
    assert not dominates((1.0, 3.0), (2.0, 2.0), MIN2)
    assert not dominates((2.0, 2.0), (1.0, 3.0), MIN2)


def test_dominates_direction_mapping():
    both_max = ("maximize", "maximize")
    assert dominates((2.0, 3.0), (1.0, 2.0), both_max)
    mixed = ("minimize", "maximize")
    assert dominates((1.0, 9.0), (2.0, 8.0), mixed)


vec2 = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=200)
@given(vec2, vec2)
def test_dominance_antisymmetry(a, b):
    assert not (dominates(a, b, MIN2) and dominates(b, a, MIN2))


@settings(max_examples=200)
@given(vec2, vec2, vec2)
def test_dominance_transitivity(a, b, c):
    if dominates(a, b, MIN2) and dominates(b, c, MIN2):
        assert dominates(a, c, MIN2)


# --- Pareto front ---------------------------------------------------------

def test_pareto_front_single_point():
    assert pareto_front([(1.0, 2.0)], MIN2) == (0,)


def test_pareto_front_dominance_chain():
    pts = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    assert pareto_front(pts, MIN2) == (0,)


def test_pareto_front_retains_duplicates():
    pts = [(1.0, 1.0), (1.0, 1.0), (2.0, 0.5), (3.0, 3.0)]
    assert pareto_front(pts, MIN2) == (0, 1, 2)


def test_pareto_front_matches_brute_force_bi_objective():
    rng = np.random.default_rng(4)
    pts = [tuple(v) for v in rng.integers(0, 12, size=(200, 2)).astype(float)]
    assert pareto_front(pts, MIN2) == brute_force_front(pts, MIN2)


def test_pareto_front_matches_brute_force_three_objectives():
    rng = np.random.default_rng(5)
    directions = ("minimize", "maximize", "minimize")
    pts = [tuple(v) for v in rng.integers(0, 6, size=(120, 3)).astype(float)]
    assert pareto_front(pts, directions) == brute_force_front(pts, directions)


@settings(max_examples=60)
@given(st.lists(vec2, min_size=1, max_size=25))
def test_pareto_front_idempotent(points):
    pts = [tuple(map(float, p)) for p in points]
    front = pareto_front(pts, MIN2)
    sub = [pts[i] for i in front]
    assert pareto_front(sub, MIN2) == tuple(range(len(sub)))


# --- GD / IGD -------------------------------------------------------------

def test_gd_igd_identical_fronts():
    front = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
    assert front_comparison(front, front, MIN2) == (0.0, 0.0)


def test_gd_zero_without_spread():
    # one true member approximates: converged but not diverse
    true = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
    gd, igd = front_comparison(true, [(1.0, 1.0)], MIN2)
    assert gd == 0.0
    assert igd > 0.0


def test_gd_igd_hand_geometry():
    true = [(0.0, 1.0), (1.0, 0.0)]
    approx = [(0.5, 0.5)]
    gd, igd = front_comparison(true, approx, MIN2)
    assert gd == pytest.approx(math.sqrt(0.5))
    assert igd == pytest.approx(math.sqrt(0.5))


def test_front_comparison_validation():
    with pytest.raises(ValueError, match="non-dominated"):
        front_comparison([(0.0, 1.0), (1.0, 0.0)], [(1.0, 1.0), (2.0, 2.0)], MIN2)
    with pytest.raises(ValueError, match="degenerate"):
        front_comparison([(1.0, 1.0)], [(2.0, 2.0)], MIN2)
    with pytest.raises(ValueError):
        front_comparison([], [(1.0, 1.0)], MIN2)


def test_degenerate_objective_dropped():
    # third objective constant on the true front: distances use the other two
    directions = ("minimize", "minimize", "minimize")
    true = [(0.0, 2.0, 5.0), (2.0, 0.0, 5.0)]
    # were it kept, its 0/0 would make GD NaN
    gd, _ = front_comparison(true, [(1.0, 1.0, 5.0)], directions)
    assert gd == pytest.approx(math.sqrt(0.5))


def test_gd_never_worsens_when_adding_true_member():
    true = [(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)]
    worse, _ = front_comparison(true, [(1.5, 1.5)], MIN2)
    better, _ = front_comparison(true, [(1.5, 1.5), (2.0, 0.0)], MIN2)
    assert better < worse
    assert better == pytest.approx(worse / 2.0)


def test_pareto_front_nan_and_infinite_match_brute_force():
    # a NaN row neither dominates nor is dominated; infinities compare normally
    nan, inf = float("nan"), float("inf")
    for directions in (MIN2, ("minimize", "maximize", "minimize")):
        m = len(directions)
        rng = np.random.default_rng(m)
        for _ in range(50):
            pts = rng.integers(0, 4, size=(10, m)).astype(float)
            pts[rng.integers(0, 10, size=3), rng.integers(0, m, size=3)] = rng.choice(
                [nan, inf, -inf], size=3)
            pts = [tuple(p) for p in pts]
            assert pareto_front(pts, directions) == brute_force_front(pts, directions)


@pytest.mark.parametrize("m", [1, 3, 4])
def test_pareto_front_blocked_path_spans_blocks(monkeypatch, m):
    monkeypatch.setattr("flashtune.metrics._BLOCK_ELEMS", 50)
    rng = np.random.default_rng(m)
    directions = ("minimize", "maximize", "minimize", "maximize")[:m]
    pts = [tuple(v) for v in rng.integers(0, 4, size=(40, m)).astype(float)]
    assert pareto_front(pts, directions) == brute_force_front(pts, directions)


def test_pareto_front_single_objective():
    pts = [(3.0,), (1.0,), (2.0,), (1.0,)]
    assert pareto_front(pts, ("minimize",)) == (1, 3)
    assert pareto_front(pts, ("maximize",)) == (0,)


def inline_front_quality(dataset, front, objectives, true_ids=None):
    """The trace -> front -> front_comparison block that the harness, tune-mo
    and eval each held before `front_quality`."""
    directions = tuple(dataset.objectives[j].direction for j in objectives)
    V = dataset.values[:, list(objectives)]
    if true_ids is None:
        true_ids = pareto_front(V, directions)
    true_vectors = [tuple(V[i]) for i in true_ids]
    approx = [tuple(V[i]) for i in front]
    return front_comparison(true_vectors, approx, directions)


@settings(max_examples=200)
@given(st.data())
def test_front_quality_matches_inline_block(data):
    n = data.draw(st.integers(3, 25))
    values = [[float(data.draw(st.integers(0, 9))) for _ in range(3)] for _ in range(n)]
    directions = [data.draw(st.sampled_from(["minimize", "maximize"])) for _ in range(3)]
    ds = make_dataset([(i,) for i in range(n)], values, directions=directions)
    objectives = tuple(data.draw(st.permutations([0, 1, 2]))[:data.draw(st.integers(2, 3))])
    dirs = tuple(directions[j] for j in objectives)
    V = ds.values[:, list(objectives)]

    def subset_front():
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        return [rows[i] for i in pareto_front(V[rows], dirs)]

    front = subset_front()
    true_ids = subset_front() if data.draw(st.booleans()) else None
    try:
        expected = inline_front_quality(ds, front, objectives, true_ids)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            front_quality(ds, front, objectives, true_front=true_ids)
    else:
        assert front_quality(ds, front, objectives, true_front=true_ids) == expected
