import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune import baselines, cart
from flashtune.baselines import LivesParams
from flashtune.cart import (
    CartParams,
    Leaf,
    Split,
    TreeNode,
    argmin_row,
    dump_tree,
    fit,
    predict_batch,
)
from flashtune.flash import FlashParams, flash_multi, flash_single
from flashtune.space import TableOracle, split
from flashtune.synth import generate_synthetic

from conftest import predict

LOOSE = CartParams(min_samples_split=2, min_samples_leaf=1)


def reference_best_split(X: np.ndarray, y: np.ndarray, min_leaf: int, unit: float):
    """Oracle for `fit`: the per-option split search that sorts at every node.

    Thresholds are midpoints between consecutive distinct sorted values of
    each option within this node.  Ties in gain resolve to the lowest option
    index, then the lowest threshold.  A gain must beat the floor
    1e-12 * (|base_sse| + unit), where `unit` is 4^e for e the binary
    exponent of the whole fit's max|y|: `fit`'s floor of 1e-12 * (|sse| + 1)
    in its units of 2^e, written in the targets' own units.
    """
    n = y.size
    total_sum = y.sum()
    total_sq = (y * y).sum()
    base_sse = total_sq - total_sum * total_sum / n
    eps = 1e-12 * (abs(base_sse) + unit)

    best_gain = 0.0
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xv = X[order, j]
        yv = y[order]
        cuts = np.nonzero(xv[1:] > xv[:-1])[0]
        if cuts.size == 0:
            continue
        left_n = cuts + 1
        right_n = n - left_n
        ok = (left_n >= min_leaf) & (right_n >= min_leaf)
        if not ok.any():
            continue
        csum = np.cumsum(yv)
        csq = np.cumsum(yv * yv)
        ls = csum[cuts]
        lq = csq[cuts]
        rs = total_sum - ls
        rq = total_sq - lq
        child_sse = (lq - ls * ls / left_n) + (rq - rs * rs / right_n)
        gain = np.where(ok, base_sse - child_sse, -np.inf)
        k = int(np.argmax(gain))
        if gain[k] > best_gain + eps or (best is None and gain[k] > eps):
            best_gain = float(gain[k])
            thr = float((xv[cuts[k]] + xv[cuts[k] + 1]) / 2.0)
            best = (best_gain, j, thr)
    return best


def reference_grow(X: np.ndarray, y: np.ndarray, params: CartParams, unit: float) -> TreeNode:
    n = y.size
    if n < params.min_samples_split or y.max() == y.min():
        return Leaf(float(y.mean()), n)
    found = reference_best_split(X, y, params.min_samples_leaf, unit)
    if found is None:
        return Leaf(float(y.mean()), n)
    _, j, thr = found
    mask = X[:, j] <= thr
    return Split(
        j,
        thr,
        reference_grow(X[mask], y[mask], params, unit),
        reference_grow(X[~mask], y[~mask], params, unit),
    )


def reference_fit(xs, ys, params: CartParams = CartParams()) -> TreeNode:
    """Grow the tree by sorting each option afresh at every node and copying each child."""
    y = np.asarray(ys, dtype=float)
    unit = 4.0 ** np.frexp(np.abs(y).max())[1]
    return reference_grow(np.asarray(xs, dtype=float), y, params, unit)


def exhaustive_best_gain(X, y, min_leaf=1):
    """Independent oracle: scan every (option, midpoint threshold) pair."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    base = float(((y - y.mean()) ** 2).sum())
    best = 0.0
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for a, b in zip(values, values[1:]):
            thr = (a + b) / 2.0
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            sse = ((left - left.mean()) ** 2).sum() + ((right - right.mean()) ** 2).sum()
            best = max(best, base - float(sse))
    return best


def leaf_assignments(tree, X):
    """Brute-force partition replay: map each row to the leaf it lands in."""
    groups = {}
    for i, row in enumerate(X):
        node = tree
        path = []
        while isinstance(node, Split):
            go_left = row[node.option_index] <= node.threshold
            path.append((node.option_index, node.threshold, go_left))
            node = node.left if go_left else node.right
        groups.setdefault(tuple(path) + (id(node),), []).append(i)
    return groups


def test_constant_targets_single_leaf():
    X = np.array([[0.0], [1.0], [0.0], [1.0]])
    tree = fit(X, [5.0, 5.0, 5.0, 5.0])
    assert tree == Leaf(5.0, 4)


def test_perfectly_separable_split():
    X = np.array([[0.0]] * 3 + [[1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    tree = fit(X, y)
    assert isinstance(tree, Split)
    assert tree.option_index == 0
    assert tree.threshold == 0.5
    assert tree.left == Leaf(1.0, 3)
    assert tree.right == Leaf(9.0, 3)


def test_memorization_with_loose_params():
    rng = np.random.default_rng(11)
    X = np.array([[float(b) for b in np.binary_repr(i, 6)] for i in range(64)])
    y = rng.normal(size=64)
    tree = fit(X, y, LOOSE)
    preds = predict_batch(tree, X)
    assert np.allclose(preds, y)


def test_predict_single_leaf_any_config():
    assert predict(Leaf(7.5, 3), (0.0, 1.0, 2.0)) == 7.5


def test_predict_follows_split():
    X = np.array([[0.0]] * 3 + [[1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    tree = fit(X, y)
    assert predict(tree, (0.0,)) == 1.0
    assert predict(tree, (1.0,)) == 9.0


def test_training_predictions_are_leaf_means():
    rng = np.random.default_rng(3)
    X = rng.integers(0, 4, size=(40, 3)).astype(float)
    X[0, 0] += 0.0  # rows may repeat; targets vary
    y = rng.normal(size=40)
    tree = fit(X, y, CartParams(min_samples_split=6, min_samples_leaf=3))
    for rows in leaf_assignments(tree, X).values():
        expected = float(np.mean(y[rows]))
        for i in rows:
            assert predict(tree, X[i]) == pytest.approx(expected)


def test_predict_batch_matches_predict():
    rng = np.random.default_rng(5)
    X = rng.integers(0, 3, size=(50, 4)).astype(float)
    y = rng.normal(size=50)
    tree = fit(X, y, LOOSE)
    queries = rng.integers(0, 3, size=(100, 4)).astype(float)
    batch = predict_batch(tree, queries)
    assert batch.tolist() == [predict(tree, q) for q in queries]
    assert predict_batch(tree, np.zeros((0, 4))).tolist() == []
    assert predict_batch(tree, []).tolist() == []
    # a matrix of no options still has its rows, and a tree without a split predicts them
    no_options = fit(np.zeros((5, 0)), [1.0, 2.0, 3.0, 4.0, 5.0])
    assert predict_batch(no_options, np.zeros((5, 0))).tolist() == [3.0] * 5
    assert predict(no_options, ()) == 3.0
    assert predict_batch(tree, queries[:1]).tolist() == [predict(tree, queries[0])]


@settings(max_examples=100)
@given(st.data())
def test_root_split_matches_exhaustive_enumeration(data):
    n = data.draw(st.integers(2, 8))
    d = data.draw(st.integers(1, 3))
    X = np.array(data.draw(
        st.lists(st.lists(st.integers(0, 3), min_size=d, max_size=d), min_size=n, max_size=n)
    ), dtype=float)
    y = np.array(data.draw(
        st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    ), dtype=float)
    oracle_gain = exhaustive_best_gain(X, y)
    tree = fit(X, y, LOOSE)
    if isinstance(tree, Leaf):
        assert oracle_gain == pytest.approx(0.0, abs=1e-9)
        return
    left = y[X[:, tree.option_index] <= tree.threshold]
    right = y[X[:, tree.option_index] > tree.threshold]
    base = ((y - y.mean()) ** 2).sum()
    achieved = base - ((left - left.mean()) ** 2).sum() - ((right - right.mean()) ** 2).sum()
    assert achieved == pytest.approx(oracle_gain, abs=1e-8)


@settings(max_examples=60)
@given(st.data())
def test_predictions_bounded_by_targets(data):
    n = data.draw(st.integers(1, 20))
    d = data.draw(st.integers(1, 3))
    X = np.array(data.draw(
        st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d), min_size=n, max_size=n)
    ), dtype=float)
    y = np.array(data.draw(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=n, max_size=n)
    ))
    tree = fit(X, y, LOOSE)
    queries = np.array(data.draw(
        st.lists(st.lists(st.integers(-1, 5), min_size=d, max_size=d), min_size=1, max_size=10)
    ), dtype=float)
    preds = predict_batch(tree, queries)
    assert np.all(preds >= y.min() - 1e-9)
    assert np.all(preds <= y.max() + 1e-9)


@st.composite
def fit_cases(draw):
    """Option matrices, targets and params chosen to hit split-search ties."""
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(d):
        kind = draw(st.sampled_from(["boolean", "levels", "continuous", "constant", "duplicate"]))
        if kind == "boolean":
            column = rng.integers(0, 2, n).astype(float)
        elif kind == "levels":
            column = rng.integers(0, draw(st.integers(2, 5)), n).astype(float)
        elif kind == "continuous":
            column = rng.normal(size=n)
        elif kind == "constant":
            column = np.full(n, float(rng.integers(-2, 3)))
        else:
            column = columns[draw(st.integers(0, len(columns) - 1))] if columns else np.zeros(n)
        columns.append(column)
    X = np.column_stack(columns)
    if draw(st.booleans()):
        X = X[rng.integers(0, max(1, n // 3), n)]  # repeated rows
    target = draw(st.sampled_from(["integer", "continuous", "rounded"]))
    if target == "integer":
        y = rng.integers(-3, 4, n).astype(float)
    elif target == "continuous":
        y = rng.normal(size=n)
    else:
        y = np.round(rng.normal(size=n), 1)
    leaf = draw(st.integers(1, 4))
    params = CartParams(
        min_samples_split=draw(st.integers(2 * leaf, 2 * leaf + 3)),
        min_samples_leaf=leaf,
    )
    return X, y, params


@settings(max_examples=200, deadline=None)
@given(fit_cases())
def test_fit_matches_per_node_sort_reference(case):
    X, y, params = case
    assert fit(X, y, params) == reference_fit(X, y, params)


# --- targets in any power-of-two unit ---------------------------------------------

SCALES = [*range(-60, 61), -520, -500, 500, 510, 520]


def scaled(tree: TreeNode, k: int) -> TreeNode:
    """`tree` with every leaf prediction times 2^k, splits untouched."""
    if isinstance(tree, Leaf):
        return Leaf(float(np.ldexp(tree.prediction, k)), tree.count)
    return Split(tree.option_index, tree.threshold, scaled(tree.left, k), scaled(tree.right, k))


@settings(max_examples=25, deadline=None)
@given(fit_cases())
def test_targets_times_a_power_of_two_scale_only_the_leaves(case):
    """y -> y * 2^k is exact in binary floating point, so it must move no
    split and scale every leaf by exactly 2^k: at k = -25 the targets used
    to fall under the split search's absolute floor, and above k = 509
    their squares overflowed."""
    X, y, params = case
    tree = fit(X, y, params)
    for k in SCALES:
        assert fit(X, np.ldexp(y, k), params) == scaled(tree, k)


def test_targets_near_the_float_limit_give_finite_leaves():
    """Sums of these targets overflow, but their means are finite: mixed
    signs used to give a NaN leaf and a constant table a +inf one."""
    assert fit(np.zeros((8, 1)), [1.7e308, 1.7e308, -1.7e308, -1.7e308, 0, 0, 0, 0]) == Leaf(0.0, 8)
    assert fit(np.zeros((40, 1)), np.full(40, 1.7e308)) == Leaf(1.7e308, 40)
    top = np.nextafter(np.inf, 0.0)
    X = np.arange(6.0)[:, None]
    assert fit(X, [top, top, top, -top, -top, -top], LOOSE) == Split(
        0, 2.5, Leaf(top, 3), Leaf(-top, 3))


def test_split_floor_is_relative_to_the_largest_target():
    """The split search's floor, 1e-12 in scaled units, is about
    1e-12 * max|y|^2 in the targets' own units.  Beside targets of 2^20, a
    node whose targets differ by 1e-3 stays a leaf; beside targets of 1 it
    splits; and two targets 1e-7 apart, alone, split too.  The reference
    fit has the same floor."""
    X = np.arange(4.0)[:, None]
    cases = [
        (X, [0.0, 1e-3, 2.0**20, 2.0**20], Split(0, 1.5, Leaf(1e-3 / 2, 2), Leaf(2.0**20, 2))),
        (X, [0.0, 1e-3, 1.0, 1.0],
         Split(0, 1.5, Split(0, 0.5, Leaf(0.0, 1), Leaf(1e-3, 1)), Leaf(1.0, 2))),
        (X[:2], [0.0, 1e-7], Split(0, 0.5, Leaf(0.0, 1), Leaf(1e-7, 1))),
    ]
    for xs, ys, tree in cases:
        assert fit(xs, ys, LOOSE) == tree
        assert reference_fit(xs, ys, LOOSE) == tree


def test_memo_tells_scales_apart():
    """Targets and their doubles scale to the same bits; the exponent the
    memo keeps tells them apart, also where the doubled targets add a row."""
    rng = np.random.default_rng(12)
    X = rng.integers(0, 3, size=(30, 3)).astype(float)
    y = rng.normal(size=30)
    y[-1] = 0.0  # not the largest, so the exponent of y[:-1] is that of y
    memo: dict = {}
    assert fit(X, y, memo=memo) == fit(X, y)
    assert fit(X, 2.0 * y, memo=memo) == scaled(fit(X, y), 1)
    fit(X[:-1], y[:-1], memo=memo)
    assert fit(X, 2.0 * y, memo=memo) == scaled(fit(X, y), 1)


# --- refits that reuse subtrees through a memo -----------------------------------

@settings(max_examples=150, deadline=None)
@given(fit_cases(), st.data())
def test_memo_refits_match_fresh_fits(case, data):
    """Each step adds one pool row to the training rows, at a random position
    (flash keeps rows in pool order) or at the end (the lives loop keeps them
    in measurement order), and may repeat a row (sampling with replacement).
    Every refit on the shared memo gives the fresh tree, and leaves the memo
    holding what a fresh memo gets from this fit."""
    X, y, params = case
    n = y.size
    rows = list(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    memo: dict = {}
    for step in range(data.draw(st.integers(1, 12))):
        if step:
            row = data.draw(st.integers(0, n - 1))
            at = data.draw(st.one_of(st.just(len(rows)), st.integers(0, len(rows))))
            rows.insert(at, row)
        tree = fit(X[rows], y[rows], params, memo=memo)
        fresh: dict = {}
        assert tree == fit(X[rows], y[rows], params, memo=fresh)
        assert tree == fit(X[rows], y[rows], params)
        assert tree == reference_fit(X[rows], y[rows], params)
        assert same_memo(memo, fresh)


def same_memo(a: dict, b: dict) -> bool:
    """Both memos hold the same params, exponent, row bits and tree."""
    return (a.keys() == b.keys() and a["params"] == b["params"] and a["e"] == b["e"]
            and a["bits"].shape == b["bits"].shape
            and a["bits"].tobytes() == b["bits"].tobytes() and a["tree"] == b["tree"])


def test_memo_shared_by_unrelated_fits_returns_their_own_trees():
    rng = np.random.default_rng(11)
    A = rng.integers(0, 3, size=(40, 4)).astype(float)
    ya = rng.normal(size=40)
    B = rng.integers(0, 2, size=(25, 6)).astype(float)
    yb = rng.integers(0, 5, size=25).astype(float)
    # same options as A with one target moved, and other options with A's targets
    yc = ya.copy()
    yc[7] += 1.0
    A2 = rng.integers(0, 3, size=(40, 4)).astype(float)
    # A without its row 5: one row removed from A, or one inserted into it
    A5, ya5 = np.delete(A, 5, axis=0), np.delete(ya, 5)
    memo: dict = {}
    for X, y, params in [(A, ya, LOOSE), (B, yb, LOOSE), (A, ya, LOOSE), (A2, ya, LOOSE),
                         (A, ya, LOOSE), (A, yc, LOOSE), (A, ya, CartParams()),
                         (A, ya, LOOSE), (B[:20], yb[:20], LOOSE),
                         (A[:38], ya[:38], LOOSE), (A, ya, LOOSE),  # two rows added
                         (A5, ya5, LOOSE),  # one row removed
                         (A, yc, LOOSE), (A, ya, LOOSE),  # one target changed in place
                         (A[:39], ya[:39], LOOSE), (A, yc, LOOSE),  # a row added, a target changed
                         (A5, ya5, LOOSE), (A, yc, LOOSE),  # a row inserted, a later target changed
                         (A5, ya5, CartParams()), (A, ya, LOOSE)]:  # a row inserted, other params
        assert fit(X, y, params, memo=memo) == reference_fit(X, y, params)


def test_memo_refit_checks_the_rows_after_the_inserted_one():
    """Rows 0-1 are kept and a row is inserted at 2, but the last target
    changed too: the right side of the root split, which the new row
    misses, now has other targets, so the refit must not take it from the
    last tree."""
    X = np.arange(8.0)[:, None]
    memo: dict = {}
    assert fit(X, [0, 0, 0, 0, 10, 10, 10, 10], LOOSE, memo=memo) == Split(
        0, 3.5, Leaf(0.0, 4), Leaf(10.0, 4))
    X2 = np.insert(X, 2, 1.5, axis=0)
    y2 = [0, 0, 0, 0, 0, 10, 10, 10, 11]
    assert fit(X2, y2, LOOSE, memo=memo) == reference_fit(X2, y2, LOOSE) == Split(
        0, 3.5, Leaf(0.0, 5), Split(0, 6.5, Leaf(10.0, 3), Leaf(11.0, 1)))


def test_memo_refit_grows_afresh_where_the_threshold_moves_on_the_same_option():
    """The row inserted at 3.5 moves the root's cut on option 0 from 4.5 to
    3.25, so the left side it misses has lost row 4 and is grown afresh."""
    X = np.arange(6.0)[:, None]
    memo: dict = {}
    assert fit(X, [0, 0, 0, 0, 0, 10], LOOSE, memo=memo) == Split(
        0, 4.5, Leaf(0.0, 5), Leaf(10.0, 1))
    X2 = np.insert(X, 4, 3.5, axis=0)
    y2 = [0, 0, 0, 0, 10, 0, 10]
    tree = fit(X2, y2, LOOSE, memo=memo)
    assert tree == reference_fit(X2, y2, LOOSE)
    assert (tree.option_index, tree.threshold, tree.left) == (0, 3.25, Leaf(0.0, 4))


def path_splits(tree: TreeNode, x) -> list[Split]:
    """The splits on the path of configuration `x`, root first."""
    splits = []
    while isinstance(tree, Split):
        splits.append(tree)
        tree = tree.left if x[tree.option_index] <= tree.threshold else tree.right
    return splits


def test_memo_refit_whose_splits_stay_searches_only_the_new_rows_path(monkeypatch):
    """A row inserted mid-table whose path keeps every old split and ends in
    the old one-row leaf, which it splits: the refit searches the nodes on
    that path and no other, and each side the row misses is the old
    subtree object."""
    rng = np.random.default_rng(13)
    X = rng.integers(0, 4, size=(60, 5)).astype(float)
    y = X @ np.array([3.0, -2.0, 1.0, 0.5, 0.0]) + rng.normal(scale=0.1, size=60)
    memo: dict = {}
    old = fit(np.delete(X, 38, axis=0), np.delete(y, 38), LOOSE, memo=memo)
    calls = []
    best_split = cart._best_split
    monkeypatch.setattr(cart, "_best_split", lambda *a: calls.append(1) or best_split(*a))
    tree = fit(X, y, LOOSE, memo=memo)
    assert tree == reference_fit(X, y, LOOSE)
    path, old_path = path_splits(tree, X[38]), path_splits(old, X[38])
    assert len(path) == len(old_path) + 1 > 3
    assert [(s.option_index, s.threshold) for s in path[:-1]] == [
        (s.option_index, s.threshold) for s in old_path]
    for new, was in zip(path, old_path):
        missed = "right" if X[38, new.option_index] <= new.threshold else "left"
        assert getattr(new, missed) is getattr(was, missed)
    assert path[-1].left.count == path[-1].right.count == 1  # one-row leaves need no search
    assert len(calls) == len(path)


def test_memo_reuses_the_subtrees_a_new_row_misses():
    def nodes(tree):
        yield tree
        if isinstance(tree, Split):
            yield from nodes(tree.left)
            yield from nodes(tree.right)

    rng = np.random.default_rng(13)
    X = rng.integers(0, 4, size=(60, 5)).astype(float)
    y = X @ np.array([3.0, -2.0, 1.0, 0.5, 0.0]) + rng.normal(scale=0.1, size=60)
    memo: dict = {}
    before = {id(t) for t in nodes(fit(X[:-1], y[:-1], LOOSE, memo=memo))}
    after = fit(X, y, LOOSE, memo=memo)
    assert after == reference_fit(X, y, LOOSE)
    reused = [t for t in nodes(after) if id(t) in before]
    assert reused and any(isinstance(t, Split) for t in reused)


def test_memo_keeps_only_the_last_fits_nodes():
    rng = np.random.default_rng(12)
    X = rng.integers(0, 4, size=(80, 5)).astype(float)
    y = rng.normal(size=80)
    memo: dict = {}
    fit(X, y, LOOSE, memo=memo)
    fit(X[:10], y[:10], LOOSE, memo=memo)
    alone: dict = {}
    fit(X[:10], y[:10], LOOSE, memo=alone)
    assert same_memo(memo, alone)
    assert memo["bits"].shape == (10, 6)


# --- the refits the package makes ----------------------------------------------

def inserts_one_row(before, after) -> bool:
    """Brute force: the rows and targets `after` are those of `before`, bit
    for bit, with one row inserted at some position."""
    (Xb, yb), (Xa, ya) = before, after
    return Xa.shape[1:] == Xb.shape[1:] and any(
        np.delete(Xa, at, axis=0).tobytes() == Xb.tobytes()
        and np.delete(ya, at).tobytes() == yb.tobytes() for at in range(ya.size))


def run_method(method: str):
    """One run of `method` on a 7-option synthetic table."""
    if method == "flash_multi":
        ds = generate_synthetic("bi-objective-tradeoff", 7, 2)
        return flash_multi(ds.candidates(), TableOracle(ds), FlashParams(size=10, budget=25,
                                                                         n_projections=4))
    ds = generate_synthetic("interaction", 7, 2)
    if method == "flash_single":
        return flash_single(ds.candidates(), TableOracle(ds), FlashParams(size=10, budget=25))
    train, hold, val = (ds.candidates(part) for part in split(ds, 3))
    sampler = getattr(baselines, method)
    return sampler(train, hold, val, TableOracle(ds), LivesParams(lives=30), seed=3)


@pytest.mark.parametrize("method", ["flash_single", "flash_multi", "progressive_sampling",
                                    "rank_based"])
def test_every_memo_refit_inserts_one_row(monkeypatch, method):
    """Each memo the package passes to `fit` (one per objective in
    `flash_multi`) sees, after its first fit, the previous rows with exactly
    one row inserted: the one traffic whose refits reuse subtrees.  A
    caller that stops adding one row per refit fails here instead of
    silently growing every tree afresh."""
    fits: dict = {}
    real_fit = cart.fit

    def recording(xs, ys, params=CartParams(), *, memo=None):
        if memo is not None:
            fits.setdefault(id(memo), []).append(
                (np.array(xs, dtype=float), np.array(ys, dtype=float)))
        return real_fit(xs, ys, params, memo=memo)

    monkeypatch.setattr(cart, "fit", recording)
    run_method(method)
    assert len(fits) == (2 if method == "flash_multi" else 1)
    for seen in fits.values():
        assert len(seen) > 10
        for before, after in zip(seen, seen[1:]):
            assert inserts_one_row(before, after)


# --- predictions and picks over one path memo ------------------------------------

def read_only(X):
    X = np.array(X, dtype=float)
    X.flags.writeable = False
    return X


def argmin_oracle(tree, X, skip, sign):
    """The pick as a whole prediction vector gives it: `np.argmin` over the
    predictions of the rows not skipped, or None when every row is skipped."""
    pool = np.flatnonzero(~skip)
    if pool.size == 0:
        return None
    scores = predict_batch(tree, X) * sign
    return int(pool[np.argmin(scores[pool])])


def node_rows(tree, X):
    """Brute force: every path of the tree, as the memo names it, mapped to
    the positions of the rows of X that reach it."""
    found = {}
    for i, row in enumerate(X):
        node, path = tree, ()
        found.setdefault(path, []).append(i)
        while isinstance(node, Split):
            side = int(row[node.option_index] > node.threshold)
            path += ((node.option_index, node.threshold, side),)
            node = node.right if side else node.left
            found.setdefault(path, []).append(i)
    stack = [((), tree)]
    while stack:
        path, node = stack.pop()
        found.setdefault(path, [])
        if isinstance(node, Split):
            step = (node.option_index, node.threshold)
            stack += [(path + (step + (0,),), node.left), (path + (step + (1,),), node.right)]
    return {path: np.array(rows, dtype=np.intp) for path, rows in found.items()}


def check_memo(tree, X, memo):
    """The memo is over X and holds only paths of this tree, each with the
    rows that reach it."""
    truth = node_rows(tree, X)
    assert memo["X"] is X and () in memo["paths"]
    for path, rows in memo["paths"].items():
        assert rows.tolist() == truth[path].tolist()


def check_pick(tree, X, skip, sign, memo):
    """The pick equals the oracle's, or both find every row skipped; the memo
    passes `check_memo`."""
    want = argmin_oracle(tree, X, skip, sign)
    if want is None:
        with pytest.raises(ValueError, match="every row is skipped"):
            argmin_row(tree, X, skip, sign, memo=memo)
    else:
        got = argmin_row(tree, X, skip, sign, memo=memo)
        assert type(got) is int and got == want
        assert argmin_row(tree, X, skip, sign) == want
    check_memo(tree, X, memo)


@settings(max_examples=150, deadline=None)
@given(fit_cases(), st.data())
def test_predict_memo_matches_fresh_predictions(case, data):
    """The refits of `test_memo_refits_match_fresh_fits`, each predicting the
    whole fixed matrix through one memo: every result is bitwise the fresh
    `predict_batch` and the per-row `predict`, and the memo holds every path
    of the last tree, each with the rows that reach it, as a fresh one
    would."""
    X, y, params = case
    X = read_only(X)
    n = y.size
    rows = list(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    fit_memo: dict = {}
    predict_memo: dict = {}
    for step in range(data.draw(st.integers(1, 12))):
        if step:
            row = data.draw(st.integers(0, n - 1))
            at = data.draw(st.one_of(st.just(len(rows)), st.integers(0, len(rows))))
            rows.insert(at, row)
        tree = fit(X[rows], y[rows], params, memo=fit_memo)
        got = predict_batch(tree, X, memo=predict_memo)
        assert got.tobytes() == predict_batch(tree, X).tobytes()
        assert got.tobytes() == np.array([predict(tree, r) for r in X]).tobytes()
        check_memo(tree, X, predict_memo)
        fresh: dict = {}
        predict_batch(tree, X, memo=fresh)
        assert predict_memo["paths"].keys() == fresh["paths"].keys() == node_rows(tree, X).keys()


@settings(max_examples=150, deadline=None)
@given(fit_cases(), st.data())
def test_argmin_row_matches_the_argmin_over_predictions(case, data):
    """The refits of `test_predict_memo_matches_fresh_predictions`, each
    picking over a fixed matrix through one memo, in either direction, with
    integer or signed-zero targets (tied leaves) and skip masks that may cover
    whole leaves.  The matrix may lack some of the fitted rows, so that some
    leaves hold none of its rows."""
    X, y, params = case
    n = y.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    targets = data.draw(st.sampled_from(["drawn", "integer", "signed zeros"]))
    if targets == "integer":
        y = rng.integers(-2, 3, n).astype(float)
    elif targets == "signed zeros":
        y = rng.choice([-0.0, 0.0, 1.0], n)
    if data.draw(st.booleans()):
        Z = read_only(X[np.sort(rng.choice(n, size=data.draw(st.integers(1, n)), replace=False))])
    else:
        Z = read_only(X)
    sign = data.draw(st.sampled_from([1.0, -1.0]))
    rows = list(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    fit_memo: dict = {}
    pick_memo: dict = {}
    for step in range(data.draw(st.integers(1, 12))):
        if step:
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.integers(0, n - 1)))
        tree = fit(X[rows], y[rows], params, memo=fit_memo)
        skip = rng.random(Z.shape[0]) < data.draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
        if data.draw(st.booleans()):
            # every row of the leaves the oracle would pick from
            best = argmin_oracle(tree, Z, np.zeros(Z.shape[0], dtype=bool), sign)
            for group in leaf_assignments(tree, Z).values():
                if best in group:
                    skip[group] = True
        check_pick(tree, Z, skip, sign, pick_memo)


@st.composite
def drawn_trees(draw, d, depth=0):
    """Trees whose leaves hold ±0.0, ±inf or NaN, split at thresholds that
    some integer rows in [0, 3] never reach."""
    if depth == 4 or draw(st.booleans()):
        return Leaf(draw(st.sampled_from([-0.0, 0.0, 1.0, -1.0, np.inf, -np.inf, np.nan])), 1)
    return Split(draw(st.integers(0, d - 1)), draw(st.sampled_from([-0.5, 0.5, 1.5, 3.5])),
                 draw(drawn_trees(d, depth + 1)), draw(drawn_trees(d, depth + 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_argmin_row_ranks_signed_zeros_infinities_and_nan_as_argmin_does(data):
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(0, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    X = read_only(rng.integers(0, 4, size=(n, d)))
    memo: dict = {}
    for _ in range(data.draw(st.integers(1, 5))):
        tree = data.draw(drawn_trees(d))
        skip = rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        check_pick(tree, X, skip, data.draw(st.sampled_from([1.0, -1.0])), memo)


@settings(max_examples=60, deadline=None)
@given(fit_cases(), st.data())
def test_one_memo_serves_predictions_and_picks_alike(case, data):
    """The refits of `test_predict_memo_matches_fresh_predictions`, each
    predicting or picking, as drawn, over one matrix through one memo: every
    result equals a fresh call's, and the memo passes `check_memo`."""
    X, y, params = case
    X = read_only(X)
    n = y.size
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = list(data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)))
    fit_memo: dict = {}
    memo: dict = {}
    for step in range(data.draw(st.integers(2, 12))):
        if step:
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.integers(0, n - 1)))
        tree = fit(X[rows], y[rows], params, memo=fit_memo)
        # the first two calls use one function each, the rest are drawn
        if step == 0 or step > 1 and data.draw(st.booleans()):
            got = predict_batch(tree, X, memo=memo)
            assert got.tobytes() == predict_batch(tree, X).tobytes()
        else:
            skip = rng.random(n) < 0.5
            sign = data.draw(st.sampled_from([1.0, -1.0]))
            if skip.all():
                with pytest.raises(ValueError, match="every row is skipped"):
                    argmin_row(tree, X, skip, sign, memo=memo)
            else:
                assert argmin_row(tree, X, skip, sign, memo=memo) == argmin_row(tree, X, skip, sign)
        check_memo(tree, X, memo)


def stable_root_case():
    """A matrix whose target hangs mostly on option 0, so adding a training
    row keeps the root split."""
    rng = np.random.default_rng(21)
    X = read_only(rng.integers(0, 4, size=(2000, 5)))
    y = 10.0 * X[:, 0] + X[:, 1] - X[:, 2] + rng.normal(scale=0.1, size=2000)
    return X, y


class Predict:
    """`predict_batch` as the memo tests call it, with the per-row oracle."""

    def __call__(self, tree, X, memo=None):
        return predict_batch(tree, X, memo=memo).tobytes()

    def oracle(self, tree, X):
        return np.array([predict(tree, r) for r in np.asarray(X, dtype=float)]).tobytes()


class Pick:
    """`argmin_row` as the memo tests call it, skipping every `every`-th row
    (none when 0), with the oracle of `argmin_oracle`."""

    def __init__(self, sign=1.0, every=0):
        self.sign, self.every = sign, every

    def skip(self, X):
        skip = np.zeros(len(X), dtype=bool)
        if self.every:
            skip[::self.every] = True
        return skip

    def __call__(self, tree, X, memo=None):
        return argmin_row(tree, X, self.skip(X), self.sign, memo=memo)

    def oracle(self, tree, X):
        return argmin_oracle(tree, np.asarray(X, dtype=float), self.skip(X), self.sign)


@pytest.mark.parametrize("call", [Predict(), Pick()], ids=["predict", "pick"])
def test_memo_compares_fewer_rows_when_the_root_split_stays(monkeypatch, call):
    from flashtune import cart

    X, y = stable_root_case()
    compared = []
    partition = cart._partition

    def counting(X, rows, j, thr):
        compared.append(rows.size)
        return partition(X, rows, j, thr)

    monkeypatch.setattr(cart, "_partition", counting)
    fit_memo: dict = {}
    memo: dict = {}
    rows = list(range(0, 80, 2))
    before = fit(X[rows], y[rows], LOOSE, memo=fit_memo)
    call(before, X, memo=memo)
    rows.insert(5, 9)
    after = fit(X[rows], y[rows], LOOSE, memo=fit_memo)
    assert (after.option_index, after.threshold) == (before.option_index, before.threshold)
    compared.clear()
    got = call(after, X, memo=memo)
    assert sum(compared) < X.shape[0]
    compared.clear()
    assert call(after, X) == got
    assert sum(compared) >= X.shape[0]
    assert got == call.oracle(after, X)


@pytest.mark.parametrize("call", [Predict(), Pick(sign=-1.0, every=3)], ids=["predict", "pick"])
def test_memo_switched_to_another_matrix_starts_over(call):
    X, y = stable_root_case()
    other = read_only(X[::-1][:700])
    memo: dict = {}
    for rows, Z in [(range(40), X), (range(41), other), (range(42), X), (range(42), other)]:
        tree = fit(X[list(rows)], y[list(rows)], LOOSE)
        got = call(tree, Z, memo=memo)
        assert got == call(tree, Z) == call.oracle(tree, Z)
        check_memo(tree, Z, memo)


def test_predict_memo_returns_arrays_it_does_not_keep():
    X, y = stable_root_case()
    memo: dict = {}
    tree = fit(X[:40], y[:40], LOOSE)
    first = predict_batch(tree, X, memo=memo)
    expected = first.copy()
    first[:] = -1.0
    assert predict_batch(tree, X, memo=memo).tobytes() == expected.tobytes()


@pytest.mark.parametrize("call", [Predict(), Pick()], ids=["predict", "pick"])
def test_memo_refuses_a_writeable_matrix(call):
    X, y = stable_root_case()
    tree = fit(X[:40], y[:40], LOOSE)
    with pytest.raises(ValueError, match="read-only"):
        call(tree, np.array(X), memo={})
    with pytest.raises(ValueError, match="read-only"):
        call(tree, X.tolist(), memo={})
    assert call(tree, np.array(X)) == call(tree, X)


def test_argmin_row_validation():
    X = read_only(np.zeros((3, 2)))
    tree = Split(1, 0.5, Leaf(1.0, 2), Leaf(2.0, 1))
    with pytest.raises(ValueError, match="2-D"):
        argmin_row(tree, np.zeros(3), np.zeros(3, dtype=bool))
    with pytest.raises(ValueError, match="aligned"):
        argmin_row(tree, X, np.zeros(2, dtype=bool))
    with pytest.raises(ValueError, match="every row is skipped"):
        argmin_row(tree, np.zeros((0, 2)), np.zeros(0, dtype=bool))


def test_identical_options_split_on_lower_index():
    rng = np.random.default_rng(4)
    noise = rng.normal(size=8)
    signal = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    y = signal * 10.0 + rng.normal(scale=0.1, size=8)
    tree = fit(np.column_stack([noise, signal, signal]), y, LOOSE)
    assert isinstance(tree, Split)
    assert (tree.option_index, tree.threshold) == (1, 0.5)


def test_equal_gain_thresholds_split_at_lower_threshold():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([1.0, 5.0, 5.0, 1.0])
    tree = fit(X, y, LOOSE)
    assert isinstance(tree, Split)
    assert tree.threshold == 0.5


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    X = rng.integers(0, 3, size=(30, 3)).astype(float)
    y = rng.normal(size=30)
    assert fit(X, y) == fit(X, y)


def test_fit_validation():
    with pytest.raises(ValueError):
        fit(np.zeros((0, 2)), [])
    with pytest.raises(ValueError):
        fit(np.zeros((2, 2)), [1.0, np.nan])
    with pytest.raises(ValueError, match="configurations must be finite"):
        fit(np.array([[0.0, np.nan], [1.0, 1.0]]), [1.0, 2.0])
    with pytest.raises(ValueError, match="configurations must be finite"):
        fit(np.array([[0.0], [np.inf]]), [1.0, 2.0])
    with pytest.raises(ValueError):
        fit(np.zeros(3), [1.0, 2.0, 3.0])


def test_params_validation():
    with pytest.raises(ValueError):
        CartParams(min_samples_split=3, min_samples_leaf=2)
    with pytest.raises(ValueError):
        CartParams(min_samples_leaf=0)


def test_dimensionality_mismatch():
    X = np.array([[0.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    tree = fit(X, y)
    with pytest.raises(ValueError, match="splits on index"):
        predict(tree, (0.0,))
    with pytest.raises(ValueError, match="splits on index"):
        predict_batch(tree, np.zeros((2, 1)))


def test_width_check_covers_splits_no_row_reaches():
    """A split on an option the matrix lacks is refused even where no row
    goes, and a memo that saw the refusal still gives the right predictions."""
    X = read_only(np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    good = Split(1, 0.5, Leaf(1.0, 2), Leaf(2.0, 1))
    unreached = Split(0, 0.5, Leaf(8.0, 3), Split(1, 0.5, Leaf(3.0, 1),
                                                   Split(4, 0.5, Leaf(4.0, 1), Leaf(5.0, 1))))
    memo: dict = {}
    assert predict_batch(good, X, memo=memo).tolist() == [1.0, 2.0, 1.0]
    with pytest.raises(ValueError, match=r"^configurations have 2 options, tree splits on index 4$"):
        predict_batch(unreached, X, memo=memo)
    assert predict_batch(good, X, memo=memo).tolist() == [1.0, 2.0, 1.0]
    skip = np.array([True, False, False])
    pick_memo: dict = {}
    assert argmin_row(good, X, skip, -1.0, memo=pick_memo) == 1
    with pytest.raises(ValueError, match=r"^configurations have 2 options, tree splits on index 4$"):
        argmin_row(unreached, X, skip, memo=pick_memo)
    assert argmin_row(good, X, skip, memo=pick_memo) == 2


def test_dump_tree_format():
    X = np.array([[0.0]] * 3 + [[1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    text = dump_tree(fit(X, y), ["cache"])
    assert "split cache <= 0.5" in text
    assert "leaf prediction=1 count=3" in text
    nested = Split(0, 0.5, Split(1, 1.5, Leaf(1.0, 2), Leaf(2.0, 1)), Leaf(3.0, 4))
    assert dump_tree(nested) == (
        "split option[0] <= 0.5\n"
        "  split option[1] <= 1.5\n"
        "    leaf prediction=1 count=2\n"
        "    leaf prediction=2 count=1\n"
        "  leaf prediction=3 count=4\n"
    )
