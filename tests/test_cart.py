import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.cart import (
    CartParams,
    Leaf,
    Split,
    TreeNode,
    dump_tree,
    fit,
    predict,
    predict_batch,
)

LOOSE = CartParams(min_samples_split=2, min_samples_leaf=1)


def reference_best_split(X: np.ndarray, y: np.ndarray, min_leaf: int):
    """Oracle for `fit`: the per-option split search that sorts at every node.

    Thresholds are midpoints between consecutive distinct sorted values of
    each option within this node.  Ties in gain resolve to the lowest option
    index, then the lowest threshold.
    """
    n = y.size
    total_sum = y.sum()
    total_sq = (y * y).sum()
    base_sse = total_sq - total_sum * total_sum / n
    eps = 1e-12 * (abs(base_sse) + 1.0)

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


def reference_grow(X: np.ndarray, y: np.ndarray, depth: int, params: CartParams) -> TreeNode:
    n = y.size
    if (
        n < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
        or y.max() == y.min()
    ):
        return Leaf(float(y.mean()), n)
    found = reference_best_split(X, y, params.min_samples_leaf)
    if found is None:
        return Leaf(float(y.mean()), n)
    _, j, thr = found
    mask = X[:, j] <= thr
    return Split(
        j,
        thr,
        reference_grow(X[mask], y[mask], depth + 1, params),
        reference_grow(X[~mask], y[~mask], depth + 1, params),
    )


def reference_fit(xs, ys, params: CartParams = CartParams()) -> TreeNode:
    """Grow the tree by sorting each option afresh at every node and copying each child."""
    return reference_grow(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), 0, params)


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
        max_depth=draw(st.one_of(st.none(), st.integers(1, 6))),
    )
    return X, y, params


@settings(max_examples=200, deadline=None)
@given(fit_cases())
def test_fit_matches_per_node_sort_reference(case):
    X, y, params = case
    assert fit(X, y, params) == reference_fit(X, y, params)


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
    with pytest.raises(ValueError):
        CartParams(max_depth=0)


def test_max_depth_limits_tree():
    rng = np.random.default_rng(2)
    X = rng.integers(0, 2, size=(32, 5)).astype(float)
    y = rng.normal(size=32)
    tree = fit(X, y, CartParams(min_samples_split=2, min_samples_leaf=1, max_depth=1))
    assert isinstance(tree, Split)
    assert isinstance(tree.left, Leaf)
    assert isinstance(tree.right, Leaf)


def test_dimensionality_mismatch():
    X = np.array([[0.0, 0.0]] * 3 + [[0.0, 1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    tree = fit(X, y)
    with pytest.raises(ValueError, match="splits on index"):
        predict(tree, (0.0,))
    with pytest.raises(ValueError, match="splits on index"):
        predict_batch(tree, np.zeros((2, 1)))


def test_dump_tree_format():
    X = np.array([[0.0]] * 3 + [[1.0]] * 3)
    y = np.array([1.0] * 3 + [9.0] * 3)
    text = dump_tree(fit(X, y), ["cache"])
    assert "split cache <= 0.5" in text
    assert "leaf prediction=1 count=3" in text
