"""Regression trees grown by recursive variance-reduction splitting (CART:
Breiman, Friedman, Olshen and Stone, 1984).

The tree is the cheap surrogate the optimizer leans on: it only has to rank
configurations well enough to pick the next one to measure, so there is no
depth limit, no pruning and no smoothing beyond the leaf-size knobs.

A fit sorts once.  `fit` stably argsorts every option column, giving a
(d, n) matrix of row indices.  Each node scores all options in one pass over
that matrix (see `_best_split`), then hands each child the entries of its
order that fall on its side, selected by the split's boolean mask.  A stable
filter of a stable sort is the stable sort of the subset, so every node sees
exactly the order a fresh per-node sort would give, and node rows stay in
ascending original order: sums, gains, thresholds and leaf means do not
depend on how the order was obtained.

A fit works in units of a power of two.  With e the binary exponent of
max|y| (`frexp`), the tree is grown on y * 2^-e, whose magnitudes lie
below 1, and each leaf keeps its mean times 2^e.  Scaling by a power of two
is exact, so the sums, gains and splits do not depend on the targets' unit:
`fit(X, y * 2^k)` has the splits of `fit(X, y)` and its leaves times 2^k.
Sums of squares cannot overflow.  Where the unscaled sums would not
overflow either, a leaf mean times 2^e is bitwise the unscaled mean, unless
a target lies so far below max|y| that its scaled value is subnormal.

The split floor of `_best_split`, `eps = 1e-12 * (|base_sse| + 1)`, acts in
the scaled units too, so its `+ 1` is relative to 4^e, about max|y|^2, not
an absolute 1 in the targets' own units.  A tree differs from one grown on
the unscaled targets only where a node's best gain lies between the two
floors: with max|y| well above 1, a node whose targets vary by less than
about 1e-6 * max|y| stays a leaf where the unscaled fit would split it;
with max|y| well below 1, a node whose sum of squares is under about 1e-12
may split where the unscaled fit would not.

A refit can reuse the subtrees that a new row left alone.  The tree has no
depth limit, so a subtree is a pure function of its node's rows (their
option values and targets, in node order) and the `CartParams`, wherever in
the tree the node sits.  So `fit(..., memo=m)` keys each node it searches for
a split on exactly those: the bytes of the node's X block and of its scaled
y values, the exponent e and the params.  A key found in `m` gives back the
subtree the previous fit on `m` grew for it, even where a new root split has
moved it one level down; every other node is grown and stored.  The key is
the content itself, not a name the caller gives the rows, so a memo shared
by unrelated fits never returns a wrong tree.  After the fit `m` holds only
this fit's nodes, so it stays the size of one tree.

Predictions and picks over one matrix share a memo.  Both walk the tree
with an explicit stack, naming each node by its path: the tuple of (option
index, threshold, side) steps from the root.  Over a fixed matrix the rows
that reach a path depend on the path alone, so a memo `m` keeps, per path,
the positions of the rows that reach it, each partitioned down from its
deepest stored prefix, and a call keeps only the current tree's paths.  A
refit that adds one row keeps most splits and hence most paths, so only the
rows along the changed ones are compared again.  `predict_batch` writes each
leaf's prediction into the rows at its path.  `argmin_row` needs no
prediction per row: it orders the leaves by prediction and finds the rows of
the leaves it inspects, best first, until a leaf holds a row the caller has
not skipped; among tied leaves it inspects them all and takes the lowest
such position.  That is the row `np.argmin` finds over the predictions of
the rows not skipped, found without writing or scanning one value per row.
The memo is tied to one read-only matrix object, which both functions may
share: a writeable one is refused and another one starts it over.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class CartParams:
    min_samples_split: int = 4
    min_samples_leaf: int = 2

    def __post_init__(self):
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2 * self.min_samples_leaf:
            raise ValueError("min_samples_split must be >= 2 * min_samples_leaf")


@dataclass(frozen=True)
class Leaf:
    prediction: float
    count: int


@dataclass(frozen=True)
class Split:
    option_index: int
    threshold: float
    left: "TreeNode"
    right: "TreeNode"


TreeNode = Union[Leaf, Split]


def _best_split(
    XT: np.ndarray, y: np.ndarray, yn: np.ndarray, order: np.ndarray, min_leaf: int
):
    """Best (option index, threshold) for one node, or None.

    `order[j]` lists the node's rows sorted by option j, `yn` is the node's
    targets in ascending row order.  Cutting after sorted position k puts the
    first k + 1 rows left; a cut is legal where the sorted value strictly
    rises and both sides keep `min_leaf` rows.  One cumsum over all options
    scores every legal cut, and each option keeps its first maximum, so the
    lowest threshold wins a tie within an option.  Scanning the options in
    index order, a later option replaces the running best only when its gain
    is higher by more than `eps`, so near-ties go to the lowest option index.
    The threshold is the midpoint of the two sorted values around the cut.
    """
    n = yn.size
    lo, hi = min_leaf - 1, n - min_leaf
    total_sum = yn.sum()
    total_sq = (yn * yn).sum()
    base_sse = total_sq - total_sum * total_sum / n
    eps = 1e-12 * (abs(base_sse) + 1.0)

    xv = XT[np.arange(order.shape[0])[:, None], order]
    yv = y[order]
    ls = yv.cumsum(axis=1)[:, lo:hi]
    lq = (yv * yv).cumsum(axis=1)[:, lo:hi]
    left_n = np.arange(lo + 1, hi + 1)
    right_n = n - left_n
    rs = total_sum - ls
    rq = total_sq - lq
    child_sse = (lq - ls * ls / left_n) + (rq - rs * rs / right_n)
    gain = np.where(xv[:, lo + 1:hi + 1] > xv[:, lo:hi], base_sse - child_sse, -np.inf)

    best_gain = 0.0
    best = None
    for j, g in enumerate(gain.max(axis=1).tolist()):
        if g > best_gain + eps:
            best_gain, best = g, j
    if best is None:
        return None
    k = lo + int(gain[best].argmax())
    return best, float((xv[best, k] + xv[best, k + 1]) / 2.0)


def _grow(
    XT: np.ndarray, y: np.ndarray, e: int, rows: np.ndarray, order: np.ndarray,
    params: CartParams, old: dict, new: dict,
) -> tuple[TreeNode, tuple | None]:
    """The subtree of `rows` and its memo key, grown on the scaled targets
    `y`, with leaf means scaled back by 2^e.

    `old` is the memo as the previous fit left it and `new` receives this
    fit's entries.  An entry maps a key to (subtree, left child's key, right
    child's key).  A node that is a leaf without a split search gets no key
    (None), since it costs nothing to rebuild.
    """
    yn = y[rows]
    n = yn.size
    if n < params.min_samples_split or yn.max() == yn.min():
        return Leaf(math.ldexp(yn.mean(), e), n), None
    key = (XT[:, rows].tobytes(), yn.tobytes(), e, params)
    if key in old:
        _keep(key, old, new)
        return new[key][0], key
    found = _best_split(XT, y, yn, order, params.min_samples_leaf)
    if found is None:
        node, left_key, right_key = Leaf(math.ldexp(yn.mean(), e), n), None, None
    else:
        j, thr = found
        rows_left = XT[j, rows] <= thr
        order_left = XT[j, order] <= thr
        d = order.shape[0]
        left, left_key = _grow(XT, y, e, rows[rows_left], order[order_left].reshape(d, -1),
                               params, old, new)
        right, right_key = _grow(XT, y, e, rows[~rows_left], order[~order_left].reshape(d, -1),
                                 params, old, new)
        node = Split(j, thr, left, right)
    new[key] = (node, left_key, right_key)
    return node, key


def _keep(key: tuple, old: dict, new: dict) -> None:
    """Carry a reused subtree's entry and its descendants' from `old` to `new`."""
    entry = new[key] = old[key]
    for child in entry[1:]:
        if child is not None:
            _keep(child, old, new)


def fit(xs, ys, params: CartParams = CartParams(), *, memo: dict | None = None) -> TreeNode:
    """Fit a regression tree on configuration rows `xs` and targets `ys`.

    `memo`, a dict that starts empty, lets a refit reuse the subtrees the
    previous fit on it grew (see the module docstring); the tree is the same
    with or without it.  Keep one memo per sequence of refits.
    """
    X = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if X.ndim != 2:
        raise ValueError("xs must be a 2-D array of configuration rows")
    if y.ndim != 1 or y.size != X.shape[0]:
        raise ValueError("ys must be a 1-D array aligned with xs")
    if y.size == 0:
        raise ValueError("cannot fit a tree on zero rows")
    if not np.isfinite(X).all():
        raise ValueError("configurations must be finite")
    if not np.isfinite(y).all():
        raise ValueError("targets must be finite")
    XT = np.ascontiguousarray(X.T)
    order = np.argsort(XT, axis=1, kind="stable")
    e = math.frexp(np.abs(y).max())[1]
    memo = {} if memo is None else memo
    old = dict(memo)
    memo.clear()
    return _grow(XT, np.ldexp(y, -e), e, np.arange(y.size), order, params, old, memo)[0]


def predict_batch(tree: TreeNode, configs, *, memo: dict | None = None) -> np.ndarray:
    """Elementwise predict over many configurations; order preserved.

    `memo`, a dict that starts empty, keeps the rows of the paths found over
    one read-only matrix for the next call (see the module docstring); the
    result is the same with or without it.  Keep one memo per sequence of
    refits.
    """
    X = np.asarray(configs, dtype=float)
    if X.ndim != 2 or not X.shape[0]:
        if X.size == 0:
            return np.zeros(0, dtype=float)
        raise ValueError("configs must be a 2-D array of configuration rows")
    leaves, paths = _leaves(tree, X, memo, "predict")
    out = np.empty(X.shape[0], dtype=float)
    for prediction, path in leaves:
        out[_rows_at(X, path, paths)] = prediction
    return out


def argmin_row(tree: TreeNode, configs, skip, sign: float = 1.0, *,
               memo: dict | None = None) -> int:
    """The position `np.argmin` picks over `predict_batch(tree, configs) * sign`
    when only the rows where `skip` is False are considered.

    Leaves are ranked by `prediction * sign`, a NaN first as `np.argmin` ranks
    it, and only the rows of the leaves inspected are found (see the module
    docstring).  Raises ValueError when every row is skipped.  `memo` is
    `predict_batch`'s; the result is the same with or without it.
    """
    X = np.asarray(configs, dtype=float)
    skip = np.asarray(skip, dtype=bool)
    if X.ndim != 2:
        raise ValueError("configs must be a 2-D array of configuration rows")
    if skip.shape != X.shape[:1]:
        raise ValueError("skip must be a 1-D mask aligned with configs")
    leaves, paths = _leaves(tree, X, memo, "pick")
    ranked = sorted(((prediction * sign, path) for prediction, path in leaves), key=_rank)
    for _, tied in itertools.groupby(ranked, key=_rank):
        best = -1
        for _, path in tied:
            rows = _rows_at(X, path, paths)
            if rows.size:
                first = rows[int(np.argmin(skip[rows]))]
                if not skip[first] and (best < 0 or first < best):
                    best = int(first)
        if best >= 0:
            return best
    raise ValueError("every row is skipped")


def _leaves(tree: TreeNode, X: np.ndarray, memo: dict | None, kind: str):
    """The (prediction, path) leaves of `tree`, left to right, and the
    path->rows dict of `memo` over `X`, pruned to this tree's paths.

    A memo over a writeable `X` is refused, one over another matrix starts
    over, and a split on an option `X` lacks is refused even where no row
    goes.
    """
    if memo is None:
        memo = {}
    elif X.flags.writeable:
        raise ValueError(f"a {kind} memo needs a read-only matrix")
    if memo.get("X") is not X:
        memo.clear()
        memo.update(X=X, paths={})
    old = memo["paths"]
    paths: dict = {}
    leaves: list = []
    widest = -1
    stack: list = [((), tree)]
    while stack:
        path, node = stack.pop()
        rows = old.get(path)
        if rows is not None:
            paths[path] = rows
        if isinstance(node, Leaf):
            leaves.append((node.prediction, path))
            continue
        widest = max(widest, node.option_index)
        step = (node.option_index, node.threshold)
        stack.append((path + (step + (1,),), node.right))
        stack.append((path + (step + (0,),), node.left))
    if X.shape[1] <= widest:
        raise ValueError(f"configurations have {X.shape[1]} options, tree splits on index {widest}")
    memo["paths"] = paths
    return leaves, paths


def _rank(leaf: tuple) -> tuple:
    """Sort key of a (score, path) leaf: NaN first, as `np.argmin` ranks it,
    then ascending score, with -0.0 and 0.0 equal."""
    score = leaf[0]
    return (1, score) if score == score else (0, 0.0)


def _rows_at(X: np.ndarray, path: tuple, paths: dict) -> np.ndarray:
    """The positions of the rows of `X` that reach `path`, partitioned down
    from its deepest prefix in `paths`; every path met is stored there."""
    k = len(path)
    while k and path[:k] not in paths:
        k -= 1
    rows = paths.get(path[:k])
    if rows is None:
        rows = paths[()] = np.arange(X.shape[0])
    for j, thr, side in path[k:]:
        prefix = path[:k]
        k += 1
        left, right = _partition(X, rows, j, thr)
        paths[prefix + ((j, thr, 0),)] = left
        paths[prefix + ((j, thr, 1),)] = right
        rows = right if side else left
    return rows


def _partition(X: np.ndarray, rows: np.ndarray, j: int, thr: float):
    """The positions in `rows` whose option `j` is at most `thr`, and the rest."""
    mask = X[rows, j] <= thr
    return rows[mask], rows[~mask]


def dump_tree(tree: TreeNode, option_names: Sequence[str] | None = None) -> str:
    """Indented text rendering of a tree, for --dump-tree debugging output."""
    lines: list[str] = []
    stack: list[tuple[TreeNode, int]] = [(tree, 0)]
    while stack:
        node, indent = stack.pop()
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}leaf prediction={node.prediction:.6g} count={node.count}")
            continue
        j = node.option_index
        name = option_names[j] if option_names is not None else f"option[{j}]"
        lines.append(f"{pad}split {name} <= {node.threshold:.6g}")
        stack.append((node.right, indent + 1))
        stack.append((node.left, indent + 1))
    return "\n".join(lines) + "\n"
