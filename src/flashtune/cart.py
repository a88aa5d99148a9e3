"""Regression trees grown by recursive variance-reduction splitting (CART:
Breiman, Friedman, Olshen and Stone, 1984).

The tree is the cheap surrogate the optimizer leans on: it only has to rank
configurations well enough to pick the next one to measure, so there is no
pruning and no smoothing beyond the leaf-size knobs.

A fit sorts once.  `fit` stably argsorts every option column, giving a
(d, n) matrix of row indices.  Each node scores all options in one pass over
that matrix (see `_best_split`), then hands each child the entries of its
order that fall on its side, selected by the split's boolean mask.  A stable
filter of a stable sort is the stable sort of the subset, so every node sees
exactly the order a fresh per-node sort would give, and node rows stay in
ascending original order: sums, gains, thresholds and leaf means do not
depend on how the order was obtained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np


@dataclass(frozen=True)
class CartParams:
    min_samples_split: int = 4
    min_samples_leaf: int = 2
    max_depth: int | None = None

    def __post_init__(self):
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if self.min_samples_split < 2 * self.min_samples_leaf:
            raise ValueError("min_samples_split must be >= 2 * min_samples_leaf")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")


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
    if lo >= hi:
        return None
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
    XT: np.ndarray, y: np.ndarray, rows: np.ndarray, order: np.ndarray, depth: int,
    params: CartParams,
) -> TreeNode:
    yn = y[rows]
    n = yn.size
    if (
        n < params.min_samples_split
        or (params.max_depth is not None and depth >= params.max_depth)
        or yn.max() == yn.min()
    ):
        return Leaf(float(yn.mean()), n)
    found = _best_split(XT, y, yn, order, params.min_samples_leaf)
    if found is None:
        return Leaf(float(yn.mean()), n)
    j, thr = found
    rows_left = XT[j, rows] <= thr
    order_left = XT[j, order] <= thr
    d = order.shape[0]
    return Split(
        j,
        thr,
        _grow(XT, y, rows[rows_left], order[order_left].reshape(d, -1), depth + 1, params),
        _grow(XT, y, rows[~rows_left], order[~order_left].reshape(d, -1), depth + 1, params),
    )


def fit(xs, ys, params: CartParams = CartParams()) -> TreeNode:
    """Fit a regression tree on configuration rows `xs` and targets `ys`."""
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
    return _grow(XT, y, np.arange(y.size), order, 0, params)


def _max_option_index(tree: TreeNode) -> int:
    if isinstance(tree, Leaf):
        return -1
    return max(
        tree.option_index,
        _max_option_index(tree.left),
        _max_option_index(tree.right),
    )


def predict(tree: TreeNode, config: Sequence[float]) -> float:
    """Descend by threshold comparisons to a leaf and return its prediction."""
    node = tree
    while isinstance(node, Split):
        if node.option_index >= len(config):
            raise ValueError(
                f"configuration has {len(config)} options, tree splits on index {node.option_index}"
            )
        node = node.left if config[node.option_index] <= node.threshold else node.right
    return node.prediction


def predict_batch(tree: TreeNode, configs) -> np.ndarray:
    """Elementwise predict over many configurations; order preserved."""
    X = np.asarray(configs, dtype=float)
    if X.size == 0:
        return np.zeros(0, dtype=float)
    if X.ndim != 2:
        raise ValueError("configs must be a 2-D array of configuration rows")
    if X.shape[1] <= _max_option_index(tree):
        raise ValueError(
            f"configurations have {X.shape[1]} options, tree splits on index {_max_option_index(tree)}"
        )
    out = np.empty(X.shape[0], dtype=float)

    def walk(node: TreeNode, idx: np.ndarray) -> None:
        if isinstance(node, Leaf):
            out[idx] = node.prediction
            return
        mask = X[idx, node.option_index] <= node.threshold
        if mask.any():
            walk(node.left, idx[mask])
        if not mask.all():
            walk(node.right, idx[~mask])

    walk(tree, np.arange(X.shape[0]))
    return out


def dump_tree(tree: TreeNode, option_names: Sequence[str] | None = None) -> str:
    """Indented text rendering of a tree, for --dump-tree debugging output."""
    lines: list[str] = []

    def name(j: int) -> str:
        return option_names[j] if option_names is not None else f"option[{j}]"

    def walk(node: TreeNode, indent: int) -> None:
        pad = "  " * indent
        if isinstance(node, Leaf):
            lines.append(f"{pad}leaf prediction={node.prediction:.6g} count={node.count}")
        else:
            lines.append(f"{pad}split {name(node.option_index)} <= {node.threshold:.6g}")
            walk(node.left, indent + 1)
            walk(node.right, indent + 1)

    walk(tree, 0)
    return "\n".join(lines) + "\n"
