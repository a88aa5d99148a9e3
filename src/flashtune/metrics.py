"""Evaluation measures: relative error, rank agreement, dominance, fronts.

Everything here is pure and direction-aware.  Objective vectors are mapped to
canonical minimize form internally so every comparison reads the same way.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .space import Dataset, direction_signs


def mmre(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean magnitude of relative error, in percent.

    Defined as mean(|predicted - actual| / actual) * 100.  The denominator is
    the actual value itself, so non-positive actuals are rejected rather than
    silently flipping the sign of the error.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("predicted and actual must be equal-length non-empty vectors")
    if (a <= 0).any():
        raise ValueError("mmre is undefined for non-positive actual values")
    return float(np.mean(np.abs(p - a) / a) * 100.0)


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """Ascending 1-based ranks; tied values share the average of their
    positions.  Each NaN, sorted last, is a group of its own."""
    v = np.asarray(values, dtype=float)
    order = np.argsort(v, kind="stable")
    sv = v[order]
    starts = np.flatnonzero(np.concatenate([[True], sv[1:] != sv[:-1]]))
    ends = np.append(starts[1:], v.size) - 1
    ranks = np.empty(v.size, dtype=float)
    ranks[order] = np.repeat((starts + ends) / 2.0 + 1.0, ends - starts + 1)
    return ranks


def mu_rd(predicted: Sequence[float], actual: Sequence[float]) -> float:
    """Mean absolute difference between predicted and actual rank orderings."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.ndim != 1 or p.size == 0:
        raise ValueError("predicted and actual must be equal-length non-empty vectors")
    return float(np.mean(np.abs(average_ranks(a) - average_ranks(p))))


def rank_difference(best: int, dataset: Dataset, objective: int = 0, rows=None) -> int:
    """|rank(actual best) - rank(predicted best)|: the number of rows strictly
    better than row `best` on one objective, over the whole table or over the
    row ids `rows`, which must include `best`.

    Rank 1 is the best row.  Ties take the smallest rank among equal values,
    so picking any tied optimum scores 0.
    """
    if not (0 <= best < dataset.n_rows):
        raise ValueError(f"unknown row id {best}")
    direction = dataset.objectives[objective].direction
    v = dataset.values[:, objective] * direction_signs((direction,))[0]
    pool = v
    if rows is not None:
        rows = dataset.candidates(rows).ids  # refuses what is not a list of row ids
        if not np.any(rows == best):
            raise ValueError(f"row {best} is not among the given rows")
        pool = v[rows]
    return int(np.sum(pool < v[best]))


# Largest (rows of P) x (rows of Q) x objectives cube the m != 2 path builds.
_BLOCK_ELEMS = 1 << 20


def _dominated(P: np.ndarray, Q: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Mask of rows of Q dominated by a row of P, larger being better.

    P[b] dominates Q[a] when b != own[a] and P[b] is >= Q[a] everywhere and
    > Q[a] somewhere; a row holding NaN neither dominates nor is dominated.
    Every test compares the given floats, so the mask is exact.  Two
    objectives sort P on the first and sweep suffix maxima of the second
    (Kung, Luccio and Preparata, 1975) in O((N + U) log N) time; any other
    count compares blocks of Q rows in O(N U m) time and bounded memory.
    """
    N, m = P.shape
    if m != 2:
        out = np.zeros(Q.shape[0], dtype=bool)
        step = max(1, _BLOCK_ELEMS // max(1, N * m))
        for s in range(0, Q.shape[0], step):
            q = Q[None, s:s + step, :]
            pair = np.all(P[:, None, :] >= q, axis=2) & np.any(P[:, None, :] > q, axis=2)
            pair[own[s:s + step], np.arange(pair.shape[1])] = False
            out[s:s + step] = pair.any(axis=0)
        return out

    P = np.where(np.isnan(P).any(axis=1)[:, None], -np.inf, P)  # never > anything
    order = np.argsort(P[:, 0], kind="stable")
    p0 = P[order, 0]
    # suffix maximum and second maximum (a tied maximum repeats) of column 1;
    # the NaN past the end stands for an empty suffix, where a NaN q0 also
    # lands, and compares False
    v = P[order[::-1], 1]
    m1 = np.maximum.accumulate(v)
    m2 = np.fmax.accumulate(np.minimum(v, np.concatenate(([np.nan], m1[:-1]))))
    m1, m2 = (np.append(a[::-1], np.nan) for a in (m1, m2))
    own_pos, own_p1 = np.argsort(order)[own], P[own, 1]
    hit = np.zeros(Q.shape[0], dtype=bool)
    # p0 >= q0 with p1 > q1, or p0 > q0 with p1 >= q1; where the query's own
    # row is in the suffix and holds its maximum, the second maximum stands in
    for side, beats in (("left", np.greater), ("right", np.greater_equal)):
        k = np.searchsorted(p0, Q[:, 0], side)
        skip = (own_pos >= k) & (own_p1 == m1[k])
        hit |= beats(np.where(skip, m2[k], m1[k]), Q[:, 1])
    return hit


def pareto_front(points, directions: Sequence[str]) -> tuple[int, ...]:
    """Indices of points not dominated by any other; duplicates all retained.

    O(n log n) time for two objectives; O(n^2 m) time in bounded memory for
    any other count m.
    """
    P = np.asarray(points, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array")
    if P.shape[1] != len(directions):
        raise ValueError("objective vector length does not match directions")
    V = P * -direction_signs(directions)
    keep = ~_dominated(V, V, np.arange(V.shape[0]))
    return tuple(int(i) for i in np.nonzero(keep)[0])


def best_rows(dataset: Dataset, objective: int = 0) -> tuple[int, ...]:
    """Row ids attaining the optimal value of one objective (ties included)."""
    direction = dataset.objectives[objective].direction
    v = dataset.values[:, objective] * direction_signs((direction,))[0]
    return tuple(int(i) for i in np.nonzero(v == v.min())[0])


def _mean_nearest(src: np.ndarray, dst: np.ndarray) -> float:
    d2 = ((src[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(np.sqrt(d2.min(axis=1))))


def front_comparison(true_front, approx_front, directions: Sequence[str]) -> tuple[float, float]:
    """(GD, IGD) of an approximated front against a true one.

    Both fronts must be internally non-dominated.  Each objective is min-max
    normalized over the true front, and objectives whose range collapses
    there are dropped.  GD is the mean distance from each approximated point
    to its nearest true point; IGD, from each true point to its nearest
    approximated point.
    """
    T = np.asarray(true_front, dtype=float)
    A = np.asarray(approx_front, dtype=float)
    if T.ndim != 2 or T.shape[0] == 0 or A.ndim != 2 or A.shape[0] == 0:
        raise ValueError("both fronts must be non-empty 2-D arrays")
    if T.shape[1] != A.shape[1] or T.shape[1] != len(directions):
        raise ValueError("front objective counts must match the directions")
    for name, F in (("true", T), ("approx", A)):
        if len(pareto_front(F, directions)) != F.shape[0]:
            raise ValueError(f"{name} front is not internally non-dominated")
    lo = T.min(axis=0)
    hi = T.max(axis=0)
    active = hi > lo
    if not active.any():
        raise ValueError("every objective is degenerate on the true front")
    T, A = ((F[:, active] - lo[active]) / (hi[active] - lo[active]) for F in (T, A))
    return _mean_nearest(A, T), _mean_nearest(T, A)


def front_quality(
    dataset: Dataset, front, objectives: Sequence[int], true_front=None
) -> tuple[float, float]:
    """(GD, IGD) of the row ids `front` on the columns `objectives`.

    The reference is the rows `true_front` when given (a front computed once
    for many runs, or read from a file), else the table's own Pareto front.
    """
    columns = list(objectives)
    directions = tuple(dataset.objectives[j].direction for j in columns)
    V = dataset.values[:, columns]
    if true_front is None:
        true_front = pareto_front(V, directions)
    return front_comparison(V[list(true_front)], V[list(front)], directions)
