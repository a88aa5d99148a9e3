"""Sequential model-based search with a CART surrogate.

After a random warm-up sample, each step fits one regression tree per
objective on everything measured so far and measures the candidate the
acquisition rule likes best: plain best-predicted value for one objective,
found from the tree's leaves (`cart.argmin_row`), and for several the
random-projection mean-weight rule over the pool's predictions.  Acquired
candidates leave the pool, so nothing is measured twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cart
from .runs import OptimizationRun, STOP_BUDGET, STOP_POOL_EXHAUSTED, Trace
from .space import MINIMIZE, Pool, direction_signs


@dataclass(frozen=True)
class FlashParams:
    size: int = 30
    budget: int = 50
    n_projections: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if self.n_projections < 1:
            raise ValueError("n_projections must be >= 1")


def bazza_select(
    predicted,
    n_projections: int,
    directions: Sequence[str],
    seed: int,
) -> int:
    """Pick the candidate with the best mean score under random weight vectors.

    Predictions are mapped so larger is better (minimized objectives are
    negated), then min-max normalized to [0, 1] per objective over the
    candidate list so differently scaled objectives weigh comparably.  The
    mean over the weight vectors distributes over the sum, so this is a single
    pass over candidates, adding the weighted columns in column order.  Ties
    resolve to the lowest index.
    """
    P = np.asarray(predicted, dtype=float)
    if P.ndim != 2 or P.shape[0] == 0:
        raise ValueError("predicted must be a non-empty 2-D array")
    if P.shape[1] != len(directions):
        raise ValueError("prediction width must match the directions")
    if not np.isfinite(P).all():
        raise ValueError("predictions must be finite")
    if n_projections < 1:
        raise ValueError("n_projections must be >= 1")
    G = P * -direction_signs(directions)
    lo = G.min(axis=0)
    span = G.max(axis=0) - lo
    span[span == 0.0] = 1.0
    G = (G - lo) / span
    w = np.random.default_rng(seed).random((n_projections, len(directions))).mean(axis=0)
    # summed column by column, so the order of the additions is fixed; a
    # BLAS product's order depends on the CPU kernel it picks
    scores = G[:, 0] * w[0]
    for j in range(1, G.shape[1]):
        scores += G[:, j] * w[j]
    return int(np.argmax(scores))


def _run(
    candidates: Pool,
    oracle,
    params: FlashParams,
    directions: Sequence[str],
    cart_params: cart.CartParams,
    objective: int = 0,
) -> OptimizationRun:
    trace = Trace(candidates, oracle, directions, objective)
    n = trace.ids.size
    if n < params.size:
        raise ValueError(
            f"candidate pool has {n} configurations, need at least size={params.size}"
        )
    signs = direction_signs(directions)
    columns = [objective] if len(directions) == 1 else range(len(directions))
    rng = np.random.default_rng(params.seed)
    # per objective, one fit memo (each refit reuses the subtrees the new row
    # missed) and one memo over the pool (rows whose path did not change keep
    # their leaf)
    fit_memos = {j: {} for j in columns}
    pool_memos = {j: {} for j in columns}

    for pos in rng.choice(n, size=params.size, replace=False):
        trace.take(int(pos))
    # measured positions in ascending order, as the mask would give them, so
    # the training rows and hence the trees do not depend on measurement order
    taken = np.flatnonzero(trace.measured)

    spent = 0
    stop = STOP_BUDGET
    while spent < params.budget:
        remaining = n - taken.size
        if params.budget - spent >= remaining:
            # every remaining candidate gets measured regardless of the
            # acquisition order, so skip the pointless surrogate refits
            for pos in trace.pool():
                trace.take(int(pos))
            spent += remaining
            stop = STOP_POOL_EXHAUSTED
            break
        Xe = trace.X[taken]
        Ye = trace.Y[taken]
        if len(directions) == 1:
            tree = cart.fit(Xe, Ye[:, objective], cart_params, memo=fit_memos[objective])
            pick = cart.argmin_row(tree, trace.X, trace.measured, float(signs[0]),
                                   memo=pool_memos[objective])
        else:
            # predict every row, measured ones too: the memo keeps the rows a refit did not move
            preds = [
                cart.predict_batch(cart.fit(Xe, Ye[:, j], cart_params, memo=fit_memos[j]),
                                   trace.X, memo=pool_memos[j])
                for j in columns
            ]
            # bazza_select normalizes over the candidates, so it sees only the pool
            pool = trace.pool()
            pick = int(pool[bazza_select(
                np.column_stack([p[pool] for p in preds]),
                params.n_projections, directions, int(rng.integers(2 ** 63)),
            )])
        trace.take(pick)
        taken = np.insert(taken, np.searchsorted(taken, pick), pick)
        spent += 1

    return trace.finish(stop, initial_sample=params.size)


def flash_single(
    candidates: Pool,
    oracle,
    params: FlashParams = FlashParams(),
    direction: str = MINIMIZE,
    cart_params: cart.CartParams = cart.CartParams(),
    objective: int = 0,
) -> OptimizationRun:
    """Optimize one objective; `objective` selects the oracle vector column."""
    return _run(candidates, oracle, params, (direction,), cart_params, objective)


def flash_multi(
    candidates: Pool,
    oracle,
    params: FlashParams = FlashParams(),
    directions: Sequence[str] = (MINIMIZE, MINIMIZE),
    cart_params: cart.CartParams = cart.CartParams(),
) -> OptimizationRun:
    """Optimize several objectives; returns the non-dominated measured front."""
    if len(directions) < 2:
        raise ValueError("flash_multi needs at least two objectives")
    return _run(candidates, oracle, params, directions, cart_params)
