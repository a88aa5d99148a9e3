"""Prior-work optimizers used as comparison points.

Progressive and rank-based sampling both grow a training set one random
configuration at a time and stop after `lives` consecutive model-building
steps fail to improve a holdout score (negated relative error for the first,
mean rank difference for the second).  Both charge the holdout measurements
to the run.  ePAL keeps a Gaussian process per objective and discards
candidates whose optimistic prediction is epsilon-dominated by some other
point's pessimistic one.  Random search is the control.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import cart, metrics
from .gp import _sq_dists, gp_fit, gp_predict_batch, lapack
from .runs import (
    OptimizationRun,
    STOP_BUDGET,
    STOP_LIVES,
    STOP_POOL_EXHAUSTED,
    STOP_WALL_TIME,
    Trace,
)
from .space import MINIMIZE, Pool, direction_signs


# ePAL's warm-up: the random configurations measured before the first fit.
EPAL_INIT_SIZE = 20


@dataclass(frozen=True)
class LivesParams:
    lives: int = 3

    def __post_init__(self):
        if self.lives < 1:
            raise ValueError("lives must be >= 1")


@dataclass(frozen=True)
class EpalParams:
    epsilon: float = 0.01
    max_wall_time: float | None = None

    def __post_init__(self):
        if not self.epsilon >= 0:
            raise ValueError("epsilon must be >= 0 and not NaN")
        if self.max_wall_time is not None and not self.max_wall_time >= 0:
            raise ValueError("max_wall_time must be >= 0 and not NaN")


def _lives_loop(
    train_pool: Pool,
    holdout: Pool,
    validation: Pool,
    oracle,
    params: LivesParams,
    cart_params: cart.CartParams,
    direction: str,
    objective: int,
    seed: int,
    with_replacement: bool,
    scorer,
) -> tuple[cart.TreeNode, OptimizationRun]:
    """Shared grow/score/lose-a-life loop.

    `scorer(predicted, actual)` maps holdout predictions to a score where
    higher is better; a life is lost whenever the score fails to improve.
    """
    parts = (train_pool, holdout, validation)
    if not all(parts):
        raise ValueError("train pool, holdout, and validation must be non-empty")
    if np.intersect1d(parts[0].ids, parts[1].ids).size:
        raise ValueError("holdout must be disjoint from the train pool")
    # the answer is measured at the end, so a validation id measured before would be measured twice
    if np.intersect1d(parts[2].ids, np.union1d(parts[0].ids, parts[1].ids)).size:
        raise ValueError("validation must be disjoint from the train pool and the holdout")
    ids = np.concatenate([p.ids for p in parts])
    order = np.argsort(ids, kind="stable")
    trace = Trace(Pool(ids[order], np.concatenate([p.X for p in parts])[order]), oracle)
    train_pos, hold_pos, val_pos = (np.searchsorted(trace.ids, p.ids) for p in parts)
    rng = np.random.default_rng(seed)

    # the holdout is measured up front and its cost charged to this run
    for pos in hold_pos:
        trace.take(int(pos))
    hold_X, hold_actual = trace.X[hold_pos], trace.Y[hold_pos, objective]
    # read-only, so one predict memo serves every refit's holdout prediction
    hold_X.flags.writeable = False

    if with_replacement:
        order = rng.integers(0, train_pos.size, size=train_pos.size)
    else:
        order = rng.permutation(train_pos.size)

    # training rows in measurement order, a position drawn twice included twice
    train_rows: list[int] = []
    train_y: list[float] = []
    tree: cart.TreeNode | None = None
    memo: dict = {}
    hold_memo: dict = {}
    lives = params.lives
    # worst score first, so the first model never costs a life
    last_score = -np.inf
    stop = STOP_POOL_EXHAUSTED
    for pos in train_pos[order].tolist():
        train_y.append(trace.take(pos)[objective])
        train_rows.append(pos)
        tree = cart.fit(trace.X[train_rows], np.array(train_y), cart_params, memo=memo)
        preds = cart.predict_batch(tree, hold_X, memo=hold_memo)
        score = scorer(preds, hold_actual)
        if score <= last_score:
            lives -= 1
        last_score = score
        if lives == 0:
            stop = STOP_LIVES
            break

    # the model's answer: best predicted configuration in the validation pool
    sign = float(direction_signs((direction,))[0])
    pick = cart.argmin_row(tree, trace.X[val_pos], np.zeros(val_pos.size, bool), sign)
    best_pos = int(val_pos[pick])
    trace.take(best_pos)
    run = trace.finish(stop, (direction,), objective, initial_sample=hold_pos.size,
                       best=int(trace.ids[best_pos]))
    return tree, run


def progressive_sampling(
    train_pool: Pool,
    holdout: Pool,
    validation: Pool,
    oracle,
    params: LivesParams = LivesParams(),
    cart_params: cart.CartParams = cart.CartParams(),
    direction: str = MINIMIZE,
    objective: int = 0,
    seed: int = 0,
    with_replacement: bool = False,
) -> tuple[cart.TreeNode, OptimizationRun]:
    """Residual-based sampling: holdout accuracy is the negated relative error."""
    return _lives_loop(
        train_pool, holdout, validation, oracle, params, cart_params,
        direction, objective, seed, with_replacement,
        scorer=lambda preds, actual: -metrics.mmre(preds, actual),
    )


def rank_based(
    train_pool: Pool,
    holdout: Pool,
    validation: Pool,
    oracle,
    params: LivesParams = LivesParams(),
    cart_params: cart.CartParams = cart.CartParams(),
    direction: str = MINIMIZE,
    objective: int = 0,
    seed: int = 0,
    with_replacement: bool = False,
) -> tuple[cart.TreeNode, OptimizationRun]:
    """Rank-based sampling: a life is lost when the holdout mean rank
    difference stops decreasing."""
    return _lives_loop(
        train_pool, holdout, validation, oracle, params, cart_params,
        direction, objective, seed, with_replacement,
        scorer=lambda preds, actual: -metrics.mu_rd(preds, actual),
    )


def random_search(
    candidates: Pool,
    oracle,
    n: int,
    directions: Sequence[str],
    seed: int = 0,
    objective: int = 0,
) -> OptimizationRun:
    """Measure n uniformly chosen distinct candidates; the control baseline.

    With one direction the answer is the best measured value of column
    `objective`; with several it is the non-dominated measured front.
    """
    trace = Trace(candidates, oracle)
    if n < 1 or n > trace.ids.size:
        raise ValueError(f"n must lie in [1, {trace.ids.size}]")
    for pos in np.random.default_rng(seed).choice(trace.ids.size, size=n, replace=False):
        trace.take(int(pos))
    return trace.finish(STOP_BUDGET, directions, objective)


def epsilon_discard(
    h_measured: np.ndarray,
    h_unknown: np.ndarray,
    s_unknown: np.ndarray,
    epsilon: float,
) -> np.ndarray:
    """Mask of unknown candidates discarded by the epsilon-dominance rule.

    Operates in larger-is-better space.  Candidate a is discarded when some
    other point b's pessimistic vector, shifted up by epsilon, is at least
    a's optimistic vector everywhere and strictly above it somewhere.
    Measured points are their own pessimistic bound (sigma 0); a candidate
    never discards itself.  With M measured and U unknown points this takes
    O((M + U) log(M + U)) time for two objectives, and O((M + U) U m) time
    in bounded memory for any other objective count m.
    """
    pess = np.vstack([h_measured, h_unknown - s_unknown]) + epsilon
    optimistic = h_unknown + s_unknown
    own = h_measured.shape[0] + np.arange(h_unknown.shape[0])
    return metrics._dominated(pess, optimistic, own)


def epal(
    candidates: Pool,
    oracle,
    params: EpalParams = EpalParams(),
    directions: Sequence[str] = (MINIMIZE, MINIMIZE),
    seed: int = 0,
) -> OptimizationRun:
    """Pareto active learning with a Gaussian process per objective.

    Loops until every candidate is measured or discarded: fit the processes,
    predict (mu, sigma) for the unevaluated pool, discard any candidate whose
    optimistic vector is epsilon-dominated by another point's pessimistic one,
    then measure the most uncertain survivor (largest sigma-vector norm).
    Comparisons happen in per-objective min-max normalized space over the
    values measured so far, so epsilon is scale-free.  A wall-clock limit
    aborts with partial results.
    """
    if len(directions) < 2:
        raise ValueError("epal needs at least two objectives")
    lapack()  # load LAPACK now, so the run's clock and max_wall_time never count it
    trace = Trace(candidates, oracle)
    X = trace.X
    n = trace.ids.size
    if n < EPAL_INIT_SIZE:
        raise ValueError(f"candidate pool has {n} rows, need {EPAL_INIT_SIZE} for the warm-up")
    signs = direction_signs(directions)

    # normalize inputs per option over the candidate set for the kernel
    x_lo = X.min(axis=0)
    x_span = X.max(axis=0) - x_lo
    x_span[x_span == 0.0] = 1.0
    Xn = (X - x_lo) / x_span

    # squared distances from every pool row to each measured point, one
    # column per point in measurement order: O(measured x n), never n x n
    store = np.empty((n, min(n, 2 * EPAL_INIT_SIZE)))
    column = np.zeros(n, dtype=np.intp)
    stored = 0

    def take(pos: int) -> None:
        nonlocal store, stored
        trace.take(pos)
        if stored == store.shape[1]:
            store = np.hstack([store, np.empty((n, min(n, 2 * stored) - stored))])
        store[:, stored] = _sq_dists(Xn, Xn[pos:pos + 1])[:, 0]
        column[pos] = stored
        stored += 1

    rng = np.random.default_rng(seed)
    discarded = np.zeros(n, dtype=bool)
    for pos in rng.choice(n, size=EPAL_INIT_SIZE, replace=False):
        take(int(pos))
    trace.check_width(directions)

    stop = STOP_POOL_EXHAUSTED
    while True:
        measured = trace.measured
        unknown = np.nonzero(~measured & ~discarded)[0]
        if unknown.size == 0:
            break
        if params.max_wall_time is not None and time.perf_counter() - trace.start > params.max_wall_time:
            stop = STOP_WALL_TIME
            break

        # larger-is-better mapped targets, one GP per objective, trained in
        # pool-position order on distances gathered from the store
        meas_pos = np.nonzero(measured)[0]
        cols = column[meas_pos]
        G_meas = -(trace.Y[meas_pos] * signs)
        gps = gp_fit(Xn[meas_pos], G_meas, d2=store[np.ix_(meas_pos, cols)])
        mu, sd = gp_predict_batch(gps, Xn[unknown], d2=store[np.ix_(unknown, cols)])

        lo = G_meas.min(axis=0)
        span = G_meas.max(axis=0) - lo
        span[span == 0.0] = 1.0
        h_meas = (G_meas - lo) / span
        h_unknown = (mu - lo) / span
        s_unknown = sd / span

        discard_now = epsilon_discard(
            h_meas, h_unknown, s_unknown, params.epsilon
        )
        discarded[unknown[discard_now]] = True

        survivors = unknown[~discard_now]
        if survivors.size == 0:
            break
        norms = np.linalg.norm(s_unknown[~discard_now], axis=1)
        take(int(survivors[int(np.argmax(norms))]))

    return trace.finish(stop, directions, initial_sample=EPAL_INIT_SIZE)
