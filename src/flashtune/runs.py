"""Shared optimizer run trace: what was measured, in what order, and the answer.

Every optimizer measures through a `Trace`: `Trace.take` is the only place in
the package that calls an oracle.  A `Trace` holds the run's directions and
objective, so measurement counting, float conversion and the check of each
vector against them are the same for every method, and `Trace.finish` builds
every method's best answer or Pareto front from them alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import metrics
from .space import Pool, _write_csv, direction_signs

STOP_BUDGET = "budget"
STOP_POOL_EXHAUSTED = "pool-exhausted"
STOP_LIVES = "lives"
STOP_WALL_TIME = "wall-time"


@dataclass(frozen=True)
class OptimizationRun:
    """Ordered measurement trace of one optimizer run.

    `evaluated` lists (candidate id, measured objective vector) in measurement
    order; `best` is set for single-objective runs, `front` (mutually
    non-dominated ids) for multi-objective ones.
    """

    evaluated: tuple[tuple[int, tuple[float, ...]], ...]
    best: int | None
    front: tuple[int, ...] | None
    wall_time: float
    stop_reason: str
    initial_sample: int = 0

    def __post_init__(self):
        if not (0 <= self.initial_sample <= len(self.evaluated)):
            raise ValueError("initial_sample must lie within the trace length")
        ids = {i for i, _ in self.evaluated}
        if self.best is not None and self.best not in ids:
            raise ValueError("best must appear in the evaluated trace")
        if self.front is not None and not set(self.front) <= ids:
            raise ValueError("front members must appear in the evaluated trace")

    @property
    def measurements_used(self) -> int:
        """Measurements made: one per trace entry."""
        return len(self.evaluated)

    @property
    def evaluated_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.evaluated)

    @property
    def acquisitions(self) -> int:
        """Measurements made after the warm-up / holdout phase."""
        return self.measurements_used - self.initial_sample


class Trace:
    """Measurement bookkeeping for one run over a candidate pool.

    `ids` and `X` are the pool's own arrays, not copies: ascending ids and
    the read-only matrix of their configurations; a position indexes both.
    The run's shape is fixed here: one direction optimizes column
    `objective` of the measured vectors, several must match their width.
    The first measurement is checked against it.  The wall clock starts at
    construction.
    """

    def __init__(self, candidates: Pool, oracle, directions: Sequence[str],
                 objective: int = 0):
        self.start = time.perf_counter()
        self.ids, self.X = candidates.ids, candidates.X
        self.oracle = oracle
        self.directions, self.objective = tuple(directions), objective
        self.measured = np.zeros(self.ids.size, dtype=bool)
        self.evaluated: list[tuple[int, tuple[float, ...]]] = []
        self.Y: np.ndarray | None = None

    def take(self, pos: int) -> tuple[float, ...]:
        """Measure the configuration at `pos` and record it; returns the vector."""
        values = tuple(float(v) for v in self.oracle.measure(tuple(self.X[pos].tolist())))
        width = len(values)
        if self.Y is None:
            k, j = len(self.directions), self.objective
            if k > 1 and width != k:
                raise ValueError(f"oracle returns {width} objectives, got {k} directions")
            if k == 1 and not (0 <= j < width):
                raise ValueError(f"objective index {j} outside oracle vector of width {width}")
            self.Y = np.zeros((self.ids.size, width))
        elif width != self.Y.shape[1]:
            raise ValueError("oracle returned vectors of inconsistent width")
        self.measured[pos] = True
        self.Y[pos] = values
        self.evaluated.append((int(self.ids[pos]), values))
        return values

    def pool(self) -> np.ndarray:
        """Positions not measured yet."""
        return np.nonzero(~self.measured)[0]

    def finish(self, stop: str, initial_sample: int = 0, best: int | None = None) -> OptimizationRun:
        """The run so far.  Unless `best` is given, one direction picks the
        best measured value of column `objective` (first in measurement order
        among ties) and several give the non-dominated measured front."""
        wall = time.perf_counter() - self.start
        evaluated = tuple(self.evaluated)
        front = None
        if best is None and len(self.directions) == 1:
            scores = np.array([v[self.objective] for _, v in evaluated])
            best = evaluated[int(np.argmin(scores * direction_signs(self.directions)))][0]
        elif best is None:
            front_pos = metrics.pareto_front([v for _, v in evaluated], self.directions)
            front = tuple(sorted(evaluated[p][0] for p in front_pos))
        return OptimizationRun(evaluated, best, front, wall, stop, initial_sample)


def write_trace_csv(
    run: OptimizationRun,
    path: str | Path,
    candidates: Pool,
    option_names: Sequence[str],
    objective_names: Sequence[str],
) -> None:
    """Export a run trace as CSV: step, id, configuration values, objectives.

    Every evaluated id must be in `candidates`; KeyError names one that is not.
    """
    ids, evaluated_ids = candidates.ids, run.evaluated_ids
    pos = np.searchsorted(ids, evaluated_ids).tolist()
    for cid, k in zip(evaluated_ids, pos):
        if k == ids.size or ids[k] != cid:
            raise KeyError(cid)
    _write_csv(path, ["step", "id", *option_names, *objective_names], (
        [step, cid, *(repr(float(v)) for v in candidates.X[k].tolist()),
         *(repr(float(v)) for v in values)]
        for step, ((cid, values), k) in enumerate(zip(run.evaluated, pos), start=1)))
