"""Scott-Knott ranking of treatments, gated by bootstrap and A12 effect size.

A split of the median-sorted treatment list is accepted only when the
bootstrap hypothesis test and the A12 effect-size test both agree; otherwise
the whole list shares one rank.  Lower observations are better.  The test
runs at one fixed setting: `CONFIDENCE` 0.99 on `BOOTSTRAP_RESAMPLES` 512
bootstrap resamples, and an A12 of at least `A12_THRESHOLD` 0.6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

CONFIDENCE = 0.99
A12_THRESHOLD = 0.6
BOOTSTRAP_RESAMPLES = 512
# columns of a quartile chart's bar
CHART_WIDTH = 30


@dataclass(frozen=True)
class Treatment:
    label: str
    observations: tuple[float, ...]

    def __post_init__(self):
        obs = tuple(float(v) for v in self.observations)
        object.__setattr__(self, "observations", obs)
        if len(obs) < 1:
            raise ValueError(f"treatment {self.label!r} has no observations")
        if not np.isfinite(obs).all():
            raise ValueError(f"treatment {self.label!r} has non-finite observations")

    @property
    def median(self) -> float:
        return float(np.median(self.observations))


@dataclass(frozen=True)
class SkParams:
    """The seed of the bootstrap resampling."""

    seed: int = 0


def a12(x: Sequence[float], y: Sequence[float]) -> float:
    """Probability estimate that a draw from x exceeds a draw from y.

    Ties count half: (#{x_i > y_j} + 0.5 * #{x_i == y_j}) / (|x| * |y|).
    """
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.size == 0 or yv.size == 0:
        raise ValueError("a12 needs non-empty samples")
    gt = np.sum(xv[:, None] > yv[None, :])
    eq = np.sum(xv[:, None] == yv[None, :])
    return float((gt + 0.5 * eq) / (xv.size * yv.size))


def bootstrap_significant(x: Sequence[float], y: Sequence[float], params: SkParams = SkParams()) -> bool:
    """Two-sided bootstrap test of the mean difference under the pooled null."""
    xv = np.asarray(x, dtype=float)
    yv = np.asarray(y, dtype=float)
    if xv.size == 0 or yv.size == 0:
        raise ValueError("bootstrap test needs non-empty samples")
    observed = abs(xv.mean() - yv.mean())
    pooled = np.concatenate([xv, yv])
    rng = np.random.default_rng(params.seed)
    b = BOOTSTRAP_RESAMPLES
    xs = rng.choice(pooled, size=(b, xv.size), replace=True).mean(axis=1)
    ys = rng.choice(pooled, size=(b, yv.size), replace=True).mean(axis=1)
    count = int(np.sum(np.abs(xs - ys) >= observed))
    p = (count + 1) / (b + 1)
    return p < 1.0 - CONFIDENCE


def _split_gain(groups: list[np.ndarray]) -> tuple[float, int]:
    """Best split point of the group list by expected mean-difference gain."""
    all_obs = np.concatenate(groups)
    mu = all_obs.mean()
    ls = all_obs.size
    best_gain = -np.inf
    best_k = 1
    left_sum = 0.0
    left_n = 0
    for k in range(1, len(groups)):
        left_sum += groups[k - 1].sum()
        left_n += groups[k - 1].size
        right_n = ls - left_n
        left_mu = left_sum / left_n
        right_mu = (all_obs.sum() - left_sum) / right_n
        gain = (left_n / ls) * (left_mu - mu) ** 2 + (right_n / ls) * (right_mu - mu) ** 2
        if gain > best_gain:
            best_gain = gain
            best_k = k
    return best_gain, best_k


def scott_knott(treatments: Sequence[Treatment], params: SkParams = SkParams()) -> dict[str, int]:
    """Cluster treatments into statistically distinct rank groups.

    Returns label -> rank with 1 the best; lower observations are better.
    Treatments that cannot be told apart share a rank.  Input order never
    matters; sorting is canonical by (median, mean, label).
    """
    if not treatments:
        raise ValueError("scott_knott needs at least one treatment")
    labels = [t.label for t in treatments]
    if len(set(labels)) != len(labels):
        raise ValueError("treatment labels must be unique")

    ordered = sorted(treatments, key=lambda t: (t.median, float(np.mean(t.observations)), t.label))

    def cluster(ts: list[Treatment]) -> list[list[Treatment]]:
        if len(ts) == 1:
            return [ts]
        groups = [np.asarray(t.observations) for t in ts]
        _, k = _split_gain(groups)
        left = np.concatenate(groups[:k])
        right = np.concatenate(groups[k:])
        # right holds the larger medians; demand it is worse with real effect
        distinct = bootstrap_significant(left, right, params) and a12(right, left) >= A12_THRESHOLD
        if not distinct:
            return [ts]
        return cluster(ts[:k]) + cluster(ts[k:])

    ranks: dict[str, int] = {}
    for rank, group in enumerate(cluster(list(ordered)), start=1):
        for t in group:
            ranks[t.label] = rank
    return ranks


def quartile_report(treatments: Sequence[Treatment], ranks: dict[str, int]) -> str:
    """Text quartile chart: one line per treatment with rank, median, IQR and
    a `CHART_WIDTH`-column bar of its quartiles over the span of all
    observations."""
    lines = []
    all_obs = np.concatenate([np.asarray(t.observations) for t in treatments])
    lo, hi = float(all_obs.min()), float(all_obs.max())
    span = hi - lo if hi > lo else 1.0

    def pos(v: float) -> int:
        return min(CHART_WIDTH - 1, max(0, int(round((v - lo) / span * (CHART_WIDTH - 1)))))

    ordered = sorted(treatments, key=lambda t: (ranks[t.label], t.median, t.label))
    label_w = max(len(t.label) for t in treatments)
    for t in ordered:
        q25, q50, q75 = np.percentile(np.asarray(t.observations), [25, 50, 75])
        cells = [" "] * CHART_WIDTH
        for c in range(pos(q25), pos(q75) + 1):
            cells[c] = "-"
        cells[pos(q50)] = "o"
        lines.append(
            f"{ranks[t.label]:>4}  {t.label:<{label_w}}  "
            f"median={q50:<12.6g} IQR={q75 - q25:<12.6g} |{''.join(cells)}|"
        )
    return "\n".join(lines) + "\n"
