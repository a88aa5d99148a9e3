"""Experiment harness: repeated seeded runs, method comparison, report files.

Within one repeat every method sees the same seed-derived split, the
(train, holdout, validation) parts of `space.split`, and its own fresh
oracle, so measurement counts are comparable by construction.  Samplers
(progressive, rank-based) and pool searchers (flash, random, epal) search
different rows of it, which `searched_rows` states.  A method failure inside
one repeat is recorded as an "X" row instead of aborting the experiment.

`run_method` is the one dispatch from a method to its optimizer: the rig
calls it per repeat, and the `tune`, `tune-mo` and `baseline` commands call
it for their single run (`tune` and `tune-mo` with no parts: the whole table).
`write_report` writes an experiment's report files for both the
`experiment` command and `scripts/run_synthetic_rig.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from . import metrics
from .baselines import EpalParams, LivesParams, epal, progressive_sampling, random_search, rank_based
from .cart import CartParams
from .flash import FlashParams, flash_multi, flash_single
from .runs import OptimizationRun
from .space import Dataset, TableOracle, _open_output, _write_csv, load_dataset, split
from .stats import SkParams, Treatment, quartile_report, scott_knott
from .synth import generate_synthetic

# The overrides `MethodSpec.options` may hold, per method kind, each with the
# type its value is read as.
OVERRIDES = {
    "flash": {"size": int, "budget": int},
    "progressive": {},
    "rank": {},
    "epal": {"epsilon": float},
    "random": {"n": int},
}
METHOD_KINDS = tuple(OVERRIDES)
SAMPLERS = ("progressive", "rank")  # single-objective; the rest are pool searchers
MULTI_ONLY = ("epal",)


@dataclass(frozen=True)
class MethodSpec:
    """One competitor: a label, a method kind, and per-method overrides.

    `options` holds only keys its kind accepts (`OVERRIDES`); each replaces
    one `ExperimentSpec` setting for this method, and any other key is
    refused.  `experiment --methods` sets some of them with a colon suffix:

    - flash: `size` (no suffix) and `budget` (`flash:N`) replace
      `flash.size` and `flash.budget`;
    - random: `n` (`random:N`), the number of measurements, by default
      `flash.size + flash.budget`;
    - epal: `epsilon` (`epal:E`) replaces `epsilon`;
    - progressive and rank accept none.
    """

    kind: str
    label: str = ""
    options: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in METHOD_KINDS:
            raise ValueError(f"unknown method kind {self.kind!r}; choose from {METHOD_KINDS}")
        unknown = sorted(set(self.options) - set(OVERRIDES[self.kind]))
        if unknown:
            accepted = ", ".join(OVERRIDES[self.kind]) or "none"
            raise ValueError(f"method {self.kind!r} takes no option {unknown[0]!r}; "
                             f"accepted: {accepted}")
        if not self.label:
            object.__setattr__(self, "label", self.kind)

    def option(self, key: str, default):
        """The override `key`, or `default` when unset, as `OVERRIDES` types it."""
        return OVERRIDES[self.kind][key](self.options.get(key, default))


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything one experiment needs; identical specs yield identical reports.

    Each repeat splits the table 40/20/40 with `space.split` and ranks with
    Scott-Knott at the fixed settings of `stats`; neither is set here.  A
    method's overrides are checked when the spec is built, so a bad value
    fails before any repeat runs; only a bound that depends on a repeat's
    pool (random's `n` above the pool size) is left to the repeat.
    """

    methods: tuple[MethodSpec, ...]
    manifest: str | Path | None = None
    data: str | Path | None = None
    synthetic: tuple[str, int] | None = None
    objectives: tuple[int, ...] = ()
    repeats: int = 20
    seed: int = 0
    flash: FlashParams = FlashParams()
    cart: CartParams = CartParams()
    lives: LivesParams = LivesParams()
    epsilon: float = 0.01
    max_wall_time: float | None = None
    with_replacement: bool = False
    sk: SkParams = SkParams()

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not self.methods:
            raise ValueError("at least one method is required")
        labels = [m.label for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError("method labels must be unique")
        has_files = self.manifest is not None and self.data is not None
        if has_files == (self.synthetic is not None):
            raise ValueError("provide either manifest+data paths or a synthetic spec")
        for method in self.methods:
            if method.kind == "flash":
                self.flash_params(method, self.seed)
            elif method.kind == "random":
                self.random_n(method)
            elif method.kind == "epal":
                self.epal_params(method)

    def flash_params(self, method: MethodSpec, seed: int) -> FlashParams:
        """flash's settings for `method` in the repeat seeded `seed`."""
        return replace(self.flash, seed=seed, size=method.option("size", self.flash.size),
                       budget=method.option("budget", self.flash.budget))

    def random_n(self, method: MethodSpec) -> int:
        """The number of measurements random search makes for `method`."""
        n = method.option("n", self.flash.size + self.flash.budget)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        return n

    def epal_params(self, method: MethodSpec) -> EpalParams:
        """ePAL's settings for `method`."""
        return EpalParams(epsilon=method.option("epsilon", self.epsilon),
                          max_wall_time=self.max_wall_time)


@dataclass(frozen=True)
class MethodResult:
    """Outcome of one method in one repeat; failures keep the row with status X."""

    method: str
    repeat: int
    failed: bool
    rd: int | None = None
    pool_rd: int | None = None
    gd: float | None = None
    igd: float | None = None
    measurements: int | None = None
    acquisitions: int | None = None
    wall_time: float | None = None
    error: str | None = None  # a failed run's cause, as "Type: message"


@dataclass(frozen=True)
class QualityReport:
    dataset_label: str
    objective_names: tuple[str, ...]
    single_objective: bool
    methods: tuple[str, ...]
    repeats: int
    seed: int
    rows: tuple[MethodResult, ...]
    ranks: Mapping[str, Mapping[str, int | None]]

    def metric_names(self) -> tuple[str, ...]:
        if self.single_objective:
            return ("rd", "measurements")
        return ("gd", "igd", "measurements")

    def observations(self, metric: str, method: str) -> list[float]:
        return [
            float(getattr(r, metric))
            for r in self.rows
            if r.method == method and not r.failed and getattr(r, metric) is not None
        ]

    def treatments(self, metric: str) -> list[Treatment]:
        """One treatment per method with at least one observation, in method order."""
        return [Treatment(label, tuple(obs)) for label in self.methods
                if (obs := self.observations(metric, label))]


def load_experiment_dataset(spec: ExperimentSpec) -> tuple[Dataset, str]:
    if spec.synthetic is not None:
        kind, n_options = spec.synthetic
        return generate_synthetic(kind, n_options, spec.seed), f"{kind}({n_options} options)"
    return load_dataset(spec.manifest, spec.data), str(spec.data)


def check_objective_count(method: MethodSpec, n_objectives: int) -> None:
    """Refuse a method that cannot search `n_objectives` objectives."""
    if n_objectives == 1 and method.kind in MULTI_ONLY:
        raise ValueError(f"method {method.label!r} needs >= 2 objectives")
    if n_objectives > 1 and method.kind in SAMPLERS:
        raise ValueError(f"method {method.label!r} handles a single objective only")


def searched_rows(method: MethodSpec, parts) -> np.ndarray | None:
    """The row ids `method` searches and ranks its answer (`pool_rd`) in, of
    a repeat's `space.split` parts: validation for a sampler, which trains on
    training and scores on the holdout; training and validation for a pool
    searcher, which alone takes no parts and then searches the whole table."""
    if parts is None:
        if method.kind in SAMPLERS:
            raise ValueError(f"method {method.label!r} needs a repeat's parts")
        return None
    train_ids, _, val_ids = parts
    return val_ids if method.kind in SAMPLERS else np.concatenate([train_ids, val_ids])


def run_method(
    method: MethodSpec,
    dataset: Dataset,
    objectives: tuple[int, ...],
    parts,
    seed: int,
    spec: ExperimentSpec,
) -> OptimizationRun:
    """One method's run through its own fresh oracle, on a repeat's (train,
    holdout, validation) `parts` from `space.split`, or on the whole table
    when `parts` is None, which only the pool searchers accept.  The rows it
    searches are `searched_rows`'.  Several `objectives` are measured as
    those columns, in that order; one objective is measured with every
    column, so a run's trace shows the whole vector, and optimized in its
    own column."""
    check_objective_count(method, len(objectives))
    rows = searched_rows(method, parts)
    directions = tuple(dataset.objectives[j].direction for j in objectives)
    single = len(objectives) == 1
    oracle = TableOracle(dataset, None if single else objectives)

    if method.kind in SAMPLERS:
        sampler = progressive_sampling if method.kind == "progressive" else rank_based
        train_ids, hold_ids, _ = parts
        _, run = sampler(
            dataset.candidates(train_ids),
            dataset.candidates(hold_ids),
            dataset.candidates(rows),
            oracle,
            spec.lives,
            spec.cart,
            direction=directions[0],
            objective=objectives[0],
            seed=seed,
            with_replacement=spec.with_replacement,
        )
    else:
        cands = dataset.candidates(rows)
        if method.kind == "flash":
            fp = spec.flash_params(method, seed)
            if single:
                run = flash_single(cands, oracle, fp, directions[0], spec.cart, objectives[0])
            else:
                run = flash_multi(cands, oracle, fp, directions, spec.cart)
        elif method.kind == "random":
            run = random_search(cands, oracle, spec.random_n(method), directions, seed,
                                objectives[0])
        else:
            run = epal(cands, oracle, spec.epal_params(method), directions, seed)

    if oracle.count != len(run.evaluated):
        raise RuntimeError("oracle count does not match the run trace")
    return run


def _score(
    method: MethodSpec,
    dataset: Dataset,
    objectives: tuple[int, ...],
    parts,
    run: OptimizationRun,
    repeat: int,
    true_front: tuple[int, ...] | None,
) -> MethodResult:
    """Rank differences for one objective, else GD/IGD against `true_front`."""
    cost = dict(measurements=run.measurements_used, acquisitions=run.acquisitions,
                wall_time=run.wall_time)
    if len(objectives) == 1:
        rd = metrics.rank_difference(run.best, dataset, objectives[0])
        pool_rd = metrics.rank_difference(run.best, dataset, objectives[0],
                                          rows=searched_rows(method, parts))
        return MethodResult(method.label, repeat, False, rd=rd, pool_rd=pool_rd, **cost)
    gd, igd = metrics.front_quality(dataset, run.front, objectives, true_front)
    return MethodResult(method.label, repeat, False, gd=gd, igd=igd, **cost)


def run_experiment(
    spec: ExperimentSpec, dataset: Dataset | None = None, label: str = "in-memory dataset"
) -> QualityReport:
    """Execute every method for every repeat and rank the outcomes.

    A given `dataset` is reported under `label`; otherwise the spec's dataset
    is loaded and reported under its own name.
    """
    if dataset is None:
        dataset, label = load_experiment_dataset(spec)
    objectives = spec.objectives or tuple(range(len(dataset.objectives)))
    for j in objectives:
        if not (0 <= j < len(dataset.objectives)):
            raise ValueError(f"objective index {j} outside dataset")
    if len(set(objectives)) != len(objectives):
        raise ValueError(f"objective indices {list(objectives)} repeat an objective")
    single = len(objectives) == 1
    for m in spec.methods:
        check_objective_count(m, len(objectives))
    true_front = None
    if not single:
        directions = tuple(dataset.objectives[j].direction for j in objectives)
        true_front = metrics.pareto_front(dataset.values[:, list(objectives)], directions)

    rows: list[MethodResult] = []
    for r in range(spec.repeats):
        seed_r = spec.seed + r
        parts = split(dataset, seed_r)
        for m in spec.methods:
            try:
                run = run_method(m, dataset, objectives, parts, seed_r, spec)
                rows.append(_score(m, dataset, objectives, parts, run, r, true_front))
            except Exception as exc:
                rows.append(MethodResult(m.label, r, True, error=f"{type(exc).__name__}: {exc}"))

    labels = tuple(m.label for m in spec.methods)
    report = QualityReport(
        dataset_label=label,
        objective_names=tuple(dataset.objective_names[j] for j in objectives),
        single_objective=single,
        methods=labels,
        repeats=spec.repeats,
        seed=spec.seed,
        rows=tuple(rows),
        ranks={},
    )
    ranks: dict[str, dict[str, int | None]] = {}
    for metric in report.metric_names():
        treatments = report.treatments(metric)
        ranks[metric] = dict.fromkeys(labels)
        if treatments:
            ranks[metric].update(scott_knott(treatments, spec.sk))
    return replace(report, ranks=ranks)


def render_report(report: QualityReport, include_timing: bool = False) -> str:
    """Human-readable text report: setup, quartile charts, failures."""
    lines = [
        "experiment report",
        f"dataset: {report.dataset_label}",
        f"objectives: {', '.join(report.objective_names)}",
        f"mode: {'single-objective' if report.single_objective else 'multi-objective'}",
        f"repeats: {report.repeats}  seed: {report.seed}",
        "",
    ]
    for metric in report.metric_names():
        lines.append(f"metric: {metric} (lower is better)")
        treatments = report.treatments(metric)
        ranks = report.ranks[metric]
        if treatments:
            lines.append(quartile_report(treatments, ranks).rstrip("\n"))
        for label in report.methods:
            if ranks[label] is None:
                lines.append(f"   X  {label}  no successful repeats")
        lines.append("")
    if include_timing:
        lines.append("wall time (median seconds per repeat)")
        for label in report.methods:
            obs = report.observations("wall_time", label)
            med = f"{np.median(obs):.3f}" if obs else "X"
            lines.append(f"      {label}  {med}")
        lines.append("")
    failures = [r for r in report.rows if r.failed]
    if failures:
        lines.append("failures (recorded as X):")
        for r in failures:
            cause = f"  {r.error}" if r.error else ""
            lines.append(f"      {r.method}  repeat {r.repeat}{cause}")
        lines.append("")
    return "\n".join(lines)


# Report columns written as integers; every other value is written as repr(float).
_COUNTS = ("rd", "pool_rd", "measurements", "acquisitions")


def _value(row: MethodResult, field: str):
    return None if row.failed else getattr(row, field)


def _cell(value, field: str = "") -> str:
    """One CSV cell: "X" for a missing value (a failed row has none), an
    integer for a count, else the float's repr."""
    if value is None:
        return "X"
    return str(int(value)) if field in _COUNTS else repr(float(value))


def write_raw_results(report: QualityReport, path: Path, include_timing: bool = False) -> None:
    fields = ["rd", "pool_rd", "gd", "igd", "measurements", "acquisitions"]
    if include_timing:
        fields.append("wall_time")
    _write_csv(path, ["method", "repeat", "status", *fields], (
        [r.method, r.repeat, "X" if r.failed else "ok",
         *(_cell(_value(r, f), f) for f in fields)]
        for r in report.rows))


def emit_plot_data(report: QualityReport, out_dir: str | Path, include_timing: bool = False) -> list[Path]:
    """Write one deterministic CSV per figure kind; returns the paths written.

    The wall-time file is only written when timing is requested, because its
    contents vary from run to run while everything else is seed-reproducible.
    A figure file this report does not write is removed, so a rerun into the
    same directory leaves none from an earlier run.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    by_key = {(r.method, r.repeat): r for r in report.rows}

    fields = report.metric_names()
    header = ["method", "repeat", *("rank_difference" if f == "rd" else f for f in fields)]
    rows = ([m, rep, *(_cell(_value(by_key[(m, rep)], f), f) for f in fields)]
            for m in report.methods for rep in range(report.repeats))
    name = "rank_difference.csv" if report.single_objective else "quality_indicators.csv"
    written = [_write_csv(out / name, header, rows)]

    # each method's value as a multiple of a reference method's, per repeat;
    # the reference is the first label with the prefix, else the first method
    ratios = [("measurement_ratio.csv", "measurements", "progressive", 100.0)]
    if include_timing:
        ratios.append(("time_gain.csv", "wall_time", "flash", 1.0))
    for name, field, prefix, scale in ratios:
        reference = next((m for m in report.methods if m.startswith(prefix)), report.methods[0])
        rows = []
        for rep in range(report.repeats):
            base = _value(by_key[(reference, rep)], field)
            values = (_value(by_key[(m, rep)], field) for m in report.methods)
            rows.append([_cell(scale * v / base if v is not None and base else None)
                         for v in values])
        written.append(_write_csv(out / name, report.methods, rows))
    names = {p.name for p in written}
    for name in ("rank_difference.csv", "quality_indicators.csv", "time_gain.csv"):
        if name not in names:
            (out / name).unlink(missing_ok=True)
    return written


def write_report(report: QualityReport, out_dir: str | Path, include_timing: bool = False) -> str:
    """Write `report.txt`, `results.csv` and the plot data into `out_dir`;
    returns the report text."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    text = render_report(report, include_timing=include_timing)
    with _open_output(out / "report.txt") as fh:
        fh.write(text)
    write_raw_results(report, out / "results.csv", include_timing=include_timing)
    emit_plot_data(report, out, include_timing=include_timing)
    return text
