"""Configuration spaces, measured datasets, splits, and measurement oracles.

A dataset is an immutable table with one row per valid configuration and one
column per option or objective.  On disk it is a pair of files:

* a manifest, line oriented, ``#`` comments and blank lines ignored::

      option <name> bool
      option <name> int <min> <max>
      objective <name> minimize
      objective <name> maximize

* a UTF-8 CSV with a header row naming every manifest column (extra columns
  are ignored), ``.`` as the decimal separator and no thousands separators.
"""

from __future__ import annotations

import csv
import math
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

MINIMIZE = "minimize"
MAXIMIZE = "maximize"
DIRECTIONS = (MINIMIZE, MAXIMIZE)

BOOLEAN = "boolean"
INTEGER = "integer"


def direction_signs(directions: Sequence[str]) -> np.ndarray:
    """+1 per minimized and -1 per maximized objective: values times these
    signs are smaller-is-better in every column."""
    for d in directions:
        if d not in DIRECTIONS:
            raise ValueError(f"unknown direction {d!r}")
    return np.array([1.0 if d == MINIMIZE else -1.0 for d in directions])


class DatasetError(ValueError):
    """A manifest, data file, or in-memory dataset violates its contract."""


class SchemaError(DatasetError):
    """Manifest-level problem: bad declaration or missing column."""


class RowError(DatasetError):
    """Problem attributable to a single data row (1-based, header excluded)."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class SplitError(ValueError):
    """A requested split would leave some part empty."""


class MeasureError(RuntimeError):
    """A measurement could not be carried out."""


@dataclass(frozen=True)
class OptionSchema:
    """One tunable decision: a boolean switch or a bounded integer."""

    name: str
    kind: str
    lo: int = 0
    hi: int = 1

    def __post_init__(self):
        if not self.name:
            raise SchemaError("option name must be non-empty")
        if self.kind not in (BOOLEAN, INTEGER):
            raise SchemaError(f"option {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == BOOLEAN:
            object.__setattr__(self, "lo", 0)
            object.__setattr__(self, "hi", 1)
        if self.lo > self.hi:
            raise SchemaError(f"option {self.name!r}: min {self.lo} > max {self.hi}")

    def contains(self, value: float) -> bool:
        return float(value).is_integer() and self.lo <= value <= self.hi


@dataclass(frozen=True)
class ObjectiveSchema:
    """One performance measure and whether smaller or larger is better."""

    name: str
    direction: str

    def __post_init__(self):
        if not self.name:
            raise SchemaError("objective name must be non-empty")
        if self.direction not in DIRECTIONS:
            raise SchemaError(
                f"objective {self.name!r}: direction must be one of {DIRECTIONS}"
            )


class Dataset:
    """Immutable lookup table of configurations and their measured objectives.

    Safe for concurrent reads; the backing arrays are marked read-only.
    """

    def __init__(
        self,
        options: Sequence[OptionSchema],
        objectives: Sequence[ObjectiveSchema],
        configs: Iterable[Sequence[float]],
        values: Iterable[Sequence[float]],
    ):
        self.options = tuple(options)
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise SchemaError("at least one objective is required")
        names = [o.name for o in self.options] + [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise SchemaError("option and objective names must be mutually distinct")

        X = np.array(list(configs), dtype=float)
        Y = np.array(list(values), dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.options):
            raise DatasetError("configuration rows must match the option count")
        if Y.ndim != 2 or Y.shape[1] != len(self.objectives):
            raise DatasetError("objective rows must match the objective count")
        if X.shape[0] != Y.shape[0]:
            raise DatasetError("configuration and objective row counts differ")
        if X.shape[0] < 2:
            raise DatasetError("a dataset needs at least 2 rows")
        if not np.isfinite(X).all():
            raise DatasetError("configuration values must be finite")
        if not np.isfinite(Y).all():
            raise DatasetError("objective values must be finite")
        for j, opt in enumerate(self.options):
            col = X[:, j]
            bad = np.nonzero((col != np.floor(col)) | (col < opt.lo) | (col > opt.hi))[0]
            if bad.size:
                i = int(bad[0])
                raise RowError(i + 1, f"value {col[i]!r} outside domain of option {opt.name!r}")

        self._index: dict[tuple[float, ...], int] = {}
        for i, row in enumerate(X):
            first = self._index.setdefault(tuple(row), i)
            if first != i:
                raise RowError(i + 1, f"duplicate configuration (first seen at row {first + 1})")

        X.setflags(write=False)
        Y.setflags(write=False)
        self.configs = X
        self.values = Y

    @property
    def n_rows(self) -> int:
        return self.configs.shape[0]

    @property
    def option_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.options)

    @property
    def objective_names(self) -> tuple[str, ...]:
        return tuple(o.name for o in self.objectives)

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(o.direction for o in self.objectives)

    def config(self, i: int) -> tuple[float, ...]:
        return tuple(self.configs[i])

    def lookup(self, config: Sequence[float]) -> int:
        """Row index of a configuration; KeyError if absent."""
        return self._index[tuple(float(v) for v in config)]

    def candidates(self, indices: Iterable[int] | None = None) -> dict[int, tuple[float, ...]]:
        """Mapping row id -> option values, the pool format the optimizers take."""
        if indices is None:
            indices = range(self.n_rows)
        return {int(i): tuple(self.configs[int(i)]) for i in indices}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.options == other.options
            and self.objectives == other.objectives
            and np.array_equal(self.configs, other.configs)
            and np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        return (
            f"Dataset({self.n_rows} rows, {len(self.options)} options, "
            f"{len(self.objectives)} objectives)"
        )


def _parse_manifest(path: Path) -> tuple[list[OptionSchema], list[ObjectiveSchema]]:
    options: list[OptionSchema] = []
    objectives: list[ObjectiveSchema] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "option":
                if len(parts) == 3 and parts[2] == "bool":
                    options.append(OptionSchema(parts[1], BOOLEAN))
                elif len(parts) == 5 and parts[2] == "int":
                    options.append(OptionSchema(parts[1], INTEGER, int(parts[3]), int(parts[4])))
                else:
                    raise SchemaError(f"line {lineno}: bad option declaration {line!r}")
            elif kind == "objective":
                if len(parts) != 3:
                    raise SchemaError(f"line {lineno}: bad objective declaration {line!r}")
                objectives.append(ObjectiveSchema(parts[1], parts[2]))
            else:
                raise SchemaError(f"line {lineno}: unknown declaration {kind!r}")
        except ValueError as exc:
            if isinstance(exc, SchemaError):
                raise
            raise SchemaError(f"line {lineno}: {exc}") from exc
    seen: set[str] = set()
    for name in [o.name for o in options] + [o.name for o in objectives]:
        if name in seen:
            raise SchemaError(f"duplicate column name {name!r} in manifest")
        seen.add(name)
    if not options:
        raise SchemaError("manifest declares no options")
    if not objectives:
        raise SchemaError("manifest declares no objectives")
    return options, objectives


def load_dataset(manifest_path: str | Path, data_path: str | Path) -> Dataset:
    """Load and validate a dataset from a manifest file and a CSV table."""
    options, objectives = _parse_manifest(Path(manifest_path))
    wanted = [o.name for o in options] + [o.name for o in objectives]

    with open(data_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("data file is empty") from None
        header = [h.strip() for h in header]
        col_of: dict[str, int] = {}
        for name in wanted:
            if name not in header:
                raise SchemaError(f"data file is missing column {name!r}")
            col_of[name] = header.index(name)

        configs: list[list[float]] = []
        values: list[list[float]] = []
        for rowno, record in enumerate(reader, start=1):
            if not record or all(not c.strip() for c in record):
                continue
            def cell(name: str) -> float:
                try:
                    return float(record[col_of[name]])
                except (ValueError, IndexError):
                    raise RowError(rowno, f"non-numeric or missing value in column {name!r}") from None
            cfg = []
            for opt in options:
                v = cell(opt.name)
                if not opt.contains(v):
                    raise RowError(rowno, f"value {v!r} outside domain of option {opt.name!r}")
                cfg.append(v)
            configs.append(cfg)
            values.append([cell(o.name) for o in objectives])

    if len(configs) < 2:
        raise DatasetError("a dataset needs at least 2 rows")
    return Dataset(options, objectives, configs, values)


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def save_dataset(dataset: Dataset, manifest_path: str | Path, data_path: str | Path) -> None:
    """Write a dataset back out; load_dataset on the result round-trips."""
    lines = []
    for opt in dataset.options:
        if opt.kind == BOOLEAN:
            lines.append(f"option {opt.name} bool")
        else:
            lines.append(f"option {opt.name} int {opt.lo} {opt.hi}")
    for obj in dataset.objectives:
        lines.append(f"objective {obj.name} {obj.direction}")
    Path(manifest_path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    with open(data_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(dataset.option_names) + list(dataset.objective_names))
        for i in range(dataset.n_rows):
            row = [_format_value(v) for v in dataset.configs[i]]
            row += [repr(float(v)) for v in dataset.values[i]]
            writer.writerow(row)


@dataclass(frozen=True)
class SplitSpec:
    """Fractions for the train pool / holdout / validation pool partition."""

    train_fraction: float = 0.4
    holdout_fraction: float = 0.2
    validation_fraction: float = 0.4
    seed: int = 0

    def __post_init__(self):
        for f in (self.train_fraction, self.holdout_fraction, self.validation_fraction):
            if not (0.0 < f < 1.0):
                raise ValueError("split fractions must lie in (0, 1)")
        total = self.train_fraction + self.holdout_fraction + self.validation_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {total}, expected 1")


def split(dataset: Dataset, spec: SplitSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition row indices into (train_pool, holdout, validation).

    Holdout and validation get floor(fraction * n) rows; the train pool gets
    the rest, so any remainder from flooring lands there.  Deterministic for
    a given seed; each part is returned sorted ascending.
    """
    n = dataset.n_rows
    # +1e-9 guards against binary float products like 0.2*10 = 1.9999...
    n_hold = int(math.floor(spec.holdout_fraction * n + 1e-9))
    n_val = int(math.floor(spec.validation_fraction * n + 1e-9))
    n_train = n - n_hold - n_val
    if min(n_train, n_hold, n_val) < 1:
        raise SplitError(f"split {spec} leaves an empty part for {n} rows")
    perm = np.random.default_rng(spec.seed).permutation(n)
    train = np.sort(perm[:n_train])
    hold = np.sort(perm[n_train:n_train + n_hold])
    val = np.sort(perm[n_train + n_hold:])
    return train, hold, val


class TableOracle:
    """Measurement by lookup in a fully enumerated dataset.

    Stateful: `count` tallies every measure call.  Confine one oracle to one
    optimizer run; do not share it across concurrent runs.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self.count = 0

    def measure(self, config: Sequence[float]) -> tuple[float, ...]:
        self.count += 1
        try:
            i = self._dataset.lookup(config)
        except KeyError:
            raise MeasureError(f"configuration {tuple(config)!r} is not in the dataset") from None
        return tuple(self._dataset.values[i])


class CommandOracle:
    """Measurement by running an external command per configuration.

    The template is rendered with option names, e.g. ``bench --cache={cache}``,
    then tokenized and executed without a shell.  Stdout must contain exactly
    one number per objective (whitespace or comma separated).
    """

    def __init__(
        self,
        options: Sequence[OptionSchema],
        n_objectives: int,
        template: str,
        timeout: float = 60.0,
    ):
        if n_objectives < 1:
            raise ValueError("n_objectives must be >= 1")
        self.options = tuple(options)
        self.n_objectives = n_objectives
        self.template = template
        self.timeout = timeout
        self.count = 0

    def measure(self, config: Sequence[float]) -> tuple[float, ...]:
        self.count += 1
        if len(config) != len(self.options):
            raise MeasureError("configuration length does not match the option schema")
        mapping = {o.name: _format_value(v) for o, v in zip(self.options, config)}
        try:
            command = self.template.format(**mapping)
        except KeyError as exc:
            raise MeasureError(f"template references unknown option {exc}") from None
        try:
            proc = subprocess.run(
                shlex.split(command),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired:
            raise MeasureError(f"measurement command timed out after {self.timeout}s") from None
        except OSError as exc:
            raise MeasureError(f"measurement command failed to start: {exc}") from None
        if proc.returncode != 0:
            raise MeasureError(f"measurement command exited with {proc.returncode}")
        tokens = proc.stdout.replace(",", " ").split()
        try:
            numbers = [float(t) for t in tokens]
        except ValueError:
            raise MeasureError(f"unparseable measurement output {proc.stdout!r}") from None
        if not all(math.isfinite(x) for x in numbers):
            raise MeasureError(f"non-finite measurement output {proc.stdout!r}")
        if len(numbers) != self.n_objectives:
            raise MeasureError(
                f"expected {self.n_objectives} objective values, got {len(numbers)}"
            )
        return tuple(numbers)


MeasurementOracle = TableOracle | CommandOracle
