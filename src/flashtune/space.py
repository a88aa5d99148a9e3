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
import io
import math
import shlex
import struct
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, TextIO

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


class Pool:
    """Read-only candidate pool, the one format the optimizers take.

    `ids` holds row ids in strictly ascending order and `X` the option
    values, row k those of `ids[k]`; both are read-only views, so the
    caller's arrays keep their own flags.  Building one copies nothing and
    does not check the order of `ids`.  `dataset.candidates(ids)` gives a
    pool of table rows; `Pool(ids, X)` one of any configurations.
    """

    def __init__(self, ids: np.ndarray, X: np.ndarray):
        if ids.ndim != 1 or X.shape[0] != ids.size:
            raise ValueError("a pool needs one row of X per id")
        self.ids = ids.view()
        self.X = X.view()
        self.ids.setflags(write=False)
        self.X.setflags(write=False)

    def __len__(self) -> int:
        return self.ids.size


class Dataset:
    """Immutable lookup table of configurations and their measured objectives.

    Safe for concurrent reads; the backing arrays are marked read-only.

    `configs` is the table's own C-ordered copy of the option values, with
    every zero stored as +0.0 (a -0.0 given is read as 0.0); the caller's
    array is never written.  `lookup` finds a row by its key: the row's
    option values packed as native doubles.  The values are finite and no
    zero is negative, so two rows share a key exactly when their float
    tuples compare equal.  The index is two arrays and no Python object per
    row: the keys, a `np.void` view of `configs` with one scalar per row,
    and the stable `argsort` of them, which a query is binary-searched
    through.  A query of the right length is packed the same way, each value
    through `float(v) + 0.0`, so any spelling of a configuration that
    `float` reads finds its row.
    """

    def __init__(
        self,
        options: Sequence[OptionSchema],
        objectives: Sequence[ObjectiveSchema],
        configs: Iterable[Sequence[float]],
        values: Iterable[Sequence[float]],
        row_numbers: Sequence[int] | None = None,
    ):
        """`row_numbers` gives the number a `RowError` reports for each row;
        by default the rows are numbered 1, 2, ... in order.  After the
        shapes, the first error is, in this order: an option value outside
        its domain (`_check_domain`), fewer than 2 rows, a non-finite
        objective, a row that repeats an earlier one."""
        self.options = tuple(options)
        self.objectives = tuple(objectives)
        if not self.objectives:
            raise SchemaError("at least one objective is required")
        names = [o.name for o in self.options] + [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise SchemaError("option and objective names must be mutually distinct")

        # listing an array row by row would be slow and would flatten an empty one;
        # `configs` is always copied, so the += below never writes the caller's array
        X = np.array(configs if isinstance(configs, np.ndarray) else list(configs),
                     dtype=float, order="C")
        Y = np.array(values if isinstance(values, np.ndarray) else list(values), dtype=float)
        if X.ndim != 2 or X.shape[1] != len(self.options):
            raise DatasetError("configuration rows must match the option count")
        if Y.ndim != 2 or Y.shape[1] != len(self.objectives):
            raise DatasetError("objective rows must match the objective count")
        if X.shape[0] != Y.shape[0]:
            raise DatasetError("configuration and objective row counts differ")
        rows = range(1, X.shape[0] + 1) if row_numbers is None else row_numbers
        if len(rows) != X.shape[0]:
            raise ValueError("row_numbers must give one number per row")
        _check_domain(self.options, X, rows)
        if X.shape[0] < 2:
            raise DatasetError("a dataset needs at least 2 rows")
        if not np.isfinite(Y).all():
            raise DatasetError("objective values must be finite")

        n, d = X.shape
        self._pack = struct.Struct(f"{d}d").pack
        X += 0.0  # -0.0 + 0.0 is +0.0, so equal rows have equal bytes
        X.setflags(write=False)
        Y.setflags(write=False)
        # a void view of the C-ordered rows reads each row's bytes as one
        # scalar.  Rows of no options all read as one zero byte: they are all equal.
        self._keys = (X.view(f"V{8 * d}") if d else np.zeros((n, 1), "V1")).ravel()
        self._order = np.argsort(self._keys, kind="stable")
        dup = _first_duplicate(X, self._order)
        if dup is not None:
            first = int(self._order[self._keys.searchsorted(self._keys[dup], sorter=self._order)])
            raise RowError(rows[dup], f"duplicate configuration (first seen at row {rows[first]})")

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
        key = tuple(map(float, config))
        if len(key) == len(self.options):
            packed = self._pack(*[v + 0.0 for v in key])
            pos = int(self._keys.searchsorted(np.void(packed), sorter=self._order))
            if pos < self._order.size:
                i = self._order.item(pos)
                if self._keys.item(i) == packed:
                    return i
        raise KeyError(key)

    def candidates(self, indices: Iterable[int] | None = None) -> Pool:
        """The rows `indices` as a `Pool`, the format the optimizers take.

        Without `indices` it is the whole table: the ids are a range and `X`
        is `configs` itself, not a copy.  With `indices` the ids are their
        distinct values in ascending order and `X` copies those rows.  An id
        whose value is not an integer (`2.0` is one, `2.7` is not) or that
        lies outside `[0, n_rows)` is refused.
        """
        if indices is None:
            return Pool(np.arange(self.n_rows), self.configs)
        # read as floats, so that 2.7 is refused rather than truncated to 2
        given = np.fromiter(indices, dtype=float)
        fractional = given != np.floor(given)
        if fractional.any():
            raise ValueError(f"row id {float(given[np.argmax(fractional)])!r} is not an integer")
        ids = np.unique(given)
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n_rows):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ValueError(f"row id {_format_value(bad)} outside [0, {self.n_rows})")
        ids = ids.astype(int)
        return Pool(ids, self.configs[ids])

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


# rows per block of the table-wide checks: 8192 rows of 8 options are 512 KiB
_BLOCK = 8192


def _first_duplicate(X: np.ndarray, order: np.ndarray) -> int | None:
    """The first row of `X`, in row order, equal to an earlier row, or None.

    `order` sorts the rows so that equal rows are neighbours, each run of
    them in row order (a stable sort).  Neighbours are compared a block of
    `_BLOCK` rows at a time, so the check gathers no second copy of the
    table.
    """
    n = order.size
    dup = n
    for start in range(0, n - 1, _BLOCK):
        at = order[start:start + _BLOCK + 1]
        block = X[at]
        later = at[1:][(block[1:] == block[:-1]).all(axis=1)]
        if later.size:
            dup = min(dup, int(later.min()))
    return dup if dup < n else None


def _parse_manifest(path: Path) -> tuple[list[OptionSchema], list[ObjectiveSchema]]:
    options: list[OptionSchema] = []
    objectives: list[ObjectiveSchema] = []
    for lineno, raw in enumerate(path.read_text(encoding="utf-8-sig").splitlines(), start=1):
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


def _check_domain(options: Sequence[OptionSchema], X: np.ndarray, rows: Sequence[int]) -> None:
    """Raise a `RowError` for the first cell of `X`, in row order and then
    option order, outside its option's domain: not an integer (NaN and
    infinities included) or outside [lo, hi].  `rows` numbers the rows.
    The mask is built `_BLOCK` rows at a time, so no table-sized array is."""
    lo = np.array([o.lo for o in options], dtype=float)
    hi = np.array([o.hi for o in options], dtype=float)
    for start in range(0, X.shape[0], _BLOCK):
        B = X[start:start + _BLOCK]
        bad = (B != np.floor(B)) | (B < lo) | (B > hi)
        if bad.any():
            i, j = divmod(int(np.argmax(bad)), len(options))
            raise RowError(rows[start + i], f"value {float(B[i, j])!r} outside domain of "
                                            f"option {options[j].name!r}")


def _parse_clean(body: str, cols: list[int]) -> np.ndarray | None:
    """The table of the `cols` columns of a CSV body, parsed in C, or None
    when the body is not one `np.loadtxt` provably reads as `csv` and `float`
    do: one row per line, in order.

    loadtxt knows no quoting, skips blank lines and ends lines at ``\n``,
    where `csv` also ends them at a lone ``\r``.  So a body holding a quote
    or a lone ``\r``, or yielding fewer rows than it has lines, is not clean.
    Where loadtxt parses a cell it gives the value `float` gives; a cell it
    cannot parse raises.  loadtxt has no field size limit, so a body with a
    line longer than `csv.field_size_limit()` is not clean either.  loadtxt
    reads the body as UTF-8 bytes: a text stream would hold it at four bytes
    a character.
    """
    if (not body.strip() or '"' in body or body.count("\r") != body.count("\r\n")
            or _has_line_over(body, csv.field_size_limit())):
        return None
    try:
        T = np.loadtxt(io.BytesIO(body.encode()), delimiter=",", usecols=cols, comments=None,
                       ndmin=2, encoding="utf-8")
    except ValueError:
        return None
    lines = body.count("\n") + (not body.endswith("\n"))
    return T if T.shape[0] == lines else None


def _has_line_over(body: str, limit: int) -> bool:
    """Whether a line of `body` is longer than `limit` characters.

    Such a line holds a whole aligned block of `limit // 2` characters with no
    newline, so the lines are measured only when one of these few blocks
    lacks a newline.
    """
    half = max(limit // 2, 1)
    if all(body.find("\n", k, k + half) >= 0 for k in range(0, len(body) - half + 1, half)):
        return False
    return max(map(len, body.split("\n"))) > limit


def load_dataset(manifest_path: str | Path, data_path: str | Path) -> Dataset:
    """Load and validate a dataset from a manifest file and a CSV table.

    A `RowError` names the file row: 1-based, header excluded, blank lines
    counted.  The first bad cell in file order is reported, whether it does
    not parse or lies outside its option's domain; a file whose cells all
    parse gets the errors of `Dataset`, in its order, so a table reports the
    same error on disk as in memory.
    """
    options, objectives = _parse_manifest(Path(manifest_path))
    wanted = [o.name for o in options] + [o.name for o in objectives]

    # utf-8-sig drops the byte-order mark spreadsheet tools may write
    with open(data_path, newline="", encoding="utf-8-sig") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise SchemaError("data file is empty") from None
        except csv.Error as exc:
            raise SchemaError(f"data file header is not readable CSV: {exc}") from None
        body = fh.read()
    header = [h.strip() for h in header]
    for name in wanted:
        if name not in header:
            raise SchemaError(f"data file is missing column {name!r}")
    cols = [header.index(name) for name in wanted]

    T = _parse_clean(body, cols)
    failure: RowError | None = None
    if T is not None:
        del body  # the table holds every number the text did
        rows: range | list[int] = range(1, T.shape[0] + 1)
    else:
        # in-domain stand-ins for the cells after one that does not parse
        padding = [float(o.lo) for o in options] + [0.0] * len(objectives)
        table: list[list[float]] = []
        rows = []
        rowno = 0
        try:
            for rowno, record in enumerate(csv.reader(io.StringIO(body, newline="")), start=1):
                if not record or all(not c.strip() for c in record):
                    continue
                rows.append(rowno)
                cells: list[float] = []
                for name, c in zip(wanted, cols):
                    try:
                        cells.append(float(record[c]))
                    except (ValueError, IndexError):
                        failure = RowError(
                            rowno, f"non-numeric or missing value in column {name!r}")
                        break
                # the cells before a bad one are domain-checked below
                table.append(cells + padding[len(cells):])
                if failure is not None:
                    break
        except csv.Error as exc:
            # e.g. a cell beyond the csv module's field size limit
            failure = RowError(rowno + 1, f"not readable as CSV: {exc}")
        T = np.array(table, dtype=float).reshape(len(table), len(wanted))

    d = len(options)
    if failure is not None:
        # a value outside its domain earlier in the file is reported first
        _check_domain(options, T[:, :d], rows)
        raise failure
    return Dataset(options, objectives, T[:, :d], T[:, d:], row_numbers=rows)


def _format_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else repr(float(v))


def _open_output(path: str | Path) -> TextIO:
    """Open a new file at `path` for UTF-8 text with LF line ends; every
    output file is written through here.

    A file already at `path` is unlinked, not truncated: on ext4, opening a
    file that holds data with O_TRUNC stalled about 50 ms (the
    `auto_da_alloc` writeback), against well under 1 ms to unlink it and
    create a new one.  So a reader holding the old file open keeps the old
    bytes, a symlink or hard link at `path` becomes a plain file, and a
    read-only file in a writable directory is replaced.  A directory at
    `path` raises OSError and is left as it is.  The new file is opened
    exclusively, so one that appears between the unlink and the open
    raises FileExistsError instead of being written through.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "x", newline="", encoding="utf-8")


def _write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> Path:
    """Write a header row and then `rows` to `path` as UTF-8 CSV with LF line ends."""
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return Path(path)


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
    with _open_output(manifest_path) as fh:
        fh.write("\n".join(lines) + "\n")

    _write_csv(data_path, [*dataset.option_names, *dataset.objective_names], (
        [*(_format_value(v) for v in dataset.configs[i]),
         *(repr(float(v)) for v in dataset.values[i])]
        for i in range(dataset.n_rows)))


def split(dataset: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Partition row indices 40/20/40 into (train_pool, holdout, validation).

    Holdout and validation get n // 5 and 2n // 5 rows; the train pool gets
    the rest, so any remainder from flooring lands there.  Deterministic for
    a given seed; each part is returned sorted ascending.
    """
    n = dataset.n_rows
    n_hold, n_val = n // 5, 2 * n // 5
    n_train = n - n_hold - n_val
    if min(n_train, n_hold, n_val) < 1:
        raise SplitError(f"a 40/20/40 split leaves an empty part for {n} rows")
    perm = np.random.default_rng(seed).permutation(n)
    train = np.sort(perm[:n_train])
    hold = np.sort(perm[n_train:n_train + n_hold])
    val = np.sort(perm[n_train + n_hold:])
    return train, hold, val


class TableOracle:
    """Measurement by lookup in a fully enumerated dataset.

    `measure` returns the objective columns `columns` in that order, or every
    objective when `columns` is None; a column the dataset lacks is refused
    here.  Stateful: `count` tallies every measure call.  Confine one oracle
    to one optimizer run; do not share it across concurrent runs.
    """

    def __init__(self, dataset: Dataset, columns: Sequence[int] | None = None):
        width = len(dataset.objectives)
        for j in () if columns is None else columns:
            if not 0 <= j < width:
                raise ValueError(f"objective column {j} outside dataset of {width} objectives")
        self._dataset = dataset
        self._columns = slice(None) if columns is None else list(columns)
        self.count = 0

    def measure(self, config: Sequence[float]) -> tuple[float, ...]:
        self.count += 1
        try:
            i = self._dataset.lookup(config)
        except KeyError:
            raise MeasureError(f"configuration {tuple(config)!r} is not in the dataset") from None
        return tuple(self._dataset.values[i, self._columns].tolist())


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
