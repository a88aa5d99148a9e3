import csv
import io
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune import space
from flashtune.space import (
    CommandOracle,
    Dataset,
    DatasetError,
    MeasureError,
    ObjectiveSchema,
    OptionSchema,
    Pool,
    RowError,
    SchemaError,
    SplitError,
    TableOracle,
    _has_line_over,
    _parse_clean,
    _parse_manifest,
    direction_signs,
    load_dataset,
    save_dataset,
    split,
)

from conftest import make_dataset

MANIFEST_2BOOL = """\
# two switches, one objective
option a bool
option b bool
objective perf minimize
"""

CSV_2BOOL = """\
a,b,perf
0,0,3.0
0,1,2.0
1,0,4.0
1,1,1.0
"""


def write_pair(tmp_path, manifest=MANIFEST_2BOOL, data=CSV_2BOOL):
    m = tmp_path / "manifest.txt"
    d = tmp_path / "data.csv"
    m.write_text(manifest)
    d.write_text(data)
    return m, d


def test_load_exhaustive_two_option_space(tmp_path):
    m, d = write_pair(tmp_path)
    ds = load_dataset(m, d)
    assert ds.n_rows == 4
    assert len(ds.options) == 2
    assert len(ds.objectives) == 1
    assert ds.objectives[0].direction == "minimize"
    assert ds.config(3) == (1.0, 1.0)
    assert tuple(ds.values[3]) == (1.0,)


def test_load_rejects_duplicate_configuration(tmp_path):
    dup = CSV_2BOOL + "1,1,9.0\n"
    m, d = write_pair(tmp_path, data=dup)
    with pytest.raises(DatasetError, match=r"row 5: duplicate configuration \(first seen at row 4\)"):
        load_dataset(m, d)


def test_load_missing_column_names_it(tmp_path):
    m, d = write_pair(tmp_path, data="a,perf\n0,1.0\n1,2.0\n")
    with pytest.raises(SchemaError, match="'b'"):
        load_dataset(m, d)


def test_load_non_numeric_cell_reports_row(tmp_path):
    m, d = write_pair(tmp_path, data="a,b,perf\n0,0,1.0\n1,huh,2.0\n")
    with pytest.raises(RowError, match="row 2"):
        load_dataset(m, d)


def test_load_out_of_bounds_reports_row(tmp_path):
    manifest = "option a int 0 3\nobjective perf minimize\n"
    m, d = write_pair(tmp_path, manifest=manifest, data="a,perf\n1,1.0\n7,2.0\n")
    with pytest.raises(RowError, match="row 2"):
        load_dataset(m, d)


def test_load_ignores_extra_columns(tmp_path):
    m, d = write_pair(tmp_path, data="a,b,perf,notes\n0,0,3.0,x\n0,1,2.0,y\n")
    assert load_dataset(m, d).n_rows == 2


def test_manifest_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    d = tmp_path / "d.csv"
    d.write_text(CSV_2BOOL)
    bad.write_text("option a bool\nwhatnow a b\n")
    with pytest.raises(SchemaError, match="line 2"):
        load_dataset(bad, d)
    bad.write_text("option a int 5 1\nobjective perf minimize\n")
    with pytest.raises(SchemaError, match="min 5 > max 1"):
        load_dataset(bad, d)
    bad.write_text("option a bool\nobjective perf sideways\n")
    with pytest.raises(SchemaError, match="direction"):
        load_dataset(bad, d)
    bad.write_text("option a bool\noption a bool\nobjective perf minimize\n")
    with pytest.raises(SchemaError, match="duplicate column"):
        load_dataset(bad, d)


def test_paper_scale_table_loads(tmp_path):
    # 1343 rows over 3 integer options with two objectives; shape mirrors the
    # smallest stream-processing table used in the original study
    rng = np.random.default_rng(0)
    rows = [(i % 12, (i // 12) % 12, i // 144) for i in range(1343)]
    lines = ["spout,splitters,counters,throughput,latency"]
    for a, b, c in rows:
        t, l = rng.uniform(10, 100), rng.uniform(1, 5)
        lines.append(f"{a},{b},{c},{t!r},{l!r}")
    manifest = (
        "option spout int 0 11\n"
        "option splitters int 0 11\n"
        "option counters int 0 11\n"
        "objective throughput maximize\n"
        "objective latency minimize\n"
    )
    m, d = write_pair(tmp_path, manifest=manifest, data="\n".join(lines) + "\n")
    ds = load_dataset(m, d)
    assert ds.n_rows == 1343
    assert len(ds.options) == 3
    assert len(ds.objectives) == 2


def test_save_load_round_trip(tmp_path, two_bool_dataset):
    m = tmp_path / "m.txt"
    d = tmp_path / "d.csv"
    save_dataset(two_bool_dataset, m, d)
    again = load_dataset(m, d)
    assert again == two_bool_dataset


def test_dataset_validation():
    with pytest.raises(DatasetError):
        make_dataset([(0,)], [1.0])  # fewer than 2 rows
    with pytest.raises(DatasetError):
        make_dataset([(0,), (1,)], [1.0, np.inf])
    with pytest.raises(SchemaError):
        Dataset([OptionSchema("x", "boolean")], [], [(0,), (1,)], [(1.0,), (2.0,)])
    with pytest.raises(SchemaError):
        Dataset(
            [OptionSchema("x", "boolean")],
            [ObjectiveSchema("x", "minimize")],
            [(0,), (1,)],
            [(1.0,), (2.0,)],
        )


def test_dataset_reports_duplicate_with_first_row():
    with pytest.raises(RowError, match=r"^row 4: duplicate configuration \(first seen at row 2\)$"):
        make_dataset([(0,), (1,), (2,), (1,)], [1.0, 2.0, 3.0, 4.0])
    # rows of no options are all equal
    with pytest.raises(RowError, match=r"^row 2: duplicate configuration \(first seen at row 1\)$"):
        Dataset([], [ObjectiveSchema("y", "minimize")], np.zeros((3, 0)), np.ones((3, 1)))


def test_dataset_takes_configs_in_any_memory_layout():
    """The index reads each row's bytes, so it must not depend on the
    caller's array being C-ordered or contiguous."""
    X = np.array([[0.0, 1.0, 2.0], [-0.0, 2.0, 1.0], [2.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    options = [OptionSchema(f"o{j}", "integer", 0, 2) for j in range(3)]
    objectives = [ObjectiveSchema("y", "minimize")]
    wide = np.zeros((4, 6))
    wide[:, ::2] = X
    for layout in (np.asfortranarray(X), X.T.copy().T, wide[:, ::2]):
        ds = Dataset(options, objectives, layout, np.ones((4, 1)))
        assert [ds.lookup(row) for row in X.tolist()] == [0, 1, 2, 3]
        assert ds.lookup((0, 2, 1)) == 1
        with pytest.raises(KeyError):
            ds.lookup((2.0, 2.0, 2.0))
    dup = np.asfortranarray(np.vstack([X, [[0.0, 2.0, 1.0]]]))
    with pytest.raises(RowError, match=r"^row 5: duplicate configuration \(first seen at row 2\)$"):
        Dataset(options, objectives, dup, np.ones((5, 1)))


def test_keys_are_a_view_of_configs():
    ds = make_dataset([(0, 1), (1, 0), (1, 1)], [1.0, 2.0, 3.0])
    assert np.shares_memory(ds._keys, ds.configs)
    assert not ds._keys.flags.writeable


def test_a_negative_zero_is_stored_as_zero_and_found_under_either_spelling():
    X = np.array([[-0.0, 1.0], [1.0, -0.0], [1.0, 1.0]])
    ds = Dataset([OptionSchema("a", "boolean"), OptionSchema("b", "boolean")],
                 [ObjectiveSchema("y", "minimize")], X, np.ones((3, 1)))
    assert ds.configs.tolist() == [[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]]
    assert not np.signbit(ds.configs).any()
    for zero in (0.0, -0.0):
        assert ds.lookup((zero, 1.0)) == 0
        assert ds.lookup((1.0, zero)) == 1
    assert np.signbit(X).tolist() == [[True, False], [False, True], [False, False]]


def test_dataset_reports_given_row_numbers():
    options = [OptionSchema("a", "integer", 0, 3)]
    objectives = [ObjectiveSchema("y", "minimize")]
    with pytest.raises(RowError, match=r"^row 40: duplicate configuration \(first seen at row 20\)$"):
        Dataset(options, objectives, [(0,), (1,), (2,), (1,)], [(1.0,)] * 4, row_numbers=[10, 20, 30, 40])
    with pytest.raises(RowError, match=r"^row 30: value .*7.0.* outside domain of option .a.$"):
        Dataset(options, objectives, [(0,), (1,), (7,)], [(1.0,)] * 3, row_numbers=[10, 20, 30])
    with pytest.raises(ValueError, match="one number per row"):
        Dataset(options, objectives, [(0,), (1,)], [(1.0,)] * 2, row_numbers=[1])


def loop_domain_error(options, X):
    """The per-element domain scan: first bad value by row, then by option."""
    for i, row in enumerate(X):
        for opt, v in zip(options, row):
            if not (float(v).is_integer() and opt.lo <= v <= opt.hi):
                return f"row {i + 1}: value {float(v)!r} outside domain of option {opt.name!r}"
    return None


@settings(max_examples=200)
@given(st.data())
def test_dataset_domain_error_matches_row_first_loop(data):
    n = data.draw(st.integers(2, 6))
    d = data.draw(st.integers(1, 3))
    cells = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0, np.nan, np.inf, -np.inf])
    X = np.array([[data.draw(cells) for _ in range(d)] for _ in range(n)])
    options = [OptionSchema(f"o{j}", "integer", 0, data.draw(st.integers(0, 3))) for j in range(d)]
    expected = loop_domain_error(options, X)
    # blocks of the domain mask small enough that a table spans several
    block = data.draw(st.sampled_from([1, 2, 3, space._BLOCK]))
    try:
        with mock.patch.object(space, "_BLOCK", block):
            Dataset(options, [ObjectiveSchema("y", "minimize")], X, np.ones((n, 1)))
    except RowError as exc:
        assert str(exc) == expected or (expected is None and "duplicate" in str(exc))
    else:
        assert expected is None


@settings(max_examples=200)
@given(st.data())
def test_a_table_reports_the_same_error_in_memory_and_from_a_file(tmp_path_factory, data):
    """One rule picks the reported error wherever the table comes from: the
    first option value outside its domain in row order, then the rest of
    `Dataset`'s checks.  Two bad cells in different rows and options, like
    rows `0,5` and `7,0` over options in 0..3, must name the same cell."""
    n = data.draw(st.integers(2, 6))
    bounds = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(0, 3)),
                                min_size=1, max_size=3))
    options = [OptionSchema(f"o{j}", "integer", lo, lo + width)
               for j, (lo, width) in enumerate(bounds)]
    objectives = [ObjectiveSchema("y", "minimize")]

    def cell(opt):
        valid = st.integers(opt.lo, opt.hi).map(float)
        outside = st.sampled_from([opt.lo - 1.0, opt.hi + 1.0, opt.lo + 0.5, 9.0])
        return st.one_of(valid, valid, outside, st.sampled_from([np.nan, np.inf, -np.inf]))

    X = np.array([[data.draw(cell(opt)) for opt in options] for _ in range(n)])
    Y = np.array([[data.draw(st.sampled_from([1.0, -2.5, 3.0, np.nan, np.inf]))]
                  for _ in range(n)])
    work = tmp_path_factory.mktemp("alike")
    m, d = work / "m.txt", work / "d.csv"
    m.write_text("".join(f"option {o.name} int {o.lo} {o.hi}\n" for o in options)
                 + "objective y minimize\n")
    d.write_text(",".join(o.name for o in options) + ",y\n"
                 + "".join(",".join(map(repr, [*x, *y])) + "\n"
                           for x, y in zip(X.tolist(), Y.tolist())))

    def outcome(build):
        try:
            return build()
        except DatasetError as exc:
            return type(exc), str(exc)

    assert outcome(lambda: load_dataset(m, d)) == outcome(
        lambda: Dataset(options, objectives, X, Y))


@pytest.mark.parametrize("bad", ["7", "-1", "2.5", "7.0"])
def test_dataset_and_loader_report_a_domain_error_alike(tmp_path, bad):
    manifest = "option a int 0 3\nobjective perf minimize\n"
    m, d = write_pair(tmp_path, manifest=manifest, data=f"a,perf\n0,1.0\n1,2.0\n{bad},3.0\n")
    with pytest.raises(RowError) as from_file:
        load_dataset(m, d)
    options = [OptionSchema("a", "integer", 0, 3)]
    with pytest.raises(RowError) as in_memory:
        Dataset(options, [ObjectiveSchema("perf", "minimize")],
                np.array([[0.0], [1.0], [float(bad)]]), np.ones((3, 1)))
    assert str(in_memory.value) == str(from_file.value)
    assert str(from_file.value) == f"row 3: value {float(bad)!r} outside domain of option 'a'"


# --- the candidate pool ------------------------------------------------------

def dict_candidates(ds, indices=None):
    """The pool as a plain dict of id -> option tuple, built row by row."""
    if indices is None:
        indices = range(ds.n_rows)
    return {int(i): tuple(ds.configs[int(i)]) for i in indices}


@settings(max_examples=100)
@given(st.data())
def test_pool_matches_dict_candidates(data):
    """A pool holds the items of the dict built row by row: its ids ascending
    and distinct, `X` the table rows of those ids, both arrays read-only."""
    n = data.draw(st.integers(2, 30))
    ds = make_dataset([(i, i % 3) for i in range(n)], np.arange(n, dtype=float))
    if data.draw(st.booleans()):
        indices = None
    else:
        indices = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))
    pool, expected = ds.candidates(indices), dict_candidates(ds, indices)
    assert isinstance(pool, Pool)
    assert len(pool) == len(expected)
    assert pool.ids.tolist() == sorted(expected)
    assert np.all(np.diff(pool.ids) > 0)
    assert np.array_equal(pool.X, ds.configs[pool.ids])
    assert [tuple(row) for row in pool.X.tolist()] == [expected[i] for i in sorted(expected)]
    assert not pool.X.flags.writeable and not pool.ids.flags.writeable
    with pytest.raises(ValueError):
        pool.X[...] = 0.0


def test_full_pool_shares_the_table():
    ds = make_dataset([(0,), (1,), (2,)], [1.0, 2.0, 3.0])
    pool = ds.candidates()
    assert np.shares_memory(pool.X, ds.configs)
    assert pool.ids.tolist() == [0, 1, 2]


@pytest.mark.parametrize("indices, bad", [([-1, 3], -1), ([0, 4], 4), ([5, 4, 2], 5)])
def test_candidates_refuse_ids_outside_the_table(indices, bad):
    """A negative id would alias a row through numpy's indexing; one past the
    end has no row."""
    ds = make_dataset([(i,) for i in range(4)], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=rf"^row id {bad} outside \[0, 4\)$"):
        ds.candidates(indices)
    assert ds.candidates([]).ids.size == 0


@pytest.mark.parametrize("bad", [1.7, -0.5])
def test_candidates_refuse_ids_that_are_not_integers(bad):
    """An id of 1.7 used to be truncated to row 1, a row the caller never named."""
    ds = make_dataset([(i,) for i in range(4)], [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match=rf"^row id {bad} is not an integer$"):
        ds.candidates([0, bad, 2.5])
    assert ds.candidates([2.0, np.int64(0), 2]).ids.tolist() == [0, 2]


def test_candidates_read_an_array_of_ids_as_the_list_of_them():
    ds = make_dataset([(i,) for i in range(4)], [1.0, 2.0, 3.0, 4.0])
    for ids in ([3, 1, 1], [2.0, 0.0], []):
        pool, expected = ds.candidates(np.array(ids)), ds.candidates(ids)
        assert pool.ids.tolist() == expected.ids.tolist()
        assert np.array_equal(pool.X, expected.X)
    with pytest.raises(ValueError, match=r"^row id 1.5 is not an integer$"):
        ds.candidates(np.array([0.0, 1.5]))
    with pytest.raises(ValueError, match=r"^row id 4 outside \[0, 4\)$"):
        ds.candidates(np.array([4, 0]))
    for shape in [(2, 2), ()]:
        with pytest.raises(ValueError, match="^row ids must be one-dimensional$"):
            ds.candidates(np.zeros(shape, dtype=int))


def test_candidates_refuse_a_boolean_mask():
    """A mask is not a list of ids: [True, False, True] used to read as the
    ids [0, 1]."""
    ds = make_dataset([(i,) for i in range(4)], [1.0, 2.0, 3.0, 4.0])
    for mask in (np.array([True, False, True]), [True, False, True], np.ones(4, bool)):
        with pytest.raises(ValueError, match="^row ids must not be a boolean mask"):
            ds.candidates(mask)


def test_pool_leaves_callers_arrays_writable():
    ids, X = np.array([0, 1]), np.zeros((2, 1))
    Pool(ids, X)
    assert ids.flags.writeable and X.flags.writeable
    with pytest.raises(ValueError, match="one row of X per id"):
        Pool(ids, np.zeros((3, 1)))


# --- loader error rows ---------------------------------------------------------

def reference_load(manifest_path, data_path):
    """The loader before `Dataset` took over its domain test: one domain
    test per option cell.  Its duplicate-row error, which `Dataset` numbered
    by data row, is mapped to file rows."""
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
        file_rows: list[int] = []
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
                if not (v.is_integer() and opt.lo <= v <= opt.hi):
                    raise RowError(rowno, f"value {v!r} outside domain of option {opt.name!r}")
                cfg.append(v)
            configs.append(cfg)
            values.append([cell(o.name) for o in objectives])
            file_rows.append(rowno)

    if len(configs) < 2:
        raise DatasetError("a dataset needs at least 2 rows")
    try:
        return Dataset(options, objectives, configs, values)
    except RowError as exc:
        m = re.fullmatch(r"row (\d+): duplicate configuration \(first seen at row (\d+)\)", str(exc))
        if m is None:
            raise
        row, first = (file_rows[int(g) - 1] for g in m.groups())
        raise RowError(row, f"duplicate configuration (first seen at row {first})") from None


LOADER_MANIFEST = "option a bool\noption b int 0 2\nobjective y minimize\nobjective z maximize\n"
VALID_CELLS = {"a": ["0", "1", "1.0"], "b": ["0", "1", "2", "2.0"],
               "y": ["1.5", "2", "-3"], "z": ["1.5", "2", "-3"]}
UNPARSABLE_CELLS = ["x", ""]
OUT_OF_DOMAIN_CELLS = ["3", "-1", "0.5", "nan", "inf", "-inf"]
NON_FINITE_CELLS = ["nan", "inf", "-inf"]


@settings(max_examples=300)
@given(st.data())
def test_load_errors_match_reference_loader(tmp_path_factory, data):
    header = data.draw(st.permutations(["a", "b", "y", "z"]))
    lines = [",".join(header)]
    for _ in range(data.draw(st.integers(0, 7))):
        kind = data.draw(st.sampled_from(["clean"] * 3 + ["dirty"] * 2 + ["short", "blank", "commas"]))
        if kind == "blank":
            lines.append("")
        elif kind == "commas":
            lines.append(",,,")
        else:
            row = []
            for c in header:
                cell = "valid" if kind == "clean" else \
                    data.draw(st.sampled_from(["valid"] * 3 + ["unparsable", "out", "out"]))
                if cell == "unparsable":
                    cells = UNPARSABLE_CELLS
                elif cell == "out":
                    cells = OUT_OF_DOMAIN_CELLS if c in "ab" else NON_FINITE_CELLS
                else:
                    cells = VALID_CELLS[c]
                row.append(data.draw(st.sampled_from(cells)))
            if kind == "short":
                row = row[:data.draw(st.integers(1, 3))]
            lines.append(",".join(row))
    work = tmp_path_factory.mktemp("load")
    m, d = work / "m.txt", work / "d.csv"
    m.write_text(LOADER_MANIFEST)
    d.write_text("\n".join(lines) + "\n")

    def outcome(load):
        try:
            return load(m, d)
        except DatasetError as exc:
            return type(exc), str(exc)

    assert outcome(load_dataset) == outcome(reference_load)


@pytest.mark.parametrize("rows, error", [
    (["0,3,1,1", "3,0,1,1"], "row 1: value 3.0 outside domain of option 'b'"),
    (["0,0,1,1", "0,3,x,1"], "row 2: value 3.0 outside domain of option 'b'"),
    (["0,x,1,1", "0,3,1,1"], "row 1: non-numeric or missing value in column 'b'"),
    (["0,0,nan,1", "1,0,1,1", "1,-1,1,1"], "row 3: value -1.0 outside domain of option 'b'"),
    (["0,0,1,1", "", "0,0,inf,1"], "objective values must be finite"),
    (["1,nan,1,1"], "row 1: value nan outside domain of option 'b'"),
    (["1,1,1,1"], "a dataset needs at least 2 rows"),
])
def test_load_reports_the_first_bad_cell_in_file_order(tmp_path, rows, error):
    m, d = write_pair(tmp_path, manifest=LOADER_MANIFEST, data="a,b,y,z\n" + "\n".join(rows) + "\n")
    with pytest.raises(DatasetError) as new:
        load_dataset(m, d)
    with pytest.raises(DatasetError) as old:
        reference_load(m, d)
    assert str(new.value) == str(old.value) == error


def reference_parse_clean(body, cols):
    """`space._parse_clean` before it parsed UTF-8 bytes: loadtxt over a
    text stream of the body."""
    if (not body.strip() or '"' in body or body.count("\r") != body.count("\r\n")
            or _has_line_over(body, csv.field_size_limit())):
        return None
    try:
        T = np.loadtxt(io.StringIO(body), delimiter=",", usecols=cols, comments=None, ndmin=2)
    except ValueError:
        return None
    lines = body.count("\n") + (not body.endswith("\n"))
    return T if T.shape[0] == lines else None


def parse_outcome(parse, body, cols):
    """None, or the shape and bytes of the table a parse gives."""
    T = parse(body, cols)
    return None if T is None else (T.shape, T.tobytes())


CLEAN_MANIFEST = ("option a int 0 3\noption b int 0 3\noption c bool\n"
                  "objective y minimize\nobjective z maximize\n")
CLEAN_WANTED = ["a", "b", "c", "y", "z"]
PADDING = ["", " ", "  ", "\t", "\u00a0"]


def cell_text(data, v: float) -> str:
    """A way to write `v` that `float` reads back as `v`: repr, %.17e or
    %.25g, an integer as such, a `+` sign, `-0`, spaces around."""
    formats = [repr, "%.17e".__mod__, "%.25g".__mod__]
    if v.is_integer() and abs(v) < 1e15:
        formats.append(lambda x: str(int(x)))
    text = data.draw(st.sampled_from(formats))(abs(v))
    if v < 0 or (v == 0 and data.draw(st.booleans())):
        text = "-" + text
    elif data.draw(st.booleans()):
        text = "+" + text
    return data.draw(st.sampled_from(PADDING)) + text + data.draw(st.sampled_from(PADDING))


def load_outcome(load, m, d):
    """The bytes of the arrays a loader builds, or its error and message."""
    try:
        ds = load(m, d)
    except DatasetError as exc:
        return type(exc), str(exc)
    return ds.options, ds.objectives, ds.configs.tobytes(), ds.values.tobytes()


@settings(max_examples=300)
@given(st.data())
def test_clean_files_load_as_the_reference_loader_does(tmp_path_factory, data):
    configs = data.draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 1)),
                                 min_size=2, max_size=12, unique=True))
    extras = data.draw(st.sampled_from([[], ["n"], ["t"], ["n", "t"]]))
    header = data.draw(st.permutations(CLEAN_WANTED + extras))
    last_wanted = max(header.index(name) for name in CLEAN_WANTED)
    objective = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                          st.integers(-10**6, 10**6).map(float))
    text = st.sampled_from(["abc", "x y", "", "1e", "nan", "#", "'q'", "\u00e9t\u00e9"])
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for a, b, c in configs:
        values = {"a": float(a), "b": float(b), "c": float(c),
                  "y": data.draw(objective), "z": data.draw(objective),
                  "n": data.draw(objective)}
        row = [data.draw(text) if name == "t" else cell_text(data, values[name]) for name in header]
        # ragged: drop unwanted trailing cells, or add cells past the header
        row = row[:data.draw(st.integers(last_wanted + 1, len(row)))]
        row += data.draw(st.lists(st.sampled_from(["9", "extra", ""]), max_size=2))
        lines.append(",".join(row))
    body = eol.join(lines) + (eol if data.draw(st.booleans()) else "")
    work = tmp_path_factory.mktemp("clean")
    m, d = work / "m.txt", work / "d.csv"
    m.write_text(CLEAN_MANIFEST)
    d.write_bytes((",".join(header) + eol + body).encode())

    cols = [header.index(name) for name in CLEAN_WANTED]
    assert _parse_clean(body, cols) is not None
    assert parse_outcome(_parse_clean, body, cols) == parse_outcome(reference_parse_clean, body, cols)
    assert load_outcome(load_dataset, m, d) == load_outcome(reference_load, m, d)
    ds = load_dataset(m, d)
    assert all(ds.lookup(ds.config(i)) == i for i in range(ds.n_rows))


@pytest.mark.parametrize("body", [
    "0,0,0,1,2,t\n\n0,0,0,3,4,t\n",          # a blank line, then a duplicate
    "0,0,0,1,2,t\n \t \n1,0,0,3,4,t\n",       # a whitespace-only line
    "0,0,0,1,2,t\n,,,,,\n1,0,0,3,4,t\n",      # a line of empty cells
    '0,0,0,1,"2",t\n1,0,0,3,4,t\n',           # a quoted number
    '0,0,0,1,2,"t,u"\n1,0,0,3,4,t\n',         # a quoted text cell holding the delimiter
    "0,0,0,1,2,t\r1,0,0,3,4,t\n",             # a lone carriage return ends a line
    "0,0,0,1,2,t\n\r0,0,0,3,4,t\n",           # ... and makes a blank line
    "0,0,0,1,2,t\n1,0,0,3,4,t\n\n",           # a blank last line
    "0,0,0,1,2,t\n\u0661,0,0,3,4,t\n",   # a digit only `float` reads
    "0,0,0,1,2,t\n1,0,0,x,4,t\n",             # a cell nothing reads
    "0,0,0,1,2,t\n\u00a0,0,0,3,4,t\n",        # a wanted cell of only a no-break space
    "0,0,0,1,2,\u00e9t\u00e9\n\u00a0,0,0,3,4,\u00e9t\u00e9\n",  # ... beside a non-ASCII text cell
    "",                                       # no rows at all
    "\n \n",                                  # only blank lines
])
@pytest.mark.filterwarnings("error")
def test_unclean_files_fall_back_to_the_loop(tmp_path, body):
    m, d = write_pair(tmp_path, manifest=CLEAN_MANIFEST)
    d.write_bytes(("a,b,c,y,z,t\n" + body).encode())
    assert _parse_clean(body, [0, 1, 2, 3, 4]) is None
    assert reference_parse_clean(body, [0, 1, 2, 3, 4]) is None
    assert load_outcome(load_dataset, m, d) == load_outcome(reference_load, m, d)


def test_load_peak_memory_is_a_small_multiple_of_the_table(tmp_path):
    """Loading holds the numbers about twice: the parsed table and the
    `Dataset`'s copy.  A text stream of the body (four bytes a character),
    a second copy of the keys or table-sized domain temporaries each push
    the traced peak past the bound.  On numpy 2.4.6 the peak was 4.26x the
    table with the text stream and the second key array and 2.7x without
    them; how much
    `np.loadtxt` and `argsort` allocate can differ in other numpy versions.
    Tracing that was already on is left on."""
    X, options = grid_table()
    n = len(X)
    Y = np.random.default_rng(1).normal(size=(n, 1))
    m, d = tmp_path / "m.txt", tmp_path / "d.csv"
    save_dataset(Dataset(options, [ObjectiveSchema("y", "minimize")], X, Y), m, d)
    del X, Y
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ds = load_dataset(m, d)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert ds.n_rows == 2 ** 15
    assert peak < 3.25 * (ds.configs.nbytes + ds.values.nbytes)


def setdefault_index(X, rows):
    """`Dataset.__init__`'s index before the one-pass build: one `setdefault`
    per row, raising at the first duplicate."""
    index = {}
    for i, row in enumerate(X):
        first = index.setdefault(tuple(row), i)
        if first != i:
            return index, f"row {rows[i]}: duplicate configuration (first seen at row {rows[first]})"
    return index, None


def tuple_lookup(index, config):
    """`Dataset.lookup` before the byte-keyed index, over `setdefault_index`."""
    return index[tuple(float(v) for v in config)]


def lookup_outcome(lookup, config):
    try:
        return "found", lookup(config)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared
        return type(exc).__name__, repr(exc.args)


def spellings(value: float):
    """Ways a caller may write one option value."""
    out = [value, -value, np.float64(value), np.float32(value), int(value),
           np.int64(value), repr(value)]
    if value in (0.0, 1.0):
        out += [bool(value), np.bool_(value)]
    return out


@settings(max_examples=300)
@given(st.data())
def test_index_matches_setdefault_loop(data):
    n = data.draw(st.integers(2, 12))
    d = data.draw(st.integers(1, 3))
    X = np.array([[data.draw(st.sampled_from([0.0, -0.0, 1.0, 2.0])) for _ in range(d)]
                  for _ in range(n)])
    rows = data.draw(st.lists(st.integers(1, 1000), min_size=n, max_size=n, unique=True))
    options = [OptionSchema(f"o{j}", "integer", 0, 2) for j in range(d)]
    index, expected = setdefault_index(X, rows)
    # blocks of the duplicate check small enough that runs of equal rows straddle them
    block = data.draw(st.sampled_from([1, 2, 3, space._BLOCK]))
    try:
        with mock.patch.object(space, "_BLOCK", block):
            ds = Dataset(options, [ObjectiveSchema("y", "minimize")], X, np.ones((n, 1)),
                         row_numbers=rows)
    except RowError as exc:
        assert str(exc) == expected
        return
    assert expected is None
    queries = [(np.asarray, X[i]) for i in range(n)] + [(tuple, ds.config(i)) for i in range(n)]
    for _ in range(data.draw(st.integers(0, 6))):
        # a row or any point of the domain, each value respelled, in some container
        base = data.draw(st.one_of(st.sampled_from(X.tolist()),
                                   st.lists(st.sampled_from([0.0, 1.0, 2.0, 0.5]),
                                            min_size=d, max_size=d)))
        config = [data.draw(st.sampled_from(spellings(v))) for v in base]
        if data.draw(st.booleans()):  # a wrong length, or not
            config = config[:data.draw(st.integers(0, d))]
            config += data.draw(st.lists(st.sampled_from([0.0, 1.0]), max_size=2))
        queries.append((data.draw(st.sampled_from([tuple, list, iter, np.array])), config))
    for wrap, config in queries:
        assert lookup_outcome(ds.lookup, wrap(config)) == lookup_outcome(
            lambda c: tuple_lookup(index, c), wrap(config))


def grid_table(levels=8, d=5, seed=0):
    """Every point of a `levels`**d integer grid, rows shuffled, zeros
    spelled -0.0 in a few cells: 8**5 = 2**15 rows by default."""
    rng = np.random.default_rng(seed)
    X = np.stack(np.meshgrid(*[np.arange(levels, dtype=float)] * d), axis=-1).reshape(-1, d)
    X = X[rng.permutation(len(X))]
    zeros = np.argwhere(X == 0.0)
    X[tuple(zeros[rng.choice(len(zeros), 100, replace=False)].T)] = -0.0
    return X, [OptionSchema(f"o{j}", "integer", 0, levels - 1) for j in range(d)]


def test_sorted_index_finds_every_row_of_a_large_table():
    X, options = grid_table()
    n, d = X.shape
    assert n >= 2 ** 15
    index, expected = setdefault_index(X, range(1, n + 1))
    assert expected is None
    ds = Dataset(options, [ObjectiveSchema("y", "minimize")], X, np.ones((n, 1)))
    assert [ds.lookup(row) for row in X.tolist()] == list(range(n))
    flipped = np.where(X == 0.0, -X, X)  # each zero spelled with the other sign
    assert all(ds.lookup(row) == index[tuple(row)] for row in flipped.tolist())
    absent = [(8,) * d, (0.5,) + (0,) * (d - 1), (-1,) * d, (7,) * (d - 1) + (7.5,),
              X[0][:-1], (*X[0], 0.0), (), (1e300,) * d]
    for config in absent:
        outcome = lookup_outcome(ds.lookup, config)
        assert outcome[0] == "KeyError"
        assert outcome == lookup_outcome(lambda c: tuple_lookup(index, c), config)


@pytest.mark.parametrize("planted", [
    [(1, 0)],                   # rows 1 and 2
    [(16384, 77)],              # the middle, after its first sighting
    [(16384, 30000)],           # the middle, before the later row it equals
    [(32767, 5)],               # the last row
    [(32767, 5), (20000, 5), (9000, 31000)],   # the first duplicate in row order wins
])
def test_sorted_index_reports_a_planted_duplicate_as_the_setdefault_loop(planted):
    X, options = grid_table()
    n = len(X)
    for at, copy in planted:
        X[at] = X[copy]
    rows = range(11, 11 + n)
    _, expected = setdefault_index(X, rows)
    assert expected is not None
    with pytest.raises(RowError) as exc:
        Dataset(options, [ObjectiveSchema("y", "minimize")], X, np.ones((n, 1)), row_numbers=rows)
    assert str(exc.value) == expected


def test_load_counts_file_rows_for_every_row_error(tmp_path):
    manifest = "option a int 0 3\nobjective perf minimize\n"
    m, d = write_pair(tmp_path, manifest=manifest, data="a,perf\n\n1,1.0\n2,2.0\n1,3.0\n")
    with pytest.raises(RowError, match=r"^row 4: duplicate configuration \(first seen at row 2\)$"):
        load_dataset(m, d)
    m, d = write_pair(tmp_path, manifest=manifest, data="a,perf\n\n1,1.0\n2,2.0\n9,3.0\n")
    with pytest.raises(RowError, match=r"^row 4: value 9.0 outside domain of option 'a'$"):
        load_dataset(m, d)


def test_byte_order_mark_is_not_part_of_the_first_name(tmp_path):
    # spreadsheet tools may start a UTF-8 file with a byte-order mark
    plain = load_dataset(*write_pair(tmp_path))
    m, d = tmp_path / "bom-manifest.txt", tmp_path / "bom-data.csv"
    m.write_bytes(b"\xef\xbb\xbf" + MANIFEST_2BOOL.encode())
    d.write_bytes(b"\xef\xbb\xbf" + CSV_2BOOL.encode())
    marked = load_dataset(m, d)
    assert marked == plain
    assert marked.option_names == ("a", "b")


def test_field_over_the_csv_limit_is_a_row_error(tmp_path):
    # the quote sends the body to the csv loop, whose field limit is 131,072
    huge = '"' + "x" * 200_000 + '"'
    m, d = write_pair(tmp_path, data=f"a,b,perf,note\n0,0,3.0,ok\n\n0,1,2.0,{huge}\n")
    with pytest.raises(RowError, match=r"^row 3: not readable as CSV: field larger"):
        load_dataset(m, d)
    m, d = write_pair(tmp_path, data=f"a,b,perf,{huge}\n0,0,3.0,\n0,1,2.0,\n")
    with pytest.raises(SchemaError, match="header is not readable CSV"):
        load_dataset(m, d)


@pytest.mark.parametrize("later", ["0,1,2.0,ok", "0,1,slow,ok"])
def test_unquoted_field_over_the_csv_limit_fails_on_both_parse_paths(tmp_path, later):
    # without a quote the body is clean but for the long cell, and a bad cell
    # in a later row must not change which error the long one gives
    limit = csv.field_size_limit()
    m, d = write_pair(tmp_path, data=f"a,b,perf,note\n0,0,3.0,{'x' * 200_000}\n{later}\n")
    with pytest.raises(RowError, match=r"^row 1: not readable as CSV: field larger"):
        load_dataset(m, d)
    assert csv.field_size_limit() == limit
    body = f"0,0,3.0,{'x' * 200_000}\n0,1,2.0,ok\n"
    assert _parse_clean(body, [0, 1, 2]) is None
    # a long body of short lines stays on the fast path
    assert _parse_clean("0,0,3.0,ok\n" * 30_000, [0, 1, 2]).shape == (30_000, 3)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=30), st.integers(1, 25))
def test_has_line_over_matches_line_lengths(lengths, limit):
    body = "\n".join("x" * k for k in lengths)
    assert _has_line_over(body, limit) == (max(lengths) > limit)


def test_direction_signs():
    assert direction_signs(("minimize", "maximize", "minimize")).tolist() == [1.0, -1.0, 1.0]
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        direction_signs(("minimize", "sideways"))


def test_split_sizes_and_partition(two_bool_dataset):
    configs = [(i,) for i in range(10)]
    ds = make_dataset(configs, list(range(10)))
    train, hold, val = split(ds, 7)
    assert (len(train), len(hold), len(val)) == (4, 2, 4)
    union = set(train) | set(hold) | set(val)
    assert union == set(range(10))


def test_split_deterministic():
    ds = make_dataset([(i,) for i in range(10)], list(range(10)))
    a = split(ds, 7)
    b = split(ds, 7)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_1343_rows_remainder_to_train():
    # floor gives 268 and 537; the leftover row lands in the train pool
    ds = make_dataset([(i,) for i in range(1343)], [float(i) for i in range(1343)])
    train, hold, val = split(ds, 1)
    assert (len(train), len(hold), len(val)) == (538, 268, 537)
    parts = [set(map(int, p)) for p in (train, hold, val)]
    assert parts[0] | parts[1] | parts[2] == set(range(1343))
    assert parts[0] & parts[1] == set()
    assert parts[0] & parts[2] == set()
    assert parts[1] & parts[2] == set()


def test_split_empty_part_rejected():
    ds = make_dataset([(0,), (1,)], [1.0, 2.0])
    with pytest.raises(SplitError, match="^a 40/20/40 split leaves an empty part for 2 rows$"):
        split(ds, 0)


@settings(max_examples=40)
@given(n=st.integers(min_value=5, max_value=400), seed=st.integers(0, 2**32 - 1))
def test_split_is_partition_property(n, seed):
    ds = make_dataset([(i,) for i in range(n)], [float(i) for i in range(n)])
    train, hold, val = split(ds, seed)
    ids = sorted(int(i) for part in (train, hold, val) for i in part)
    assert ids == list(range(n))


def test_table_oracle_counts(two_bool_dataset):
    oracle = TableOracle(two_bool_dataset)
    assert oracle.count == 0
    assert oracle.measure((0.0, 0.0)) == (3.0,)
    assert oracle.count == 1
    oracle.measure((1.0, 1.0))
    assert oracle.count == 2


def test_table_oracle_returns_its_columns_in_the_order_given():
    ds = make_dataset([(0,), (1,)], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    assert TableOracle(ds).measure((1.0,)) == (4.0, 5.0, 6.0)
    assert TableOracle(ds, [2, 0]).measure((1.0,)) == (6.0, 4.0)
    assert TableOracle(ds, (1,)).measure((0.0,)) == (2.0,)
    for column in (3, -1):
        with pytest.raises(ValueError, match=f"objective column {column} outside dataset"):
            TableOracle(ds, [0, column])


def test_table_oracle_unknown_config(two_bool_dataset):
    oracle = TableOracle(two_bool_dataset)
    with pytest.raises(MeasureError):
        oracle.measure((5.0, 5.0))


def test_command_oracle_fixed_echo():
    opts = [OptionSchema("a", "boolean")]
    oracle = CommandOracle(opts, 1, "echo 42.0")
    assert oracle.measure((1.0,)) == (42.0,)
    assert oracle.count == 1


def test_command_oracle_renders_template():
    opts = [OptionSchema("a", "integer", 0, 9), OptionSchema("b", "boolean")]
    oracle = CommandOracle(opts, 2, "echo {a}.5, {b}.0")
    assert oracle.measure((3.0, 1.0)) == (3.5, 1.0)


def test_command_oracle_failures():
    opts = [OptionSchema("a", "boolean")]
    with pytest.raises(MeasureError, match="exited"):
        CommandOracle(opts, 1, "false").measure((0.0,))
    with pytest.raises(MeasureError, match="unparseable"):
        CommandOracle(opts, 1, "echo pear").measure((0.0,))
    with pytest.raises(MeasureError, match="expected 2"):
        CommandOracle(opts, 2, "echo 1.0").measure((0.0,))
    with pytest.raises(MeasureError, match="unknown option"):
        CommandOracle(opts, 1, "echo {zed}").measure((0.0,))
    with pytest.raises(MeasureError, match="non-finite measurement output 'nan"):
        CommandOracle(opts, 1, "echo nan").measure((0.0,))
    with pytest.raises(MeasureError, match="non-finite measurement output 'inf"):
        CommandOracle(opts, 1, "echo inf").measure((0.0,))


def test_command_oracle_timeout():
    opts = [OptionSchema("a", "boolean")]
    oracle = CommandOracle(opts, 1, "sleep 5", timeout=0.1)
    with pytest.raises(MeasureError, match="timed out"):
        oracle.measure((0.0,))
    assert oracle.count == 1
