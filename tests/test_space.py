import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.space import (
    CommandOracle,
    Dataset,
    DatasetError,
    MeasureError,
    ObjectiveSchema,
    OptionSchema,
    RowError,
    SchemaError,
    SplitError,
    SplitSpec,
    TableOracle,
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


def loop_domain_error(options, X):
    """The per-element domain scan the array test replaced: first bad value
    by column, then by row."""
    for j, opt in enumerate(options):
        for i, v in enumerate(X[:, j]):
            if not opt.contains(v):
                return f"row {i + 1}: value {v!r} outside domain of option {opt.name!r}"
    return None


@settings(max_examples=200)
@given(st.data())
def test_dataset_domain_error_matches_loop(data):
    n = data.draw(st.integers(2, 6))
    d = data.draw(st.integers(1, 3))
    cells = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0, 3.0, 4.0])
    X = np.array([[data.draw(cells) for _ in range(d)] for _ in range(n)])
    options = [OptionSchema(f"o{j}", "integer", 0, data.draw(st.integers(0, 3))) for j in range(d)]
    expected = loop_domain_error(options, X)
    try:
        Dataset(options, [ObjectiveSchema("y", "minimize")], X, np.ones((n, 1)))
    except RowError as exc:
        assert str(exc) == expected or (expected is None and "duplicate" in str(exc))
    else:
        assert expected is None


def test_direction_signs():
    assert direction_signs(("minimize", "maximize", "minimize")).tolist() == [1.0, -1.0, 1.0]
    with pytest.raises(ValueError, match="unknown direction 'sideways'"):
        direction_signs(("minimize", "sideways"))


def test_split_sizes_and_partition(two_bool_dataset):
    configs = [(i,) for i in range(10)]
    ds = make_dataset(configs, list(range(10)))
    train, hold, val = split(ds, SplitSpec(0.4, 0.2, 0.4, seed=7))
    assert (len(train), len(hold), len(val)) == (4, 2, 4)
    union = set(train) | set(hold) | set(val)
    assert union == set(range(10))


def test_split_deterministic():
    ds = make_dataset([(i,) for i in range(10)], list(range(10)))
    spec = SplitSpec(0.4, 0.2, 0.4, seed=7)
    a = split(ds, spec)
    b = split(ds, spec)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_split_1343_rows_remainder_to_train():
    # floor gives 268 and 537; the leftover row lands in the train pool
    ds = make_dataset([(i,) for i in range(1343)], [float(i) for i in range(1343)])
    train, hold, val = split(ds, SplitSpec(0.4, 0.2, 0.4, seed=1))
    assert (len(train), len(hold), len(val)) == (538, 268, 537)
    parts = [set(map(int, p)) for p in (train, hold, val)]
    assert parts[0] | parts[1] | parts[2] == set(range(1343))
    assert parts[0] & parts[1] == set()
    assert parts[0] & parts[2] == set()
    assert parts[1] & parts[2] == set()


def test_split_empty_part_rejected():
    ds = make_dataset([(0,), (1,)], [1.0, 2.0])
    with pytest.raises(SplitError):
        split(ds, SplitSpec(0.4, 0.2, 0.4, seed=0))


def test_split_spec_validation():
    with pytest.raises(ValueError):
        SplitSpec(0.5, 0.2, 0.4)
    with pytest.raises(ValueError):
        SplitSpec(1.0, 0.2, 0.4)


@settings(max_examples=40)
@given(n=st.integers(min_value=5, max_value=400), seed=st.integers(0, 2**32 - 1))
def test_split_is_partition_property(n, seed):
    ds = make_dataset([(i,) for i in range(n)], [float(i) for i in range(n)])
    train, hold, val = split(ds, SplitSpec(seed=seed))
    ids = sorted(int(i) for part in (train, hold, val) for i in part)
    assert ids == list(range(n))


def test_table_oracle_counts(two_bool_dataset):
    oracle = TableOracle(two_bool_dataset)
    assert oracle.count == 0
    assert oracle.measure((0.0, 0.0)) == (3.0,)
    assert oracle.count == 1
    oracle.measure((1.0, 1.0))
    assert oracle.count == 2


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
