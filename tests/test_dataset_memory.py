"""`scripts/dataset_memory.py` on tables small enough to run in a moment."""

import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parents[1] / "scripts" / "dataset_memory.py"
SPEC = importlib.util.spec_from_file_location("dataset_memory", PATH)
dataset_memory = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(dataset_memory)


def test_grid_dataset_has_distinct_rows_in_the_grid():
    ds = dataset_memory.grid_dataset(rows=100, options=3)
    assert ds.n_rows == 100
    assert len({tuple(row) for row in ds.configs.tolist()}) == 100
    assert ds.configs.min() == 0 and ds.configs.max() == 4
    assert [o.hi for o in ds.options] == [4, 4, 4]


def test_prints_the_table_and_what_it_costs(capsys):
    assert dataset_memory.main(["--rows", "64", "--options", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rows 64, options 3, levels 5"
    assert [line.split()[0] for line in lines[1:]] == ["table", "kept", "save_peak", "load_peak"]
    # 64 rows of 3 options and 1 objective, 8 bytes each
    assert lines[1].split()[1:] == ["0.00", "MB", "1.00", "x", "table"]
    figures = dataset_memory.measure(64, 3)
    assert figures["table"] == 64 * 4 * 8
    assert figures["kept"] >= figures["table"]
    assert figures["load_peak"] >= figures["kept"]


def test_refuses_more_rows_than_the_grid_holds(capsys):
    assert dataset_memory.main(["--rows", "26", "--options", "2"]) == 1
    assert "cannot hold 26 distinct rows" in capsys.readouterr().err
