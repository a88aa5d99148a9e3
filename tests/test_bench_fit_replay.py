"""`scripts/bench_fit_replay.py` head against head on a 4^4 table, one pass a side."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_fit_replay.py"
SPEC = importlib.util.spec_from_file_location("bench_fit_replay", PATH)
bench_fit_replay = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_fit_replay)


def test_table_sums_its_columns_in_order():
    X, y = bench_fit_replay.table(4)
    assert X.shape == (256, 4) and len({tuple(r) for r in X.tolist()}) == 256
    assert y.min() == 1.0 and np.isfinite(y).all()
    assert np.array_equal(bench_fit_replay.table(4)[1], y)


def test_replays_every_fit_of_the_recorded_runs_on_both_sides(tmp_path):
    out = tmp_path / "BENCH_cart_fit.json"
    assert bench_fit_replay.main(["--base", "HEAD", "--k", "1", "--options", "4", "--runs", "2",
                                  "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    # each run refits on 30, 31, ..., 79 measured rows
    assert (result["flash_runs"], result["fits"], result["rows_mean"]) == (2, 100, 54.5)
    assert result["table"] == "4^4 integer grid, 256 rows"
    assert result["same_trees"] is True
    assert result["us_per_fit"]["base"] > 0 and result["us_per_fit"]["head"] > 0
    ratio = result["us_per_fit"]["head"] / result["us_per_fit"]["base"]
    assert abs(result["ratio"] - ratio) < 1e-3  # both figures are rounded
    assert {"cpus", "python", "numpy", "timing", "base", "head", "k"} <= result.keys()


def test_refuses_a_table_flash_measures_whole(capsys):
    with pytest.raises(SystemExit):
        bench_fit_replay.main(["--base", "HEAD", "--options", "3"])
    assert "a 4^3 table leaves flash nothing to fit" in capsys.readouterr().err
