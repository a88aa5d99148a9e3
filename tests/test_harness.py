import numpy as np
import pytest

from flashtune.baselines import random_search
from flashtune.flash import FlashParams
from flashtune.harness import (
    ExperimentSpec,
    MethodSpec,
    emit_plot_data,
    render_report,
    run_experiment,
    write_raw_results,
)
from flashtune.metrics import rank_difference
from flashtune.space import SplitSpec, TableOracle, split
from flashtune.synth import generate_synthetic
from conftest import make_dataset


def spec_for(methods, repeats=2, seed=0, synthetic=("single-peak", 6), **kw):
    return ExperimentSpec(
        methods=tuple(methods),
        synthetic=synthetic,
        repeats=repeats,
        seed=seed,
        **kw,
    )


def test_smoke_two_methods_one_repeat():
    ds = make_dataset([(float(i),) for i in range(16)],
                      [float(i % 7 + 1) for i in range(16)])
    spec = spec_for(
        [MethodSpec("flash"), MethodSpec("random")],
        repeats=1,
        flash=FlashParams(size=3, budget=2),
    )
    report = run_experiment(spec, dataset=ds)
    assert report.single_objective
    assert len(report.rows) == 2
    for row in report.rows:
        assert not row.failed
        assert row.rd is not None
        assert row.measurements is not None
    assert set(report.ranks["rd"]) == {"flash", "random"}


def test_flash_measurements_constant_while_progressive_varies():
    spec = spec_for(
        [MethodSpec("flash"), MethodSpec("progressive")],
        repeats=4,
        synthetic=("single-peak", 8),
        flash=FlashParams(size=30, budget=20),
    )
    report = run_experiment(spec)
    flash_meas = report.observations("measurements", "flash")
    prog_meas = report.observations("measurements", "progressive")
    assert set(flash_meas) == {50.0}
    assert len(set(prog_meas)) > 1
    # the holdout bill is charged to the sampling baselines, never to flash
    hold = int(0.2 * 256)
    assert min(prog_meas) > hold


def test_multi_objective_report_uses_quality_indicators():
    spec = spec_for(
        [MethodSpec("flash"),
         MethodSpec("epal", "epal_0.3", {"epsilon": 0.3})],
        repeats=2,
        synthetic=("bi-objective-tradeoff", 6),
        flash=FlashParams(size=10, budget=10),
    )
    report = run_experiment(spec)
    assert not report.single_objective
    assert report.metric_names() == ("gd", "igd", "measurements")
    for row in report.rows:
        assert not row.failed
        assert row.gd is not None and row.igd is not None


def test_flash_acquisitions_column_is_budget():
    spec = spec_for(
        [MethodSpec("flash")],
        repeats=2,
        synthetic=("bi-objective-tradeoff", 7),
        flash=FlashParams(size=30, budget=50),
    )
    report = run_experiment(spec)
    for row in report.rows:
        assert row.measurements == 80
        assert row.acquisitions == 50


def test_method_failure_recorded_as_x():
    # non-positive objective values make the relative-error scorer undefined,
    # so progressive fails while the experiment itself completes
    values = [-(i + 1.0) for i in range(32)]
    ds = make_dataset([(float(i),) for i in range(32)], values)
    spec = spec_for(
        [MethodSpec("progressive"), MethodSpec("random", options={"n": 5})],
        repeats=2,
        flash=FlashParams(size=4, budget=2),
    )
    report = run_experiment(spec, dataset=ds)
    prog_rows = [r for r in report.rows if r.method == "progressive"]
    assert all(r.failed for r in prog_rows)
    rand_rows = [r for r in report.rows if r.method == "random"]
    assert not any(r.failed for r in rand_rows)
    assert report.ranks["rd"]["progressive"] is None
    text = render_report(report)
    assert "failures" in text
    assert "X" in text


def test_mode_method_compatibility():
    with pytest.raises(ValueError, match="single objective"):
        run_experiment(spec_for([MethodSpec("progressive")],
                                synthetic=("bi-objective-tradeoff", 5)))
    with pytest.raises(ValueError, match=">= 2 objectives"):
        run_experiment(spec_for([MethodSpec("epal")], synthetic=("single-peak", 5)))


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one method"):
        spec_for([])
    with pytest.raises(ValueError, match="unique"):
        spec_for([MethodSpec("flash"), MethodSpec("flash")])
    with pytest.raises(ValueError, match="manifest"):
        ExperimentSpec(methods=(MethodSpec("flash"),))
    with pytest.raises(ValueError):
        MethodSpec("gradient-descent")


def test_report_is_seed_reproducible():
    spec = spec_for([MethodSpec("flash"), MethodSpec("random")],
                    repeats=3, flash=FlashParams(size=8, budget=6))
    r1 = run_experiment(spec)
    r2 = run_experiment(spec)
    assert render_report(r1) == render_report(r2)
    assert [row.rd for row in r1.rows] == [row.rd for row in r2.rows]


def test_rows_ordered_by_repeat_then_method():
    spec = spec_for([MethodSpec("flash"), MethodSpec("random")],
                    repeats=3, flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec)
    keys = [(r.repeat, r.method) for r in report.rows]
    expected = [(rep, m) for rep in range(3) for m in ("flash", "random")]
    assert keys == expected


def test_emit_plot_data_single_method(tmp_path):
    spec = spec_for([MethodSpec("flash")], repeats=3,
                    flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec)
    files = emit_plot_data(report, tmp_path)
    names = {f.name for f in files}
    assert names == {"rank_difference.csv", "measurement_ratio.csv"}
    lines = (tmp_path / "rank_difference.csv").read_text().strip().splitlines()
    assert lines[0] == "method,repeat,rank_difference,measurements"
    assert len(lines) == 1 + 3  # one row per repeat


def test_emit_plot_data_gain_ratio_columns(tmp_path):
    spec = spec_for(
        [MethodSpec("flash"),
         MethodSpec("epal", "epal_0.01", {"epsilon": 0.01}),
         MethodSpec("epal", "epal_0.3", {"epsilon": 0.3})],
        repeats=2,
        synthetic=("bi-objective-tradeoff", 6),
        flash=FlashParams(size=10, budget=10),
    )
    report = run_experiment(spec)
    files = emit_plot_data(report, tmp_path, include_timing=True)
    gain = (tmp_path / "time_gain.csv").read_text().strip().splitlines()
    assert gain[0] == "flash,epal_0.01,epal_0.3"
    assert len(gain[0].split(",")) == 3
    assert len(gain) == 1 + 2


def test_emit_plot_data_deterministic_for_same_report(tmp_path):
    spec = spec_for([MethodSpec("flash"), MethodSpec("random")],
                    repeats=2, flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec)
    a = tmp_path / "a"
    b = tmp_path / "b"
    emit_plot_data(report, a, include_timing=True)
    emit_plot_data(report, b, include_timing=True)
    for f in sorted(a.iterdir()):
        assert f.read_bytes() == (b / f.name).read_bytes()


def test_raw_results_recompute_medians(tmp_path):
    spec = spec_for([MethodSpec("flash"), MethodSpec("random")],
                    repeats=5, flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec)
    path = tmp_path / "results.csv"
    write_raw_results(report, path)
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rd_col = header.index("rd")
    method_col = header.index("method")
    per_method = {}
    for line in lines[1:]:
        cells = line.split(",")
        per_method.setdefault(cells[method_col], []).append(float(cells[rd_col]))
    for method, values in per_method.items():
        assert np.median(values) == np.median(report.observations("rd", method))


def test_pool_rd_reported_alongside_full_rd():
    spec = spec_for([MethodSpec("flash")], repeats=2,
                    flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec)
    for row in report.rows:
        assert row.pool_rd is not None
        # a rank within a subset can never exceed the rank in the whole table
        assert row.pool_rd <= row.rd


def test_fairness_twin_methods_identical_within_repeat():
    # two differently labeled copies of the same method must see identical
    # pools and seeds, hence produce identical results in every repeat
    spec = spec_for(
        [MethodSpec("flash", "flash_a"), MethodSpec("flash", "flash_b")],
        repeats=3,
        flash=FlashParams(size=8, budget=6),
    )
    report = run_experiment(spec)
    by = {(r.method, r.repeat): r for r in report.rows}
    for rep in range(3):
        a = by[("flash_a", rep)]
        b = by[("flash_b", rep)]
        assert (a.rd, a.pool_rd, a.measurements) == (b.rd, b.pool_rd, b.measurements)


def test_random_on_selected_objective_picks_that_column():
    # random search draws the same ids whatever the objective; with
    # objectives=(1,) its answer must be the best perf_b value it measured
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=0)
    spec = spec_for([MethodSpec("random", options={"n": 10})], repeats=3,
                    synthetic=("bi-objective-tradeoff", 6), objectives=(1,))
    report = run_experiment(spec, dataset=ds)
    for row in report.rows:
        train, _, val = split(ds, SplitSpec(seed=row.repeat))
        merged = np.sort(np.concatenate([train, val]))
        full = random_search(ds.candidates(merged), TableOracle(ds), 10, ds.directions,
                             seed=row.repeat)
        best = min(full.evaluated, key=lambda e: e[1][1])[0]
        assert not row.failed
        assert row.rd == rank_difference(best, ds, 1)
