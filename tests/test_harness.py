from pathlib import Path

import numpy as np
import pytest

from flashtune.baselines import EpalParams, random_search
from flashtune.cli import SUFFIX_KEYS
from flashtune.flash import FlashParams
from flashtune.harness import (
    OVERRIDES,
    ExperimentSpec,
    MethodResult,
    MethodSpec,
    QualityReport,
    emit_plot_data,
    render_report,
    run_experiment,
    run_method,
    write_raw_results,
    write_report,
)
from flashtune.metrics import rank_difference
from flashtune.space import MAXIMIZE, MINIMIZE, Dataset, ObjectiveSchema, TableOracle, split
from flashtune.synth import generate_synthetic
from conftest import load_rig_script, make_dataset


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


def test_a_failed_method_names_its_cause_in_the_report(tmp_path):
    """The 16-row table's 13-row merged pool cannot hold a flash sample of
    30 or 50 random picks: each failed row keeps the exception's type and
    message, and the report prints it after the repeat."""
    spec = spec_for(
        [MethodSpec("flash"), MethodSpec("random", options={"n": 50}), MethodSpec("rank")],
        repeats=1,
        synthetic=("interaction", 4),
        flash=FlashParams(size=30, budget=20),
    )
    report = run_experiment(spec)
    errors = {r.method: r.error for r in report.rows}
    assert errors == {
        "flash": "ValueError: candidate pool has 13 configurations, need at least size=30",
        "random": "ValueError: n must lie in [1, 13]",
        "rank": None,
    }
    text = render_report(report)
    failures = text[text.index("failures (recorded as X):"):].splitlines()
    assert failures[1:3] == [
        "      flash  repeat 0  ValueError: candidate pool has 13 configurations, "
        "need at least size=30",
        "      random  repeat 0  ValueError: n must lie in [1, 13]",
    ]
    write_raw_results(report, tmp_path / "results.csv")
    assert (tmp_path / "results.csv").read_text().splitlines()[0] == (
        "method,repeat,status,rd,pool_rd,gd,igd,measurements,acquisitions")


def test_mode_method_compatibility():
    multi = generate_synthetic("bi-objective-tradeoff", 5, seed=0)
    single = generate_synthetic("single-peak", 5, seed=0)
    # run_experiment checks every method up front, run_method its own, alike
    for method, ds, objectives, message in (
            (MethodSpec("progressive", "p"), multi, (0, 1),
             "^method 'p' handles a single objective only$"),
            (MethodSpec("rank"), multi, (0, 1), "^method 'rank' handles a single objective only$"),
            (MethodSpec("epal", "e"), single, (0,), "^method 'e' needs >= 2 objectives$")):
        spec = spec_for([method], synthetic=None, manifest="m", data="d")
        with pytest.raises(ValueError, match=message):
            run_experiment(spec, dataset=ds)
        with pytest.raises(ValueError, match=message):
            run_method(method, ds, objectives, None, 0, spec)


def test_only_the_pool_searchers_run_on_the_whole_table():
    ds = generate_synthetic("single-peak", 5, seed=0)
    spec = spec_for([MethodSpec("flash")], synthetic=None, manifest="m", data="d")
    for kind in ("progressive", "rank"):
        with pytest.raises(ValueError, match=f"^method '{kind}' needs a repeat's parts$"):
            run_method(MethodSpec(kind), ds, (0,), None, 0, spec)


def test_a_repeated_objective_is_refused():
    # every repeat of every method used to be an X row, on a front of one column
    for objectives in ((0, 0), (1, 0, 1)):
        spec = spec_for([MethodSpec("flash")], synthetic=("bi-objective-tradeoff", 5),
                        objectives=objectives)
        with pytest.raises(ValueError, match=r"^objective indices \[[01, ]+\] repeat an objective$"):
            run_experiment(spec)


def test_spec_checks_flash_and_random_overrides_before_any_repeat():
    # these used to fail inside every repeat, each an X row
    for method, message in ((MethodSpec("flash", options={"budget": -1}), "budget must be >= 0"),
                            (MethodSpec("flash", options={"size": 0}), "size must be >= 1"),
                            (MethodSpec("random", options={"n": 0}), "n must be >= 1, got 0"),
                            (MethodSpec("random", options={"n": -4}), "n must be >= 1, got -4")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            spec_for([MethodSpec("rank"), method])
    spec = spec_for([MethodSpec("flash", options={"size": 12, "budget": 3})], seed=5,
                    flash=FlashParams(size=20, budget=10, n_projections=4))
    assert spec.flash_params(spec.methods[0], 9) == FlashParams(12, 3, 4, 9)
    assert spec.random_n(MethodSpec("random")) == 30
    # n above the pool size depends on the repeat's pool, so the repeat checks it
    report = run_experiment(spec_for([MethodSpec("random", options={"n": 60})], repeats=1))
    assert report.rows[0].error == "ValueError: n must lie in [1, 52]"


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one method"):
        spec_for([])
    with pytest.raises(ValueError, match="unique"):
        spec_for([MethodSpec("flash"), MethodSpec("flash")])
    with pytest.raises(ValueError, match="manifest"):
        ExperimentSpec(methods=(MethodSpec("flash"),))
    with pytest.raises(ValueError):
        MethodSpec("gradient-descent")


def test_spec_checks_epal_settings_for_each_epal_method():
    multi = ("bi-objective-tradeoff", 5)
    with pytest.raises(ValueError, match="max_wall_time must be >= 0"):
        spec_for([MethodSpec("flash"), MethodSpec("epal")], synthetic=multi, max_wall_time=-3.0)
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        spec_for([MethodSpec("epal")], synthetic=multi, epsilon=float("nan"))
    # a method's own epsilon replaces the spec's, in the check too
    with pytest.raises(ValueError, match="epsilon must be >= 0"):
        spec_for([MethodSpec("epal", "good"), MethodSpec("epal", "bad", {"epsilon": -1.0})],
                 synthetic=multi)
    spec = spec_for([MethodSpec("epal", options={"epsilon": 0.3})], synthetic=multi,
                    epsilon=-1.0, max_wall_time=2.0)
    assert spec.epal_params(spec.methods[0]) == EpalParams(epsilon=0.3, max_wall_time=2.0)
    # the epal settings are not read without an epal method
    spec_for([MethodSpec("flash")], epsilon=-1.0, max_wall_time=-3.0)


def test_method_spec_refuses_options_its_kind_never_reads():
    # a misspelt key used to run quietly on the spec's settings
    with pytest.raises(ValueError, match=r"^method 'flash' takes no option 'sise'; "
                                         r"accepted: size, budget$"):
        MethodSpec("flash", options={"sise": 10})
    refused = {"flash": "projections", "progressive": "lives", "rank": "with_replacement",
               "epal": "max_wall_time", "random": "size"}
    for kind, key in refused.items():
        with pytest.raises(ValueError, match=f"^method '{kind}' takes no option '{key}'"):
            MethodSpec(kind, options={key: 1})
    with pytest.raises(ValueError, match="accepted: none$"):
        MethodSpec("rank", options={"step": 2})
    for kind, keys in OVERRIDES.items():
        assert MethodSpec(kind, options=dict.fromkeys(keys, 3)).options == dict.fromkeys(keys, 3)


def test_method_overrides_replace_the_spec_settings():
    ds = generate_synthetic("bi-objective-tradeoff", 6, seed=0)
    spec = spec_for([MethodSpec("flash")], flash=FlashParams(size=20, budget=10), epsilon=0.01)

    def run(kind, objectives=(0,), **options):
        return run_method(MethodSpec(kind, options=options), ds, objectives, None, 0, spec)

    for options, sizes in (({}, (20, 30)), ({"size": 12, "budget": 3}, (12, 15))):
        flash = run("flash", **options)
        assert (flash.initial_sample, flash.measurements_used) == sizes
    assert run("random").measurements_used == 30
    assert run("random", n=7).measurements_used == 7
    both = (0, 1)
    assert run("epal", both, epsilon=0.01).evaluated == run("epal", both).evaluated
    assert run("epal", both, epsilon=10.0).measurements_used < run("epal", both).measurements_used


def test_docs_list_every_override_and_its_suffix():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rig = readme[readme.index("## Experiment rig"):]
    rig = rig[:rig.index("\n## ")]
    for doc in (MethodSpec.__doc__, rig):
        for keys in OVERRIDES.values():
            for key in keys:
                assert f"`{key}`" in doc
        for kind, key in SUFFIX_KEYS.items():
            assert key in OVERRIDES[kind]
            assert f"`{kind}:" in doc


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


@pytest.mark.parametrize("direction", [MINIMIZE, MAXIMIZE])
def test_pool_rd_counts_better_rows_in_the_rows_each_method_searches(direction):
    # oracle from the split, the table's values and rd alone: the answer's
    # value is the rd-th smallest mapped value of the table; the samplers
    # answer from validation, the pool searchers from training and validation
    table = generate_synthetic("interaction", 6, seed=3)
    ds = Dataset(table.options, [ObjectiveSchema("perf", direction)], table.configs,
                 table.values)
    sign = 1.0 if direction == MINIMIZE else -1.0
    mapped = [sign * float(v) for v in ds.values[:, 0]]
    methods = [MethodSpec(kind) for kind in ("flash", "progressive", "rank", "random")]
    spec = spec_for(methods, repeats=3, seed=11, flash=FlashParams(size=8, budget=6))
    report = run_experiment(spec, dataset=ds)
    assert len(report.rows) == 12 and not any(row.failed for row in report.rows)
    for row in report.rows:
        train, _, val = (part.tolist() for part in split(ds, 11 + row.repeat))
        searched = val if row.method in ("progressive", "rank") else train + val
        answer = sorted(mapped)[row.rd]
        assert row.pool_rd == sum(mapped[i] < answer for i in searched)


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
        train, _, val = split(ds, row.repeat)
        merged = np.sort(np.concatenate([train, val]))
        full = random_search(ds.candidates(merged), TableOracle(ds), 10, ds.directions,
                             seed=row.repeat)
        best = min(full.evaluated, key=lambda e: e[1][1])[0]
        assert not row.failed
        assert row.rd == rank_difference(best, ds, 1)


# --- report files, pinned byte for byte ---------------------------------------

def hand_single_report():
    """Three repeats: `progressive_1` (the measurement-ratio reference) fails
    in repeat 1, `rank` fails in every repeat, and `flash_2` (the time-gain
    reference) has a zero wall time in repeat 0; neither reference is first."""
    methods = ("random", "progressive_1", "flash_2", "rank")
    cells = {  # rd, pool_rd, measurements, acquisitions, wall_time per repeat
        "random": [(3, 1, 50, 50, 0.5), (0, 0, 50, 50, 0.75), (7, 2, 50, 50, 1.5)],
        "progressive_1": [(12, 4, 37, 15, 2.0), None, (5, 1, 41, 19, 3.25)],
        "flash_2": [(1, 0, 50, 20, 0.0), (0, 0, 50, 20, 0.4), (2, 1, 50, 20, 0.3)],
        "rank": [None, None, None],
    }
    rows = []
    for rep in range(3):
        for m in methods:
            v = cells[m][rep]
            if v is None:
                rows.append(MethodResult(m, rep, True))
            else:
                rd, pool_rd, meas, acq, wall = v
                rows.append(MethodResult(m, rep, False, rd=rd, pool_rd=pool_rd,
                                         measurements=meas, acquisitions=acq, wall_time=wall))
    ranks = {"rd": {"random": 1, "progressive_1": 2, "flash_2": 1, "rank": None},
             "measurements": {"random": 2, "progressive_1": 1, "flash_2": 2, "rank": None}}
    return QualityReport("hand-built", ("perf",), True, methods, 3, 11, tuple(rows), ranks)


def hand_multi_report():
    rows = (
        MethodResult("epal_0.3", 0, False, gd=0.125, igd=0.3, measurements=44,
                     acquisitions=24, wall_time=2.5),
        MethodResult("flash", 0, False, gd=0.0, igd=0.1, measurements=80,
                     acquisitions=50, wall_time=0.5),
        MethodResult("epal_0.3", 1, True),
        MethodResult("flash", 1, False, gd=0.05, igd=1.0 / 3.0, measurements=80,
                     acquisitions=50, wall_time=0.25),
    )
    ranks = {"gd": {"epal_0.3": 2, "flash": 1}, "igd": {"epal_0.3": 1, "flash": 1},
             "measurements": {"epal_0.3": 1, "flash": 2}}
    return QualityReport("hand-built", ("perf_a", "perf_b"), False, ("epal_0.3", "flash"),
                         2, 0, rows, ranks)


def report_files(report, out, timing):
    write_raw_results(report, out / "results.csv", include_timing=timing)
    written = emit_plot_data(report, out, include_timing=timing)
    return [p.name for p in written], {p.name: p.read_text() for p in sorted(out.iterdir())}


SINGLE_RESULTS = """\
method,repeat,status,rd,pool_rd,gd,igd,measurements,acquisitions,wall_time
random,0,ok,3,1,X,X,50,50,0.5
progressive_1,0,ok,12,4,X,X,37,15,2.0
flash_2,0,ok,1,0,X,X,50,20,0.0
rank,0,X,X,X,X,X,X,X,X
random,1,ok,0,0,X,X,50,50,0.75
progressive_1,1,X,X,X,X,X,X,X,X
flash_2,1,ok,0,0,X,X,50,20,0.4
rank,1,X,X,X,X,X,X,X,X
random,2,ok,7,2,X,X,50,50,1.5
progressive_1,2,ok,5,1,X,X,41,19,3.25
flash_2,2,ok,2,1,X,X,50,20,0.3
rank,2,X,X,X,X,X,X,X,X
"""

SINGLE_RANK_DIFFERENCE = """\
method,repeat,rank_difference,measurements
random,0,3,50
random,1,0,50
random,2,7,50
progressive_1,0,12,37
progressive_1,1,X,X
progressive_1,2,5,41
flash_2,0,1,50
flash_2,1,0,50
flash_2,2,2,50
rank,0,X,X
rank,1,X,X
rank,2,X,X
"""

SINGLE_MEASUREMENT_RATIO = """\
random,progressive_1,flash_2,rank
135.13513513513513,100.0,135.13513513513513,X
X,X,X,X
121.95121951219512,100.0,121.95121951219512,X
"""

SINGLE_TIME_GAIN = """\
random,progressive_1,flash_2,rank
X,X,X,X
1.875,X,1.0,X
5.0,10.833333333333334,1.0,X
"""

SINGLE_REPORT = """\
experiment report
dataset: hand-built
objectives: perf
mode: single-objective
repeats: 3  seed: 11

metric: rd (lower is better)
   1  flash_2        median=1            IQR=1            | -o--                         |
   1  random         median=3            IQR=3.5          |    ---o-----                 |
   2  progressive_1  median=8.5          IQR=3.5          |                -----o----    |
   X  rank  no successful repeats

metric: measurements (lower is better)
   1  progressive_1  median=39           IQR=2            |  --o---                      |
   2  flash_2        median=50           IQR=0            |                             o|
   2  random         median=50           IQR=0            |                             o|
   X  rank  no successful repeats

wall time (median seconds per repeat)
      random  0.750
      progressive_1  2.625
      flash_2  0.300
      rank  X

failures (recorded as X):
      rank  repeat 0
      progressive_1  repeat 1
      rank  repeat 1
      rank  repeat 2
"""


def test_single_objective_report_files_pinned(tmp_path):
    report = hand_single_report()
    names, files = report_files(report, tmp_path, timing=True)
    assert names == ["rank_difference.csv", "measurement_ratio.csv", "time_gain.csv"]
    assert files == {
        "measurement_ratio.csv": SINGLE_MEASUREMENT_RATIO,
        "rank_difference.csv": SINGLE_RANK_DIFFERENCE,
        "results.csv": SINGLE_RESULTS,
        "time_gain.csv": SINGLE_TIME_GAIN,
    }
    assert render_report(report, include_timing=True) == SINGLE_REPORT


def test_report_files_without_timing_pinned(tmp_path):
    report = hand_single_report()
    names, files = report_files(report, tmp_path, timing=False)
    assert names == ["rank_difference.csv", "measurement_ratio.csv"]
    assert files["results.csv"] == "".join(
        line.rsplit(",", 1)[0] + "\n" for line in SINGLE_RESULTS.splitlines())
    assert files["rank_difference.csv"] == SINGLE_RANK_DIFFERENCE
    assert files["measurement_ratio.csv"] == SINGLE_MEASUREMENT_RATIO
    timing_section = SINGLE_REPORT.index("wall time")
    assert render_report(report) == (SINGLE_REPORT[:timing_section]
                                     + SINGLE_REPORT[SINGLE_REPORT.index("failures"):])


def test_multi_objective_report_files_pinned(tmp_path):
    report = hand_multi_report()
    names, files = report_files(report, tmp_path, timing=True)
    assert names == ["quality_indicators.csv", "measurement_ratio.csv", "time_gain.csv"]
    assert files == {
        "measurement_ratio.csv": "epal_0.3,flash\n100.0,181.8181818181818\nX,X\n",
        "quality_indicators.csv": (
            "method,repeat,gd,igd,measurements\n"
            "epal_0.3,0,0.125,0.3,44\n"
            "epal_0.3,1,X,X,X\n"
            "flash,0,0.0,0.1,80\n"
            "flash,1,0.05,0.3333333333333333,80\n"),
        "results.csv": (
            "method,repeat,status,rd,pool_rd,gd,igd,measurements,acquisitions,wall_time\n"
            "epal_0.3,0,ok,X,X,0.125,0.3,44,24,2.5\n"
            "flash,0,ok,X,X,0.0,0.1,80,50,0.5\n"
            "epal_0.3,1,X,X,X,X,X,X,X,X\n"
            "flash,1,ok,X,X,0.05,0.3333333333333333,80,50,0.25\n"),
        "time_gain.csv": "epal_0.3,flash\n5.0,1.0\nX,1.0\n",
    }
    assert render_report(report, include_timing=True) == """\
experiment report
dataset: hand-built
objectives: perf_a, perf_b
mode: multi-objective
repeats: 2  seed: 0

metric: gd (lower is better)
   1  flash     median=0.025        IQR=0.025        |   ---o---                    |
   2  epal_0.3  median=0.125        IQR=0            |                             o|

metric: igd (lower is better)
   1  flash     median=0.216667     IQR=0.116667     |       --------o-------       |
   1  epal_0.3  median=0.3          IQR=0            |                         o    |

metric: measurements (lower is better)
   1  epal_0.3  median=44           IQR=0            |o                             |
   2  flash     median=80           IQR=0            |                             o|

wall time (median seconds per repeat)
      epal_0.3  2.500
      flash  0.375

failures (recorded as X):
      epal_0.3  repeat 1
"""


@pytest.mark.parametrize("timing", [False, True])
def test_rig_script_writes_each_report_as_the_three_report_calls_do(tmp_path, capsys, timing):
    rig = load_rig_script()
    reports = []

    def kept(spec):
        reports.append(run_experiment(spec))
        return reports[-1]

    rig.run_experiment = kept
    argv = ["--out", str(tmp_path / "rig"), "--repeats", "1", "--options", "4"]
    assert rig.main(argv + ["--timing"] * timing) == 0
    printed = capsys.readouterr().out

    kinds = ("single-peak", "interaction", "bi-objective-tradeoff")
    assert sorted(p.name for p in (tmp_path / "rig").iterdir()) == sorted(kinds)
    for kind, report in zip(kinds, reports):
        expected = tmp_path / "expected" / kind
        expected.mkdir(parents=True)
        text = render_report(report, include_timing=timing)
        (expected / "report.txt").write_text(text, encoding="utf-8")
        report_files(report, expected, timing)
        names = {"report.txt", "results.csv", "measurement_ratio.csv",
                 "rank_difference.csv" if report.single_objective else "quality_indicators.csv"}
        if timing:
            names.add("time_gain.csv")
        assert {p.name for p in expected.iterdir()} == names
        got = {p.name: p.read_bytes() for p in (tmp_path / "rig" / kind).iterdir()}
        assert got == {p.name: p.read_bytes() for p in expected.iterdir()}
        assert text in printed


def test_a_rerun_into_the_same_directory_leaves_no_figure_file_it_does_not_write(tmp_path):
    """`time_gain.csv` from a timed run, and the other mode's figure file,
    are removed by a run that does not write them."""
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    write_report(hand_multi_report(), reused, include_timing=True)
    write_report(hand_single_report(), reused, include_timing=True)
    assert not (reused / "quality_indicators.csv").exists()
    write_report(hand_single_report(), reused)
    write_report(hand_single_report(), fresh)
    assert sorted(p.name for p in reused.iterdir()) == [
        "measurement_ratio.csv", "rank_difference.csv", "report.txt", "results.csv"]
    assert {p.name: p.read_bytes() for p in reused.iterdir()} == {
        p.name: p.read_bytes() for p in fresh.iterdir()}
