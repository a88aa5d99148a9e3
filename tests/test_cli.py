from pathlib import Path

from flashtune.cli import main


def run_cli(*args):
    return main([str(a) for a in args])


def synth_files(tmp_path, kind="single-peak", options=6, seed=0):
    out = tmp_path / f"{kind}-{options}-{seed}"
    assert run_cli("synth", "--kind", kind, "--options", options,
                   "--seed", seed, "--out", out) == 0
    return out / "manifest.txt", out / "data.csv", out


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(Path(path).iterdir())}


def test_synth_writes_dataset_and_truth(tmp_path):
    manifest, data, out = synth_files(tmp_path)
    assert manifest.exists() and data.exists()
    truth = (out / "truth.csv").read_text().splitlines()
    assert truth[0] == "kind,objective,id"
    assert any(line.startswith("best,perf,") for line in truth[1:])


def test_synth_deterministic(tmp_path):
    _, _, a = synth_files(tmp_path / "a")
    _, _, b = synth_files(tmp_path / "b")
    assert dir_bytes(a) == dir_bytes(b)


def test_tune_writes_trace_and_summary(tmp_path):
    manifest, data, _ = synth_files(tmp_path)
    out = tmp_path / "tuned"
    code = run_cli("tune", "--manifest", manifest, "--data", data,
                   "--size", 10, "--budget", 10, "--seed", 3, "--out", out,
                   "--dump-tree")
    assert code == 0
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("step,id,o00")
    assert len(trace) == 1 + 20
    summary = (out / "summary.txt").read_text()
    assert "rank difference:" in summary
    assert "measurements used: 20" in summary
    assert (out / "tree.txt").read_text().startswith("split") or \
        (out / "tree.txt").read_text().startswith("leaf")


def test_tune_deterministic(tmp_path):
    manifest, data, _ = synth_files(tmp_path)
    out1, out2 = tmp_path / "t1", tmp_path / "t2"
    for out in (out1, out2):
        assert run_cli("tune", "--manifest", manifest, "--data", data,
                       "--size", 8, "--budget", 5, "--seed", 1, "--out", out) == 0
    assert dir_bytes(out1) == dir_bytes(out2)


def test_tune_mo_outputs(tmp_path):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff")
    out = tmp_path / "mo"
    assert run_cli("tune-mo", "--manifest", manifest, "--data", data,
                   "--size", 10, "--budget", 10, "--seed", 2, "--out", out) == 0
    assert (out / "front.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "gd:" in summary and "igd:" in summary


def test_baseline_methods(tmp_path):
    manifest, data, _ = synth_files(tmp_path, options=7)
    for method in ("progressive", "rank", "random", "flash"):
        out = tmp_path / method
        assert run_cli("baseline", "--method", method, "--manifest", manifest,
                       "--data", data, "--size", 10, "--budget", 5,
                       "--seed", 1, "--out", out) == 0
        assert (out / "summary.txt").exists()
        assert (out / "trace.csv").exists()


def test_baseline_epal_on_bi_objective(tmp_path):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=6)
    out = tmp_path / "epal"
    assert run_cli("baseline", "--method", "epal", "--manifest", manifest,
                   "--data", data, "--epsilon", 0.3, "--seed", 1, "--out", out) == 0
    assert "front size:" in (out / "summary.txt").read_text()


def test_baseline_epal_rejects_single_objective(tmp_path):
    manifest, data, _ = synth_files(tmp_path)
    out = tmp_path / "x"
    assert run_cli("baseline", "--method", "epal", "--manifest", manifest,
                   "--data", data, "--out", out) == 1
    assert not out.exists()


def test_baseline_epal_rejects_a_negative_or_nan_wall_time(tmp_path, capsys):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=6)
    for limit in ("-3", "nan"):
        assert run_cli("baseline", "--method", "epal", "--manifest", manifest, "--data", data,
                       "--max-wall-time", limit, "--out", tmp_path / f"epal{limit}") == 1
        assert "max_wall_time must be >= 0 and not NaN" in capsys.readouterr().err
        assert not (tmp_path / f"epal{limit}").exists()
    assert run_cli("baseline", "--method", "epal", "--manifest", manifest, "--data", data,
                   "--max-wall-time", 0, "--out", tmp_path / "epal0") == 0
    assert "stop reason: wall-time" in (tmp_path / "epal0" / "summary.txt").read_text()


def test_baseline_random_searches_the_given_objective(tmp_path):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=6)
    outs = {}
    for objective in ("perf_a", "perf_b", None):
        out = outs[objective] = tmp_path / f"random-{objective}"
        chosen = () if objective is None else ("--objective", objective)
        assert run_cli("baseline", "--method", "random", "--manifest", manifest, "--data", data,
                       "--size", 10, "--budget", 10, "--seed", 1, *chosen, "--out", out) == 0
    assert dir_bytes(outs["perf_a"]) != dir_bytes(outs["perf_b"])
    for objective in ("perf_a", "perf_b"):
        summary = (outs[objective] / "summary.txt").read_text()
        assert "best id:" in summary and "rank difference:" in summary
    assert "front size:" in (outs[None] / "summary.txt").read_text()


def test_baseline_epal_rejects_an_objective(tmp_path, capsys):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=6)
    out = tmp_path / "epal"
    assert run_cli("baseline", "--method", "epal", "--manifest", manifest, "--data", data,
                   "--objective", "perf_a", "--out", out) == 1
    assert "--objective does not apply to epal" in capsys.readouterr().err
    assert not out.exists()


def test_eval_reports_front_quality(tmp_path, capsys):
    manifest, data, out = synth_files(tmp_path, kind="bi-objective-tradeoff", options=4)
    # the data file doubles as a front listing: every row is on the front
    assert run_cli("eval", "--manifest", manifest, "--data", data,
                   "--true-front", data, "--approx-front", data) == 0
    captured = capsys.readouterr().out
    assert "gd=0.0" in captured
    assert "igd=0.0" in captured
    assert "rd[perf_a]=0" in captured
    assert "rd[perf_b]=0" in captured


def test_eval_rejects_foreign_configuration(tmp_path):
    manifest, data, out = synth_files(tmp_path, kind="bi-objective-tradeoff", options=4)
    bad = tmp_path / "bad.csv"
    bad.write_text("o00,o01,o02,o03\n9,9,9,9\n")
    assert run_cli("eval", "--manifest", manifest, "--data", data,
                   "--true-front", data, "--approx-front", bad) == 1


def test_eval_accepts_a_front_file_with_a_byte_order_mark(tmp_path, capsys):
    manifest, data, out = synth_files(tmp_path, kind="bi-objective-tradeoff", options=4)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + data.read_bytes())
    assert run_cli("eval", "--manifest", manifest, "--data", data,
                   "--true-front", data, "--approx-front", marked) == 0
    assert "igd=0.0" in capsys.readouterr().out


def test_eval_front_with_a_field_over_the_csv_limit_exits_1(tmp_path, capsys):
    manifest, data, out = synth_files(tmp_path, kind="bi-objective-tradeoff", options=4)
    bad = tmp_path / "bad.csv"
    bad.write_text("o00,o01,o02,o03,note\n0,0,0,0,\"" + "x" * 200_000 + "\"\n")
    assert run_cli("eval", "--manifest", manifest, "--data", data,
                   "--true-front", data, "--approx-front", bad) == 1
    assert "row 1: not readable as CSV" in capsys.readouterr().err


def test_tune_on_a_field_over_the_csv_limit_exits_1(tmp_path, capsys):
    manifest, data, _ = synth_files(tmp_path)
    lines = data.read_text().splitlines()
    big = tmp_path / "big.csv"
    big.write_text("\n".join([lines[0] + ",note", lines[1] + ",ok",
                              lines[2] + ',"' + "x" * 200_000 + '"'] + lines[3:]) + "\n")
    assert run_cli("tune", "--manifest", manifest, "--data", big,
                   "--size", 3, "--budget", 0, "--out", tmp_path / "out") == 1
    assert "row 2: not readable as CSV: field larger than field limit" in capsys.readouterr().err


def test_experiment_single_objective(tmp_path):
    out = tmp_path / "exp"
    code = run_cli("experiment", "--kind", "single-peak", "--options", 7,
                   "--methods", "flash,random", "--repeats", 3,
                   "--size", 10, "--budget", 10, "--seed", 5, "--out", out)
    assert code == 0
    assert (out / "report.txt").exists()
    assert (out / "results.csv").exists()
    assert (out / "rank_difference.csv").exists()
    assert (out / "measurement_ratio.csv").exists()
    assert not (out / "time_gain.csv").exists()


def test_experiment_multi_objective_with_epal_variants(tmp_path):
    out = tmp_path / "mo"
    code = run_cli("experiment", "--kind", "bi-objective-tradeoff", "--options", 6,
                   "--methods", "flash,epal:0.3", "--repeats", 2,
                   "--size", 10, "--budget", 10, "--seed", 1,
                   "--emit-timing", "--out", out)
    assert code == 0
    assert (out / "quality_indicators.csv").exists()
    assert (out / "time_gain.csv").exists()
    report = (out / "report.txt").read_text()
    assert "epal_0.3" in report
    assert "wall time" in report


def test_experiment_deterministic_outputs(tmp_path):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("experiment", "--kind", "interaction", "--options", 6,
                       "--methods", "flash,random", "--repeats", 2,
                       "--size", 8, "--budget", 5, "--seed", 9, "--out", out) == 0
        outs.append(out)
    assert dir_bytes(outs[0]) == dir_bytes(outs[1])


def test_experiment_on_files_with_objective_selection(tmp_path):
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=6)
    out = tmp_path / "sel"
    code = run_cli("experiment", "--manifest", manifest, "--data", data,
                   "--objectives", "perf_a", "--methods", "flash,random",
                   "--repeats", 2, "--size", 8, "--budget", 5, "--seed", 2,
                   "--out", out)
    assert code == 0
    assert (out / "rank_difference.csv").exists()


def test_exit_code_validation_errors(tmp_path):
    manifest = tmp_path / "m.txt"
    data = tmp_path / "d.csv"
    manifest.write_text("option a bool\nobjective perf minimize\n")
    data.write_text("a\n0\n1\n")  # missing objective column
    assert run_cli("tune", "--manifest", manifest, "--data", data,
                   "--out", tmp_path / "o") == 1
    # unknown option is a usage problem, also a validation error
    assert run_cli("tune", "--frobnicate") == 1
    assert run_cli("experiment", "--methods", "flash",
                   "--out", tmp_path / "o2") == 1  # neither files nor --kind


def test_experiment_refuses_bad_epal_settings_before_any_repeat(tmp_path, capsys):
    # these used to exit 0 with every epal repeat an X row
    common = ("--kind", "bi-objective-tradeoff", "--options", 5, "--repeats", 1)
    for bad, message in ((("--methods", "flash,epal", "--max-wall-time", -3),
                          "max_wall_time must be >= 0 and not NaN"),
                         (("--methods", "flash,epal", "--epsilon", -0.5),
                          "epsilon must be >= 0 and not NaN"),
                         (("--methods", "flash,epal:-1"), "epsilon must be >= 0 and not NaN")):
        out = tmp_path / "report"
        assert run_cli("experiment", *common, *bad, "--out", out) == 1
        assert f"validation error: {message}" in capsys.readouterr().err
        assert not out.exists()
    # without an epal method the epal settings are not read
    assert run_cli("experiment", *common, "--methods", "flash", "--size", 8, "--budget", 4,
                   "--max-wall-time", -3, "--out", tmp_path / "flash") == 0


def test_experiment_refuses_bad_flash_random_and_objective_settings(tmp_path, capsys):
    # these used to exit 0 with every repeat an X row
    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=5)
    files = ("--manifest", manifest, "--data", data, "--repeats", 1)
    for bad, message in ((("--methods", "flash:-1"), "budget must be >= 0"),
                         (("--methods", "flash,random:0"), "n must be >= 1, got 0"),
                         (("--objectives", "perf_a,perf_a"),
                          "objective indices [0, 0] repeat an objective"),
                         (("--objectives", "1,1"), "objective indices [1, 1] repeat an objective")):
        out = tmp_path / "report"
        assert run_cli("experiment", *files, *bad, "--out", out) == 1
        assert capsys.readouterr().err == f"validation error: {message}\n"
        assert not out.exists()


def test_exit_code_runtime_failure(tmp_path):
    manifest, data, _ = synth_files(tmp_path)
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run_cli("tune", "--manifest", manifest, "--data", data,
                   "--out", blocker / "nested")
    assert code == 2


def test_experiment_with_replacement_flag(tmp_path):
    out = tmp_path / "wr"
    code = run_cli("experiment", "--kind", "single-peak", "--options", 6,
                   "--methods", "progressive,flash", "--repeats", 2,
                   "--size", 8, "--budget", 5, "--seed", 4,
                   "--with-replacement", "--out", out)
    assert code == 0
    assert (out / "report.txt").exists()


def test_experiment_report_names_its_dataset(tmp_path, capsys):
    out = tmp_path / "kind"
    assert run_cli("experiment", "--kind", "interaction", "--options", 6,
                   "--methods", "flash,random", "--repeats", 1,
                   "--size", 8, "--budget", 5, "--seed", 1, "--out", out) == 0
    assert "dataset: interaction(6 options)\n" in (out / "report.txt").read_text()
    assert "dataset: interaction(6 options)\n" in capsys.readouterr().out

    manifest, data, _ = synth_files(tmp_path, kind="bi-objective-tradeoff", options=5)
    out = tmp_path / "files"
    assert run_cli("experiment", "--manifest", manifest, "--data", data,
                   "--objectives", "perf_b", "--methods", "flash,random", "--repeats", 1,
                   "--size", 8, "--budget", 5, "--seed", 1, "--out", out) == 0
    assert f"dataset: {data}\n" in (out / "report.txt").read_text()
    assert f"dataset: {data}\n" in capsys.readouterr().out
