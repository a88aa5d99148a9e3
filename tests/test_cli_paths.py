"""The CLI's single-run path and its exit-code mapping.

`tune` and `tune-mo` run flash through `harness.run_method` on the whole
table; the files they write are compared byte for byte with files written
here from direct `flash_single`/`flash_multi` calls on `dataset.candidates()`.
"""

import csv

import numpy as np
import pytest

from conftest import make_dataset
from flashtune import cli
from flashtune.cart import CartParams
from flashtune.flash import FlashParams, flash_multi, flash_single
from flashtune.runs import write_trace_csv
from flashtune.space import (
    MAXIMIZE,
    MINIMIZE,
    MeasureError,
    TableOracle,
    load_dataset,
    save_dataset,
)

SIZE, BUDGET = 10, 12


@pytest.fixture
def table(tmp_path):
    """A 5x5x3 integer table; `y0` is minimized and `y1` maximized."""
    rng = np.random.default_rng(5)
    configs = [(a, b, c) for a in range(5) for b in range(5) for c in range(3)]
    values = [(1.0 + 0.7 * a + 0.3 * b * c + rng.random(),
               2.0 + 0.9 * a + 0.1 * c * c + rng.random()) for a, b, c in configs]
    dataset = make_dataset(configs, values, directions=[MINIMIZE, MAXIMIZE])
    manifest, data = tmp_path / "manifest.txt", tmp_path / "data.csv"
    save_dataset(dataset, manifest, data)
    return manifest, data


def run_main(*args):
    return cli.main([str(a) for a in args])


def direct_trace(run, path, dataset):
    write_trace_csv(run, path, dataset.candidates(), dataset.option_names,
                    dataset.objective_names)
    return path.read_bytes()


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("objective", ["y0", "y1"])
def test_tune_writes_the_trace_of_a_direct_flash_single_call(tmp_path, table, seed, objective):
    manifest, data = table
    out = tmp_path / "out"
    assert run_main("tune", "--manifest", manifest, "--data", data, "--objective", objective,
                    "--size", SIZE, "--budget", BUDGET, "--seed", seed, "--out", out) == 0
    dataset = load_dataset(manifest, data)
    j = dataset.objective_names.index(objective)
    run = flash_single(dataset.candidates(), TableOracle(dataset),
                       FlashParams(size=SIZE, budget=BUDGET, seed=seed),
                       dataset.objectives[j].direction, CartParams(), j)
    assert (out / "trace.csv").read_bytes() == direct_trace(run, tmp_path / "direct.csv", dataset)
    summary = (out / "summary.txt").read_text().splitlines()
    assert f"best id: {run.best}" in summary
    assert summary[-2:] == [f"measurements used: {run.measurements_used}",
                            f"stop reason: {run.stop_reason}"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tune_mo_writes_the_trace_and_front_of_a_direct_flash_multi_call(tmp_path, table, seed):
    manifest, data = table
    out = tmp_path / "out"
    assert run_main("tune-mo", "--manifest", manifest, "--data", data, "--size", SIZE,
                    "--budget", BUDGET, "--projections", 4, "--seed", seed, "--out", out) == 0
    dataset = load_dataset(manifest, data)
    run = flash_multi(dataset.candidates(), TableOracle(dataset),
                      FlashParams(size=SIZE, budget=BUDGET, n_projections=4, seed=seed),
                      dataset.directions, CartParams())
    assert (out / "trace.csv").read_bytes() == direct_trace(run, tmp_path / "direct.csv", dataset)
    with open(tmp_path / "front.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "o00", "o01", "o02", "y0", "y1"])
        for i in run.front:
            writer.writerow([i, *map(repr, map(float, dataset.configs[i])),
                             *map(repr, map(float, dataset.values[i]))])
    assert (out / "front.csv").read_bytes() == (tmp_path / "front.csv").read_bytes()


def test_main_maps_each_error_class_to_its_prefix_and_exit_code(tmp_path, table, monkeypatch,
                                                                capsys):
    manifest, data = table
    files = ["--manifest", manifest, "--data", data]

    def outcome(*args):
        code = run_main(*args)
        return code, capsys.readouterr().err

    # a click usage error, an explicit UsageError, a DatasetError, a ValueError
    code, err = outcome("tune", *files, "--nosuch")
    assert (code, err.split(":")[0]) == (1, "error")
    code, err = outcome("baseline", *files, "--method", "epal", "--objective", "0",
                        "--out", tmp_path / "o")
    assert (code, err) == (1, "error: --objective does not apply to epal, which searches "
                              "every objective\n")
    code, err = outcome("tune", *files, "--objective", "nosuch", "--out", tmp_path / "o")
    assert (code, err) == (1, "validation error: unknown objective 'nosuch'; have ('y0', 'y1')\n")
    code, err = outcome("tune", *files, "--size", 0, "--out", tmp_path / "o")
    assert (code, err) == (1, "validation error: size must be >= 1\n")

    def down(self, config):
        raise MeasureError("probe down")

    with monkeypatch.context() as m:
        m.setattr(TableOracle, "measure", down)
        assert outcome("tune", *files, "--out", tmp_path / "o") == (
            2, "runtime failure: probe down\n")

    def broken(*args, **kwargs):
        raise TypeError("broken dispatch")

    monkeypatch.setattr(cli, "run_method", broken)
    assert outcome("tune-mo", *files, "--out", tmp_path / "o") == (
        2, "runtime failure: broken dispatch\n")
    assert not (tmp_path / "o").exists()


def test_commands_keep_their_order_of_option_checks(tmp_path, table, capsys):
    manifest, data = table
    bad = ["--manifest", manifest, "--data", data, "--size", 0, "--cart-min-leaf", 0,
           "--out", tmp_path / "o"]
    # every command checks the search options before the tree options
    for args in (["tune"], ["tune-mo"], ["baseline", "--method", "flash"],
                 ["experiment", "--repeats", 1]):
        assert run_main(*args, *bad) == 1
        assert capsys.readouterr().err == "validation error: size must be >= 1\n"
    assert not (tmp_path / "o").exists()


EXPERIMENT = ["experiment", "--methods", "flash", "--repeats", 1]


@pytest.mark.parametrize("first, then, name", [
    (["tune-mo"], ["tune"], "front.csv"),
    (["tune", "--dump-tree"], ["tune-mo"], "tree.txt"),
    (["tune", "--dump-tree"], ["baseline", "--method", "flash"], "tree.txt"),
    (["tune"], EXPERIMENT, "summary.txt"),
    (EXPERIMENT, ["tune"], "measurement_ratio.csv"),
])
def test_a_run_refuses_an_out_holding_another_commands_file(tmp_path, table, capsys, monkeypatch,
                                                           first, then, name):
    """A file the second command does not write would be left beside its
    outputs, describing another run; it is refused before any measurement,
    and the directory keeps the first command's files."""
    manifest, data = table
    out = tmp_path / "out"
    files = ["--manifest", manifest, "--data", data, "--size", SIZE, "--budget", BUDGET,
             "--out", out]
    assert run_main(*first, *files) == 0
    kept = {p.name: p.read_bytes() for p in out.iterdir()}
    assert name in kept
    capsys.readouterr()
    monkeypatch.setattr(TableOracle, "measure", lambda self, config: pytest.fail("measured"))
    assert run_main(*then, *files) == 1
    assert capsys.readouterr().err == (
        f"error: --out {out} holds {name}, which {then[0]} does not write\n")
    assert {p.name: p.read_bytes() for p in out.iterdir()} == kept


@pytest.mark.parametrize("command", [["tune", "--dump-tree"], ["tune-mo"],
                                     ["baseline", "--method", "flash"], EXPERIMENT])
def test_a_rerun_of_the_same_command_into_its_out_succeeds(tmp_path, table, command):
    manifest, data = table
    args = [*command, "--manifest", manifest, "--data", data, "--size", SIZE, "--budget", BUDGET,
            "--out", tmp_path / "out"]
    assert run_main(*args) == 0
    first = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
    assert run_main(*args) == 0
    assert {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()} == first
    assert set(first) <= cli.OUT_FILES[command[0]]
