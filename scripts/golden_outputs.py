#!/usr/bin/env python3
"""Run a fixed list of CLI commands and keep everything they produce.

For each seed (1 and 7) the script generates its tables (three synthetic
kinds through `flashtune synth`, a 125-row integer table with one minimized
and one maximized objective that it writes itself, a messy copy of that
table as a spreadsheet might export it, a 64-row integer table with
three objectives, and two small tables that fail to load), then runs
`tune`, `tune-mo`, `baseline` with every method, `eval` (also on front files
that spell zero as `-0` or `-0.0`, or name a configuration the table lacks),
single- and multi-objective `experiment` (one of them on two of the three
objectives), eight failing commands and the synthetic rig script on them:
646 files in all.  Each command gets its own directory holding `command.txt`,
`stdout.txt`, `stderr.txt`, `exit_code.txt` and every file the command
wrote.  Commands run from inside the seed's directory with relative paths,
and the absolute output directory is replaced by `<OUT>` in stdout and
stderr, so two runs into different directories can be compared with
`diff -r`.

The package and the rig script are taken from this checkout, so running the
script in two checkouts and diffing the two outputs shows every byte a
change moved:

    python scripts/golden_outputs.py --out /tmp/golden_a
    python scripts/golden_outputs.py --out /tmp/golden_b
    diff -r /tmp/golden_a /tmp/golden_b
"""

from __future__ import annotations

import argparse
import csv
import itertools
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)
PLACEHOLDER = "<OUT>"


def write_integer_table(table: Path, seed: int) -> None:
    """A 5x5x5 integer space; `lat` is minimized and `thr` maximized, so the
    two objectives trade off.  The true front is computed here by brute force
    so that no package code decides it."""
    rng = random.Random(seed)
    table.mkdir(parents=True)
    (table / "manifest.txt").write_text(
        "option a int 0 4\noption b int 0 4\noption c int 0 4\n"
        "objective lat minimize\nobjective thr maximize\n", encoding="utf-8")
    rows = []
    for a in range(5):
        for b in range(5):
            for c in range(5):
                lat = round(1.0 + 0.7 * a + 0.3 * b * c + rng.random(), 3)
                thr = round(2.0 + 0.9 * a + 0.2 * b + 0.1 * c * c + rng.random(), 3)
                rows.append((a, b, c, lat, thr))
    with open(table / "data.csv", "w", encoding="utf-8") as fh:
        fh.write("a,b,c,lat,thr\n")
        for r in rows:
            fh.write(",".join(str(v) for v in r) + "\n")
    front = [r for r in rows
             if not any(s[3] <= r[3] and s[4] >= r[4] and (s[3] < r[3] or s[4] > r[4])
                        for s in rows)]
    with open(table / "front.csv", "w", encoding="utf-8") as fh:
        fh.write("a,b,c\n")
        for r in front:
            fh.write(f"{r[0]},{r[1]},{r[2]}\n")


def write_tri_table(table: Path, seed: int) -> None:
    """A 4x4x4 integer space with three objectives: `lat` minimized, `thr`
    maximized and `mem` minimized, so an experiment may search two of them
    while the third sits between or beside them."""
    rng = random.Random(seed)
    table.mkdir(parents=True)
    (table / "manifest.txt").write_text(
        "option a int 0 3\noption b int 0 3\noption c int 0 3\n"
        "objective lat minimize\nobjective thr maximize\nobjective mem minimize\n",
        encoding="utf-8")
    with open(table / "data.csv", "w", encoding="utf-8") as fh:
        fh.write("a,b,c,lat,thr,mem\n")
        for a, b, c in itertools.product(range(4), repeat=3):
            lat = round(1.0 + 0.8 * a + 0.4 * b * c + rng.random(), 3)
            thr = round(2.0 + 0.6 * a + 0.5 * b + rng.random(), 3)
            mem = round(3.0 + 1.1 * c - 0.3 * a + rng.random(), 3)
            fh.write(f"{a},{b},{c},{lat},{thr},{mem}\n")


def write_messy_copy(table: Path, messy: Path) -> None:
    """`table` again, written by hand with a shuffled header, a quoted text
    column holding commas and quotes, CRLF line ends, a blank line after
    every tenth row and no final newline.  The loader must read it as the
    same table, through its csv loop."""
    messy.mkdir(parents=True)
    shutil.copy(table / "manifest.txt", messy / "manifest.txt")
    with open(table / "data.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    order = ["thr", "note", "c", "a", "lat", "b"]
    lines = [",".join(order)]
    for k, row in enumerate(rows, start=1):
        row["note"] = f'"row {k}, ""as measured"""'
        lines.append(",".join(row[name] for name in order))
        if k % 10 == 0:
            lines.append("")
    (messy / "data.csv").write_bytes("\r\n".join(lines).encode("utf-8"))


def write_bad_tables(table: Path) -> None:
    """One manifest and two data files, each holding two bad cells, so that
    a failing `tune` shows which one the loader reports: `domain.csv` has a
    value outside its domain in row 1, column `b`, and another in row 2,
    column `a`; `parse.csv` has a value outside its domain in row 2 before
    a cell that does not parse in the same row."""
    table.mkdir(parents=True)
    (table / "manifest.txt").write_text(
        "option a int 0 3\noption b int 0 3\nobjective y minimize\n", encoding="utf-8")
    (table / "domain.csv").write_text("a,b,y\n0,5,1\n7,0,2\n1,1,3\n", encoding="utf-8")
    (table / "parse.csv").write_text("a,b,y\n0,0,1\n0,7,x\n1,1,3\n", encoding="utf-8")


def write_front_variants(table: Path) -> None:
    """Front files that name `table`'s configurations in other spellings:
    `front-zeros.csv` (the true front) and `approx-zeros.csv` (every other
    front row) write each zero as `-0`, `0.0` or `-0.0` in
    turn, and `absent.csv` names a front row and then a configuration the
    table lacks."""
    with open(table / "front.csv", newline="", encoding="utf-8") as fh:
        header, *front = list(csv.reader(fh))
    zeros = itertools.cycle(["-0", "0.0", "-0.0"])

    def write(name: str, rows: list[list[str]]) -> None:
        lines = [",".join(header)]
        lines += [",".join(next(zeros) if cell == "0" else cell for cell in row) for row in rows]
        (table / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    write("front-zeros.csv", front)
    write("approx-zeros.csv", front[::2])
    write("absent.csv", [front[0], ["1", "2", "5"]])


def commands(seed: int) -> list[tuple[str, list[str]]]:
    """(name, argv) pairs; paths are relative to the seed directory, and
    every command but `eval` writes into `<name>/out`."""
    s = str(seed)
    cli = [sys.executable, "-m", "flashtune"]

    def table(name):
        return ["--manifest", f"tables/{name}/manifest.txt", "--data", f"tables/{name}/data.csv"]

    cmds = [(f"synth-{kind}", cli + ["synth", "--kind", kind, "--options", "6", "--seed", s])
            for kind in ("single-peak", "interaction", "bi-objective-tradeoff")]
    cmds += [
        ("tune-single-peak", cli + ["tune", *table("single-peak"), "--size", "20", "--budget",
                                    "15", "--seed", s, "--dump-tree"]),
        ("tune-interaction", cli + ["tune", *table("interaction"), "--seed", s]),
        ("tune-int-lat", cli + ["tune", *table("int"), "--objective", "lat", "--size", "15",
                                "--budget", "10", "--seed", s, "--dump-tree"]),
        ("tune-int-thr", cli + ["tune", *table("int"), "--objective", "thr", "--size", "15",
                                "--budget", "10", "--seed", s, "--dump-tree"]),
        ("tune-messy", cli + ["tune", *table("messy"), "--objective", "lat", "--size", "15",
                              "--budget", "10", "--seed", s, "--dump-tree"]),
        ("tune-mo-bi", cli + ["tune-mo", *table("bi-objective-tradeoff"), "--size", "15",
                              "--budget", "15", "--seed", s]),
        ("tune-mo-int", cli + ["tune-mo", *table("int"), "--size", "15", "--budget", "15",
                               "--seed", s]),
    ]
    for name in ("single-peak", "interaction", "bi-objective-tradeoff", "int"):
        methods = ["flash", "progressive", "rank", "random"]
        if name in ("bi-objective-tradeoff", "int"):
            methods.append("epal")
        for method in methods:
            cmds.append((f"baseline-{name}-{method}",
                         cli + ["baseline", *table(name), "--method", method, "--size", "15",
                                "--budget", "10", "--seed", s]))
    cmds += [
        ("baseline-int-thr-rank", cli + ["baseline", *table("int"), "--method", "rank",
                                         "--objective", "thr", "--seed", s]),
        ("baseline-messy-random-thr", cli + ["baseline", *table("messy"), "--method", "random",
                                             "--objective", "thr", "--size", "15", "--budget",
                                             "10", "--seed", s]),
        ("baseline-single-peak-progressive-replacement",
         cli + ["baseline", *table("single-peak"), "--method", "progressive",
                "--with-replacement", "--seed", s]),
        ("baseline-bi-epal-0.3", cli + ["baseline", *table("bi-objective-tradeoff"), "--method",
                                        "epal", "--epsilon", "0.3", "--seed", s]),
        ("eval-bi", cli + ["eval", *table("bi-objective-tradeoff"),
                           "--true-front", "tables/bi-objective-tradeoff/data.csv",
                           "--approx-front", "tune-mo-bi/out/front.csv"]),
        ("eval-int", cli + ["eval", *table("int"), "--true-front", "tables/int/front.csv",
                            "--approx-front", "tune-mo-int/out/front.csv"]),
        ("eval-int-zeros", cli + ["eval", *table("int"), "--true-front",
                                  "tables/int/front-zeros.csv", "--approx-front",
                                  "tables/int/approx-zeros.csv"]),
        ("experiment-single", cli + ["experiment", "--kind", "interaction", "--options", "6",
                                     "--methods", "flash,progressive,rank,random:40",
                                     "--repeats", "3", "--size", "15", "--budget", "10",
                                     "--seed", s]),
        ("experiment-multi", cli + ["experiment", "--kind", "bi-objective-tradeoff", "--options",
                                    "6", "--methods", "flash,epal:0.01,epal:0.3", "--repeats",
                                    "3", "--size", "15", "--budget", "15", "--seed", s]),
        ("experiment-int-thr", cli + ["experiment", *table("int"), "--objectives", "thr",
                                      "--methods", "flash,progressive,random", "--repeats", "3",
                                      "--size", "15", "--budget", "10", "--seed", s]),
        ("experiment-int-multi", cli + ["experiment", *table("int"), "--methods", "flash,epal",
                                        "--repeats", "2", "--size", "15", "--budget", "10",
                                        "--seed", s]),
        ("experiment-tri-lat-mem", cli + ["experiment", *table("tri"), "--objectives",
                                          "lat,mem", "--methods", "flash,epal,random",
                                          "--repeats", "2", "--size", "15", "--budget", "10",
                                          "--seed", s]),
        ("fail-tune-mo-single", cli + ["tune-mo", *table("single-peak"), "--seed", s]),
        ("fail-tune-objective", cli + ["tune", *table("int"), "--objective", "nosuch",
                                       "--seed", s]),
        # refused before the run, so it leaves no out/ directory
        ("fail-baseline-epal-single", cli + ["baseline", *table("single-peak"), "--method",
                                             "epal", "--seed", s]),
        ("fail-baseline-epal-objective", cli + ["baseline", *table("int"), "--method", "epal",
                                                "--objective", "0", "--seed", s]),
        ("fail-eval-foreign", cli + ["eval", *table("int"), "--true-front", "tables/int/front.csv",
                                     "--approx-front", "tables/bi-objective-tradeoff/data.csv"]),
        ("fail-eval-absent", cli + ["eval", *table("int"), "--true-front", "tables/int/front.csv",
                                    "--approx-front", "tables/int/absent.csv"]),
        ("fail-tune-bad-domain", cli + ["tune", "--manifest", "tables/bad/manifest.txt",
                                        "--data", "tables/bad/domain.csv", "--seed", s]),
        ("fail-tune-bad-parse", cli + ["tune", "--manifest", "tables/bad/manifest.txt",
                                       "--data", "tables/bad/parse.csv", "--seed", s]),
        ("rig", [sys.executable, str(ROOT / "scripts" / "run_synthetic_rig.py"), "--repeats", "1",
                 "--options", "6", "--seed", s]),
    ]
    return [(name, argv if "eval" in argv[:4] else argv + ["--out", f"{name}/out"])
            for name, argv in cmds]


def run(name: str, argv: list[str], cwd: Path, out: Path, env: dict) -> None:
    target = cwd / name
    target.mkdir(exist_ok=True)
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    shown = ["python" if a == sys.executable else a for a in argv]
    shown = [a.replace(str(ROOT), "<ROOT>") for a in shown]
    (target / "command.txt").write_text(" ".join(shown) + "\n", encoding="utf-8")
    for stream, text in (("stdout", proc.stdout), ("stderr", proc.stderr)):
        (target / f"{stream}.txt").write_text(text.replace(str(out), PLACEHOLDER),
                                              encoding="utf-8")
    (target / "exit_code.txt").write_text(f"{proc.returncode}\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True,
                        help="directory to create; it must not exist yet")
    args = parser.parse_args(argv)
    out = args.out.resolve()
    if out.exists():
        parser.error(f"{out} already exists")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"

    for seed in SEEDS:
        cwd = out / f"seed{seed}"
        cwd.mkdir(parents=True)
        write_integer_table(cwd / "tables" / "int", seed)
        write_messy_copy(cwd / "tables" / "int", cwd / "tables" / "messy")
        write_front_variants(cwd / "tables" / "int")
        write_tri_table(cwd / "tables" / "tri", seed)
        write_bad_tables(cwd / "tables" / "bad")
        for name, argv_ in commands(seed):
            run(name, argv_, cwd, out, env)
            if name.startswith("synth-"):
                shutil.copytree(cwd / name / "out", cwd / "tables" / name[len("synth-"):])
        failed = sorted(p.parent.name for p in cwd.glob("*/exit_code.txt")
                        if p.read_text() != "0\n" and not p.parent.name.startswith("fail-"))
        if failed:
            print(f"seed {seed}: unexpected failures: {', '.join(failed)}", file=sys.stderr)
            return 1
    print(f"golden outputs -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
