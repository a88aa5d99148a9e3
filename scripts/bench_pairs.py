#!/usr/bin/env python3
"""Compare a base commit with the working tree on one benchmark workload, in
alternating pairs of `perfbench/run.py --trace 0` runs.

    python scripts/bench_pairs.py --base HEAD --workload rig-multi --pairs 4 --seconds 8 --seed 101

The base side is `git archive REV` extracted into a temporary directory, with
the working tree's `perfbench/` copied over its own, as CI does for the
digest check.  The change side is a copy of the working tree's `src/` and
`perfbench/` in the same temporary directory.  Pair i runs both sides at
seed `--seed` + i; the base goes first in even pairs and the change in odd
ones, so a drift in the host's speed does not always favour one side.

For each end-to-end metric of `BENCHMARK.json` the script prints the base
median with its quartiles, the change median and its ratio to the base
median, and in how many pairs the change was better, in the direction the
metric names.  Four verdicts follow.  `claim` is yes when the change won
at least 9 of every 10 pairs and its median is better than the base's by
more than the base's interquartile range, the rule for claiming a gain.
`beyond bound` is yes when the change median is worse than the base median
by more than the metric's relative `bound` in `BENCHMARK.json`, which the
script only reads, and `clears bound` is yes when it is better by more than
that bound.  `unresolved` is yes when the base's interquartile range is
wider than that bound of the base median, so the runs cannot tell a move of
the bound's size from the host's noise, unless every change run reads better
than every base run.  Each run is waited for (and killed with its workers if the
script is interrupted), and the temporary directory is removed on exit.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[dict], change: list[dict], end_to_end: list[dict]) -> list[dict]:
    """One row per end-to-end metric: the base median and quartiles, the
    change median and its ratio to the base median, the pairs in which the
    change was strictly better, and four verdicts.

    `claim`: the change won at least nine tenths of the pairs (ties count for
    neither side) and its median is better than the base's by more than the
    base's interquartile range.  `beyond_bound`: the change median is worse
    than the base median by more than the metric's relative `bound`, or None
    for a metric without one.  `clears_bound`: the change median is better
    than the base median by more than that bound, or None likewise.
    `unresolved`: the base's interquartile range is wider than that bound of
    the base median, and some change run reads no better than some base run;
    None likewise.

    `base[i]` and `change[i]` are pair i's `metrics` objects, each metric a
    `{"value": ...}`; `end_to_end` is `BENCHMARK.json`'s list of metrics,
    each with a `name`, `better` ("lower" or "higher") and optional `bound`."""
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change run per pair, and at least one pair")
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        b = [run[name]["value"] for run in base]
        c = [run[name]["value"] for run in change]
        q1, median, q3 = quartiles(b)
        change_median = statistics.median(c)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(b, c))
        gain = median - change_median if lower else change_median - median
        bound = metric.get("bound")
        separated = max(c) < min(b) if lower else min(c) > max(b)
        rows.append({"name": name, "better": metric["better"], "base_median": median,
                     "base_q1": q1, "base_q3": q3, "change_median": change_median,
                     "ratio": change_median / median if median else None,
                     "wins": wins, "pairs": len(b),
                     "claim": 10 * wins >= 9 * len(b) and gain > q3 - q1,
                     "beyond_bound": None if bound is None else -gain > bound * abs(median),
                     "clears_bound": None if bound is None else gain > bound * abs(median),
                     "unresolved": None if bound is None
                     else q3 - q1 > bound * abs(median) and not separated})
    return rows


def format_rows(rows: list[dict]) -> str:
    def verdict(flag):
        return "-" if flag is None else "yes" if flag else "no"

    lines = [f"{'metric':<12} {'better':<7} {'base median [q1, q3]':<28} "
             f"{'change median':<14} {'ratio':<7} {'wins':<6} {'claim':<6} "
             f"{'beyond bound':<13} {'clears bound':<13} unresolved"]
    for r in rows:
        base = f"{r['base_median']:.4g} [{r['base_q1']:.4g}, {r['base_q3']:.4g}]"
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        lines.append(f"{r['name']:<12} {r['better']:<7} {base:<28} "
                     f"{r['change_median']:<14.4g} {ratio:<7} {r['wins']}/{r['pairs']:<4} "
                     f"{verdict(r['claim']):<6} {verdict(r['beyond_bound']):<13} "
                     f"{verdict(r['clears_bound']):<13} {verdict(r['unresolved'])}")
    return "\n".join(lines)


def extract_base(rev: str, dest: Path) -> None:
    """`git archive rev` into `dest`, with the working tree's perfbench/."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses links out of dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    shutil.rmtree(dest / "perfbench", ignore_errors=True)
    copy_tree(ROOT / "perfbench", dest / "perfbench")


def copy_tree(src: Path, dest: Path) -> None:
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))


def bench(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One `perfbench/run.py --trace 0` run in `checkout`; its `metrics`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # a session of its own, so an interrupt can take the workers down too
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} in {checkout}: {result['failed']} failed runs")
    return result["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision of the base side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True, help="seed of pair 0")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        extract_base(args.base, sides["base"])
        for part in ("src", "perfbench"):
            copy_tree(ROOT / part, sides["change"] / part)
        runs: dict = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(bench(sides[side], args.workload, seed, args.seconds))
                values = ", ".join(f"{m['name']}={runs[side][-1][m['name']]['value']:.4g}"
                                   for m in end_to_end)
                print(f"pair {i} seed {seed} {side}: {values}", file=sys.stderr, flush=True)
    print(f"{args.workload}: base {args.base} vs working tree, {args.pairs} alternating pairs, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, --seconds {args.seconds}")
    print(format_rows(summarize(runs["base"], runs["change"], end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
