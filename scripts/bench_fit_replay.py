#!/usr/bin/env python3
"""Time `cart.fit` on the calls flash makes, in a base commit and in the
working tree, on the same recorded inputs.

    PYTHONPATH=src python scripts/bench_fit_replay.py --base HEAD~1 --k 5

The table is every combination of `--options` integer options of 4 levels
(4^8 = 65,536 rows by default, the size of the benchmark's `tune-int-65k`
table).  Its one minimized objective is a seed-drawn sum of absolute
distances to a hidden optimum and of pairwise products, added one column at
a time, so the table does not depend on the BLAS kernel.  The script runs
`--runs` `flash_single` runs on it (size 30, budget 50, default CART
params, seeds 0 to runs - 1) with the `flashtune` on `PYTHONPATH`, the
working tree's, and records every `cart.fit` call's rows and targets, in
order.

Then one process per side replays the calls: the base side is `git archive
REV` extracted into a temporary directory, the head side is the working
tree's `src/`, and the base runs first.  A process replays each run's calls
through one fresh fit memo, as flash does, `--k` times, and reports its
best pass in µs per fit and the SHA-256 of the trees' `repr`s.

The script writes `--out` (`BENCH_cart_fit.json` at the repository root by
default): the CPU count, the Python and numpy versions, both revisions,
the table, the number of fits, k, each side's best µs per fit, the head /
base ratio and whether the two sides grew the same trees.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

from flashtune import cart, flash, space

ROOT = Path(__file__).resolve().parents[1]
LEVELS = 4
SIZE, BUDGET = 30, 50


def table(n_options: int):
    """The `LEVELS`**`n_options` grid and its objective (see the module docstring)."""
    rng = np.random.default_rng(0)
    X = np.array(list(itertools.product(range(LEVELS), repeat=n_options)), dtype=float)
    center = rng.integers(0, LEVELS, size=n_options)
    weights = rng.uniform(0.5, 2.0, size=n_options)
    y = np.ones(len(X))
    for j in range(n_options):
        y = y + weights[j] * np.abs(X[:, j] - center[j])
    for j, k in itertools.combinations(range(n_options), 2):
        if rng.random() < 2.0 / n_options:
            y = y + rng.uniform(-2.0, 2.0) * X[:, j] * X[:, k] / (LEVELS - 1)
    return X, y - y.min() + 1.0


def record(n_options: int, runs: int) -> dict:
    """The rows and targets of every `cart.fit` call of `runs` flash runs on
    `table(n_options)`, concatenated, with each fit's row count and each
    run's fit count."""
    X, y = table(n_options)
    options = [space.OptionSchema(f"o{j}", space.INTEGER, 0, LEVELS - 1)
               for j in range(n_options)]
    ds = space.Dataset(options, [space.ObjectiveSchema("y", space.MINIMIZE)], X, y[:, None])
    fits: list = []
    real_fit = cart.fit

    def recording(xs, ys, params=cart.CartParams(), *, memo=None):
        fits.append((np.array(xs, dtype=float), np.array(ys, dtype=float)))
        return real_fit(xs, ys, params, memo=memo)

    per_run = []
    cart.fit = recording
    try:
        for seed in range(runs):
            before = len(fits)
            flash.flash_single(ds.candidates(), space.TableOracle(ds),
                               flash.FlashParams(size=SIZE, budget=BUDGET, seed=seed))
            per_run.append(len(fits) - before)
    finally:
        cart.fit = real_fit
    return {"X": np.concatenate([f[0] for f in fits]), "y": np.concatenate([f[1] for f in fits]),
            "rows": np.array([f[1].size for f in fits]), "runs": np.array(per_run)}


def replay(path: Path, k: int) -> dict:
    """Best-of-`k` µs per fit over the calls recorded in `path`, and the
    digest of the trees."""
    with np.load(path) as data:
        X, y, rows, per_run = data["X"], data["y"], data["rows"], data["runs"]
    ends = np.cumsum(rows).tolist()
    calls = [(X[end - n:end], y[end - n:end]) for n, end in zip(rows.tolist(), ends)]
    run_ends = np.cumsum(per_run).tolist()
    runs = [calls[first:last] for first, last in zip([0] + run_ends[:-1], run_ends)]
    params = cart.CartParams()
    best, trees = float("inf"), []
    for _ in range(k):
        grown = []
        start = time.perf_counter()
        for run in runs:
            memo: dict = {}
            for xs, ys in run:
                grown.append(cart.fit(xs, ys, params, memo=memo))
        best = min(best, time.perf_counter() - start)
        trees = trees or grown
    digest = hashlib.sha256("\n".join(map(repr, trees)).encode()).hexdigest()
    return {"us_per_fit": best / len(calls) * 1e6, "digest": digest}


def replay_in(src: Path, path: Path, k: int) -> dict:
    """`replay` in a new process whose `flashtune` is the one in `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__, "--replay", str(path), "--k", str(k)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", help="git revision of the base side")
    parser.add_argument("--k", type=int, default=5, help="replay passes per side")
    parser.add_argument("--options", type=int, default=8, help="options of the 4-level table")
    parser.add_argument("--runs", type=int, default=20, help="flash runs recorded")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cart_fit.json")
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)  # a side's process
    args = parser.parse_args(argv)
    if args.k < 1 or args.runs < 1:
        parser.error("--k and --runs must be >= 1")
    if args.replay:
        print(json.dumps(replay(args.replay, args.k)))
        return 0
    if not args.base:
        parser.error("--base is required")
    if LEVELS ** args.options <= SIZE + BUDGET:
        parser.error(f"a {LEVELS}^{args.options} table leaves flash nothing to fit")

    with tempfile.TemporaryDirectory(prefix="bench-fit-replay-") as tmp:
        calls = Path(tmp) / "calls.npz"
        recorded = record(args.options, args.runs)
        np.savez(calls, **recorded)
        archive = subprocess.run(["git", "archive", "--format=tar", args.base, "src"], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(Path(tmp) / "base",
                           **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
        base = replay_in(Path(tmp) / "base" / "src", calls, args.k)
        head = replay_in(ROOT / "src", calls, args.k)

    dirty = bool(git("status", "--porcelain", "--", "src"))
    result = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timing": f"best of {args.k} passes, time.perf_counter, one process per side",
        "base": git("rev-parse", args.base),
        "head": git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
        "table": f"{LEVELS}^{args.options} integer grid, {LEVELS ** args.options} rows",
        "flash_runs": args.runs,
        "fits": int(recorded["rows"].size),
        "rows_mean": round(float(recorded["rows"].mean()), 2),
        "k": args.k,
        "us_per_fit": {"base": round(base["us_per_fit"], 2), "head": round(head["us_per_fit"], 2)},
        "ratio": round(head["us_per_fit"] / base["us_per_fit"], 4),
        "same_trees": base["digest"] == head["digest"],
    }
    args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
