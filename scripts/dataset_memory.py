#!/usr/bin/env python3
"""Memory a measured table costs: what a `Dataset` keeps, and the peaks of
writing and reading it back.

    python scripts/dataset_memory.py --rows 65536 --options 8

The table has `--rows` distinct rows drawn from the grid of `--options`
integer options of `LEVELS` levels each, in random order, and one
minimized objective of random doubles.  It is written with `save_dataset` to
a temporary directory and read back with `load_dataset`.  Three figures are
traced with `tracemalloc`, which counts the allocations Python and numpy
make, not the process's resident set:

* `kept`: the memory still held after `load_dataset` returns, that is, the
  loaded `Dataset` alone;
* `save_peak`: the peak above the start of `save_dataset`;
* `load_peak`: the peak above the start of `load_dataset`.

`table` is the bytes of `configs` plus `values`, the numbers themselves.
An MB is 2**20 bytes, as in the benchmark's `peak_rss_mb`.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from flashtune.space import Dataset, ObjectiveSchema, OptionSchema, load_dataset, save_dataset

MB = 2 ** 20
LEVELS = 5
SEED = 0


def grid_dataset(rows: int, options: int) -> Dataset:
    """`rows` distinct points of the `LEVELS`**`options` grid, in random order."""
    if options < 1 or rows > LEVELS ** options:
        raise ValueError(f"{LEVELS}**{options} grid points cannot hold {rows} distinct rows")
    rng = np.random.default_rng(SEED)
    codes = rng.choice(LEVELS ** options, size=rows, replace=False)
    X = np.stack([(codes // LEVELS ** j) % LEVELS for j in range(options)], axis=1)
    return Dataset([OptionSchema(f"o{j}", "integer", 0, LEVELS - 1) for j in range(options)],
                   [ObjectiveSchema("y", "minimize")], X, rng.normal(size=(rows, 1)))


def traced(call):
    """The result of `call()`, the traced memory it leaves held and its peak,
    both above the memory traced when it started.  Tracing that was already
    on is left on."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return result, current - start, peak - start


def measure(rows: int, options: int) -> dict[str, float]:
    """The figures in bytes: `table`, `kept`, `save_peak` and `load_peak`."""
    ds = grid_dataset(rows, options)
    with tempfile.TemporaryDirectory() as tmp:
        m, d = Path(tmp) / "manifest.txt", Path(tmp) / "data.csv"
        _, _, save_peak = traced(lambda: save_dataset(ds, m, d))
        del ds
        loaded, kept, load_peak = traced(lambda: load_dataset(m, d))
    table = loaded.configs.nbytes + loaded.values.nbytes
    return {"table": table, "kept": kept, "save_peak": save_peak, "load_peak": load_peak}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--options", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        figures = measure(args.rows, args.options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"rows {args.rows}, options {args.options}, levels {LEVELS}")
    for name in ("table", "kept", "save_peak", "load_peak"):
        print(f"{name:<10} {figures[name] / MB:8.2f} MB  "
              f"{figures[name] / figures['table']:5.2f} x table")
    return 0


if __name__ == "__main__":
    sys.exit(main())
