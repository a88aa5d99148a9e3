#!/usr/bin/env python3
"""Run the full desk-scale comparison rig on the bundled synthetic datasets.

Single-objective: flash vs progressive vs rank-based vs random search, scored
by rank difference and measurement count.  Multi-objective: flash vs two
epsilon variants of the active-learning baseline, scored by GD/IGD and
measurement count.  Everything is seeded; rerunning reproduces every file.

Usage:
    python scripts/run_synthetic_rig.py --out results/ [--repeats 20] [--seed 0]
"""

import argparse
import sys
from pathlib import Path

from flashtune.flash import FlashParams
from flashtune.harness import ExperimentSpec, MethodSpec, run_experiment, write_report
from flashtune.stats import SkParams


def run(spec: ExperimentSpec, out_dir: Path, title: str, timing: bool) -> None:
    text = write_report(run_experiment(spec), out_dir, timing)
    print(f"=== {title} ===")
    print(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--repeats", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--options", type=int, default=10,
                        help="boolean options per synthetic dataset (2**n rows)")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-time files (not reproducible byte for byte)")
    args = parser.parse_args(argv)

    single_methods = (
        MethodSpec("flash", options={"size": 30, "budget": 20}),
        MethodSpec("progressive"),
        MethodSpec("rank"),
        MethodSpec("random", options={"n": 50}),
    )
    for kind in ("single-peak", "interaction"):
        spec = ExperimentSpec(
            methods=single_methods,
            synthetic=(kind, args.options),
            repeats=args.repeats,
            seed=args.seed,
            flash=FlashParams(size=30, budget=20, seed=args.seed),
            sk=SkParams(seed=args.seed),
        )
        run(spec, args.out / kind, f"single-objective rig on {kind}", args.timing)

    mo_spec = ExperimentSpec(
        methods=(
            MethodSpec("flash"),
            MethodSpec("epal", "epal_0.01", {"epsilon": 0.01}),
            MethodSpec("epal", "epal_0.3", {"epsilon": 0.3}),
        ),
        synthetic=("bi-objective-tradeoff", args.options),
        repeats=args.repeats,
        seed=args.seed,
        flash=FlashParams(size=30, budget=50, seed=args.seed),
        sk=SkParams(seed=args.seed),
    )
    run(mo_spec, args.out / "bi-objective-tradeoff",
        "multi-objective rig on bi-objective-tradeoff", args.timing)
    return 0


if __name__ == "__main__":
    sys.exit(main())
