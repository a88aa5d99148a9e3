#!/usr/bin/env python3
"""flashtune benchmark: one workload per invocation, in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload tune-int-65k --seed 1 --seconds 30 --trace 0

One client, one process, one thread: the next op starts when the previous one
returns, and op i uses seed base + i.  The workload runs in fresh child
processes with BLAS pinned to one thread.  This launcher imports no numpy.

  --trace 0  end-to-end metrics with tracing off
  --trace 1  per-layer metrics from spans around each layer's entry points

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the details (sample
counts, tail percentile, quality figures, digest, environment).  Without the
flashtune sources under src/ the benchmark exits with code 2 and prints no
result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from tracer import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("tune-int-65k", "rig-single", "rig-multi")
# Units of the timing figures of a plain run.
UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "runs_per_s": "1/s",
         "peak_rss_mb": "MB"}
# The figures reported as metrics with --trace 0.  The median op latency is in
# the details only: on a host whose speed flips between two states every few
# seconds it lands on either state's mode, and its run-to-run spread exceeds
# any bound the benchmark may set (see README.md).
END_TO_END = ("setup_s", "op_s.tail", "runs_per_s", "peak_rss_mb")
# set-up is timed in this many fresh processes; setup_s is their median
SETUP_SAMPLES = 3
# the whole invocation must end within 180 s
DEADLINE_S = 170.0
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every workload on a small table, for the smoke test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    return args


class Children:
    """Starts worker processes and kills any still running at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = {**os.environ, **CHILD_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

    def start(self, args: argparse.Namespace, mode: str, work: Path, *extra: str):
        cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--work", str(work), *extra]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        timer = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        return proc, timer

    def run(self, args, mode: str, work: Path, *extra: str) -> tuple[float, list[str]]:
        """Run one worker to the end; returns (seconds from start to "ready",
        lines after it)."""
        t0 = time.perf_counter()
        proc, timer = self.start(args, mode, work, *extra)
        try:
            ready = None
            lines = []
            for line in proc.stdout:
                if ready is None and line.strip() == "ready":
                    ready = time.perf_counter() - t0
                else:
                    lines.append(line)
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if code != 0:
            raise BenchError(f"worker {mode} exited with code {code}")
        return (ready if ready is not None else 0.0), lines


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten values
    beyond it."""
    ordered = sorted(values)
    k = len(ordered) - 10  # 1-based rank with exactly ten values above it
    if k < 1:
        raise BenchError(f"{len(ordered)} ops are too few for a tail percentile")
    return ordered[k - 1], 100.0 * k / len(ordered)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    if not (ROOT / "src" / "flashtune" / "__init__.py").is_file():
        raise BenchError(f"no flashtune sources under {ROOT / 'src'}")
    children = Children(time.monotonic() + DEADLINE_S)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        children.run(args, "prepare", work)
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(children.run(args, "setup", work)[0])
        spans = OUT / f"spans-{args.workload}.jsonl"
        extra = ("--spans", str(spans)) if args.trace else ()
        ready, lines = children.run(args, "measure", work, *extra)
        setups.append(ready)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not lines:
        raise BenchError("the measuring worker printed no result")
    raw = json.loads(lines[-1])

    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "commit": git_commit(), "env": raw["env"],
               "problems": raw["problems"]}
    figures = {"failed_share": {"value": raw["failed"] / raw["runs"], "unit": "ratio",
                                "samples": raw["runs"]}}
    if args.trace:
        metrics = {name: {"value": raw["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for kind in ("plain", "traced"):
            op_s = raw[f"{kind}_op_s"]
            figures[f"{kind}_op_s.p50"] = {"value": statistics.median(op_s), "unit": "s",
                                           "samples": len(op_s)}
        details.update(top_self_s_per_op=raw["top_self"], spans=str(spans.relative_to(ROOT)))
    else:
        op_s = raw["op_s"]
        tail_s, tail_pct = tail(op_s)
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "op_s.p50": (statistics.median(op_s), len(op_s)),
            "op_s.tail": (tail_s, len(op_s)),
            "runs_per_s": (raw["timed_runs"] / raw["timed_s"], raw["timed_runs"]),
            "peak_rss_mb": (raw["peak_rss_mb"], 1),
        }
        for name, (value, samples) in values.items():
            figures[name] = {"value": value, "unit": UNITS[name], "samples": samples}
        metrics = {name: {"value": figures[name]["value"], "unit": UNITS[name]}
                   for name in END_TO_END}
        figures["op_s.tail"]["percentile"] = tail_pct
        figures["op_s.p50"]["each"] = op_s
        figures["setup_s"]["each"] = setups
    figures.update(raw["quality"])
    details["figures"] = figures
    result = {"correct": raw["failed"] == 0 and not raw["problems"],
              "attempted": raw["runs"], "failed": raw["failed"], "metrics": metrics}
    return details, result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        details, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
