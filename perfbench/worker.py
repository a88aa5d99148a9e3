"""One workload process of the benchmark; started by run.py, never by hand.

Modes:
  prepare  write the workload's inputs (untimed)
  setup    import flashtune, build the workload's dataset, print "ready", exit
  measure  as setup, then one warm-up op and the timed closed loop; the last
           line of output is a JSON object of raw measurements

The parent sets OPENBLAS_NUM_THREADS and OMP_NUM_THREADS before this process
starts, so numpy's BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# The tail percentile needs ten ops beyond it, and quality figures and the
# digest cover this many ops so that they do not depend on run speed.
MIN_OPS = 12
# Each traced pair runs one op plain and one traced on the same seed.
MIN_TRACED_PAIRS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--mode", choices=("prepare", "setup", "measure"), required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--work", type=Path, required=True)
    p.add_argument("--spans", type=Path)
    return p.parse_args(argv)


class Tally:
    """Check results over the timed ops; quality figures over the first MIN_OPS."""

    def __init__(self):
        self.runs = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counted = 0
        self.measurements: list[int] = []
        self.rd: list[int] = []
        self.igd: list[float] = []
        self.digest = hashlib.sha256()

    def add(self, outcome, quality: bool) -> None:
        self.runs += outcome.runs
        self.failed += outcome.failed
        self.problems.extend(outcome.problems[:3 - len(self.problems)])
        if quality and self.counted < MIN_OPS:
            self.counted += 1
            self.measurements += outcome.measurements
            self.rd += outcome.rd
            self.igd += outcome.igd
            self.digest.update(len(outcome.digest_input).to_bytes(8, "little"))
            self.digest.update(outcome.digest_input)

    def as_dict(self) -> dict:
        def figure(name: str, unit: str, values: list, stat) -> dict:
            return {name: {"value": stat(values) if values else None, "unit": unit,
                           "samples": len(values)}}

        return {
            "runs": self.runs, "failed": self.failed, "problems": self.problems,
            "quality": {
                **figure("measurements.mean", "count", self.measurements, statistics.fmean),
                **figure("rd.median", "rank", self.rd, statistics.median),
                **figure("igd.median", "distance", self.igd, statistics.median),
                "digest": {"value": self.digest.hexdigest(), "ops": self.counted},
            },
        }


def checked(workload, output, tally: Tally, quality: bool) -> None:
    tally.add(workload.check(output), quality)


def measure_plain(workload, base: int, seconds: float, tally: Tally) -> dict:
    checked(workload, workload.op(base), tally, quality=False)  # warm-up
    op_s = []
    runs_before = tally.runs
    start = time.perf_counter()
    deadline = start + seconds
    i = 1
    while True:
        t0 = time.perf_counter()
        output = workload.op(base + i)
        t1 = time.perf_counter()
        op_s.append(t1 - t0)
        checked(workload, output, tally, quality=True)
        i += 1
        if t1 >= deadline and len(op_s) >= MIN_OPS:
            break
    return {"op_s": op_s, "timed_s": t1 - start, "timed_runs": tally.runs - runs_before}


def measure_traced(workload, tracer, base: int, seconds: float, tally: Tally) -> dict:
    """Alternate plain and traced ops on the same seeds; the ratio of their
    medians is the tracing overhead."""
    checked(workload, workload.op(base), tally, quality=False)  # warm-up
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    i = 1
    while time.perf_counter() < deadline or len(plain) < MIN_TRACED_PAIRS:
        for kind in (("plain", "traced") if i % 2 else ("traced", "plain")):
            if kind == "plain":
                t0 = time.perf_counter()
                output = workload.op(base + i)
                plain.append(time.perf_counter() - t0)
                checked(workload, output, tally, quality=True)
                continue
            first = len(tracer.spans)
            output = tracer.run_op(i, workload.op, base + i)
            _, start, end = tracer.ops[-1]
            traced.append(end - start)
            outcome = workload.check(output)
            measured = sum(outcome.measurements)
            calls = sum(1 for s in tracer.spans[first:] if s[0] == "space.measure")
            if not outcome.failed and calls != measured:
                outcome.problems.append(
                    f"op {i}: {calls} oracle calls for {measured} measurements")
                outcome.failed = outcome.runs
            tally.add(outcome, quality=False)
        i += 1
    return {"plain_op_s": plain, "traced_op_s": traced}


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import flashtune

    src = (ROOT / "src" / "flashtune").resolve()
    if Path(flashtune.__file__).resolve().parent != src:
        print(f"imported flashtune from {flashtune.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    if args.mode == "prepare":
        cls.prepare(args.work, args.seed, args.size)
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = cls(args.work, args.seed, args.size)
    if tracer is not None:
        tracer.uninstall()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tally = Tally()
    if tracer is None:
        result = measure_plain(workload, args.seed, args.seconds, tally)
    else:
        result = measure_traced(workload, tracer, args.seed, args.seconds, tally)
        summary = tracer.summary(count_ops=MIN_TRACED_PAIRS)
        overhead = (statistics.median(result["traced_op_s"])
                    / statistics.median(result["plain_op_s"]) - 1.0)
        result["layers"] = tracing.layer_metrics(summary, overhead)
        result["top_self"] = tracing.top_self_layers(summary)
        if args.spans is not None:
            tracer.write(args.spans)
    result.update(tally.as_dict())
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
