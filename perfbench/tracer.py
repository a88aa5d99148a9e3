"""Per-layer spans recorded from outside the program.

The tracer replaces each layer's public entry point, at the attribute its
callers look it up by, with a wrapper that records a span: layer name, start,
end, parent span and the op it belongs to.  Nothing under ``src/`` changes,
and the plain (untraced) run never installs the wrappers.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path

# (layer, owner, attribute).  The owner is a module, or "module:Class" for a
# method.  A function imported by name into another module is wrapped there
# too, because that module's callers look the name up in their own globals.
ENTRY_POINTS = (
    ("space.load_dataset", "flashtune.space", "load_dataset"),
    ("space.dataset_init", "flashtune.space:Dataset", "__init__"),
    ("space.candidates", "flashtune.space:Dataset", "candidates"),
    ("space.measure", "flashtune.space:TableOracle", "measure"),
    ("space.split", "flashtune.harness", "split"),
    ("synth.generate", "flashtune.synth", "generate_synthetic"),
    ("synth.generate", "flashtune.harness", "generate_synthetic"),
    ("cart.fit", "flashtune.cart", "fit"),
    ("cart.predict_batch", "flashtune.cart", "predict_batch"),
    ("flash.run", "flashtune.flash", "flash_single"),
    ("flash.run", "flashtune.flash", "flash_multi"),
    ("flash.run", "flashtune.harness", "flash_single"),
    ("flash.run", "flashtune.harness", "flash_multi"),
    ("flash.bazza_select", "flashtune.flash", "bazza_select"),
    ("gp.fit", "flashtune.baselines", "gp_fit"),
    ("gp.predict_batch", "flashtune.baselines", "gp_predict_batch"),
    ("baselines.epal", "flashtune.harness", "epal"),
    ("baselines.epsilon_discard", "flashtune.baselines", "epsilon_discard"),
    ("baselines.lives", "flashtune.harness", "progressive_sampling"),
    ("baselines.lives", "flashtune.harness", "rank_based"),
    ("baselines.random_search", "flashtune.harness", "random_search"),
    ("metrics.pareto_front", "flashtune.metrics", "pareto_front"),
    ("metrics.front_comparison", "flashtune.metrics", "front_comparison"),
    ("metrics.rank_difference", "flashtune.metrics", "rank_difference"),
    ("stats.scott_knott", "flashtune.harness", "scott_knott"),
    ("harness.run_experiment", "flashtune.harness", "run_experiment"),
    ("harness.report", "flashtune.harness", "render_report"),
    ("harness.report", "flashtune.harness", "write_raw_results"),
    ("harness.report", "flashtune.harness", "emit_plot_data"),
    ("runs.write_trace_csv", "flashtune.runs", "write_trace_csv"),
)

# Counts taken from a call's arguments and return value, per layer.
COUNTERS = {
    "cart.fit": lambda args, result: {"rows": len(args[1])},
    "cart.predict_batch": lambda args, result: {"rows": len(args[1])},
    "gp.fit": lambda args, result: {"rows": len(args[1])},
    "baselines.epsilon_discard": lambda args, result: {
        "unknowns": int(args[1].shape[0]), "discarded": int(result.sum())},
    "baselines.epal": lambda args, result: {"pool": len(args[0])},
    "baselines.lives": lambda args, result: {
        "holdout": result[1].initial_sample, "measured": result[1].measurements_used},
}

# Layers measured in the set-up phase (seconds per set-up); every other layer
# metric is a mean per timed op.
SETUP_LAYERS = ("space.load_dataset", "space.dataset_init", "synth.generate")

# (metric, unit, better) for every per-layer metric the traced run reports.
PER_LAYER = (
    ("space.load_dataset.s", "s", "lower"),
    ("space.dataset_init.s", "s", "lower"),
    ("space.candidates.calls", "count", "lower"),
    ("space.candidates.s", "s", "lower"),
    ("space.measure.calls", "count", "lower"),
    ("space.measure.s", "s", "lower"),
    ("space.measure.failed", "count", "lower"),
    ("space.split.s", "s", "lower"),
    ("synth.generate.s", "s", "lower"),
    ("cart.fit.calls", "count", "lower"),
    ("cart.fit.s", "s", "lower"),
    ("cart.fit.rows_mean", "rows", "lower"),
    ("cart.predict_batch.calls", "count", "lower"),
    ("cart.predict_batch.s", "s", "lower"),
    ("cart.predict_batch.rows", "rows", "lower"),
    ("flash.run.s", "s", "lower"),
    ("flash.self_s", "s", "lower"),
    ("flash.bazza_select.calls", "count", "lower"),
    ("flash.bazza_select.s", "s", "lower"),
    ("gp.fit.calls", "count", "lower"),
    ("gp.fit.s", "s", "lower"),
    ("gp.fit.rows_mean", "rows", "lower"),
    ("gp.predict_batch.s", "s", "lower"),
    ("baselines.epal.s", "s", "lower"),
    ("baselines.epal.self_s", "s", "lower"),
    ("baselines.epal.discard_share", "ratio", "higher"),
    ("baselines.epsilon_discard.calls", "count", "lower"),
    ("baselines.epsilon_discard.s", "s", "lower"),
    ("baselines.epsilon_discard.unknowns", "rows", "lower"),
    ("baselines.lives.s", "s", "lower"),
    ("baselines.lives.holdout_share", "ratio", "lower"),
    ("baselines.random_search.s", "s", "lower"),
    ("metrics.pareto_front.calls", "count", "lower"),
    ("metrics.pareto_front.s", "s", "lower"),
    ("metrics.front_comparison.s", "s", "lower"),
    ("metrics.rank_difference.s", "s", "lower"),
    ("stats.scott_knott.calls", "count", "lower"),
    ("stats.scott_knott.s", "s", "lower"),
    ("harness.run_experiment.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("harness.report.s", "s", "lower"),
    ("runs.write_trace_csv.s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
    ("trace.coverage_share", "ratio", "higher"),
)

SETUP = -1  # op index of spans recorded outside any op

# span fields
NAME, START, END, PARENT, OP, COUNTS, FAILED = range(7)


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    return getattr(target, cls) if cls else target


class Tracer:
    """Installs the span wrappers and keeps every span in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[int, float, float]] = []
        self._stack: list[int] = []
        self._op = SETUP
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            return
        for layer, owner, attr in ENTRY_POINTS:
            target = _resolve(owner)
            original = target.__dict__[attr]
            self._saved.append((target, attr, original))
            setattr(target, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _wrap(self, layer: str, fn):
        count = COUNTERS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [layer, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                    self._op, None, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[COUNTS] = count(args, result)
            return result

        return wrapper

    def run_op(self, index: int, op, *args):
        """Call op(*args) with the wrappers installed, recording its bounds."""
        self.install()
        self._op = index
        start = time.perf_counter()
        try:
            return op(*args)
        finally:
            self.ops.append((index, start, time.perf_counter()))
            self._op = SETUP
            self.uninstall()

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; times are seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
                    "parent": s[PARENT], "op": s[OP], "counts": s[COUNTS], "failed": s[FAILED],
                }) + "\n")

    def summary(self, count_ops: int) -> dict:
        """Per-layer busy and self seconds over every traced op; calls,
        failures and counts over ops 1..count_ops only, so that they cover the
        same seeds however many ops the run had time for."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        layers: dict[str, dict] = {}
        setup: dict[str, float] = {}
        top_level = 0.0
        for i, s in enumerate(self.spans):
            dur = s[END] - s[START]
            if s[OP] == SETUP:
                setup[s[NAME]] = setup.get(s[NAME], 0.0) + dur
                continue
            entry = layers.setdefault(s[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                "failed": 0, "counts": {}})
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
            if s[PARENT] < 0:
                top_level += dur
            if s[OP] > count_ops:
                continue
            entry["calls"] += 1
            entry["failed"] += s[FAILED]
            for key, value in (s[COUNTS] or {}).items():
                entry["counts"][key] = entry["counts"].get(key, 0) + value
        op_time = sum(end - start for _, start, end in self.ops)
        return {"ops": len(self.ops), "count_ops": count_ops, "op_time": op_time,
                "top_level": top_level, "layers": layers, "setup": setup}


def layer_metrics(summary: dict, overhead_share: float) -> dict[str, float]:
    """Every PER_LAYER metric from a Tracer.summary; layers a workload never
    calls read 0."""
    n = max(summary["ops"], 1)
    n_counted = summary["count_ops"]
    layers = summary["layers"]

    def get(layer: str, key: str) -> float:
        return layers.get(layer, {}).get(key, 0)

    def count(layer: str, key: str) -> float:
        return layers.get(layer, {}).get("counts", {}).get(key, 0)

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for name, _, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer in SETUP_LAYERS:
            out[name] = summary["setup"].get(layer, 0.0)
        elif stat == "s":
            out[name] = get(layer, stat) / n
        elif stat in ("calls", "failed"):
            out[name] = get(layer, stat) / n_counted
        elif stat == "self_s":
            # flash.self_s and harness.self_s name the layer without its entry point
            full = {"flash": "flash.run", "harness": "harness.run_experiment"}.get(layer, layer)
            out[name] = get(full, "self_s") / n
        elif stat == "rows_mean":
            out[name] = share(count(layer, "rows"), get(layer, "calls"))
        elif stat in ("rows", "unknowns"):
            out[name] = count(layer, stat) / n_counted
        elif name == "baselines.epal.discard_share":
            out[name] = share(count("baselines.epsilon_discard", "discarded"),
                              count("baselines.epal", "pool"))
        elif name == "baselines.lives.holdout_share":
            out[name] = share(count(layer, "holdout"), count(layer, "measured"))
        elif name == "trace.overhead_share":
            out[name] = overhead_share
        elif name == "trace.coverage_share":
            out[name] = share(summary["top_level"], summary["op_time"])
        else:  # pragma: no cover - PER_LAYER and this function are edited together
            raise KeyError(name)
    return out


def top_self_layers(summary: dict, k: int = 3) -> list[tuple[str, float]]:
    """The k layers with the most self seconds per op, plus the benchmark's
    own time between layer calls as "(outside layers)"."""
    n = max(summary["ops"], 1)
    selfs = {name: entry["self_s"] / n for name, entry in summary["layers"].items()}
    selfs["(outside layers)"] = (summary["op_time"] - summary["top_level"]) / n
    return sorted(selfs.items(), key=lambda kv: -kv[1])[:k]
