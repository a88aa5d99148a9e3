"""The benchmark's workloads: set-up, one op, and the checks on an op's output.

Each op drives flashtune through its public library calls, the same calls the
``flashtune tune`` command or ``scripts/run_synthetic_rig.py`` makes.  Calls
go through module attributes (``flash.flash_single``, not a name imported at
load time) so the traced run's wrappers see them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from flashtune import cart, flash, harness, metrics, runs, space, synth
from flashtune.stats import SkParams

# Full-size and smoke-test sizes.  The tune table is levels**options rows.
SIZES = {
    "full": {"tune_options": 8, "tune_levels": 4, "rig_options": 10,
             "single_repeats": 5, "multi_repeats": 1},
    "tiny": {"tune_options": 4, "tune_levels": 4, "rig_options": 6,
             "single_repeats": 1, "multi_repeats": 1},
}


@dataclass
class Outcome:
    """What the checks found in one op's output."""

    runs: int
    failed: int
    problems: list[str] = field(default_factory=list)
    measurements: list[int] = field(default_factory=list)
    rd: list[int] = field(default_factory=list)
    igd: list[float] = field(default_factory=list)
    digest_input: bytes = b""


def int_table(seed: int, n_options: int, levels: int) -> space.Dataset:
    """Every combination of `n_options` integer options with `levels` levels.

    cost = sum_j w_j |x_j - c_j| + sum_(j,k) u_jk x_j x_k / (levels - 1) for a
    hidden optimum c, weights w_j in (0.5, 2) and signed pairwise terms u_jk
    in (-2, 2) on n_options seed-drawn pairs, shifted to a minimum of 1.
    """
    rng = np.random.default_rng(seed)
    X = np.array(list(itertools.product(range(levels), repeat=n_options)), dtype=float)
    center = rng.integers(0, levels, size=n_options)
    weights = rng.uniform(0.5, 2.0, size=n_options)
    y = np.abs(X - center) @ weights
    pairs = list(itertools.combinations(range(n_options), 2))
    for p in rng.choice(len(pairs), size=min(n_options, len(pairs)), replace=False):
        j, k = pairs[int(p)]
        y = y + rng.uniform(-2.0, 2.0) * X[:, j] * X[:, k] / (levels - 1)
    y = y - y.min() + 1.0
    options = [space.OptionSchema(f"o{j}", space.INTEGER, 0, levels - 1)
               for j in range(n_options)]
    return space.Dataset(options, [space.ObjectiveSchema("latency", space.MINIMIZE)],
                         X, y[:, None])


class TuneInt:
    """`flashtune tune` on a large integer table: size 30, budget 50."""

    name = "tune-int-65k"
    SIZE, BUDGET = 30, 50

    @staticmethod
    def prepare(work: Path, seed: int, size: str) -> None:
        """Untimed: write the seed's table as a manifest and a CSV."""
        s = SIZES[size]
        dataset = int_table(seed, s["tune_options"], s["tune_levels"])
        space.save_dataset(dataset, work / "table.manifest.tmp", work / "table.csv.tmp")
        (work / "table.manifest.tmp").replace(work / "table.manifest")
        (work / "table.csv.tmp").replace(work / "table.csv")

    def __init__(self, work: Path, seed: int, size: str):
        self.dataset = space.load_dataset(work / "table.manifest", work / "table.csv")
        self.out = work / "tune"
        self.out.mkdir(exist_ok=True)

    def op(self, seed: int):
        ds = self.dataset
        run = flash.flash_single(
            ds.candidates(), space.TableOracle(ds),
            flash.FlashParams(size=self.SIZE, budget=self.BUDGET, seed=seed),
            ds.objectives[0].direction, cart.CartParams(), 0,
        )
        runs.write_trace_csv(run, self.out / "trace.csv", ds.candidates(),
                             ds.option_names, ds.objective_names)
        rd = metrics.rank_difference(run.best, ds, 0)
        return run, rd

    def check(self, output) -> Outcome:
        run, rd = output
        ds = self.dataset
        problems = []
        ids = run.evaluated_ids
        if len(set(ids)) != len(ids):
            problems.append("a configuration was measured twice")
        if run.measurements_used != self.SIZE + self.BUDGET:
            problems.append(f"{run.measurements_used} measurements, "
                            f"expected {self.SIZE + self.BUDGET}")
        for cid, values in run.evaluated:
            if tuple(ds.values[cid]) != values:
                problems.append(f"measured vector of id {cid} differs from the table")
                break
        measured = [v[0] for _, v in run.evaluated]
        if run.best != run.evaluated[int(np.argmin(measured))][0]:
            problems.append("best is not the argmin of the measured values")
        if rd != int(np.sum(ds.values[:, 0] < ds.values[run.best, 0])):
            problems.append("rank difference disagrees with the table")
        return Outcome(1, int(bool(problems)), problems, [run.measurements_used], [rd],
                       digest_input=(self.out / "trace.csv").read_bytes())


class Rig:
    """One `run_experiment` plus its report files, as the synthetic rig runs it."""

    def __init__(self, work: Path, seed: int, size: str):
        self.s = SIZES[size]
        self.out = work / self.name
        self.out.mkdir(exist_ok=True)
        kind, n_options = self.spec(seed).synthetic
        self.dataset = synth.generate_synthetic(kind, n_options, seed)

    @staticmethod
    def prepare(work: Path, seed: int, size: str) -> None:
        """Rigs build their dataset in set-up; nothing to write beforehand."""

    def spec(self, seed: int) -> harness.ExperimentSpec:
        raise NotImplementedError

    def op(self, seed: int):
        report = harness.run_experiment(self.spec(seed))
        (self.out / "report.txt").write_text(harness.render_report(report), encoding="utf-8")
        harness.write_raw_results(report, self.out / "results.csv")
        harness.emit_plot_data(report, self.out)
        return report

    def check(self, report) -> Outcome:
        spec_methods = len(report.methods)
        problems = []
        if len(report.rows) != spec_methods * report.repeats:
            problems.append(f"{len(report.rows)} result rows, expected "
                            f"{spec_methods * report.repeats}")
        ok = [r for r in report.rows if not r.failed]
        failed = len(report.rows) - len(ok)
        if failed:
            problems.append(f"{failed} optimizer runs failed")
        flash_rows = [r for r in ok if r.method == "flash"]
        outcome = Outcome(len(report.rows), failed, problems, [r.measurements for r in ok],
                          digest_input=(self.out / "results.csv").read_bytes())
        if report.single_objective:
            outcome.rd = [r.rd for r in flash_rows]
        else:
            outcome.igd = [r.igd for r in flash_rows]
        return outcome


class RigSingle(Rig):
    """The synthetic rig's single-objective spec on the interaction kind."""

    name = "rig-single"

    def spec(self, seed: int) -> harness.ExperimentSpec:
        return harness.ExperimentSpec(
            methods=(
                harness.MethodSpec("flash", options={"size": 30, "budget": 20}),
                harness.MethodSpec("progressive"),
                harness.MethodSpec("rank"),
                harness.MethodSpec("random", options={"n": 50}),
            ),
            synthetic=("interaction", self.s["rig_options"]),
            repeats=self.s["single_repeats"],
            seed=seed,
            flash=flash.FlashParams(size=30, budget=20, seed=seed),
            sk=SkParams(seed=seed),
        )


class RigMulti(Rig):
    """The synthetic rig's multi-objective spec: flash against two ePAL settings."""

    name = "rig-multi"

    def spec(self, seed: int) -> harness.ExperimentSpec:
        return harness.ExperimentSpec(
            methods=(
                harness.MethodSpec("flash"),
                harness.MethodSpec("epal", "epal_0.01", {"epsilon": 0.01}),
                harness.MethodSpec("epal", "epal_0.3", {"epsilon": 0.3}),
            ),
            synthetic=("bi-objective-tradeoff", self.s["rig_options"]),
            repeats=self.s["multi_repeats"],
            seed=seed,
            flash=flash.FlashParams(size=30, budget=50, seed=seed),
            sk=SkParams(seed=seed),
        )


WORKLOADS = {w.name: w for w in (TuneInt, RigSingle, RigMulti)}
