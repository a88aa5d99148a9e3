"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a `[PASS] ...` line on success (run with `pytest -s` to see
them); a failing assertion is the corresponding fail line.  Wall-clock limits
are asserted with time.perf_counter around the operative section.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from flashtune import cart, metrics
from flashtune.baselines import EpalParams, epal, progressive_sampling, random_search, rank_based
from flashtune.cli import main as cli_main
from flashtune.flash import FlashParams, bazza_select, flash_multi, flash_single
from flashtune.gp import NOISE_VARIANCE, gp_fit
from flashtune.space import TableOracle, split
from flashtune.stats import SkParams, Treatment, a12, scott_knott
from flashtune.synth import KINDS, generate_synthetic

from conftest import gp_predict
from test_cart import exhaustive_best_gain
from test_flash import bazza_oracle, drawn_weights
from test_gp import naive_posterior
from test_metrics import brute_force_front
from test_stats import split_gain_oracle


def report(name: str, elapsed: float, limit: float, detail: str = ""):
    assert elapsed < limit, f"{name}: {elapsed:.1f}s exceeded the {limit:.0f}s limit"
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}: {elapsed:.1f}s < {limit:.0f}s{suffix}")


def test_budget_exactness_on_2000_row_dataset():
    start = time.perf_counter()
    ds = generate_synthetic("bi-objective-tradeoff", 11, seed=0)  # 2048 rows
    assert ds.n_rows >= 2000
    run = flash_multi(ds.candidates(), TableOracle(ds),
                      FlashParams(size=30, budget=50, seed=1), ds.directions)
    assert run.measurements_used == 80
    assert run.initial_sample == 30
    assert run.acquisitions == 50
    small = generate_synthetic("bi-objective-tradeoff", 7, seed=0)  # 128 >= 80
    run_small = flash_multi(small.candidates(), TableOracle(small),
                            FlashParams(size=30, budget=50, seed=2), small.directions)
    assert run_small.measurements_used == 80
    assert run_small.acquisitions == 50
    report("budget exactness (50 acquisitions, 80 total)", time.perf_counter() - start, 5.0)


def test_exhaustive_budget_optimality():
    start = time.perf_counter()
    for kind in KINDS:
        ds = generate_synthetic(kind, 10, seed=3)
        run = flash_single(ds.candidates(), TableOracle(ds),
                           FlashParams(size=30, budget=ds.n_rows - 30, seed=4))
        assert metrics.rank_difference(run.best, ds, 0) == 0, kind
        assert run.measurements_used == ds.n_rows
    big = generate_synthetic("single-peak", 12, seed=5)  # 4096 rows
    t_big = time.perf_counter()
    run = flash_single(big.candidates(), TableOracle(big),
                       FlashParams(size=30, budget=big.n_rows - 30, seed=6))
    big_elapsed = time.perf_counter() - t_big
    assert metrics.rank_difference(run.best, big, 0) == 0
    assert big_elapsed < 10.0
    report("exhaustive-budget optimality (RD = 0)", time.perf_counter() - start, 10.0,
           f"4096 rows in {big_elapsed:.2f}s")


def test_flash_beats_random_search():
    start = time.perf_counter()
    params = SkParams(seed=0)
    outcome = {}
    for kind in ("single-peak", "interaction"):
        ds = generate_synthetic(kind, 10, seed=0)
        assert ds.n_rows == 1024
        flash_rd, random_rd = [], []
        for seed in range(20):
            frun = flash_single(ds.candidates(), TableOracle(ds),
                                FlashParams(size=30, budget=20, seed=seed))
            rrun = random_search(ds.candidates(), TableOracle(ds), 50, ("minimize",), seed)
            flash_rd.append(float(metrics.rank_difference(frun.best, ds, 0)))
            random_rd.append(float(metrics.rank_difference(rrun.best, ds, 0)))
        ranks = scott_knott(
            [Treatment("flash", tuple(flash_rd)), Treatment("random", tuple(random_rd))],
            params,
        )
        assert ranks["flash"] <= ranks["random"], (kind, ranks)
        outcome[kind] = ranks
    assert any(r["flash"] < r["random"] for r in outcome.values()), outcome
    report("flash vs random search (Scott-Knott on rank difference)",
           time.perf_counter() - start, 60.0, f"ranks {outcome}")


def test_measurement_cost_ordering():
    start = time.perf_counter()
    for kind in KINDS:
        ds = generate_synthetic(kind, 10, seed=1)
        assert ds.n_rows >= 500
        for seed in range(20):
            train, hold, val = split(ds, seed)
            pools = (ds.candidates(train), ds.candidates(hold), ds.candidates(val))
            merged = np.sort(np.concatenate([train, val]))
            frun = flash_single(ds.candidates(merged), TableOracle(ds),
                                FlashParams(size=30, budget=20, seed=seed))
            assert frun.measurements_used == 50
            for fn in (progressive_sampling, rank_based):
                _, brun = fn(*pools, TableOracle(ds), seed=seed)
                assert brun.measurements_used > frun.measurements_used, (kind, seed, fn)
    report("measurement-cost ordering (holdout charged)", time.perf_counter() - start, 60.0)


def test_multi_objective_convergence():
    start = time.perf_counter()
    ds = generate_synthetic("bi-objective-tradeoff", 10, seed=2)
    truth_idx = set(metrics.pareto_front(ds.values, ds.directions))
    truth_vectors = [tuple(v) for v in ds.values[sorted(truth_idx)]]
    gds = []
    for seed in range(20):
        run = flash_multi(ds.candidates(), TableOracle(ds),
                          FlashParams(size=30, budget=50, seed=seed), ds.directions)
        approx = [tuple(ds.values[i]) for i in run.front]
        cmp = metrics.front_comparison(truth_vectors, approx, ds.directions)
        g = metrics.gd(cmp)
        if set(run.front) <= truth_idx:
            assert g == 0.0
        gds.append(g)
    assert float(np.median(gds)) <= 0.05
    report("multi-objective convergence (median GD <= 0.05)",
           time.perf_counter() - start, 120.0, f"median GD {np.median(gds):g}")


def test_epal_epsilon_ordering():
    start = time.perf_counter()
    ds = generate_synthetic("bi-objective-tradeoff", 10, seed=3)
    assert ds.n_rows <= 1024
    careless, cautious = [], []
    for seed in range(20):
        careless.append(epal(ds.candidates(), TableOracle(ds),
                             EpalParams(epsilon=0.3), ds.directions, seed).measurements_used)
        cautious.append(epal(ds.candidates(), TableOracle(ds),
                             EpalParams(epsilon=0.01), ds.directions, seed).measurements_used)
    assert float(np.median(careless)) < float(np.median(cautious))
    report("epal epsilon ordering (0.3 thriftier than 0.01)",
           time.perf_counter() - start, 600.0,
           f"medians {np.median(careless):g} vs {np.median(cautious):g}")


def test_oracle_equivalence_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    for i in range(1000):
        n = int(rng.integers(1, 30))
        m = 2 if i % 2 == 0 else 3
        pts = [tuple(map(float, row)) for row in rng.integers(0, 8, size=(n, m))]
        directions = ("minimize", "maximize", "minimize")[:m]
        assert metrics.pareto_front(pts, directions) == brute_force_front(pts, directions)

    loose = cart.CartParams(min_samples_split=2, min_samples_leaf=1)
    for _ in range(500):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        X = rng.integers(0, 4, size=(n, d)).astype(float)
        y = rng.integers(-5, 6, size=n).astype(float)
        oracle_gain = exhaustive_best_gain(X, y)
        tree = cart.fit(X, y, loose)
        if isinstance(tree, cart.Leaf):
            assert oracle_gain == pytest.approx(0.0, abs=1e-9)
            continue
        left = y[X[:, tree.option_index] <= tree.threshold]
        right = y[X[:, tree.option_index] > tree.threshold]
        base = ((y - y.mean()) ** 2).sum()
        achieved = base - ((left - left.mean()) ** 2).sum() - ((right - right.mean()) ** 2).sum()
        assert achieved == pytest.approx(oracle_gain, abs=1e-8)

    for _ in range(200):
        X = rng.random((int(rng.integers(2, 12)), 2))
        y = rng.normal(size=X.shape[0])
        q = rng.random(2)
        gps = gp_fit(X, y[:, None])
        mu, sigma = gp_predict(gps, q)
        mu0, sigma0 = naive_posterior(X, y, q, gps[0].length_scale, NOISE_VARIANCE)
        assert abs(mu - mu0) <= 1e-8 and abs(sigma - sigma0) <= 1e-8

    for seed in range(500):
        p = int(rng.integers(1, 12))
        m = int(rng.integers(1, 4))
        directions = tuple(rng.choice(["minimize", "maximize"], size=m))
        preds = rng.uniform(-50, 50, size=(p, m))
        n_proj = int(rng.integers(1, 12))
        expected, _ = bazza_oracle(preds.tolist(),
                                   drawn_weights(seed, n_proj, m).tolist(), directions)
        assert bazza_select(preds, n_proj, directions, seed) == expected

    # hand-enumerated cases for the scalar measures
    assert a12([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.375)
    assert metrics.mu_rd([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(2.0)
    assert metrics.mu_rd([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]) == pytest.approx(2.0 / 3.0)
    assert metrics.mmre([90.0, 240.0], [100.0, 200.0]) == pytest.approx(15.0)
    cmp = metrics.front_comparison([(0.0, 1.0), (1.0, 0.0)], [(0.5, 0.5)],
                                   ("minimize", "minimize"))
    assert metrics.gd(cmp) == pytest.approx(np.sqrt(0.5))
    assert metrics.igd(cmp) == pytest.approx(np.sqrt(0.5))
    report("oracle equivalence suite", time.perf_counter() - start, 120.0)


def test_scott_knott_sanity():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    obs = tuple(map(float, rng.normal(10, 1, 20)))
    same = [Treatment(f"t{i}", obs) for i in range(5)]
    assert set(scott_knott(same).values()) == {1}

    base = rng.normal(1.0, 0.01, 20)
    low = Treatment("low", tuple(base))
    high = Treatment("high", tuple(base * 1000.0))
    assert scott_knott([low, high]) == {"low": 1, "high": 2}

    from flashtune.stats import _split_gain
    for _ in range(200):
        k = int(rng.integers(2, 7))
        groups = [rng.normal(rng.uniform(-3, 3), 1.0, int(rng.integers(2, 9)))
                  for _ in range(k)]
        gain, cut = _split_gain(groups)
        oracle_gain, oracle_cut = split_gain_oracle(groups)
        assert gain == pytest.approx(oracle_gain) and cut == oracle_cut
    report("Scott-Knott sanity", time.perf_counter() - start, 30.0)


def test_cli_determinism(tmp_path):
    start = time.perf_counter()

    def run(*args):
        assert cli_main([str(a) for a in args]) == 0

    def tree_bytes(root: Path):
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    for attempt in ("one", "two"):
        base = tmp_path / attempt
        run("synth", "--kind", "single-peak", "--options", 7, "--seed", 3,
            "--out", base / "synth")
        run("synth", "--kind", "bi-objective-tradeoff", "--options", 7, "--seed", 3,
            "--out", base / "synth-mo")
        manifest, data = base / "synth" / "manifest.txt", base / "synth" / "data.csv"
        mo_manifest, mo_data = base / "synth-mo" / "manifest.txt", base / "synth-mo" / "data.csv"
        run("tune", "--manifest", manifest, "--data", data, "--size", 10,
            "--budget", 10, "--seed", 4, "--out", base / "tune", "--dump-tree")
        run("tune-mo", "--manifest", mo_manifest, "--data", mo_data, "--size", 10,
            "--budget", 10, "--seed", 4, "--out", base / "tune-mo")
        run("baseline", "--method", "progressive", "--manifest", manifest,
            "--data", data, "--seed", 4, "--out", base / "baseline")
        run("baseline", "--method", "epal", "--manifest", mo_manifest,
            "--data", mo_data, "--epsilon", 0.3, "--seed", 4, "--out", base / "epal")
        run("experiment", "--kind", "interaction", "--options", 7,
            "--methods", "flash,random", "--repeats", 3, "--size", 10,
            "--budget", 10, "--seed", 5, "--out", base / "experiment")
        run("eval", "--manifest", mo_manifest, "--data", mo_data,
            "--true-front", mo_data, "--approx-front", mo_data)
    first = tree_bytes(tmp_path / "one")
    second = tree_bytes(tmp_path / "two")
    assert first == second
    report("CLI determinism (byte-identical reruns)", time.perf_counter() - start, 120.0,
           f"{len(first)} files compared")


def test_replication_hook_external_table(tmp_path):
    start = time.perf_counter()
    # stand-in for an externally supplied measurement table: integer options,
    # two objectives, several hundred rows
    rng = np.random.default_rng(12)
    rows = [(a, b, c) for a in range(6) for b in range(8) for c in range(7)]
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(
        "option spouts int 0 5\n"
        "option splitters int 0 7\n"
        "option counters int 0 6\n"
        "objective throughput maximize\n"
        "objective latency minimize\n"
    )
    lines = ["spouts,splitters,counters,throughput,latency"]
    for a, b, c in rows:
        lines.append(f"{a},{b},{c},{rng.uniform(100, 900)!r},{rng.uniform(1, 9)!r}")
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")

    out = tmp_path / "report"
    code = cli_main([
        "experiment", "--manifest", str(manifest), "--data", str(data),
        "--methods", "flash,epal:0.3", "--repeats", 2, "--size", 20,
        "--budget", 20, "--seed", 1, "--out", str(out),
    ])
    assert code == 0
    assert (out / "quality_indicators.csv").exists()
    assert (out / "measurement_ratio.csv").exists()
    assert (out / "report.txt").exists()

    single_out = tmp_path / "report-single"
    code = cli_main([
        "experiment", "--manifest", str(manifest), "--data", str(data),
        "--objectives", "latency", "--methods", "flash,progressive,rank,random",
        "--repeats", 2, "--size", 20, "--budget", 20, "--seed", 1,
        "--out", str(single_out),
    ])
    assert code == 0
    assert (single_out / "rank_difference.csv").exists()
    report("replication hook (external table end to end)",
           time.perf_counter() - start, 120.0)
