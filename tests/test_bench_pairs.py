"""`scripts/bench_pairs.py`: the summary of alternating benchmark pairs, on
fixed numbers, and the order in which it runs the sides; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_s", "better": "lower"}, {"name": "rate", "better": "higher"}]


def runs(**columns):
    """Pair-ordered metric objects from one list of values per metric."""
    names = list(columns)
    return [{name: {"value": v} for name, v in zip(names, values)}
            for values in zip(*columns.values())]


def test_summary_gives_base_quartiles_change_median_and_strict_wins():
    base = runs(op_s=[1.0, 2.0, 3.0, 4.0], rate=[10.0, 10.0, 10.0, 12.0])
    change = runs(op_s=[0.5, 2.0, 4.0, 3.0], rate=[11.0, 9.0, 10.0, 13.0])
    rows = bench_pairs.summarize(base, change, METRICS)
    assert rows == [
        {"name": "op_s", "better": "lower", "base_median": 2.5, "base_q1": 1.75,
         "base_q3": 3.25, "change_median": 2.5, "wins": 2, "pairs": 4},
        {"name": "rate", "better": "higher", "base_median": 10.0, "base_q1": 10.0,
         "base_q3": 10.5, "change_median": 10.5, "wins": 2, "pairs": 4},
    ]
    text = bench_pairs.format_rows(rows)
    assert text.splitlines()[1].split() == ["op_s", "lower", "2.5", "[1.75,", "3.25]", "2.5", "2/4"]
    assert text.splitlines()[2].split() == ["rate", "higher", "10", "[10,", "10.5]", "10.5", "2/4"]


def test_summary_of_one_pair_and_of_unmatched_runs():
    rows = bench_pairs.summarize(runs(op_s=[2.0], rate=[1.0]), runs(op_s=[1.0], rate=[1.0]), METRICS)
    assert [(r["base_q1"], r["base_median"], r["base_q3"], r["wins"]) for r in rows] == [
        (2.0, 2.0, 2.0, 1), (1.0, 1.0, 1.0, 0)]
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs(op_s=[1.0, 2.0]), runs(op_s=[1.0]), METRICS[:1])
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], METRICS)


def test_pairs_alternate_which_side_goes_first(monkeypatch, capsys):
    calls = []
    end_to_end = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_bench(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        value = 1.0 if checkout.name == "base" else 2.0
        return {m["name"]: {"value": value} for m in end_to_end}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    monkeypatch.setattr(bench_pairs, "extract_base", lambda rev, dest: dest.mkdir())
    monkeypatch.setattr(bench_pairs, "copy_tree", lambda src, dest: None)
    assert bench_pairs.main(["--base", "HEAD", "--workload", "rig-single", "--pairs", "3",
                             "--seconds", "0", "--seed", "40"]) == 0
    assert calls == [("base", "rig-single", 40, 0), ("change", "rig-single", 40, 0),
                     ("change", "rig-single", 41, 0), ("base", "rig-single", 41, 0),
                     ("base", "rig-single", 42, 0), ("change", "rig-single", 42, 0)]
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("rig-single: base HEAD vs working tree, 3 alternating pairs")
    wins = {line.split()[0]: line.split()[-1] for line in out[2:]}
    assert wins == {"setup_s": "0/3", "op_s.tail": "0/3", "runs_per_s": "3/3", "peak_rss_mb": "0/3"}
