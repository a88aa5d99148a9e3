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

METRICS = [{"name": "op_s", "better": "lower", "bound": 0.25},
           {"name": "rate", "better": "higher"}]


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
         "base_q3": 3.25, "change_median": 2.5, "ratio": 1.0, "wins": 2, "pairs": 4,
         "claim": False, "beyond_bound": False, "clears_bound": False, "unresolved": True},
        {"name": "rate", "better": "higher", "base_median": 10.0, "base_q1": 10.0,
         "base_q3": 10.5, "change_median": 10.5, "ratio": 1.05, "wins": 2, "pairs": 4,
         "claim": False, "beyond_bound": None, "clears_bound": None, "unresolved": None},
    ]
    text = bench_pairs.format_rows(rows)
    assert text.splitlines()[1].split() == [
        "op_s", "lower", "2.5", "[1.75,", "3.25]", "2.5", "1.000", "2/4", "no", "no", "no", "yes"]
    assert text.splitlines()[2].split() == [
        "rate", "higher", "10", "[10,", "10.5]", "10.5", "1.050", "2/4", "no", "-", "-", "-"]


def claim_and_bound(base, change, better, bound=0.1):
    row, = bench_pairs.summarize(runs(m=base), runs(m=change),
                                 [{"name": "m", "better": better, "bound": bound}])
    return row["claim"], row["beyond_bound"]


def test_claim_needs_nine_tenths_of_the_pairs_and_a_gap_wider_than_the_base_iqr():
    base = [65.0, 65.5, 65.2, 65.6, 65.4, 65.3, 65.5, 65.7, 65.1, 65.4]  # IQR 0.3
    assert claim_and_bound(base, [48.0] * 10, "lower") == (True, False)
    assert claim_and_bound(base, [48.0] * 9 + [66.0], "lower") == (True, False)
    assert claim_and_bound(base, [48.0] * 8 + [66.0] * 2, "lower") == (False, False)
    assert claim_and_bound(base, [48.0] * 9 + [65.7], "lower") == (True, False)
    # ties count for neither side: 8 wins and 2 ties are not nine tenths
    assert claim_and_bound(base, [48.0] * 8 + base[8:], "lower") == (False, False)
    # every pair won, but by less than the base's spread
    assert claim_and_bound(base, [b - 0.05 for b in base], "lower") == (False, False)
    # a higher-is-better metric: the same rule, turned around
    assert claim_and_bound(base, [80.0] * 10, "higher") == (True, False)
    assert claim_and_bound(base, [48.0] * 10, "higher") == (False, True)


def test_beyond_bound_is_relative_to_the_base_median():
    base = [10.0, 10.0, 10.0, 10.0]
    assert claim_and_bound(base, [11.0] * 4, "lower") == (False, False)
    assert claim_and_bound(base, [11.5] * 4, "lower") == (False, True)
    assert claim_and_bound(base, [9.0] * 4, "higher") == (False, False)
    assert claim_and_bound(base, [8.5] * 4, "higher") == (False, True)
    assert claim_and_bound(base, [30.0] * 4, "lower", None) == (False, None)


def test_clears_bound_when_the_gain_exceeds_the_bound_of_the_base_median():
    def clears(base, change, better, bound=0.1):
        row, = bench_pairs.summarize(runs(m=base), runs(m=change),
                                     [{"name": "m", "better": better, "bound": bound}])
        return row["clears_bound"]

    base = [63.0, 63.4, 63.4, 63.5]
    assert clears(base, [53.7] * 4, "lower") is True       # -15.3%
    assert clears(base, [57.5] * 4, "lower") is False      # -9.4%, a claim but not beyond 10%
    assert clears(base, [70.0] * 4, "lower") is False
    assert clears([10.0] * 4, [11.5] * 4, "higher") is True
    assert clears([10.0] * 4, [10.5] * 4, "higher") is False
    assert clears([10.0] * 4, [9.0] * 4, "higher") is False
    # exactly the bound is not beyond it
    assert clears([10.0] * 4, [9.0] * 4, "lower", 0.1) is False
    assert clears(base, [1.0] * 4, "lower", None) is None


def test_unresolved_when_the_base_spread_is_wider_than_the_bound():
    def unresolved(base, change, better="lower", bound=0.25):
        row, = bench_pairs.summarize(runs(m=base), runs(m=change),
                                     [{"name": "m", "better": better, "bound": bound}])
        return row["unresolved"]

    # setup_s-like base runs, single runs from 0.227 to 0.439 s: IQR 34% of the median
    wide = [0.227, 0.250, 0.2553, 0.270, 0.285, 0.294, 0.330, 0.3666, 0.400, 0.439]
    assert bench_pairs.quartiles(wide) == pytest.approx((0.258975, 0.2895, 0.35745))
    assert unresolved(wide, wide) is True
    assert unresolved(wide, [0.3] * 10) is True
    # every change run reads better than every base run: resolved, whatever the spread
    assert unresolved(wide, [0.2] * 10) is False
    assert unresolved(wide, [0.2] * 9 + [0.227]) is True    # a tie with the best base run
    assert unresolved(wide, [0.5] * 10, "higher") is False
    assert unresolved(wide, [0.5] * 9 + [0.439], "higher") is True
    # a spread within the bound: resolved, whatever the change reads
    tight = [10.0, 10.1, 10.2, 10.3, 9.9, 9.8]
    assert unresolved(tight, [14.0] * 6) is False
    assert unresolved([10.0, 10.0, 13.0, 13.0], [11.0] * 4, bound=0.2) is True   # 3 > 2.3
    assert unresolved([10.0, 10.0, 11.0, 11.0], [11.0] * 4, bound=0.2) is False  # 1 < 2.1
    assert unresolved(wide, wide, bound=None) is None


def test_summary_of_one_pair_and_of_unmatched_runs():
    rows = bench_pairs.summarize(runs(op_s=[2.0], rate=[1.0]), runs(op_s=[1.0], rate=[1.0]), METRICS)
    assert [(r["base_q1"], r["base_median"], r["base_q3"], r["wins"]) for r in rows] == [
        (2.0, 2.0, 2.0, 1), (1.0, 1.0, 1.0, 0)]
    with pytest.raises(ValueError):
        bench_pairs.summarize(runs(op_s=[1.0, 2.0]), runs(op_s=[1.0]), METRICS[:1])
    with pytest.raises(ValueError):
        bench_pairs.summarize([], [], METRICS)


def test_digest_line_names_the_seeds_whose_outputs_differ():
    assert bench_pairs.digest_line([5, 6, 7], ["a", "b", "c"], ["a", "b", "c"]) == \
        "digests: equal in 3/3 pairs"
    assert bench_pairs.digest_line([5, 6, 7], ["a", "b", "c"], ["a", "x", "y"]) == \
        "digests: equal in 1/3 pairs; differ at seeds 6, 7"


def test_pairs_alternate_which_side_goes_first(monkeypatch, capsys):
    calls = []
    end_to_end = json.loads((bench_pairs.ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    def fake_bench(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        value = 1.0 if checkout.name == "base" else 2.0
        # the outputs of seed 41 moved
        digest = f"{seed}-{checkout.name}" if seed == 41 else str(seed)
        return {m["name"]: {"value": value} for m in end_to_end}, digest

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
    assert out[-1] == "digests: equal in 2/3 pairs; differ at seeds 41"
    verdicts = {line.split()[0]: line.split()[-6:] for line in out[2:-1]}
    assert verdicts == {"setup_s": ["2.000", "0/3", "no", "yes", "no", "no"],
                        "op_s.tail": ["2.000", "0/3", "no", "yes", "no", "no"],
                        "runs_per_s": ["2.000", "3/3", "yes", "no", "yes", "no"],
                        "peak_rss_mb": ["2.000", "0/3", "no", "yes", "no", "no"]}
