import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.stats import (
    SkParams,
    Treatment,
    a12,
    bootstrap_significant,
    quartile_report,
    scott_knott,
)


def exact_permutation_p(x, y):
    """Enumerate every relabeling; two-sided p for the mean difference."""
    pooled = list(x) + list(y)
    n = len(x)
    observed = abs(np.mean(x) - np.mean(y))
    extreme = 0
    total = 0
    for pick in itertools.combinations(range(len(pooled)), n):
        xs = [pooled[i] for i in pick]
        ys = [pooled[i] for i in range(len(pooled)) if i not in pick]
        total += 1
        if abs(np.mean(xs) - np.mean(ys)) >= observed - 1e-12:
            extreme += 1
    return extreme / total


def split_gain_oracle(groups):
    """Straight-line recomputation of the expected split gain, all cut points."""
    flat = np.concatenate(groups)
    mu = flat.mean()
    ls = flat.size
    best = (-np.inf, None)
    for k in range(1, len(groups)):
        m = np.concatenate(groups[:k])
        n = np.concatenate(groups[k:])
        gain = (m.size / ls) * abs(m.mean() - mu) ** 2 + (n.size / ls) * abs(n.mean() - mu) ** 2
        if gain > best[0]:
            best = (gain, k)
    return best


# --- A12 --------------------------------------------------------------------

def test_a12_identical_multisets():
    assert a12([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)


def test_a12_total_separation():
    assert a12([10.0, 11.0], [1.0, 2.0]) == 1.0
    assert a12([1.0, 2.0], [10.0, 11.0]) == 0.0


def test_a12_hand_enumeration():
    # pairs: (1,1) tie, (1,3) less, (2,1) greater, (2,3) less -> (1 + 0.5) / 4
    assert a12([1.0, 2.0], [1.0, 3.0]) == pytest.approx(0.375)


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 1000), min_size=1, max_size=15),
    st.lists(st.integers(0, 1000), min_size=1, max_size=15),
)
def test_a12_complement(x, y):
    assert a12(x, y) + a12(y, x) == pytest.approx(1.0)


# --- bootstrap ----------------------------------------------------------------

def test_bootstrap_identical_samples_not_significant():
    x = [3.0, 4.0, 5.0, 6.0]
    assert not bootstrap_significant(x, list(x))


def test_bootstrap_detects_separation_confirmed_by_exact_permutation():
    x = [0.001, 0.002, 0.0015, 0.0005, 0.001]
    y = [1000.0, 1001.0, 999.0, 1002.0, 1000.5]
    # exact enumeration of all 252 relabelings: only the observed labeling and
    # its mirror reach the observed difference, so p = 2/252 < 0.01
    assert exact_permutation_p(x, y) < 0.01
    assert bootstrap_significant(x, y)


def test_bootstrap_deterministic():
    rng = np.random.default_rng(0)
    x = list(rng.normal(0, 1, 12))
    y = list(rng.normal(0.8, 1, 12))
    params = SkParams(seed=42)
    assert bootstrap_significant(x, y, params) == bootstrap_significant(x, y, params)


# --- Scott-Knott ---------------------------------------------------------------

def test_identical_treatments_share_rank_one():
    obs = tuple(float(v) for v in range(1, 21))
    treatments = [Treatment(f"t{i}", obs) for i in range(4)]
    ranks = scott_knott(treatments)
    assert set(ranks.values()) == {1}


def test_separated_treatments_get_distinct_ranks():
    low = Treatment("low", tuple(float(v) for v in range(1, 21)))
    high = Treatment("high", tuple(float(v) for v in range(1001, 1021)))
    # direct oracle checks: maximal effect, bootstrap agrees
    assert a12(high.observations, low.observations) == 1.0
    assert bootstrap_significant(low.observations, high.observations)
    ranks = scott_knott([high, low])
    assert ranks == {"low": 1, "high": 2}


def test_negligible_shift_shares_rank():
    rng = np.random.default_rng(7)
    base = rng.normal(0.0, 1.0, 20)
    near = base + 0.001
    far = base + 100.0
    # the tiny shift is far below the effect-size gate by construction
    assert a12(near, base) < 0.6
    ranks = scott_knott([
        Treatment("base", tuple(base)),
        Treatment("near", tuple(near)),
        Treatment("far", tuple(far)),
    ])
    assert ranks["base"] == 1
    assert ranks["near"] == 1
    assert ranks["far"] == 2


@pytest.mark.parametrize("seed", range(5))
def test_an_a12_of_exactly_the_threshold_splits(seed):
    """The A12 gate is "at least" `A12_THRESHOLD`: here A12 is exactly 0.6
    (10 wins and 40 ties in 50 against 50) and the bootstrap agrees."""
    worse = [1.0] * 10 + [0.0] * 40
    assert a12(worse, [0.0] * 50) == 0.6
    assert bootstrap_significant([0.0] * 50, worse, SkParams(seed))
    ranks = scott_knott([Treatment("a", [0.0] * 50), Treatment("b", worse)], SkParams(seed))
    assert ranks == {"a": 1, "b": 2}


def test_single_treatment_rank_one():
    assert scott_knott([Treatment("only", (1.0, 2.0))]) == {"only": 1}


def test_rank_order_respects_medians():
    rng = np.random.default_rng(3)
    treatments = [
        Treatment(f"t{i}", tuple(rng.normal(center, 0.5, 20)))
        for i, center in enumerate([0.0, 5.0, 10.0, 20.0])
    ]
    ranks = scott_knott(treatments)
    medians = {t.label: t.median for t in treatments}
    for a in treatments:
        for b in treatments:
            if medians[a.label] < medians[b.label]:
                assert ranks[a.label] <= ranks[b.label]


@settings(max_examples=30, deadline=None)
@given(st.permutations(list(range(5))))
def test_scott_knott_permutation_invariance(order):
    rng = np.random.default_rng(11)
    pool = [Treatment(f"t{i}", tuple(rng.normal(i * 2.0, 1.0, 15))) for i in range(5)]
    baseline = scott_knott(pool)
    shuffled = [pool[i] for i in order]
    assert scott_knott(shuffled) == baseline


def test_split_point_matches_exhaustive_enumeration():
    from flashtune.stats import _split_gain

    rng = np.random.default_rng(5)
    for _ in range(50):
        k = rng.integers(2, 7)
        groups = [rng.normal(rng.uniform(-5, 5), 1.0, rng.integers(2, 8)) for _ in range(k)]
        gain, cut = _split_gain(groups)
        oracle_gain, oracle_cut = split_gain_oracle(groups)
        assert gain == pytest.approx(oracle_gain)
        assert cut == oracle_cut


def test_split_point_tie_goes_to_the_first_cut():
    """Cutting [0] | [1], [0] or [0], [1] | [0] gains exactly
    0.05555555555555555 both times; the first cut wins the tie, as in the
    oracle, where a `>=` would take the second."""
    from flashtune.stats import _split_gain

    groups = [np.array([0.0]), np.array([1.0]), np.array([0.0])]
    assert _split_gain(groups) == split_gain_oracle(groups) == (0.05555555555555555, 1)


def test_treatment_validation():
    with pytest.raises(ValueError):
        Treatment("bad", ())
    with pytest.raises(ValueError):
        Treatment("bad", (1.0, float("nan")))
    with pytest.raises(ValueError):
        scott_knott([])
    with pytest.raises(ValueError):
        scott_knott([Treatment("a", (1.0,)), Treatment("a", (2.0,))])


def test_quartile_report_layout():
    treatments = [
        Treatment("alpha", (1.0, 2.0, 3.0, 4.0)),
        Treatment("beta", (10.0, 11.0, 12.0, 13.0)),
    ]
    ranks = scott_knott(treatments)
    text = quartile_report(treatments, ranks)
    lines = text.splitlines()
    assert [line.split()[1] for line in lines] == ["alpha", "beta"]
    assert "median=" in text and "IQR=" in text
    bars = [line[line.index("|") + 1:-1] for line in lines]
    assert [len(bar) for bar in bars] == [30, 30]
    assert bars[0].index("o") < bars[1].index("o")
