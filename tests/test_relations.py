"""Metamorphic relations: changes to a table that must leave an optimizer's
measurements unchanged, compared with `==` and never with a tolerance.

y -> 2**k * y.  Multiplying an objective by a power of two is exact in
binary floating point while the values stay normal, and the CART methods fit
in power-of-two units (`cart.fit`), so every tree, prediction rank and tie
is the same and each method must measure the same ids in the same order.
The scale may differ per objective.  It covers `flash_single`, `flash_multi`,
`progressive_sampling`, `rank_based` and `random_search`, whose draws never
read a measured value, through `harness.run_method`.

ePAL is excluded until its GP fits in power-of-two units too (ROADMAP item
12b): its GP keeps the signal and noise variances in the objective's own
units, so its measurement count changes with the unit.

y -> -y with every direction flipped.  Negation is exact.  What a method
reads as a value times its direction's sign (flash's and the lives loop's
picks, ePAL's targets, every answer) is the same number; CART fits on the
raw values, and negating them keeps each split's squared error and negates
each leaf; `mu_rd` compares ranks that both reverse.  It covers `flash_single`, `flash_multi`, `epal`, `rank_based`
and `random_search`.  `progressive_sampling` is excluded: its holdout score
is `metrics.mmre`, which refuses the non-positive values negation makes.
"""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.flash import FlashParams
from flashtune.harness import ExperimentSpec, MethodSpec, repeat_pools, run_method
from flashtune.space import (
    BOOLEAN, DIRECTIONS, MAXIMIZE, MINIMIZE, Dataset, ObjectiveSchema, OptionSchema,
)
from flashtune.synth import KINDS, generate_synthetic

SPEC = ExperimentSpec(methods=(MethodSpec("flash"),), synthetic=(KINDS[0], 5),
                      flash=FlashParams(size=10, budget=10))
SINGLE_METHODS = ("flash", "random", "progressive", "rank")
MULTI_METHODS = ("flash", "random")
SCALES = st.one_of(st.integers(-60, 60), st.sampled_from([-510, -500, 500, 510]))


def random_table(n_options: int, n_objectives: int, seed: int) -> Dataset:
    """Every row of `n_options` booleans, with positive objectives of one
    decimal place spread over four orders of magnitude, so rows tie, and a
    random direction each."""
    rng = np.random.default_rng(seed)
    X = np.array(list(itertools.product((0.0, 1.0), repeat=n_options)))
    Y = np.ceil(rng.lognormal(sigma=2.0, size=(len(X), n_objectives)) * 10) / 10
    return Dataset([OptionSchema(f"o{j}", BOOLEAN) for j in range(n_options)],
                   [ObjectiveSchema(f"y{j}", rng.choice(DIRECTIONS)) for j in range(n_objectives)],
                   X, Y)


@st.composite
def tables(draw) -> Dataset:
    n_options = draw(st.integers(5, 7))
    seed = draw(st.integers(0, 2 ** 16))
    kind = draw(st.sampled_from([*KINDS, "random"]))
    if kind == "random":
        return random_table(n_options, draw(st.integers(1, 2)), seed)
    return generate_synthetic(kind, n_options, seed)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_power_of_two_scale_of_the_objectives_keeps_every_measurement(data):
    ds = data.draw(tables())
    m = len(ds.objectives)
    ks = data.draw(st.lists(SCALES, min_size=m, max_size=m))
    scaled = Dataset(ds.options, ds.objectives, ds.configs, np.ldexp(ds.values, ks))
    assert np.array_equal(np.ldexp(scaled.values, [-k for k in ks]), ds.values)  # exact

    assert_same_measurements(ds, scaled, SINGLE_METHODS if m == 1 else MULTI_METHODS,
                             data.draw(st.integers(0, 2 ** 16)))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_negating_the_objectives_and_flipping_their_directions_keeps_every_measurement(data):
    ds = data.draw(tables())
    flipped = [ObjectiveSchema(o.name, MAXIMIZE if o.direction == MINIMIZE else MINIMIZE)
               for o in ds.objectives]
    negated = Dataset(ds.options, flipped, ds.configs, -ds.values)
    kinds = ("flash", "random", "rank") if len(flipped) == 1 else ("flash", "random", "epal")
    assert_same_measurements(ds, negated, kinds, data.draw(st.integers(0, 2 ** 16)))


def assert_same_measurements(ds: Dataset, changed: Dataset, kinds, seed: int) -> None:
    """Each method measures the same ids in the same order on both tables."""
    pools = repeat_pools(ds, SPEC, seed)
    objectives = tuple(range(len(ds.objectives)))
    for kind in kinds:
        method = MethodSpec(kind)
        expected = run_method(method, ds, objectives, pools, seed, SPEC).evaluated_ids
        assert run_method(method, changed, objectives, pools, seed, SPEC).evaluated_ids == expected
