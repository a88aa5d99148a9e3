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

x -> 2x for every option, with each option's bounds doubled in an integer
schema.  Doubling is exact, CART's split thresholds are midpoints of
neighbouring values, which double with them, and ePAL scales each option
to [0, 1] by its pool's own minimum and span, which gives the same floats.
It covers every method.

A copy of option 0 appended as the last column.  CART's split search breaks
ties by the lower option index, so a split on the copy never wins and every
tree is the same.  It covers every method but ePAL, which is excluded: its
GP kernel sums squared distances over the options, so the copy counts
option 0 twice and changes the kernel (a probe saw the measurements change
in 25 of 36 ePAL runs).

Row ids relabelled i -> 3i + 7.  The table gets filler rows at the other
ids, which no pool holds.  Every method picks by position in its pool and
breaks ties by the lower position, and the relabelling keeps the order of
the ids, so each method measures the relabelled ids in the same order.  It
covers every method.

`random_search` never reads the options, so the option relations hold for
it trivially; it is run anyway, as every method is.

An objective column that no method reads, over `run_experiment` rows.  A
third column inserted anywhere in a two-objective table leaves every row of
an experiment on the other two, or on one of them, as it is on a table that
holds only those columns: a run measures only the objectives it names.  It
covers every method, compares every field of every row but the wall time,
which no two runs share, and the Scott-Knott ranks.
"""

import dataclasses
import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flashtune.flash import FlashParams
from flashtune.harness import ExperimentSpec, MethodSpec, run_experiment, run_method
from flashtune.space import (
    BOOLEAN, DIRECTIONS, INTEGER, MAXIMIZE, MINIMIZE, Dataset, ObjectiveSchema, OptionSchema,
    split,
)
from flashtune.synth import BI_OBJECTIVE, KINDS, generate_synthetic

SPEC = ExperimentSpec(methods=(MethodSpec("flash"),), synthetic=(KINDS[0], 5),
                      flash=FlashParams(size=10, budget=10))
SINGLE_METHODS = ("flash", "random", "progressive", "rank")
MULTI_METHODS = ("flash", "random")
EVERY_METHOD = {1: SINGLE_METHODS, 2: (*MULTI_METHODS, "epal")}
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


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 2 ** 16))
def test_doubling_every_option_keeps_every_measurement(ds, seed):
    options = [OptionSchema(o.name, INTEGER, 2 * o.lo, 2 * o.hi) for o in ds.options]
    doubled = Dataset(options, ds.objectives, 2 * ds.configs, ds.values)
    assert_same_measurements(ds, doubled, EVERY_METHOD[len(ds.objectives)], seed)


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 2 ** 16))
def test_a_copy_of_option_0_as_the_last_column_keeps_every_measurement(ds, seed):
    first = ds.options[0]
    copied = Dataset([*ds.options, OptionSchema("copy", first.kind, first.lo, first.hi)],
                     ds.objectives, np.column_stack([ds.configs, ds.configs[:, 0]]), ds.values)
    kinds = SINGLE_METHODS if len(ds.objectives) == 1 else MULTI_METHODS
    assert_same_measurements(ds, copied, kinds, seed)


@settings(max_examples=40, deadline=None)
@given(tables(), st.integers(0, 2 ** 16))
def test_relabelling_the_ids_keeps_every_measurement(ds, seed):
    """Row i moves to row 3i + 7; the rows between hold new configurations
    (option 0 at 2, 3, ...) that no pool reaches."""
    moved = relabel(np.arange(ds.n_rows))
    n = moved[-1] + 1
    filler = np.setdiff1d(np.arange(n), moved)
    configs = np.zeros((n, len(ds.options)))
    values = np.zeros((n, len(ds.objectives)))
    configs[moved] = ds.configs
    values[moved] = ds.values
    configs[filler, 0] = 2 + np.arange(filler.size)
    first = OptionSchema(ds.options[0].name, INTEGER, 0, 1 + filler.size)
    relabelled = Dataset([first, *ds.options[1:]], ds.objectives, configs, values)

    parts = split(ds, seed)
    objectives = tuple(range(len(ds.objectives)))
    for kind in EVERY_METHOD[len(objectives)]:
        method = MethodSpec(kind)
        expected = run_method(method, ds, objectives, parts, seed, SPEC).evaluated_ids
        got = run_method(method, relabelled, objectives, tuple(map(relabel, parts)), seed, SPEC)
        assert got.evaluated_ids == tuple(relabel(expected).tolist())


def relabel(ids) -> np.ndarray:
    return 3 * np.asarray(ids) + 7


def assert_same_measurements(ds: Dataset, changed: Dataset, kinds, seed: int) -> None:
    """Each method measures the same ids in the same order on both tables."""
    parts = split(ds, seed)
    objectives = tuple(range(len(ds.objectives)))
    for kind in kinds:
        method = MethodSpec(kind)
        expected = run_method(method, ds, objectives, parts, seed, SPEC).evaluated_ids
        assert run_method(method, changed, objectives, parts, seed, SPEC).evaluated_ids == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(0, 2), st.integers(0, 1))
def test_an_objective_column_no_method_reads_changes_no_experiment_row(seed, position, which):
    ds = generate_synthetic(BI_OBJECTIVE, 7, seed)
    unread = np.round(np.random.default_rng(seed).uniform(1.0, 9.0, ds.n_rows), 1)
    wider = Dataset(ds.options, [*ds.objectives[:position], ObjectiveSchema("unread", MAXIMIZE),
                                 *ds.objectives[position:]],
                    ds.configs, np.insert(ds.values, position, unread, axis=1))
    read = tuple(j + (j >= position) for j in range(2))  # ds's columns in `wider`
    only = Dataset(ds.options, [ds.objectives[which]], ds.configs, ds.values[:, [which]])
    for kinds, objectives, narrow in ((MULTI_METHODS + ("epal",), read, ds),
                                      (SINGLE_METHODS, read[which:which + 1], only)):
        spec = dataclasses.replace(SPEC, methods=tuple(map(MethodSpec, kinds)), repeats=2,
                                   seed=seed)
        got = run_experiment(dataclasses.replace(spec, objectives=objectives), wider)
        want = run_experiment(spec, narrow)
        assert not any(row.failed for row in want.rows)
        assert [dataclasses.replace(row, wall_time=None) for row in got.rows] == \
            [dataclasses.replace(row, wall_time=None) for row in want.rows]
        assert got.ranks == want.ranks
