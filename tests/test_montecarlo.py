import dataclasses
import math
import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cyins.montecarlo as mc
from cyins import cli
from cyins.harness import bundled_model_path
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    evaluate_policy,
    validate_model,
)
from cyins.montecarlo import SimulationConfig, config_for, simulate_coverage_paid, simulate_value

from helpers import random_model
from oracles import stage_loss_matrix

PI_HH = ProtectionPolicy((1, 1))
PI_LL = ProtectionPolicy((0, 0))


def test_config_horizon_satisfies_tail_bound(two_state):
    config = config_for(two_state, samples=10, seed=0)
    delta = two_state.discount
    max_stage = float(two_state.losses.max() + two_state.costs.max())
    tail = delta**config.horizon * max_stage / (1.0 - delta)
    assert tail <= config.truncation_tol


@pytest.mark.parametrize("estimator", [simulate_value, simulate_coverage_paid])
def test_a_horizon_short_of_its_stated_tail_is_refused(four_state, estimator):
    # config_for's horizon truncates the four-state model at discount 0.9;
    # at 0.99 the tail it leaves is up to 0.99**132 * 16.6 / 0.01 = 440.5,
    # and the estimate would be off by about that much (507.1 for an exact 693.0).
    config = config_for(four_state, samples=20_000, seed=1)
    assert config.horizon == 132
    patient = dataclasses.replace(four_state, discount=0.99)
    stated = re.escape(repr(config.truncation_tol))
    message = rf"horizon 132 leaves a discounted tail of up to 440\.5\d* .* truncation_tol {stated}"
    with pytest.raises(ValueError, match=message):
        estimator(patient, ProtectionPolicy((0, 0, 0, 0)), ZeroCoverage(), config)


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    discount=st.one_of(
        st.just(0.0),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(1.0 - 1e-3, 1.0, exclude_max=True),
    ),
    rel_tol=st.one_of(st.just(1e-6), st.floats(1e-300, 1.0)),
)
@example(seed=0, discount=0.1, rel_tol=1e-6)
def test_every_config_for_horizon_passes_on_its_own_model(seed, discount, rel_tol):
    # The check reads config_for's own bound, so it refuses none of its
    # configs, down to discount 0 and up to discounts next to 1.  At 0.1 and
    # 1e-6 the rounded horizon is 6, and 0.1**6 is 1.0000000000000004e-06:
    # the check allows that rounding.  Batches are not run: near discount 1
    # the horizon is astronomical.
    model = dataclasses.replace(random_model(np.random.default_rng(seed)), discount=discount)
    config = config_for(model, samples=2, seed=0, rel_tol=rel_tol)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_simulate_batch", lambda *args: args[-1].fill(0.0))
        for estimator in (simulate_value, simulate_coverage_paid):
            estimator(model, ProtectionPolicy((0,) * model.n_states), ZeroCoverage(), config)


def test_config_undiscounted_model_single_step():
    raw = {
        "discount": 0.0,
        "states": [{"name": "a", "loss": 3.0}],
        "actions": [{"name": "x", "cost": 1.0}],
        "transitions": [[[1.0]]],
    }
    model = validate_model(raw)
    config = config_for(model, samples=16, seed=1)
    assert config.horizon == 1
    mean, stderr = simulate_value(model, ProtectionPolicy((0,)), ZeroCoverage(), config)
    assert mean == 4.0 and stderr == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(horizon=0, samples=10, seed=1, truncation_tol=1e-6)
    # One sample has no standard error.
    for samples in (0, 1):
        with pytest.raises(ValueError, match="samples"):
            SimulationConfig(horizon=5, samples=samples, seed=1, truncation_tol=1e-6)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="seed"):
            SimulationConfig(horizon=5, samples=10, seed=seed, truncation_tol=1e-6)


CONFIG = {"horizon": 5, "samples": 10, "seed": 1, "truncation_tol": 1e-6}


@pytest.mark.parametrize("field", ["horizon", "samples", "seed"])
@pytest.mark.parametrize("value", [1.5, 10.0, True, np.bool_(True), "3", None])
def test_config_integer_fields_must_be_integers(field, value):
    # A float that is whole, or a bool, is not repaired into a count or a seed.
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        SimulationConfig(**{**CONFIG, field: value})


NOT_A_NUMBER = (TypeError, "must be a real number")


@pytest.mark.parametrize(
    "value, error",
    [(v, NOT_A_NUMBER) for v in (True, "1e-6", None)]
    + [(v, (ValueError, "must be finite and >= 0")) for v in (math.nan, math.inf, -1e-12, -1.0)],
)
def test_config_truncation_tol_must_be_finite_and_non_negative(value, error):
    kind, message = error
    with pytest.raises(kind, match=f"truncation_tol {message}"):
        SimulationConfig(**{**CONFIG, "truncation_tol": value})


def test_config_accepts_numpy_scalars_as_they_are(two_state):
    # The tail after 30 steps is at most 0.9**30 * 110 = 4.66.
    plain = SimulationConfig(horizon=30, samples=500, seed=4, truncation_tol=5.0)
    scalars = SimulationConfig(
        horizon=np.int64(30), samples=np.int32(500), seed=np.uint64(4), truncation_tol=np.float64(5.0)
    )
    got = simulate_value(two_state, PI_HH, ZeroCoverage(), scalars)
    assert got == simulate_value(two_state, PI_HH, ZeroCoverage(), plain)


@pytest.mark.parametrize(
    "rel_tol, error",
    [(v, NOT_A_NUMBER) for v in (True, "1e-6", None)]
    + [(v, (ValueError, "must be finite and > 0")) for v in (0.0, -1.0, math.nan, math.inf, -math.inf)],
)
def test_config_for_rel_tol_must_be_finite_and_positive(two_state, rel_tol, error):
    kind, message = error
    with pytest.raises(kind, match=f"rel_tol {message}"):
        config_for(two_state, samples=10, seed=0, rel_tol=rel_tol)


@pytest.mark.parametrize("field, value", [("samples", 10.0), ("seed", 1.5), ("seed", True)])
def test_config_for_names_a_bad_field(two_state, field, value):
    arguments = {"samples": 10, "seed": 0, field: value}
    with pytest.raises(TypeError, match=f"{field} must be an integer"):
        config_for(two_state, **arguments)


def test_identical_seeds_are_bit_identical(two_state):
    config = config_for(two_state, samples=4000, seed=123)
    first = simulate_value(two_state, PI_HH, ZeroCoverage(), config)
    second = simulate_value(two_state, PI_HH, ZeroCoverage(), config)
    assert first == second
    different = config_for(two_state, samples=4000, seed=124)
    assert simulate_value(two_state, PI_HH, ZeroCoverage(), different) != first


def test_batches_are_order_independent(two_state, monkeypatch):
    # Shrinking the batch size changes the partition, but the combined result
    # must equal recomputing the same batches independently in any order.
    monkeypatch.setattr(mc, "BATCH_SIZE", 1000)
    # The tail after 40 steps is at most 0.9**40 * 110 = 1.63.
    config = SimulationConfig(horizon=40, samples=3000, seed=9, truncation_tol=2.0)
    mean, _ = simulate_value(two_state, PI_HH, ZeroCoverage(), config)

    totals = []
    for batch in reversed(range(3)):
        part = SimulationConfig(horizon=40, samples=1000, seed=9, truncation_tol=2.0)
        # emulate batch `batch` by keying its stream directly
        rng = np.random.Generator(np.random.Philox(key=np.array([9, batch], dtype=np.uint64)))
        states = np.zeros(1000, dtype=np.intp)
        stage = np.array([1.0, 11.0])
        p = two_state.transitions[np.array([1, 1]), np.arange(2)]
        cum = np.cumsum(p, axis=1)
        cum[:, -1] = 1.0
        acc = np.zeros(1000)
        weight = 1.0
        for t in range(part.horizon):
            acc += weight * stage[states]
            weight *= two_state.discount
            if t + 1 < part.horizon:
                draws = rng.random(1000)
                states = (draws[:, None] >= cum[states]).sum(axis=1)
        totals.append(acc)
    recombined = np.concatenate(list(reversed(totals)))
    assert math.fsum(recombined) / len(recombined) == mean


def test_two_state_estimate_within_three_sigma(two_state):
    config = config_for(two_state, samples=100_000, seed=2024)
    mean, stderr = simulate_value(two_state, PI_HH, ZeroCoverage(), config)
    exact = evaluate_policy(two_state, PI_HH, ZeroCoverage())[0]
    assert stderr > 0.0
    assert abs(mean - exact) <= 3.0 * stderr + config.truncation_tol


def test_full_coverage_zero_cost_policy_is_exactly_zero(two_state):
    config = config_for(two_state, samples=500, seed=3)
    assert simulate_value(two_state, PI_LL, LinearCoverage(1.0), config) == (0.0, 0.0)


def test_deterministic_chain_is_exact():
    raw = {
        "discount": 0.9,
        "states": [{"name": "a", "loss": 2.0}, {"name": "b", "loss": 6.0}],
        "actions": [{"name": "x", "cost": 1.0}],
        "transitions": [[[0.0, 1.0], [0.0, 1.0]]],
    }
    model = validate_model(raw)
    # The tail after 25 steps is at most 0.9**25 * 7 / 0.1 = 5.03.
    config = SimulationConfig(horizon=25, samples=64, seed=5, truncation_tol=6.0)
    mean, stderr = simulate_value(model, ProtectionPolicy((0, 0)), ZeroCoverage(), config)
    expected = 0.0
    weight = 1.0
    state_losses = [3.0, 7.0]
    state = 0
    for t in range(25):
        expected += weight * state_losses[state]
        weight *= 0.9
        state = 1
    assert mean == expected
    assert stderr == 0.0


def test_coverage_paid_zero_when_uninsured(two_state):
    config = config_for(two_state, samples=400, seed=11)
    assert simulate_coverage_paid(two_state, PI_HH, ZeroCoverage(), config) == (0.0, 0.0)


def test_coverage_paid_full_insurance(two_state):
    config = config_for(two_state, samples=100_000, seed=77)
    mean, stderr = simulate_coverage_paid(two_state, PI_LL, LinearCoverage(1.0), config)
    assert abs(mean - 45.0) <= 3.0 * stderr + config.truncation_tol


def test_coverage_paid_cutoff_above_losses_is_zero(two_state):
    coverage = ThresholdCoverage(cutoff=100.0, low_level=0.0, high_level=0.9)
    config = config_for(two_state, samples=400, seed=13)
    assert simulate_coverage_paid(two_state, PI_HH, coverage, config) == (0.0, 0.0)


def test_doubling_horizon_only_moves_the_tail(two_state):
    base = config_for(two_state, samples=20_000, seed=21, rel_tol=1e-4)
    doubled = SimulationConfig(
        horizon=2 * base.horizon,
        samples=base.samples,
        seed=base.seed,
        truncation_tol=base.truncation_tol,
    )
    mean_short, stderr_short = simulate_value(two_state, PI_HH, ZeroCoverage(), base)
    mean_long, stderr_long = simulate_value(two_state, PI_HH, ZeroCoverage(), doubled)
    slack = base.truncation_tol + 3.0 * (stderr_short + stderr_long)
    assert abs(mean_long - mean_short) <= slack


def test_twenty_seed_consistency_band(two_state):
    exact = evaluate_policy(two_state, PI_HH, ZeroCoverage())[0]
    hits = 0
    for seed in range(20):
        config = config_for(two_state, samples=5000, seed=seed)
        mean, stderr = simulate_value(two_state, PI_HH, ZeroCoverage(), config)
        if abs(mean - exact) <= 3.0 * stderr + config.truncation_tol:
            hits += 1
    assert hits >= 18


def reference_next_states(p_pi, states, draws):
    """The comparison-sum inversion the sampler's step must reproduce exactly."""
    cum = np.cumsum(p_pi, axis=1)
    cum[:, -1] = 1.0
    return (draws[:, None] >= cum[states]).sum(axis=1)


def philox_step(guide, table, states, draws):
    """Each draw rounded down to a multiple of 2**-53, as a Philox word gives
    it, and the state ``_next_rows`` steps ``states`` to on that word."""
    # A raw word whose low 11 bits, which the draw drops, are all set.
    words = (np.asarray(draws, dtype=float) * 2.0**53).astype(np.uint64)
    raw = (words << np.uint64(11)) | np.uint64(0x7FF)
    rows = np.asarray(states, dtype=np.intp) << mc.GUIDE_BITS
    size = len(rows)
    mc._next_rows(guide, table, rows, raw, np.empty(size, np.intp), np.empty(size, bool))
    return words * 2.0**-53, rows >> mc.GUIDE_BITS


def assert_inversion_matches_reference(p_pi, states, draws):
    # The step with the guide table, and with every bucket ambiguous, so
    # that every draw takes the exact fallback.
    p_pi = np.asarray(p_pi, dtype=float)
    states = np.asarray(states, dtype=np.intp)
    table = mc._inversion_table(p_pi)
    for guide in (mc._guide_table(table), np.full(len(p_pi) << mc.GUIDE_BITS, -1)):
        philox_draws, got = philox_step(guide, table, states, draws)
        np.testing.assert_array_equal(got, reference_next_states(p_pi, states, philox_draws))


def edge_draws(p_pi):
    """Every cumulative entry below 1, its float neighbours and the first
    Philox draw at or above it, 0 and the largest draw."""
    cum = np.cumsum(p_pi, axis=1).ravel()
    cum = cum[cum < 1.0]
    above = np.ceil(cum * 2.0**53) * 2.0**-53
    near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0), above])
    return np.concatenate([near[near < 1.0], [0.0, np.nextafter(1.0, 0.0)]])


EDGE_ROWS = {
    "one state": [[1.0]],
    # Zero-probability columns repeat cumulative entries.
    "zero columns": [
        [0.0, 0.5, 0.0, 0.5],
        [0.25, 0.0, 0.0, 0.75],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    # The running sum reaches 1.0000000000000002 before the last column.
    "rounds above one": [[0.35779816513761475, 0.3211009174311927, 0.3211009174311927, 0.0]] * 4,
    # The running sum ends at 0.9999999999999999, the largest draw.
    "rounds below one": [[0.1] * 10] * 10,
    "two states": [[0.5, 0.5], [0.6, 0.4]],
    "five states": [
        [0.2] * 5,
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.1, 0.2, 0.3, 0.4, 0.0],
        [0.2] * 5,
    ],
    "eight states": [[0.125] * 8] * 8,
}


@pytest.mark.parametrize("name", sorted(EDGE_ROWS))
def test_inversion_matches_reference_on_edge_rows(name):
    p_pi = np.array(EDGE_ROWS[name])
    draws = edge_draws(p_pi)
    for state in range(len(p_pi)):
        assert_inversion_matches_reference(p_pi, np.full(len(draws), state), draws)


@st.composite
def stochastic_rows_and_draws(draw):
    n = draw(st.integers(1, 20))
    weights = draw(arrays(float, (n, n), elements=st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
    weights[weights.sum(axis=1) == 0.0, n - 1] = 1.0
    p_pi = weights / weights.sum(axis=1, keepdims=True)
    k = draw(st.integers(1, 64))
    states = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    uniform = st.floats(0.0, 1.0, exclude_max=True)
    on_entry = st.sampled_from(sorted(set(edge_draws(p_pi).tolist())))
    draws = draw(st.lists(st.one_of(uniform, on_entry), min_size=k, max_size=k))
    return p_pi, states, draws


@settings(deadline=None)
@given(stochastic_rows_and_draws())
def test_inversion_matches_reference_on_random_rows(case):
    assert_inversion_matches_reference(*case)


def test_inversion_table_rows_never_decrease():
    # Validation tolerates entries down to -ROW_SUM_TOL; the running maximum
    # keeps such a row searchable and gives the negative entry no draws.
    raw = {
        "discount": 0.9,
        "states": [{"name": f"s{i}", "loss": 1.0} for i in range(3)],
        "actions": [{"name": "a", "cost": 0.0}],
        "transitions": [[[0.5, -5e-10, 0.5 + 5e-10]] * 3],
    }
    p_pi = validate_model(raw).transitions[0]
    table = mc._inversion_table(p_pi)
    assert table.shape == (3, 3)
    assert (np.diff(table, axis=1) >= 0.0).all()
    dip = np.array([np.nextafter(0.5, 0.0), 0.5 - 2.5e-10])
    ambiguous = np.full(3 << mc.GUIDE_BITS, -1)
    _, got = philox_step(ambiguous, table, np.zeros(2, dtype=np.intp), dip)
    assert got.tolist() == [0, 0]


BUCKETS = 1 << mc.GUIDE_BITS
# Every bucket edge b / BUCKETS below 1 and its float neighbours in [0, 1).
_EDGES = np.arange(BUCKETS) / BUCKETS
BUCKET_EDGE_DRAWS = np.unique(
    np.concatenate([_EDGES, np.nextafter(_EDGES[1:], 0.0), np.nextafter(_EDGES, 1.0)])
)


def guide_next_states(p_pi, states, draws):
    """Guide entries at ``draws``, and the step on the Philox draws below them.

    Returns the guide's state for each draw (-1 where its bucket is
    ambiguous), each draw rounded down to a multiple of 2**-53 as a Philox
    word gives it, and the state ``_next_rows`` picks for that word.  Also
    checks that a row has at most n - 1 ambiguous buckets.
    """
    p_pi = np.asarray(p_pi, dtype=float)
    states = np.asarray(states, dtype=np.intp)
    draws = np.asarray(draws, dtype=float)
    table = mc._inversion_table(p_pi)
    guide = mc._guide_table(table)
    n = len(p_pi)
    assert ((guide.reshape(n, BUCKETS) < 0).sum(axis=1) <= n - 1).all()
    # Scaling by a power of two is exact, so this is the bucket of each draw.
    entries = guide[states * BUCKETS + (draws * BUCKETS).astype(np.intp)]
    entries[entries >= 0] >>= mc.GUIDE_BITS
    return (entries, *philox_step(guide, table, states, draws))


def assert_guide_matches_reference(p_pi, states, draws):
    p_pi = np.asarray(p_pi, dtype=float)
    entries, philox_draws, got = guide_next_states(p_pi, states, draws)
    known = entries >= 0
    expected = reference_next_states(p_pi, states, np.asarray(draws, dtype=float))
    np.testing.assert_array_equal(entries[known], expected[known])
    np.testing.assert_array_equal(got, reference_next_states(p_pi, states, philox_draws))


@pytest.mark.parametrize("name", sorted(EDGE_ROWS))
def test_guide_matches_reference_on_edge_rows(name):
    p_pi = np.array(EDGE_ROWS[name])
    draws = np.concatenate([edge_draws(p_pi), BUCKET_EDGE_DRAWS])
    for state in range(len(p_pi)):
        assert_guide_matches_reference(p_pi, np.full(len(draws), state), draws)


def _edge_rows():
    """Two-entry rows whose first cumulative entry is a bucket edge or one ulp off it."""
    rows = []
    for edge in (1 / BUCKETS, 0.25, 0.5, 1 - 1 / BUCKETS):
        for first in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, 1.0)):
            rows.append([first, 1.0 - first])
    return rows


@pytest.mark.parametrize("row", _edge_rows(), ids=lambda row: repr(row[0]))
def test_guide_matches_reference_on_bucket_edges(row):
    p_pi = np.array([row, row[::-1]])
    draws = np.concatenate([edge_draws(p_pi), BUCKET_EDGE_DRAWS])
    for state in range(2):
        assert_guide_matches_reference(p_pi, np.full(len(draws), state), draws)


def test_guide_matches_reference_on_quarter_rows():
    # Three interior entries, each exactly on an edge: no bucket is ambiguous.
    p_pi = np.full((4, 4), 0.25)
    assert (mc._guide_table(mc._inversion_table(p_pi)) >= 0).all()
    assert_guide_matches_reference(p_pi, np.zeros(len(BUCKET_EDGE_DRAWS), np.intp), BUCKET_EDGE_DRAWS)


def test_guide_gives_a_tolerated_negative_entry_no_draws():
    raw = {
        "discount": 0.9,
        "states": [{"name": f"s{i}", "loss": 1.0} for i in range(3)],
        "actions": [{"name": "a", "cost": 0.0}],
        "transitions": [[[0.5, -5e-10, 0.5 + 5e-10]] * 3],
    }
    p_pi = validate_model(raw).transitions[0]
    dip = np.array([0.5 - 5e-10, np.nextafter(0.5, 0.0), 0.5 - 2.5e-10])
    draws = np.concatenate([edge_draws(p_pi), BUCKET_EDGE_DRAWS, dip])
    states = np.zeros(len(draws), np.intp)
    entries, philox_draws, got = guide_next_states(p_pi, states, draws)
    # In the dip the comparison sum counts the entry that went below the one
    # before it; the running maximum, which the step counts over, does not.
    for at, picked in ((draws, entries), (philox_draws, got)):
        in_dip = (at >= 0.5 - 5e-10) & (at < 0.5)
        assert in_dip.sum() >= 2 and (picked[in_dip] <= 0).all()
        expected = reference_next_states(p_pi, states, at)
        known = ~in_dip & (picked >= 0)
        np.testing.assert_array_equal(picked[known], expected[known])
    assert (got >= 0).all()


@st.composite
def stochastic_rows_and_bucket_edge_draws(draw):
    p_pi, states, draws = draw(stochastic_rows_and_draws())
    on_edge = st.one_of(st.none(), st.sampled_from(BUCKET_EDGE_DRAWS.tolist()))
    edges = draw(st.lists(on_edge, min_size=len(draws), max_size=len(draws)))
    return p_pi, states, [d if e is None else e for d, e in zip(draws, edges)]


@settings(deadline=None)
@given(stochastic_rows_and_bucket_edge_draws())
def test_guide_matches_reference_on_random_rows(case):
    assert_guide_matches_reference(*case)


@pytest.mark.parametrize("key", [0, 1, 2**64 - 1])
def test_raw_words_give_the_generator_draws(key):
    # The sampler reads raw Philox words in place of Generator.random.
    seed = np.array([key, 3], dtype=np.uint64)
    bits = np.random.Philox(key=seed)
    generator = np.random.Generator(np.random.Philox(key=seed))
    # Sizes that end inside Philox's four-word blocks.
    for size in (1, 1001, 6):
        raw = bits.random_raw(size)
        np.testing.assert_array_equal((raw >> 11) * 2.0**-53, generator.random(size))


def sixteen_state_case():
    rng = random.Random(16)
    n, m = 16, 3
    raw = {
        "discount": 0.9,
        "states": [
            {"name": f"S{i}", "loss": 0.0 if i == 0 else rng.uniform(0.5, 20.0)} for i in range(n)
        ],
        "actions": [{"name": f"A{j}", "cost": 0.3 * j} for j in range(m)],
        "transitions": [],
    }
    for a in range(m):
        block = []
        for _ in range(n):
            # About a quarter of the entries are zero.
            w = [rng.random() if rng.random() < 0.75 else 0.0 for _ in range(n)]
            w[0] += 0.5 * a + 0.01
            total = sum(w)
            block.append([x / total for x in w])
        raw["transitions"].append(block)
    policy = ProtectionPolicy(tuple(rng.randrange(m) for _ in range(n)))
    return validate_model(raw), policy, LinearCoverage(0.7)


# (mean, stderr) of simulate_value, then of simulate_coverage_paid, at 70,000
# samples (two Philox batches) and seed 7: the random stream, the batch keying
# and the state order, pinned bit for bit.
PINNED_STREAMS = {
    "two_state": (
        (23.183521911664958, 0.02395356757379705),
        (8.78902068800634, 0.015969045049198043),
    ),
    "four_state": (
        (11.958761711777825, 0.01032210641922272),
        (3.3022289753504266, 0.014116683787021765),
    ),
    "sixteen_state": (
        (23.378403334977623, 0.011935888194285692),
        (49.1823147731325, 0.02707885107163898),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_STREAMS))
def test_estimates_are_pinned_bit_for_bit(name, two_state, four_state):
    model, policy, coverage = {
        "two_state": lambda: (two_state, PI_HH, LinearCoverage(0.4)),
        "four_state": lambda: (
            four_state,
            ProtectionPolicy((2, 2, 1, 0)),
            ThresholdCoverage(6.0, 0.2, 0.9),
        ),
        "sixteen_state": sixteen_state_case,
    }[name]()
    config = config_for(model, samples=70_000, seed=7)
    assert config.horizon == 132
    got = (
        simulate_value(model, policy, coverage, config),
        simulate_coverage_paid(model, policy, coverage, config),
    )
    assert got == PINNED_STREAMS[name]


def reference_estimate(model, policy, coverage, config, batch_size):
    """The serial sampler: Generator.random draws and the comparison-sum inversion."""
    n = model.n_states
    p_pi = model.transitions[np.asarray(policy.actions), np.arange(n)]
    stage = stage_loss_matrix(model, coverage)[np.arange(n), policy.actions]
    totals = []
    for batch, start in enumerate(range(0, config.samples, batch_size)):
        size = min(batch_size, config.samples - start)
        rng = np.random.Generator(np.random.Philox(key=np.array([config.seed, batch], dtype=np.uint64)))
        states = np.full(size, model.initial_state, dtype=np.intp)
        acc = np.zeros(size)
        weight = 1.0
        for t in range(config.horizon):
            acc += weight * stage[states]
            weight *= model.discount
            if t + 1 < config.horizon:
                states = reference_next_states(p_pi, states, rng.random(size))
        totals.append(acc)
    totals = np.concatenate(totals)
    mean = math.fsum(totals) / config.samples
    variance = math.fsum((totals - mean) ** 2) / (config.samples - 1)
    return mean, math.sqrt(variance / config.samples)


def on_cpus(monkeypatch, cpus, meet=False):
    """Let the sampler see ``cpus`` CPUs; returns the set of threads that step batches.

    With ``meet``, each thread's first batch waits until ``cpus`` threads
    hold one, so no share ends (and frees its thread for another share)
    before every share has a thread of its own; fewer threads break the
    barrier.
    """
    monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    threads = set()
    batch = mc._simulate_batch
    barrier = threading.Barrier(cpus, timeout=10.0)

    def recorded(*args):
        thread = threading.get_ident()
        first = thread not in threads
        threads.add(thread)
        if meet and first:
            barrier.wait()
        batch(*args)

    monkeypatch.setattr(mc, "_simulate_batch", recorded)
    return threads


def test_parallel_batches_are_the_serial_batches(four_state, monkeypatch):
    # Nine batches, the last one short, on four workers, more than this
    # suite can assume cores, switching threads as often as the interpreter can.
    monkeypatch.setattr(mc, "BATCH_SIZE", 500)
    config = SimulationConfig(horizon=60, samples=4321, seed=31, truncation_tol=1.0)
    case = (four_state, ProtectionPolicy((2, 2, 1, 0)), ThresholdCoverage(6.0, 0.2, 0.9))
    estimates = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for cpus in (1, 4):
            threads = on_cpus(monkeypatch, cpus, meet=True)
            estimates[cpus] = simulate_value(*case, config)
            assert len(threads) == cpus
    finally:
        sys.setswitchinterval(interval)
    assert estimates[1] == estimates[4] == reference_estimate(*case, config, 500)


def test_no_worker_outlives_an_estimate(two_state, monkeypatch):
    monkeypatch.setattr(mc, "BATCH_SIZE", 500)
    threads = on_cpus(monkeypatch, 4, meet=True)
    before = threading.active_count()
    # The tail after 20 steps is at most 0.9**20 * 110 = 13.4.
    config = SimulationConfig(horizon=20, samples=4000, seed=2, truncation_tol=14.0)
    simulate_value(two_state, PI_HH, ZeroCoverage(), config)
    assert len(threads) == 4
    assert threading.active_count() == before


def test_a_failing_worker_batch_fails_the_estimate(two_state, monkeypatch, capsys):
    monkeypatch.setattr(mc, "BATCH_SIZE", 500)
    on_cpus(monkeypatch, 2)
    batch = mc._simulate_batch
    failed_on = []

    def second_batch_fails(*args):
        if args[-2] == 1:
            failed_on.append(threading.current_thread())
            raise MemoryError("Unable to allocate the second batch")
        batch(*args)

    monkeypatch.setattr(mc, "_simulate_batch", second_batch_fails)
    before = threading.active_count()
    config = SimulationConfig(horizon=20, samples=1000, seed=2, truncation_tol=14.0)
    with pytest.raises(MemoryError, match="second batch"):
        simulate_value(two_state, PI_HH, ZeroCoverage(), config)
    assert failed_on and failed_on[0] is not threading.main_thread()
    assert threading.active_count() == before

    model = str(bundled_model_path("two_state.model"))
    argv = ["simulate", "--model", model, "--coverage", "none", "--policy", "A_H|A_H", "--samples", "1000"]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate the second batch\n"
    assert "estimate" not in captured.out


@pytest.mark.parametrize("estimator", [simulate_value, simulate_coverage_paid])
@pytest.mark.parametrize("actions", [(1, 1, 1), (0, 5), (0, -1)])
def test_invalid_policy_is_a_value_error(two_state, estimator, actions):
    config = config_for(two_state, samples=10, seed=0)
    with pytest.raises(ValueError, match="policy"):
        estimator(two_state, ProtectionPolicy(actions), LinearCoverage(0.5), config)
