import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import cyins.montecarlo as mc
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    evaluate_policy,
    validate_model,
)
from cyins.montecarlo import SimulationConfig, config_for, simulate_coverage_paid, simulate_value

PI_HH = ProtectionPolicy((1, 1))
PI_LL = ProtectionPolicy((0, 0))


def test_config_horizon_satisfies_tail_bound(two_state):
    config = config_for(two_state, samples=10, seed=0)
    delta = two_state.discount
    max_stage = float(two_state.losses.max() + two_state.costs.max())
    tail = delta**config.horizon * max_stage / (1.0 - delta)
    assert tail <= config.truncation_tol


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
    config = SimulationConfig(horizon=40, samples=3000, seed=9, truncation_tol=1.0)
    mean, _ = simulate_value(two_state, PI_HH, ZeroCoverage(), config)

    totals = []
    for batch in reversed(range(3)):
        part = SimulationConfig(horizon=40, samples=1000, seed=9, truncation_tol=1.0)
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
    config = SimulationConfig(horizon=25, samples=64, seed=5, truncation_tol=1.0)
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
    """The comparison-sum inversion the binary search must reproduce exactly."""
    cum = np.cumsum(p_pi, axis=1)
    cum[:, -1] = 1.0
    return (draws[:, None] >= cum[states]).sum(axis=1)


def assert_inversion_matches_reference(p_pi, states, draws):
    p_pi = np.asarray(p_pi, dtype=float)
    states = np.asarray(states, dtype=np.intp)
    draws = np.asarray(draws, dtype=float)
    table, width = mc._inversion_table(p_pi)
    got = mc._next_states(table, width, states, draws)
    np.testing.assert_array_equal(got, reference_next_states(p_pi, states, draws))


def edge_draws(p_pi):
    """Every cumulative entry below 1, its float neighbours, 0 and the largest draw."""
    cum = np.cumsum(p_pi, axis=1).ravel()
    cum = cum[cum < 1.0]
    near = np.concatenate([cum, np.nextafter(cum, 0.0), np.nextafter(cum, 1.0)])
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
    table, width = mc._inversion_table(p_pi)
    assert width == 4
    assert (np.diff(table.reshape(3, width), axis=1) >= 0.0).all()
    dip = np.array([np.nextafter(0.5, 0.0), 0.5 - 2.5e-10])
    assert mc._next_states(table, width, np.zeros(2, dtype=np.intp), dip).tolist() == [0, 0]


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


@pytest.mark.parametrize("estimator", [simulate_value, simulate_coverage_paid])
@pytest.mark.parametrize("actions", [(1, 1, 1), (0, 5), (0, -1)])
def test_invalid_policy_is_a_value_error(two_state, estimator, actions):
    config = config_for(two_state, samples=10, seed=0)
    with pytest.raises(ValueError, match="policy"):
        estimator(two_state, ProtectionPolicy(actions), LinearCoverage(0.5), config)
