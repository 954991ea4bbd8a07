import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyins import contracts
from cyins.contracts import (
    CertificateError,
    make_linear_refiner,
    make_threshold_refiner,
    optimal_region,
    sweep_linear,
    sweep_threshold,
)
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    evaluate_policy,
    validate_model,
)
from cyins.solvers import (
    SolveResult,
    bellman_update,
    solve_value_iteration,
    solve_value_iterations,
)

from helpers import TWO_STATE_RAW, random_coverage, random_model

EXACT_SWITCH_BAD = 1.0 - 0.82 / 0.9
EXACT_PREMIUM_RATE = 1.8 / 0.082

WEAK, STRONG = 0, 1


def quote(model, coverage):
    """The one-row sweep that prices ``coverage``."""
    if isinstance(coverage, ThresholdCoverage):
        return sweep_threshold(
            model, coverage.low_level, coverage.high_level, [coverage.cutoff]
        )[0]
    level = coverage.level if isinstance(coverage, LinearCoverage) else 0.0
    return sweep_linear(model, [level])[0]


def coverage_paid(row):
    """Expected discounted reimbursement: the induced policy's uninsured value minus its insured value."""
    return row.direct_losses + row.protection_cost - row.user_value


# ------------------------------------------------------------------ premiums

def test_max_premium_scales_with_level_before_switch(two_state):
    for row in sweep_linear(two_state, [0.02, 0.05, 0.08]):
        assert row.max_premium == pytest.approx(row.parameter * EXACT_PREMIUM_RATE, abs=1e-9)
    assert quote(two_state, LinearCoverage(0.05)).max_premium == pytest.approx(1.09756, abs=1e-5)


def test_max_premium_zero_for_zero_coverage(two_state):
    assert quote(two_state, ZeroCoverage()).max_premium == 0.0


def test_max_premium_never_negative_random():
    rng = np.random.default_rng(17)
    for _ in range(20):
        model = random_model(rng)
        assert quote(model, random_coverage(rng, model)).max_premium >= 0.0


# ------------------------------------------------------------------ coverage

def test_expected_coverage_zero_when_uninsured(two_state):
    assert coverage_paid(quote(two_state, ZeroCoverage())) == 0.0


def test_expected_coverage_full_insurance_is_whole_loss_stream(two_state):
    row = quote(two_state, LinearCoverage(1.0))
    assert row.policy.actions == (WEAK, WEAK)
    assert coverage_paid(row) == pytest.approx(45.0, abs=1e-9)


def test_expected_coverage_linear_within_fixed_policy(two_state):
    rows = sweep_linear(two_state, [0.02, 0.04, 0.06])
    ratios = [coverage_paid(row) / row.parameter for row in rows]
    assert ratios[0] == pytest.approx(ratios[1], abs=1e-9)
    assert ratios[1] == pytest.approx(ratios[2], abs=1e-9)


# -------------------------------------------------------------------- profit

def test_profit_zero_when_policy_unchanged(two_state):
    for row in sweep_linear(two_state, [0.0, 0.05, 0.08]):
        assert row.profit == 0.0


def test_profit_reference_full_coverage(two_state):
    assert quote(two_state, LinearCoverage(1.0)).profit == pytest.approx(-13.0488, abs=1e-3)


def test_profit_accounting_identity_random():
    rng = np.random.default_rng(23)
    for _ in range(20):
        model = random_model(rng)
        row = quote(model, random_coverage(rng, model))
        assert row.profit == pytest.approx(row.max_premium - coverage_paid(row), abs=1e-9)


# ------------------------------------------------------------------- sweeps

def test_linear_sweep_reference_policies(two_state):
    rows = sweep_linear(two_state, [0.0, 0.05, 0.0889, 0.5, 1.0])
    assert [r.policy.actions for r in rows] == [
        (STRONG, STRONG),
        (STRONG, STRONG),
        (STRONG, WEAK),
        (STRONG, WEAK),
        (WEAK, WEAK),
    ]
    baseline_policy = rows[0].policy
    for row in rows:
        if row.policy == baseline_policy:
            assert row.profit == pytest.approx(0.0, abs=1e-12)
        else:
            assert row.profit < 0.0
        assert row.max_premium >= 0.0


def test_sweep_rows_recompute_profit_from_decomposition(two_state):
    rows = sweep_linear(two_state, list(np.linspace(0.0, 1.0, 21)))
    baseline_value = rows[0].user_value
    for row in rows:
        recomputed = baseline_value - (row.direct_losses + row.protection_cost)
        assert row.profit == pytest.approx(recomputed, abs=1e-9)


def test_sweep_grid_validation(two_state):
    with pytest.raises(ValueError):
        sweep_linear(two_state, [0.2, 0.1])
    with pytest.raises(ValueError):
        sweep_linear(two_state, [0.0, 1.5])
    with pytest.raises(ValueError):
        sweep_threshold(two_state, 0.9, 0.2)


def test_four_state_cost_monotone_and_premium_affine(four_state):
    rows = sweep_linear(four_state, list(np.linspace(0.0, 1.0, 51)))
    for earlier, later in zip(rows, rows[1:]):
        assert later.protection_cost <= earlier.protection_cost + 1e-9
    assert max(r.profit for r in rows) == pytest.approx(0.0, abs=1e-7)


def test_threshold_sweep_reference(four_state):
    grid = list(np.linspace(0.0, 20.0, 81))
    rows = sweep_threshold(four_state, 0.0, 0.9, grid)
    baseline_policy = solve_value_iteration(four_state, ZeroCoverage()).policy
    for row in rows:
        if row.parameter > 16.0:
            assert row.policy == baseline_policy
            assert row.max_premium == 0.0
            assert row.profit == 0.0
    # premium is a non-increasing staircase
    for earlier, later in zip(rows, rows[1:]):
        assert later.max_premium <= earlier.max_premium + 1e-9
    assert max(r.profit for r in rows) == pytest.approx(0.0, abs=1e-7)


def test_threshold_cutoff_at_a_state_loss_pays_the_low_tier(four_state):
    # 8.0 is the loss of S_B2: at that cutoff only S_B3 is covered, so the
    # user keeps the no-insurance policy and the row prices the [8, 16) step.
    below, at_loss = sweep_threshold(four_state, 0.0, 0.9, [7.9999999, 8.0])
    assert at_loss.policy == quote(four_state, ZeroCoverage()).policy
    assert at_loss.profit == 0.0
    assert at_loss.max_premium == 0.25859342283531817
    assert below.profit < 0.0


# --------------------------------------------------------------- certificate

def test_sweep_raises_when_value_iteration_does_not_converge():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9999
    model = validate_model(raw)
    with pytest.raises(CertificateError, match="converged=False"):
        sweep_linear(model, [0.0, 0.5])


def test_solve_raises_when_the_residual_bound_fails(two_state, monkeypatch):
    coverage = LinearCoverage(0.5)
    optimal = solve_value_iteration(two_state, coverage)
    worse = ProtectionPolicy(tuple(1 - a for a in optimal.policy.actions))
    values = evaluate_policy(two_state, worse, coverage)
    residual = float(np.abs(values - bellman_update(two_state, coverage, values)).max())

    def suboptimal(model, requested, tol):
        solved = solve_value_iterations(model, requested, tol=tol)
        fake = SolveResult(policy=worse, values=values, iterations=1, residual=residual)
        return [fake if c == coverage else r for c, r in zip(requested, solved)]

    monkeypatch.setattr(contracts, "solve_value_iterations", suboptimal)
    with pytest.raises(CertificateError, match="converged=True"):
        quote(two_state, coverage)


# ------------------------------------------------------------- batched solves

@st.composite
def coverage_stacks(draw):
    """A random model of at most 12 states and 3 actions, and coverages with repeats."""
    model = random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), max_states=12, max_actions=3
    )
    top = float(model.losses.max())
    levels = st.floats(0.0, 1.0)
    one = st.one_of(
        st.just(ZeroCoverage()),
        st.just(LinearCoverage(0.0)),
        st.builds(LinearCoverage, levels),
        st.builds(ThresholdCoverage, st.floats(0.0, 1.2 * top), st.just(0.0), levels),
    )
    distinct = draw(st.lists(one, min_size=1, max_size=5))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=4))
    return model, draw(st.permutations(distinct + repeats))


@settings(deadline=None, max_examples=40)
@given(coverage_stacks())
def test_batched_solves_match_solving_each_coverage_alone(stack):
    # Iteration counts are not compared: batched products may move the stop
    # by a few iterations, but never the policy or its exact values.
    model, coverages = stack
    alone = [solve_value_iteration(model, c, tol=contracts.CERT_TOL) for c in coverages]
    for batched in (
        solve_value_iterations(model, coverages, tol=contracts.CERT_TOL),
        contracts._solve_many(model, coverages),
    ):
        assert len(batched) == len(coverages)
        for single, together in zip(alone, batched):
            assert together.converged
            assert together.policy == single.policy
            assert np.array_equal(together.values, single.values)


@pytest.fixture
def solve_calls(monkeypatch):
    """Number of problems in each value-iteration call the contracts layer makes."""
    calls = []

    def counting(model, coverages, tol):
        calls.append(len(coverages))
        return solve_value_iterations(model, coverages, tol=tol)

    monkeypatch.setattr(contracts, "solve_value_iterations", counting)
    return calls


def test_threshold_sweep_solves_each_paid_vector_once(four_state, solve_calls):
    # The baseline and the four cutoff bands below 4, 8, 16 and beyond pay
    # four distinct vectors; the band beyond 16 pays nothing, like the baseline.
    rows = sweep_threshold(four_state, 0.0, 0.9)
    assert len(rows) == contracts.THRESHOLD_GRID_POINTS
    assert solve_calls == [4]


def test_linear_sweep_solves_all_rows_in_one_call(two_state, solve_calls):
    # Level 0 pays what the baseline pays; every other level is distinct.
    sweep_linear(two_state)
    assert solve_calls == [contracts.LINEAR_GRID_POINTS]


def test_refiner_solves_a_paid_vector_once(four_state, solve_calls):
    refine = make_threshold_refiner(four_state, 0.0, 0.9)
    # Every bisection step between the losses 8 and 16 pays the same vector.
    for _ in range(2):
        refine(9.0, 12.0)
    assert solve_calls == [1]


# ------------------------------------------------------------ region report

def test_optimal_region_reference(two_state):
    rows = sweep_linear(two_state)
    region = optimal_region(rows, make_linear_refiner(two_state))
    assert len(region.intervals) == 1
    interval = region.intervals[0]
    assert interval.lo == 0.0 and interval.lo_closed
    assert not interval.hi_closed
    assert interval.hi == pytest.approx(0.0889, abs=1e-3)
    assert interval.premium_intercept == pytest.approx(0.0, abs=1e-9)
    assert interval.premium_slope == pytest.approx(EXACT_PREMIUM_RATE, abs=1e-6)
    assert region.max_profit == pytest.approx(0.0, abs=1e-7)
    assert region.representative_parameter == pytest.approx(EXACT_SWITCH_BAD, abs=1e-3)
    assert region.representative_premium == pytest.approx(
        EXACT_SWITCH_BAD * EXACT_PREMIUM_RATE, abs=1e-3
    )
    assert not region.representative_attained


def test_optimal_region_covers_everything_when_policy_never_switches(two_state):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["actions"][1]["cost"] = 100.0
    model = validate_model(raw)
    rows = sweep_linear(model)
    region = optimal_region(rows, make_linear_refiner(model))
    assert len(region.intervals) == 1
    interval = region.intervals[0]
    assert (interval.lo, interval.hi) == (0.0, 1.0)
    assert interval.lo_closed and interval.hi_closed
    assert region.representative_attained


def test_optimal_region_degenerate_grid(two_state):
    rows = sweep_linear(two_state, [0.0])
    region = optimal_region(rows)
    assert len(region.intervals) == 1
    interval = region.intervals[0]
    assert (interval.lo, interval.hi) == (0.0, 0.0)
    assert interval.lo_closed and interval.hi_closed
    assert region.representative_premium == 0.0


def test_optimal_region_threshold_staircase(four_state):
    rows = sweep_threshold(four_state, 0.0, 0.9, list(np.linspace(0.0, 20.0, 201)))
    refiner = make_threshold_refiner(four_state, 0.0, 0.9)
    region = optimal_region(rows, refiner)
    # all intervals sit at zero profit; steps carry constant premiums
    assert region.max_profit == pytest.approx(0.0, abs=1e-7)
    for interval in region.intervals:
        assert interval.premium_slope == pytest.approx(0.0, abs=1e-9)
    # the cheapest-coverage step (cutoff above every loss) pays no premium
    last = region.intervals[-1]
    assert last.hi == 20.0 and last.hi_closed
    assert last.premium(20.0) == 0.0
    # the most generous zero-profit step charges the largest premium
    assert region.representative_premium == pytest.approx(
        max(r.max_premium for r in rows if abs(r.profit) <= 1e-7), abs=1e-6
    )


def test_optimal_region_requires_rows():
    with pytest.raises(ValueError):
        optimal_region([])


def test_zero_profit_principle_random_models():
    rng = np.random.default_rng(29)
    for _ in range(10):
        model = random_model(rng, max_states=3, max_actions=2)
        rows = sweep_linear(model, list(np.linspace(0.0, 1.0, 21)))
        best = max(rows, key=lambda r: r.profit)
        assert abs(best.profit) <= 1e-7
        assert best.policy == rows[0].policy  # attained where the policy is unchanged


# ----------------------------------------------------------------- peltzman

def test_rows_with_changed_policy_have_higher_direct_losses(two_state):
    rows = sweep_linear(two_state, list(np.linspace(0.0, 1.0, 21)))
    baseline = rows[0]
    for row in rows:
        if row.policy != baseline.policy:
            assert row.direct_losses > baseline.direct_losses + 1e-6
