import copy
import dataclasses
import importlib
import pkgutil
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyins
from cyins import contracts, solvers
from cyins import model as model_module
from cyins.contracts import (
    CertificateError,
    ContractSweepRow,
    Sweep,
    optimal_region,
    solve,
    sweep_linear,
    sweep_threshold,
)
from cyins.harness import STUDIES, bundled_model, reproduce
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    coverages_paid,
    decompose_value,
    evaluate_policy,
    validate_model,
)
from cyins.solvers import (
    SolveResult,
    bellman_update,
    solve_policy_enumeration,
    solve_value_iteration,
    solve_value_iterations,
)

from helpers import (
    TWO_STATE_RAW,
    _bisect_switch,
    priced_problems,
    random_coverage,
    random_model,
    region_by_row_walk,
    results,
)

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


@pytest.mark.parametrize("grid", [[-0.1], [0.0, 1.5], [0.5, np.nan], [np.inf], np.array([-np.inf, 0.5])])
def test_linear_sweep_rejects_levels_outside_the_unit_interval(two_state, grid):
    with pytest.raises(ValueError, match=r"linear sweep grid must lie within \[0, 1\]"):
        sweep_linear(two_state, grid)


@pytest.mark.parametrize(
    "grid, bad",
    [([-1.0], -1.0), ([-np.inf, 0.0], -np.inf), ([0.0, 4.0, np.inf], np.inf), ([0.0, np.nan, 4.0], np.nan)],
)
def test_threshold_sweep_rejects_negative_and_non_finite_cutoffs(four_state, grid, bad):
    message = re.escape(f"cutoff must be finite and non-negative, got {bad}")
    for cutoffs in (grid, np.array(grid)):
        with pytest.raises(ValueError, match=message):
            sweep_threshold(four_state, 0.0, 0.9, cutoffs)


@pytest.mark.parametrize(
    "flag",
    [True, False, np.True_, np.False_, "0.5", b"0.5"],
    ids=["True", "False", "flag2", "flag3", "str", "bytes"],
)
def test_sweeps_reject_bools_in_grids_and_tiers(two_state, four_state, flag):
    # A bool converts to a level or cutoff of 0 or 1, and a numeric string to
    # its number, but neither is a number, alone, among floats or as an
    # array; a tier level is checked even for an empty grid.  A string grid
    # once returned a sweep at the level it spells.
    for grid in ([flag], [0.0, flag], np.array([flag])):
        with pytest.raises(TypeError, match="must be a number"):
            sweep_linear(two_state, grid)
        with pytest.raises(TypeError, match="must be a number"):
            sweep_threshold(four_state, 0.0, 0.9, grid)
    with pytest.raises(TypeError, match="low_level must be a real number"):
        sweep_threshold(four_state, flag, 1.0, [8.0])
    with pytest.raises(TypeError, match="high_level must be a real number"):
        sweep_threshold(four_state, 0.0, flag, [])


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
    assert at_loss.max_premium == 0.2585934228353217
    assert below.profit < 0.0


# --------------------------------------------------------------- certificate

def test_solve_is_the_certified_value_iteration(two_state, four_state):
    # No insurance and linear coverage are walked, two-tier coverage is
    # iterated; either way the policy is value iteration's.  Both sum a
    # policy's two streams, and the walk scales its direct-loss stream by
    # 1 - R where value iteration solves for the retained losses
    # (1 - R) * loss.  So the values agree bit for bit when 1 - R is a
    # power of two (levels 0 and 0.5), and at 0.3 within the sum of the two
    # certificate bounds, each the distance to the optimal values.
    coverages = (ZeroCoverage(), LinearCoverage(0.5), LinearCoverage(0.3), ThresholdCoverage(8.0, 0.0, 0.9))
    for model in (two_state, four_state):
        for coverage in coverages:
            solved = solve(model, coverage)
            alone = solve_value_iteration(model, coverage, tol=contracts.CERT_TOL)
            assert solved.policy == alone.policy
            if coverage == LinearCoverage(0.3):
                gap = np.abs(solved.values - alone.values).max()
                assert gap <= solved.certificate_bound + alone.certificate_bound
            else:
                assert np.array_equal(solved.values, alone.values)
            assert solved.certificate_bound == solved.residual / (1.0 - model.discount)
            limit = contracts.CERT_TOL * (1.0 + np.abs(solved.values).max())
            assert solved.converged and solved.certificate_bound <= limit


def test_sweep_certifies_where_value_iteration_does_not_converge():
    # Two-tier coverage is solved by value iteration, whose stopping rule
    # does not fire within max_iter at this discount; the certificate alone
    # gates the result, and it proves the returned policy optimal.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9999
    model = validate_model(raw)
    coverage = ThresholdCoverage(5.0, 0.0, 0.5)
    solved = solve(model, coverage)
    assert not solved.converged and solved.iterations == 200_000
    limit = contracts.CERT_TOL * (1.0 + np.abs(solved.values).max())
    assert np.isfinite(solved.values).all() and solved.certificate_bound <= limit
    (row,) = sweep_threshold(model, 0.0, 0.5, [5.0])
    best = solve_policy_enumeration(model, coverage)
    assert row.policy == solved.policy == best.policy
    assert row.user_value == solved.values[model.initial_state]


@pytest.mark.parametrize("coverage", [None, "x", 0.5])
def test_solve_rejects_what_is_not_a_coverage(two_state, coverage):
    with pytest.raises(TypeError, match="not a coverage policy"):
        solve(two_state, coverage)


def test_solve_raises_when_the_residual_bound_fails(two_state, monkeypatch):
    coverage = ThresholdCoverage(5.0, 0.0, 0.5)
    optimal = solve_value_iteration(two_state, coverage)
    worse = ProtectionPolicy(tuple(1 - a for a in optimal.policy.actions))
    values = evaluate_policy(two_state, worse, coverage)
    residual = float(np.abs(values - bellman_update(two_state, coverage, values)).max())

    def suboptimal(model, paid, tol):
        # The coverage's problem is put on the worse policy, with its honest diagnostics.
        solved = solve_value_iterations(model, paid, tol=tol)
        faked = (paid == coverages_paid(model, [coverage])).all(axis=1)
        streams = np.stack(decompose_value(model, worse), axis=-1)
        bound = residual / (1.0 - model.discount)
        return solved._replace(
            policies=np.vstack((solved.policies, worse.actions)),
            streams=np.concatenate((solved.streams, streams[None])),
            policy_of=np.where(faked, len(solved.policies), solved.policy_of),
            values=np.where(faked[:, None], values, solved.values),
            iterations=np.where(faked, 1, solved.iterations),
            residual=np.where(faked, residual, solved.residual),
            certificate_bound=np.where(faked, bound, solved.certificate_bound),
            converged=solved.converged | faked,
        )

    monkeypatch.setattr(solvers, "solve_value_iterations", suboptimal)
    for priced in (solve, quote):
        with pytest.raises(CertificateError, match="converged=True"):
            priced(two_state, coverage)


def test_linear_sweep_certifies_every_walked_row(two_state, monkeypatch):
    # A walk that put one row on a suboptimal piece (here the row's policy
    # with every action flipped, carrying that policy's own streams) reads the
    # policy's honest residual off the piece, and the certificate rejects
    # it, naming that row's coverage.  The grid holds one level per policy
    # piece, so the walk gets its rows in grid order, level 0 (the baseline)
    # first.
    grid = [0.0, 0.05, 0.5, 1.0]
    walk = solvers._walk_pieces

    def flipping(row):
        def flipped(model, levels):
            policies, streams, piece_of, steps = walk(model, levels)
            actions = 1 - policies[piece_of[row]]
            own = np.stack(decompose_value(model, ProtectionPolicy(actions)), axis=-1)
            piece_of = piece_of.copy()
            piece_of[row] = len(policies)
            return np.vstack((policies, actions)), np.concatenate((streams, own[None])), piece_of, steps

        return flipped

    for row, level in enumerate(grid):
        monkeypatch.setattr(solvers, "_walk_pieces", flipping(row))
        with pytest.raises(CertificateError, match=rf"LinearCoverage\(level={level}\).*converged=True"):
            sweep_linear(two_state, grid)
    monkeypatch.setattr(solvers, "_walk_pieces", flipping(0))
    with pytest.raises(CertificateError, match=r"ZeroCoverage\(\).*converged=True"):
        solve(two_state, ZeroCoverage())


def test_an_uncertified_baseline_is_named_by_the_first_row_that_prices_it(two_state, monkeypatch):
    # With a zero low tier, a cutoff at or above the largest loss pays
    # nothing, so that row shares the baseline's zero paid vector and names
    # its problem; with no such row, the baseline is no insurance.
    def uncertified(model, paid, tol):
        solved = solve_value_iterations(model, paid, tol=tol)
        unpaid = (paid == 0.0).all(axis=1)
        return solved._replace(certificate_bound=np.where(unpaid, np.inf, solved.certificate_bound))

    monkeypatch.setattr(solvers, "solve_value_iterations", uncertified)
    top = float(two_state.losses.max())
    for cutoff in (top, 2.0 * top):
        grid = [0.0, 0.5 * top, cutoff, 3.0 * top]
        named = re.escape(f"for {ThresholdCoverage(cutoff, 0.0, 0.5)!r}")
        with pytest.raises(CertificateError, match=named):
            sweep_threshold(two_state, 0.0, 0.5, grid)
    with pytest.raises(CertificateError, match=r"for ZeroCoverage\(\) "):
        sweep_threshold(two_state, 0.0, 0.5, [0.0, 0.5 * top])


# ------------------------------------------------------------- batched solves

@st.composite
def coverage_stacks(draw):
    """A random model of at most 12 states and 3 actions, coverages with
    repeats, and a permutation of the stack."""
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
    coverages = draw(st.permutations(distinct + repeats))
    return model, coverages, draw(st.permutations(range(len(coverages))))


def _solved_in_order(solved, index):
    """Each row's result from a solve table and its rows' ``index``, in row order."""
    return [solved.result(d) for d in index]


@settings(deadline=None, max_examples=40)
@given(coverage_stacks())
def test_batched_solves_match_solving_each_coverage_alone(stack):
    # Iteration counts are compared in
    # test_stacked_problems_stop_where_they_stop_alone, where the products
    # are exact: here BLAS may sum a one-column product in another order
    # than a stack's, which can move a stop by a block, but never the policy
    # or its exact values.
    model, coverages, order = stack
    alone = [solve_value_iteration(model, c, tol=contracts.CERT_TOL) for c in coverages]
    paid = coverages_paid(model, coverages)
    solved = solve_value_iterations(model, paid, tol=contracts.CERT_TOL)
    shuffled = solve_value_iterations(model, paid[order], tol=contracts.CERT_TOL)
    permuted = dict(zip(order, results(shuffled)))
    for batched in (
        results(solved),
        [permuted[k] for k in range(len(order))],
        _solved_in_order(*solvers._solve_many(model, paid, contracts.CERT_TOL)),
    ):
        assert len(batched) == len(coverages)
        for single, together in zip(alone, batched):
            assert together.converged
            assert together.policy == single.policy
            assert np.array_equal(together.values, single.values)
    # The finish's extra right-hand side gives each policy the streams of
    # decompose_value, bit for bit, so pricing needs no second solve.
    for policy, streams in zip(solved.policies, solved.streams):
        decomposed = decompose_value(model, ProtectionPolicy(policy))
        assert np.array_equal(streams, np.stack(decomposed, axis=-1))


def test_stacked_problems_stop_where_they_stop_alone():
    # Every transition row has one 1, so each product term but one is an
    # exact zero and the stack's products are exact in any summation order.
    # Losses over six orders of magnitude make the problems stop at
    # different block ends alone, and a NaN paid entry leaves its problem a
    # NaN stage row, which stops at the first block end.  A stack stops
    # together, at the block end where its slowest problem stops alone, and
    # each problem keeps the policy and values it has alone.
    model = validate_model(
        {
            "discount": 0.9,
            "states": [
                {"name": f"s{i}", "loss": loss} for i, loss in enumerate((0.0, 1.0, 1e3, 1e6))
            ],
            "actions": [{"name": "drift", "cost": 0.0}, {"name": "repair", "cost": 50.0}],
            "transitions": [
                [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
                [[1, 0, 0, 0]] * 4,
            ],
        }
    )
    levels = np.array([0.0, 0.5, 0.999, 0.999999, 1.0, 0.25])
    paid = levels[:, None] * model.losses
    paid[-1, 2] = np.nan
    alone = [solve_value_iterations(model, row[None]).result(0) for row in paid]
    assert [result.iterations for result in alone] == [272, 272, 272, 240, solvers.BLOCK, solvers.BLOCK]
    assert [result.converged for result in alone] == [True] * 5 + [False]
    slowest = max(result.iterations for result in alone)
    order = [3, 5, 0, 4, 2, 1]
    together = results(solve_value_iterations(model, paid))
    permuted = dict(zip(order, results(solve_value_iterations(model, paid[order]))))
    for k, single in enumerate(alone):
        for batched in (together[k], permuted[k]):
            assert batched.iterations == slowest
            assert batched.converged == single.converged
            assert batched.policy == single.policy
            assert np.array_equal(batched.values, single.values, equal_nan=True)


@st.composite
def linear_walks(draw):
    """A random model of at most 12 states and 4 actions with a discount up
    to 0.99, and a sorted grid of linear levels with repeats."""
    model = random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        max_states=12,
        max_actions=4,
        d_lo=0.0,
    )
    levels = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(levels), max_size=4))
    return model, sorted(levels + repeats)


@settings(deadline=None, max_examples=200)
@given(linear_walks())
def test_walked_linear_rows_match_solving_each_row(walk):
    model, grid = walk
    rows = sweep_linear(model, grid)
    paid = coverages_paid(model, [LinearCoverage(level) for level in grid])
    s0 = model.initial_state
    solved = solve_value_iterations(model, paid, tol=contracts.CERT_TOL)
    for row, alone in zip(rows, results(solved)):
        assert row.policy == alone.policy
        limit = contracts.CERT_TOL * (1.0 + np.abs(alone.values).max())
        assert abs(row.user_value - alone.values[s0]) <= limit
    _assert_each_policy_is_used_once(rows)


@st.composite
def patient_quotes(draw):
    """A random model of at most 6 states and 3 actions with a discount in
    [0.99, 0.9999], and one linear level."""
    # Drawn here rather than by the model's generator, so the examples
    # include the ends of the range.
    discount = draw(st.floats(0.99, 0.9999))
    model = random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        max_states=6,
        max_actions=3,
        d_lo=discount,
        d_hi=discount,
    )
    return model, draw(st.floats(0.0, 1.0))


@settings(deadline=None, max_examples=60)
@given(patient_quotes())
def test_walked_rows_certify_where_value_iteration_is_no_oracle(patient):
    # Above discount 0.99 value iteration may stop at max_iter, so the
    # oracle is enumeration, and the walk must certify every row.
    model, level = patient
    coverage = LinearCoverage(level)
    (row,) = sweep_linear(model, [level])
    solved = solve(model, coverage)
    limit = contracts.CERT_TOL * (1.0 + np.abs(solved.values).max())
    assert solved.converged and solved.certificate_bound <= limit
    best = solve_policy_enumeration(model, coverage)
    assert abs(row.user_value - best.values[model.initial_state]) <= limit


@pytest.mark.parametrize("seed", [1, 2])
def test_patient_quotes_on_large_random_models_certify(seed):
    # The slowest point quotes: 9 to 16 states at discount 0.9999.  The
    # linear quote is walked; the two-tier one is iterated to max_iter, where
    # value iteration's stopping rule cannot fire, and the certificate alone
    # passes it.
    rng = np.random.default_rng(seed)
    model = random_model(rng, max_states=16, max_actions=4, d_lo=0.9999, d_hi=0.9999, min_states=9)
    low, high = sorted(rng.uniform(0.0, 1.0, size=2))
    cutoff = float(rng.uniform(0.0, model.losses.max()))
    for coverage in (LinearCoverage(float(rng.uniform(0.0, 1.0))), ThresholdCoverage(cutoff, low, high)):
        row = quote(model, coverage)
        values = evaluate_policy(model, row.policy, coverage)
        limit = contracts.CERT_TOL * (1.0 + np.abs(values).max())
        residual = np.abs(values - bellman_update(model, coverage, values)).max()
        assert residual / (1.0 - model.discount) <= limit
        assert abs(row.user_value - values[model.initial_state]) <= limit


def test_walked_row_at_an_exact_switch_takes_the_cheaper_action(two_state):
    # At R_B the bad state's two actions tie, so no Howard step moves it
    # (neither beats the other beyond the tie window); the final tie-rule
    # extraction gives the cheaper one, as solving the row alone does.
    alone = solve_value_iteration(two_state, LinearCoverage(EXACT_SWITCH_BAD)).policy
    assert alone.actions == (STRONG, WEAK)
    for grid in ([EXACT_SWITCH_BAD], [0.05, EXACT_SWITCH_BAD, 0.5]):
        assert sweep_linear(two_state, grid)[grid.index(EXACT_SWITCH_BAD)].policy == alone


@st.composite
def priced_sweeps(draw):
    """A random model of at most 8 states and 3 actions with a discount up
    to 0.95; sorted linear levels with level 0 and repeats; sorted cutoffs
    with state losses and repeats; and two-tier levels."""
    model = random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))), max_states=8, d_hi=0.95
    )
    losses = model.losses.tolist()
    levels = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=6))
    levels += draw(st.lists(st.sampled_from(levels), max_size=3))
    cutoffs = draw(
        st.lists(
            st.one_of(st.sampled_from(losses), st.floats(0.0, 1.2 * max(losses) + 1.0)),
            min_size=1,
            max_size=6,
        )
    )
    cutoffs += draw(st.lists(st.sampled_from(cutoffs), max_size=3))
    low = draw(st.floats(0.0, 1.0))
    return model, sorted(levels), sorted(cutoffs), low, draw(st.floats(low, 1.0))


def _priced_one_by_one(model, parameters, coverages):
    """Each row priced on its own: one certified solve and one decomposition
    per row, with the per-row formulas of the sweep row's definition."""
    s0 = model.initial_state

    def uninsured_parts(policy):
        direct, cost = decompose_value(model, policy)
        return float(direct[s0]), float(cost[s0])

    baseline = solve(model, ZeroCoverage())
    baseline_value = float(baseline.values[s0])
    baseline_uninsured = sum(uninsured_parts(baseline.policy))
    rows = []
    for parameter, coverage in zip(parameters, coverages):
        solved = solve(model, coverage)
        direct, cost = uninsured_parts(solved.policy)
        user_value = float(solved.values[s0])
        premium = max(0.0, baseline_value - user_value)
        profit = baseline_uninsured - (direct + cost)
        rows.append(
            ContractSweepRow(parameter, coverage, solved.policy, user_value, premium, profit, direct, cost)
        )
    return rows


def _assert_each_policy_is_used_once(sweep):
    """Every policy of ``sweep`` prices one of its problems, and no two are equal."""
    assert np.array_equal(np.unique(sweep.policy_of), np.arange(len(sweep.policies)))
    assert len(set(sweep.policies)) == len(sweep.policies)


def _bits(row):
    """A row with every number as its exact bit pattern (the sign of a zero too)."""
    numbers = (row.user_value, row.max_premium, row.profit, row.direct_losses, row.protection_cost)
    return row.parameter.hex(), row.coverage, row.policy, *(float(x).hex() for x in numbers)


@settings(deadline=None, max_examples=60)
@given(priced_sweeps())
def test_sweep_rows_are_the_rows_priced_one_by_one(sweep):
    model, levels, cutoffs, low, high = sweep
    for rows, coverages in (
        (sweep_linear(model, levels), [LinearCoverage(level) for level in levels]),
        (sweep_threshold(model, low, high, cutoffs), [ThresholdCoverage(c, low, high) for c in cutoffs]),
    ):
        parameters = [row.parameter for row in rows]
        expected = _priced_one_by_one(model, parameters, coverages)
        assert [_bits(row) for row in rows] == [_bits(row) for row in expected]
        _assert_each_policy_is_used_once(rows)
    # Value iteration sums a policy's streams as the walk's level-0 row does,
    # so a two-tier contract that pays nothing is priced as no insurance.
    (unpaid,) = sweep_threshold(model, 0.0, 0.0, [0.0])
    assert _bits(unpaid)[2:] == _bits(sweep_linear(model, [0.0])[0])[2:]


def test_sweeps_build_no_solve_result_per_row(four_state, tmp_path, monkeypatch):
    # A sweep prices its rows from its distinct problems' table, value
    # iteration's too; a result object is built only where a caller
    # receives one.
    built = []

    class Counted(SolveResult):
        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(solvers, "SolveResult", Counted)
    monkeypatch.setattr(contracts, "SolveResult", Counted)
    assert len(sweep_linear(four_state)) == contracts.LINEAR_GRID_POINTS
    assert built == []
    assert len(sweep_threshold(four_state, 0.0, 0.9)) == contracts.THRESHOLD_GRID_POINTS
    assert built == []
    for coverage in (LinearCoverage(0.5), ThresholdCoverage(5.0, 0.0, 0.9)):
        solve(four_state, coverage)
        assert len(built) == 1
        built.clear()
    for study in ("fig3", "fig4", "fig5"):
        reproduce(study, tmp_path)
    assert built == []


def test_a_sweep_is_a_read_only_sequence_of_row_views(four_state):
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    sweep = sweep_linear(four_state, grid)
    rows = list(sweep)
    assert len(sweep) == len(rows) == len(grid)
    assert [row.parameter for row in rows] == grid
    assert [row.coverage for row in rows] == [LinearCoverage(level) for level in grid]
    for k in range(-len(grid), len(grid)):
        assert sweep[k] == rows[k]
    assert sweep[np.int64(2)] == rows[2]
    for part in (slice(1, 4), slice(None, None, -2), slice(3, 3)):
        assert isinstance(sweep[part], Sweep)
        assert list(sweep[part]) == rows[part]
    for k in (len(grid), -len(grid) - 1):
        with pytest.raises(IndexError):
            sweep[k]
    # A bool is no row number, though operator.index takes True for 1.
    for k in (True, False, np.True_):
        with pytest.raises(TypeError):
            sweep[k]
    # Rows on one problem share its policy object, and a slice its model.
    assert sweep[0].policy is sweep[1].policy
    assert sweep.model is sweep[1:].model is four_state
    with pytest.raises(dataclasses.FrozenInstanceError):
        sweep.parameters = np.zeros(5)
    with pytest.raises(ValueError):
        sweep.figures[0, 0] = 1.0
    cutoffs = sweep_threshold(four_state, 0.0, 0.9, [8.0])
    assert cutoffs[-1] == cutoffs[0]
    assert cutoffs[0].coverage == ThresholdCoverage(8.0, 0.0, 0.9)


def test_a_study_round_builds_rows_only_around_region_ends(tmp_path, monkeypatch):
    # The region and the CSV are read off the columns: no row becomes a
    # row object, not even around a region end at a policy switch, and a
    # linear sweep builds no coverage per row.
    rows, coverages = [], []

    class Counted(ContractSweepRow):
        def __init__(self, *args, **kwargs):
            rows.append(self)
            super().__init__(*args, **kwargs)

    post_init = LinearCoverage.__post_init__

    def counting(coverage):
        coverages.append(coverage)
        post_init(coverage)

    monkeypatch.setattr(contracts, "ContractSweepRow", Counted)
    monkeypatch.setattr(LinearCoverage, "__post_init__", counting)
    ends = 0
    for study in STUDIES:
        region = reproduce(study, tmp_path)["optimal_region"]
        ends += sum(not iv[closed] for iv in region["intervals"] for closed in ("lo_closed", "hi_closed"))
    assert ends == 3
    assert rows == []
    assert len(coverages) <= 2 * ends


@pytest.mark.parametrize("study, calls", [("fig3", 5), ("fig4", 7), ("fig5", 3)])
def test_study_decompositions_per_round(study, calls, tmp_path, monkeypatch):
    # A round decomposes a policy into its direct-loss and protection-cost
    # streams once per evaluation: a linear walk each policy it evaluates,
    # solving the full losses alone, and value iteration each of its distinct
    # policies, in the finish that evaluated it.  Pricing and the region ends read
    # those streams, so nothing decomposes a policy again.
    decomposed = []
    streams, iterate = model_module._policy_streams, solvers.solve_value_iterations

    def walked(model, actions, *losses):
        # The finish also solves the retained losses, and a threshold end only them.
        if len(losses) == 1 and losses[0] is model.losses:
            decomposed.extend(actions)
        return streams(model, actions, *losses)

    def iterated(model, paid, tol):
        solved = iterate(model, paid, tol=tol)
        decomposed.extend(solved.policies)
        return solved

    def again(model, policy):
        raise AssertionError(f"{policy!r} decomposed again")

    monkeypatch.setattr(solvers, "_policy_streams", walked)
    monkeypatch.setattr(solvers, "solve_value_iterations", iterated)
    monkeypatch.setattr(model_module, "decompose_value", again)
    reproduce(study, tmp_path)
    assert len(decomposed) == calls


@pytest.fixture
def solve_calls(monkeypatch):
    """Number of problems in each value-iteration call the contracts layer makes."""
    calls = []

    def counting(model, paid, tol):
        calls.append(len(paid))
        return solve_value_iterations(model, paid, tol=tol)

    monkeypatch.setattr(solvers, "solve_value_iterations", counting)
    return calls


def test_threshold_sweep_solves_each_paid_vector_once(four_state, solve_calls):
    # The baseline and the four cutoff bands below 4, 8, 16 and beyond pay
    # four distinct vectors; the band beyond 16 pays nothing, like the baseline.
    rows = sweep_threshold(four_state, 0.0, 0.9)
    assert len(rows) == contracts.THRESHOLD_GRID_POINTS
    assert solve_calls == [4]


def test_linear_sweep_runs_no_value_iteration(two_state, solve_calls):
    # The baseline is the walk's level-0 row, and the rows' policies are
    # walked from it, not solved.
    rows = sweep_linear(two_state)
    assert len(rows) == contracts.LINEAR_GRID_POINTS
    assert solve_calls == []


@pytest.fixture(scope="module")
def fig5_rows(four_state):
    return sweep_threshold(four_state, 0.0, 0.9)


def test_fig5_region_end_solves_nothing(four_state, fig5_rows, solve_calls, systems):
    # The fig5 rows around the switch below the loss 8: every bisection step
    # between them falls in the class of the outside row (the cutoff band
    # [4, 8)) or, at 8 itself, of the inside row, and both classes are
    # decided by the rows, so the end evaluates no policy.
    outside, inside = next(
        (a, b) for a, b in zip(fig5_rows, fig5_rows[1:]) if a.parameter < 8.0 <= b.parameter
    )
    assert outside.policy != inside.policy
    region = optimal_region(fig5_rows)
    assert _brackets(fig5_rows) == [(inside, outside)]
    assert region.intervals[0].lo == 7.999999618530273
    assert not region.intervals[0].lo_closed
    assert systems == [] and solve_calls == []
    # The solving oracle, seeded with the rows' policies, solves nothing either.
    assert region == region_by_row_walk(four_state, fig5_rows)
    assert solve_calls == []


def _refuse_solvers(monkeypatch):
    """Make every solver that production calls raise from here on."""

    def refuse(*args, **kwargs):
        raise AssertionError("a solver was called")

    monkeypatch.setattr(contracts, "solve", refuse)
    monkeypatch.setattr(solvers, "solve_value_iterations", refuse)
    monkeypatch.setattr(solvers, "_walk_pieces", refuse)


def test_region_ends_call_no_solver(two_state, four_state, fig5_rows, monkeypatch):
    # Linear ends are roots of lines computed from the sweep's streams, and
    # threshold ends are decided by the class rule.
    sweeps = [
        sweep_linear(two_state),
        sweep_linear(four_state),
        fig5_rows,
        sweep_threshold(four_state, 0.0, 0.9, [0.0, 20.0]),
    ]
    _refuse_solvers(monkeypatch)
    for sweep in sweeps:
        region = optimal_region(sweep)
        assert _open_ends(region) and len(_open_ends(region)) == len(_brackets(sweep))


def test_a_threshold_end_between_distant_rows_evaluates_the_uninsured_policy(
    four_state, systems, monkeypatch
):
    # The losses 4, 8 and 16 lie between the cutoffs 0 and 20.  The
    # bisection meets two classes the rows do not decide, {16} at 10 and
    # {8, 16} at 5, and evaluates the uninsured policy once for each.
    sweep = sweep_threshold(four_state, 0.0, 0.9, [0.0, 20.0])
    assert sweep[0].profit < 0.0 == sweep[1].profit
    systems.clear()
    _refuse_solvers(monkeypatch)
    [interval] = optimal_region(sweep).intervals
    assert (interval.lo, interval.lo_closed) == (7.999999821186066, False)
    assert systems == [1, 1]


@pytest.mark.parametrize("study", ["fig3", "fig4"])
def test_linear_studies_solve_only_their_sweep(study, tmp_path, solve_calls):
    # A linear sweep walks its baseline and rows, and a linear region end
    # is read off the inside row's policy, so the study runs no value
    # iteration.
    reproduce(study, tmp_path)
    assert solve_calls == []
    policies = {line.split(",")[1] for line in (tmp_path / f"{study}.csv").read_text().splitlines()[1:]}
    assert len(policies) == {"fig3": 3, "fig4": 5}[study]


# Solver internals: the tie rule and the walk, then what contracts used to bind.
POLICY_FINDING = ("TIE_REL", "_greedy_actions", "_improve", "_walk_pieces")
NOT_IN_CONTRACTS = (*POLICY_FINDING, "_stacked_action_values", "_first_rows", "_policy_streams", "_lines")


def test_only_solvers_finds_policies():
    # The tie rule, Howard improvement and every production policy
    # evaluation sit in one module; contracts certifies and prices what the
    # solvers hand it, so a patch of a solver internal reaches production
    # only through solvers.
    names = [info.name for info in pkgutil.iter_modules(cyins.__path__) if info.name != "__main__"]
    for module in [cyins, *(importlib.import_module(f"cyins.{name}") for name in names)]:
        if module is not solvers:
            assert not set(POLICY_FINDING) & set(vars(module)), module.__name__
    assert not set(NOT_IN_CONTRACTS) & set(vars(contracts))


@pytest.fixture
def systems(monkeypatch):
    """Number of N x N policy systems in each dense policy solve."""
    counts = []
    streams = model_module._policy_streams

    def counting(model, actions, *losses):
        counts.append(len(actions))
        return streams(model, actions, *losses)

    # Every module that binds it, so a call however spelled is counted.
    for module in (model_module, solvers):
        monkeypatch.setattr(module, "_policy_streams", counting)
    return counts


@pytest.mark.parametrize("study, solved", [("fig3", 5), ("fig4", 7), ("fig5", 4)])
def test_a_sweep_solves_one_system_per_policy_it_evaluates(study, solved, systems, tmp_path):
    # A linear sweep solves one system per policy its walk evaluates (its
    # cheapest-action start, pieces, Howard steps and tie-rule
    # re-evaluations) and reads its 201 rows off the pieces, each policy
    # held once.  fig5's value iteration evaluates its four
    # distinct problems together, and the same factorisations give the
    # streams its three policies are priced from.  The study's round
    # solves nothing more: its region ends read the sweep, and nothing
    # decomposes a policy again.
    spec = STUDIES[study]
    sweep = spec.sweep(bundled_model(spec.model))
    assert sum(systems) == solved
    assert len(sweep.policies) < solved < len(sweep)
    _assert_each_policy_is_used_once(sweep)
    reproduce(study, tmp_path)
    assert sum(systems) == 2 * solved


def test_a_one_row_threshold_quote_solves_two_systems(four_state, systems):
    # The baseline and the row, in one value-iteration finish.
    (row,) = sweep_threshold(four_state, 0.0, 0.9, [5.0])
    assert row.profit < 0.0
    assert systems == [2]


def test_a_large_linear_sweep_solves_per_policy_not_per_row(systems):
    # 200 states, 4 actions: the cheapest-action start, 24 pieces and one
    # more evaluation at a switch.
    model = random_model(
        np.random.default_rng(18), max_states=200, min_states=200, max_actions=4, d_lo=0.95, d_hi=0.95
    )
    assert (model.n_states, model.n_actions) == (200, 4)
    sweep = sweep_linear(model)
    assert len(sweep) == contracts.LINEAR_GRID_POINTS and len(sweep.policies) == 24
    assert sum(systems) == 26


# ------------------------------------------------------------ region report

def test_optimal_region_reference(two_state):
    rows = sweep_linear(two_state)
    region = optimal_region(rows)
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
    region = optimal_region(rows)
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
    region = optimal_region(rows)
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


def test_optimal_region_requires_rows(two_state):
    for empty in (sweep_linear(two_state, []), sweep_threshold(two_state, 0.0, 0.9, [])):
        assert len(empty) == 0 and list(empty) == []
        with pytest.raises(ValueError, match="at least one sweep row"):
            optimal_region(empty)


def test_zero_profit_principle_random_models():
    rng = np.random.default_rng(29)
    for _ in range(10):
        model = random_model(rng, max_states=3, max_actions=2)
        rows = sweep_linear(model, list(np.linspace(0.0, 1.0, 21)))
        best = max(rows, key=lambda r: r.profit)
        assert abs(best.profit) <= 1e-7
        assert best.policy == rows[0].policy  # attained where the policy is unchanged


def _report_or_error(region, *args):
    try:
        return repr(region(*args))
    except ValueError:
        return "ValueError"


@settings(deadline=None, max_examples=40)
@given(priced_sweeps())
def test_region_columns_match_the_row_walk(sweep):
    # Field by field, down to the bits of every float: repr round-trips them.
    model, levels, cutoffs, low, high = sweep
    top = 1.2 * float(model.losses.max()) + 1.0
    for table in (
        sweep_linear(model, levels),
        sweep_linear(model, sorted([*levels, *np.linspace(0.0, 1.0, 21)])),
        sweep_threshold(model, low, high, cutoffs),
        sweep_threshold(model, low, high, sorted([*cutoffs, *np.linspace(0.0, top, 21)])),
    ):
        assert _report_or_error(optimal_region, table) == _report_or_error(
            region_by_row_walk, model, list(table)
        )


@st.composite
def coarse_threshold_sweeps(draw):
    """A random model of at most 6 states, 3 to 33 evenly spaced cutoffs
    over its default threshold range, and two-tier levels."""
    model = random_model(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), max_states=6)
    grid = contracts.default_threshold_grid(model, draw(st.integers(3, 33)))
    low = draw(st.floats(0.0, 1.0))
    return model, grid, low, draw(st.floats(low, 1.0))


@settings(deadline=None, max_examples=100)
@given(coarse_threshold_sweeps())
def test_threshold_ends_by_the_class_rule_match_the_solving_oracle(sweep):
    # Coarse grids leave several state losses between the rows around an
    # end, so the bisection meets classes the rows do not decide: the class
    # rule's one evaluation of the uninsured policy must decide each as a
    # certified solve does, down to the bits of every end.
    model, grid, low, high = sweep
    table = sweep_threshold(model, low, high, grid)
    assert _report_or_error(optimal_region, table) == _report_or_error(
        region_by_row_walk, model, list(table)
    )


def _brackets(rows):
    """The (inside, outside) rows around each region end at a policy switch, in order."""
    return [
        (a, b) if a.profit == 0.0 else (b, a)
        for a, b in zip(rows, rows[1:])
        if (a.profit == 0.0) != (b.profit == 0.0)
    ]


def _open_ends(region):
    """The region's ends at a policy switch, in order."""
    return [
        end
        for iv in region.intervals
        for end, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed))
        if not closed
    ]


def _bisected(model, inside, outside):
    """The bisection oracle for a linear region end."""
    return _bisect_switch(model, LinearCoverage, inside, outside, {})


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1))
def test_exact_linear_ends_match_the_bisection_oracle(seed):
    model = random_model(np.random.default_rng(seed), max_states=4, max_actions=3)
    rows = sweep_linear(model, list(np.linspace(0.0, 1.0, 41)))
    brackets = _brackets(rows)
    ends = _open_ends(optimal_region(rows))
    assert len(ends) == len(brackets)
    for (inside, outside), end in zip(brackets, ends):
        assert end == pytest.approx(
            _bisected(model, inside, outside), abs=solvers.BISECTION_WIDTH
        )


def _bad_split(good, split):
    return [good, (1.0 - good) * split, (1.0 - good) * (1.0 - split)]


def test_exact_linear_end_ignores_the_rounding_noise_of_a_twin_action():
    # B1 and B2 are alike, so "twin", which splits the bad mass between them
    # differently from a1 at a1's cost, has a gap to a1 that is zero in exact
    # arithmetic; in floats it is rounding noise with a root of its own.
    raw = {
        "discount": 0.9,
        "states": [{"name": "G", "loss": 0.0}, {"name": "B1", "loss": 13.1}, {"name": "B2", "loss": 13.1}],
        "actions": [{"name": "a0", "cost": 0.9}, {"name": "a1", "cost": 1.5}, {"name": "twin", "cost": 1.5}],
        "transitions": [
            [_bad_split(0.8, 0.5), _bad_split(0.3, 0.5), _bad_split(0.3, 0.5)],
            [_bad_split(0.8, 0.5), _bad_split(0.5, 0.5), _bad_split(0.5, 0.5)],
            [_bad_split(0.8, 0.6), _bad_split(0.5, 0.6), _bad_split(0.5, 0.6)],
        ],
        "initial_state": "G",
    }
    model = validate_model(raw)
    for grid in ([0.0, 0.5, 1.0], list(np.linspace(0.0, 1.0, 41))):
        rows = sweep_linear(model, grid)
        [(inside, outside)] = _brackets(rows)
        [end] = _open_ends(optimal_region(rows))
        assert end == pytest.approx(
            _bisected(model, inside, outside), abs=solvers.BISECTION_WIDTH
        )


def _stress_raw(kind, discount):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = discount
    if kind == "one_state":
        raw["states"] = raw["states"][1:]
        raw["transitions"] = [[[1.0]], [[1.0]]]
        raw["initial_state"] = 0
    elif kind == "identical_actions":
        # Copies of both actions: each one's gap to its twin is zero at every level.
        raw["actions"] += [dict(a, name=a["name"] + "2") for a in raw["actions"]]
        raw["transitions"] += raw["transitions"]
    elif kind == "zero_losses":
        for state in raw["states"]:
            state["loss"] = 0.0
    return raw


@pytest.mark.parametrize("discount", [0.0, 0.5, 0.99])
@pytest.mark.parametrize("kind", ["one_state", "identical_actions", "zero_losses"])
def test_degenerate_models_give_certified_regions(kind, discount):
    model = validate_model(_stress_raw(kind, discount))
    for rows in (sweep_linear(model), sweep_threshold(model, 0.0, 0.9)):
        region = optimal_region(rows)
        assert abs(region.max_profit) <= 1e-7
        brackets = _brackets(rows)
        ends = _open_ends(region)
        assert len(ends) == len(brackets)
        for (inside, outside), end in zip(brackets, ends):
            assert min(inside.parameter, outside.parameter) <= end
            assert end <= max(inside.parameter, outside.parameter)
        ends = [end for iv in region.intervals for end in (iv.lo, iv.hi)]
        assert all(rows[0].parameter <= end <= rows[-1].parameter for end in ends)
        assert np.isfinite(region.representative_premium)


# ----------------------------------------------------------------- peltzman

def test_rows_with_changed_policy_have_higher_direct_losses(two_state):
    rows = sweep_linear(two_state, list(np.linspace(0.0, 1.0, 21)))
    baseline = rows[0]
    for row in rows:
        if row.policy != baseline.policy:
            assert row.direct_losses > baseline.direct_losses + 1e-6


# The paper's principles hold for every N-state model, as properties of the
# priced table, each within the certificate limit of its figures.

def _figure_limit(sweep):
    return contracts.CERT_TOL * (1.0 + np.abs(sweep.figures).max())


@st.composite
def patient_linear_grids(draw):
    """A random model of at most 8 states and 4 actions with a discount up
    to 0.9999, and a sorted grid of linear levels."""
    discount = draw(st.floats(0.0, 0.9999))
    model = random_model(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
        max_states=8,
        max_actions=4,
        d_lo=discount,
        d_hi=discount,
    )
    return model, sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12)))


@settings(deadline=None, max_examples=60)
@given(patient_linear_grids())
def test_linear_coverage_compensates_risk(grid):
    # Each state's optimal value is the lower envelope of the lines
    # (1 - R) * direct + cost of the policies, so as the level R rises the
    # user's direct losses rise and protection cost falls (the Peltzman
    # effect), in every state.
    model, levels = grid
    sweep = sweep_linear(model, levels)
    _assert_each_policy_is_used_once(sweep)
    direct, cost = np.moveaxis(sweep.streams[sweep.policy_of[sweep.problem_of]], -1, 0)
    limit = contracts.CERT_TOL * (1.0 + np.abs(sweep.streams).max())
    assert (np.diff(direct, axis=0) >= -limit).all()
    assert (np.diff(cost, axis=0) <= limit).all()


@settings(deadline=None, max_examples=30)
@given(priced_sweeps())
def test_no_contract_profits_and_the_uninsured_policy_breaks_even(sweep):
    # The baseline policy minimises the uninsured value, so no row's profit
    # exceeds 0, and a row on that policy shares its arithmetic: exactly 0.
    model, levels, cutoffs, low, high = sweep
    for family, args in ((sweep_linear, (levels,)), (sweep_threshold, (low, high, cutoffs))):
        priced, (solved, index) = priced_problems(family, model, *args)
        baseline = solved.policy_of[index[0]]
        profit = priced.figures[priced.problem_of, 2]
        assert (profit <= _figure_limit(priced)).all()
        on_baseline = priced.policy_of[priced.problem_of] == baseline
        assert (profit[on_baseline] == 0.0).all()


@settings(deadline=None, max_examples=30)
@given(priced_sweeps())
def test_a_higher_cutoff_never_raises_the_two_tier_premium(sweep):
    # With low <= high, a higher cutoff pays every state no more.
    model, _, cutoffs, low, high = sweep
    priced = sweep_threshold(model, low, high, cutoffs)
    premium = priced.figures[priced.problem_of, 1]
    assert (np.diff(premium) <= _figure_limit(priced)).all()
