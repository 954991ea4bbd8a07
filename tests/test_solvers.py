import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyins import contracts, solvers
from cyins.contracts import CertificateError, sweep_linear
from cyins.model import (
    LinearCoverage,
    MdpModel,
    ModelValidationError,
    ProtectionPolicy,
    State,
    ThresholdCoverage,
    ZeroCoverage,
    evaluate_policy,
    validate_model,
)
from cyins.solvers import solve_value_iterations

import exact
from helpers import (
    TWO_STATE_RAW,
    brute_force_optimal,
    per_iteration_value_iterations,
    random_coverage,
    random_model,
    results,
)
from oracles import (
    EnumerationTooLarge,
    LpError,
    LpProblem,
    action_values,
    bellman_update,
    build_lp,
    coverages_paid,
    policy_from_values,
    solve_lp_dual,
    solve_policy_enumeration,
    solve_value_iteration,
)

PI_HH = ProtectionPolicy((1, 1))
PI_LL = ProtectionPolicy((0, 0))

VALUE_AGREEMENT_TOL = 1e-6
TIE_VALUE_TOL = 1e-7


# ------------------------------------------------------------ value iteration

def test_value_iteration_reference_solutions(two_state):
    result = solve_value_iteration(two_state, ZeroCoverage())
    assert result.policy == PI_HH
    assert result.converged
    assert result.residual <= 1e-8

    full = solve_value_iteration(two_state, LinearCoverage(1.0))
    assert full.policy == PI_LL
    assert np.all(full.values == 0.0)


def test_value_iteration_single_action_geometric():
    raw = {
        "discount": 0.7,
        "states": [{"name": "a", "loss": 2.0}, {"name": "b", "loss": 5.0}],
        "actions": [{"name": "only", "cost": 0.25}],
        "transitions": [[[0.6, 0.4], [0.3, 0.7]]],
    }
    model = validate_model(raw)
    result = solve_value_iteration(model, ZeroCoverage())
    assert result.policy == ProtectionPolicy((0, 0))
    expected = evaluate_policy(model, result.policy, ZeroCoverage())
    assert np.array_equal(result.values, expected)


def test_value_iteration_flags_non_convergence(two_state, monkeypatch):
    result = solve_value_iteration(two_state, ZeroCoverage(), tol=1e-12, max_iter=3)
    assert not result.converged
    assert result.iterations == 3
    # Production's cap is a whole number of blocks.
    monkeypatch.setattr(solvers, "MAX_BLOCKS", 1)
    (capped,) = results(solve_value_iterations(two_state, np.zeros((1, 2))))
    assert not capped.converged
    assert capped.iterations == solvers.BLOCK


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_value_iteration_stops_at_a_non_finite_iterate(two_state):
    # Built directly, so validation does not reject the overflowing value scale.
    huge = MdpModel(
        states=(State("G", 0.0), State("B", 1e308)),
        actions=two_state.actions,
        transitions=two_state.transitions,
        discount=two_state.discount,
    )
    overflowing, finite = results(
        solve_value_iterations(huge, coverages_paid(huge, [ZeroCoverage(), LinearCoverage(1.0)]))
    )
    # The iterate overflows within a few steps: an inf change holds the stack
    # for one more block, after which it is NaN and passes.
    assert not overflowing.converged
    assert overflowing.iterations <= 2 * solvers.BLOCK
    assert finite.converged and np.all(finite.values == 0.0)


def test_nan_stage_losses_leave_the_solve_unconverged(two_state):
    # Built directly: an infinite loss half covered retains inf - inf = NaN.
    infinite = MdpModel(
        states=(State("G", 0.0), State("B", np.inf)),
        actions=two_state.actions,
        transitions=two_state.transitions,
        discount=two_state.discount,
    )
    with np.errstate(invalid="ignore"):
        result = solve_value_iteration(infinite, LinearCoverage(0.5))
        assert not result.converged
        # A NaN change passes the stopping rule at the first block end.
        assert result.iterations == solvers.BLOCK
        with pytest.raises(CertificateError, match="converged=False"):
            sweep_linear(infinite, [0.5])
        # The linear walk reads its rows off its pieces and flags every row
        # whose exact values are not all finite.
        with pytest.raises(CertificateError, match=r"LinearCoverage\(level=0.0\).*converged=False"):
            sweep_linear(infinite, [0.0, 0.5, 1.0])
        # Value iteration's finish evaluates each problem's policy exactly and
        # flags values that are not all finite: here NaN (half covered) and
        # inf (uncovered).
        halves, uncovered = results(
            solve_value_iterations(
                infinite, coverages_paid(infinite, [LinearCoverage(0.5), ZeroCoverage()])
            )
        )
        for result in (halves, uncovered):
            assert not result.converged and not np.isfinite(result.values).all()


def test_value_iteration_rejects_paid_of_the_wrong_shape(two_state):
    # Any size that was a multiple of n_states was once reshaped: (2, 3)
    # solved three problems on this two-state model.
    for shape in ((2, 3), (3,), (2,), (1, 2, 1), (6, 1)):
        with pytest.raises(ValueError, match=re.escape(f"paid must have shape (K, 2), got {shape}")):
            solve_value_iterations(two_state, np.zeros(shape))
    empty = solve_value_iterations(two_state, np.zeros((0, 2)))
    assert [len(column) for column in empty] == [0] * len(empty)


def _recorded(solve, *args, **kwargs):
    """A solve's table and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = solve(*args, **kwargs)
    return table, {(w.category, str(w.message)) for w in caught}


def _assert_block_loop_is_the_per_iteration_loop(model, paid):
    """Solve both ways, require the same tables bit for bit, and return the results.

    The reference stops by the solver's ``CERT_TOL`` and ``MAX_BLOCKS`` as they stand.
    """
    block, block_warnings = _recorded(solve_value_iterations, model, paid)
    cap = solvers.MAX_BLOCKS * solvers.BLOCK
    reference, reference_warnings = _recorded(
        per_iteration_value_iterations, model, paid, tol=solvers.CERT_TOL, max_iter=cap
    )
    for field, ours, theirs in zip(block._fields, block, reference):
        assert ours.shape == theirs.shape, field
        assert np.array_equal(ours, theirs, equal_nan=ours.dtype.kind == "f"), field
    # Iterates computed past a stop raise nothing the reference does not.
    assert block_warnings <= reference_warnings
    return results(block)


PAID_ENTRIES = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)


@st.composite
def value_iteration_stacks(draw):
    """A random model, a stack of paid rows with repeats, and a cap of 1 to 3 blocks or the solver's own."""
    discount = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(rng, max_states=6, max_actions=4, d_lo=discount, d_hi=discount)
    rows = draw(
        st.lists(
            st.lists(PAID_ENTRIES, min_size=model.n_states, max_size=model.n_states),
            min_size=1,
            max_size=6,
        )
    )
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    max_blocks = draw(st.sampled_from([solvers.MAX_BLOCKS, 1, 2, 3]))
    return model, np.array([rows[k] for k in picks], dtype=float), max_blocks


@settings(deadline=None, max_examples=200)
@given(value_iteration_stacks())
def test_block_loop_matches_the_per_iteration_loop(stack):
    # Hypothesis runs many examples per call of a test, so each one patches
    # the cap itself rather than through a function-scoped fixture.
    model, paid, max_blocks = stack
    with mock.patch.object(solvers, "MAX_BLOCKS", max_blocks):
        _assert_block_loop_is_the_per_iteration_loop(model, paid)


@st.composite
def two_tier_stacks(draw):
    """A random model of at most 12 states and the paid vectors of 1 to 39 two-tier coverages."""
    discount = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    model = random_model(rng, max_states=12, max_actions=4, d_lo=discount, d_hi=discount)
    levels = st.sampled_from([0.0, 0.3, 0.7]), st.sampled_from([0.5, 0.9, 1.0])
    tiers = st.tuples(st.floats(0.0, 25.0), *levels)
    rows = draw(st.lists(tiers, min_size=1, max_size=39))
    return model, coverages_paid(model, [ThresholdCoverage(*row) for row in rows])


@settings(deadline=None, max_examples=100)
@given(two_tier_stacks())
def test_grouped_solves_are_the_per_problem_solves(stack):
    # The finish solves all the problems on one policy with one
    # factorisation.  Each problem's values and its policy's streams are,
    # bit for bit, those of solving the problem's own system alone for its
    # retained losses, the full losses and the costs.
    model, paid = stack
    table = solve_value_iterations(model, paid)
    n = model.n_states
    for k, retained in enumerate(model.losses - paid):
        p = table.policy_of[k]
        system = np.eye(n) - model.discount * model.transitions[table.policies[p], np.arange(n)]
        stages = np.stack((retained, model.losses, model.costs[table.policies[p]]), axis=-1)
        alone = np.linalg.solve(system, stages)
        assert np.array_equal(table.values[k], alone[:, 0] + alone[:, 2])
        assert np.array_equal(table.streams[p], alone[:, 1:])


def _first_block_end(iteration, blocks):
    """The first multiple of ``blocks`` at or after ``iteration``."""
    return -(-iteration // blocks) * blocks


@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 16, 64])
def test_staggered_and_non_finite_stops_in_one_block(monkeypatch, blocks):
    # At discount 0.5 and CERT_TOL 1e-3 these problems' changes first pass the
    # rule at iterations 4 to 15 (the first one's iterate overflows at
    # iteration 4, and its change is NaN from iteration 5), all within the
    # first block of 16.  The stack stops together at the first block end
    # from iteration 15, and the overflowing problem is not converged.
    monkeypatch.setattr(solvers, "BLOCK", blocks)
    monkeypatch.setattr(solvers, "CERT_TOL", 1e-3)
    model = validate_model({**TWO_STATE_RAW, "discount": 0.5})
    paid = np.array([[0.0, -1.4e308], [0.0, 0.0], [0.0, 5.0], [0.0, 7.5], [0.0, 9.0], [0.0, 9.9]])
    results = _assert_block_loop_is_the_per_iteration_loop(model, paid)
    assert [result.iterations for result in results] == [_first_block_end(15, blocks)] * 6
    assert [result.converged for result in results] == [False] + [True] * 5


@pytest.mark.parametrize("blocks", [1, 16, 64])
def test_stops_in_different_blocks_while_a_nan_row_runs_on(monkeypatch, blocks):
    # At discount 0.9 and CERT_TOL 1e-6 these problems' changes first pass the
    # rule in four different blocks of 16 iterates (at iterations 234, 1,
    # 172, 153, 1 and 327: the NaN row's change is NaN from iteration 1, and
    # the row that retains nothing changes by 0).  The stack runs on
    # together to the first block end from iteration 327, and only the NaN
    # row is not converged.
    monkeypatch.setattr(solvers, "BLOCK", blocks)
    monkeypatch.setattr(solvers, "CERT_TOL", 1e-6)
    model = validate_model(TWO_STATE_RAW)
    paid = np.array([[0.0, -1e4], [np.nan, 0.0], [0.0, 0.0], [0.0, 9.0], [0.0, 10.0], [0.0, -1e8]])
    results = _assert_block_loop_is_the_per_iteration_loop(model, paid)
    assert [result.iterations for result in results] == [_first_block_end(327, blocks)] * 6
    assert [result.converged for result in results] == [True, False, True, True, True, True]


def test_the_loop_holds_two_iterates_of_the_stack(four_state):
    # Two (N, K) iterates, the (M*N, K) action values and the stage losses,
    # then the finish's stacked evaluation, stay well below 2 * BLOCK
    # iterates of the stack; a block of iterates and their differences,
    # (2 * BLOCK + 1) of them, does not.
    rng = np.random.default_rng(0)
    paid = rng.uniform(0.0, 1.0, (4000, 1)) * four_state.losses
    tracemalloc.start()
    try:
        table = solve_value_iterations(four_state, paid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.converged.all()
    assert peak < 2 * solvers.BLOCK * paid.size * 8


def test_contraction_of_dynamic_programming_operator(two_state):
    delta = two_state.discount
    values = np.zeros(2)
    previous_diff = None
    for _ in range(60):
        updated = bellman_update(two_state, ZeroCoverage(), values)
        diff = float(np.abs(updated - values).max())
        values = updated
        if previous_diff is not None and previous_diff > 1e-10:
            assert diff <= delta * previous_diff * (1.0 + 1e-9)
        previous_diff = diff


# ---------------------------------------------------------------- enumeration

def test_enumeration_matches_value_iteration_two_state(two_state):
    enum = solve_policy_enumeration(two_state, ZeroCoverage())
    assert enum.policy == PI_HH
    assert enum.iterations == 4
    oracle_policy, oracle_values = brute_force_optimal(two_state, ZeroCoverage())
    assert enum.policy.actions == oracle_policy
    assert np.abs(enum.values - oracle_values).max() <= 1e-10


def test_enumeration_matches_value_iteration_four_state(four_state):
    for coverage in (ZeroCoverage(), LinearCoverage(0.5)):
        enum = solve_policy_enumeration(four_state, coverage)
        vi = solve_value_iteration(four_state, coverage)
        assert enum.iterations == 81
        assert enum.policy == vi.policy
        assert np.abs(enum.values - vi.values).max() <= VALUE_AGREEMENT_TOL


def test_enumeration_single_action_model():
    raw = {
        "discount": 0.5,
        "states": [{"name": "a", "loss": 1.0}],
        "actions": [{"name": "only", "cost": 0.0}],
        "transitions": [[[1.0]]],
    }
    model = validate_model(raw)
    result = solve_policy_enumeration(model, ZeroCoverage())
    assert result.policy == ProtectionPolicy((0,))
    assert result.values[0] == pytest.approx(2.0, rel=1e-12)


def test_enumeration_guard():
    n, m = 8, 6  # 6**8 > 10**6 policies
    raw = {
        "discount": 0.9,
        "states": [{"name": f"s{i}", "loss": 1.0} for i in range(n)],
        "actions": [{"name": f"a{j}", "cost": 0.0} for j in range(m)],
        "transitions": [[[1.0 / n] * n] * n] * m,
    }
    model = validate_model(raw)
    with pytest.raises(EnumerationTooLarge):
        solve_policy_enumeration(model, ZeroCoverage())


# -------------------------------------------------------------------- LP dual

def test_build_lp_single_state():
    raw = {
        "discount": 0.75,
        "states": [{"name": "a", "loss": 2.0}],
        "actions": [{"name": "x", "cost": 1.0}],
        "transitions": [[[1.0]]],
    }
    problem = build_lp(validate_model(raw), ZeroCoverage())
    assert problem.constraints.shape == (1, 1)
    assert problem.constraints[0, 0] == pytest.approx(0.25, rel=1e-12)
    assert problem.rhs.tolist() == [1.0]
    assert problem.cost.tolist() == [3.0]


def test_build_lp_reference_model(two_state):
    problem = build_lp(two_state, ZeroCoverage())
    assert problem.constraints.shape == (2, 4)
    # column of the (S_G, A_H) pair, state-major layout
    col = problem.constraints[:, 0 * 2 + 1]
    assert col[0] == pytest.approx(0.28, abs=1e-12)
    assert col[1] == pytest.approx(-0.18, abs=1e-12)
    # effective loss entry for (S_B, A_H) without insurance
    assert problem.cost[1 * 2 + 1] == pytest.approx(11.0, abs=1e-12)


def test_lp_dual_single_state():
    raw = {
        "discount": 0.75,
        "states": [{"name": "a", "loss": 2.0}],
        "actions": [{"name": "x", "cost": 1.0}],
        "transitions": [[[1.0]]],
    }
    duals = solve_lp_dual(build_lp(validate_model(raw), ZeroCoverage()))
    assert duals[0] == pytest.approx(3.0 / 0.25, rel=1e-10)


def test_lp_dual_matches_policy_evaluation(two_state):
    duals = solve_lp_dual(build_lp(two_state, ZeroCoverage()))
    expected = evaluate_policy(two_state, PI_HH, ZeroCoverage())
    assert np.abs(duals - expected).max() <= 1e-8
    assert duals[0] == pytest.approx(21.9512 + 10.0, abs=2e-3)


def test_lp_dual_matches_value_iteration_on_grid(four_state):
    for level in np.linspace(0.0, 1.0, 9):
        coverage = LinearCoverage(float(level)) if level else ZeroCoverage()
        duals = solve_lp_dual(build_lp(four_state, coverage))
        vi = solve_value_iteration(four_state, coverage, tol=1e-10)
        assert np.abs(duals - vi.values).max() <= VALUE_AGREEMENT_TOL


# ---------------------------------------------------------- greedy extraction

def test_lp_error_on_infeasible_program():
    problem = LpProblem(
        cost=np.array([0.0]),
        rhs=np.array([1.0, 2.0]),
        constraints=np.array([[1.0], [1.0]]),
    )
    with pytest.raises(LpError, match="infeasible"):
        solve_lp_dual(problem)


def test_lp_error_on_unbounded_program():
    # min -x1 subject to x0 = 1: x1 can grow without bound
    problem = LpProblem(
        cost=np.array([0.0, -1.0]),
        rhs=np.array([1.0]),
        constraints=np.array([[1.0, 0.0]]),
    )
    with pytest.raises(LpError, match="unbounded"):
        solve_lp_dual(problem)


def test_policy_from_lp_duals(two_state):
    duals = solve_lp_dual(build_lp(two_state, ZeroCoverage()))
    assert policy_from_values(two_state, ZeroCoverage(), duals) == PI_HH


def test_policy_tie_breaks_to_first_action_when_identical():
    raw = {
        "discount": 0.9,
        "states": [{"name": "a", "loss": 1.0}, {"name": "b", "loss": 2.0}],
        "actions": [{"name": "x", "cost": 0.5}, {"name": "y", "cost": 0.5}],
        "transitions": [[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]],
    }
    model = validate_model(raw)
    result = solve_value_iteration(model, ZeroCoverage())
    assert result.policy == ProtectionPolicy((0, 0))


def test_policy_tie_breaks_to_cheaper_action_at_switch_level(two_state):
    # At the exact bad-state switch level both bad-state actions are optimal;
    # the tie must resolve to the cheaper (weak) one.
    switch = 1.0 - 0.82 / 0.9
    values = evaluate_policy(two_state, ProtectionPolicy((1, 0)), LinearCoverage(switch))
    policy = policy_from_values(two_state, LinearCoverage(switch), values)
    assert policy.actions[1] == 0
    # and the same tie resolves identically from the other optimal policy's values
    values_hh = evaluate_policy(two_state, PI_HH, LinearCoverage(switch))
    assert policy_from_values(two_state, LinearCoverage(switch), values_hh).actions[1] == 0


@st.composite
def tied_action_values(draw):
    """Action-major values (M, K, N) of 1 to 4 actions with repeated costs.

    In each state one action sits at the state's minimum, and every other
    action copies it exactly, lies above it by at most half the tie window
    TIE_REL * (1 + |min|), or lies above it by at least twice the window.
    About one state in five is all NaN.
    """
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 4))
    costs = draw(st.lists(st.sampled_from([0.0, 0.5, 2.0]), min_size=m, max_size=m))
    q = np.empty((m, k, n))
    for column in np.ndindex(k, n):
        if draw(st.integers(0, 4)) == 0:
            q[(slice(None), *column)] = np.nan
            continue
        low = draw(st.floats(-1e3, 1e3))
        window = solvers.TIE_REL * (1.0 + abs(low))
        steps = {"copy": st.just(0.0), "near": st.floats(0.0, 0.5), "far": st.floats(2.0, 1e6)}
        for a in range(m):
            q[(a, *column)] = low + draw(steps[draw(st.sampled_from(sorted(steps)))]) * window
        q[(draw(st.integers(0, m - 1)), *column)] = low
    return q, np.array(costs)


def _greedy_action(column, costs):
    """The tie rule in one state: among the actions within the window of the
    minimum, the cheapest, then the lowest index; the first action in that
    order when the minimum is NaN."""
    order = sorted(range(len(costs)), key=lambda a: (costs[a], a))
    if any(math.isnan(value) for value in column):
        return order[0]
    best = min(column)
    return next(a for a in order if column[a] <= best + solvers.TIE_REL * (1.0 + abs(best)))


@settings(deadline=None, max_examples=300)
@given(tied_action_values())
def test_greedy_actions_follow_the_tie_rule_state_by_state(values):
    q, costs = values
    expected = np.empty(q.shape[1:], dtype=int)
    for column in np.ndindex(expected.shape):
        expected[column] = _greedy_action(q[(slice(None), *column)].tolist(), costs.tolist())
    assert np.array_equal(solvers._greedy_actions(q, costs), expected)


# ------------------------------------------------------------- affine walk

def test_the_walk_takes_a_family_with_a_fixed_stage():
    # Two-tier coverage at a fixed class H of high-tier states is affine in
    # its high tier h: it retains u + (1 - h) * w, with u = (1 - low) x the
    # losses off H and w the losses on H.  Linear coverage has u = 0, so
    # only this family exercises the walk's u terms: at each level the
    # policy is enumeration's and certified, and its values are the exact
    # ones within the rounding floor of a float evaluation,
    # eps * ||V|| / (1 - discount).
    rng = np.random.default_rng(20261021)
    switched = 0
    for _ in range(40):
        model = random_model(rng)
        cutoff, low = float(rng.uniform(0.0, 20.0)), float(rng.uniform(0.0, 1.0))
        high_tier = model.losses > cutoff
        family = contracts._Affine(
            lambda high: ThresholdCoverage(cutoff, low, high),
            np.where(high_tier, 0.0, (1.0 - low) * model.losses),
            np.where(high_tier, model.losses, 0.0),
        )
        levels = np.sort(rng.uniform(0.0, 1.0, 6))
        solved, index = solvers._solve_linear(model, family, levels)
        switched += len(set(solved.policy_of[index[1:]].tolist())) > 1
        for level, k in zip(levels.tolist(), index[1:]):
            coverage, result = family(level), solved.result(k)
            assert result.policy == solve_policy_enumeration(model, coverage).policy
            # u is the same in every action of a state, so only the residual shows its q term.
            assert result.certificate_bound <= contracts.CERT_TOL * (1.0 + np.abs(result.values).max())
            retained = exact.retained_losses(model, coverage)
            values = exact.policy_values(model, result.policy.actions, retained)
            floor = np.finfo(float).eps * np.abs(result.values).max() / (1.0 - model.discount)
            assert max(abs(Fraction(v) - e) for v, e in zip(result.values.tolist(), values)) <= floor
    # The levels cross policy switches, so Howard steps run on the u lines too.
    assert switched >= 5


# ------------------------------------------------------- three-way agreement

def _assert_methods_agree(model, coverage):
    vi = solve_value_iteration(model, coverage, tol=1e-9)
    enum = solve_policy_enumeration(model, coverage)
    duals = solve_lp_dual(build_lp(model, coverage))

    assert np.abs(vi.values - enum.values).max() <= VALUE_AGREEMENT_TOL
    assert np.abs(vi.values - duals).max() <= VALUE_AGREEMENT_TOL
    if vi.policy != enum.policy:
        # only exact ties may differ; their exact evaluations must coincide
        assert np.abs(vi.values - enum.values).max() <= TIE_VALUE_TOL
    lp_policy = policy_from_values(model, coverage, duals)
    if lp_policy != vi.policy:
        lp_values = evaluate_policy(model, lp_policy, coverage)
        assert np.abs(lp_values - vi.values).max() <= TIE_VALUE_TOL


def test_three_way_agreement_random_models():
    rng = np.random.default_rng(20260811)
    for _ in range(60):
        model = random_model(rng)
        _assert_methods_agree(model, random_coverage(rng, model))


# Wrongly typed or out-of-range replacements for any part of a raw model.
# Losses and costs stay within the scales of ``random_model``, where the
# absolute agreement tolerances above are meaningful; a junk discount can
# exceed its 0.99, so the property skips such models.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.integers(min_value=10**400, max_value=10**401),
    st.floats(-1.0, 25.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3),
    st.lists(st.floats(0.0, 1.0), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


def _paths(raw):
    """Every key/index path into a raw model, container or leaf."""
    stack = [((key,), value) for key, value in raw.items()]
    while stack:
        path, value = stack.pop()
        yield path
        if isinstance(value, dict):
            stack.extend((path + (k,), v) for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((path + (i,), v) for i, v in enumerate(value))


@st.composite
def raw_models(draw):
    """A raw model of at most 3 states and 3 actions, with up to two parts replaced by junk."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def row():
        weights = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
        total = sum(weights)
        return [w / total for w in weights] if total > 0.0 else [1.0] + [0.0] * (n - 1)

    raw = {
        "discount": draw(st.floats(0.0, 0.99)),
        "states": [{"name": f"s{i}", "loss": draw(st.floats(0.0, 20.0))} for i in range(n)],
        "actions": [{"name": f"a{j}", "cost": draw(st.floats(0.0, 3.0))} for j in range(m)],
        "transitions": [[row() for _ in range(n)] for _ in range(m)],
        "initial_state": draw(st.integers(0, n - 1)),
    }
    for _ in range(draw(st.integers(0, 2))):
        *parents, last = draw(st.sampled_from(list(_paths(raw))))
        container = raw
        for key in parents:
            container = container[key]
        container[last] = draw(JUNK)
    return raw


@settings(deadline=None, max_examples=150)
@given(raw_models(), st.floats(0.0, 1.0))
def test_random_raw_models_are_rejected_or_solved_alike(raw, level):
    try:
        model = validate_model(raw)
    except ModelValidationError as exc:
        assert exc.errors
        return
    # near 1 the values grow to ~1e6 and the absolute tolerances say nothing
    assume(model.discount <= 0.99)
    _assert_methods_agree(model, LinearCoverage(level))


def test_bellman_optimality_of_reported_values():
    rng = np.random.default_rng(5)
    for _ in range(20):
        model = random_model(rng)
        coverage = random_coverage(rng, model)
        result = solve_value_iteration(model, coverage, tol=1e-9)
        gap = np.abs(result.values - bellman_update(model, coverage, result.values)).max()
        assert gap <= 1e-8


def test_certificate_bound_is_the_residual_over_one_minus_discount():
    rng = np.random.default_rng(9)
    for _ in range(20):
        model = random_model(rng)
        coverage = random_coverage(rng, model)
        for result in (
            solve_value_iteration(model, coverage),
            solve_policy_enumeration(model, coverage),
        ):
            gap = np.abs(result.values - bellman_update(model, coverage, result.values)).max()
            assert result.residual == gap
            assert result.certificate_bound == gap / (1.0 - model.discount)


def test_repeat_solves_are_identical(four_state):
    coverage = LinearCoverage(0.37)
    first = solve_value_iteration(four_state, coverage)
    second = solve_value_iteration(four_state, coverage)
    assert first.policy == second.policy
    assert np.array_equal(first.values, second.values)
    enum1 = solve_policy_enumeration(four_state, coverage)
    enum2 = solve_policy_enumeration(four_state, coverage)
    assert enum1.policy == enum2.policy


def test_greedy_consistency_of_results(two_state):
    result = solve_value_iteration(two_state, ZeroCoverage())
    q = action_values(two_state, ZeroCoverage(), result.values)
    for s, a in enumerate(result.policy.actions):
        assert q[s, a] <= q[s].min() + 1e-9 * (1.0 + abs(q[s].min()))
