import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cyins import solvers
from cyins.contracts import CertificateError, sweep_linear
from cyins.model import (
    LinearCoverage,
    MdpModel,
    ModelValidationError,
    ProtectionPolicy,
    State,
    ZeroCoverage,
    coverages_paid,
    evaluate_policy,
    validate_model,
)
from cyins.solvers import (
    EnumerationTooLarge,
    action_values,
    bellman_update,
    build_lp,
    policy_from_values,
    solve_lp_dual,
    solve_policy_enumeration,
    solve_value_iteration,
    solve_value_iterations,
)

from helpers import (
    TWO_STATE_RAW,
    brute_force_optimal,
    per_iteration_value_iterations,
    random_coverage,
    random_model,
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


def test_value_iteration_flags_non_convergence(two_state):
    result = solve_value_iteration(two_state, ZeroCoverage(), tol=1e-12, max_iter=3)
    assert not result.converged
    assert result.iterations == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_value_iteration_stops_at_a_non_finite_iterate(two_state):
    # Built directly, so validation does not reject the overflowing value scale.
    huge = MdpModel(
        states=(State("G", 0.0), State("B", 1e308)),
        actions=two_state.actions,
        transitions=two_state.transitions,
        discount=two_state.discount,
    )
    overflowing, finite = solve_value_iterations(
        huge, coverages_paid(huge, [ZeroCoverage(), LinearCoverage(1.0)]), max_iter=200_000
    )
    assert not overflowing.converged
    assert overflowing.iterations < 10
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
        assert result.iterations == 1
        with pytest.raises(CertificateError, match="converged=False"):
            sweep_linear(infinite, [0.5])
        # The linear walk reads its rows off its pieces and flags every row
        # whose exact values are not all finite.
        with pytest.raises(CertificateError, match=r"LinearCoverage\(level=0.0\).*converged=False"):
            sweep_linear(infinite, [0.0, 0.5, 1.0])
        # Value iteration's finish evaluates each problem's policy exactly and
        # flags values that are not all finite: here NaN (half covered) and
        # inf (uncovered).
        halves, uncovered = solve_value_iterations(
            infinite, coverages_paid(infinite, [LinearCoverage(0.5), ZeroCoverage()])
        )
        for result in (halves, uncovered):
            assert not result.converged and not np.isfinite(result.values).all()


def test_value_iteration_rejects_bad_tol(two_state):
    # A NaN tol once stopped every problem after one iteration as converged.
    for tol in (0.0, -1e-9, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_value_iteration(two_state, ZeroCoverage(), tol=tol)


def test_value_iteration_rejects_bad_max_iter(two_state):
    # -5 once returned iterations=-5, True iterations=True, and 2.5 raised a
    # bare TypeError from range().
    for max_iter, error in (
        (0, ValueError),
        (-5, ValueError),
        (True, TypeError),
        (np.bool_(True), TypeError),
        (2.5, TypeError),
        ("3", TypeError),
        (None, TypeError),
    ):
        with pytest.raises(error, match="max_iter"):
            solve_value_iteration(two_state, ZeroCoverage(), max_iter=max_iter)
        with pytest.raises(error, match="max_iter"):
            solve_value_iterations(two_state, np.zeros((2, 2)), max_iter=max_iter)
    assert solve_value_iteration(two_state, ZeroCoverage(), max_iter=np.int64(3)).iterations == 3
    assert solve_value_iteration(two_state, ZeroCoverage(), max_iter=10**30).converged


def _recorded(solve, *args, **kwargs):
    """A solve's results and the set of warning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = solve(*args, **kwargs)
    return results, {(w.category, str(w.message)) for w in caught}


def _assert_block_loop_is_the_per_iteration_loop(model, paid, **kwargs):
    """Solve both ways, require the same results bit for bit, and return them."""
    block, block_warnings = _recorded(solve_value_iterations, model, paid, **kwargs)
    reference, reference_warnings = _recorded(per_iteration_value_iterations, model, paid, **kwargs)
    assert len(block) == len(reference)
    for ours, theirs in zip(block, reference):
        assert ours.policy == theirs.policy
        assert np.array_equal(ours.values, theirs.values, equal_nan=True)
        assert np.array_equal(ours.residual, theirs.residual, equal_nan=True)
        assert np.array_equal(ours.certificate_bound, theirs.certificate_bound, equal_nan=True)
        assert ours.iterations == theirs.iterations
        assert ours.converged == theirs.converged
    # Iterates computed past a stop raise nothing the reference does not.
    assert block_warnings <= reference_warnings
    return block


PAID_ENTRIES = st.one_of(
    st.floats(-20.0, 20.0),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
)


@st.composite
def value_iteration_stacks(draw):
    """A random model, a stack of paid rows with repeats, and a max_iter around BLOCK."""
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
    blocks = solvers.BLOCK
    max_iter = draw(st.sampled_from([None, 1, blocks - 1, blocks, blocks + 1, 3 * blocks + 2]))
    kwargs = {} if max_iter is None else {"max_iter": max_iter}
    return model, np.array([rows[k] for k in picks], dtype=float), kwargs


@settings(deadline=None, max_examples=200)
@given(value_iteration_stacks())
def test_block_loop_matches_the_per_iteration_loop(stack):
    model, paid, kwargs = stack
    _assert_block_loop_is_the_per_iteration_loop(model, paid, **kwargs)


@pytest.mark.parametrize("blocks", [1, 2, 3, 5, 16, 64])
def test_staggered_and_non_finite_stops_in_one_block(monkeypatch, blocks):
    # At discount 0.5 and tol 1e-3 these problems stop at iterations 4 to
    # 15: the first one's iterate overflows at iteration 4, and at BLOCK 16
    # all six stops fall in the first block, at different offsets.
    monkeypatch.setattr(solvers, "BLOCK", blocks)
    model = validate_model({**TWO_STATE_RAW, "discount": 0.5})
    paid = np.array([[0.0, -1.4e308], [0.0, 0.0], [0.0, 5.0], [0.0, 7.5], [0.0, 9.0], [0.0, 9.9]])
    results = _assert_block_loop_is_the_per_iteration_loop(model, paid, tol=1e-3)
    assert [result.iterations for result in results] == [4, 15, 14, 13, 11, 8]
    assert [result.converged for result in results] == [False] + [True] * 5


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
    from cyins.solvers import LpError, LpProblem

    problem = LpProblem(
        cost=np.array([0.0]),
        rhs=np.array([1.0, 2.0]),
        constraints=np.array([[1.0], [1.0]]),
    )
    with pytest.raises(LpError, match="infeasible"):
        solve_lp_dual(problem)


def test_lp_error_on_unbounded_program():
    from cyins.solvers import LpError, LpProblem

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
