"""Optimal protection policies by three independent routes.

Value iteration, a dense-simplex linear program, and exhaustive policy
enumeration all solve the same discounted minimization and act as mutual
oracles in the test suite.  All three report the *exact* policy evaluation of
whatever policy they select, so agreement checks compare solver choices, not
iteration noise.

Value iteration has one loop, :func:`solve_value_iterations`, which applies
the Bellman operator to a stack of coverage problems of one model at once,
each given by its paid vector (a coverage enters only through what it pays
per state).  The stack is problem-minor, one column per problem, so each
iteration is one matrix product, one sum and one reduction across contiguous
problems.  Each problem keeps its own stopping rule, tested once per block
of up to ``BLOCK`` iterates: one vectorised pass finds the first iteration
at which any problem stops, that iteration's stops are recorded, and the
narrowed stack resumes from that iteration's iterates.  Iterates computed
past the stop are recomputed, so every problem sees the same arithmetic as
a test after every iteration, bit for bit.  The stopped problems are
finished together: one greedy extraction, one stacked exact evaluation of
the extracted policies (:func:`cyins.model._policy_streams`) and one stacked
Bellman residual.  :func:`solve_value_iteration` is its one-problem call.

Tie-breaking is deterministic everywhere: among actions whose action-values
agree within a small relative window, the cheaper action wins, then the lower
index.  One greedy extraction implements the rule for a stack of problems;
:func:`policy_from_values` is its one-problem call.  Repeated solves of the
same instance return byte-identical policies.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .model import (
    Coverage,
    MdpModel,
    ProtectionPolicy,
    _policy_streams,
    coverage_paid,
    coverages_paid,
    evaluate_policy,
    stage_loss_matrix,
)

__all__ = [
    "EnumerationTooLarge",
    "LpError",
    "LpProblem",
    "SolveResult",
    "action_values",
    "bellman_update",
    "build_lp",
    "policy_from_values",
    "solve_lp_dual",
    "solve_policy_enumeration",
    "solve_value_iteration",
    "solve_value_iterations",
]

# Relative width of the action-value window treated as a tie.  Exact
# mathematical ties carry only ~1e-14 relative rounding noise, so this window
# catches them with two orders of margin while keeping any genuinely distinct
# actions (and hence the induced policy values) well inside the cross-solver
# agreement tolerances.
TIE_REL = 1e-12

ENUMERATION_LIMIT = 10**6

# Value iterates computed between two tests of the stopping rule.
BLOCK = 16


class LpError(RuntimeError):
    """Internal linear-programming failure (must not occur for valid models)."""


class EnumerationTooLarge(ValueError):
    """The policy space exceeds the brute-force guard."""


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal policy with its exact values and solver diagnostics.

    ``values`` is the exact evaluation of ``policy``; ``residual`` is the
    sup-norm Bellman-optimality defect eps of those values (0 up to rounding
    when the policy is truly optimal), and ``certificate_bound`` is eps / (1 -
    discount), which bounds the sup-norm distance from ``values`` to the
    optimal values (Puterman 1994, section 6).  ``iterations`` counts
    value-iteration sweeps, Howard steps of a linear walk, or policies.
    ``converged`` is value iteration's own stop flag: its stopping rule
    fired and the exact values are finite.  It is a diagnostic, not a
    certificate: a contract result is gated by its finite values and
    ``certificate_bound`` alone (see :mod:`cyins.contracts`), and near
    discount 1 value iteration stops at ``max_iter`` with a policy the
    certificate proves optimal.
    """

    policy: ProtectionPolicy
    values: np.ndarray
    iterations: int
    residual: float
    certificate_bound: float
    converged: bool = True


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Standard-form program min cost.eta, constraints @ eta = rhs, eta >= 0.

    Columns are grouped state-major: column (s * n_actions + a) belongs to the
    (state s, action a) pair.  The dual maximizes rhs.theta subject to
    cost - constraints.T @ theta >= 0, and the optimal dual variables are the
    per-state optimal values.
    """

    cost: np.ndarray
    rhs: np.ndarray
    constraints: np.ndarray


def action_values(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One-step lookahead Q(s, a) = stage loss + discount * E[values], shape (N, M)."""
    retained = model.losses - coverage_paid(model, coverage)
    return _stacked_action_values(model, retained[None], np.asarray(values, dtype=float)[None])[0]


def _stacked_action_values(model: MdpModel, retained: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Action values of K problems, shape (K, N, M), from retained losses and values of shape (K, N)."""
    future = (model.transitions @ values[:, None, :, None])[..., 0]  # (K, M, N)
    stage = retained[:, :, None] + model.costs
    return stage + model.discount * future.transpose(0, 2, 1)


def bellman_update(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One application of the optimal (min over actions) dynamic-programming operator."""
    return action_values(model, coverage, values).min(axis=1)


def _greedy_actions(q: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Minimizing actions of action values ``q`` (..., M) under the tie rule.

    Among the actions within the tie window of the minimum, the cheaper wins,
    then the lower index.  A row with no finite minimum (NaN action values)
    has no candidate and gets the first action in that order.
    """
    best = q.min(axis=-1, keepdims=True)
    candidates = q <= best + TIE_REL * (1.0 + np.abs(best))
    order = np.lexsort((np.arange(costs.size), costs))
    rank = np.where(candidates[..., order], np.arange(costs.size), costs.size)
    return order[rank.argmin(axis=-1)]


def policy_from_values(
    model: MdpModel, coverage: Coverage, values: np.ndarray
) -> ProtectionPolicy:
    """Greedy policy extraction from a value vector."""
    actions = _greedy_actions(action_values(model, coverage, values), model.costs)
    return ProtectionPolicy(tuple(int(a) for a in actions))


def _optimality_residual(model: MdpModel, coverage: Coverage, values: np.ndarray) -> float:
    return float(np.abs(values - bellman_update(model, coverage, values)).max())


def solve_value_iteration(
    model: MdpModel,
    coverage: Coverage,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveResult:
    """Value iteration for one coverage: the one-problem :func:`solve_value_iterations`."""
    return solve_value_iterations(model, coverages_paid(model, [coverage]), tol, max_iter)[0]


def solve_value_iterations(
    model: MdpModel,
    paid: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> list[SolveResult]:
    """Value iteration from V = 0 for a stack of coverage problems of one model.

    A coverage enters the stage losses only through the reimbursement it
    pays in each state, so the K problems are given by their paid vectors,
    ``paid`` of shape (K, n_states), as :func:`cyins.model.coverages_paid`
    builds them.  Every problem iterates the same Bellman
    operator on its own stage losses, all in one loop.  The stack is
    problem-minor: values are (N, K) and stage losses (M*N, K), so the min
    over actions and the max over states reduce across contiguous problems.
    A problem leaves the stack at the first iteration where its own sup-norm
    change is at most tol * (1 - discount) / (2 * discount), which bounds
    the value error of its greedy policy by ``tol``.  A problem still
    iterating at ``max_iter`` keeps its last iterate, and one whose iterate
    stops being finite its last finite iterate; both are flagged
    ``converged=False``.  ``max_iter`` is an integer of at least 1.

    The rule is tested once per block of iterates, not after each one.  A
    block computes up to ``BLOCK`` iterates of the stack, each by the same
    product, sum and minimum over actions, then takes all their sup-norm
    changes in one pass.  At the first iteration where a problem stops, its
    stop is recorded as above, and the other problems resume from that
    iteration's iterates in the narrowed stack.  A product's rounding
    depends on the stack's width, so the block's later iterates are
    recomputed, not reused: every problem sees the arithmetic of a test
    after every iteration, and the results are the same bit for bit.  Stops
    tend to come close together, so after a stop the blocks start at one
    iterate and double back up to ``BLOCK``.  Iterates computed past a stop
    may overflow, and floating-point warnings inside the loop are silenced;
    a non-finite iterate shows as ``converged=False``.

    All problems are then finished together: one greedy extraction, one
    stacked exact evaluation of the extracted policies (the reported values)
    and one stacked Bellman residual with its certificate bound.  Results
    are in the order of the rows of ``paid``.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise TypeError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    delta = model.discount
    threshold = tol * (1.0 - delta) / (2.0 * delta) if delta > 0.0 else np.inf
    n, m = model.n_states, model.n_actions
    retained = model.losses - np.asarray(paid, dtype=float).reshape(-1, n)
    problems = len(retained)
    # Action-major stage losses, row a * n + s, one column per problem.
    stage = (model.costs[:, None, None] + retained.T[None]).reshape(m * n, problems)
    lookahead = delta * model.transitions.reshape(m * n, n)
    matmul, add, lowest, highest = np.matmul, np.add, np.minimum.reduce, np.maximum.reduce
    values = np.zeros((n, problems))
    active = np.arange(problems)
    iterates = np.zeros_like(values)
    iterations = np.full(problems, max_iter)
    converged = np.zeros(problems, dtype=bool)
    length, done = BLOCK, 0
    while active.size and done < max_iter:
        # One stack width: blocks of iterates until a problem stops.
        width = active.size
        block = np.empty((BLOCK + 1, n, width))
        difference = np.empty((BLOCK, n, width))
        sums = np.empty((m * n, width))
        sums_by_action = sums.reshape(m, n, width)
        iterate = list(block)
        block[0] = values
        while done < max_iter:
            size = min(length, max_iter - done)
            # Iterates past a stop may overflow; they are recomputed or dropped.
            with np.errstate(all="ignore"):
                # Outputs go positionally: a keyword makes each call about a third slower.
                for k in range(size):
                    matmul(lookahead, iterate[k], sums)
                    add(stage, sums, sums)
                    lowest(sums_by_action, 0, None, iterate[k + 1])
                change = np.subtract(block[1 : size + 1], block[:size], difference[:size])
                change = highest(np.abs(change, change), 1)
            # NaN fails the test too.
            going = (change > threshold) & (change < np.inf)
            if going.all():
                done += size
                block[0] = block[size]
                length = min(2 * length, BLOCK)
                continue
            step = int(going.all(axis=1).argmin())
            done += step + 1
            going, change = going[step], change[step]
            updated, previous = iterate[step + 1], iterate[step]
            stopped, finite = active[~going], np.isfinite(change[~going])
            iterates[:, stopped] = np.where(finite, updated[:, ~going], previous[:, ~going])
            iterations[stopped] = done
            converged[stopped] = finite
            stage, active = stage[:, going], active[going]
            # The narrowed stack resumes from this iteration, and its blocks
            # start short again.
            values, length = updated[:, going], 1
            break
        else:
            values = block[0]
    iterates[:, active] = values

    actions = _greedy_actions(_stacked_action_values(model, retained, iterates.T), model.costs)
    # A policy's value is the sum of its streams, as a linear walk's rows sum theirs.
    exact = _policy_streams(model, actions, retained).sum(axis=2)
    residual = np.abs(exact - _stacked_action_values(model, retained, exact).min(axis=2)).max(axis=1)
    bound = residual / (1.0 - delta)
    finite = np.isfinite(exact).all(axis=1)
    keys = [tuple(policy) for policy in actions.tolist()]
    # Problems on one policy share its object.
    policies = {key: ProtectionPolicy(key) for key in dict.fromkeys(keys)}
    # Each result's diagnostics in SolveResult field order.
    diagnostics = zip(
        iterations.tolist(), residual.tolist(), bound.tolist(), (converged & finite).tolist()
    )
    return [
        SolveResult(policies[key], values, *rest)
        for key, values, rest in zip(keys, exact, diagnostics)
    ]


def solve_policy_enumeration(model: MdpModel, coverage: Coverage) -> SolveResult:
    """Brute force over every stationary policy (the slow, trusted oracle).

    Minimizes the value at the initial state; ties are resolved by comparing
    the full value vectors state by state (so a globally optimal policy wins
    over one that is only optimal where reachable), then by per-state action
    cost, then by action index.
    """
    n, m = model.n_states, model.n_actions
    if m**n > ENUMERATION_LIMIT:
        raise EnumerationTooLarge(f"{m}**{n} policies exceed the enumeration guard")

    costs = model.costs
    s0 = model.initial_state
    best_policy = None
    best_values = None
    best_key = None
    count = 0
    for assignment in itertools.product(range(m), repeat=n):
        count += 1
        policy = ProtectionPolicy(assignment)
        values = evaluate_policy(model, policy, coverage)
        key = (costs[list(assignment)].tolist(), list(assignment))
        if best_values is None:
            best_policy, best_values, best_key = policy, values, key
            continue
        window = TIE_REL * (1.0 + abs(best_values[s0]))
        if values[s0] < best_values[s0] - window:
            best_policy, best_values, best_key = policy, values, key
            continue
        if values[s0] > best_values[s0] + window:
            continue
        # tie at the initial state: prefer smaller values elsewhere, then the tie rule
        replace = False
        for v_new, v_old in zip(values, best_values):
            w = TIE_REL * (1.0 + abs(v_old))
            if v_new < v_old - w:
                replace = True
                break
            if v_new > v_old + w:
                break
        else:
            replace = key < best_key
        if replace:
            best_policy, best_values, best_key = policy, values, key

    residual = _optimality_residual(model, coverage, best_values)
    return SolveResult(
        policy=best_policy,
        values=best_values,
        iterations=count,
        residual=residual,
        certificate_bound=residual / (1.0 - model.discount),
    )


def build_lp(model: MdpModel, coverage: Coverage) -> LpProblem:
    """Assemble the standard-form program whose dual variables are the optimal values.

    The constraint matrix is E - discount * P where E marks which state each
    column belongs to and P stacks the transition rows column by column; the
    cost vector holds the per-(state, action) effective losses and the right
    hand side is all ones.
    """
    n, m = model.n_states, model.n_actions
    cost = stage_loss_matrix(model, coverage).reshape(n * m)
    marker = np.zeros((n, n * m))
    trans = np.zeros((n, n * m))
    for s in range(n):
        for a in range(m):
            col = s * m + a
            marker[s, col] = 1.0
            trans[:, col] = model.transitions[a, s]
    return LpProblem(
        cost=cost,
        rhs=np.ones(n),
        constraints=marker - model.discount * trans,
    )


def solve_lp_dual(problem: LpProblem, max_iter: int = 10_000) -> np.ndarray:
    """Optimal dual variables (per-state values) via a self-contained dense simplex.

    Two-phase primal simplex with Bland's smallest-index rule on both the
    entering and leaving choices, so it cannot cycle and is bit-reproducible.
    Problems here are tiny, so each iteration just re-solves the basis
    factorization.
    """
    a_mat = np.array(problem.constraints, dtype=float)
    rhs = np.array(problem.rhs, dtype=float)
    cost = np.array(problem.cost, dtype=float)
    n_rows, n_cols = a_mat.shape
    if cost.shape != (n_cols,) or rhs.shape != (n_rows,):
        raise LpError("inconsistent problem dimensions")

    flip = rhs < 0.0
    a_mat[flip] *= -1.0
    rhs[flip] *= -1.0

    # Phase 1: artificial identity columns, minimize their total.
    full = np.hstack([a_mat, np.eye(n_rows)])
    phase1_cost = np.concatenate([np.zeros(n_cols), np.ones(n_rows)])
    basis = list(range(n_cols, n_cols + n_rows))
    basis = _simplex_iterate(full, rhs, phase1_cost, basis, allowed=full.shape[1], max_iter=max_iter)
    x_basic = np.linalg.solve(full[:, basis], rhs)
    if float(phase1_cost[basis] @ x_basic) > 1e-8:
        raise LpError("infeasible program")

    # Pivot any leftover artificial variables out of the (degenerate) basis.
    for row, var in enumerate(basis):
        if var < n_cols:
            continue
        direction = np.linalg.solve(full[:, basis], full[:, :n_cols])
        pivots = np.flatnonzero(np.abs(direction[row]) > 1e-9)
        if pivots.size == 0:
            raise LpError("redundant constraint row")
        basis[row] = int(pivots[0])

    # Phase 2 on the original columns only.
    basis = _simplex_iterate(a_mat, rhs, cost, basis, allowed=n_cols, max_iter=max_iter)
    return np.linalg.solve(a_mat[:, basis].T, cost[basis])


def _simplex_iterate(a_mat, rhs, cost, basis, allowed, max_iter):
    """Run primal simplex pivots (Bland's rule) until optimal; returns the basis."""
    basis = list(basis)
    for _ in range(max_iter):
        b_mat = a_mat[:, basis]
        x_basic = np.linalg.solve(b_mat, rhs)
        duals = np.linalg.solve(b_mat.T, cost[basis])
        reduced = cost[:allowed] - duals @ a_mat[:, :allowed]
        entering = -1
        for j in range(allowed):
            if j not in basis and reduced[j] < -1e-9:
                entering = j
                break
        if entering < 0:
            return basis
        direction = np.linalg.solve(b_mat, a_mat[:, entering])
        positive = np.flatnonzero(direction > 1e-12)
        if positive.size == 0:
            raise LpError("unbounded program")
        ratios = x_basic[positive] / direction[positive]
        best = float(ratios.min())
        # Bland: among minimum-ratio rows, drop the basic variable of lowest index.
        leaving_rows = positive[np.flatnonzero(ratios <= best + 1e-12)]
        leaving = min(leaving_rows, key=lambda r: basis[r])
        basis[int(leaving)] = entering
    raise LpError("simplex iteration limit reached")
