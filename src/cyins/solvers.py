"""Optimal protection policies by three independent routes.

Value iteration, a dense-simplex linear program, and exhaustive policy
enumeration all solve the same discounted minimization and act as mutual
oracles in the test suite.  All three report the *exact* policy evaluation of
whatever policy they select, so agreement checks compare solver choices, not
iteration noise.

Value iteration has one loop, :func:`solve_value_iterations`, which applies
the Bellman operator to a stack of coverage problems of one model at once;
each problem keeps its own stopping rule.  :func:`solve_value_iteration` is
its one-problem call.

Tie-breaking is deterministic everywhere: among actions whose action-values
agree within a small relative window, the cheaper action wins, then the lower
index.  Repeated solves of the same instance return byte-identical policies.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    Coverage,
    MdpModel,
    ProtectionPolicy,
    coverage_paid,
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


class LpError(RuntimeError):
    """Internal linear-programming failure (must not occur for valid models)."""


class EnumerationTooLarge(ValueError):
    """The policy space exceeds the brute-force guard."""


@dataclass(frozen=True, eq=False)
class SolveResult:
    """Optimal policy with its exact values and solver diagnostics.

    ``values`` is the exact evaluation of ``policy``; ``residual`` is the
    sup-norm Bellman-optimality defect of those values (0 up to rounding when
    the policy is truly optimal).
    """

    policy: ProtectionPolicy
    values: np.ndarray
    iterations: int
    residual: float
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
    stage = stage_loss_matrix(model, coverage)
    future = model.transitions @ np.asarray(values, dtype=float)  # (M, N)
    return stage + model.discount * future.T


def bellman_update(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One application of the optimal (min over actions) dynamic-programming operator."""
    return action_values(model, coverage, values).min(axis=1)


def _greedy_action(q_row: np.ndarray, costs: np.ndarray) -> int:
    """Minimizing action with the deterministic tie rule (cheaper, then lower index)."""
    best = float(q_row.min())
    window = TIE_REL * (1.0 + abs(best))
    candidates = np.flatnonzero(q_row <= best + window)
    return int(min(candidates, key=lambda a: (costs[a], a)))


def policy_from_values(
    model: MdpModel, coverage: Coverage, values: np.ndarray
) -> ProtectionPolicy:
    """Greedy policy extraction from a value vector."""
    q = action_values(model, coverage, values)
    costs = model.costs
    return ProtectionPolicy(tuple(_greedy_action(q[s], costs) for s in range(model.n_states)))


def _optimality_residual(model: MdpModel, coverage: Coverage, values: np.ndarray) -> float:
    return float(np.abs(values - bellman_update(model, coverage, values)).max())


def _finish(model: MdpModel, coverage: Coverage, values: np.ndarray, iterations: int,
            converged: bool = True) -> SolveResult:
    policy = policy_from_values(model, coverage, values)
    exact = evaluate_policy(model, policy, coverage)
    return SolveResult(
        policy=policy,
        values=exact,
        iterations=iterations,
        residual=_optimality_residual(model, coverage, exact),
        converged=converged,
    )


def solve_value_iteration(
    model: MdpModel,
    coverage: Coverage,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveResult:
    """Value iteration for one coverage: the one-problem :func:`solve_value_iterations`."""
    return solve_value_iterations(model, [coverage], tol=tol, max_iter=max_iter)[0]


def solve_value_iterations(
    model: MdpModel,
    coverages: Sequence[Coverage],
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> list[SolveResult]:
    """Value iteration from V = 0 for a stack of coverage problems of one model.

    Every problem iterates the same Bellman operator on its own stage losses,
    all in one loop.  A problem leaves the stack at the first iteration where
    its own sup-norm change is at most tol * (1 - discount) / (2 * discount),
    which bounds the value error of its greedy policy by ``tol``.  The
    reported values are the exact evaluation of the extracted policy.  A
    problem still iterating at ``max_iter`` is extracted from its last
    iterate, and one whose iterate stops being finite from its last finite
    iterate; both are flagged ``converged=False``.  Results are in the order
    of ``coverages``.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    coverages = list(coverages)
    delta = model.discount
    threshold = tol * (1.0 - delta) / (2.0 * delta) if delta > 0.0 else np.inf
    n, m = model.n_states, model.n_actions
    # Action-major stage losses, column a * n + s, so one product serves the stack.
    retained = model.losses - np.array([coverage_paid(model, c) for c in coverages]).reshape(-1, n)
    stage = (model.costs[None, :, None] + retained[:, None, :]).reshape(-1, m * n)
    forward = delta * model.transitions.reshape(m * n, n).T
    lowest, highest = np.minimum.reduce, np.maximum.reduce
    values = np.zeros((len(coverages), n))
    active = np.arange(len(coverages))
    results: list[SolveResult | None] = [None] * len(coverages)
    for iteration in range(1, max_iter + 1):
        if not active.size:
            break
        updated = lowest((stage + values @ forward).reshape(-1, m, n), axis=1)
        change = highest(np.abs(updated - values), axis=1)
        # One test per iteration while every problem keeps going; NaN fails it too.
        if not (lowest(change) > threshold and highest(change) < np.inf):
            going = (change > threshold) & (change < np.inf)
            for i in np.flatnonzero(~going):
                k = int(active[i])
                if np.isfinite(change[i]):
                    results[k] = _finish(model, coverages[k], updated[i], iteration)
                else:
                    results[k] = _finish(model, coverages[k], values[i], iteration, converged=False)
            updated, stage, active = updated[going], stage[going], active[going]
        values = updated
    for i, k in enumerate(active):
        results[k] = _finish(model, coverages[k], values[i], max_iter, converged=False)
    return results


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

    return SolveResult(
        policy=best_policy,
        values=best_values,
        iterations=count,
        residual=_optimality_residual(model, coverage, best_values),
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
