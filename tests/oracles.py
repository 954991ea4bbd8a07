"""The paper's textbook solvers, kept as independent oracles for the production path.

Production finds every policy in :mod:`cyins.solvers` (a linear walk and
value iteration) and certifies it in :mod:`cyins.contracts`.  This module
solves the same discounted minimization two other ways, and the tests check
production against them:

- the MDP linear program (Puterman 1994, section 6.9), whose dual variables
  are the optimal values, solved by a self-contained two-phase dense simplex
  under Bland's rule (:func:`build_lp`, :func:`solve_lp_dual`);
- brute-force enumeration of every stationary policy
  (:func:`solve_policy_enumeration`);
- the one-problem Bellman helpers (:func:`action_values`,
  :func:`bellman_update`, :func:`policy_from_values`) and the per-policy
  stream split (:func:`decompose_value`);
- value iteration for one coverage (:func:`solve_value_iteration`), the
  one-problem call of production's stacked loop, with the paid vectors of
  a stack of coverages (:func:`coverages_paid`).  Unlike
  :func:`cyins.solve` it certifies nothing: it returns whatever policy
  ``max_iter`` sweeps reach, and the tests read its diagnostics;
- the algebraic identities that tie the two-state closed forms of
  :mod:`cyins.analytic` together (:func:`identity_residuals`), a
  self-check of those forms.

All the solvers share production's tie rule (``TIE_REL`` and
``_greedy_actions``), its stacked action values and its exact evaluation,
so every solver agrees on ties.  Action values are (M, N) action-major here
as in production; only :func:`action_values` and :func:`stage_loss_matrix`
give (N, M), state-major.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from cyins.analytic import (
    TwoStateModel,
    _hat,
    action_value_gap,
    closed_form_value,
    transition_determinant,
    transition_shift,
)
from cyins.model import (
    Coverage,
    MdpModel,
    ProtectionPolicy,
    _policy_streams,
    _tiers,
    _tiers_paid,
    coverage_paid,
    evaluate_policy,
)
from cyins.solvers import (
    TIE_REL,
    SolveResult,
    _greedy_actions,
    _stacked_action_values,
    solve_value_iterations,
)

ENUMERATION_LIMIT = 10**6


class LpError(RuntimeError):
    """Internal linear-programming failure (must not occur for valid models)."""


class EnumerationTooLarge(ValueError):
    """The policy space exceeds the brute-force guard."""


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


def coverages_paid(model: MdpModel, coverages: Sequence[Coverage]) -> np.ndarray:
    """Reimbursements of a stack of coverages, shape (len(coverages), n_states).

    Row k is the paid vector of ``coverages[k]``, and the whole stack is one
    array expression: each state's loss times its tier level (low at or
    below the cutoff, high above it).  A linear level is a low tier without
    a cutoff, no insurance a zero level.
    """
    tiers = np.array([_tiers(c) for c in coverages], dtype=float).reshape(-1, 3)
    return _tiers_paid(model, *tiers.T[:, :, None])


def solve_value_iteration(
    model: MdpModel,
    coverage: Coverage,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveResult:
    """Value iteration for one coverage: the one-problem :func:`solve_value_iterations`."""
    return solve_value_iterations(model, coverages_paid(model, [coverage]), tol, max_iter).result(0)


def stage_loss_matrix(model: MdpModel, coverage: Coverage) -> np.ndarray:
    """Effective losses for every (state, action) pair, shape (n_states, n_actions)."""
    retained = model.losses - coverage_paid(model, coverage)
    return retained[:, None] + model.costs[None, :]


def decompose_value(
    model: MdpModel, policy: ProtectionPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Split the uninsured value into direct-loss and protection-cost streams.

    Returns ``(direct, cost)`` where each is the policy value computed with
    only that stage term; their sum is ``evaluate_policy`` under zero
    coverage, bit for bit.  The direct part is the user's cyber-risk
    exposure, which is what rises when insurance induces weaker protection.
    """
    model.check_policy(policy)
    return tuple(_policy_streams(model, np.array(policy.actions), model.losses).T)


def action_values(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One-step lookahead Q(s, a) = stage loss + discount * E[values], shape (N, M)."""
    return _action_values(model, coverage, values).T


def _action_values(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """:func:`action_values` action-major, shape (M, N)."""
    retained = model.losses - coverage_paid(model, coverage)
    return _stacked_action_values(model, retained[None], np.asarray(values, dtype=float)[None])[:, 0]


def bellman_update(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One application of the optimal (min over actions) dynamic-programming operator."""
    return _action_values(model, coverage, values).min(axis=0)


def policy_from_values(
    model: MdpModel, coverage: Coverage, values: np.ndarray
) -> ProtectionPolicy:
    """Greedy policy extraction from a value vector, under production's tie rule."""
    actions = _greedy_actions(_action_values(model, coverage, values), model.costs)
    return ProtectionPolicy(tuple(int(a) for a in actions))


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

    residual = float(np.abs(best_values - bellman_update(model, coverage, best_values)).max())
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


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the algebraic identities tying gaps, shifts and value formulas."""

    residuals: dict[str, float]

    @property
    def max_abs(self) -> float:
        return max(abs(v) for v in self.residuals.values())


def identity_residuals(ts: TwoStateModel, level: float) -> IdentityReport:
    """Check the algebraic identities linking gaps, the transition shift and values.

    The four pairwise gap differences collapse to multiples of the transition
    shift, and each strong-minus-weak value difference factors into a positive
    coefficient times the corresponding gap.  All residuals should sit at
    rounding level for any valid model.
    """
    g, b = ts.good, ts.bad
    w, s = ts.weak, ts.strong
    d = ts.discount
    rho = transition_shift(ts)
    d_cost = ts.cost_strong - ts.cost_weak
    d_loss = ts.loss_bad - ts.loss_good

    def gap(state, other_action):
        return action_value_gap(ts, state, other_action, level)

    res: dict[str, float] = {
        "gap_action_diff_good": (gap(g, s) - gap(g, w)) - rho * d * d_cost,
        "gap_action_diff_bad": (gap(b, s) - gap(b, w)) - rho * d * d_cost,
        "gap_state_diff_strong": (gap(g, s) - gap(b, s)) - rho * d * (1.0 - level) * d_loss,
        "gap_state_diff_weak": (gap(g, w) - gap(b, w)) - rho * d * (1.0 - level) * d_loss,
        "gap_cross_strong_weak": (gap(g, s) - gap(b, w))
        - rho * d * (d_cost + (1.0 - level) * d_loss),
        "gap_cross_weak_strong": (gap(b, s) - gap(g, w))
        - rho * d * (d_cost - (1.0 - level) * d_loss),
    }

    for other_action, tag in ((s, "strong"), (w, "weak")):
        diff_good = closed_form_value(ts, g, s, other_action, level) - closed_form_value(
            ts, g, w, other_action, level
        )
        coef_good = (
            (1.0 - d)
            * _hat(ts, b, other_action, b)
            / (
                transition_determinant(ts, s, other_action)
                * transition_determinant(ts, w, other_action)
            )
        )
        res[f"value_gap_factorization_good_{tag}"] = diff_good - coef_good * gap(g, other_action)

        diff_bad = closed_form_value(ts, b, s, other_action, level) - closed_form_value(
            ts, b, w, other_action, level
        )
        coef_bad = (
            (1.0 - d)
            * _hat(ts, g, other_action, g)
            / (
                transition_determinant(ts, other_action, s)
                * transition_determinant(ts, other_action, w)
            )
        )
        res[f"value_gap_factorization_bad_{tag}"] = diff_bad - coef_bad * gap(b, other_action)

    return IdentityReport(residuals=res)
