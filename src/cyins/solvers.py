"""Optimal protection policies: every policy production finds, and the oracles.

Value iteration, a dense-simplex linear program, and exhaustive policy
enumeration all solve the same discounted minimization and act as mutual
oracles in the test suite.  All three report the *exact* policy evaluation of
whatever policy they select, so agreement checks compare solver choices, not
iteration noise.  Production finds its policies here too and certifies none
of them: :mod:`cyins.contracts` gates every table it reads by its
certificate and prices it.  Two-tier coverage is solved by value iteration
(:func:`_solve_many`), no insurance and linear coverage by a walk
(:func:`_solve_linear`), and a zero-profit region's ends against a policy
switch by :func:`_linear_switch` and :func:`_threshold_switch`.

Value iteration has one loop, :func:`solve_value_iterations`, which applies
the Bellman operator to a stack of coverage problems of one model at once,
each given by its paid vector (a coverage enters only through what it pays
per state).  Action values are action-major, (M*N, K) in the loop, one column
per problem, so each iteration is one matrix product, one sum and one min over
the leading axis; a stack's are (M, K, N) and one problem's (M, N).  Only the
public :func:`action_values` and :func:`cyins.model.stage_loss_matrix` keep
(N, M).  The loop keeps two iterates of the stack, which swap roles each
step.  The stack stops together: its stopping rule is tested once per block
of up to ``BLOCK`` iterates, on the block's last step, and holds the stack
while any problem's change exceeds the threshold, so every problem reports
the stack's iteration count (from discount 0.999 the threshold lies below
one ulp of ||V||, so only the certificate of :mod:`cyins.contracts`
decides).  The final iterates are finished together into one
:class:`SolveTable`: one greedy extraction, one stacked exact evaluation
(:func:`cyins.model._policy_streams`) giving each problem's value and its
two streams from one factorisation, and one stacked Bellman residual.
:func:`solve_value_iteration` is its one-problem call.

The walk runs no value iteration: under linear coverage every action value
is affine in the level R, so the user's optimal policy is piecewise
constant in R (parametric policy iteration, Puterman 1994, section 6.4).
It walks the pieces up the grid from level 0, the baseline, with one greedy
extraction over the remaining rows per piece and a few Howard improvement
steps at each switch.  Each policy the walk evaluates is solved once, and
every row is read off its piece's affine values and action values, so the
rows solve nothing.

A region end is found from the two rows that bracket it, with no solver
call.  Between linear rows it is an exact root: under the inside row's
policy every gap between action values is affine in the coverage level,
with lines computed from the policy's streams.  Between threshold rows it
bisects the cutoff.  The inside row's policy pi0 stays at a cutoff while it
is the tie-rule greedy policy of its own exact values under that cutoff's
class, the states whose loss lies above it: the two bracketing rows'
classes are already decided, and any other class costs one evaluation of
pi0.

Tie-breaking is deterministic everywhere: among actions whose action-values
agree within a small relative window, the cheaper action wins, then the lower
index.  One greedy extraction implements the rule for a stack of problems;
:func:`policy_from_values` is its one-problem call, and a Howard step
switches an action only beyond the same window.  Repeated solves of the
same instance return byte-identical policies.
"""

from __future__ import annotations

import itertools
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    Coverage,
    MdpModel,
    ProtectionPolicy,
    ThresholdCoverage,
    _check_real,
    _policy_streams,
    _tiers_paid,
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
    "SolveTable",
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

BISECTION_WIDTH = 1e-6

# Value iterates computed between two tests of the stopping rule, which the
# whole stack of problems passes or fails together.
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
    optimal values (Puterman 1994, section 6).  Both are computed in floats
    and leave out the evaluation's own rounding floor, about
    machine-eps * ||V|| / (1 - discount), so the bound can read 0 for
    values a few ulps from the optimum.  ``iterations`` counts
    value-iteration sweeps (those of the whole stack the problem was solved
    in), Howard steps of a linear walk, or policies.  ``converged`` is value
    iteration's own stop flag: the problem's last change passed the stopping
    rule and its exact values are finite.  It is a diagnostic, not a
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


class SolveTable(NamedTuple):
    """K solved coverage problems of one model, one array per field.

    Problem k is on ``policies[policy_of[k]]``, one of P distinct policies
    (P, N) in order of first use, each with its direct-loss and
    protection-cost ``streams`` (P, N, 2).  The other fields are the
    problems' :class:`SolveResult` fields, ``values`` (K, N) and the rest (K,).
    """

    policies: np.ndarray
    streams: np.ndarray
    policy_of: np.ndarray
    values: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    certificate_bound: np.ndarray
    converged: np.ndarray

    def result(self, k: int) -> SolveResult:
        """Problem ``k`` as a :class:`SolveResult`."""
        policy = ProtectionPolicy(self.policies[self.policy_of[k]])
        numbers = int(self.iterations[k]), float(self.residual[k]), float(self.certificate_bound[k])
        return SolveResult(policy, self.values[k], *numbers, bool(self.converged[k]))


def _first_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first of each distinct row of ``rows`` (K, N), in order, and each row's number."""
    # Rows are one when their bytes are, so a -0.0 and a 0.0 stay apart.
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    # A permutation's argsort is its inverse: each distinct row's rank.
    return first[order], np.argsort(order)[inverse.ravel()]


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
    return _action_values(model, coverage, values).T


def _action_values(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """:func:`action_values` action-major, shape (M, N)."""
    retained = model.losses - coverage_paid(model, coverage)
    return _stacked_action_values(model, retained[None], np.asarray(values, dtype=float)[None])[:, 0]


def _stacked_action_values(model: MdpModel, retained: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Action values of K problems, shape (M, K, N), from retained losses and values of shape (K, N)."""
    future = (model.transitions @ values[:, None, :, None])[..., 0]  # (K, M, N)
    return model.costs[:, None, None] + retained + model.discount * future.transpose(1, 0, 2)


def bellman_update(model: MdpModel, coverage: Coverage, values: np.ndarray) -> np.ndarray:
    """One application of the optimal (min over actions) dynamic-programming operator."""
    return _action_values(model, coverage, values).min(axis=0)


def _greedy_actions(q: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Minimizing actions of action values ``q`` (M, ...) under the tie rule.

    Among the actions within the tie window of the minimum, the cheaper wins,
    then the lower index.  A state with no finite minimum (NaN action
    values) has no candidate and gets the first action in that order.
    """
    best = q.min(axis=0)
    candidates = q <= best + TIE_REL * (1.0 + np.abs(best))
    order = np.lexsort((np.arange(costs.size), costs))
    return order[candidates[order].argmax(axis=0)]


def policy_from_values(
    model: MdpModel, coverage: Coverage, values: np.ndarray
) -> ProtectionPolicy:
    """Greedy policy extraction from a value vector."""
    actions = _greedy_actions(_action_values(model, coverage, values), model.costs)
    return ProtectionPolicy(tuple(int(a) for a in actions))


def solve_value_iteration(
    model: MdpModel,
    coverage: Coverage,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveResult:
    """Value iteration for one coverage: the one-problem :func:`solve_value_iterations`."""
    return solve_value_iterations(model, coverages_paid(model, [coverage]), tol, max_iter).result(0)


def solve_value_iterations(
    model: MdpModel,
    paid: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveTable:
    """Value iteration from V = 0 for a stack of coverage problems of one model.

    A coverage enters the stage losses only through the reimbursement it
    pays in each state, so the K problems are given by their paid vectors,
    ``paid`` of shape (K, n_states), as :func:`cyins.model.coverages_paid`
    builds them.  Every problem iterates the same Bellman operator on its
    own stage losses, all in one loop.  The stack is problem-minor: values
    are (N, K) and stage losses (M*N, K), so the min over actions and the
    max over states reduce across contiguous problems.  The loop holds two
    iterates, which swap roles each step, and one step's action values.

    The stack stops together.  The stopping rule is tested once per block of
    up to ``BLOCK`` iterates, on the block's last step: the stack stops at
    the first block end where no problem's sup-norm change exceeds
    tol * (1 - discount) / (2 * discount), which bounds the value error of a
    greedy policy by ``tol`` (from discount 0.999 it lies below one ulp of
    ||V|| and fires only on a fixed point), or at ``max_iter``.  A NaN change
    passes the test; an inf change holds the stack for one more block, after
    which it is NaN.  Every problem reports the stack's iteration count and
    is flagged ``converged`` when its last change is at most the threshold,
    so a problem still moving at ``max_iter`` or whose iterate stops being
    finite is flagged ``converged=False``.  An iterate may overflow, so
    floating-point warnings inside the loop are silenced.  ``tol`` is a
    positive real number and ``max_iter`` an integer of at least 1.

    The final iterates are then finished together by :func:`_finish` into
    one :class:`SolveTable`, in the order of the rows of ``paid``.
    """
    _check_real("tol", tol)
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral):
        raise TypeError(f"max_iter must be an integer, got {max_iter!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    n, m = model.n_states, model.n_actions
    paid = np.asarray(paid, dtype=float)
    if paid.ndim != 2 or paid.shape[1] != n:
        raise ValueError(f"paid must have shape (K, {n}), got {paid.shape}")
    delta = model.discount
    threshold = tol * (1.0 - delta) / (2.0 * delta) if delta > 0.0 else np.inf
    retained = model.losses - paid
    problems = len(retained)
    # Action-major stage losses, row a * n + s, one column per problem.
    stage = (model.costs[:, None, None] + retained.T[None]).reshape(m * n, problems)
    lookahead = delta * model.transitions.reshape(m * n, n)
    matmul, add, lowest, highest = np.matmul, np.add, np.minimum.reduce, np.maximum.reduce
    # Two iterates that swap roles each step, and one step's action values.
    values, previous = np.zeros((n, problems)), np.empty((n, problems))
    sums = np.empty((m * n, problems))
    sums_by_action = sums.reshape(m, n, problems)
    done = 0
    # A problem's iterates may overflow; its flag and the finish report it.
    with np.errstate(all="ignore"):
        while done < max_iter:
            size = min(BLOCK, max_iter - done)
            # Outputs go positionally: a keyword makes each call about a third slower.
            for _ in range(size):
                previous, values = values, previous
                matmul(lookahead, previous, sums)
                add(stage, sums, sums)
                lowest(sums_by_action, 0, None, values)
            done += size
            # The last step's change, taken in the buffer the next step overwrites.
            change = highest(np.abs(np.subtract(values, previous, previous), previous), 0)
            # A NaN change passes; an inf one holds the stack a block, after which it is NaN.
            if not (change > threshold).any():
                break
    # The loop's buffers go before the finish allocates its own.
    del previous, sums, sums_by_action
    return _finish(model, retained, values.T, np.full(problems, done), change <= threshold)


def _finish(model, retained, values, iterations, stopped) -> SolveTable:
    """The :class:`SolveTable` of K problems from their ``retained`` losses, final iterates
    ``values`` (K, N), ``iterations`` and ``stopped`` flags: one greedy extraction, one
    stacked exact evaluation, whose factorisations solve the retained losses, the full
    losses and the costs (values and both streams), and one stacked Bellman residual."""
    actions = _greedy_actions(_stacked_action_values(model, retained, values), model.costs)
    streams = _policy_streams(model, actions, retained, model.losses)
    # A value sums its retained-loss and cost streams, as a linear walk's rows do.
    exact = streams[..., ::2].sum(axis=2)
    residual = np.abs(exact - _stacked_action_values(model, retained, exact).min(axis=0)).max(axis=1)
    bound, converged = residual / (1.0 - model.discount), stopped & np.isfinite(exact).all(axis=1)
    # Problems on one policy share its streams, those of its first problem.
    first, policy_of = _first_rows(actions)
    return SolveTable(
        actions[first], streams[first, :, 1:], policy_of, exact, iterations, residual, bound, converged
    )


def _solve_many(model: MdpModel, paid: np.ndarray, tol: float) -> tuple[SolveTable, np.ndarray]:
    """Value-iteration problems for the distinct rows of ``paid`` (K, N), uncertified.

    Each distinct paid vector is solved once, in the order of its first
    row, all of them in one loop, and ``index`` names row k's problem: a
    sweep puts the baseline's vector in row 0.
    """
    first, index = _first_rows(paid)
    return solve_value_iterations(model, paid[first], tol=tol), index


def _lines(model: MdpModel, direct: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q_loss, q_cost)``, each (M, N), of a policy with streams ``direct`` and ``cost`` (N,).

    At level R the policy's values are (1 - R) * direct + cost, so the
    action values on them are Q(a, s; R) = (1 - R) * q_loss[a, s] +
    q_cost[a, s] at every level.
    """
    delta = model.discount
    q_loss = model.losses + delta * (model.transitions @ direct)
    q_cost = model.costs[:, None] + delta * (model.transitions @ cost)
    return q_loss, q_cost


def _improve(
    model: MdpModel, actions: np.ndarray, streams: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Howard policy iteration at one linear ``level``, from ``actions`` and their ``streams``.

    A step moves each state whose greedy action beats the policy's own by
    more than the tie window, so the values strictly fall and no policy
    comes back; a step that would revisit one (rounding alone could make it)
    ends the loop, so it ends on every input.  Then the greedy policy under
    the tie rule is taken from the final exact values; when it differs
    (only within tie windows) it costs one more evaluation and is accepted.
    Returns the policy, its streams and the number of steps.
    """
    states = np.arange(model.n_states)
    seen = {actions.tobytes()}
    steps = 0
    while True:
        q_loss, q_cost = _lines(model, *streams.T)
        q = (1.0 - level) * q_loss + q_cost
        greedy = _greedy_actions(q, model.costs)
        own = q[actions, states]
        better = own - q[greedy, states] > TIE_REL * (1.0 + np.abs(own))
        switched = np.where(better, greedy, actions)
        if not better.any() or switched.tobytes() in seen:
            break
        actions = switched
        seen.add(actions.tobytes())
        streams = _policy_streams(model, actions[None], model.losses)[0]
        steps += 1
    if (greedy != actions).any():
        actions, streams = greedy, _policy_streams(model, greedy[None], model.losses)[0]
    return actions, streams, steps


def _walk_pieces(model: MdpModel, levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The optimal policies along the ascending linear ``levels``, as pieces.

    From the cheapest action in every state, the tie-rule greedy policy of
    V = 0, :func:`_improve` at the first level gives the first policy pi.
    Under pi every action value is affine in the level (:func:`_lines`), so
    one greedy extraction over the later levels finds the run of rows on
    which pi is its own greedy policy: pi's piece.  At the first row off it,
    :func:`_improve` gives the next policy, and so on.  Returns the pieces'
    policies (P, N) and streams (P, N, 2), and each level's piece and
    Howard steps.
    """
    count = len(levels)
    piece_of, steps = np.empty(count, dtype=np.intp), np.empty(count, dtype=int)
    current = np.full(model.n_states, _greedy_actions(model.costs, model.costs))
    streams = _policy_streams(model, current[None], model.losses)[0]
    pieces, start = [], 0
    while start < count:
        current, streams, taken = _improve(model, current, streams, float(levels[start]))
        pieces.append((current, streams))
        q_loss, q_cost = _lines(model, *streams.T)
        q = (1.0 - levels[start + 1:, None]) * q_loss[:, None] + q_cost[:, None]
        off = (_greedy_actions(q, model.costs) != current).any(axis=1)
        stop = start + 1 + int(off.argmax()) if off.any() else count
        piece_of[start:stop], steps[start:stop] = len(pieces) - 1, taken
        start = stop
    policies, streams = zip(*pieces)
    return np.array(policies), np.array(streams), piece_of, steps


def _solve_linear(model: MdpModel, levels: np.ndarray) -> tuple[SolveTable, np.ndarray]:
    """Problems for the baseline and each of the ascending linear ``levels``, uncertified.

    The baseline is level 0, the walk's first row, and a repeated level
    shares its problem.  Level R is read off its piece's streams and
    :func:`_lines`: values V = (1 - R) * direct + cost, residual
    max |V - min_a Q| with Q = (1 - R) * q_loss + q_cost, its iterations the
    Howard steps to its piece.  ``index`` names the baseline's problem, then
    each level's.
    """
    distinct, index = np.unique(np.append(0.0, levels), return_inverse=True)
    policies, streams, piece_of, steps = _walk_pieces(model, distinct)
    lines = [_lines(model, *piece.T) for piece in streams]
    q_loss, q_cost = (np.stack(part, axis=-2) for part in zip(*lines))
    direct, cost = streams[..., 0], streams[..., 1]
    scale = 1.0 - distinct[:, None]
    values = scale * direct[piece_of] + cost[piece_of]
    bellman = (scale * q_loss.take(piece_of, axis=1) + q_cost.take(piece_of, axis=1)).min(axis=0)
    residual = np.abs(values - bellman).max(axis=1)
    bounds = residual / (1.0 - model.discount)
    # The walk itself always ends; only non-finite values leave a problem unconverged.
    finite = np.isfinite(values).all(axis=1)
    return SolveTable(policies, streams, piece_of, values, steps, residual, bounds, finite), index


def _linear_switch(
    model: MdpModel, start: float, stop: float, actions: Sequence[int], streams: np.ndarray
) -> float:
    """The exact level between ``start`` and ``stop`` where the user leaves pi.

    pi, given by its ``actions`` and its direct-loss and protection-cost
    ``streams`` (N, 2), is the policy at level ``start``, inside the
    region, and ``stop`` is its neighbour outside.  Under pi every action's
    gap to pi, G(a, s; R) = Q(a, s; R) - Q(pi(s), s; R) = (1 - R) * A + B,
    is affine in the level R (see :func:`_lines`), and pi stays optimal
    exactly while no gap is negative.  The switch is the root nearest
    ``start`` of a gap that turns negative between the two levels (beyond
    the tie window at ``stop``), clamped to the bracket; ``stop`` when none
    does, since the two levels' policies then tie.  It solves nothing.
    """
    q_loss, q_cost = _lines(model, *streams.T)
    own = (np.asarray(actions), np.arange(model.n_states))
    # Gaps are taken against pi's own action values, so an action identical
    # to pi's has a gap of exactly zero.
    slope = q_loss - q_loss[own]
    offset = q_cost - q_cost[own]
    at_stop = (1.0 - stop) * slope + offset
    # A gap that rounding alone makes negative (an action equivalent to pi's
    # but computed along another path) has a root anywhere.
    window = TIE_REL * (1.0 + np.abs((1.0 - stop) * q_loss + q_cost))
    turning = (at_stop < -window) & (slope * (stop - start) > 0.0)
    if not turning.any():
        return stop
    roots = 1.0 + offset[turning] / slope[turning]
    lo, hi = min(start, stop), max(start, stop)
    nearest = roots.min() if stop > start else roots.max()
    return float(min(max(nearest, lo), hi))


def _threshold_switch(
    model: MdpModel, inside: ThresholdCoverage, stop: float, actions: np.ndarray
) -> float:
    """Bisect the cutoff to within BISECTION_WIDTH of where the user leaves pi0.

    pi0, given by its ``actions``, is the policy at the ``inside`` coverage,
    in the region, and ``stop`` is its neighbour's cutoff outside.  A cutoff
    acts only through its class, the states whose loss lies above it, and
    pi0 stays while it is the tie-rule greedy policy of its own exact values
    under the class's paid vector.  The two rows' classes are decided, and
    any other is decided once, by one evaluation of pi0.
    """
    losses, lo, hi = model.losses, inside.cutoff, stop
    stays = {(losses > lo).tobytes(): True, (losses > hi).tobytes(): False}
    while abs(hi - lo) > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        key = (losses > mid).tobytes()
        if key not in stays:
            retained = losses - _tiers_paid(model, mid, inside.low_level, inside.high_level)
            values = _policy_streams(model, actions[None], retained)[0].sum(axis=1)
            q = _stacked_action_values(model, retained[None], values[None])
            stays[key] = bool((_greedy_actions(q, model.costs) == actions).all())
        if stays[key]:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
