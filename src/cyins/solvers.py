"""Optimal protection policies: every policy production finds.

Production finds its policies here and certifies none of them:
:mod:`cyins.contracts` gates every table it reads by its certificate and
prices it.  Every policy comes with the *exact* evaluation of its values.
Two-tier coverage is solved by value iteration (:func:`_solve_many`), an
affine family such as linear coverage by a walk (:func:`_solve_linear`), and a
zero-profit region's ends against a policy switch by :func:`_linear_switch`
and :func:`_threshold_switch`.  The paper's other two methods, the MDP
linear program and policy enumeration, are the test suite's oracles and
ship in ``tests/oracles.py``, not here.

Value iteration has one loop, :func:`solve_value_iterations`, which applies
the Bellman operator to a stack of coverage problems of one model at once,
each given by its paid vector (a coverage enters only through what it pays
per state).  Action values are action-major, (M*N, K) in the loop, one column
per problem, so each iteration is one matrix product, one sum and one min over
the leading axis; a stack's are (M, K, N) and one problem's (M, N).  The loop
keeps two iterates of the stack, which swap roles each step.  The stack
stops together: its stopping rule is tested once per block of up to
``BLOCK`` iterates, on the block's last step, and holds the stack
while any problem's change exceeds the threshold, so every problem reports
the stack's iteration count (from discount 0.999 the threshold lies below
one ulp of ||V||, so only the certificate of :mod:`cyins.contracts`
decides).  The final iterates are finished together into one
:class:`SolveTable`: one greedy extraction, one exact evaluation per
distinct policy (:func:`cyins.model._policy_streams`), whose one
factorisation gives its two streams and its problems' values, and one
stacked Bellman residual.  Production always solves a stack; the
one-problem call is a test oracle in ``tests/oracles.py``.

The walk (:func:`_walk_pieces`) runs no value iteration.  A family whose
parameter R retains u + (1 - R) * w, for two stage vectors u and w, has
action values affine in R, so its optimal policy is piecewise constant in R
(parametric policy iteration, Puterman 1994, section 6.4).  Linear coverage
is u = 0 and w the losses; two-tier coverage at a fixed class of high-tier
states is affine in its high tier.  Each policy the walk evaluates is solved
once, and every row is read off its piece's lines.

A region end is found exactly from the two rows that bracket it, with no
solver call: the root of an affine gap between a family's rows
(:func:`_linear_switch`), the first change of a cutoff's class between
threshold rows that the policy does not survive (:func:`_threshold_switch`).

Tie-breaking is deterministic everywhere: among actions whose action-values
agree within a small relative window, the cheaper action wins, then the lower
index.  One greedy extraction implements the rule for any stack of action
values, and a Howard step switches an action only beyond the same window.
Repeated solves of the same instance return byte-identical policies.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (
    MdpModel,
    ProtectionPolicy,
    ThresholdCoverage,
    _check_real,
    _policy_streams,
    _tiers_paid,
)

__all__ = [
    "SolveResult",
    "SolveTable",
    "solve_value_iterations",
]

# Relative width of the action-value window treated as a tie.  Exact
# mathematical ties carry only ~1e-14 relative rounding noise, so this window
# catches them with two orders of margin while keeping any genuinely distinct
# actions (and hence the induced policy values) well inside the cross-solver
# agreement tolerances.
TIE_REL = 1e-12

# Value iterates computed between two tests of the stopping rule, which the
# whole stack of problems passes or fails together.
BLOCK = 16


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
    in) or Howard steps of a linear walk.  ``converged`` is value
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


def _stacked_action_values(model: MdpModel, retained: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Action values of K problems, shape (M, K, N), from retained losses and values of shape (K, N)."""
    future = (model.transitions @ values[:, None, :, None])[..., 0]  # (K, M, N)
    return model.costs[:, None, None] + retained + model.discount * future.transpose(1, 0, 2)


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


def solve_value_iterations(
    model: MdpModel,
    paid: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 200_000,
) -> SolveTable:
    """Value iteration from V = 0 for a stack of coverage problems of one model.

    A coverage enters the stage losses only through the reimbursement it
    pays in each state, so the K problems are given by their paid vectors,
    ``paid`` of shape (K, n_states).  Every problem iterates the same
    Bellman operator on its own stage losses, all in one loop.  The stack is problem-minor: values
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
    factorisation per distinct policy, solving its problems' retained losses, the full
    losses and the costs (values and both streams), and one stacked Bellman residual."""
    actions = _greedy_actions(_stacked_action_values(model, retained, values), model.costs)
    first, policy_of = _first_rows(actions)
    exact, streams = np.empty(values.shape), np.empty((len(first), model.n_states, 2))
    for p, policy in enumerate(actions[first]):
        members = np.flatnonzero(policy_of == p)
        solved = _policy_streams(model, policy, *retained[members], model.losses)
        # A value sums its retained-loss and cost streams, as a linear walk's rows do.
        exact[members], streams[p] = (solved[:, :-2] + solved[:, -1:]).T, solved[:, -2:]
    residual = np.abs(exact - _stacked_action_values(model, retained, exact).min(axis=0)).max(axis=1)
    bound, converged = residual / (1.0 - model.discount), stopped & np.isfinite(exact).all(axis=1)
    return SolveTable(actions[first], streams, policy_of, exact, iterations, residual, bound, converged)


def _solve_many(model: MdpModel, paid: np.ndarray, tol: float) -> tuple[SolveTable, np.ndarray]:
    """Value-iteration problems for the distinct rows of ``paid`` (K, N), uncertified.

    Each distinct paid vector is solved once, in the order of its first
    row, all of them in one loop, and ``index`` names row k's problem: a
    sweep puts the baseline's vector in row 0.
    """
    first, index = _first_rows(paid)
    return solve_value_iterations(model, paid[first], tol=tol), index


def _lines(model: MdpModel, family, streams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(q_w, q_fixed)``, each (M, N), of a policy with streams ``streams`` (N, 2) in ``family``.

    At parameter R the family retains ``family.u + (1 - R) * family.w``, and
    the policy's values are (1 - R) * W + F, for its w stream W and its
    fixed stream F = C + U, so Q(a, s; R) = (1 - R) * q_w[a, s] + q_fixed[a, s].
    """
    delta, (w_stream, fixed) = model.discount, streams.T
    q_w = family.w + delta * (model.transitions @ w_stream)
    q_fixed = (model.costs[:, None] + family.u) + delta * (model.transitions @ fixed)
    return q_w, q_fixed


def _evaluated(model: MdpModel, family, actions: np.ndarray) -> tuple:
    """``(actions, streams, lines)``: the walk's piece of ``actions`` in ``family``, one solve."""
    w_stream, u_stream, cost = _policy_streams(model, actions, family.w, family.u).T
    streams = np.stack((w_stream, cost + u_stream), axis=1)
    return actions, streams, _lines(model, family, streams)


def _improve(model: MdpModel, family, piece: tuple, level: float) -> tuple[tuple, int]:
    """Howard policy iteration at ``level`` of ``family`` from a ``piece`` (:func:`_evaluated`).

    A step moves each state whose greedy action beats the policy's own by
    more than the tie window, so the values strictly fall and no policy
    comes back; a step that would revisit one (rounding alone could make it)
    ends the loop, so it ends on every input.  Then the greedy policy under
    the tie rule is taken from the final exact values; when it differs
    (only within tie windows) it costs one more evaluation and is accepted.
    Returns the final policy's piece and the number of steps.
    """
    states = np.arange(model.n_states)
    seen = {piece[0].tobytes()}
    steps = 0
    while True:
        actions, _, (q_w, q_fixed) = piece
        q = (1.0 - level) * q_w + q_fixed
        greedy = _greedy_actions(q, model.costs)
        own = q[actions, states]
        better = own - q[greedy, states] > TIE_REL * (1.0 + np.abs(own))
        switched = np.where(better, greedy, actions)
        if not better.any() or switched.tobytes() in seen:
            break
        seen.add(switched.tobytes())
        piece = _evaluated(model, family, switched)
        steps += 1
    if (greedy != actions).any():
        piece = _evaluated(model, family, greedy)
    return piece, steps


def _walk_pieces(model: MdpModel, family, levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The optimal policies of ``family`` along the ascending ``levels``, as pieces.

    From the cheapest action in every state (the greedy policy of V = 0),
    :func:`_improve` at the first level gives the first policy pi.  Under pi
    every action value is affine in the level (:func:`_lines`), so one
    greedy extraction over the later levels finds the run of rows on which
    pi is its own greedy policy: pi's piece.  At the first row off it,
    :func:`_improve` gives the next policy, and so on.  Returns the pieces'
    policies (P, N), streams (P, N, 2) and lines (2, M, P, N), and each
    level's piece and Howard steps.
    """
    count = len(levels)
    piece_of, steps = np.empty(count, dtype=np.intp), np.empty(count, dtype=int)
    piece = _evaluated(model, family, np.full(model.n_states, _greedy_actions(model.costs, model.costs)))
    pieces, start = [], 0
    while start < count:
        piece, taken = _improve(model, family, piece, float(levels[start]))
        pieces.append(piece)
        current, _, (q_w, q_fixed) = piece
        q = (1.0 - levels[start + 1:, None]) * q_w[:, None] + q_fixed[:, None]
        off = (_greedy_actions(q, model.costs) != current).any(axis=1)
        stop = start + 1 + int(off.argmax()) if off.any() else count
        piece_of[start:stop], steps[start:stop] = len(pieces) - 1, taken
        start = stop
    policies, streams, lines = zip(*pieces)
    return np.array(policies), np.array(streams), np.stack(lines, axis=2), piece_of, steps


def _solve_linear(model: MdpModel, family, levels: np.ndarray) -> tuple[SolveTable, np.ndarray]:
    """Problems of ``family`` at level 0 and at each of the ascending ``levels``, uncertified.

    Level 0 is the walk's first row (linear coverage's baseline), and a
    repeated level shares its problem.  Level R is read off its piece:
    values V = (1 - R) * W + F, residual max |V - min_a Q| with Q =
    (1 - R) * q_w + q_fixed, and the Howard steps to its piece.  The table's
    streams are W and F, for linear coverage the direct-loss and
    protection-cost streams.  ``index`` names level 0's problem, then each level's.
    """
    distinct, index = np.unique(np.append(0.0, levels), return_inverse=True)
    policies, streams, (q_w, q_fixed), piece_of, steps = _walk_pieces(model, family, distinct)
    scale = 1.0 - distinct[:, None]
    values = scale * streams[piece_of, :, 0] + streams[piece_of, :, 1]
    bellman = (scale * q_w.take(piece_of, axis=1) + q_fixed.take(piece_of, axis=1)).min(axis=0)
    residual = np.abs(values - bellman).max(axis=1)
    bounds = residual / (1.0 - model.discount)
    # The walk itself always ends; only non-finite values leave a problem unconverged.
    finite = np.isfinite(values).all(axis=1)
    return SolveTable(policies, streams, piece_of, values, steps, residual, bounds, finite), index


def _linear_switch(
    model: MdpModel, family, start: float, stop: float, actions: Sequence[int], streams: np.ndarray
) -> float:
    """The exact level of ``family`` between ``start`` and ``stop`` where the user leaves pi.

    pi, given by its ``actions`` and ``streams`` (N, 2), is the policy at
    level ``start``, inside the region, and ``stop`` is its neighbour
    outside.  Every gap G(a, s; R) = Q(a, s; R) - Q(pi(s), s; R) =
    (1 - R) * A + B is affine in R (:func:`_lines`), and pi stays optimal
    exactly while no gap is negative.  The switch is the root nearest
    ``start`` of a gap that turns negative between the two levels (beyond
    the tie window at ``stop``), clamped to the bracket; ``stop`` when none
    does, since the two levels' policies then tie.  It solves nothing.
    """
    q_w, q_fixed = _lines(model, family, streams)
    own = (np.asarray(actions), np.arange(model.n_states))
    # Gaps are taken against pi's own action values, so an action identical
    # to pi's has a gap of exactly zero.
    slope = q_w - q_w[own]
    offset = q_fixed - q_fixed[own]
    at_stop = (1.0 - stop) * slope + offset
    # A gap that rounding alone makes negative (an action equivalent to pi's
    # but computed along another path) has a root anywhere.
    window = TIE_REL * (1.0 + np.abs((1.0 - stop) * q_w + q_fixed))
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
    """The first cutoff from the ``inside`` coverage toward ``stop`` at which the user leaves pi0.

    pi0, given by its ``actions``, is the policy at the ``inside`` coverage,
    in the region, and ``stop`` is its neighbour's cutoff outside.  A cutoff
    acts only through its class, the states whose loss lies above it, which
    changes only at the state losses between the two: going up at the loss,
    as a tie pays the low tier, and going down at the float below it.  The
    last change gives the outside row's class.  pi0 survives a class while
    it is the tie-rule greedy policy of its own exact values under the
    class's paid vector; the earlier classes are the right-hand sides of one
    evaluation of pi0.  The end is the first change pi0 does not survive.
    """
    losses, start = model.losses, inside.cutoff
    if stop > start:
        ends = np.unique(losses[(start < losses) & (losses <= stop)])
    else:
        ends = np.nextafter(np.unique(losses[(stop < losses) & (losses <= start)])[::-1], -np.inf)
    if len(ends) > 1:
        retained = losses - _tiers_paid(model, ends[:-1, None], inside.low_level, inside.high_level)
        solved = _policy_streams(model, actions, *retained)
        q = _stacked_action_values(model, retained, (solved[:, :-1] + solved[:, -1:]).T)
        stays = np.append((_greedy_actions(q, model.costs) == actions).all(axis=1), False)
        ends = ends[stays.argmin():]
    return ends[0].item()
