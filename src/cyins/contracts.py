"""Insurer-side economics: contract sweeps and optimal regions.

The insurer announces a contract (premium + coverage function); the user
responds with his optimal protection policy.  The largest premium the user
accepts is the drop in his expected cumulative loss, and the insurer's
operating profit is that premium minus the expected cumulative coverage paid.
Because the insurer can never profit from a policy change he induces, his
best achievable profit is zero, attained exactly on the contracts that leave
the user's no-insurance policy unchanged.  ``optimal_region`` reads that
zero-profit set off a sweep's columns: a row on the baseline policy is priced
with the baseline's own arithmetic, so its profit is exactly zero, and its
premium line is exact (level x the baseline's direct losses for linear
coverage, constant between tier changes for two-tier coverage).

A sweep is the one place premium, profit and coverage paid are computed;
a one-off quote is a one-row sweep (``sweep_linear(model, [level])`` or
``sweep_threshold(model, low, high, [cutoff])``), and the coverage paid is
``direct_losses + protection_cost - user_value``.

:func:`solve` is the one certified optimal response to a coverage: the walk
below for no insurance and linear coverage, value iteration for two-tier
coverage.  The certificate is the exact Bellman residual eps of the returned
policy's values, ||V_pi - V*|| <= eps / (1 - discount) (Puterman 1994,
section 6), carried as ``certificate_bound``.  Every result in this module,
a sweep row's too, passes the same gate, and the certificate alone is it:
one whose exact values are not all finite or whose bound exceeds
``CERT_TOL * (1 + ||V||)`` raises :class:`CertificateError`, so no
uncertified policy reaches a caller, a sweep row or a region end.  Value
iteration's own stop flag only enters the message: near discount 1 its
stopping threshold falls below one ulp of ||V|| and cannot fire, while the
policy it returns at ``max_iter`` certifies.  The other solvers stay in
:mod:`cyins.solvers` as test oracles.

A coverage enters a solve only through the reimbursement it pays in each
state.  A threshold sweep solves each distinct paid vector once, the
baseline and every row in one batched value-iteration loop.  A linear sweep
runs no value iteration: under linear coverage every action value is affine
in the level R, so the user's optimal policy is piecewise constant in R
(parametric policy iteration, Puterman 1994, section 6.4).  The sweep walks
the pieces up the grid from level 0, the baseline, with one greedy
extraction over the remaining rows per piece and a few Howard improvement
steps at each switch; all rows then share value iteration's stacked finish
and one certificate gate.

A sweep is a table, a :class:`Sweep`: the grid's parameters, each row's
distinct problem, and per problem its policy and its five figures (user
value, premium, profit, direct losses and protection cost), each figure one
array expression over the problems.  Each distinct policy is decomposed
once (a linear sweep reuses the decompositions its walk made).  Neither
pricing nor :func:`optimal_region` builds an object per row: a
:class:`ContractSweepRow`, with its coverage, is a view that indexing or
iteration builds on demand.

:func:`optimal_region` reads the region off the columns, and a region end
against a policy switch is found from the two rows that bracket it.
Between linear rows it solves nothing: under the inside row's policy every
gap between action values is affine in the coverage level, so the switch
is an exact root of the action-value lines the walk kept for that policy.
Between threshold rows it bisects the cutoff from the policies the two rows
carry, solving any other paid vector it meets once per ``optimal_region``
call.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    _BOOLS,
    Coverage,
    LinearCoverage,
    MdpModel,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    _tiers_paid,
    coverage_paid,
    decompose_value,
)
from .solvers import (
    TIE_REL,
    SolveResult,
    _finish_stack,
    _greedy_actions,
    solve_value_iterations,
)

__all__ = [
    "CertificateError",
    "ContractSweepRow",
    "RegionInterval",
    "RegionReport",
    "Sweep",
    "optimal_region",
    "solve",
    "sweep_linear",
    "sweep_threshold",
]

# Value-iteration stopping tolerance and relative certificate limit of every result.
CERT_TOL = 1e-9

BISECTION_WIDTH = 1e-6

LINEAR_GRID_POINTS = 201
THRESHOLD_GRID_POINTS = 401
THRESHOLD_GRID_MARGIN = 1.25

BOUNDARY_NOTE = (
    "refined interval ends exclude the switch parameter: under the "
    "cheaper-action tie rule the user's policy has already changed there, "
    "so the insurer's profit at the exact switch is negative; "
    "closed-interval reporting conventions would include it"
)


class CertificateError(RuntimeError):
    """A solve whose optimality the Bellman-residual certificate does not prove."""


@dataclass(frozen=True)
class ContractSweepRow:
    """One evaluated contract point along a parameter sweep.

    ``max_premium`` is the drop in the user's expected cumulative loss against
    the no-insurance baseline, never negative.  ``direct_losses`` and
    ``protection_cost`` decompose the user's uninsured value under the induced
    policy, so the expected discounted coverage paid is direct_losses +
    protection_cost - user_value, and ``profit`` (premium minus coverage paid)
    is recomputable as baseline value - (direct_losses + protection_cost).
    ``coverage`` is the contract's coverage at ``parameter``.
    """

    parameter: float
    coverage: Coverage
    policy: ProtectionPolicy
    user_value: float
    max_premium: float
    profit: float
    direct_losses: float
    protection_cost: float


@dataclass(frozen=True, eq=False)
class Sweep(Sequence):
    """A priced contract sweep: K rows over its D distinct problems, as columns.

    Row k prices ``coverage_at(parameters[k])`` and reads the numbers of
    problem ``problem_of[k]``.  Problem d is on the shared policy
    ``policies[policy_of[d]]``, and ``figures[d]`` holds its user value,
    max premium, profit, direct losses and protection cost, the number
    fields of :class:`ContractSweepRow` in order.  A linear sweep keeps in
    ``lines`` the action-value lines ``(q_loss, q_cost)`` of each of its
    policies, from which its region ends are exact roots; a two-tier sweep
    keeps none.

    The sweep is a read-only sequence of rows: ``sweep[k]`` (negative ``k``
    too) and iteration build :class:`ContractSweepRow` views on demand, and
    a slice is a sweep of the sliced rows.
    """

    coverage_at: Callable[[float], Coverage]
    parameters: np.ndarray
    problem_of: np.ndarray
    policies: tuple[ProtectionPolicy, ...]
    policy_of: np.ndarray
    figures: np.ndarray
    lines: tuple[tuple[np.ndarray, np.ndarray], ...] = ()

    def __post_init__(self):
        for name in ("parameters", "problem_of", "policy_of", "figures"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return replace(self, parameters=self.parameters[k], problem_of=self.problem_of[k])
        k = operator.index(k)
        if not -len(self) <= k < len(self):
            raise IndexError(f"sweep row {k} out of range for {len(self)} rows")
        parameter, problem = self.parameters[k].item(), self.problem_of[k]
        policy = self.policies[self.policy_of[problem]]
        numbers = self.figures[problem].tolist()
        return ContractSweepRow(parameter, self.coverage_at(parameter), policy, *numbers)


@dataclass(frozen=True)
class RegionInterval:
    """A parameter interval of zero-profit contracts with its premium line.

    The maximum premium on the interval is premium_intercept +
    premium_slope * parameter.  Boundary flags record whether the endpoints
    belong to the region (policy switch points do not).
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool
    premium_intercept: float
    premium_slope: float

    def premium(self, parameter: float) -> float:
        return self.premium_intercept + self.premium_slope * parameter


@dataclass(frozen=True)
class RegionReport:
    """The zero-profit (insurer-optimal) portion of a contract sweep.

    The representative point is the supremum-coverage contract in the region:
    the one handing the user the most coverage (equivalently, the largest
    premium) at the same zero insurer profit.  ``representative_attained`` is
    False when it sits on an open boundary at a policy switch and is only
    approached in the limit.
    """

    intervals: tuple[RegionInterval, ...]
    max_profit: float
    representative_parameter: float
    representative_premium: float
    representative_attained: bool
    note: str = BOUNDARY_NOTE


class _Problems(NamedTuple):
    """A sweep's distinct certified problems, one per paid vector.

    Their distinct policies are ``policies`` (P, N), with ``streams`` (P, 2)
    the direct-loss and protection-cost values of each at the initial state
    (the two streams of :func:`decompose_value`) and, for a linear walk,
    ``lines`` the action-value lines of each (see :class:`Sweep`).  Problem
    d is on policy ``piece_of[d]`` and has the exact values ``values[d]``;
    ``index`` names each coverage's problem, the baseline's first.
    """

    policies: np.ndarray
    streams: np.ndarray
    piece_of: np.ndarray
    values: np.ndarray
    index: np.ndarray
    lines: tuple[tuple[np.ndarray, np.ndarray], ...] = ()


def _solve_many(
    model: MdpModel, paid: np.ndarray, coverage_of: Callable[[int], Coverage]
) -> tuple[list[SolveResult], np.ndarray]:
    """Certified value-iteration results for the distinct rows of ``paid``.

    ``paid`` (K, N) holds the paid vectors of K coverages, row k that of
    ``coverage_of(k)``, which is built only to name an uncertified problem.
    Each distinct vector is solved once, in the order of its first row, all
    of them in one loop and one :func:`_certify`.  Returns the results and
    each row's index into them.
    """
    # Rows are one problem when their bytes are, so a -0.0 and a 0.0 stay apart.
    keys = np.ascontiguousarray(paid).view(np.dtype((np.void, paid.itemsize * paid.shape[1])))
    _, first, inverse = np.unique(keys.ravel(), return_index=True, return_inverse=True)
    # Problems are numbered in the order of their first rows.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    first = first[order]
    results = solve_value_iterations(model, paid[first], tol=CERT_TOL)
    _certify(
        model,
        lambda d: coverage_of(first[d]),
        np.array([solved.values for solved in results]),
        np.array([solved.certificate_bound for solved in results]),
        [solved.converged for solved in results],
        [solved.iterations for solved in results],
    )
    return results, rank[inverse.ravel()]


def _certify(
    model: MdpModel,
    coverage_of: Callable[[int], Coverage],
    values: np.ndarray,
    bounds: np.ndarray,
    converged: Sequence[bool],
    iterations: Sequence[int],
) -> None:
    """Raise :class:`CertificateError` for the first uncertified of K solved problems.

    ``values`` (K, N) are the problems' exact values and ``bounds`` (K,)
    their certificate bounds.  A problem is certified when its values are
    finite and its bound is within ``CERT_TOL * (1 + ||V||)``; the solver's
    own ``converged`` and ``iterations`` per problem, and the coverage
    ``coverage_of(k)`` of problem k, enter only the message.
    """
    # Relative, because the floating-point floor of the residual grows with ||V||.
    limits = CERT_TOL * (1.0 + np.abs(values).max(axis=1))
    certified = np.isfinite(values).all(axis=1) & (bounds <= limits)
    if not certified.all():
        k = int(certified.argmin())
        raise CertificateError(
            f"uncertified solve for {coverage_of(k)!r} at discount {model.discount}: "
            f"converged={bool(converged[k])} after {iterations[k]} iterations, "
            f"certificate bound {bounds[k]:.3g}, limit {limits[k]:.3g}"
        )


def solve(model: MdpModel, coverage: Coverage) -> SolveResult:
    """The user's certified optimal response to one coverage, by coverage family.

    No insurance and linear coverage are walked, two-tier coverage iterated.
    Raises :class:`CertificateError` unless the result's values are finite
    and its ``certificate_bound`` is within the limit (see the module
    docstring).
    """
    if isinstance(coverage, ThresholdCoverage):
        paid = coverage_paid(model, coverage)[None]
        results, _ = _solve_many(model, paid, lambda k: coverage)
        return results[0]
    level = np.array([getattr(coverage, "level", 0.0)], dtype=float)
    problems, residual, bounds, steps = _solve_linear(model, level, lambda k: coverage)
    k = problems.index[1]
    return SolveResult(
        ProtectionPolicy(problems.policies[problems.piece_of[k]]),
        problems.values[k],
        int(steps[k]),
        float(residual[k]),
        float(bounds[k]),
    )


def _action_value_lines(model: MdpModel, policy: ProtectionPolicy) -> tuple[np.ndarray, ...]:
    """``(q_loss, q_cost, direct, cost)`` of ``policy`` under linear coverage.

    At level R the policy's values are (1 - R) * direct + cost, with
    ``direct`` and ``cost`` (N,) the two streams of :func:`decompose_value`,
    so the action values on them are Q(s, a; R) = (1 - R) * q_loss[s, a] +
    q_cost[s, a], each (N, M), at every level from one factorisation.
    """
    direct, cost = decompose_value(model, policy)
    delta = model.discount
    q_loss = model.losses[:, None] + delta * (model.transitions @ direct).T
    q_cost = model.costs[None, :] + delta * (model.transitions @ cost).T
    return q_loss, q_cost, direct, cost


def _improve(
    model: MdpModel, actions: np.ndarray, lines: tuple[np.ndarray, ...], level: float
) -> tuple[np.ndarray, tuple[np.ndarray, ...], int]:
    """Howard policy iteration at one linear ``level``, from ``actions`` and their ``lines``.

    A step moves each state whose greedy action beats the policy's own by
    more than the solvers' tie window, so the values strictly fall and no
    policy comes back; a step that would revisit one (rounding alone could
    make it) ends the loop, so it ends on every input.  Then the greedy
    policy under the tie rule is taken from the final exact values; when it
    differs (only within tie windows) it costs one more evaluation and is
    accepted.  Returns the policy, its lines and the number of steps.
    """
    states = np.arange(model.n_states)
    seen = {actions.tobytes()}
    steps = 0
    while True:
        q = (1.0 - level) * lines[0] + lines[1]
        greedy = _greedy_actions(q, model.costs)
        own = q[states, actions]
        better = own - q[states, greedy] > TIE_REL * (1.0 + np.abs(own))
        switched = np.where(better, greedy, actions)
        if not better.any() or switched.tobytes() in seen:
            break
        actions = switched
        seen.add(actions.tobytes())
        lines = _action_value_lines(model, ProtectionPolicy(actions))
        steps += 1
    if (greedy != actions).any():
        actions, lines = greedy, _action_value_lines(model, ProtectionPolicy(greedy))
    return actions, lines, steps


def _walk_pieces(model: MdpModel, levels: np.ndarray) -> tuple[np.ndarray, ...]:
    """The optimal policies along the ascending linear ``levels``, as pieces.

    The first policy pi is the cheapest action in every state, the tie-rule
    greedy policy of V = 0.  Under pi every action value is affine in the
    level, so one greedy extraction over the remaining levels finds the
    leading run of rows on which pi is its own greedy policy: pi's piece.
    At the first row off it, :func:`_improve` gives the next policy, which
    takes that row, and so on.  Returns the pieces' policies (P, N), streams
    (P, 2) and lines (see :class:`_Problems`), and each level's piece and
    Howard steps.
    """
    count, s0 = len(levels), model.initial_state
    piece_of = np.empty(count, dtype=np.intp)
    steps = np.zeros(count, dtype=int)
    current = np.full(model.n_states, _greedy_actions(model.costs, model.costs))
    lines = _action_value_lines(model, ProtectionPolicy(current))
    pieces = [(current, lines)]
    start, taken = 0, 0
    while start < count:
        q = (1.0 - levels[start:, None, None]) * lines[0] + lines[1]
        off = (_greedy_actions(q, model.costs) != current).any(axis=1)
        stop = start + int(off.argmax()) if off.any() else count
        piece_of[start:stop], steps[start:stop] = len(pieces) - 1, taken
        if stop == count:
            break
        current, lines, taken = _improve(model, current, lines, float(levels[stop]))
        pieces.append((current, lines))
        piece_of[stop], steps[stop] = len(pieces) - 1, taken
        start = stop + 1
    policies = np.array([actions for actions, _ in pieces])
    streams = np.array([(lines[2][s0], lines[3][s0]) for _, lines in pieces])
    action_lines = tuple(lines[:2] for _, lines in pieces)
    return policies, streams, action_lines, piece_of, steps


def _solve_linear(
    model: MdpModel, levels: np.ndarray, coverage_of: Callable[[int], Coverage]
) -> tuple[_Problems, np.ndarray, np.ndarray, np.ndarray]:
    """Certified problems for the baseline and each of the ascending ``levels``.

    ``levels`` are linear coverage levels, level k that of ``coverage_of(k)``,
    which is built only to name an uncertified problem.  The baseline is
    level 0, the walk's first row; the distinct levels share one stacked
    finish and one :func:`_certify`, and a repeated level shares its
    problem.  Returns the problems and, per problem, the residual, the
    certificate bound and the Howard steps.
    """
    # Last, so np.unique (first occurrences) names level 0 after a grid coverage at 0.
    baseline = len(levels)
    distinct, first, index = np.unique(
        np.append(levels, 0.0), return_index=True, return_inverse=True
    )
    policies, streams, lines, piece_of, steps = _walk_pieces(model, distinct)
    retained = model.losses - _tiers_paid(model, np.inf, distinct[:, None], 0.0)
    values, residual, bounds, finite = _finish_stack(model, retained, policies[piece_of])

    def walked(d: int) -> Coverage:
        return ZeroCoverage() if first[d] == baseline else coverage_of(first[d])

    # The walk itself always ends; only non-finite values leave a problem unconverged.
    _certify(model, walked, values, bounds, finite, steps)
    index = np.concatenate((index[-1:], index[:-1]))
    problems = _Problems(policies, streams, piece_of, values, index, lines)
    return problems, residual, bounds, steps


def _price(
    model: MdpModel,
    coverage_at: Callable[[float], Coverage],
    parameters: np.ndarray,
    problems: _Problems,
) -> Sweep:
    """The priced sweep of ``parameters``: ``problems.index`` names the baseline's
    problem, then each row's.

    Each figure is one array expression over the distinct problems.
    """
    policies, streams, piece_of, values, index, lines = problems
    user = values[:, model.initial_state]
    direct, cost = streams[piece_of].T
    baseline = index[0]
    # Rows share this arithmetic, so a row on the baseline policy reports a
    # profit of exactly zero.
    baseline_uninsured = sum(streams[piece_of[baseline]].tolist())
    premium = user[baseline] - user
    # max(0.0, x), which np.maximum is not on a -0.0.
    premium = np.where(premium > 0.0, premium, 0.0)
    profit = baseline_uninsured - (direct + cost)
    return Sweep(
        coverage_at,
        parameters,
        index[1:],
        tuple(ProtectionPolicy(actions) for actions in policies.tolist()),
        piece_of,
        np.stack([user, premium, profit, direct, cost], axis=1),
        lines,
    )


def default_linear_grid(points: int = LINEAR_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def default_threshold_grid(model: MdpModel, points: int = THRESHOLD_GRID_POINTS) -> np.ndarray:
    top = float(model.losses.max()) * THRESHOLD_GRID_MARGIN
    return np.linspace(0.0, top if top > 0.0 else 1.0, points)


def _grid(grid, what: str) -> np.ndarray:
    """A sweep grid of ``what`` values as a one-dimensional float array.

    A bool converts to 0 or 1 but is not a number, so it is rejected.
    """
    if isinstance(grid, np.ndarray) and grid.dtype != object:
        kinds = {grid.dtype.type}
    else:
        grid = list(grid)
        kinds = set(map(type, grid))
    if not _BOOLS.isdisjoint(kinds):
        found = next((g for g in grid if type(g) in _BOOLS), True)
        raise TypeError(f"{what} must be a number, got {found!r}")
    values = np.array(grid, dtype=float)
    if values.ndim != 1:
        raise TypeError(f"a sweep grid is a sequence of numbers, got shape {values.shape}")
    return values


def _check_ascending(values: np.ndarray) -> None:
    if not (values[1:] >= values[:-1]).all():
        raise ValueError("sweep grid must be sorted ascending")


def sweep_linear(model: MdpModel, grid: Sequence[float] | None = None) -> Sweep:
    """Evaluate linear-coverage contracts over a grid of coverage levels in [0, 1]."""
    levels = _grid(default_linear_grid() if grid is None else grid, "coverage level")
    if not ((0.0 <= levels) & (levels <= 1.0)).all():
        raise ValueError("linear sweep grid must lie within [0, 1]")
    _check_ascending(levels)
    problems = _solve_linear(model, levels, lambda k: LinearCoverage(levels[k].item()))[0]
    return _price(model, LinearCoverage, levels, problems)


def sweep_threshold(
    model: MdpModel,
    low_level: float,
    high_level: float,
    grid: Sequence[float] | None = None,
) -> Sweep:
    """Evaluate two-tier coverage contracts over a grid of loss cutoffs."""
    for label, level in (("low_level", low_level), ("high_level", high_level)):
        if type(level) in _BOOLS:
            raise TypeError(f"{label} must be a number, got {level!r}")
    if not 0.0 <= low_level <= high_level <= 1.0:
        raise ValueError("need 0 <= low_level <= high_level <= 1")
    cutoffs = _grid(default_threshold_grid(model) if grid is None else grid, "cutoff")
    valid = np.isfinite(cutoffs) & (cutoffs >= 0.0)
    if not valid.all():
        bad = cutoffs[valid.argmin()].item()
        raise ValueError(f"cutoff must be finite and non-negative, got {bad}")
    _check_ascending(cutoffs)
    coverage_at = partial(ThresholdCoverage, low_level=low_level, high_level=high_level)
    # The baseline first: no cutoff, so it pays its zero low tier everywhere.
    column = np.append(np.inf, cutoffs)[:, None]
    paid = _tiers_paid(model, column, np.where(column < np.inf, low_level, 0.0), high_level)

    def row_coverage(k: int) -> Coverage:
        return ZeroCoverage() if k == 0 else coverage_at(cutoffs[k - 1].item())

    results, index = _solve_many(model, paid, row_coverage)
    shared = list(dict.fromkeys(solved.policy for solved in results))
    streams = np.array([decompose_value(model, policy) for policy in shared])
    problems = _Problems(
        np.array([policy.actions for policy in shared]),
        streams[:, :, model.initial_state],
        np.array([shared.index(solved.policy) for solved in results]),
        np.array([solved.values for solved in results]),
        index,
    )
    return _price(model, coverage_at, cutoffs, problems)


def _linear_switch(
    model: MdpModel,
    inside: ContractSweepRow,
    outside: ContractSweepRow,
    q_loss: np.ndarray,
    q_cost: np.ndarray,
) -> float:
    """The exact level where the user leaves ``inside``'s policy pi toward ``outside``.

    ``q_loss`` and ``q_cost`` are pi's action-value lines (see
    :func:`_action_value_lines`): under pi every action's gap to pi,
    G(s, a; R) = Q(s, a; R) - Q(s, pi(s); R) = (1 - R) * A + B, is affine
    in the level R, and pi stays optimal exactly while no gap is negative.
    The switch is the root nearest ``inside`` of a gap that turns negative
    between the rows (beyond the solvers' tie window at ``outside``),
    clamped to the bracket; ``outside`` when none does, since the two rows'
    policies then tie.  It solves nothing.
    """
    start, stop = inside.parameter, outside.parameter
    own = (np.arange(model.n_states), np.asarray(inside.policy.actions))
    # Gaps are taken against pi's own action values, so an action identical
    # to pi's has a gap of exactly zero.
    slope = q_loss - q_loss[own][:, None]
    offset = q_cost - q_cost[own][:, None]
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


def _bisect_switch(
    model: MdpModel,
    coverage_at: Callable[[float], Coverage],
    inside: ContractSweepRow,
    outside: ContractSweepRow,
    policies: dict[bytes, ProtectionPolicy],
) -> float:
    """Bisect the parameter of ``coverage_at`` to within BISECTION_WIDTH of
    where the user leaves ``inside``'s policy toward ``outside``.

    ``policies`` maps each paid vector solved so far to its policy: steps
    often land on the same paid vector (a threshold cutoff between two state
    losses), so a caller that shares it solves each vector once.
    """
    lo, hi = inside.parameter, outside.parameter
    while abs(hi - lo) > BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        coverage = coverage_at(mid)
        key = coverage_paid(model, coverage).tobytes()
        if key not in policies:
            policies[key] = solve(model, coverage).policy
        if policies[key] == inside.policy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _switch_finder(model: MdpModel) -> Callable[[ContractSweepRow, ContractSweepRow], float]:
    """The region end between two-tier rows: one in the region, its neighbour outside.

    It bisects the cutoff at the inside row's levels, starting from the
    policies the two rows already carry for their paid vectors.  A cutoff
    acts only through the states whose loss lies above it, so when one
    state loss lies between the rows every step pays one of their two
    vectors and nothing is solved; any other vector is solved once per
    finder.
    """
    policies: dict[bytes, ProtectionPolicy] = {}

    def switch(inside: ContractSweepRow, outside: ContractSweepRow) -> float:
        coverage = inside.coverage
        for row in (inside, outside):
            policies.setdefault(coverage_paid(model, row.coverage).tobytes(), row.policy)
        return _bisect_switch(
            model, lambda cutoff: replace(coverage, cutoff=cutoff), inside, outside, policies
        )

    return switch


def optimal_region(model: MdpModel, sweep: Sweep) -> RegionReport:
    """Extract the zero-profit parameter set from a sweep of ``model``.

    A row belongs to the region when its profit is exactly zero: the rows of
    a sweep on the baseline policy share its arithmetic.  An end against a
    policy switch is reported open, at the exact gap root for linear rows
    and bisected for threshold rows; an end at the grid edge stays closed.
    Maximal runs of rows with the same premium line each make one interval,
    so a threshold staircase splits at its steps.  Only the two rows around
    each end against a switch are built as row objects.
    """
    count = len(sweep)
    if not count:
        raise ValueError("optimal_region needs at least one sweep row")
    figures = sweep.figures[sweep.problem_of]
    profit = figures[:, 2]
    in_region = profit == 0.0
    if not in_region.any():
        raise ValueError(
            "no zero-profit rows found: every contract on the grid changes the "
            "user's no-insurance policy"
        )
    if sweep.coverage_at is LinearCoverage:
        # On the baseline policy a linear contract's premium is level x the
        # baseline's direct losses.
        intercept, slope = np.zeros(count), figures[:, 3]

        def end(inside: int, outside: int) -> float:
            lines = sweep.lines[sweep.policy_of[sweep.problem_of[inside]]]
            return _linear_switch(model, sweep[inside], sweep[outside], *lines)

    else:
        # A threshold contract's premium stays constant while the states
        # paid at each tier stay the same.
        intercept, slope = figures[:, 1], np.zeros(count)
        switch = _switch_finder(model)

        def end(inside: int, outside: int) -> float:
            return switch(sweep[inside], sweep[outside])

    parameters = sweep.parameters.tolist()
    line_steps = (intercept[1:] != intercept[:-1]) | (slope[1:] != slope[:-1])
    runs = [0, *(np.flatnonzero(np.diff(in_region)) + 1).tolist(), count]
    intervals: list[RegionInterval] = []
    for start, stop in zip(runs, runs[1:]):
        if not in_region[start]:
            continue
        lo, lo_closed = parameters[start], True
        if start > 0:
            lo, lo_closed = end(start, start - 1), False
        hi, hi_closed = parameters[stop - 1], True
        if stop < count:
            hi, hi_closed = end(stop - 1, stop), False
        cuts = [start, *(np.flatnonzero(line_steps[start : stop - 1]) + start + 1).tolist(), stop]
        for a, b in zip(cuts, cuts[1:]):
            first, last = a == start, b == stop
            intervals.append(
                RegionInterval(
                    lo=lo if first else parameters[a],
                    hi=hi if last else parameters[b - 1],
                    lo_closed=lo_closed or not first,
                    hi_closed=hi_closed or not last,
                    premium_intercept=intercept[a].item(),
                    premium_slope=slope[a].item(),
                )
            )

    # The first of equal premiums wins.
    ends = [
        (interval.premium(parameter), parameter, attained)
        for interval in intervals
        for parameter, attained in ((interval.lo, interval.lo_closed), (interval.hi, interval.hi_closed))
    ]
    premium, parameter, attained = max(ends, key=lambda item: item[0])
    return RegionReport(
        intervals=tuple(intervals),
        max_profit=max(profit.tolist()),
        representative_parameter=parameter,
        representative_premium=max(0.0, premium),
        representative_attained=attained,
    )
