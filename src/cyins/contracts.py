"""Insurer-side economics: contract sweeps and optimal regions.

The insurer announces a contract (premium + coverage function); the user
responds with his optimal protection policy.  The largest premium the user
accepts is the drop in his expected cumulative loss, and the insurer's
operating profit is that premium minus the expected cumulative coverage paid.
Because the insurer can never profit from a policy change he induces, his
best achievable profit is zero, attained exactly on the contracts that leave
the user's no-insurance policy unchanged.  ``optimal_region`` extracts that
zero-profit set from a sweep.

A sweep row is the one place premium, profit and coverage paid are computed;
a one-off quote is a one-row sweep (``sweep_linear(model, [level])`` or
``sweep_threshold(model, low, high, [cutoff])``), and the coverage paid is
``direct_losses + protection_cost - user_value``.

:func:`solve` is the one certified optimal response to a coverage, and
every solve in this module goes the same way: value iteration certified by
the exact Bellman residual eps of the returned policy's values, ||V_pi - V*||
<= eps / (1 - discount) (Puterman 1994, section 6), which the result carries
as ``certificate_bound``.  A solve that did not converge or whose bound
exceeds ``CERT_TOL * (1 + ||V||)`` raises :class:`CertificateError`, so no
uncertified policy reaches a caller, a sweep row or a switch refinement.
The other solvers stay in :mod:`cyins.solvers` as test oracles.

A coverage enters a solve only through the reimbursement it pays in each
state, so a sweep solves each distinct paid vector once: the baseline and
every row go to one batched value-iteration loop, and rows on the same
policy share one value decomposition.

A switch refiner takes the two sweep rows that bracket a region end.  Along
a linear sweep it solves nothing: under the inside row's policy every gap
between action values is affine in the coverage level, so the switch is an
exact root.  Along a threshold sweep it bisects the cutoff and remembers the
policy of each paid vector it solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .model import (
    Coverage,
    LinearCoverage,
    MdpModel,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    coverage_paid,
    coverages_paid,
    decompose_value,
)
from .solvers import TIE_REL, SolveResult, solve_value_iterations

__all__ = [
    "CertificateError",
    "ContractSweepRow",
    "RegionInterval",
    "RegionReport",
    "make_linear_refiner",
    "make_threshold_refiner",
    "optimal_region",
    "solve",
    "sweep_linear",
    "sweep_threshold",
]

# Value-iteration stopping tolerance and relative certificate limit of every solve.
CERT_TOL = 1e-9

PROFIT_ZERO_TOL = 1e-7
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
    """

    parameter: float
    policy: ProtectionPolicy
    user_value: float
    max_premium: float
    profit: float
    direct_losses: float
    protection_cost: float


@dataclass(frozen=True)
class RegionInterval:
    """A parameter interval of zero-profit contracts with its premium line.

    The maximum premium on the interval is premium_intercept +
    premium_slope * parameter.  Boundary flags record whether the endpoints
    belong to the region (refined switch points do not).
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
    False when it sits on an open refined boundary and is only approached in
    the limit.
    """

    intervals: tuple[RegionInterval, ...]
    max_profit: float
    representative_parameter: float
    representative_premium: float
    representative_attained: bool
    note: str = BOUNDARY_NOTE


def _solve_many(model: MdpModel, coverages: Sequence[Coverage]) -> list[SolveResult]:
    """Certified optimal responses to ``coverages``, in their order.

    The stage losses depend on a coverage only through its paid vector, so
    the paid vectors are built once, as one (K, N) array, and each distinct
    row is solved once, all of them in one value-iteration loop; each result
    then passes the certificate on its own (see the module docstring).
    """
    paid = coverages_paid(model, coverages)
    keys = [row.tobytes() for row in paid]
    first: dict[bytes, int] = {}
    for k, key in enumerate(keys):
        first.setdefault(key, k)
    results = solve_value_iterations(model, paid[list(first.values())], tol=CERT_TOL)
    solved = dict(zip(first, results))
    for key, k in first.items():
        _certify(model, coverages[k], solved[key])
    return [solved[key] for key in keys]


def _certify(model: MdpModel, coverage: Coverage, solved: SolveResult) -> None:
    bound = solved.certificate_bound
    # Relative, because the floating-point floor of the residual grows with ||V||.
    limit = CERT_TOL * (1.0 + float(np.abs(solved.values).max()))
    if not solved.converged or not bound <= limit:
        raise CertificateError(
            f"uncertified solve for {coverage!r} at discount {model.discount}: "
            f"converged={solved.converged} after {solved.iterations} iterations, "
            f"certificate bound {bound:.3g}, limit {limit:.3g}"
        )


def solve(model: MdpModel, coverage: Coverage) -> SolveResult:
    """The user's certified optimal response to one coverage.

    Raises :class:`CertificateError` unless value iteration converged and
    the result's ``certificate_bound`` is within the limit (see the module
    docstring).
    """
    return _solve_many(model, [coverage])[0]


def _run_sweep(
    model: MdpModel,
    parameters: Sequence[float],
    coverage_at: Callable[[float], Coverage],
) -> list[ContractSweepRow]:
    s0 = model.initial_state
    baseline, *solved_rows = _solve_many(
        model, [ZeroCoverage(), *(coverage_at(p) for p in parameters)]
    )
    uninsured: dict[ProtectionPolicy, tuple[float, float]] = {}

    def uninsured_parts(policy: ProtectionPolicy) -> tuple[float, float]:
        if policy not in uninsured:
            direct, cost = decompose_value(model, policy)
            uninsured[policy] = float(direct[s0]), float(cost[s0])
        return uninsured[policy]

    # Rows share this arithmetic, so a row on the baseline policy reports a
    # profit of exactly zero.
    baseline_value = float(baseline.values[s0])
    baseline_uninsured = sum(uninsured_parts(baseline.policy))
    # Rows that pay one vector share one result, so each distinct result is
    # priced once (results hash by identity).
    priced = {}
    for solved in dict.fromkeys(solved_rows):
        direct, cost = uninsured_parts(solved.policy)
        user_value = float(solved.values[s0])
        priced[solved] = (
            solved.policy,
            user_value,
            max(0.0, baseline_value - user_value),
            baseline_uninsured - (direct + cost),
            direct,
            cost,
        )
    return [
        ContractSweepRow(float(parameter), *priced[solved])
        for parameter, solved in zip(parameters, solved_rows)
    ]


def default_linear_grid(points: int = LINEAR_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def default_threshold_grid(model: MdpModel, points: int = THRESHOLD_GRID_POINTS) -> np.ndarray:
    top = float(model.losses.max()) * THRESHOLD_GRID_MARGIN
    return np.linspace(0.0, top if top > 0.0 else 1.0, points)


def _threshold_coverage(low_level: float, high_level: float) -> Callable[[float], Coverage]:
    """The two-tier contracts with these levels, as a function of the cutoff."""
    return partial(ThresholdCoverage, low_level=low_level, high_level=high_level)


def sweep_linear(
    model: MdpModel, grid: Sequence[float] | None = None
) -> list[ContractSweepRow]:
    """Evaluate linear-coverage contracts over a grid of coverage levels in [0, 1]."""
    if grid is None:
        grid = default_linear_grid()
    grid = [float(g) for g in grid]
    if any(not 0.0 <= g <= 1.0 for g in grid):
        raise ValueError("linear sweep grid must lie within [0, 1]")
    if sorted(grid) != grid:
        raise ValueError("sweep grid must be sorted ascending")
    return _run_sweep(model, grid, LinearCoverage)


def sweep_threshold(
    model: MdpModel,
    low_level: float,
    high_level: float,
    grid: Sequence[float] | None = None,
) -> list[ContractSweepRow]:
    """Evaluate two-tier coverage contracts over a grid of loss cutoffs."""
    if not 0.0 <= low_level <= high_level <= 1.0:
        raise ValueError("need 0 <= low_level <= high_level <= 1")
    if grid is None:
        grid = default_threshold_grid(model)
    grid = [float(g) for g in grid]
    if sorted(grid) != grid:
        raise ValueError("sweep grid must be sorted ascending")
    return _run_sweep(model, grid, _threshold_coverage(low_level, high_level))


Refiner = Callable[[ContractSweepRow, ContractSweepRow], float]


def make_linear_refiner(model: MdpModel) -> Refiner:
    """Exact refiner for policy-switch levels along a linear sweep; it solves nothing.

    The returned callable takes the two sweep rows (inside, outside) that
    bracket a switch: ``inside`` on the policy pi whose end is sought.  Under
    pi the user's values are (1 - R) * direct + cost, with ``direct`` and
    ``cost`` the two streams of :func:`decompose_value`, so every action's
    gap to pi, G(s, a; R) = Q(s, a; R) - Q(s, pi(s); R) = (1 - R) * A + B,
    is affine in the level R, and pi stays optimal exactly while no gap is
    negative.  The refiner returns the root nearest ``inside`` of a gap that
    turns negative between the rows (beyond the solvers' tie window at
    ``outside``), clamped to the bracket; ``outside`` when none does, since
    the two rows' policies then tie.
    """
    n = model.n_states
    delta = model.discount

    def refine(inside: ContractSweepRow, outside: ContractSweepRow) -> float:
        start, stop = inside.parameter, outside.parameter
        own = (np.arange(n), np.asarray(inside.policy.actions))
        direct, cost = decompose_value(model, inside.policy)
        # Q(s, a; R) = (1 - R) * q_loss[s, a] + q_cost[s, a].  Gaps are taken
        # against pi's own action values, so an action identical to pi's has
        # a gap of exactly zero.
        q_loss = model.losses[:, None] + delta * (model.transitions @ direct).T
        q_cost = model.costs[None, :] + delta * (model.transitions @ cost).T
        slope = q_loss - q_loss[own][:, None]
        offset = q_cost - q_cost[own][:, None]
        at_stop = (1.0 - stop) * slope + offset
        # A gap that rounding alone makes negative (an action equivalent to
        # pi's but computed along another path) has a root anywhere.
        window = TIE_REL * (1.0 + np.abs((1.0 - stop) * q_loss + q_cost))
        turning = (at_stop < -window) & (slope * (stop - start) > 0.0)
        if not turning.any():
            return stop
        roots = 1.0 + offset[turning] / slope[turning]
        lo, hi = min(start, stop), max(start, stop)
        nearest = roots.min() if stop > start else roots.max()
        return float(min(max(nearest, lo), hi))

    return refine


def make_threshold_refiner(model: MdpModel, low_level: float, high_level: float) -> Refiner:
    """Bisection refiner for policy-switch cutoffs along a threshold sweep.

    Takes the bracketing rows (inside, outside) like :func:`make_linear_refiner`
    and narrows the switch cutoff to within BISECTION_WIDTH.
    """
    return _policy_switch_refiner(model, _threshold_coverage(low_level, high_level))


def _policy_switch_refiner(model: MdpModel, coverage_at: Callable[[float], Coverage]) -> Refiner:
    # Bisection steps often land on the same paid vector (a threshold cutoff
    # between two state losses), so each one is solved once per refiner.
    policies: dict[bytes, ProtectionPolicy] = {}

    def policy_at(parameter: float) -> ProtectionPolicy:
        coverage = coverage_at(parameter)
        key = coverage_paid(model, coverage).tobytes()
        if key not in policies:
            policies[key] = solve(model, coverage).policy
        return policies[key]

    def refine(inside: ContractSweepRow, outside: ContractSweepRow) -> float:
        lo, hi = inside.parameter, outside.parameter
        while abs(hi - lo) > BISECTION_WIDTH:
            mid = 0.5 * (lo + hi)
            if policy_at(mid) == inside.policy:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    return refine


def _affine_segments(rows: list[ContractSweepRow]) -> list[list[ContractSweepRow]]:
    """Split a run of rows wherever the premium stops being affine in the parameter.

    Keeps linear sweeps in one piece and splits threshold staircases at their
    jumps (observed at grid resolution).
    """
    segments: list[list[ContractSweepRow]] = []
    current = [rows[0]]
    for row in rows[1:]:
        if len(current) == 1:
            current.append(row)
            continue
        first, second = current[0], current[1]
        span = second.parameter - first.parameter
        slope = (second.max_premium - first.max_premium) / span if span else 0.0
        predicted = first.max_premium + slope * (row.parameter - first.parameter)
        if abs(predicted - row.max_premium) <= PROFIT_ZERO_TOL * (1.0 + abs(predicted)):
            current.append(row)
        else:
            segments.append(current)
            current = [row]
    segments.append(current)
    return segments


def _interval_from_segment(
    segment: list[ContractSweepRow],
    lo: float,
    hi: float,
    lo_closed: bool,
    hi_closed: bool,
) -> RegionInterval:
    first, last = segment[0], segment[-1]
    span = last.parameter - first.parameter
    slope = (last.max_premium - first.max_premium) / span if span else 0.0
    intercept = first.max_premium - slope * first.parameter
    return RegionInterval(
        lo=lo,
        hi=hi,
        lo_closed=lo_closed,
        hi_closed=hi_closed,
        premium_intercept=intercept,
        premium_slope=slope,
    )


def optimal_region(
    rows: Sequence[ContractSweepRow],
    refine: Refiner | None = None,
) -> RegionReport:
    """Extract the zero-profit parameter set from a sweep.

    A row belongs to the region when its profit is zero within
    PROFIT_ZERO_TOL.  Region boundaries that sit against a policy switch are
    narrowed by the supplied ``refine`` callable, called with the bracketing
    rows ``(inside, outside)``: the exact root from ``make_linear_refiner``
    or a bisection from ``make_threshold_refiner``.  They are reported as
    open ends; boundaries at the grid edge stay closed.  Within the region,
    intervals are split wherever the premium is not affine in the parameter
    (threshold staircase steps), each carrying its own premium line.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("optimal_region needs at least one sweep row")
    in_region = [abs(r.profit) <= PROFIT_ZERO_TOL for r in rows]
    if not any(in_region):
        raise ValueError("no zero-profit rows found (the zero-coverage row always qualifies)")

    intervals: list[RegionInterval] = []
    i = 0
    while i < len(rows):
        if not in_region[i]:
            i += 1
            continue
        j = i
        while j + 1 < len(rows) and in_region[j + 1]:
            j += 1
        run = rows[i : j + 1]

        lo, lo_closed = run[0].parameter, True
        if i > 0 and refine is not None:
            lo, lo_closed = refine(run[0], rows[i - 1]), False
        hi, hi_closed = run[-1].parameter, True
        if j + 1 < len(rows) and refine is not None:
            hi, hi_closed = refine(run[-1], rows[j + 1]), False

        segments = _affine_segments(run)
        for k, segment in enumerate(segments):
            seg_lo = lo if k == 0 else segment[0].parameter
            seg_lo_closed = lo_closed if k == 0 else True
            seg_hi = hi if k == len(segments) - 1 else segment[-1].parameter
            seg_hi_closed = hi_closed if k == len(segments) - 1 else True
            intervals.append(
                _interval_from_segment(segment, seg_lo, seg_hi, seg_lo_closed, seg_hi_closed)
            )
        i = j + 1

    best = None
    for interval in intervals:
        for parameter, attained in ((interval.lo, interval.lo_closed), (interval.hi, interval.hi_closed)):
            premium = interval.premium(parameter)
            if best is None or premium > best[1] + 1e-15:
                best = (parameter, premium, attained)
    rep_parameter, rep_premium, rep_attained = best

    return RegionReport(
        intervals=tuple(intervals),
        max_profit=max(r.profit for r in rows),
        representative_parameter=rep_parameter,
        representative_premium=max(0.0, rep_premium),
        representative_attained=rep_attained,
    )
