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

Every solve in this module is value iteration certified by the exact Bellman
residual eps of the returned policy's values: ||V_pi - V*|| <= eps / (1 -
discount) (Puterman 1994, section 6).  A solve that did not converge or whose
bound exceeds ``CERT_TOL * (1 + ||V||)`` raises :class:`CertificateError`, so
no uncertified policy reaches a sweep row or a switch refinement.  The other
solvers stay in :mod:`cyins.solvers` as test oracles.
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
    decompose_value,
)
from .solvers import SolveResult, solve_value_iteration

__all__ = [
    "CertificateError",
    "ContractSweepRow",
    "RegionInterval",
    "RegionReport",
    "make_linear_refiner",
    "make_threshold_refiner",
    "optimal_region",
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


def _certificate_bound(model: MdpModel, solved: SolveResult) -> float:
    """Bound eps / (1 - discount) on the sup-norm error of ``solved.values``."""
    return solved.residual / (1.0 - model.discount)


def _solve(model: MdpModel, coverage: Coverage) -> SolveResult:
    """Certified optimal response to ``coverage`` (see the module docstring)."""
    solved = solve_value_iteration(model, coverage, tol=CERT_TOL)
    bound = _certificate_bound(model, solved)
    # Relative, because the floating-point floor of the residual grows with ||V||.
    limit = CERT_TOL * (1.0 + float(np.abs(solved.values).max()))
    if not solved.converged or not bound <= limit:
        raise CertificateError(
            f"uncertified solve for {coverage!r} at discount {model.discount}: "
            f"converged={solved.converged} after {solved.iterations} iterations, "
            f"certificate bound {bound:.3g}, limit {limit:.3g}"
        )
    return solved


def _run_sweep(
    model: MdpModel,
    parameters: Sequence[float],
    coverage_at: Callable[[float], Coverage],
) -> list[ContractSweepRow]:
    s0 = model.initial_state
    baseline = _solve(model, ZeroCoverage())

    def uninsured_parts(policy: ProtectionPolicy) -> tuple[float, float]:
        direct, cost = decompose_value(model, policy)
        return float(direct[s0]), float(cost[s0])

    # Rows share this arithmetic, so a row on the baseline policy reports a
    # profit of exactly zero.
    baseline_uninsured = sum(uninsured_parts(baseline.policy))
    rows = []
    for parameter in parameters:
        solved = _solve(model, coverage_at(parameter))
        direct, cost = uninsured_parts(solved.policy)
        rows.append(
            ContractSweepRow(
                parameter=float(parameter),
                policy=solved.policy,
                user_value=float(solved.values[s0]),
                max_premium=max(0.0, float(baseline.values[s0] - solved.values[s0])),
                profit=baseline_uninsured - (direct + cost),
                direct_losses=direct,
                protection_cost=cost,
            )
        )
    return rows


def default_linear_grid(points: int = LINEAR_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def default_threshold_grid(model: MdpModel, points: int = THRESHOLD_GRID_POINTS) -> np.ndarray:
    top = float(model.losses.max()) * THRESHOLD_GRID_MARGIN
    return np.linspace(0.0, top if top > 0.0 else 1.0, points)


def _linear_coverage(level: float) -> Coverage:
    """The linear contract at ``level``; level 0 is no insurance."""
    return ZeroCoverage() if level == 0.0 else LinearCoverage(level)


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
    return _run_sweep(model, grid, _linear_coverage)


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


def make_linear_refiner(model: MdpModel) -> Callable[[float, float], float]:
    """Bisection refiner for policy-switch levels along a linear sweep.

    The returned callable takes a bracket (inside, outside) where the induced
    policy at ``inside`` differs from the policy at ``outside``, and narrows
    the switch point to within BISECTION_WIDTH.
    """
    return _policy_switch_refiner(model, _linear_coverage)


def make_threshold_refiner(
    model: MdpModel, low_level: float, high_level: float
) -> Callable[[float, float], float]:
    """Bisection refiner for policy-switch cutoffs along a threshold sweep."""
    return _policy_switch_refiner(model, _threshold_coverage(low_level, high_level))


def _policy_switch_refiner(model: MdpModel, coverage_at: Callable[[float], Coverage]):
    def policy_at(parameter: float) -> ProtectionPolicy:
        return _solve(model, coverage_at(parameter)).policy

    def refine(inside: float, outside: float) -> float:
        reference = policy_at(inside)
        lo, hi = inside, outside
        while abs(hi - lo) > BISECTION_WIDTH:
            mid = 0.5 * (lo + hi)
            if policy_at(mid) == reference:
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
    refine: Callable[[float, float], float] | None = None,
) -> RegionReport:
    """Extract the zero-profit parameter set from a sweep.

    A row belongs to the region when its profit is zero within
    PROFIT_ZERO_TOL.  Region boundaries that sit against a policy switch are
    narrowed by the supplied ``refine`` bisection callable (see
    ``make_linear_refiner`` / ``make_threshold_refiner``) and reported as
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
            lo, lo_closed = refine(run[0].parameter, rows[i - 1].parameter), False
        hi, hi_closed = run[-1].parameter, True
        if j + 1 < len(rows) and refine is not None:
            hi, hi_closed = refine(run[-1].parameter, rows[j + 1].parameter), False

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
