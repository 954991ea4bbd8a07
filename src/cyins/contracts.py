"""Insurer-side economics: contract sweeps and optimal regions.

The insurer announces a contract (premium + coverage function); the user
responds with his optimal protection policy.  The largest premium the user
accepts is the drop in his expected cumulative loss, and the insurer's
operating profit is that premium minus the expected cumulative coverage paid.
Because the insurer can never profit from a policy change he induces, his
best achievable profit is zero, attained exactly on the contracts that leave
the user's no-insurance policy unchanged.  ``optimal_region`` reads that
zero-profit set off a sweep's columns: a row on the baseline policy is priced
with the baseline's own arithmetic, so its profit is exactly zero.

A sweep is the one place premium, profit and coverage paid are computed;
a one-off quote is a one-row sweep (``sweep_linear(model, [level])`` or
``sweep_threshold(model, low, high, [cutoff])``), and the coverage paid is
``direct_losses + protection_cost - user_value``.

:func:`solve` is the one certified optimal response to a coverage: the
linear walk of :mod:`cyins.solvers` for no insurance and linear coverage,
value iteration for two-tier coverage.  The certificate is the exact Bellman
residual eps of the returned policy's values, ||V_pi - V*|| <= eps /
(1 - discount) (Puterman 1994, section 6), carried as ``certificate_bound``.
Both solvers give one :class:`~cyins.solvers.SolveTable` and certify
nothing: its two readers, :func:`solve` and a sweep's pricing, pass every
problem of it through one gate, :func:`_certify`, before reading a number.
A problem whose exact values are not all finite or whose bound exceeds
``CERT_TOL * (1 + ||V||)`` raises :class:`CertificateError`, so no
uncertified policy reaches a caller, a sweep row or a region end.

A sweep is a table, a :class:`Sweep`: its model and coverage family, the
grid's parameters, each row's problem, and per problem its policy and five
figures, each one array expression over the problems.  A linear sweep
walks its affine family, u = 0 and w = the losses; a threshold sweep
solves each distinct paid vector once by value iteration.  The family
gives :func:`optimal_region` each row's premium line and its ends against
a policy switch, with no solver call.  A :class:`ContractSweepRow` is a
view built on demand.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    _NOT_NUMBERS,
    Coverage,
    LinearCoverage,
    MdpModel,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    _check_tiers,
    _tiers,
    _tiers_paid,
    coverage_paid,
)
from .solvers import (
    SolveResult,
    SolveTable,
    _linear_switch,
    _solve_linear,
    _solve_many,
    _threshold_switch,
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
    """A priced contract sweep of ``model``: K rows over its D distinct problems, as columns.

    Row k prices ``coverage_at(parameters[k])``, the sweep's family at its
    parameter, and reads the numbers of problem ``problem_of[k]``.  Problem
    d is on the shared policy ``policies[policy_of[d]]``, and ``figures[d]``
    holds its user value, max premium, profit, direct losses and protection
    cost, the number fields of :class:`ContractSweepRow` in order.
    ``streams[p]`` (N, 2) holds policy p's direct-loss and protection-cost
    streams in every state, from which the family finds a region's ends.

    The sweep is a read-only sequence of rows: ``sweep[k]`` (negative ``k``
    too) and iteration build :class:`ContractSweepRow` views on demand, and
    a slice with a positive step is a sweep of the sliced rows.
    """

    model: MdpModel
    coverage_at: Callable[[float], Coverage]
    parameters: np.ndarray
    problem_of: np.ndarray
    policies: tuple[ProtectionPolicy, ...]
    policy_of: np.ndarray
    figures: np.ndarray
    streams: np.ndarray

    def __post_init__(self):
        for name in ("parameters", "problem_of", "policy_of", "figures", "streams"):
            column = np.asarray(getattr(self, name)).view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.parameters)

    def __getitem__(self, k):
        if isinstance(k, slice):
            # A reversed slice would descend, which no sweep builder accepts.
            if k.step is not None and k.step < 0:
                raise ValueError("sweep grid must be sorted ascending")
            return replace(self, parameters=self.parameters[k], problem_of=self.problem_of[k])
        # A bool is an index to operator.index, but not a row number.
        if isinstance(k, bool):
            raise TypeError(f"a sweep row index must be an integer, got {k!r}")
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
    belong to the region.  An open end is at a policy switch: a two-tier one
    is the float next to the region at which the user has already left the
    no-insurance policy.
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


class _Affine(NamedTuple):
    """A family retaining u + (1 - R) * w at parameter R, walked by :mod:`cyins.solvers`: called
    with R, it gives R's coverage.  On the baseline policy, R = 0's, a row's premium is R x its
    w stream (its direct losses), and a region ends at an affine gap's root."""

    coverage: Callable[[float], Coverage]
    u: np.ndarray
    w: np.ndarray

    def __call__(self, parameter: float) -> Coverage:
        return self.coverage(parameter)

    def premium_line(self, figures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(figures)), figures[:, 3]

    def end(self, model: MdpModel, start: float, stop: float, actions, streams) -> float:
        return _linear_switch(model, self, start, stop, actions, streams)


def _linear(model: MdpModel) -> _Affine:
    """Linear coverage, the affine family u = 0 and w = the losses."""
    return _Affine(LinearCoverage, np.zeros(model.n_states), model.losses)


class _TwoTier(NamedTuple):
    """Two-tier coverage at fixed tiers, by cutoff: a premium constant per class, exact ends."""

    low_level: float
    high_level: float

    def __call__(self, cutoff: float) -> ThresholdCoverage:
        return ThresholdCoverage(cutoff, self.low_level, self.high_level)

    def premium_line(self, figures: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return figures[:, 1], np.zeros(len(figures))

    def end(self, model: MdpModel, start: float, stop: float, actions, streams) -> float:
        return _threshold_switch(model, self(start), stop, actions)


def _certify(model: MdpModel, coverage_of: Callable[[int], Coverage], solved: SolveTable) -> None:
    """Raise :class:`CertificateError` for the first uncertified of the ``solved`` problems.

    A problem is certified when its values are finite and its bound is
    within ``CERT_TOL * (1 + ||V||)``; its ``converged`` and ``iterations``,
    and its coverage ``coverage_of(d)``, enter only the message.
    """
    values, bounds = solved.values, solved.certificate_bound
    # Relative, because the floating-point floor of the residual grows with ||V||.
    limits = CERT_TOL * (1.0 + np.abs(values).max(axis=1))
    certified = np.isfinite(values).all(axis=1) & (bounds <= limits)
    if not certified.all():
        d = int(certified.argmin())
        raise CertificateError(
            f"uncertified solve for {coverage_of(d)!r} at discount {model.discount}: "
            f"converged={bool(solved.converged[d])} after {solved.iterations[d]} "
            f"iterations, certificate bound {bounds[d]:.3g}, limit {limits[d]:.3g}"
        )


def solve(model: MdpModel, coverage: Coverage) -> SolveResult:
    """The user's certified optimal response to one coverage, by coverage family.

    No insurance and linear coverage are walked, two-tier coverage iterated.
    Raises :class:`CertificateError`, naming ``coverage``, unless every
    problem solved is certified: its values finite and its
    ``certificate_bound`` within the limit (see the module docstring).
    """
    if isinstance(coverage, ThresholdCoverage):
        solved, index = _solve_many(model, coverage_paid(model, coverage)[None], CERT_TOL)
    else:
        # The low tier is a linear level, and no insurance's zero.
        solved, index = _solve_linear(model, _linear(model), np.array([_tiers(coverage)[1]], float))
    _certify(model, lambda d: coverage, solved)
    # The coverage's problem is named last: a linear solve names the baseline first.
    return solved.result(index[-1])


def _price(
    model: MdpModel,
    coverage_at: Callable[[float], Coverage],
    parameters: np.ndarray,
    solved: SolveTable,
    index: np.ndarray,
) -> Sweep:
    """The certified, priced sweep of ``parameters``: ``index`` names the
    baseline's problem of ``solved``, then each row's.

    Every problem passes :func:`_certify` first, named by the first row that
    prices it, or ``ZeroCoverage()`` for a baseline no row shares.  Each
    figure is then one array expression over the distinct problems.
    """
    rows = index[1:]

    def named(d: int) -> Coverage:
        priced = rows == d
        return coverage_at(parameters[priced.argmax()].item()) if priced.any() else ZeroCoverage()

    _certify(model, named, solved)
    s0 = model.initial_state
    user, streams, policy_of = solved.values[:, s0], solved.streams[:, s0], solved.policy_of
    direct, cost = streams[policy_of].T
    baseline = index[0]
    # Rows share this arithmetic, so a row on the baseline policy reports a
    # profit of exactly zero.
    baseline_uninsured = sum(streams[policy_of[baseline]].tolist())
    premium = user[baseline] - user
    # max(0.0, x), which np.maximum is not on a -0.0.
    premium = np.where(premium > 0.0, premium, 0.0)
    profit = baseline_uninsured - (direct + cost)
    return Sweep(
        model,
        coverage_at,
        parameters,
        rows,
        tuple(ProtectionPolicy(actions) for actions in solved.policies.tolist()),
        policy_of,
        np.stack([user, premium, profit, direct, cost], axis=1),
        solved.streams,
    )


def default_linear_grid(points: int = LINEAR_GRID_POINTS) -> np.ndarray:
    return np.linspace(0.0, 1.0, points)


def default_threshold_grid(model: MdpModel, points: int = THRESHOLD_GRID_POINTS) -> np.ndarray:
    top = float(model.losses.max()) * THRESHOLD_GRID_MARGIN
    return np.linspace(0.0, top if top > 0.0 else 1.0, points)


def _grid(grid, what: str) -> np.ndarray:
    """A sweep grid of ``what`` values as a one-dimensional float array.

    A bool converts to 0 or 1 and a numeric string to its number, but
    neither is a number, so both are rejected.
    """
    if isinstance(grid, np.ndarray) and grid.dtype != object:
        kinds = {grid.dtype.type}
    else:
        grid = list(grid)
        kinds = set(map(type, grid))
    if not _NOT_NUMBERS.isdisjoint(kinds):
        found = next((g for g in grid if type(g) in _NOT_NUMBERS), grid)
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
    family = _linear(model)
    return _price(model, family, levels, *_solve_linear(model, family, levels))


def sweep_threshold(
    model: MdpModel,
    low_level: float,
    high_level: float,
    grid: Sequence[float] | None = None,
) -> Sweep:
    """Evaluate two-tier coverage contracts over a grid of loss cutoffs.

    The tiers follow :class:`~cyins.model.ThresholdCoverage`'s rule: each
    level in [0, 1], in either order.
    """
    _check_tiers(low_level, high_level)
    # Any real level passes, a Fraction too, and the paid vectors are floats.
    low_level, high_level = float(low_level), float(high_level)
    cutoffs = _grid(default_threshold_grid(model) if grid is None else grid, "cutoff")
    valid = np.isfinite(cutoffs) & (cutoffs >= 0.0)
    if not valid.all():
        bad = cutoffs[valid.argmin()].item()
        raise ValueError(f"cutoff must be finite and non-negative, got {bad}")
    _check_ascending(cutoffs)
    # The baseline first: no cutoff, so it pays its zero low tier everywhere.
    column = np.append(np.inf, cutoffs)[:, None]
    paid = _tiers_paid(model, column, np.where(column < np.inf, low_level, 0.0), high_level)
    return _price(model, _TwoTier(low_level, high_level), cutoffs, *_solve_many(model, paid, CERT_TOL))


def optimal_region(sweep: Sweep) -> RegionReport:
    """Extract the zero-profit parameter set from a sweep.

    A row belongs to the region when its profit is exactly zero: the rows of
    a sweep on the baseline policy share its arithmetic.  The sweep's family
    gives each row's premium line and an end against a policy switch, which
    is open, with no solver call; an end at the grid edge stays closed.  One
    pass over the maximal runs of rows with the same membership and premium
    line makes each interval, so a threshold staircase splits at its steps.
    No row object is built.
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
    parameters, family = sweep.parameters.tolist(), sweep.coverage_at
    intercept, slope = family.premium_line(figures)

    def end(inside: int, outside: int) -> float:
        policy = sweep.policy_of[sweep.problem_of[inside]]
        actions, streams = np.array(sweep.policies[policy].actions), sweep.streams[policy]
        return family.end(sweep.model, parameters[inside], parameters[outside], actions, streams)

    # A run ends where membership or the premium line changes; only a run's
    # end against a row outside the region is a policy switch.
    changes = np.any([column[1:] != column[:-1] for column in (in_region, intercept, slope)], axis=0)
    runs = [0, *(np.flatnonzero(changes) + 1).tolist(), count]
    intervals: list[RegionInterval] = []
    for start, stop in zip(runs, runs[1:]):
        if not in_region[start]:
            continue
        lo, lo_closed = parameters[start], True
        if start > 0 and not in_region[start - 1]:
            lo, lo_closed = end(start, start - 1), False
        hi, hi_closed = parameters[stop - 1], True
        if stop < count and not in_region[stop]:
            hi, hi_closed = end(stop - 1, stop), False
        intervals.append(
            RegionInterval(lo, hi, lo_closed, hi_closed, intercept[start].item(), slope[start].item())
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
