"""Shared test fixtures data and independent oracles.

The oracles here deliberately avoid the library's own code paths: the
two-state oracle solves the 2x2 fixed point by Cramer's rule, and the
brute-force oracle rebuilds the policy linear system from raw arrays.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest

from cyins import contracts, solvers
from cyins.model import (
    LinearCoverage,
    MdpModel,
    ThresholdCoverage,
    ZeroCoverage,
    coverage_paid,
    decompose_value,
    validate_model,
)
from cyins.solvers import SolveResult, SolveTable

TWO_STATE_RAW = {
    "discount": 0.9,
    "states": [
        {"name": "S_G", "loss": 0.0},
        {"name": "S_B", "loss": 10.0},
    ],
    "actions": [
        {"name": "A_L", "cost": 0.0},
        {"name": "A_H", "cost": 1.0},
    ],
    "transitions": [
        [[0.5, 0.5], [0.5, 0.5]],
        [[0.8, 0.2], [0.6, 0.4]],
    ],
    "initial_state": "S_G",
}

FOUR_STATE_RAW = {
    "discount": 0.9,
    "states": [
        {"name": "S_G", "loss": 0.0},
        {"name": "S_B1", "loss": 4.0},
        {"name": "S_B2", "loss": 8.0},
        {"name": "S_B3", "loss": 16.0},
    ],
    "actions": [
        {"name": "A_0", "cost": 0.0},
        {"name": "A_L", "cost": 0.3},
        {"name": "A_H", "cost": 0.6},
    ],
    "transitions": [
        [[0.25, 0.25, 0.25, 0.25]] * 4,
        [[0.4, 0.3, 0.2, 0.1]] * 4,
        [
            [0.8, 0.2, 0.0, 0.0],
            [0.7, 0.2, 0.1, 0.0],
            [0.6, 0.2, 0.1, 0.1],
            [0.5, 0.2, 0.2, 0.1],
        ],
    ],
    "initial_state": "S_G",
}

# Action indices in the two-state fixture: weak protection first.
WEAK, STRONG = 0, 1


def cramer_pair_value(delta, p_good_row, p_bad_row, stage_good, stage_bad):
    """2x2 fixed-point solve by Cramer's rule (independent of the library)."""
    a11 = 1.0 - delta * p_good_row[0]
    a12 = -delta * p_good_row[1]
    a21 = -delta * p_bad_row[0]
    a22 = 1.0 - delta * p_bad_row[1]
    det = a11 * a22 - a12 * a21
    v_good = (stage_good * a22 - a12 * stage_bad) / det
    v_bad = (a11 * stage_bad - stage_good * a21) / det
    return v_good, v_bad


def two_state_policy_value(raw, action_good, action_bad, level=0.0):
    """Oracle value of a two-state policy under linear coverage ``level``."""
    delta = raw["discount"]
    losses = [s["loss"] for s in raw["states"]]
    costs = [a["cost"] for a in raw["actions"]]
    trans = raw["transitions"]
    stage_g = (1.0 - level) * losses[0] + costs[action_good]
    stage_b = (1.0 - level) * losses[1] + costs[action_bad]
    return cramer_pair_value(delta, trans[action_good][0], trans[action_bad][1], stage_g, stage_b)


def brute_force_optimal(model: MdpModel, coverage) -> tuple[tuple[int, ...], np.ndarray]:
    """Enumerate all policies with raw-array solves; minimize the initial-state value."""
    n, m = model.n_states, model.n_actions
    retained = np.array([s.loss - reimbursement(coverage, s.loss) for s in model.states])
    costs = model.costs
    best = None
    for assignment in itertools.product(range(m), repeat=n):
        p_pi = np.array([model.transitions[assignment[s], s] for s in range(n)])
        stage = retained + costs[list(assignment)]
        values = np.linalg.solve(np.eye(n) - model.discount * p_pi, stage)
        if best is None or values[model.initial_state] < best[1][model.initial_state]:
            best = (assignment, values)
    return best


def reimbursement(coverage, loss):
    """What ``coverage`` pays for one direct loss, from the coverage's definition."""
    if isinstance(coverage, ZeroCoverage):
        return 0.0
    if isinstance(coverage, LinearCoverage):
        return coverage.level * loss
    if isinstance(coverage, ThresholdCoverage):
        level = coverage.high_level if loss > coverage.cutoff else coverage.low_level
        return level * loss
    raise TypeError(coverage)


def random_model(rng, max_states=4, max_actions=3, d_lo=0.5, d_hi=0.99, min_states=1) -> MdpModel:
    """A random valid model in the sizes used by the cross-validation suite."""
    n = int(rng.integers(min_states, max_states + 1))
    m = int(rng.integers(1, max_actions + 1))
    raw = {
        "discount": float(rng.uniform(d_lo, d_hi)),
        "states": [
            {"name": f"s{i}", "loss": float(rng.uniform(0.0, 20.0))} for i in range(n)
        ],
        "actions": [
            {"name": f"a{j}", "cost": float(rng.uniform(0.0, 3.0))} for j in range(m)
        ],
        "transitions": _random_rows(rng, m, n),
        "initial_state": int(rng.integers(0, n)),
    }
    return validate_model(raw)


def _random_rows(rng, m, n):
    raw = rng.random((m, n, n)) + 0.05
    rows = raw / raw.sum(axis=2, keepdims=True)
    return rows.tolist()


def random_coverage(rng, model: MdpModel):
    kind = rng.integers(0, 3)
    if kind == 0:
        return ZeroCoverage()
    if kind == 1:
        return LinearCoverage(float(rng.uniform(0.0, 1.0)))
    max_loss = float(model.losses.max())
    low, high = sorted(rng.uniform(0.0, 1.0, size=2))
    return ThresholdCoverage(
        cutoff=float(rng.uniform(0.0, max(1.0, 1.2 * max_loss))),
        low_level=float(low),
        high_level=float(high),
    )


def random_two_state_raw(rng) -> dict:
    """A random valid two-state / two-action description (weak action first).

    Scales are kept moderate so closed-form vs numeric comparisons are
    meaningful at 1e-10 absolute tolerance.
    """
    delta = float(rng.uniform(0.5, 0.95))
    loss_good = float(rng.uniform(0.0, 3.0))
    loss_bad = loss_good + float(rng.uniform(0.5, 20.0))
    cost_weak = float(rng.uniform(0.0, 1.0))
    cost_strong = cost_weak + float(rng.uniform(0.05, 3.0))

    def stay_pair():
        lo = float(rng.uniform(0.02, 0.9))
        hi = lo + float(rng.uniform(0.02, 0.96 - lo)) if lo < 0.94 else lo + 0.02
        return lo, min(hi, 0.98)

    # Strong protection ends in the good state more often, from either state.
    weak_gg, strong_gg = stay_pair()
    weak_bg, strong_bg = stay_pair()
    return {
        "discount": delta,
        "states": [
            {"name": "good", "loss": loss_good},
            {"name": "bad", "loss": loss_bad},
        ],
        "actions": [
            {"name": "weak", "cost": cost_weak},
            {"name": "strong", "cost": cost_strong},
        ],
        "transitions": [
            [[weak_gg, 1.0 - weak_gg], [weak_bg, 1.0 - weak_bg]],
            [[strong_gg, 1.0 - strong_gg], [strong_bg, 1.0 - strong_bg]],
        ],
        "initial_state": "good",
    }


def _bisect_switch(model: MdpModel, coverage_at, inside, outside, policies: dict) -> float:
    """Bisect the parameter of ``coverage_at`` to within ``BISECTION_WIDTH`` of
    where the user leaves ``inside``'s policy toward ``outside``: the oracle
    of ``optimal_region``'s ends, by certified solves.

    ``policies`` maps each paid vector solved so far to its policy: steps
    often land on the same paid vector (a threshold cutoff between two state
    losses), so a caller that shares it solves each vector once.
    """
    lo, hi = inside.parameter, outside.parameter
    while abs(hi - lo) > solvers.BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        coverage = coverage_at(mid)
        key = coverage_paid(model, coverage).tobytes()
        if key not in policies:
            policies[key] = contracts.solve(model, coverage).policy
        if policies[key] == inside.policy:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def region_by_row_walk(model: MdpModel, rows) -> contracts.RegionReport:
    """``optimal_region`` as a walk over row objects: the oracle of its column walk.

    The rows are grouped by exact zero profit and each run by its premium
    line with ``itertools.groupby``.  A linear end decomposes the inside
    row's policy afresh for its streams; a threshold end is
    bisected by :func:`_bisect_switch`, which solves each paid vector the
    two rows do not carry once per walk.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("optimal_region needs at least one sweep row")
    if not any(row.profit == 0.0 for row in rows):
        raise ValueError("no zero-profit rows found")
    policies = {}

    def switch(inside, outside):
        coverage = inside.coverage
        if isinstance(coverage, LinearCoverage):
            streams = np.stack(decompose_value(model, inside.policy), axis=-1)
            return solvers._linear_switch(
                model, inside.parameter, outside.parameter, inside.policy.actions, streams
            )
        for row in (inside, outside):
            policies.setdefault(coverage_paid(model, row.coverage).tobytes(), row.policy)
        return _bisect_switch(
            model, lambda cutoff: replace(coverage, cutoff=cutoff), inside, outside, policies
        )

    def premium_line(row):
        if isinstance(row.coverage, LinearCoverage):
            return 0.0, row.direct_losses
        return row.max_premium, 0.0

    intervals = []
    end = 0
    for in_region, run in itertools.groupby(rows, key=lambda row: row.profit == 0.0):
        run = list(run)
        start, end = end, end + len(run)
        if not in_region:
            continue
        lo, lo_closed = run[0].parameter, True
        if start > 0:
            lo, lo_closed = switch(run[0], rows[start - 1]), False
        hi, hi_closed = run[-1].parameter, True
        if end < len(rows):
            hi, hi_closed = switch(run[-1], rows[end]), False
        segments = [(line, list(segment)) for line, segment in itertools.groupby(run, key=premium_line)]
        for k, (line, segment) in enumerate(segments):
            first, last = k == 0, k == len(segments) - 1
            intervals.append(
                contracts.RegionInterval(
                    lo=lo if first else segment[0].parameter,
                    hi=hi if last else segment[-1].parameter,
                    lo_closed=lo_closed or not first,
                    hi_closed=hi_closed or not last,
                    premium_intercept=line[0],
                    premium_slope=line[1],
                )
            )
    ends = [
        (interval.premium(parameter), parameter, attained)
        for interval in intervals
        for parameter, attained in ((interval.lo, interval.lo_closed), (interval.hi, interval.hi_closed))
    ]
    premium, parameter, attained = max(ends, key=lambda item: item[0])
    return contracts.RegionReport(
        intervals=tuple(intervals),
        max_profit=max(row.profit for row in rows),
        representative_parameter=parameter,
        representative_premium=max(0.0, premium),
        representative_attained=attained,
    )


def priced_problems(sweep, model, *args):
    """``sweep(model, *args)`` and the ``(table, index)`` of problems it was priced from."""
    tables = []
    price = contracts._price

    def capturing(model, coverage_at, parameters, solved, index):
        tables.append((solved, index))
        return price(model, coverage_at, parameters, solved, index)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(contracts, "_price", capturing)
        return sweep(model, *args), tables[0]


def results(table: SolveTable) -> list[SolveResult]:
    """Each problem of a solve table as a :class:`SolveResult`, in order."""
    return [table.result(k) for k in range(len(table.values))]


def per_iteration_value_iterations(
    model: MdpModel, paid: np.ndarray, tol: float = 1e-9, max_iter: int = 200_000
) -> SolveTable:
    """``solvers.solve_value_iterations`` one Bellman step at a time.

    The reference for the block loop: the same Bellman operator on the whole
    stack, one fresh array per step, with the stack's stopping rule tested
    after every ``solvers.BLOCK``-th step and at ``max_iter``, and the same
    finish, ``solvers._finish``, so any change in an iterate's arithmetic
    shows as a difference in its results.
    """
    delta = model.discount
    threshold = tol * (1.0 - delta) / (2.0 * delta) if delta > 0.0 else np.inf
    n, m = model.n_states, model.n_actions
    retained = model.losses - np.asarray(paid, dtype=float)
    problems = len(retained)
    stage = (model.costs[:, None, None] + retained.T[None]).reshape(m * n, problems)
    lookahead = delta * model.transitions.reshape(m * n, n)
    values = np.zeros((n, problems))
    for iteration in range(1, max_iter + 1):
        updated = np.minimum.reduce((stage + lookahead @ values).reshape(m, n, -1), axis=0)
        change = np.maximum.reduce(np.abs(updated - values), axis=0)
        values = updated
        if iteration % solvers.BLOCK == 0 and not (change > threshold).any():
            break
    return solvers._finish(model, retained, values.T, np.full(problems, iteration), change <= threshold)
