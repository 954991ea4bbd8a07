"""Certified problems checked against the exact oracle (``exact.py``).

Every distinct problem a sweep prices is proved optimal in rational
arithmetic: no exact gap of its policy is negative.  Its float values lie
within its certificate bound of the exact ones, plus the rounding floor of
a float evaluation, eps * ||V|| / (1 - discount): the bound is itself
computed in floats and is often exactly 0.

An open linear region end lies near the exact level where its policy stops
being optimal, and where two actions tie exactly every solver takes the
cheaper, then the lower index.
"""

from fractions import Fraction

import numpy as np
import pytest

from cyins import contracts
from cyins.harness import STUDIES, bundled_model
from cyins.model import LinearCoverage, ThresholdCoverage, ZeroCoverage, validate_model
from cyins.solvers import solve_policy_enumeration

import exact
from helpers import priced_problems, random_model

EPS = np.finfo(float).eps


def assert_exactly_optimal(model, sweep, problems):
    """Check each distinct problem of ``sweep`` against the exact oracle; return their count."""
    solved, index = problems
    # Each problem's coverage: the baseline's first, then the rows' in order.
    coverages = {index[0]: ZeroCoverage()}
    for k, d in enumerate(index[1:].tolist()):
        coverages.setdefault(d, sweep.coverage_at(sweep.parameters[k].item()))
    for d, coverage in coverages.items():
        actions = solved.policies[solved.policy_of[d]].tolist()
        values, gaps = exact.gaps(model, actions, exact.retained_losses(model, coverage))
        assert min(gaps.ravel()) >= 0, coverage
        floats = solved.values[d]
        slack = solved.certificate_bound[d] + EPS * np.abs(floats).max() / (1.0 - model.discount)
        error = max(abs(Fraction(v) - e) for v, e in zip(floats.tolist(), values))
        assert error <= slack, coverage
    return len(coverages)


@pytest.mark.parametrize("study, problems", [("fig3", 201), ("fig4", 201), ("fig5", 4)])
def test_study_problems_are_exactly_optimal(study, problems):
    spec = STUDIES[study]
    model = bundled_model(spec.model)
    sweep = priced_problems(spec.sweep, model)
    assert assert_exactly_optimal(model, *sweep) == problems


@pytest.mark.parametrize("seed", range(10))
def test_random_problems_are_exactly_optimal(seed):
    # Discounts up to 0.9999 for linear coverage; two-tier coverage stops
    # at 0.999, because there value iteration runs to max_iter (about 0.8 s
    # a sweep).
    discount = (0.5, 0.9, 0.99, 0.999, 0.9999)[seed % 5]
    rng = np.random.default_rng(seed)
    model = random_model(rng, max_states=6, max_actions=3, d_lo=discount, d_hi=discount)
    levels = np.sort(np.append(rng.uniform(0.0, 1.0, 3), [0.0, 1.0]))
    sweep = priced_problems(contracts.sweep_linear, model, levels)
    assert_exactly_optimal(model, *sweep)
    if discount < 0.9999:
        low, high = np.sort(rng.uniform(0.0, 1.0, 2)).tolist()
        cutoffs = np.linspace(0.0, float(model.losses.max()), 4)
        sweep = priced_problems(contracts.sweep_threshold, model, low, high, cutoffs)
        assert_exactly_optimal(model, *sweep)


def assert_open_linear_ends_are_exact(model, sweep):
    """Check each open end of a linear sweep's region against the exact
    switch level of its inside row's policy; return their count.

    An end is the root of a gap line computed from the float streams of
    that policy, which lie within eps * ||stream|| / (1 - discount) of the
    exact ones.  Carried through the root 1 + B / A, that floor bounds the
    end's error by eps * (||C|| + (1 - R) * ||D||) / ((1 - discount) * |A|),
    for the exact level R and the exact slope A of its gap; 4 ulps of R
    when that is smaller.
    """
    report = contracts.optimal_region(sweep)
    inside = sweep.figures[sweep.problem_of, 2] == 0.0
    parameters = sweep.parameters.tolist()
    # Each end's (inside row, outside row), in parameter order.
    changes = np.flatnonzero(inside[1:] != inside[:-1]).tolist()
    brackets = [(k, k + 1) if inside[k] else (k + 1, k) for k in changes]
    ends = sorted(
        end
        for interval in report.intervals
        for end, closed in ((interval.lo, interval.lo_closed), (interval.hi, interval.hi_closed))
        if not closed
    )
    assert len(ends) == len(brackets)
    for (k, outside), end in zip(brackets, ends):
        actions = sweep.policies[sweep.policy_of[sweep.problem_of[k]]].actions
        slope, offset, direct, cost = exact.linear_lines(model, actions)
        at = Fraction(parameters[k])
        assert min(((1 - at) * slope + offset).ravel()) >= 0
        level, a = exact.linear_switch((slope, offset), parameters[k], parameters[outside])
        ulps = 4 * Fraction(np.spacing(float(level)))
        floor = 0
        if a is not None:
            scale = max(map(abs, cost)) + (1 - level) * max(map(abs, direct))
            floor = EPS * scale / ((1 - Fraction(model.discount)) * abs(a))
        assert abs(Fraction(end) - level) <= max(ulps, floor), (end, float(level))
    return len(ends)


@pytest.mark.parametrize("study", ["fig3", "fig4"])
def test_study_linear_ends_lie_at_the_exact_switch_levels(study):
    spec = STUDIES[study]
    model = bundled_model(spec.model)
    assert assert_open_linear_ends_are_exact(model, spec.sweep(model)) == 1


def test_random_linear_ends_lie_at_the_exact_switch_levels():
    # About two in five of these models leave the uninsured policy inside
    # [0, 1], so their region has an open end.
    ends = 0
    for seed in range(30):
        discount = (0.5, 0.9, 0.99, 0.999, 0.9999)[seed % 5]
        rng = np.random.default_rng(seed)
        model = random_model(rng, max_states=6, max_actions=3, d_lo=discount, d_hi=discount)
        ends += assert_open_linear_ends_are_exact(model, contracts.sweep_linear(model))
    assert ends >= 10


def test_an_exact_tie_goes_to_the_cheaper_action_then_the_lower_index():
    # Dyadic data are exact in binary.  At discount 1/2 and linear level 1/2
    # the good state G is worth 0 and the absorbing bad states C and D 16
    # each.  In state B, which retains 4, guarding (to G, cost 8) is worth
    # 4 + 8 + 0 / 2 and drifting to C or to D (cost 0) 4 + 0 + 16 / 2: a
    # three-way tie at exactly 12, which the cheaper drifts win, and of
    # those the lower index, drifting to C.
    model = validate_model(
        {
            "discount": 0.5,
            "states": [
                {"name": "G", "loss": 0.0},
                {"name": "B", "loss": 8.0},
                {"name": "C", "loss": 16.0},
                {"name": "D", "loss": 16.0},
            ],
            "actions": [
                {"name": "guard", "cost": 8.0},
                {"name": "drift_c", "cost": 0.0},
                {"name": "drift_d", "cost": 0.0},
            ],
            "transitions": [
                [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 1]],
            ],
        }
    )
    coverage = LinearCoverage(0.5)
    drift_c = (1, 1, 1, 1)
    values, gaps = exact.gaps(model, drift_c, exact.retained_losses(model, coverage))
    assert values == [0, 12, 16, 16]
    assert min(gaps.ravel()) == 0
    assert gaps[1].tolist() == [0, 0, 0]
    # The same paid vector as two-tier coverage, which value iteration solves.
    two_tier = ThresholdCoverage(cutoff=0.0, low_level=0.5, high_level=0.5)
    for result in (
        contracts.solve(model, coverage),
        contracts.solve(model, two_tier),
        solve_policy_enumeration(model, coverage),
    ):
        assert result.policy.actions == drift_c
