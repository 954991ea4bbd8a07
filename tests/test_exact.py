"""Certified problems checked against the exact oracle (``exact.py``).

Every distinct problem a sweep prices is proved optimal in rational
arithmetic: no exact gap of its policy is negative.  Its float values lie
within its certificate bound of the exact ones, plus the rounding floor of
a float evaluation, eps * ||V|| / (1 - discount): the bound is itself
computed in floats and is often exactly 0.
"""

from fractions import Fraction

import numpy as np
import pytest

from cyins import contracts
from cyins.harness import STUDIES, bundled_model
from cyins.model import ZeroCoverage

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
