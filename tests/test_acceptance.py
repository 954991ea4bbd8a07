"""Acceptance suite: every exit criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Tolerances are fixed here, not tuned.
"""

import filecmp
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cyins import contracts, harness, montecarlo
from cyins.analytic import (
    TwoStateModel,
    action_value_gap,
    classify_case,
    identity_residuals,
    closed_form_policy,
    closed_form_value,
    loss_coefficient,
    transition_shift,
)
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ZeroCoverage,
    decompose_value,
    evaluate_policy,
    validate_model,
)
from cyins.solvers import (
    build_lp,
    policy_from_values,
    solve_lp_dual,
    solve_policy_enumeration,
    solve_value_iteration,
)

from helpers import random_coverage, random_model, random_two_state_raw

GOOD, BAD = 0, 1
WEAK, STRONG = 0, 1

EXACT_SWITCH_BAD = 1.0 - 0.82 / 0.9
EXACT_PREMIUM_RATE = 1.8 / 0.082


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number} PASS: {description}")


def test_criterion_1_reference_golden_numbers(two_state_analytic):
    with criterion(1, "two-state golden numbers (shift, gaps, case, switch level, rate)"):
        ts = two_state_analytic
        assert transition_shift(ts) == pytest.approx(-0.20, abs=1e-12)
        assert action_value_gap(ts, GOOD, STRONG, 0.0) == pytest.approx(-1.88, abs=1e-9)
        assert action_value_gap(ts, GOOD, WEAK, 0.0) == pytest.approx(-1.70, abs=1e-9)
        assert action_value_gap(ts, BAD, STRONG, 0.0) == pytest.approx(-0.08, abs=1e-9)
        assert action_value_gap(ts, BAD, WEAK, 0.0) == pytest.approx(0.10, abs=1e-9)
        classification = classify_case(ts)
        assert classification.case_id == "Case4a"
        switch = classification.thresholds["R_B"]
        assert switch == pytest.approx(0.0889, abs=1e-3)
        assert switch == pytest.approx(EXACT_SWITCH_BAD, abs=1e-9)
        rate = loss_coefficient(ts, GOOD, STRONG, STRONG)
        assert rate == pytest.approx(21.9512, abs=1e-3)
        assert rate == pytest.approx(EXACT_PREMIUM_RATE, abs=1e-6)


def test_criterion_2_optimal_contract_reproduction(two_state):
    with criterion(2, "zero-profit region, linear premium line, profit at full coverage"):
        rows = contracts.sweep_linear(two_state)
        region = contracts.optimal_region(rows)
        assert len(region.intervals) == 1
        interval = region.intervals[0]
        assert interval.lo == 0.0
        assert interval.hi == pytest.approx(EXACT_SWITCH_BAD, abs=1e-3)
        in_region = [r for r in rows if abs(r.profit) <= 1e-7]
        worst = max(
            abs(r.max_premium - r.parameter * EXACT_PREMIUM_RATE) for r in in_region
        )
        assert worst <= 1e-6
        assert abs(region.max_profit) <= 1e-7
        full = [r for r in rows if r.parameter == 1.0]
        assert full and full[0].profit == pytest.approx(-13.0488, abs=1e-3)


def test_criterion_3_solver_cross_validation():
    with criterion(3, "value iteration, LP dual and enumeration agree on 200 random models"):
        rng = np.random.default_rng(31415)
        for _ in range(200):
            model = random_model(rng, max_states=4, max_actions=3, d_lo=0.5, d_hi=0.99)
            coverage = random_coverage(rng, model)
            vi = solve_value_iteration(model, coverage, tol=1e-9)
            enum = solve_policy_enumeration(model, coverage)
            duals = solve_lp_dual(build_lp(model, coverage))
            assert np.abs(vi.values - enum.values).max() <= 1e-6
            assert np.abs(vi.values - duals).max() <= 1e-6
            if vi.policy != enum.policy:
                assert np.abs(vi.values - enum.values).max() <= 1e-7
            lp_policy = policy_from_values(model, coverage, duals)
            if lp_policy != vi.policy:
                lp_values = evaluate_policy(model, lp_policy, coverage)
                assert np.abs(lp_values - vi.values).max() <= 1e-7


def test_criterion_4_analytic_numeric_equivalence():
    with criterion(4, "closed forms match the numeric engine on 100 random two-state models"):
        rng = np.random.default_rng(27182)
        for _ in range(100):
            model = validate_model(random_two_state_raw(rng))
            ts = TwoStateModel.from_model(model)
            thresholds = list(classify_case(ts).thresholds.values()) or [np.inf]
            for level in np.linspace(0.0, 1.0, 11):
                level = float(level)
                coverage = LinearCoverage(level) if level else ZeroCoverage()
                for action_good in (WEAK, STRONG):
                    for action_bad in (WEAK, STRONG):
                        exact = evaluate_policy(
                            model, ProtectionPolicy((action_good, action_bad)), coverage
                        )
                        closed = closed_form_value(ts, GOOD, action_good, action_bad, level)
                        assert abs(closed - exact[GOOD]) <= 1e-10
                assert identity_residuals(ts, level).max_abs <= 1e-10
                if min(abs(level - t) for t in thresholds) > 1e-6:
                    numeric = solve_value_iteration(model, coverage, tol=1e-10)
                    analytic_policy = closed_form_policy(ts, level)
                    if analytic_policy != numeric.policy:
                        values = evaluate_policy(model, analytic_policy, coverage)
                        assert np.abs(values - numeric.values).max() <= 1e-7


def test_criterion_5_four_state_linear_behavior(four_state):
    with criterion(5, "four-state linear sweep: weaker protection, affine premium, zero max profit"):
        rows = contracts.sweep_linear(four_state)  # 201-point default grid
        assert len(rows) == 201
        n = four_state.n_states
        costs = four_state.costs
        for s in range(n):
            per_state = [costs[r.policy.actions[s]] for r in rows]
            assert all(b <= a + 1e-12 for a, b in zip(per_state, per_state[1:]))
        by_policy: dict[tuple, list] = {}
        for row in rows:
            by_policy.setdefault(row.policy.actions, []).append(row)
        for group in by_policy.values():
            for a, b, c in zip(group, group[1:], group[2:]):
                span = c.parameter - a.parameter
                t = (b.parameter - a.parameter) / span
                interpolated = (1.0 - t) * a.max_premium + t * c.max_premium
                assert abs(interpolated - b.max_premium) <= 1e-7
        assert abs(max(r.profit for r in rows)) <= 1e-7


def test_criterion_6_four_state_threshold_behavior(four_state):
    with criterion(6, "four-state threshold sweep: staircase premium, inert above max loss"):
        rows = contracts.sweep_threshold(four_state, 0.0, 0.9)  # 401-point default grid
        assert len(rows) == 401
        for earlier, later in zip(rows, rows[1:]):
            assert later.max_premium <= earlier.max_premium + 1e-9
        beyond = [r for r in rows if r.parameter > 16.0]
        assert beyond
        for row in beyond:
            assert row.max_premium == pytest.approx(0.0, abs=1e-12)
            assert row.profit == pytest.approx(0.0, abs=1e-12)
        assert abs(max(r.profit for r in rows)) <= 1e-7


def test_criterion_7_peltzman_effect(two_state, two_state_analytic):
    with criterion(7, "insurance strictly raises direct losses once the policy weakens"):
        baseline = solve_value_iteration(two_state, ZeroCoverage()).policy
        direct_base, _ = decompose_value(two_state, baseline)
        for level in (0.1, 0.5, 1.0):
            solved = solve_value_iteration(two_state, LinearCoverage(level))
            assert solved.policy == closed_form_policy(two_state_analytic, level)
            direct, _ = decompose_value(two_state, solved.policy)
            assert direct[GOOD] > direct_base[GOOD] + 1e-6


def test_criterion_8_monte_carlo_consistency(two_state, four_state):
    with criterion(8, "simulation lands within 3 standard errors in >= 18 of 20 seeds"):
        scenarios = []
        pi_hh = ProtectionPolicy((STRONG, STRONG))
        scenarios.append((two_state, pi_hh, ZeroCoverage()))
        solved = solve_value_iteration(four_state, LinearCoverage(0.5))
        scenarios.append((four_state, solved.policy, LinearCoverage(0.5)))
        for model, policy, coverage in scenarios:
            exact = evaluate_policy(model, policy, coverage)[model.initial_state]
            hits = 0
            for seed in range(20):
                config = montecarlo.config_for(model, samples=100_000, seed=seed)
                mean, stderr = montecarlo.simulate_value(model, policy, coverage, config)
                if abs(mean - exact) <= 3.0 * stderr + config.truncation_tol:
                    hits += 1
            assert hits >= 18


# The recorded study outputs: each CSV's sha256 and each summary's values.
STUDY_OUTPUTS = json.loads((Path(__file__).parent / "study_outputs.json").read_text())
SUMMARY_REL = 1e-12


def _summary_mismatches(observed, expected, path):
    """Keys, strings, flags and nulls exactly; numbers within SUMMARY_REL relative."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict) or observed.keys() != expected.keys():
            yield path, "keys differ"
            return
        for key, value in expected.items():
            yield from _summary_mismatches(observed[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            yield path, "list length differs"
            return
        for i, (o, e) in enumerate(zip(observed, expected)):
            yield from _summary_mismatches(o, e, f"{path}[{i}]")
    elif isinstance(expected, (bool, str)) or expected is None:
        if type(observed) is not type(expected) or observed != expected:
            yield path, f"{observed!r} != {expected!r}"
    elif isinstance(observed, bool) or not isinstance(observed, (int, float)) or not (
        abs(observed - expected) <= SUMMARY_REL * abs(expected)
    ):
        yield path, f"{observed!r} != {expected!r}"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical study outputs, equal to the recorded ones"):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        for study in ("fig3", "fig4", "fig5"):
            harness.reproduce(study, first)
            harness.reproduce(study, second)
            for suffix in (".csv", "_summary.json"):
                name = f"{study}{suffix}"
                assert filecmp.cmp(first / name, second / name, shallow=False), name
            recorded = STUDY_OUTPUTS[study]
            csv = (first / f"{study}.csv").read_bytes()
            assert hashlib.sha256(csv).hexdigest() == recorded["csv_sha256"], study
            summary = json.loads((first / f"{study}_summary.json").read_text())
            assert list(_summary_mismatches(summary, recorded["summary"], study)) == []
