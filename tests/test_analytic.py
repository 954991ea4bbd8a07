import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyins.analytic import (
    TwoStateModel,
    action_value_gap,
    classify_case,
    closed_form_policy,
    closed_form_value,
    cost_coefficient,
    loss_coefficient,
    optimal_contract,
    peltzman_regions,
    transition_determinant,
    transition_shift,
)
from cyins.model import (
    LinearCoverage,
    ProtectionPolicy,
    ZeroCoverage,
    evaluate_policy,
    validate_model,
)

from helpers import TWO_STATE_RAW, random_two_state_raw
from oracles import decompose_value, identity_residuals, policy_from_values, solve_value_iteration

GOOD, BAD = 0, 1
WEAK, STRONG = 0, 1

EXACT_SWITCH_BAD = 1.0 - 0.82 / 0.9      # root of the bad-state gap at zero coverage
EXACT_SWITCH_GOOD = 1.0 - 1.0 / 2.7      # root of the good-state gap once the bad state is weak
EXACT_PREMIUM_RATE = 1.8 / 0.082


def _two_state(raw) -> TwoStateModel:
    return TwoStateModel.from_model(validate_model(raw))


# ------------------------------------------------------------- golden values

def test_transition_determinant_reference(two_state_analytic):
    ts = two_state_analytic
    assert transition_determinant(ts, STRONG, STRONG) == pytest.approx(0.082, abs=1e-12)
    assert transition_determinant(ts, WEAK, WEAK) == pytest.approx(0.1, abs=1e-12)


def test_transition_determinant_no_discount():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.0
    ts = _two_state(raw)
    assert transition_determinant(ts, STRONG, WEAK) == 1.0


def test_gap_values_reference(two_state_analytic):
    ts = two_state_analytic
    assert action_value_gap(ts, GOOD, STRONG, 0.0) == pytest.approx(-1.88, abs=1e-9)
    assert action_value_gap(ts, GOOD, WEAK, 0.0) == pytest.approx(-1.70, abs=1e-9)
    assert action_value_gap(ts, BAD, STRONG, 0.0) == pytest.approx(-0.08, abs=1e-9)
    assert action_value_gap(ts, BAD, WEAK, 0.0) == pytest.approx(0.10, abs=1e-9)


def test_gap_positive_at_full_coverage(two_state_analytic):
    ts = two_state_analytic
    for state in (GOOD, BAD):
        for other in (WEAK, STRONG):
            assert action_value_gap(ts, state, other, 1.0) > 0.0


def test_gap_slope_positive(two_state_analytic):
    ts = two_state_analytic
    for state in (GOOD, BAD):
        for other in (WEAK, STRONG):
            lo = action_value_gap(ts, state, other, 0.2)
            hi = action_value_gap(ts, state, other, 0.8)
            assert hi > lo


def test_transition_shift_reference(two_state_analytic):
    assert transition_shift(two_state_analytic) == pytest.approx(-0.20, abs=1e-12)


def test_transition_shift_constructions():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["transitions"][1][1] = [0.9, 0.1]  # strong from bad now reaches good at 0.9
    assert transition_shift(_two_state(raw)) == pytest.approx(0.10, abs=1e-12)

    symmetric = copy.deepcopy(TWO_STATE_RAW)
    symmetric["transitions"][1] = [[0.8, 0.2], [0.5, 0.5]]  # strong shifts both by +0.3/-0.3
    symmetric["transitions"][0] = [[0.5, 0.5], [0.2, 0.8]]
    assert transition_shift(_two_state(symmetric)) == pytest.approx(0.0, abs=1e-12)


def test_coefficients_reference(two_state_analytic):
    ts = two_state_analytic
    assert loss_coefficient(ts, GOOD, STRONG, STRONG) == pytest.approx(21.9512, abs=1e-3)
    assert loss_coefficient(ts, GOOD, STRONG, STRONG) == pytest.approx(
        EXACT_PREMIUM_RATE, abs=1e-6
    )
    assert cost_coefficient(ts, GOOD, STRONG, STRONG) == pytest.approx(10.0, abs=1e-9)
    assert loss_coefficient(ts, GOOD, WEAK, WEAK) == pytest.approx(45.0, abs=1e-9)
    assert cost_coefficient(ts, GOOD, WEAK, WEAK) == 0.0


def test_zero_losses_zero_loss_coefficient():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][0]["loss"] = 0.0
    raw["states"][1]["loss"] = 0.0
    # equal losses are rejected; check via the formula on a near-degenerate model
    raw["states"][1]["loss"] = 1e-12
    ts = _two_state(raw)
    assert abs(loss_coefficient(ts, GOOD, STRONG, STRONG)) <= 1e-10


def test_closed_form_value_reference(two_state_analytic, two_state):
    ts = two_state_analytic
    value = closed_form_value(ts, GOOD, STRONG, STRONG, 0.0)
    assert value == pytest.approx(31.9512, abs=1e-3)
    exact = evaluate_policy(two_state, ProtectionPolicy((STRONG, STRONG)), ZeroCoverage())
    assert value == pytest.approx(exact[GOOD], abs=1e-10)
    assert closed_form_value(ts, GOOD, WEAK, WEAK, 0.0) == pytest.approx(45.0, abs=1e-9)
    # at full coverage only the cost stream remains
    assert closed_form_value(ts, GOOD, STRONG, STRONG, 1.0) == pytest.approx(
        cost_coefficient(ts, GOOD, STRONG, STRONG), abs=1e-12
    )


# ------------------------------------------------------------ classification

def test_classification_reference(two_state_analytic):
    classification = classify_case(two_state_analytic)
    assert classification.case_id == "Case4a"
    assert classification.rho == pytest.approx(-0.2, abs=1e-12)
    assert classification.thresholds["R_B"] == pytest.approx(0.0889, abs=1e-3)
    assert classification.thresholds["R_B"] == pytest.approx(EXACT_SWITCH_BAD, abs=1e-9)
    assert classification.thresholds["R_G"] == pytest.approx(EXACT_SWITCH_GOOD, abs=1e-9)
    policies = [seg.policy.actions for seg in classification.segments]
    assert policies == [(STRONG, STRONG), (STRONG, WEAK), (WEAK, WEAK)]
    assert classification.segments[0].lo == 0.0
    assert classification.segments[-1].hi == 1.0


def test_classification_case1_when_strong_is_overpriced():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["actions"][1]["cost"] = 100.0
    classification = classify_case(_two_state(raw))
    assert classification.case_id == "Case1"
    assert classification.thresholds == {}
    assert [seg.policy.actions for seg in classification.segments] == [(WEAK, WEAK)]


CASE2_RAW = {
    "discount": 0.9,
    "states": [{"name": "good", "loss": 0.0}, {"name": "bad", "loss": 10.0}],
    "actions": [{"name": "weak", "cost": 0.0}, {"name": "strong", "cost": 1.0}],
    "transitions": [
        [[0.4, 0.6], [0.5, 0.5]],
        [[0.9, 0.1], [0.55, 0.45]],
    ],
    "initial_state": "good",
}

CASE3_RAW = {
    "discount": 0.9,
    "states": [{"name": "good", "loss": 0.0}, {"name": "bad", "loss": 10.0}],
    "actions": [{"name": "weak", "cost": 0.0}, {"name": "strong", "cost": 1.0}],
    "transitions": [
        [[0.5, 0.5], [0.3, 0.7]],
        [[0.55, 0.45], [0.8, 0.2]],
    ],
    "initial_state": "good",
}

CASE4B_RAW = {
    "discount": 0.9,
    "states": [{"name": "good", "loss": 0.0}, {"name": "bad", "loss": 10.0}],
    "actions": [{"name": "weak", "cost": 0.0}, {"name": "strong", "cost": 1.0}],
    "transitions": [
        [[0.5, 0.5], [0.4, 0.6]],
        [[0.8, 0.2], [0.9, 0.1]],
    ],
    "initial_state": "good",
}

CASE4C_RAW = {
    "discount": 0.9,
    "states": [{"name": "good", "loss": 0.0}, {"name": "bad", "loss": 10.0}],
    "actions": [{"name": "weak", "cost": 0.0}, {"name": "strong", "cost": 1.0}],
    "transitions": [
        [[0.5, 0.5], [0.2, 0.8]],
        [[0.8, 0.2], [0.5, 0.5]],
    ],
    "initial_state": "good",
}


@pytest.mark.parametrize(
    "raw, case_id, threshold_names",
    [
        (CASE2_RAW, "Case2", {"R_G"}),
        (CASE3_RAW, "Case3", {"R_B"}),
        (CASE4B_RAW, "Case4b", {"R_G", "R_B"}),
        (CASE4C_RAW, "Case4c", {"R_s"}),
    ],
)
def test_classification_all_cases(raw, case_id, threshold_names):
    ts = _two_state(raw)
    classification = classify_case(ts)
    assert classification.case_id == case_id
    assert set(classification.thresholds) == threshold_names
    # every reported threshold is a root of some gap function
    for level in classification.thresholds.values():
        assert 0.0 < level < 1.0
        gaps = [
            abs(action_value_gap(ts, s, a, level))
            for s in (GOOD, BAD)
            for a in (WEAK, STRONG)
        ]
        assert min(gaps) <= 1e-10
    # segments partition [0, 1] and policies weaken left to right
    segments = classification.segments
    assert segments[0].lo == 0.0 and segments[-1].hi == 1.0
    for earlier, later in zip(segments, segments[1:]):
        assert earlier.hi == later.lo
        for s in (GOOD, BAD):
            assert later.policy.actions[s] <= earlier.policy.actions[s]


def test_case4c_collapses_to_single_switch():
    ts = _two_state(CASE4C_RAW)
    assert transition_shift(ts) == pytest.approx(0.0, abs=1e-12)
    classification = classify_case(ts)
    assert [seg.policy.actions for seg in classification.segments] == [
        (STRONG, STRONG),
        (WEAK, WEAK),
    ]


# ------------------------------------------------------------- policy logic

def test_closed_form_policy_reference_levels(two_state_analytic):
    ts = two_state_analytic
    assert closed_form_policy(ts, 0.0).actions == (STRONG, STRONG)
    assert closed_form_policy(ts, 0.5).actions == (STRONG, WEAK)
    assert closed_form_policy(ts, 1.0).actions == (WEAK, WEAK)
    # at the exact switch level the tie resolves to the weak action
    assert closed_form_policy(ts, EXACT_SWITCH_BAD).actions == (STRONG, WEAK)


def test_closed_form_policy_level_range(two_state_analytic):
    with pytest.raises(ValueError):
        closed_form_policy(two_state_analytic, 1.5)


def test_closed_form_policy_matches_numeric_solver(two_state, two_state_analytic):
    ts = two_state_analytic
    thresholds = classify_case(ts).thresholds.values()
    for level in np.linspace(0.0, 1.0, 101):
        level = float(level)
        if min(abs(level - t) for t in thresholds) <= 1e-6:
            continue
        coverage = LinearCoverage(level) if level else ZeroCoverage()
        numeric = solve_value_iteration(two_state, coverage).policy
        assert closed_form_policy(ts, level) == numeric


# ------------------------------------------------------------- contract & risk

def test_optimal_contract_reference(two_state_analytic):
    contract = optimal_contract(two_state_analytic)
    assert contract.level_sup == pytest.approx(EXACT_SWITCH_BAD, abs=1e-9)
    assert not contract.sup_included
    assert contract.premium_rate == pytest.approx(EXACT_PREMIUM_RATE, abs=1e-6)
    assert contract.premium(0.05) == pytest.approx(0.05 * EXACT_PREMIUM_RATE, abs=1e-9)
    assert "tie" in contract.note


def test_optimal_contract_case1_spans_everything():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["actions"][1]["cost"] = 100.0
    ts = _two_state(raw)
    contract = optimal_contract(ts)
    assert contract.level_sup == 1.0
    assert contract.sup_included
    assert contract.premium_rate == pytest.approx(
        loss_coefficient(ts, GOOD, WEAK, WEAK), abs=1e-12
    )


@pytest.mark.parametrize("raw", [TWO_STATE_RAW, CASE2_RAW, CASE3_RAW])
def test_optimal_contract_matches_sweep_region(raw):
    from cyins.contracts import optimal_region, sweep_linear

    model = validate_model(raw)
    ts = TwoStateModel.from_model(model)
    contract = optimal_contract(ts)
    region = optimal_region(sweep_linear(model))
    interval = region.intervals[0]
    # The region end is the exact root of the gap that closes the region:
    # the first switch threshold of the closed-form classification.
    first_switch = min(classify_case(ts).thresholds.values())
    assert interval.hi == pytest.approx(first_switch, abs=1e-12)
    assert interval.hi == pytest.approx(contract.level_sup, abs=1e-12)
    assert interval.premium_slope == pytest.approx(contract.premium_rate, rel=1e-12)
    assert contract.profit == 0.0
    assert abs(region.max_profit) <= 1e-7


def test_region_premium_lines_are_the_closed_forms():
    # The first interval's premium line is the baseline policy's loss
    # coefficient through the origin, and it ends at the contract's sup.
    from cyins.contracts import optimal_region, sweep_linear

    rng = np.random.default_rng(16180)
    for _ in range(100):
        model = validate_model(random_two_state_raw(rng))
        ts = TwoStateModel.from_model(model)
        baseline = closed_form_policy(ts, 0.0).actions
        rate = loss_coefficient(ts, model.initial_state, baseline[ts.good], baseline[ts.bad])
        interval = optimal_region(sweep_linear(model)).intervals[0]
        assert interval.premium_intercept == 0.0
        assert interval.premium_slope == pytest.approx(rate, rel=1e-12)
        assert interval.hi == pytest.approx(optimal_contract(ts).level_sup, abs=1e-12)


def test_peltzman_regions_reference(two_state_analytic):
    regions = peltzman_regions(two_state_analytic)
    assert len(regions) == 1
    lo, hi = regions[0]
    assert lo == pytest.approx(EXACT_SWITCH_BAD, abs=1e-9)
    assert hi == 1.0


def test_peltzman_regions_empty_for_case1():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["actions"][1]["cost"] = 100.0
    assert peltzman_regions(_two_state(raw)) == ()


def test_peltzman_effect_numeric_check(two_state, two_state_analytic):
    baseline = closed_form_policy(two_state_analytic, 0.0)
    insured = closed_form_policy(two_state_analytic, 0.5)
    assert insured != baseline
    direct_base, _ = decompose_value(two_state, baseline)
    direct_ins, _ = decompose_value(two_state, insured)
    assert direct_ins[GOOD] > direct_base[GOOD]


# ---------------------------------------------------------------- identities

def test_identity_residuals_reference(two_state_analytic):
    report = identity_residuals(two_state_analytic, 0.3)
    assert report.max_abs <= 1e-12
    assert len(report.residuals) == 10


def test_identity_residuals_random_models():
    rng = np.random.default_rng(99)
    for _ in range(100):
        ts = _two_state(random_two_state_raw(rng))
        level = float(rng.uniform(0.0, 1.0))
        assert identity_residuals(ts, level).max_abs <= 1e-10


def test_value_difference_has_gap_sign(two_state_analytic):
    ts = two_state_analytic
    for level in (0.0, 0.3, 0.7, 1.0):
        for other in (WEAK, STRONG):
            diff = closed_form_value(ts, GOOD, STRONG, other, level) - closed_form_value(
                ts, GOOD, WEAK, other, level
            )
            gap = action_value_gap(ts, GOOD, other, level)
            if abs(gap) > 1e-12:
                assert np.sign(diff) == np.sign(gap)


# ------------------------------------------------------------ random sweeps

def test_closed_form_value_matches_numeric_random():
    rng = np.random.default_rng(42)
    for _ in range(100):
        raw = random_two_state_raw(rng)
        model = validate_model(raw)
        ts = TwoStateModel.from_model(model)
        for level in np.linspace(0.0, 1.0, 11):
            level = float(level)
            coverage = LinearCoverage(level) if level else ZeroCoverage()
            for action_good in (WEAK, STRONG):
                for action_bad in (WEAK, STRONG):
                    policy = ProtectionPolicy((action_good, action_bad))
                    exact = evaluate_policy(model, policy, coverage)
                    assert closed_form_value(ts, GOOD, action_good, action_bad, level) == (
                        pytest.approx(exact[GOOD], abs=1e-10)
                    )
                    assert closed_form_value(ts, BAD, action_bad, action_good, level) == (
                        pytest.approx(exact[BAD], abs=1e-10)
                    )


def test_closed_form_policy_matches_numeric_random():
    rng = np.random.default_rng(43)
    for _ in range(60):
        model = validate_model(random_two_state_raw(rng))
        ts = TwoStateModel.from_model(model)
        thresholds = list(classify_case(ts).thresholds.values()) or [np.inf]
        for level in np.linspace(0.0, 1.0, 11):
            level = float(level)
            if min(abs(level - t) for t in thresholds) <= 1e-6:
                continue
            coverage = LinearCoverage(level) if level else ZeroCoverage()
            numeric = solve_value_iteration(model, coverage, tol=1e-10)
            analytic_policy = closed_form_policy(ts, level)
            if analytic_policy != numeric.policy:
                values = evaluate_policy(model, analytic_policy, coverage)
                assert np.abs(values - numeric.values).max() <= 1e-7


def test_gap_monotone_in_level_random():
    rng = np.random.default_rng(44)
    for _ in range(50):
        ts = _two_state(random_two_state_raw(rng))
        levels = np.sort(rng.uniform(0.0, 1.0, size=4))
        for state in (GOOD, BAD):
            for other in (WEAK, STRONG):
                gaps = [action_value_gap(ts, state, other, float(l)) for l in levels]
                assert all(b > a for a, b in zip(gaps, gaps[1:]))


def test_threshold_roots_random():
    rng = np.random.default_rng(45)
    for _ in range(50):
        ts = _two_state(random_two_state_raw(rng))
        classification = classify_case(ts)
        scale = (ts.loss_bad - ts.loss_good) + (ts.cost_strong - ts.cost_weak)
        for level in classification.thresholds.values():
            gaps = [
                abs(action_value_gap(ts, s, a, level))
                for s in (GOOD, BAD)
                for a in (WEAK, STRONG)
            ]
            assert min(gaps) <= 1e-10 * max(1.0, scale)
        # adjacent segments differ in exactly one state's action, except for the
        # simultaneous switch of the zero-shift case
        segments = classification.segments
        for earlier, later in zip(segments, segments[1:]):
            changed = sum(
                earlier.policy.actions[s] != later.policy.actions[s] for s in (GOOD, BAD)
            )
            if classification.case_id == "Case4c":
                assert changed == 2
            else:
                assert changed == 1


def test_optimum_unique_up_to_exact_ties_random():
    rng = np.random.default_rng(46)
    for _ in range(50):
        model = validate_model(random_two_state_raw(rng))
        level = float(rng.uniform(0.0, 1.0))
        coverage = LinearCoverage(level)
        fixed_points = []
        for action_good in (WEAK, STRONG):
            for action_bad in (WEAK, STRONG):
                policy = ProtectionPolicy((action_good, action_bad))
                values = evaluate_policy(model, policy, coverage)
                if policy_from_values(model, coverage, values) == policy:
                    fixed_points.append(values)
        assert fixed_points
        for values in fixed_points[1:]:
            assert np.abs(values - fixed_points[0]).max() <= 1e-9


def _slope_denominators(ts):
    """Each state's switch-level slope denominator, in _switch_level's arithmetic."""
    d, p = ts.discount, ts.model.transitions
    g, b, w, s = ts.good, ts.bad, ts.weak, ts.strong
    spread = ts.loss_bad - ts.loss_good
    return {
        g: d * (float(p[w, g, b]) - float(p[s, g, b])) * spread,
        b: d * (float(p[s, b, g]) - float(p[w, b, g])) * spread,
    }


@st.composite
def edge_two_state_raws(draw):
    """Two-state descriptions near every edge of validation: zero and subnormal
    discounts, tiny loss, cost and protection spreads, and rows off their
    sum by up to the validation tolerance."""
    discount = draw(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 0.999999]), st.floats(0.0, 0.999999))
    )
    spreads = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-12, 1e-9]), st.floats(0.0, 1.0))
    loss_good = draw(st.floats(0.0, 1e3))
    cost_weak = draw(st.floats(0.0, 10.0))
    # Per state, the weak and strong probabilities of ending in the good state.
    toward_good = []
    for _ in range(2):
        weak = draw(st.floats(0.0, 1.0))
        toward_good.append((weak, min(1.0, weak + draw(spreads))))
    slack = st.sampled_from([0.0, 4e-10, -4e-10])
    return {
        "discount": discount,
        "states": [
            {"name": "good", "loss": loss_good},
            {"name": "bad", "loss": loss_good + draw(st.floats(0.0, 1e6))},
        ],
        "actions": [
            {"name": "weak", "cost": cost_weak},
            {"name": "strong", "cost": cost_weak + draw(spreads)},
        ],
        "transitions": [
            [[q[a], 1.0 - q[a] + draw(slack)] for q in toward_good] for a in range(2)
        ],
    }


@settings(deadline=None, max_examples=300)
@given(edge_two_state_raws())
def test_switch_levels_have_positive_slopes(raw):
    # from_model alone does not make every slope denominator positive (a zero
    # discount zeroes both), but classify_case computes a state's switch
    # level only where the zero-coverage policy protects strongly, and there
    # the denominator exceeds a non-negative numerator.
    try:
        ts = TwoStateModel.from_model(validate_model(raw))
    except ValueError:
        return
    denominators = _slope_denominators(ts)
    baseline = closed_form_policy(ts, 0.0)
    classification = classify_case(ts)
    for state in (ts.good, ts.bad):
        if baseline.actions[state] == ts.strong:
            assert denominators[state] > 0.0
    assert all(np.isfinite(level) for level in classification.thresholds.values())


def test_from_model_accepts_zero_slope_denominators():
    # So the positive slope of every computed switch level rests on the
    # baseline policy: these models pass, and no state of them protects.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.0
    ts = TwoStateModel.from_model(validate_model(raw))
    assert set(_slope_denominators(ts).values()) == {0.0}
    assert classify_case(ts).case_id == "Case1"
    # Within the row-sum tolerance, strong protection lowers the bad state's
    # stay without raising its move to the good state.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["transitions"][1][1] = [0.5, 0.5 - 1e-12]
    ts = TwoStateModel.from_model(validate_model(raw))
    assert _slope_denominators(ts)[ts.bad] == 0.0
    assert classify_case(ts).thresholds.keys() == {"R_G"}


# -------------------------------------------------------------- construction

def test_from_model_resolves_reversed_order():
    raw = {
        "discount": 0.9,
        "states": [{"name": "bad", "loss": 10.0}, {"name": "good", "loss": 0.0}],
        "actions": [{"name": "strong", "cost": 1.0}, {"name": "weak", "cost": 0.0}],
        "transitions": [
            # strong action first; state order (bad, good)
            [[0.4, 0.6], [0.2, 0.8]],
            [[0.5, 0.5], [0.5, 0.5]],
        ],
        "initial_state": "good",
    }
    model = validate_model(raw)
    ts = TwoStateModel.from_model(model)
    assert ts.good == 1 and ts.bad == 0
    assert ts.strong == 0 and ts.weak == 1
    assert transition_shift(ts) == pytest.approx(-0.2, abs=1e-12)
    assert classify_case(ts).case_id == "Case4a"
    # closed-form policy is expressed in the model's own state order
    policy = closed_form_policy(ts, 0.0)
    numeric = solve_value_iteration(model, ZeroCoverage()).policy
    assert policy == numeric


def test_from_model_rejects_invalid_shapes(four_state, two_state):
    with pytest.raises(ValueError, match="two states and two actions"):
        TwoStateModel.from_model(four_state)

    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][1]["loss"] = 0.0
    with pytest.raises(ValueError, match="losses"):
        TwoStateModel.from_model(validate_model(raw))

    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["actions"][1]["cost"] = 0.0
    with pytest.raises(ValueError, match="costs"):
        TwoStateModel.from_model(validate_model(raw))

    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["transitions"][1] = [[0.4, 0.6], [0.4, 0.6]]  # strong no safer than weak
    with pytest.raises(ValueError, match="strong protection"):
        TwoStateModel.from_model(validate_model(raw))
