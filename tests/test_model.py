import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyins.model import (
    LinearCoverage,
    ModelValidationError,
    ProtectionPolicy,
    ThresholdCoverage,
    ZeroCoverage,
    coverage_paid,
    evaluate_policy,
    validate_model,
)

from helpers import (
    TWO_STATE_RAW,
    cramer_pair_value,
    random_model,
    reimbursement,
    two_state_policy_value,
)
from oracles import coverages_paid, decompose_value, stage_loss_matrix

PI_HH = ProtectionPolicy((1, 1))
PI_LL = ProtectionPolicy((0, 0))


# ---------------------------------------------------------------- validation

def test_validate_reference_model(two_state):
    assert two_state.n_states == 2
    assert two_state.n_actions == 2
    assert two_state.discount == 0.9
    assert two_state.initial_state == 0
    assert two_state.states[1].loss == 10.0
    assert two_state.actions[1].cost == 1.0
    assert not two_state.transitions.flags.writeable


def test_losses_and_costs_are_built_once_read_only(four_state):
    assert four_state.losses.tolist() == [0.0, 4.0, 8.0, 16.0]
    assert four_state.costs.tolist() == [0.0, 0.3, 0.6]
    for name in ("losses", "costs"):
        array = getattr(four_state, name)
        assert getattr(four_state, name) is array
        assert not array.flags.writeable


def test_row_sum_violation_names_action_and_state():
    for row, complaint in (
        ([0.7, 0.2], "sums to"),
        ([float("nan"), 0.5], "non-finite"),
        ([float("inf"), 0.0], "non-finite"),
    ):
        raw = copy.deepcopy(TWO_STATE_RAW)
        raw["transitions"][1][0] = row
        with pytest.raises(ModelValidationError) as exc:
            validate_model(raw)
        assert len(exc.value.errors) == 1
        message = str(exc.value)
        assert "A_H" in message and "S_G" in message and complaint in message


@pytest.mark.parametrize("initial", [True, False, 1.7, float("inf"), float("nan"), None])
def test_initial_state_must_be_a_name_or_integer(initial):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["initial_state"] = initial
    with pytest.raises(ModelValidationError, match="initial_state"):
        validate_model(raw)


def test_integral_initial_state_index_accepted():
    raw = copy.deepcopy(TWO_STATE_RAW)
    for initial in (1, 1.0, np.int64(1), "S_B"):
        raw["initial_state"] = initial
        assert validate_model(raw).initial_state == 1


def test_discount_one_rejected():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 1.0
    with pytest.raises(ModelValidationError, match="discount"):
        validate_model(raw)


def test_negative_loss_and_cost_rejected():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][0]["loss"] = -1.0
    raw["actions"][1]["cost"] = -0.5
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert len(exc.value.errors) == 2


def test_errors_are_itemized():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 2.0
    raw["transitions"][0][1] = [0.4, 0.4]
    raw["initial_state"] = "missing"
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert len(exc.value.errors) >= 3


@pytest.mark.parametrize(
    "key, value",
    [("states", 5), ("states", None), ("states", "S_G"), ("states", {"name": "S_G", "loss": 0.0}),
     ("actions", None), ("actions", 2.5), ("transitions", "[[0.5, 0.5]]"),
     ("transitions", [[{"S_G": 0.5}, [0.5, 0.5]], [[0.8, 0.2], [0.6, 0.4]]]),
     ("transitions", [["10", [0.5, 0.5]], [[0.8, 0.2], [0.6, 0.4]]])],
)
def test_malformed_lists_are_itemized_errors(key, value):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw[key] = value
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert exc.value.errors and any(key in error for error in exc.value.errors)


@pytest.mark.parametrize(
    "path, value",
    [(("discount",), "0.9"), (("discount",), False), (("states", 1, "loss"), True),
     (("states", 1, "loss"), "10"), (("actions", 0, "cost"), "0"),
     (("transitions", 0, 0), ["0.5", 0.5]), (("transitions", 0, 0), [True, False]),
     (("transitions", 0, 0), [1.0, False]), (("transitions", 0, 0), [1.0, 0.0, "x"])],
)
def test_strings_and_bools_are_not_numbers(path, value):
    raw = copy.deepcopy(TWO_STATE_RAW)
    *parents, last = path
    container = raw
    for key in parents:
        container = container[key]
    container[last] = value
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert path[0] in exc.value.errors[0]


def test_integer_fields_stay_valid():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0
    raw["states"][1]["loss"] = 10
    raw["transitions"][0][0] = [1, 0]
    model = validate_model(raw)
    assert model.discount == 0.0 and model.losses[1] == 10.0
    assert model.transitions[0, 0].tolist() == [1.0, 0.0]


@pytest.mark.parametrize("loss, cost", [(1e308, 0.0), (1e308, 1e308), (2e307, 0.0)])
def test_value_scale_must_be_finite(loss, cost):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9
    raw["states"][1]["loss"] = loss
    raw["actions"][1]["cost"] = cost
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert len(exc.value.errors) == 1 and "value scale" in exc.value.errors[0]


@pytest.mark.parametrize("name", [None, 7, 1.5, ["S_B"], "", "weak,cheap", "strong|x", "a\nb", "b\r"])
def test_names_that_are_not_clean_strings_are_itemized_errors(name):
    # Each would once have been converted or passed through: null became
    # the action 'None', 7 the state "7", a comma split a sweep CSV row
    # into one field too many, and a bar made policy labels unparseable.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][1]["name"] = name
    raw["actions"][1]["name"] = name
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert exc.value.errors == [
        f"{key}[1]: name must be a non-empty string without ',', '|' or line breaks, got {name!r}"
        for key in ("states", "actions")
    ]


@pytest.mark.parametrize("key, field", [("states", "name"), ("states", "loss"), ("actions", "cost")])
def test_a_malformed_entry_is_its_only_error(key, field):
    # The transition blocks are counted against the declared entries, so a
    # malformed state or action adds no error about well-formed transitions.
    # An initial state named by a malformed entry is still declared, unless
    # the entry's name is what it lacks.
    raw = copy.deepcopy(TWO_STATE_RAW)
    del raw[key][1][field]
    amount = "loss" if key == "states" else "cost"
    malformed = f"{key}[1]: expected {{name, {amount}}} with a numeric {amount}"
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert exc.value.errors == [malformed]
    raw["initial_state"] = "S_B"
    undeclared = ["initial_state 'S_B' is not a declared state name"] if field == "name" else []
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert exc.value.errors == [malformed, *undeclared]


def test_transitions_name_a_malformed_state_by_its_position():
    raw = copy.deepcopy(TWO_STATE_RAW)
    del raw["states"][1]["name"]
    raw["transitions"][0][1] = [0.5, 0.4]
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert exc.value.errors == [
        "states[1]: expected {name, loss} with a numeric loss",
        "transition row for action 'A_L' from state states[1] sums to 0.9, expected 1",
    ]


def test_an_integer_name_is_not_its_string():
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][1]["name"] = 7
    raw["initial_state"] = "7"
    with pytest.raises(ModelValidationError) as exc:
        validate_model(raw)
    assert len(exc.value.errors) == 2
    assert "initial_state '7' is not a declared state name" in exc.value.errors[1]


def test_clean_names_stay_valid():
    raw = copy.deepcopy(TWO_STATE_RAW)
    names = ["S0", "strong protection (A_H)"]
    for entry, name in zip(raw["actions"], names):
        entry["name"] = name
    assert [action.name for action in validate_model(raw).actions] == names
    raw["actions"][1]["name"] = "S0"
    with pytest.raises(ModelValidationError, match="action names must be unique"):
        validate_model(raw)


def test_empty_model_rejected():
    with pytest.raises(ModelValidationError):
        validate_model({"discount": 0.9, "states": [], "actions": [], "transitions": []})


# ------------------------------------------------------------------ coverage

def one_action_model(losses):
    """A model with one free action that stays put, on these state losses."""
    n = len(losses)
    return validate_model(
        {
            "discount": 0.5,
            "states": [{"name": f"s{i}", "loss": float(loss)} for i, loss in enumerate(losses)],
            "actions": [{"name": "a", "cost": 0.0}],
            "transitions": [np.eye(n).tolist()],
        }
    )


def test_linear_coverage_value(two_state):
    assert coverage_paid(two_state, LinearCoverage(0.9))[1] == pytest.approx(9.0, abs=1e-12)


def test_threshold_coverage_strict_above_cutoff():
    coverage = ThresholdCoverage(cutoff=16.0, low_level=0.0, high_level=0.9)
    paid = coverage_paid(one_action_model([16.0, 16.01]), coverage)
    assert paid[0] == 0.0
    assert paid[1] == pytest.approx(14.409, abs=1e-12)


def test_zero_coverage_pays_nothing():
    assert coverage_paid(one_action_model([0.0, 1.0, 1e6]), ZeroCoverage()).tolist() == [0.0] * 3


def test_coverage_level_bounds_enforced():
    with pytest.raises(ValueError):
        LinearCoverage(1.5)
    with pytest.raises(ValueError):
        ThresholdCoverage(cutoff=-1.0, low_level=0.0, high_level=0.5)
    with pytest.raises(ValueError):
        ThresholdCoverage(cutoff=1.0, low_level=0.0, high_level=1.2)
    for cutoff in (float("nan"), float("inf"), -1e-300):
        with pytest.raises(ValueError, match="finite"):
            ThresholdCoverage(cutoff=cutoff, low_level=0.0, high_level=0.5)
    for cutoff in (0.0, 8, np.float64(8.0), 1e300):
        assert ThresholdCoverage(cutoff=cutoff, low_level=0.0, high_level=0.5).cutoff == cutoff
    # A bool would price as 0 or 1 and a string as the number it spells;
    # numbers in a coverage are numbers, and the error names the field.  A
    # string once raised a bare comparison or float() error.
    for value in (True, False, np.True_, "0.5", "8.0", b"0.5", None):
        with pytest.raises(TypeError, match="level must be a real number"):
            LinearCoverage(value)
        for k, name in enumerate(("cutoff", "low_level", "high_level")):
            fields = [1.0, 0.0, 1.0]
            fields[k] = value
            with pytest.raises(TypeError, match=f"^{name} must be a real number"):
                ThresholdCoverage(*fields)


def test_coverage_stays_within_loss():
    rng = np.random.default_rng(7)
    model = one_action_model(rng.uniform(0.0, 1e6, size=200))
    variants = [
        ZeroCoverage(),
        LinearCoverage(0.37),
        ThresholdCoverage(cutoff=123.0, low_level=0.2, high_level=0.95),
    ]
    for paid in coverages_paid(model, variants):
        assert np.all((0.0 <= paid) & (paid <= model.losses))


def test_zero_equivalent_to_degenerate_variants(two_state):
    degenerate = [LinearCoverage(0.0), ThresholdCoverage(5.0, 0.0, 0.0)]
    for coverage in degenerate:
        assert coverage_paid(one_action_model([0.0, 3.3, 10.0]), coverage).tolist() == [0.0] * 3
        assert np.array_equal(
            evaluate_policy(two_state, PI_HH, coverage),
            evaluate_policy(two_state, PI_HH, ZeroCoverage()),
        )


# ------------------------------------------------------------- effective loss

def test_effective_loss_bad_state_strong_action(two_state):
    assert stage_loss_matrix(two_state, LinearCoverage(0.5))[1, 1] == pytest.approx(6.0)


def test_effective_loss_full_coverage_leaves_cost(two_state):
    stage = stage_loss_matrix(two_state, LinearCoverage(1.0))
    assert stage.tolist() == [two_state.costs.tolist()] * 2


def test_effective_loss_good_state_weak_action_uninsured(two_state):
    assert stage_loss_matrix(two_state, ZeroCoverage())[0, 0] == 0.0


@st.composite
def paid_stacks(draw):
    """A one-action model on random losses and a stack of coverages whose
    cutoffs are often exactly a state loss."""
    losses = draw(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=6))
    model = one_action_model(losses)
    levels = st.floats(0.0, 1.0)
    cutoffs = st.one_of(st.sampled_from(losses), st.floats(0.0, 2e6))
    one = st.one_of(
        st.just(ZeroCoverage()),
        st.builds(LinearCoverage, levels),
        st.builds(ThresholdCoverage, cutoffs, levels, levels),
    )
    return model, draw(st.lists(one, max_size=6))


@settings(deadline=None, max_examples=60)
@given(paid_stacks())
def test_paid_vectors_are_the_per_state_reimbursements(stack):
    model, coverages = stack
    paid = coverages_paid(model, coverages)
    assert paid.shape == (len(coverages), model.n_states)
    for row, coverage in zip(paid, coverages):
        expected = np.array([reimbursement(coverage, s.loss) for s in model.states])
        assert row.tobytes() == expected.tobytes()
        assert coverage_paid(model, coverage).tobytes() == expected.tobytes()


def test_paid_vector_edge_cases(four_state):
    # A cutoff equal to a state loss pays that state the low tier.
    paid = coverage_paid(four_state, ThresholdCoverage(8.0, 0.25, 0.9))
    assert paid.tolist() == [0.0, 1.0, 2.0, 14.4]
    # Solves are keyed on paid bytes, so no insurance and a zero level share a key.
    zero, linear = coverages_paid(four_state, [ZeroCoverage(), LinearCoverage(0.0)])
    assert zero.tobytes() == linear.tobytes() == np.zeros(4).tobytes()
    with pytest.raises(TypeError, match="not a coverage"):
        coverages_paid(four_state, [0.5])


def test_stage_matrix_and_paid_vector_match_per_state_values(four_state):
    for coverage in (ZeroCoverage(), LinearCoverage(0.37), ThresholdCoverage(8.0, 0.2, 0.9)):
        paid = coverage_paid(four_state, coverage)
        assert paid.tolist() == [reimbursement(coverage, s.loss) for s in four_state.states]
        stage = stage_loss_matrix(four_state, coverage)
        assert stage.tolist() == [
            [s.loss - reimbursement(coverage, s.loss) + a.cost for a in four_state.actions]
            for s in four_state.states
        ]


# ------------------------------------------------------------ policy values

def test_evaluate_policy_matches_independent_solve(two_state):
    oracle_good, oracle_bad = two_state_policy_value(TWO_STATE_RAW, 1, 1)
    # cross-check the oracle against the rounded golden number first
    assert oracle_good == pytest.approx(31.9512, abs=1e-3)
    assert oracle_good == pytest.approx(21.9512 + 10.0, abs=2e-3)
    values = evaluate_policy(two_state, PI_HH, ZeroCoverage())
    assert values[0] == pytest.approx(oracle_good, abs=1e-10)
    assert values[1] == pytest.approx(oracle_bad, abs=1e-10)


def test_single_state_geometric_series():
    raw = {
        "discount": 0.8,
        "states": [{"name": "only", "loss": 3.0}],
        "actions": [{"name": "act", "cost": 0.5}],
        "transitions": [[[1.0]]],
    }
    model = validate_model(raw)
    values = evaluate_policy(model, ProtectionPolicy((0,)), ZeroCoverage())
    assert values[0] == pytest.approx(3.5 / 0.2, rel=1e-12)


def test_full_coverage_zero_cost_policy_is_free(two_state):
    values = evaluate_policy(two_state, PI_LL, LinearCoverage(1.0))
    assert np.all(values == 0.0)


def test_fixed_point_residual_random_models():
    rng = np.random.default_rng(11)
    for _ in range(25):
        model = random_model(rng)
        policy = ProtectionPolicy(
            tuple(int(rng.integers(0, model.n_actions)) for _ in range(model.n_states))
        )
        coverage = LinearCoverage(float(rng.uniform(0.0, 1.0)))
        values = evaluate_policy(model, policy, coverage)
        for s, state in enumerate(model.states):
            action = model.actions[policy.actions[s]]
            stage = state.loss - reimbursement(coverage, state.loss) + action.cost
            expected = stage + model.discount * float(
                model.transitions[policy.actions[s], s] @ values
            )
            assert abs(values[s] - expected) <= 1e-10


def test_more_coverage_never_hurts_same_policy(two_state):
    lo = evaluate_policy(two_state, PI_HH, LinearCoverage(0.2))
    hi = evaluate_policy(two_state, PI_HH, LinearCoverage(0.7))
    assert np.all(hi <= lo + 1e-12)


def test_policy_shape_checked(two_state):
    with pytest.raises(ValueError):
        evaluate_policy(two_state, ProtectionPolicy((0,)), ZeroCoverage())
    with pytest.raises(ValueError):
        evaluate_policy(two_state, ProtectionPolicy((0, 5)), ZeroCoverage())


# ------------------------------------------------------------- decomposition

def test_decompose_cost_part_matches_oracle(two_state):
    _, cost = decompose_value(two_state, PI_HH)
    oracle_good, _ = cramer_pair_value(0.9, [0.8, 0.2], [0.6, 0.4], 1.0, 1.0)
    assert cost[0] == pytest.approx(oracle_good, abs=1e-10)
    assert cost[0] == pytest.approx(10.0, abs=1e-9)


def test_decompose_zero_cost_policy(two_state):
    _, cost = decompose_value(two_state, PI_LL)
    assert np.all(cost == 0.0)


def test_decompose_zero_loss_model():
    raw = {
        "discount": 0.9,
        "states": [{"name": "a", "loss": 0.0}, {"name": "b", "loss": 0.0}],
        "actions": [{"name": "x", "cost": 1.0}],
        "transitions": [[[0.5, 0.5], [0.5, 0.5]]],
    }
    model = validate_model(raw)
    direct, _ = decompose_value(model, ProtectionPolicy((0, 0)))
    assert np.all(direct == 0.0)


def test_decompose_additivity_random():
    rng = np.random.default_rng(13)
    for _ in range(25):
        model = random_model(rng)
        policy = ProtectionPolicy(
            tuple(int(rng.integers(0, model.n_actions)) for _ in range(model.n_states))
        )
        # One solve gives both streams, and a value is their sum.
        total = evaluate_policy(model, policy, ZeroCoverage())
        assert np.array_equal(sum(decompose_value(model, policy)), total)
