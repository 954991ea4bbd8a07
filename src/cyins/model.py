"""Core data model: Markov risk process, coverage functions, policy evaluation.

A user's cyber-risk position evolves as a finite discounted Markov decision
process.  Each state carries a fixed direct monetary loss, each protection
action a fixed cost, and the chosen action shapes the transition
probabilities.  An insurance coverage function reimburses part of the direct
loss, so the per-stage "effective loss" is

    loss(state) - coverage(loss(state)) + cost(action).

Everything in this module is immutable after construction and safe to share
across threads.  Policy evaluation is an exact dense linear solve, which lets
it double as an oracle for the iterative solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "Action",
    "LinearCoverage",
    "MdpModel",
    "ModelValidationError",
    "ProtectionPolicy",
    "State",
    "ThresholdCoverage",
    "ZeroCoverage",
    "coverage_paid",
    "coverages_paid",
    "decompose_value",
    "evaluate_policy",
    "stage_loss_matrix",
    "validate_model",
]

ROW_SUM_TOL = 1e-9


class ModelValidationError(ValueError):
    """Raised when a raw model description violates the model invariants.

    Carries the full itemized list of problems in ``errors`` so callers can
    report everything wrong with a file at once.
    """

    def __init__(self, errors: Sequence[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class State:
    name: str
    loss: float


@dataclass(frozen=True)
class Action:
    name: str
    cost: float


# A bool converts to a level or cutoff of 0 or 1, but it is not a number.
_BOOLS = frozenset({bool, np.bool_})


@dataclass(frozen=True)
class ZeroCoverage:
    """No insurance: every loss is borne in full."""


@dataclass(frozen=True)
class LinearCoverage:
    """Proportional coverage: a loss x is reimbursed level * x."""

    level: float

    def __post_init__(self):
        if type(self.level) in _BOOLS:
            raise TypeError(f"coverage level must be a number, got {self.level!r}")
        if not 0.0 <= self.level <= 1.0:
            raise ValueError(f"coverage level must be in [0, 1], got {self.level}")


@dataclass(frozen=True)
class ThresholdCoverage:
    """Two-tier coverage keyed on the loss size.

    Losses at or below ``cutoff`` are reimbursed at ``low_level``; losses
    strictly above it at ``high_level``.  Ties pay the low tier.  The cutoff is
    finite: one at or above the largest loss already means "never high".
    """

    cutoff: float
    low_level: float
    high_level: float

    def __post_init__(self):
        if not _BOOLS.isdisjoint((type(self.cutoff), type(self.low_level), type(self.high_level))):
            raise TypeError(f"cutoff and levels must be numbers, got {self!r}")
        if not math.isfinite(self.cutoff) or self.cutoff < 0.0:
            raise ValueError(f"cutoff must be finite and non-negative, got {self.cutoff}")
        for label, level in (("low_level", self.low_level), ("high_level", self.high_level)):
            if not 0.0 <= level <= 1.0:
                raise ValueError(f"{label} must be in [0, 1], got {level}")


Coverage = Union[ZeroCoverage, LinearCoverage, ThresholdCoverage]


@dataclass(frozen=True)
class ProtectionPolicy:
    """Stationary policy: one action index per state, in state order."""

    actions: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(int(a) for a in self.actions))


@dataclass(frozen=True, eq=False)
class MdpModel:
    """Validated discounted Markov decision process with monetary losses.

    ``transitions`` is indexed ``[action][from_state][to_state]``; it and the
    per-state ``losses`` and per-action ``costs`` vectors derived from
    ``states`` and ``actions`` are read-only numpy arrays.  Use
    :func:`validate_model` to build one from a raw description; direct
    construction skips validation.
    """

    states: tuple[State, ...]
    actions: tuple[Action, ...]
    transitions: np.ndarray
    discount: float
    initial_state: int = 0
    losses: np.ndarray = field(init=False, repr=False)
    costs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name, array in (
            ("transitions", np.asarray(self.transitions, dtype=float)),
            ("losses", np.array([s.loss for s in self.states], dtype=float)),
            ("costs", np.array([a.cost for a in self.actions], dtype=float)),
        ):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_actions(self) -> int:
        return len(self.actions)

    def state_index(self, name: str) -> int:
        for i, s in enumerate(self.states):
            if s.name == name:
                return i
        raise KeyError(f"unknown state {name!r}")

    def action_index(self, name: str) -> int:
        for i, a in enumerate(self.actions):
            if a.name == name:
                return i
        raise KeyError(f"unknown action {name!r}")

    def check_policy(self, policy: ProtectionPolicy) -> None:
        if len(policy.actions) != self.n_states:
            raise ValueError(
                f"policy has {len(policy.actions)} entries for {self.n_states} states"
            )
        for s, a in enumerate(policy.actions):
            if not 0 <= a < self.n_actions:
                raise ValueError(f"policy assigns invalid action {a} at state {s}")


def validate_model(raw: Mapping) -> MdpModel:
    """Build an :class:`MdpModel` from a raw description, checking every invariant.

    ``raw`` uses the model-file schema: ``discount`` (float), ``states``
    (list of ``{name, loss}``), ``actions`` (list of ``{name, cost}``),
    ``transitions`` (nested ``[action][from][to]``) and optionally
    ``initial_state`` (a state name or index, default first state).
    Numeric fields hold ints or floats: strings and bools, which Python would
    convert, are errors.  The value scale (max loss + max cost) /
    (1 - discount), which bounds every value, must be finite.

    Raises :class:`ModelValidationError` carrying the full list of
    violations; nothing is silently repaired.
    """
    errors: list[str] = []

    def fail() -> "ModelValidationError":
        return ModelValidationError(errors)

    if not isinstance(raw, Mapping):
        errors.append("model description must be a mapping")
        raise fail()

    for key in ("discount", "states", "actions", "transitions"):
        if key not in raw:
            errors.append(f"missing required key {key!r}")
    if errors:
        raise fail()

    states = [State(*e) for e in _named_amounts(raw, "states", "loss", "direct loss", errors)]
    actions = [Action(*e) for e in _named_amounts(raw, "actions", "cost", "cost", errors)]

    if len(states) == 0:
        errors.append("model needs at least one state")
    if len(actions) == 0:
        errors.append("model needs at least one action")
    if len({s.name for s in states}) != len(states):
        errors.append("state names must be unique")
    if len({a.name for a in actions}) != len(actions):
        errors.append("action names must be unique")

    try:
        discount = _number(raw["discount"])
    except (TypeError, ValueError, OverflowError):
        discount = float("nan")
    if not np.isfinite(discount) or not 0.0 <= discount < 1.0:
        errors.append(f"discount must be a number in [0, 1), got {raw['discount']!r}")
    elif states and actions:
        # Bounds every value and value-iteration iterate; beyond it they overflow.
        loss, cost = max(s.loss for s in states), max(a.cost for a in actions)
        scale = (loss + cost) / (1.0 - discount)
        if np.isfinite(loss) and np.isfinite(cost) and not np.isfinite(scale):
            errors.append(
                "value scale (max loss + max cost) / (1 - discount) is not finite; "
                "express losses and costs in a larger unit"
            )

    n, m = len(states), len(actions)
    trans = _validate_transitions(raw["transitions"], states, actions, errors)
    if trans is not None and n and m:
        finite = np.isfinite(trans).all(axis=2)
        in_range = ((trans >= -ROW_SUM_TOL) & (trans <= 1.0 + ROW_SUM_TOL)).all(axis=2)
        totals = trans.sum(axis=2)
        sums_to_one = np.abs(totals - 1.0) <= ROW_SUM_TOL
        for a, s in zip(*np.nonzero(~(finite & in_range & sums_to_one))):
            where = f"transition row for action {actions[a].name!r} from state {states[s].name!r}"
            if not finite[a, s]:
                errors.append(f"{where} has non-finite entries")
                continue
            if not in_range[a, s]:
                errors.append(f"{where} has entries outside [0, 1]")
            if not sums_to_one[a, s]:
                errors.append(f"{where} sums to {float(totals[a, s])!r}, expected 1")

    initial = raw.get("initial_state", 0)
    initial_index = 0
    if isinstance(initial, str):
        matches = [i for i, s in enumerate(states) if s.name == initial]
        if matches:
            initial_index = matches[0]
        else:
            errors.append(f"initial_state {initial!r} is not a declared state name")
    else:
        try:
            initial_index = int(initial)
        except (TypeError, ValueError, OverflowError):
            initial_index = None
        if isinstance(initial, bool) or initial_index is None or initial_index != initial:
            errors.append(f"initial_state must be a state name or integer index, got {initial!r}")
            initial_index = 0
        elif not 0 <= initial_index < max(n, 1):
            errors.append(f"initial_state index {initial_index} out of range")
            initial_index = 0

    if errors:
        raise fail()

    return MdpModel(
        states=tuple(states),
        actions=tuple(actions),
        transitions=trans,
        discount=discount,
        initial_state=initial_index,
    )


# These convert to floats, but a model file that holds them does not hold numbers.
_NOT_NUMBERS = frozenset({str, bytes, bytearray}) | _BOOLS


def _number(value) -> float:
    """``value`` as a float when it is a number; strings and bools are not."""
    if type(value) in _NOT_NUMBERS:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _named_amounts(raw: Mapping, key: str, field: str, label: str, errors: list[str]):
    """``(name, amount)`` for each entry of ``raw[key]``, reporting malformed ones."""
    found = []
    for i, entry in enumerate(_entry_list(raw, key, errors)):
        try:
            name = str(entry["name"])
            amount = _number(entry[field])
        except (TypeError, KeyError, ValueError, OverflowError):
            errors.append(f"{key}[{i}]: expected {{name, {field}}} with a numeric {field}")
            continue
        if not np.isfinite(amount) or amount < 0.0:
            errors.append(f"{key[:-1]} {name!r}: {label} must be finite and >= 0, got {amount}")
        found.append((name, amount))
    return found


def _sequence(value) -> list | None:
    """``value`` as a list when it is a sequence of entries (not a string or mapping)."""
    if isinstance(value, list):
        return value
    if isinstance(value, (str, bytes, Mapping)):
        return None
    try:
        return list(value)
    except TypeError:
        return None


def _entry_list(raw: Mapping, key: str, errors: list[str]) -> list:
    """``raw[key]`` as a list of entries; otherwise report it and return []."""
    entries = _sequence(raw[key])
    if entries is None:
        errors.append(f"{key}: expected a list of entries, got {type(raw[key]).__name__}")
        return []
    return entries


def _validate_transitions(raw_trans, states, actions, errors) -> np.ndarray | None:
    """Shape-check the nested [action][from][to] array, naming offending blocks."""
    n, m = len(states), len(actions)
    blocks = _sequence(raw_trans)
    if blocks is None:
        errors.append("transitions: expected a nested array [action][from][to]")
        return None
    if len(blocks) != m:
        errors.append(f"transitions: expected {m} action blocks, got {len(blocks)}")
        return None
    matrix = []
    for a, block in enumerate(blocks):
        label = actions[a].name
        rows = _sequence(block)
        if rows is None or len(rows) != n:
            got = "not a sequence" if rows is None else f"{len(rows)} rows"
            errors.append(f"transitions for action {label!r}: expected {n} rows, got {got}")
            continue
        for s, row in enumerate(rows):
            entries = _sequence(row) or ()
            try:
                # Entries that are not numbers drop out and fail the count.
                numbers = [float(x) for x in entries if type(x) not in _NOT_NUMBERS]
            except (TypeError, ValueError, OverflowError):
                numbers = []
            if len(entries) != n or len(numbers) != n:
                errors.append(
                    f"transitions for action {label!r} from state {states[s].name!r}: "
                    f"expected {n} numeric entries"
                )
            else:
                matrix.append(numbers)
    if len(matrix) != n * m:
        return None
    return np.array(matrix, dtype=float).reshape(m, n, n)


def coverage_paid(model: MdpModel, coverage: Coverage) -> np.ndarray:
    """Reimbursement paid in each state, shape (n_states,)."""
    return coverages_paid(model, [coverage])[0]


def coverages_paid(model: MdpModel, coverages: Sequence[Coverage]) -> np.ndarray:
    """Reimbursements of a stack of coverages, shape (len(coverages), n_states).

    Row k is the paid vector of ``coverages[k]``, and the whole stack is one
    array expression: each state's loss times its tier level (low at or
    below the cutoff, high above it).  A linear level is a low tier without
    a cutoff, no insurance a zero level.
    """
    tiers = np.array([_tiers(c) for c in coverages], dtype=float).reshape(-1, 3)
    return _tiers_paid(model, *tiers.T[:, :, None])


def _tiers_paid(model: MdpModel, cutoff, low, high) -> np.ndarray:
    """Paid vectors, shape (K, n_states), of K two-tier coverages given by their tiers.

    ``cutoff``, ``low`` and ``high`` are scalars or (K, 1) columns; row k
    pays each state's loss times ``high[k]`` above ``cutoff[k]`` and
    ``low[k]`` at or below it.
    """
    losses = model.losses
    return np.where(losses > cutoff, high, low) * losses


def _tiers(coverage: Coverage) -> tuple[float, float, float]:
    """``(cutoff, low level, high level)`` of a coverage."""
    if isinstance(coverage, ThresholdCoverage):
        return coverage.cutoff, coverage.low_level, coverage.high_level
    if isinstance(coverage, LinearCoverage):
        return np.inf, coverage.level, 0.0
    if isinstance(coverage, ZeroCoverage):
        return np.inf, 0.0, 0.0
    raise TypeError(f"not a coverage policy: {coverage!r}")


def stage_loss_matrix(model: MdpModel, coverage: Coverage) -> np.ndarray:
    """Effective losses for every (state, action) pair, shape (n_states, n_actions)."""
    retained = model.losses - coverage_paid(model, coverage)
    return retained[:, None] + model.costs[None, :]


def _policy_system(model: MdpModel, policy: ProtectionPolicy, stage: np.ndarray):
    """Transition matrix and stage vector induced by a stationary policy."""
    idx = np.asarray(policy.actions)
    p_pi = model.transitions[idx, np.arange(model.n_states)]
    return p_pi, stage[np.arange(model.n_states), idx]


def evaluate_policy(
    model: MdpModel, policy: ProtectionPolicy, coverage: Coverage
) -> np.ndarray:
    """Exact expected cumulative discounted effective loss per starting state.

    Solves the policy's fixed-point equation
    ``V = stage + discount * P_policy @ V`` as a dense linear system, which is
    nonsingular for any discount < 1.
    """
    model.check_policy(policy)
    stage = stage_loss_matrix(model, coverage)
    p_pi, stage_pi = _policy_system(model, policy, stage)
    n = model.n_states
    return np.linalg.solve(np.eye(n) - model.discount * p_pi, stage_pi)


def decompose_value(
    model: MdpModel, policy: ProtectionPolicy
) -> tuple[np.ndarray, np.ndarray]:
    """Split the uninsured value into direct-loss and protection-cost streams.

    Returns ``(direct, cost)`` where each is the policy value computed with
    only that stage term; their sum equals ``evaluate_policy`` under zero
    coverage.  The direct part is the user's cyber-risk exposure, which is
    what rises when insurance induces weaker protection.  Both streams come
    from one factorisation of the policy's system.
    """
    model.check_policy(policy)
    idx = np.asarray(policy.actions)
    p_pi = model.transitions[idx, np.arange(model.n_states)]
    system = np.eye(model.n_states) - model.discount * p_pi
    both = np.linalg.solve(system, np.column_stack([model.losses, model.costs[idx]]))
    return both[:, 0], both[:, 1]
