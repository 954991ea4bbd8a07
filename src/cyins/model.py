"""Core data model: Markov risk process, coverage functions, policy evaluation.

A user's cyber-risk position evolves as a finite discounted Markov decision
process.  Each state carries a fixed direct monetary loss, each protection
action a fixed cost, and the chosen action shapes the transition
probabilities.  An insurance coverage function reimburses part of the direct
loss, so the per-stage "effective loss" is

    loss(state) - coverage(loss(state)) + cost(action).

Everything in this module is immutable after construction and safe to share
across threads.  Policy evaluation is one factorisation per policy,
:func:`_policy_streams`, which doubles as an oracle for the iterative solvers.
"""

from __future__ import annotations

import math
import numbers
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
    "evaluate_policy",
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


def _check_real(name: str, value) -> None:
    """Raise a TypeError that names ``name`` unless ``value`` is a real number."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")


def _check_integer(name: str, value) -> None:
    """Raise a TypeError that names ``name`` unless ``value`` is an integer."""
    # A bool is an Integral, but True is not a count, a seed or an action.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _check_tiers(low_level, high_level) -> None:
    """Raise unless both tier levels are real numbers in [0, 1], in either order.

    The one rule for two-tier coverage, of a :class:`ThresholdCoverage` and
    of a threshold sweep alike: a low tier above the high one is a valid
    contract.
    """
    for label, level in (("low_level", low_level), ("high_level", high_level)):
        _check_real(label, level)
        if not 0.0 <= level <= 1.0:
            raise ValueError(f"{label} must be in [0, 1], got {level}")


@dataclass(frozen=True)
class ZeroCoverage:
    """No insurance: every loss is borne in full."""


@dataclass(frozen=True)
class LinearCoverage:
    """Proportional coverage: a loss x is reimbursed level * x."""

    level: float

    def __post_init__(self):
        _check_real("level", self.level)
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
        _check_real("cutoff", self.cutoff)
        if not math.isfinite(self.cutoff) or self.cutoff < 0.0:
            raise ValueError(f"cutoff must be finite and non-negative, got {self.cutoff}")
        _check_tiers(self.low_level, self.high_level)


Coverage = Union[ZeroCoverage, LinearCoverage, ThresholdCoverage]


@dataclass(frozen=True)
class ProtectionPolicy:
    """Stationary policy: one action index per state, in state order.

    Each action is an integer, a Python or a numpy one, and is kept as an int.
    """

    actions: tuple[int, ...]

    def __post_init__(self):
        actions = tuple(self.actions)
        for s, a in enumerate(actions):
            _check_integer(f"policy action at state {s}", a)
        object.__setattr__(self, "actions", tuple(int(a) for a in actions))


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
    ``initial_state`` (a state name or index, default first state).  Names
    are unique non-empty strings without ``,``, ``|`` or line breaks, which
    would split a CSV row or a policy label.  Numeric fields hold ints or
    floats: strings and bools, which Python would convert, are errors.  The
    value scale (max loss + max cost) / (1 - discount) must be finite.

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

    state_entries = _named_amounts(raw, "states", "loss", "direct loss", errors)
    action_entries = _named_amounts(raw, "actions", "cost", "cost", errors)
    states = [State(*e) for e in state_entries if e]
    actions = [Action(*e) for e in action_entries if e]

    if len(states) == 0:
        errors.append("model needs at least one state")
    if len(actions) == 0:
        errors.append("model needs at least one action")

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

    # Declared entries, so a malformed one shifts no other entry's index.
    n, m = len(state_entries), len(action_entries)
    state_labels, action_labels = _labels(state_entries, "states"), _labels(action_entries, "actions")
    trans = _validate_transitions(raw["transitions"], state_labels, action_labels, errors)
    if trans is not None and n and m:
        finite = np.isfinite(trans).all(axis=2)
        in_range = ((trans >= -ROW_SUM_TOL) & (trans <= 1.0 + ROW_SUM_TOL)).all(axis=2)
        totals = trans.sum(axis=2)
        sums_to_one = np.abs(totals - 1.0) <= ROW_SUM_TOL
        for a, s in zip(*np.nonzero(~(finite & in_range & sums_to_one))):
            where = f"transition row for action {action_labels[a]} from state {state_labels[s]}"
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
        # Declared entries, so a state whose loss is malformed (its own
        # error) is still a declared name.
        names = [e.get("name") if isinstance(e, Mapping) else None for e in _sequence(raw["states"]) or []]
        matches = [i for i, name in enumerate(names) if isinstance(name, str) and name == initial]
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


# A bool converts to 0 or 1 and a numeric string to its number, but a model
# file or a sweep grid that holds them does not hold numbers.
_NOT_NUMBERS = frozenset({bool, np.bool_, str, bytes, bytearray, np.str_, np.bytes_})


def _number(value) -> float:
    """``value`` as a float when it is a number; strings and bools are not."""
    if type(value) in _NOT_NUMBERS:
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _named_amounts(raw: Mapping, key: str, field: str, label: str, errors: list[str]):
    """``(name, amount)`` for each entry of ``raw[key]``; None for a malformed one, reported."""
    found = []
    for i, entry in enumerate(_entry_list(raw, key, errors)):
        try:
            name = entry["name"]
            amount = _number(entry[field])
        except (TypeError, KeyError, ValueError, OverflowError):
            errors.append(f"{key}[{i}]: expected {{name, {field}}} with a numeric {field}")
            found.append(None)
            continue
        # An empty name splits into no lines.
        if not isinstance(name, str) or name.splitlines() != [name] or {",", "|"} & set(name):
            rule = "a non-empty string without ',', '|' or line breaks"
            errors.append(f"{key}[{i}]: name must be {rule}, got {name!r}")
        if not np.isfinite(amount) or amount < 0.0:
            errors.append(f"{key[:-1]} {name!r}: {label} must be finite and >= 0, got {amount}")
        found.append((name, amount))
    # Only a string name can repeat one: any other is already an error.
    names = [e[0] for e in found if e and isinstance(e[0], str)]
    if len(set(names)) != len(names):
        errors.append(f"{key[:-1]} names must be unique")
    return found


def _labels(entries: list, key: str) -> list[str]:
    """Each named entry's name as it reads in an error, a malformed one's position."""
    return [repr(e[0]) if e else f"{key}[{i}]" for i, e in enumerate(entries)]


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
    """Shape-check the nested [action][from][to] array, naming offending blocks by
    the ``states`` and ``actions`` labels of :func:`_labels`."""
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
        label = actions[a]
        rows = _sequence(block)
        if rows is None or len(rows) != n:
            got = "not a sequence" if rows is None else f"{len(rows)} rows"
            errors.append(f"transitions for action {label}: expected {n} rows, got {got}")
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
                    f"transitions for action {label} from state {states[s]}: "
                    f"expected {n} numeric entries"
                )
            else:
                matrix.append(numbers)
    if len(matrix) != n * m:
        return None
    return np.array(matrix, dtype=float).reshape(m, n, n)


def coverage_paid(model: MdpModel, coverage: Coverage) -> np.ndarray:
    """Reimbursement paid in each state, shape (n_states,).

    Each state's loss times its tier level: low at or below the cutoff,
    high above it.
    """
    return _tiers_paid(model, *np.array(_tiers(coverage), dtype=float))


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


def _policy_streams(model: MdpModel, actions: np.ndarray, *stages: np.ndarray) -> np.ndarray:
    """Streams of the policy ``actions`` (N,), shape (N, L + 1): one per stage vector, then the cost's.

    Every stream solves ``(I - discount * P_policy) V = stage``, nonsingular
    for any discount < 1, and all of them are the right-hand sides of one
    factorisation; a value is its retained-loss plus its cost stream.
    """
    n = model.n_states
    system = np.eye(n) - model.discount * model.transitions[actions, np.arange(n)]
    return np.linalg.solve(system, np.stack((*stages, model.costs[actions]), axis=-1))


def evaluate_policy(
    model: MdpModel, policy: ProtectionPolicy, coverage: Coverage
) -> np.ndarray:
    """Exact expected cumulative discounted effective loss per starting state.

    The sum of the policy's retained-loss and protection-cost streams
    (:func:`_policy_streams`) under ``coverage``.
    """
    model.check_policy(policy)
    retained = model.losses - coverage_paid(model, coverage)
    return _policy_streams(model, np.array(policy.actions), retained).sum(axis=1)

