"""Exact closed forms for the two-state / two-action model under linear coverage.

For a user with a good and a bad risk state and a strong and a weak
protection, the optimal stationary policy under proportional coverage can be
read off the signs of four affine "action value gap" functions of the
coverage level.  This module implements those closed forms: the per-policy
value formulas, the gap function and its sign logic, the case classification
of how the optimal policy degrades as coverage rises, the zero-profit optimal
contract, and the coverage intervals on which insurance strictly raises the
user's cyber-risk exposure (the Peltzman effect).

Every quantity here is independently checkable against the numeric solvers;
the test suite does so systematically.

Conventions: the *good* state is the one with the strictly smaller direct
loss, the *strong* action the one with the strictly larger cost.  A gap value
of exactly zero is resolved in favor of the weak action, so every interval of
the classification is closed on the left and open on the right (the final
interval closes at coverage level 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import MdpModel, ProtectionPolicy

__all__ = [
    "CaseClassification",
    "IdentityReport",
    "OptimalContract",
    "PolicySegment",
    "TwoStateModel",
    "action_value_gap",
    "classify_case",
    "closed_form_policy",
    "closed_form_value",
    "cost_coefficient",
    "identity_residuals",
    "loss_coefficient",
    "optimal_contract",
    "peltzman_regions",
    "transition_determinant",
    "transition_shift",
]

# Magnitudes below this (relative to term scale) are treated as exact zeros
# when only a sign decision depends on them.
SIGN_SNAP = 1e-12

BOUNDARY_NOTE = (
    "switch levels are excluded from the optimal-contract interval: with the "
    "weak-action tie rule the policy has already changed at the exact switch "
    "level, so the insurer's profit there is negative; closed-interval "
    "reporting would include the switch level with the same premium formula"
)


@dataclass(frozen=True, eq=False)
class TwoStateModel:
    """A validated 2-state / 2-action model with the role of each index resolved.

    Wraps the general :class:`MdpModel` so closed-form results stay directly
    comparable with the numeric solvers: policies are reported in the wrapped
    model's own state and action order.
    """

    model: MdpModel
    good: int
    bad: int
    weak: int
    strong: int

    @classmethod
    def from_model(cls, model: MdpModel) -> "TwoStateModel":
        if model.n_states != 2 or model.n_actions != 2:
            raise ValueError("analytic engine requires two states and two actions")
        losses = model.losses
        costs = model.costs
        good = int(np.argmin(losses))
        bad = 1 - good
        weak = int(np.argmin(costs))
        strong = 1 - weak
        problems = []
        if not losses[good] < losses[bad]:
            problems.append("state losses must differ (one good, one bad state)")
        if not costs[weak] < costs[strong]:
            problems.append("action costs must differ (one weak, one strong protection)")
        p = model.transitions
        for s in (good, bad):
            if not p[strong, s, bad] < p[weak, s, bad]:
                problems.append(
                    f"strong protection must make the bad state strictly less "
                    f"likely from state {model.states[s].name!r}"
                )
        if problems:
            raise ValueError("; ".join(problems))
        return cls(model=model, good=good, bad=bad, weak=weak, strong=strong)

    @property
    def discount(self) -> float:
        return self.model.discount

    @property
    def loss_good(self) -> float:
        return self.model.states[self.good].loss

    @property
    def loss_bad(self) -> float:
        return self.model.states[self.bad].loss

    @property
    def cost_weak(self) -> float:
        return self.model.actions[self.weak].cost

    @property
    def cost_strong(self) -> float:
        return self.model.actions[self.strong].cost

    def p(self, state: int, action: int, target: int) -> float:
        return float(self.model.transitions[action, state, target])

    def policy(self, action_good: int, action_bad: int) -> ProtectionPolicy:
        """Assemble a policy in the wrapped model's state order."""
        assignment = [0, 0]
        assignment[self.good] = action_good
        assignment[self.bad] = action_bad
        return ProtectionPolicy(tuple(assignment))


@dataclass(frozen=True)
class PolicySegment:
    """Coverage-level interval [lo, hi) carrying one optimal policy.

    The final segment of a classification is closed at hi = 1.
    """

    lo: float
    hi: float
    policy: ProtectionPolicy


@dataclass(frozen=True)
class CaseClassification:
    """How the optimal policy degrades as the coverage level rises.

    ``case_id`` is one of Case1, Case2, Case3, Case4a, Case4b, Case4c.
    ``thresholds`` maps the switch-level names R_G (good-state switch), R_B
    (bad-state switch) and R_s (simultaneous switch) to their levels; only the
    thresholds present in the case appear.  ``segments`` partition [0, 1].
    """

    case_id: str
    rho: float
    thresholds: dict[str, float]
    segments: tuple[PolicySegment, ...]


@dataclass(frozen=True)
class OptimalContract:
    """Zero-profit contract family for a two-state model.

    Premiums are proportional to the coverage level: premium(R) =
    premium_rate * R on [0, level_sup).  ``sup_included`` records whether the
    supremum level itself is part of the reported interval (it is only when
    no policy switch occurs at all, i.e. level_sup == 1).
    """

    level_sup: float
    sup_included: bool
    premium_rate: float
    classification: CaseClassification
    profit: float = 0.0
    note: str = BOUNDARY_NOTE

    def premium(self, level: float) -> float:
        return self.premium_rate * level


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the algebraic identities tying gaps, shifts and value formulas."""

    residuals: dict[str, float]

    @property
    def max_abs(self) -> float:
        return max(abs(v) for v in self.residuals.values())


def _hat(ts: TwoStateModel, state: int, action: int, target: int) -> float:
    """Discounted transition term: 1 - d*p on the diagonal, d*p off it."""
    p = ts.p(state, action, target)
    if target == state:
        return 1.0 - ts.discount * p
    return ts.discount * p


def transition_determinant(ts: TwoStateModel, action_good: int, action_bad: int) -> float:
    """Determinant of the discounted policy system; strictly positive for discount < 1."""
    return (
        _hat(ts, ts.good, action_good, ts.good) * _hat(ts, ts.bad, action_bad, ts.bad)
        - _hat(ts, ts.good, action_good, ts.bad) * _hat(ts, ts.bad, action_bad, ts.good)
    )


def loss_coefficient(ts: TwoStateModel, state: int, action_good: int, action_bad: int) -> float:
    """Coverage-sensitive part of the closed-form value at ``state``.

    The policy value under coverage level R is
    (1 - R) * loss_coefficient + cost_coefficient.
    """
    other = ts.bad if state == ts.good else ts.good
    numer = (
        _hat(ts, ts.bad, action_bad, other) * ts.loss_good
        + _hat(ts, ts.good, action_good, other) * ts.loss_bad
    )
    return numer / transition_determinant(ts, action_good, action_bad)


def cost_coefficient(ts: TwoStateModel, state: int, action_good: int, action_bad: int) -> float:
    """Coverage-insensitive (protection cost) part of the closed-form value."""
    other = ts.bad if state == ts.good else ts.good
    costs = ts.model.costs
    numer = (
        _hat(ts, ts.bad, action_bad, other) * costs[action_good]
        + _hat(ts, ts.good, action_good, other) * costs[action_bad]
    )
    return numer / transition_determinant(ts, action_good, action_bad)


def closed_form_value(
    ts: TwoStateModel, state: int, action_here: int, action_other: int, level: float
) -> float:
    """Exact policy value at ``state`` when it plays ``action_here`` and the
    other state plays ``action_other``, under linear coverage ``level``.

    Matches :func:`cyins.model.evaluate_policy` of the corresponding policy to
    machine precision.
    """
    if state == ts.good:
        action_good, action_bad = action_here, action_other
    else:
        action_good, action_bad = action_other, action_here
    return (1.0 - level) * loss_coefficient(ts, state, action_good, action_bad) + \
        cost_coefficient(ts, state, action_good, action_bad)


def _gap_line(ts: TwoStateModel, state: int, other_action: int) -> tuple[float, float]:
    """``(slope, intercept)`` of :func:`action_value_gap` at ``state``: at
    coverage level R the gap is (1 - R) * slope + intercept."""
    other = ts.bad if state == ts.good else ts.good
    d = ts.discount
    slope = (
        d
        * (ts.p(state, ts.strong, other) - ts.p(state, ts.weak, other))
        * (ts.model.states[other].loss - ts.model.states[state].loss)
    )
    intercept = (
        1.0
        - d
        + d * ts.p(ts.bad, other_action, ts.good)
        + d * ts.p(ts.good, other_action, ts.bad)
    ) * (ts.cost_strong - ts.cost_weak)
    return slope, intercept


def action_value_gap(ts: TwoStateModel, state: int, other_action: int, level: float) -> float:
    """Scaled difference between the strong- and weak-action values at ``state``.

    Positive (or zero) means the weak protection is optimal at ``state``
    given that the other state plays ``other_action``; negative means the
    strong protection is optimal.  Affine and strictly increasing in the
    coverage level.
    """
    slope, intercept = _gap_line(ts, state, other_action)
    return (1.0 - level) * slope + intercept


def transition_shift(ts: TwoStateModel) -> float:
    """Net shift in cross-state transition mass between the strong and weak actions.

    Its sign decides whether the good or the bad state abandons strong
    protection first as coverage rises.
    """
    return (
        ts.p(ts.bad, ts.strong, ts.good)
        + ts.p(ts.good, ts.strong, ts.bad)
        - ts.p(ts.bad, ts.weak, ts.good)
        - ts.p(ts.good, ts.weak, ts.bad)
    )


def _snap(value: float, scale: float = 1.0) -> float:
    if abs(value) <= SIGN_SNAP * (1.0 + abs(scale)):
        return 0.0
    return value


def _gap_sign(ts: TwoStateModel, state: int, other_action: int, level: float) -> float:
    """Gap value with tiny magnitudes snapped to an exact zero for sign decisions."""
    raw = action_value_gap(ts, state, other_action, level)
    scale = (ts.loss_bad - ts.loss_good) + (ts.cost_strong - ts.cost_weak)
    return _snap(raw, scale)


def closed_form_policy(ts: TwoStateModel, level: float) -> ProtectionPolicy:
    """Unique optimal policy at linear coverage ``level`` from the gap signs.

    A zero gap resolves to the weak action, matching the numeric solvers'
    cheaper-action tie rule.
    """
    if not 0.0 <= level <= 1.0:
        raise ValueError(f"coverage level must be in [0, 1], got {level}")
    g, b = ts.good, ts.bad
    w, s = ts.weak, ts.strong
    gap_g_s = _gap_sign(ts, g, s, level)
    gap_g_w = _gap_sign(ts, g, w, level)
    gap_b_s = _gap_sign(ts, b, s, level)
    gap_b_w = _gap_sign(ts, b, w, level)

    matches = []
    if gap_g_w >= 0.0 and gap_b_w >= 0.0:
        matches.append((w, w))
    if gap_g_s >= 0.0 and gap_b_w < 0.0:
        matches.append((w, s))
    if gap_g_w < 0.0 and gap_b_s >= 0.0:
        matches.append((s, w))
    if gap_g_s < 0.0 and gap_b_s < 0.0:
        matches.append((s, s))
    if len(matches) != 1:
        raise AssertionError(
            f"gap sign pattern did not single out a policy at level {level}: {matches}"
        )
    action_good, action_bad = matches[0]
    return ts.policy(action_good, action_bad)


def _switch_level(ts: TwoStateModel, state: int, other_action: int) -> float:
    """Root of the gap function in the coverage level, from its :func:`_gap_line`.

    :func:`classify_case` asks only for the switch of a state that plays the
    strong action at zero coverage.  There its gap at level 0, given the
    other state's zero-coverage action, is ``slope + intercept`` in this
    very arithmetic and negative, while every ``intercept`` is >= 0 (the
    strong action costs more), so ``slope < 0``.
    """
    slope, intercept = _gap_line(ts, state, other_action)
    return 1.0 + intercept / slope


def classify_case(ts: TwoStateModel) -> CaseClassification:
    """Classify how the optimal policy responds to rising coverage.

    The case id is fixed by the zero-coverage optimal policy (and, when both
    states start strong, by the sign of the transition shift); the thresholds
    are the exact roots of the governing gap functions.  Segments partition
    [0, 1]; thresholds that fall outside (0, 1) simply never generate a
    segment boundary (the earlier regime covers the rest of the range).
    """
    g, b = ts.good, ts.bad
    w, s = ts.weak, ts.strong
    rho = _snap(transition_shift(ts))
    baseline = closed_form_policy(ts, 0.0)
    base_g = baseline.actions[g]
    base_b = baseline.actions[b]

    thresholds: dict[str, float] = {}
    if base_g == w and base_b == w:
        case_id = "Case1"
    elif base_g == s and base_b == w:
        case_id = "Case2"
        thresholds["R_G"] = _switch_level(ts, g, w)
    elif base_g == w and base_b == s:
        case_id = "Case3"
        thresholds["R_B"] = _switch_level(ts, b, w)
    elif rho < 0.0:
        case_id = "Case4a"
        thresholds["R_B"] = _switch_level(ts, b, s)
        thresholds["R_G"] = _switch_level(ts, g, w)
    elif rho > 0.0:
        case_id = "Case4b"
        thresholds["R_G"] = _switch_level(ts, g, s)
        thresholds["R_B"] = _switch_level(ts, b, w)
    else:
        case_id = "Case4c"
        thresholds["R_s"] = _switch_level(ts, g, s)

    cuts = sorted(t for t in thresholds.values() if 0.0 < t < 1.0)
    bounds = [0.0, *cuts, 1.0]
    segments = tuple(
        PolicySegment(lo=lo, hi=hi, policy=closed_form_policy(ts, lo))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )
    return CaseClassification(
        case_id=case_id, rho=rho, thresholds=thresholds, segments=segments
    )


def optimal_contract(ts: TwoStateModel) -> OptimalContract:
    """Insurer-optimal linear contract family: zero profit, premium linear in coverage.

    The optimal coverage levels are exactly those that leave the user's
    no-insurance policy unchanged; on that interval the maximum premium is
    the coverage level times the loss coefficient of the good state under the
    baseline policy, and the insurer's operating profit is identically zero.
    """
    classification = classify_case(ts)
    baseline = classification.segments[0].policy
    rate = loss_coefficient(
        ts, ts.good, baseline.actions[ts.good], baseline.actions[ts.bad]
    )
    first = classification.segments[0]
    sup_included = len(classification.segments) == 1
    return OptimalContract(
        level_sup=first.hi,
        sup_included=sup_included,
        premium_rate=rate,
        classification=classification,
    )


def peltzman_regions(ts: TwoStateModel) -> tuple[tuple[float, float], ...]:
    """Closed coverage intervals on which insurance strictly raises cyber risk.

    On each returned interval the optimal policy differs from the
    no-insurance policy, so the expected cumulative *direct* losses strictly
    exceed their no-insurance level.  Empty when the policy never changes.
    """
    classification = classify_case(ts)
    if len(classification.segments) == 1:
        return ()
    return ((classification.segments[1].lo, 1.0),)


def identity_residuals(ts: TwoStateModel, level: float) -> IdentityReport:
    """Check the algebraic identities linking gaps, the transition shift and values.

    The four pairwise gap differences collapse to multiples of the transition
    shift, and each strong-minus-weak value difference factors into a positive
    coefficient times the corresponding gap.  All residuals should sit at
    rounding level for any valid model.
    """
    g, b = ts.good, ts.bad
    w, s = ts.weak, ts.strong
    d = ts.discount
    rho = transition_shift(ts)
    d_cost = ts.cost_strong - ts.cost_weak
    d_loss = ts.loss_bad - ts.loss_good

    def gap(state, other_action):
        return action_value_gap(ts, state, other_action, level)

    res: dict[str, float] = {
        "gap_action_diff_good": (gap(g, s) - gap(g, w)) - rho * d * d_cost,
        "gap_action_diff_bad": (gap(b, s) - gap(b, w)) - rho * d * d_cost,
        "gap_state_diff_strong": (gap(g, s) - gap(b, s)) - rho * d * (1.0 - level) * d_loss,
        "gap_state_diff_weak": (gap(g, w) - gap(b, w)) - rho * d * (1.0 - level) * d_loss,
        "gap_cross_strong_weak": (gap(g, s) - gap(b, w))
        - rho * d * (d_cost + (1.0 - level) * d_loss),
        "gap_cross_weak_strong": (gap(b, s) - gap(g, w))
        - rho * d * (d_cost - (1.0 - level) * d_loss),
    }

    for other_action, tag in ((s, "strong"), (w, "weak")):
        diff_good = closed_form_value(ts, g, s, other_action, level) - closed_form_value(
            ts, g, w, other_action, level
        )
        coef_good = (
            (1.0 - d)
            * _hat(ts, b, other_action, b)
            / (
                transition_determinant(ts, s, other_action)
                * transition_determinant(ts, w, other_action)
            )
        )
        res[f"value_gap_factorization_good_{tag}"] = diff_good - coef_good * gap(g, other_action)

        diff_bad = closed_form_value(ts, b, s, other_action, level) - closed_form_value(
            ts, b, w, other_action, level
        )
        coef_bad = (
            (1.0 - d)
            * _hat(ts, g, other_action, g)
            / (
                transition_determinant(ts, other_action, s)
                * transition_determinant(ts, other_action, w)
            )
        )
        res[f"value_gap_factorization_bad_{tag}"] = diff_bad - coef_bad * gap(b, other_action)

    return IdentityReport(residuals=res)
