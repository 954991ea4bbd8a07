"""An exact oracle: a policy's values and action-value gaps in rational arithmetic.

Every float of a stored model is an exact binary rational, so
:class:`fractions.Fraction` evaluates the stored model with no rounding at
all.  A policy's values solve (I - discount * P_policy) V = stage, here by
Gaussian elimination on Fractions; its gap at (s, a) is Q(s, a) - V(s), the
one-step lookahead on those values minus the value.  A policy is optimal
exactly when no gap is negative (the policy-iteration optimality condition),
and it is the tie rule's choice when, besides, no action before its own in
the tie order (the cheaper, then the lower index) has a zero gap.

Under linear coverage at level R a policy's values are (1 - R) * D + C, for
its direct-loss and cost streams D and C, so each of its gaps is the affine
(1 - R) * A + B, and the level where the policy stops being optimal is the
exact root of a gap.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from cyins.model import LinearCoverage, MdpModel, _tiers


def retained_losses(model: MdpModel, coverage) -> list[Fraction]:
    """What the user bears of each state's loss under ``coverage``, exactly.

    A state's loss times one minus its tier level: the high tier above the
    cutoff, the low tier at or below it (a linear level is a low tier
    without a cutoff, no insurance a zero level).
    """
    cutoff, low, high = _tiers(coverage)
    return [
        Fraction(loss) * (1 - Fraction(high if loss > cutoff else low))
        for loss in model.losses.tolist()
    ]


def policy_values(model: MdpModel, actions, retained) -> list[Fraction]:
    """The exact values of the policy ``actions`` (N,) that bears ``retained`` (N,)."""
    n, delta = model.n_states, Fraction(model.discount)
    costs = [Fraction(c) for c in model.costs.tolist()]
    rows = []
    for s, a in enumerate(actions):
        row = [-delta * Fraction(p) for p in model.transitions[a, s].tolist()]
        row[s] += 1
        rows.append(row + [retained[s] + costs[a]])
    # I - discount * P is strictly diagonally dominant, so no pivot is zero.
    for col in range(n):
        pivot = rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col] / pivot[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], pivot)]
    return [rows[s][n] / rows[s][s] for s in range(n)]


def gaps(model: MdpModel, actions, retained) -> tuple[list[Fraction], np.ndarray]:
    """The policy's exact values (N,) and action-value gaps (N, M), as Fractions."""
    values = policy_values(model, actions, retained)
    delta = Fraction(model.discount)
    costs = [Fraction(c) for c in model.costs.tolist()]
    gap = np.empty((model.n_states, model.n_actions), dtype=object)
    for a, block in enumerate(model.transitions.tolist()):
        for s, row in enumerate(block):
            future = sum(Fraction(p) * v for p, v in zip(row, values))
            gap[s, a] = retained[s] + costs[a] + delta * future - values[s]
    return values, gap


def tie_rule_optimal(model: MdpModel, actions, retained) -> bool:
    """Whether the policy ``actions`` bearing ``retained`` is exactly the tie rule's optimal policy."""
    _, gap = gaps(model, actions, retained)
    costs = model.costs.tolist()
    return all(
        gap[s, a] > 0 or (gap[s, a] == 0 and (costs[a], a) >= (costs[own], own))
        for s, own in enumerate(actions)
        for a in range(model.n_actions)
    )


def linear_lines(model: MdpModel, actions) -> tuple[np.ndarray, np.ndarray, list, list]:
    """The exact gap lines A, B (N, M) and streams D, C (N,) of the policy
    ``actions`` under linear coverage: at level R its gaps are
    (1 - R) * A + B and its values (1 - R) * D + C."""
    at_0, gaps_0 = gaps(model, actions, retained_losses(model, LinearCoverage(0.0)))
    cost, gaps_1 = gaps(model, actions, retained_losses(model, LinearCoverage(1.0)))
    return gaps_0 - gaps_1, gaps_1, [v - c for v, c in zip(at_0, cost)], cost


def linear_switch(lines, start: float, stop: float) -> tuple[Fraction, Fraction | None]:
    """The exact level between ``start`` and ``stop`` where a policy with
    gap ``lines`` (A, B), optimal at ``start``, stops being optimal, and
    that gap's A.

    A gap negative at ``stop`` but not at ``start`` turns negative at its
    root 1 + B / A; the switch is the root nearest ``start``.  When no gap
    is negative at ``stop`` the policy is optimal there too, and the switch
    is ``(stop, None)``.
    """
    start, stop = Fraction(start), Fraction(stop)
    roots = [(1 + b / a, a) for a, b in zip(*(line.ravel() for line in lines)) if (1 - stop) * a + b < 0]
    if not roots:
        return stop, None
    nearest = min if stop > start else max
    return nearest(roots, key=lambda root: root[0])
