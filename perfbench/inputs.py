"""Seeded workload inputs, generated with the standard library only.

The set-up probe imports this module in a fresh interpreter *before* it
starts its clock, so nothing here may import numpy or cyins.  The stdlib
Mersenne Twister is used because its streams are stable across Python and
numpy versions, which keeps recorded digests valid.

Each workload is a repeated *unit* (a round of studies, a deck of quotes, a
deck of estimates).  A unit's composition is fixed (which discounts, which
model sizes), and only its contents come from the seed, so every seed costs
about the same and the run-to-run spread stays small.
"""

from __future__ import annotations

import random

# Model decks prepared (and validated) during set-up; unit k uses deck
# k % POOL_DECKS, so a run repeats a model only after this many units.
POOL_DECKS = 16

# point_queries: one deck of quotes, in this order.  1 - discount spans 1e-1
# to 1e-4; the 0.9999 quote is the one value iteration cannot finish within
# max_iter.  Five quotes sit at 0.99 so the median quote falls inside a block
# of equals, and they are spread through the deck so the median samples the
# whole deck's time, not one moment of it.
QUOTE_DISCOUNTS = (
    0.99, 0.9, 0.97, 0.997, 0.99, 0.9, 0.999, 0.99, 0.9999,
    0.99, 0.97, 0.997, 0.9, 0.999, 0.99, 0.97, 0.997,
)
QUOTE_STATES = (9, 16)
QUOTE_ACTIONS = (3, 4)

# mc_oracle: one deck of estimates, (model, estimator).  Bundled models by
# file name, random ones by state count.  All use discount 0.9 (horizon 132).
MC_SLOTS = (
    ("two_state.model", "value"),
    ("two_state.model", "coverage_paid"),
    ("four_state.model", "value"),
    ("four_state.model", "coverage_paid"),
    (8, "value"),
    (12, "coverage_paid"),
    (16, "value"),
    (16, "coverage_paid"),
)
MC_ACTIONS = 3
MC_DISCOUNT = 0.9
MC_SAMPLES = 100_000

BUNDLED = ("two_state.model", "four_state.model")

# Bundled models each workload loads during set-up.
SETUP_BUNDLED = {"paper_studies": BUNDLED, "point_queries": (), "mc_oracle": BUNDLED}


def rng_for(*key: int) -> random.Random:
    """An independent stream for one (seed, ...) key."""
    return random.Random(",".join(str(int(k)) for k in key))


def random_raw_model(rng: random.Random, n_states: int, n_actions: int, discount: float) -> dict:
    """A valid raw model mapping: state 0 loses nothing, stronger actions cost more
    and push more probability towards state 0."""
    losses = [0.0] + [round(rng.uniform(0.5, 20.0), 6) for _ in range(n_states - 1)]
    costs = [0.0] + sorted(round(rng.uniform(0.05, 2.0), 6) for _ in range(n_actions - 1))
    transitions = []
    for a in range(n_actions):
        block = []
        for _ in range(n_states):
            weights = [0.05 + rng.random() for _ in range(n_states)]
            weights[0] += 1.5 * a
            total = sum(weights)
            block.append([w / total for w in weights])
        transitions.append(block)
    return {
        "discount": discount,
        "states": [{"name": f"S{i}", "loss": x} for i, x in enumerate(losses)],
        "actions": [{"name": f"A{i}", "cost": c} for i, c in enumerate(costs)],
        "transitions": transitions,
    }


def quote_raws(seed: int) -> list[list[dict]]:
    """POOL_DECKS decks of raw models, one per QUOTE_DISCOUNTS slot."""
    decks = []
    for d in range(POOL_DECKS):
        rng = rng_for(seed, 1, d)
        decks.append([
            random_raw_model(rng, rng.randint(*QUOTE_STATES), rng.randint(*QUOTE_ACTIONS), discount)
            for discount in QUOTE_DISCOUNTS
        ])
    return decks


def quote_coverage(seed: int, unit: int, slot: int, max_loss: float) -> dict:
    """The contract priced by one quote: a linear level or a two-tier cutoff."""
    rng = rng_for(seed, 2, unit, slot)
    if rng.random() < 0.5:
        return {"family": "linear", "level": rng.uniform(0.05, 1.0)}
    low = rng.uniform(0.0, 0.5)
    return {
        "family": "threshold",
        "cutoff": rng.uniform(0.0, 1.25 * max_loss),
        "low": low,
        "high": rng.uniform(low, 1.0),
    }


def mc_raws(seed: int) -> list[list[dict | None]]:
    """POOL_DECKS decks with a raw model for each random MC slot (None for bundled)."""
    decks = []
    for d in range(POOL_DECKS):
        rng = rng_for(seed, 3, d)
        decks.append([
            random_raw_model(rng, source, MC_ACTIONS, MC_DISCOUNT) if isinstance(source, int) else None
            for source, _ in MC_SLOTS
        ])
    return decks


def mc_draw(seed: int, deck: int, slot: int, n_states: int, n_actions: int) -> tuple[tuple[int, ...], float]:
    """Policy and linear coverage level for one pool slot."""
    rng = rng_for(seed, 4, deck, slot)
    policy = tuple(rng.randrange(n_actions) for _ in range(n_states))
    return policy, rng.uniform(0.1, 0.9)


def mc_seed(seed: int, unit: int, slot: int) -> int:
    """Philox seed of one estimate: fresh for every unit, so no estimate repeats."""
    return rng_for(seed, 5, unit, slot).getrandbits(63)


def setup_raws(workload: str, seed: int) -> list[dict]:
    """Every raw mapping the workload validates during set-up, in order."""
    if workload == "point_queries":
        return [raw for deck in quote_raws(seed) for raw in deck]
    if workload == "mc_oracle":
        return [raw for deck in mc_raws(seed) for raw in deck if raw is not None]
    return []
