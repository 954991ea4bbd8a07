"""Trajectory simulation: a statistical cross-check on the exact evaluators.

Simulates the state process under a fixed stationary policy and estimates
discounted cumulative quantities by sample averaging.  The random source is
the counter-based Philox generator keyed on (seed, batch index), and
categorical sampling is cumulative-probability inversion in fixed state
order, so estimates are bit-reproducible across platforms and identical
whether batches run serially or in parallel.

The inversion is a vectorised binary search over each cumulative row, padded
once per call to a power-of-two width.  On rows of non-negative
probabilities it returns exactly the state the plain comparison sum
``(draws[:, None] >= cum[states]).sum(axis=1)`` picks, without building a
samples x states temporary at every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Coverage, MdpModel, ProtectionPolicy, coverage_paid, stage_loss_matrix

__all__ = [
    "BATCH_SIZE",
    "SimulationConfig",
    "config_for",
    "simulate_coverage_paid",
    "simulate_value",
]

# Trajectories per random stream; part of the reproducibility contract.
BATCH_SIZE = 65536


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed simulation plan: horizon, sample count, seed and truncation slack.

    ``truncation_tol`` is the absolute bound on the discarded discounted tail,
    i.e. the horizon must satisfy
    discount**horizon * max_stage_loss / (1 - discount) <= truncation_tol.
    Use :func:`config_for` to derive a compliant horizon from a model.
    """

    horizon: int
    samples: int
    seed: int
    truncation_tol: float

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        # One sample has no standard error.
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        # The seed keys Philox streams as an unsigned 64-bit word.
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")


def config_for(
    model: MdpModel,
    samples: int,
    seed: int,
    rel_tol: float = 1e-6,
) -> SimulationConfig:
    """Build a config whose horizon truncates at ``rel_tol`` of the value scale.

    The value scale is the worst uninsured stage loss over 1 - discount; the
    geometric tail bound then gives horizon = ceil(log rel_tol / log discount).
    """
    delta = model.discount
    max_stage = float(model.losses.max() + model.costs.max())
    scale = max_stage / (1.0 - delta) if max_stage > 0.0 else 1.0
    if delta <= 0.0:
        horizon = 1
    else:
        horizon = max(1, math.ceil(math.log(rel_tol) / math.log(delta)))
    return SimulationConfig(
        horizon=horizon,
        samples=samples,
        seed=seed,
        truncation_tol=rel_tol * scale,
    )


def _inversion_table(p_pi: np.ndarray) -> tuple[np.ndarray, int]:
    """Cumulative transition rows padded to a power-of-two width, flattened.

    The last real entry is forced to 1 so a uniform draw in [0, 1) can never
    fall off the end, and the pad is 2.0, above every draw.  The running
    maximum keeps each row non-decreasing, which the binary search needs; it
    changes nothing unless validation let a tiny negative entry through.
    """
    n = len(p_pi)
    width = 1 << (n - 1).bit_length()
    table = np.full((n, width), 2.0)
    table[:, :n] = np.cumsum(p_pi, axis=1)
    table[:, n - 1] = 1.0
    np.maximum.accumulate(table, axis=1, out=table)
    return table.ravel(), width


def _next_states(table: np.ndarray, width: int, states: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Per trajectory, the number of entries of its current row at or below its draw.

    Rows never decrease and every draw is below the forced 1, so the entries
    at or below a draw form a prefix of fewer than ``width`` entries, and
    halving steps from ``width // 2`` find its length.
    """
    pos = states * width
    step = width // 2
    while step:
        # Entry pos + step - 1, read through an offset view to save an add.
        pos += (draws >= table[step - 1 :][pos]) * step
        step //= 2
    # The count is below width, so it is the offset within the row.
    return pos & (width - 1)


def _simulate_discounted_sum(
    model: MdpModel,
    policy: ProtectionPolicy,
    stage_values: np.ndarray,
    config: SimulationConfig,
) -> tuple[float, float]:
    """Mean and standard error of sum_t discount^t * stage_values[s_t].

    The caller has checked ``policy`` against ``model``.
    """
    n = model.n_states
    p_pi = model.transitions[np.asarray(policy.actions), np.arange(n)]
    table, width = _inversion_table(p_pi)

    delta = model.discount
    totals = np.empty(config.samples)
    produced = 0
    batch_index = 0
    while produced < config.samples:
        size = min(BATCH_SIZE, config.samples - produced)
        rng = np.random.Generator(
            np.random.Philox(key=np.array([config.seed, batch_index], dtype=np.uint64))
        )
        states = np.full(size, model.initial_state, dtype=np.intp)
        acc = np.zeros(size)
        weight = 1.0
        for t in range(config.horizon):
            acc += weight * stage_values[states]
            weight *= delta
            if t + 1 < config.horizon:
                draws = rng.random(size)
                states = _next_states(table, width, states, draws)
        totals[produced : produced + size] = acc
        produced += size
        batch_index += 1

    # fsum keeps the reduction exact, so degenerate (deterministic) chains
    # report precisely the finite geometric sum with zero spread.
    mean = math.fsum(totals) / config.samples
    variance = math.fsum((totals - mean) ** 2) / (config.samples - 1)
    return mean, math.sqrt(variance / config.samples)


def simulate_value(
    model: MdpModel,
    policy: ProtectionPolicy,
    coverage: Coverage,
    config: SimulationConfig,
) -> tuple[float, float]:
    """Sampled expected cumulative discounted effective loss from the initial state.

    Returns (mean, standard error).  Deterministic given the seed.
    """
    model.check_policy(policy)
    stage = stage_loss_matrix(model, coverage)[np.arange(model.n_states), policy.actions]
    return _simulate_discounted_sum(model, policy, stage, config)


def simulate_coverage_paid(
    model: MdpModel,
    policy: ProtectionPolicy,
    coverage: Coverage,
    config: SimulationConfig,
) -> tuple[float, float]:
    """Sampled expected cumulative discounted reimbursement paid by the insurer."""
    model.check_policy(policy)
    return _simulate_discounted_sum(model, policy, coverage_paid(model, coverage), config)
