"""Trajectory simulation: a statistical cross-check on the exact evaluators.

Simulates the state process under a fixed stationary policy and estimates
discounted cumulative quantities by sample averaging.  The random source is
the counter-based Philox generator keyed on (seed, batch index), and
categorical sampling is cumulative-probability inversion in fixed state
order, so estimates are bit-reproducible across platforms and identical
whether batches run serially or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Coverage, MdpModel, ProtectionPolicy, ZeroCoverage, apply_coverage, stage_loss_matrix

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
        if self.samples < 1:
            raise ValueError("samples must be at least 1")


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


def _stage_values_coverage(model, coverage):
    return np.array([apply_coverage(coverage, s.loss) for s in model.states])


def _simulate_discounted_sum(
    model: MdpModel,
    policy: ProtectionPolicy,
    stage_values: np.ndarray,
    config: SimulationConfig,
) -> tuple[float, float]:
    """Mean and standard error of sum_t discount^t * stage_values[s_t]."""
    model.check_policy(policy)
    n = model.n_states
    # Cumulative rows for inversion sampling; the last entry is forced to 1
    # so a uniform draw in [0, 1) can never fall off the end.
    p_pi = model.transitions[np.asarray(policy.actions), np.arange(n)]
    cum = np.cumsum(p_pi, axis=1)
    cum[:, -1] = 1.0

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
                states = (draws[:, None] >= cum[states]).sum(axis=1)
        totals[produced : produced + size] = acc
        produced += size
        batch_index += 1

    # fsum keeps the reduction exact, so degenerate (deterministic) chains
    # report precisely the finite geometric sum with zero spread.
    mean = math.fsum(totals) / config.samples
    if config.samples > 1:
        variance = math.fsum((totals - mean) ** 2) / (config.samples - 1)
        stderr = math.sqrt(variance / config.samples)
    else:
        stderr = 0.0
    return mean, stderr


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
    if isinstance(coverage, ZeroCoverage):
        stage = np.zeros(model.n_states)
    else:
        stage = _stage_values_coverage(model, coverage)
    return _simulate_discounted_sum(model, policy, stage, config)
