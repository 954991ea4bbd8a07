"""Trajectory simulation: a statistical cross-check on the exact evaluators.

Simulates the state process under a fixed stationary policy and estimates
discounted cumulative quantities by sample averaging.  The random source is
the counter-based Philox generator keyed on (seed, batch index), and
categorical sampling is cumulative-probability inversion in fixed state
order, so estimates are bit-reproducible across platforms and identical
whether batches run serially or in parallel.

Each step inverts the draw ``(raw >> 11) * 2**-53`` of a raw Philox word,
exactly what ``Generator.random`` returns.  A guide table, built once per
call, splits [0, 1) into 2**GUIDE_BITS buckets per cumulative row; the
bucket of a draw is the top bits of its raw word.  Where every draw in a
bucket picks the same state, the table holds that state, and the step is a
lookup.  In the other buckets, at most n - 1 of them per row, the draw goes
through the exact fallback, the plain comparison sum
``(draws[:, None] >= cum[states]).sum(axis=1)`` over the cumulative rows.
Either way the step picks exactly the state that sum picks on rows of
non-negative probabilities.

An estimate's batches are shared round-robin among as many threads as there
are batches or CPUs the process may run on (``os.sched_getaffinity``),
whichever is fewer, the caller's thread included; with one CPU or one batch
they all run in the caller.  Each batch writes only its own trajectories and
the reduction runs in a fixed order, so the thread count changes no bit, and
it cannot be set.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .model import (
    Coverage,
    MdpModel,
    ProtectionPolicy,
    _check_integer,
    _check_real,
    coverage_paid,
)

__all__ = [
    "BATCH_SIZE",
    "SimulationConfig",
    "config_for",
    "simulate_coverage_paid",
    "simulate_value",
]

# Trajectories per random stream; part of the reproducibility contract.
BATCH_SIZE = 65536

# Guide buckets per cumulative row, as a power of two: 2**GUIDE_BITS.
GUIDE_BITS = 10

# Tail left by a config_for horizon, relative to the model's value scale.
REL_TOL = 1e-6


@dataclass(frozen=True)
class SimulationConfig:
    """Fixed simulation plan: horizon, sample count, seed and truncation slack.

    ``truncation_tol`` is the absolute bound on the discarded discounted tail,
    i.e. the horizon must satisfy
    discount**horizon * (max loss + max cost) / (1 - discount) <= truncation_tol
    on the model it runs on; :func:`simulate_value` and
    :func:`simulate_coverage_paid` raise ``ValueError`` when it does not.
    Use :func:`config_for` to derive a compliant horizon from a model.
    """

    horizon: int
    samples: int
    seed: int
    truncation_tol: float

    def __post_init__(self):
        for name in ("horizon", "samples", "seed"):
            _check_integer(name, getattr(self, name))
        _check_real("truncation_tol", self.truncation_tol)
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        # One sample has no standard error.
        if self.samples < 2:
            raise ValueError("samples must be at least 2")
        # The seed keys Philox streams as an unsigned 64-bit word.
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must lie in [0, 2**64)")
        if not (math.isfinite(self.truncation_tol) and self.truncation_tol >= 0.0):
            raise ValueError(f"truncation_tol must be finite and >= 0, got {self.truncation_tol!r}")


def config_for(model: MdpModel, samples: int, seed: int) -> SimulationConfig:
    """Build a config whose horizon truncates at ``REL_TOL`` of the value scale.

    The value scale is the worst uninsured stage loss over 1 - discount; the
    geometric tail bound then gives horizon = ceil(log REL_TOL / log discount).
    Another truncation is a :class:`SimulationConfig` built directly.
    """
    delta = model.discount
    scale = _value_scale(model) or 1.0
    if delta <= 0.0:
        horizon = 1
    else:
        horizon = max(1, math.ceil(math.log(REL_TOL) / math.log(delta)))
    return SimulationConfig(
        horizon=horizon,
        samples=samples,
        seed=seed,
        truncation_tol=REL_TOL * scale,
    )


def _value_scale(model: MdpModel) -> float:
    """The value scale (max loss + max cost) / (1 - discount), which bounds every value."""
    return float(model.losses.max() + model.costs.max()) / (1.0 - model.discount)


def _check_tail(model: MdpModel, config: SimulationConfig) -> None:
    """Raise ``ValueError`` when ``config``'s horizon leaves more tail on ``model`` than it states.

    The tail bound is discount**horizon times :func:`_value_scale`, the
    scale :func:`config_for` truncates.  Its horizon is the ceiling of a
    float quotient, which can leave a tail above its ``truncation_tol`` by
    a relative 1e-12 at most, so a relative 1e-9 passes as rounding.
    """
    tail = model.discount**config.horizon * _value_scale(model)
    if tail > config.truncation_tol * (1.0 + 1e-9):
        raise ValueError(
            f"horizon {config.horizon} leaves a discounted tail of up to {tail!r} on this model, "
            f"above truncation_tol {config.truncation_tol!r}; config_for derives a horizon that does not"
        )


def _inversion_table(p_pi: np.ndarray) -> np.ndarray:
    """Cumulative transition rows (N, N), each forced to end at 1.

    The forced last entry means a uniform draw in [0, 1) can never fall off
    the end.  The running maximum keeps each row non-decreasing, which the
    guide table needs; it changes nothing unless validation let a tiny
    negative entry through.
    """
    table = np.cumsum(p_pi, axis=1)
    table[:, -1] = 1.0
    return np.maximum.accumulate(table, axis=1, out=table)


def _guide_table(table: np.ndarray) -> np.ndarray:
    """Per state and draw bucket, the next state's guide row, or -1, flattened.

    Row s has 2**GUIDE_BITS entries; entry b covers the draws u in
    [b, b + 1) / 2**GUIDE_BITS.  The next state is the count of row entries at
    or below u, so it is the same for every u there exactly when the count at
    or below b / 2**GUIDE_BITS equals the count below (b + 1) / 2**GUIDE_BITS.
    Then the entry is that state's guide row, state * 2**GUIDE_BITS, else -1.
    """
    buckets = 1 << GUIDE_BITS
    # Multiples of a power of two: every edge is exact.
    edges = np.arange(buckets + 1) / buckets
    guide = np.empty((len(table), buckets), dtype=np.intp)
    for s, row in enumerate(table):
        low = np.searchsorted(row, edges[:-1], side="right")
        high = np.searchsorted(row, edges[1:], side="left")
        guide[s] = np.where(low == high, low << GUIDE_BITS, -1)
    return guide.ravel()


def _next_rows(guide, table, rows, raw, index, ambiguous) -> None:
    """Step each trajectory's guide row in ``rows`` by its raw Philox word.

    The draw ``(raw >> 11) * 2**-53`` is only formed where the bucket is
    ambiguous, and there the next state is the count of its current row's
    entries at or below the draw.  ``index`` and ``ambiguous`` are scratch
    buffers of the same length.
    """
    # The top GUIDE_BITS bits of the word are those of its draw's 53.
    np.right_shift(raw, 64 - GUIDE_BITS, out=index.view(np.uint64))
    np.add(index, rows, out=index)
    # Every index is in range; "wrap" takes the unbuffered path.
    np.take(guide, index, out=rows, mode="wrap")
    hit = np.flatnonzero(np.less(rows, 0, out=ambiguous))
    if hit.size:
        draws = (raw[hit] >> 11) * 2.0**-53
        # An index is the current state's guide row plus a bucket below 2**GUIDE_BITS.
        states = index[hit] >> GUIDE_BITS
        rows[hit] = (draws[:, None] >= table[states]).sum(axis=1) << GUIDE_BITS


def _simulate_batch(model, config, stage_values, guide, table, batch, totals) -> None:
    """Write into ``totals`` the discounted sums of one Philox batch's trajectories."""
    size = len(totals)
    bits = np.random.Philox(key=np.array([config.seed, batch], dtype=np.uint64))
    buckets = 1 << GUIDE_BITS
    # Step t's stage terms, read by guide row: weight * stage_values[s] at s * buckets.
    stage = np.zeros(len(stage_values) * buckets)
    rows = np.full(size, model.initial_state * buckets, dtype=np.intp)
    index = np.empty_like(rows)
    # The stage terms go through the index buffer, which is free until the draw.
    term = index.view(np.float64)
    ambiguous = np.empty(size, dtype=bool)
    totals[:] = 0.0
    weight = 1.0
    for t in range(config.horizon):
        np.multiply(stage_values, weight, out=stage[::buckets])
        totals += np.take(stage, rows, out=term, mode="wrap")
        weight *= model.discount
        if t + 1 < config.horizon:
            _next_rows(guide, table, rows, bits.random_raw(size), index, ambiguous)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _simulate_discounted_sum(
    model: MdpModel,
    policy: ProtectionPolicy,
    stage_values: np.ndarray,
    config: SimulationConfig,
) -> tuple[float, float]:
    """Mean and standard error of sum_t discount^t * stage_values[s_t].

    The caller has checked ``policy`` against ``model``; the horizon is
    checked here (:func:`_check_tail`).
    """
    _check_tail(model, config)
    n = model.n_states
    p_pi = model.transitions[np.asarray(policy.actions), np.arange(n)]
    table = _inversion_table(p_pi)
    guide = _guide_table(table)

    totals = np.empty(config.samples)
    starts = range(0, config.samples, BATCH_SIZE)
    workers = min(len(starts), _cpu_count())

    def run_share(first: int) -> None:
        for batch in range(first, len(starts), workers):
            part = totals[starts[batch] : starts[batch] + BATCH_SIZE]
            _simulate_batch(model, config, stage_values, guide, table, batch, part)

    if workers == 1:
        run_share(0)
    else:
        # Imported here so that importing cyins starts no pool machinery.
        from concurrent.futures import ThreadPoolExecutor

        # The caller steps the first share of the batches, the pool the others.
        with ThreadPoolExecutor(workers - 1) as pool:
            shares = [pool.submit(run_share, first) for first in range(1, workers)]
            run_share(0)
        # Reading every result re-raises a share's exception.
        for share in shares:
            share.result()

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
    stage = model.losses - coverage_paid(model, coverage) + model.costs[list(policy.actions)]
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
