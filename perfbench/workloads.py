"""The three workloads: what one op is, how its inputs are made, how it is checked.

Every op calls cyins through its package namespace at call time
(``cyins.sweep_linear``, ``cyins.cli.main``), so the tracer's wrappers are
the functions called.  An op's ``check`` runs after its clock stops and
returns a :class:`Verdict`: a digest of the output (traced and untraced runs
must agree on it), problems found, and noise-free counters read from the
outputs.

A problem marks the op failed.  A problem that shows an output is wrong (a
digest, an identity or a certificate that does not hold) also makes the
run's ``correct`` false.  Failures that are not proof of a wrong output:
an exception, a solver reporting ``converged=False``, and a Monte-Carlo
estimate outside ``MC_SIGMAS`` standard errors.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from statistics import NormalDist
from typing import Callable

import numpy as np

import cyins
import cyins.cli

import inputs
import setup_probe

HERE = Path(__file__).resolve().parent
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

STUDIES = ("fig3", "fig4", "fig5")

# Summary numbers may move this much (relative, floor 1) before a study
# counts as wrong: ten times BISECTION_WIDTH, so exact interval ends
# (ROADMAP item 3) still pass, while any real change in a premium line or
# region does not.
SUMMARY_TOL = 1e-5

# Quote checks.  Row values are compared with an independent dense solve;
# the certificate bound eps / (1 - discount) must stay below CERT_TOL of the
# value scale.
VALUE_RTOL = 1e-8
CERT_TOL = 1e-8

# Monte-Carlo estimates are checked at a Bonferroni bound: over a run of up
# to MC_RUN_ESTIMATES estimates (25 times as many as a 30 s run holds at the
# first benchmarked commit), an unbiased sampler misses by chance with
# probability at most MC_FAMILY_RATE.  That is about 4.9 standard errors; at
# 3 a chance miss turned up in about one run in ten, so the failed count
# would depend on how many estimates a run draws, not on the code.
MC_RUN_ESTIMATES = 1000
MC_FAMILY_RATE = 1e-3
MC_SIGMAS = NormalDist().inv_cdf(1.0 - MC_FAMILY_RATE / (2 * MC_RUN_ESTIMATES))


@dataclass
class Verdict:
    digest: str
    problems: list[tuple[str, str]] = field(default_factory=list)  # (kind, message)
    counters: dict[str, int] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.problems.append(("failed", message))

    def wrong(self, message: str) -> None:
        self.problems.append(("wrong", message))


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object, dict], Verdict]


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def unconverged(counts) -> int:
    return sum(v for (name, key), v in counts.items() if key == "unconverged")


class PaperStudies:
    """``cyins reproduce fig3|fig4|fig5`` in-process, one round per unit.

    The seed is accepted and ignored: the studies use the bundled models and
    default grids.
    """

    name = "paper_studies"

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "studies"

    def setup(self) -> None:
        setup_probe.build(self.name, inputs.setup_raws(self.name, 0))

    def unit_key(self, k: int) -> int:
        return 0

    def unit(self, k: int) -> list[Op]:
        return [self._study(study) for study in STUDIES]

    def _study(self, study: str) -> Op:
        argv = ["reproduce", study, "--out", str(self.out)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return cyins.cli.main(argv)

        def check(code, counts) -> Verdict:
            if code != 0:
                verdict = Verdict(_digest(code))
                verdict.fail(f"{study}: exit code {code}")
                return verdict
            csv_path = self.out / f"{study}.csv"
            summary_path = self.out / f"{study}_summary.json"
            csv = csv_path.read_bytes()
            summary_text = summary_path.read_bytes()
            csv_path.unlink()
            summary_path.unlink()
            verdict = Verdict(_digest(code, hashlib.sha256(csv + summary_text).hexdigest()))
            verdict.counters["bytes_written"] = len(csv) + len(summary_text)
            verdict.counters["csv_rows"] = csv.count(b"\n") - 1
            expected = EXPECTED["studies"][study]
            if hashlib.sha256(csv).hexdigest() != expected["csv_sha256"]:
                verdict.wrong(f"{study}.csv differs from the recorded bytes")
            for path, message in _compare_summary(json.loads(summary_text), expected["summary"], study):
                verdict.wrong(f"{path}: {message}")
            unsolved = unconverged(counts)
            if unsolved:
                verdict.fail(f"{study}: {unsolved} solves did not converge")
            return verdict

        return Op(study, call, check)


def _compare_summary(observed, expected, path):
    """Recorded numbers and booleans must reappear; strings and new keys are free."""
    if isinstance(expected, dict):
        if not isinstance(observed, dict):
            yield path, "expected a mapping"
            return
        for key, value in expected.items():
            if key not in observed:
                yield f"{path}.{key}", "missing"
            else:
                yield from _compare_summary(observed[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        if not isinstance(observed, list) or len(observed) != len(expected):
            yield path, "list length changed"
            return
        for i, (o, e) in enumerate(zip(observed, expected)):
            yield from _compare_summary(o, e, f"{path}[{i}]")
    elif isinstance(expected, bool) or expected is None:
        if observed != expected:
            yield path, f"{observed!r} != {expected!r}"
    elif isinstance(expected, (int, float)):
        if not isinstance(observed, (int, float)) or abs(observed - expected) > SUMMARY_TOL * max(1.0, abs(expected)):
            yield path, f"{observed!r} != {expected!r}"


class PointQueries:
    """One-off contract quotes on seeded random models, one deck per unit."""

    name = "point_queries"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        raws = inputs.quote_raws(self.seed)
        _, models = setup_probe.build(self.name, [raw for deck in raws for raw in deck])
        width = len(inputs.QUOTE_DISCOUNTS)
        self.decks = [
            list(zip(deck, models[d * width : (d + 1) * width])) for d, deck in enumerate(raws)
        ]

    def unit_key(self, k: int) -> int:
        return k

    def unit(self, k: int) -> list[Op]:
        deck = self.decks[k % inputs.POOL_DECKS]
        return [self._quote(raw, model, k, slot) for slot, (raw, model) in enumerate(deck)]

    def _quote(self, raw: dict, model, k: int, slot: int) -> Op:
        losses = np.array([s["loss"] for s in raw["states"]])
        spec = inputs.quote_coverage(self.seed, k, slot, float(losses.max()))
        if spec["family"] == "linear":
            parameter = spec["level"]

            def call():
                return cyins.sweep_linear(model, [parameter])

            levels = np.full(len(losses), parameter)
        else:
            parameter = spec["cutoff"]

            def call():
                return cyins.sweep_threshold(model, spec["low"], spec["high"], [parameter])

            levels = np.where(losses > parameter, spec["high"], spec["low"])

        def check(rows, counts) -> Verdict:
            row = rows[0]
            verdict = Verdict(_digest(
                row.parameter, row.policy.actions, row.user_value, row.max_premium,
                row.profit, row.direct_losses, row.protection_cost,
            ))
            unsolved = unconverged(counts)
            if unsolved:
                verdict.fail(f"discount {raw['discount']}: {unsolved} solves did not converge")
            if len(rows) != 1 or row.parameter != parameter:
                verdict.wrong("expected one row at the quoted parameter")
            _certify_quote(verdict, raw, losses, levels, row)
            return verdict

        return Op(f"quote@{raw['discount']}", call, check)


def _certify_quote(verdict: Verdict, raw: dict, losses, levels, row) -> None:
    """Check a quote row from the raw arrays alone.

    The row's policy is evaluated by a dense solve; its exact Bellman
    residual eps bounds the distance to the optimum by eps / (1 - discount).
    The uninsured optimum comes from a policy iteration written here.
    """
    discount = float(raw["discount"])
    transitions = np.array(raw["transitions"])  # [action, from, to]
    costs = np.array([a["cost"] for a in raw["actions"]])
    n = len(losses)
    insured = (losses - levels * losses)[:, None] + costs[None, :]
    uninsured = losses[:, None] + costs[None, :]

    policy = np.array(row.policy.actions)
    values = _evaluate(transitions, insured, discount, policy)
    scale = 1.0 + float(np.abs(values).max())
    if abs(values[0] - row.user_value) > VALUE_RTOL * scale:
        verdict.wrong(f"user_value {row.user_value!r} but the policy evaluates to {values[0]!r}")
    bound = _residual(transitions, insured, discount, values) / (1.0 - discount)
    if not bound <= CERT_TOL * scale:
        verdict.wrong(f"certificate bound {bound:.3g} exceeds {CERT_TOL * scale:.3g}")

    system = np.eye(n) - discount * transitions[policy, np.arange(n)]
    direct = np.linalg.solve(system, losses)[0]
    cost = np.linalg.solve(system, costs[policy])[0]
    if abs(direct - row.direct_losses) > VALUE_RTOL * scale or abs(cost - row.protection_cost) > VALUE_RTOL * scale:
        verdict.wrong("direct_losses / protection_cost do not match the policy")

    baseline = _policy_iteration(transitions, uninsured, discount)[0]
    if abs(row.profit - (baseline - (row.direct_losses + row.protection_cost))) > VALUE_RTOL * scale:
        verdict.wrong(f"profit {row.profit!r} is not baseline {baseline!r} minus the uninsured value")
    if row.max_premium < 0.0 or abs(row.max_premium - max(0.0, baseline - row.user_value)) > VALUE_RTOL * scale:
        verdict.wrong(f"max_premium {row.max_premium!r} is not baseline minus user value")


def _evaluate(transitions, stage, discount, policy):
    n = len(policy)
    states = np.arange(n)
    return np.linalg.solve(np.eye(n) - discount * transitions[policy, states], stage[states, policy])


def _q(transitions, stage, discount, values):
    return stage + discount * (transitions @ values).T


def _residual(transitions, stage, discount, values) -> float:
    return float(np.abs(values - _q(transitions, stage, discount, values).min(axis=1)).max())


def _policy_iteration(transitions, stage, discount):
    """Howard policy iteration; keeps the current action unless another is clearly better."""
    n = stage.shape[0]
    policy = np.zeros(n, dtype=int)
    while True:
        values = _evaluate(transitions, stage, discount, policy)
        q = _q(transitions, stage, discount, values)
        current = q[np.arange(n), policy]
        better = q.min(axis=1) < current - 1e-12 * (1.0 + np.abs(current))
        if not better.any():
            return values
        policy = np.where(better, q.argmin(axis=1), policy)


class McOracle:
    """Monte-Carlo estimates (100k samples each) checked against exact evaluation."""

    name = "mc_oracle"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        raws = inputs.mc_raws(self.seed)
        bundled, models = setup_probe.build(self.name, [r for deck in raws for r in deck if r is not None])
        models = iter(models)
        self.decks = []
        for d, deck in enumerate(raws):
            slots = []
            for slot, ((source, estimator), raw) in enumerate(zip(inputs.MC_SLOTS, deck)):
                model = bundled[source] if raw is None else next(models)
                actions, level = inputs.mc_draw(self.seed, d, slot, model.n_states, model.n_actions)
                policy = cyins.ProtectionPolicy(actions)
                coverage = cyins.LinearCoverage(level)
                s0 = model.initial_state
                insured = cyins.evaluate_policy(model, policy, coverage)[s0]
                if estimator == "value":
                    exact = insured
                else:
                    exact = cyins.evaluate_policy(model, policy, cyins.ZeroCoverage())[s0] - insured
                slots.append((model, policy, coverage, estimator, float(exact)))
            self.decks.append(slots)

    def unit_key(self, k: int) -> int:
        return k

    def unit(self, k: int) -> list[Op]:
        deck = self.decks[k % inputs.POOL_DECKS]
        return [self._estimate(*entry, inputs.mc_seed(self.seed, k, slot)) for slot, entry in enumerate(deck)]

    def _estimate(self, model, policy, coverage, estimator, exact, mc_seed) -> Op:
        def call():
            config = cyins.config_for(model, samples=inputs.MC_SAMPLES, seed=mc_seed)
            if estimator == "value":
                return cyins.simulate_value(model, policy, coverage, config), config
            return cyins.simulate_coverage_paid(model, policy, coverage, config), config

        def check(output, counts) -> Verdict:
            (mean, stderr), config = output
            verdict = Verdict(_digest(mean, stderr))
            verdict.counters["mc_steps"] = config.samples * config.horizon
            if abs(mean - exact) > MC_SIGMAS * stderr + config.truncation_tol:
                verdict.fail(f"{estimator} estimate {mean!r} +/- {stderr!r} vs exact {exact!r}")
            return verdict

        return Op(f"{estimator}@{model.n_states}", call, check)


WORKLOADS = {w.name: w for w in (PaperStudies, PointQueries, McOracle)}


def unit_digest(records) -> str:
    """One digest over the outputs of a unit's ops, in order."""
    return _digest(*(r["digest"] for r in records))
