"""Model files, sweep CSVs and the three bundled reproduction studies.

Model files are JSON with a fixed schema (discount, states, actions,
transitions, initial_state by name) and round-trip at full double precision.
Sweep CSVs render numbers at 10 significant digits so identical inputs always
produce byte-identical files.  A CSV is written from the columns of a
:class:`cyins.contracts.Sweep`: each distinct problem's policy label and
figures are formatted once, each parameter once, and a line joins the two.

``reproduce`` regenerates the bundled studies of the table ``STUDIES``: the
two-state linear sweep with its closed-form overlay (fig3), the four-state
linear sweep (fig4), and the four-state two-tier (threshold) sweep (fig5).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

import numpy as np

from . import analytic, contracts
from .model import MdpModel, ModelValidationError, ProtectionPolicy, validate_model

__all__ = [
    "ModelFileError",
    "SWEEP_CSV_HEADER",
    "bundled_model",
    "bundled_model_path",
    "load_model",
    "model_to_raw",
    "parse_policy_label",
    "policy_label",
    "reproduce",
    "save_model",
    "write_sweep_csv",
]

SWEEP_CSV_HEADER = "param,policy,user_value,max_premium,profit,direct_losses,protection_cost"
OVERLAY_HEADER = "analytic_policy,analytic_value,case_id"

FIG5_LOW_LEVEL = 0.0
FIG5_HIGH_LEVEL = 0.9

# A study's extra CSV columns for each of a sweep's parameters, one CSV
# text per row in OVERLAY_HEADER order.
Overlay = Callable[[np.ndarray], list[str]]


class ModelFileError(ValueError):
    """A model file could not be parsed or failed validation."""


def bundled_model_path(name: str) -> Path:
    """Filesystem path of a packaged model file, e.g. ``two_state.model``."""
    path = resources.files("cyins").joinpath("data", name)
    return Path(str(path))


def bundled_model(name: str) -> MdpModel:
    return load_model(bundled_model_path(name))


def load_model(path: str | Path) -> MdpModel:
    """Parse and validate a model file.

    Parse failures carry the line/column of the offending JSON; validation
    failures carry the full itemized report from :func:`validate_model`.
    Every failure names the file.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError:
        raise ModelFileError(f"{path}: parse error: JSON nested too deeply") from None
    try:
        return validate_model(raw)
    except ModelValidationError as exc:
        raise ModelFileError(f"{path}: " + "; ".join(exc.errors)) from exc


def model_to_raw(model: MdpModel) -> dict:
    """The raw mapping form of a model (inverse of :func:`validate_model`)."""
    return {
        "discount": model.discount,
        "states": [{"name": s.name, "loss": s.loss} for s in model.states],
        "actions": [{"name": a.name, "cost": a.cost} for a in model.actions],
        "transitions": model.transitions.tolist(),
        "initial_state": model.states[model.initial_state].name,
    }


def save_model(model: MdpModel, path: str | Path) -> None:
    """Write a model file that round-trips losslessly through :func:`load_model`."""
    text = json.dumps(model_to_raw(model), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def policy_label(model: MdpModel, policy: ProtectionPolicy) -> str:
    """Render a policy as action names joined by ``|`` in state order."""
    return "|".join(model.actions[a].name for a in policy.actions)


def parse_policy_label(model: MdpModel, label: str) -> ProtectionPolicy:
    names = label.split("|")
    if len(names) != model.n_states:
        raise ValueError(
            f"policy {label!r} names {len(names)} actions for {model.n_states} states"
        )
    try:
        actions = tuple(model.action_index(name) for name in names)
    except KeyError as exc:
        raise ValueError(f"policy {label!r}: {exc.args[0]}") from exc
    return ProtectionPolicy(actions)


# The number spec of sweep CSVs and CLI reports: 10 significant digits.
NUMBER_FORMAT = "%.10g"
# A sweep CSV line after its parameter: the policy label and the five figures.
PROBLEM_FORMAT = ",".join(["", "%s", *[NUMBER_FORMAT] * 5])


def format_number(value: float) -> str:
    """Render a number at 10 significant digits, as in sweep CSVs and CLI reports."""
    return NUMBER_FORMAT % value


def write_sweep_csv(sweep: contracts.Sweep, path: str | Path) -> None:
    """Emit the plot-ready CSV for a sweep, one row per grid point."""
    _write_csv(sweep, Path(path))


def _write_csv(sweep: contracts.Sweep, path: Path, overlay: Overlay | None = None) -> None:
    """The sweep CSV, with the ``OVERLAY_HEADER`` columns of ``overlay`` when given.

    Each distinct problem's ``PROBLEM_FORMAT`` tail is rendered once, and
    each parameter once; a line joins its parameter and its problem's tail.
    """
    labels = [policy_label(sweep.model, policy) for policy in sweep.policies]
    tails = [
        PROBLEM_FORMAT % (labels[piece], *numbers)
        for piece, numbers in zip(sweep.policy_of.tolist(), sweep.figures.tolist())
    ]
    lines = [
        NUMBER_FORMAT % parameter + tails[problem]
        for parameter, problem in zip(sweep.parameters.tolist(), sweep.problem_of.tolist())
    ]
    header = SWEEP_CSV_HEADER
    if overlay is not None:
        header = f"{SWEEP_CSV_HEADER},{OVERLAY_HEADER}"
        lines = [f"{line},{extra}" for line, extra in zip(lines, overlay(sweep.parameters))]
    path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")


def _analytic_overlay(ts: analytic.TwoStateModel, classification: analytic.CaseClassification):
    """fig3's closed-form columns for a sweep's levels: policy, value and case.

    The analytic policy is constant on each ``classify_case`` segment [lo,
    hi), and so are its value coefficients, so each segment computes them
    once; a level's value is the arithmetic of
    :func:`analytic.closed_form_value`, one array expression over the levels.
    """
    model, s0 = ts.model, ts.model.initial_state
    starts = np.array([segment.lo for segment in classification.segments])
    labels, loss, cost = [], [], []
    for segment in classification.segments:
        actions = segment.policy.actions
        policy = (ts, s0, actions[ts.good], actions[ts.bad])
        labels.append(policy_label(model, segment.policy))
        loss.append(analytic.loss_coefficient(*policy))
        cost.append(analytic.cost_coefficient(*policy))
    loss, cost = np.array(loss), np.array(cost)

    def overlay(parameters: np.ndarray) -> list[str]:
        parameters = np.asarray(parameters, dtype=float)
        # A level on a segment's lo opens that segment.
        segment = np.searchsorted(starts, parameters, side="right") - 1
        values = ((1.0 - parameters) * loss[segment] + cost[segment]).tolist()
        return [
            f"{labels[k]},{NUMBER_FORMAT % value},{classification.case_id}"
            for k, value in zip(segment.tolist(), values)
        ]

    return overlay


@dataclass(frozen=True)
class Study:
    """A bundled study: its model file, ``sweep(model) -> Sweep`` and
    ``extras(model) -> (summary fields, CSV overlay or None)``.

    Both functions look up the ``contracts`` and ``analytic`` functions when
    called, so rebinding those module attributes reaches every call.
    """

    model: str
    sweep: Callable[[MdpModel], contracts.Sweep]
    extras: Callable[[MdpModel], tuple[dict, Overlay | None]]


def _linear_sweep(model: MdpModel):
    return contracts.sweep_linear(model)


def _fig5_sweep(model: MdpModel):
    return contracts.sweep_threshold(model, FIG5_LOW_LEVEL, FIG5_HIGH_LEVEL)


def _closed_forms(model: MdpModel):
    """fig3's closed forms: the case, its thresholds and the optimal contract, and the overlay."""
    ts = analytic.TwoStateModel.from_model(model)
    contract = analytic.optimal_contract(ts)
    classification = contract.classification
    fields = {
        "case": classification.case_id,
        "rho": classification.rho,
        "thresholds": dict(sorted(classification.thresholds.items())),
        "premium_rate": contract.premium_rate,
        "contract_level_sup": contract.level_sup,
        "contract_sup_included": contract.sup_included,
    }
    return fields, _analytic_overlay(ts, classification)


def _no_closed_forms(model: MdpModel):
    return {"case": None, "thresholds": {}}, None


def _fig5_extras(model: MdpModel):
    levels = [FIG5_LOW_LEVEL, FIG5_HIGH_LEVEL]
    return {"case": None, "thresholds": {}, "coverage_levels": levels}, None


STUDIES = {
    "fig3": Study("two_state.model", _linear_sweep, _closed_forms),
    "fig4": Study("four_state.model", _linear_sweep, _no_closed_forms),
    "fig5": Study("four_state.model", _fig5_sweep, _fig5_extras),
}


def reproduce(study: str, out_dir: str | Path) -> dict:
    """Regenerate one of the bundled studies of ``STUDIES`` into ``out_dir``.

    fig3: two-state linear sweep with closed-form overlay columns.
    fig4: four-state linear sweep.
    fig5: four-state threshold sweep (levels 0 and 0.9, cutoff up to 20).

    Every study takes one path and writes ``<study>.csv`` and
    ``<study>_summary.json`` (the study's own fields plus its zero-profit
    region), and returns the summary mapping.  Output is deterministic:
    repeated runs are byte-identical.
    """
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}; expected one of {tuple(STUDIES)}")
    spec = STUDIES[study]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = bundled_model(spec.model)
    fields, overlay = spec.extras(model)
    sweep = spec.sweep(model)
    region = contracts.optimal_region(sweep)
    _write_csv(sweep, out / f"{study}.csv", overlay)
    summary = {
        "study": study,
        "model": spec.model,
        **fields,
        "optimal_region": asdict(region),
        "max_profit": region.max_profit,
    }
    text = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    (out / f"{study}_summary.json").write_text(text, encoding="utf-8")
    return summary
