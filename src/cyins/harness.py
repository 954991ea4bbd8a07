"""Model files, sweep CSVs and the three bundled reproduction studies.

Model files are JSON with a fixed schema (discount, states, actions,
transitions, initial_state by name) and round-trip at full double precision.
Sweep CSVs render numbers at 10 significant digits so identical inputs always
produce byte-identical files.

``reproduce`` regenerates the three bundled studies: the two-state linear
sweep with its closed-form overlay, the four-state linear sweep, and the
four-state two-tier (threshold) sweep.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from importlib import resources
from pathlib import Path
from typing import Iterable

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

STUDIES = ("fig3", "fig4", "fig5")

FIG5_LOW_LEVEL = 0.0
FIG5_HIGH_LEVEL = 0.9


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
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelFileError(f"{path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
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


def format_number(value: float) -> str:
    """Render a number at 10 significant digits, as in sweep CSVs and CLI reports."""
    return f"{value:.10g}"


def _sweep_lines(
    model: MdpModel,
    rows: Iterable[contracts.ContractSweepRow],
    extra_header: tuple[str, ...] = (),
    extra_values=None,
) -> list[str]:
    header = SWEEP_CSV_HEADER if not extra_header else SWEEP_CSV_HEADER + "," + ",".join(extra_header)
    lines = [header]
    for row in rows:
        fields = [
            format_number(row.parameter),
            policy_label(model, row.policy),
            format_number(row.user_value),
            format_number(row.max_premium),
            format_number(row.profit),
            format_number(row.direct_losses),
            format_number(row.protection_cost),
        ]
        if extra_values is not None:
            fields.extend(extra_values(row))
        lines.append(",".join(fields))
    return lines


def write_sweep_csv(model: MdpModel, rows, path: str | Path) -> None:
    """Emit the plot-ready CSV for a sweep, one row per grid point."""
    Path(path).write_text("\n".join(_sweep_lines(model, rows)) + "\n", encoding="utf-8")


def _region_payload(report: contracts.RegionReport) -> dict:
    return {
        "intervals": [
            {
                "lo": iv.lo,
                "hi": iv.hi,
                "lo_closed": iv.lo_closed,
                "hi_closed": iv.hi_closed,
                "premium_intercept": iv.premium_intercept,
                "premium_slope": iv.premium_slope,
            }
            for iv in report.intervals
        ],
        "max_profit": report.max_profit,
        "representative_parameter": report.representative_parameter,
        "representative_premium": report.representative_premium,
        "representative_attained": report.representative_attained,
        "note": report.note,
    }


def _write_summary(summary: dict, path: Path) -> None:
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _analytic_overlay(ts: analytic.TwoStateModel, classification: analytic.CaseClassification):
    """fig3's closed-form columns for a sweep row: policy, value and case.

    The analytic policy is constant on each ``classify_case`` segment [lo,
    hi), and so are its value coefficients, so each segment computes them
    once; a row's value is the arithmetic of
    :func:`analytic.closed_form_value`.
    """
    model, s0 = ts.model, ts.model.initial_state
    starts = [segment.lo for segment in classification.segments]
    columns = []
    for segment in classification.segments:
        actions = segment.policy.actions
        policy = (ts, s0, actions[ts.good], actions[ts.bad])
        columns.append(
            (
                policy_label(model, segment.policy),
                analytic.loss_coefficient(*policy),
                analytic.cost_coefficient(*policy),
            )
        )

    def overlay(row: contracts.ContractSweepRow) -> list[str]:
        label, loss, cost = columns[bisect_right(starts, row.parameter) - 1]
        value = (1.0 - row.parameter) * loss + cost
        return [label, format_number(value), classification.case_id]

    return overlay


def reproduce(study: str, out_dir: str | Path) -> dict:
    """Regenerate one of the bundled studies into ``out_dir``.

    fig3: two-state linear sweep with closed-form overlay columns.
    fig4: four-state linear sweep.
    fig5: four-state threshold sweep (levels 0 and 0.9, cutoff up to 20).

    Writes ``<study>.csv`` and ``<study>_summary.json`` and returns the
    summary mapping.  Output is deterministic: repeated runs are
    byte-identical.
    """
    if study not in STUDIES:
        raise ValueError(f"unknown study {study!r}; expected one of {STUDIES}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if study == "fig3":
        model = bundled_model("two_state.model")
        ts = analytic.TwoStateModel.from_model(model)
        classification = analytic.classify_case(ts)
        contract = analytic.optimal_contract(ts)
        rows = contracts.sweep_linear(model)
        region = contracts.optimal_region(rows, contracts.make_linear_refiner(model))

        lines = _sweep_lines(
            model,
            rows,
            ("analytic_policy", "analytic_value", "case_id"),
            _analytic_overlay(ts, classification),
        )
        (out / "fig3.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        summary = {
            "study": "fig3",
            "model": "two_state.model",
            "case": classification.case_id,
            "rho": classification.rho,
            "thresholds": dict(sorted(classification.thresholds.items())),
            "premium_rate": contract.premium_rate,
            "contract_level_sup": contract.level_sup,
            "contract_sup_included": contract.sup_included,
            "optimal_region": _region_payload(region),
            "max_profit": region.max_profit,
        }
        _write_summary(summary, out / "fig3_summary.json")
        return summary

    model = bundled_model("four_state.model")
    if study == "fig4":
        rows = contracts.sweep_linear(model)
        region = contracts.optimal_region(rows, contracts.make_linear_refiner(model))
        write_sweep_csv(model, rows, out / "fig4.csv")
        summary = {
            "study": "fig4",
            "model": "four_state.model",
            "case": None,
            "thresholds": {},
            "optimal_region": _region_payload(region),
            "max_profit": region.max_profit,
        }
        _write_summary(summary, out / "fig4_summary.json")
        return summary

    rows = contracts.sweep_threshold(model, FIG5_LOW_LEVEL, FIG5_HIGH_LEVEL)
    region = contracts.optimal_region(
        rows, contracts.make_threshold_refiner(model, FIG5_LOW_LEVEL, FIG5_HIGH_LEVEL)
    )
    write_sweep_csv(model, rows, out / "fig5.csv")
    summary = {
        "study": "fig5",
        "model": "four_state.model",
        "case": None,
        "thresholds": {},
        "coverage_levels": [FIG5_LOW_LEVEL, FIG5_HIGH_LEVEL],
        "optimal_region": _region_payload(region),
        "max_profit": region.max_profit,
    }
    _write_summary(summary, out / "fig5_summary.json")
    return summary
