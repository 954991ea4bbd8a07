"""Command-line interface.

Subcommands: solve, sweep, analytic, simulate, reproduce.  Coverage
specifications use the grammar ``none``, ``linear:R`` or
``threshold:XR,R0,R1``.  Exit codes: 0 success, 1 validation error,
uncertified contract solve or failed allocation, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import analytic, contracts, harness, montecarlo
from .harness import format_number
from .model import Coverage, LinearCoverage, ThresholdCoverage, ZeroCoverage

__all__ = ["entrypoint", "main", "parse_coverage_spec"]


class UsageError(ValueError):
    """Malformed command-line input (exit code 2)."""


def parse_coverage_spec(spec: str) -> Coverage:
    """Parse ``none`` | ``linear:R`` | ``threshold:XR,R0,R1``.

    Grammar violations raise :class:`UsageError`; out-of-range numbers raise
    ``ValueError`` (a validation failure).
    """
    text = spec.strip()
    if text == "none":
        return ZeroCoverage()
    kind, sep, rest = text.partition(":")
    if not sep:
        raise UsageError(f"bad coverage spec {spec!r}: expected none, linear:R or threshold:XR,R0,R1")
    if kind == "linear":
        try:
            level = float(rest)
        except ValueError:
            raise UsageError(f"bad coverage spec {spec!r}: {rest!r} is not a number") from None
        return LinearCoverage(level)
    if kind == "threshold":
        parts = rest.split(",")
        if len(parts) != 3:
            raise UsageError(f"bad coverage spec {spec!r}: threshold needs XR,R0,R1")
        try:
            cutoff, low, high = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"bad coverage spec {spec!r}: non-numeric threshold field") from None
        return ThresholdCoverage(cutoff=cutoff, low_level=low, high_level=high)
    raise UsageError(f"bad coverage spec {spec!r}: unknown family {kind!r}")


def _cmd_solve(args) -> int:
    coverage = parse_coverage_spec(args.coverage)
    model = harness.load_model(args.model)
    result = contracts.solve(model, coverage)
    print(f"policy: {harness.policy_label(model, result.policy)}")
    for state, value in zip(model.states, result.values):
        print(f"value[{state.name}] = {format_number(value)}")
    print(
        f"iterations: {result.iterations}  residual: {format_number(result.residual)}  "
        f"certificate bound: {format_number(result.certificate_bound)}"
    )
    return 0


def _out_path(text: str) -> str:
    """An ``--out`` path; an empty one would name the working directory."""
    if not text:
        raise UsageError("--out must not be empty")
    return text


def _cmd_sweep(args) -> int:
    out = _out_path(args.out)
    if args.grid is not None and args.grid < 1:
        raise UsageError(f"--grid must be at least 1, got {args.grid}")
    if args.family == "linear" and (args.low_level, args.high_level) != (None, None):
        raise UsageError("--low-level and --high-level apply only to --family threshold")
    # Without --grid each family takes its own default grid size.
    points = {} if args.grid is None else {"points": args.grid}
    model = harness.load_model(args.model)
    if args.family == "linear":
        sweep = contracts.sweep_linear(model, contracts.default_linear_grid(**points))
    else:
        low = harness.FIG5_LOW_LEVEL if args.low_level is None else args.low_level
        high = harness.FIG5_HIGH_LEVEL if args.high_level is None else args.high_level
        grid = contracts.default_threshold_grid(model, **points)
        sweep = contracts.sweep_threshold(model, low, high, grid)
    harness.write_sweep_csv(model, sweep, out)
    print(f"wrote {len(sweep)} rows to {out}")
    return 0


def _cmd_analytic(args) -> int:
    # A level outside [0, 1] fails here, before any report line is printed.
    level = LinearCoverage(args.at).level
    model = harness.load_model(args.model)
    ts = analytic.TwoStateModel.from_model(model)
    contract = analytic.optimal_contract(ts)
    classification = contract.classification

    print(f"transition shift (rho) = {format_number(classification.rho)}")
    names = {s: model.states[s].name for s in (ts.good, ts.bad)}
    anames = {a: model.actions[a].name for a in (ts.weak, ts.strong)}
    for state in (ts.good, ts.bad):
        for other_action in (ts.strong, ts.weak):
            gap = analytic.action_value_gap(ts, state, other_action, level)
            print(
                f"action value gap at {names[state]} given other-state "
                f"{anames[other_action]} (R={format_number(level)}) = {format_number(gap)}"
            )
    print(f"case: {classification.case_id}")
    for name, value in sorted(classification.thresholds.items()):
        print(f"threshold {name} = {format_number(value)}")
    policy = analytic.closed_form_policy(ts, level)
    print(f"optimal policy at R={format_number(level)}: {harness.policy_label(model, policy)}")
    closing = "]" if contract.sup_included else ")"
    print(
        f"optimal contract: level in [0, {format_number(contract.level_sup)}{closing}, "
        f"premium = {format_number(contract.premium_rate)} * level, profit = 0"
    )
    return 0


def _cmd_simulate(args) -> int:
    coverage = parse_coverage_spec(args.coverage)
    model = harness.load_model(args.model)
    policy = harness.parse_policy_label(model, args.policy)
    config = montecarlo.config_for(model, samples=args.samples, seed=args.seed)
    mean, stderr = montecarlo.simulate_value(model, policy, coverage, config)
    print(f"horizon: {config.horizon}  samples: {config.samples}  seed: {config.seed}")
    print(f"estimate = {format_number(mean)} +/- {format_number(stderr)} (1 sigma)")
    return 0


def _cmd_reproduce(args) -> int:
    out = _out_path(args.out)
    summary = harness.reproduce(args.study, out)
    print(f"wrote {args.study} outputs to {out}")
    print(f"max_profit = {format_number(summary['max_profit'])}")
    if summary.get("case"):
        print(f"case = {summary['case']}")
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="cyins",
        description="Protection policies and insurance contracts for Markov risk models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="optimal protection policy for a coverage")
    p_solve.add_argument("--model", required=True)
    p_solve.add_argument("--coverage", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="contract sweep to CSV")
    p_sweep.add_argument("--model", required=True)
    p_sweep.add_argument("--family", required=True, choices=("linear", "threshold"))
    p_sweep.add_argument(
        "--grid",
        type=int,
        help=f"grid points (default: {contracts.LINEAR_GRID_POINTS} levels, "
        f"{contracts.THRESHOLD_GRID_POINTS} cutoffs)",
    )
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument(
        "--low-level", type=float, help=f"threshold family only (default: {harness.FIG5_LOW_LEVEL:g})"
    )
    p_sweep.add_argument(
        "--high-level", type=float, help=f"threshold family only (default: {harness.FIG5_HIGH_LEVEL:g})"
    )
    p_sweep.set_defaults(func=_cmd_sweep)

    p_analytic = sub.add_parser("analytic", help="closed-form report (two-state models)")
    p_analytic.add_argument("--model", required=True)
    p_analytic.add_argument("--at", type=float, default=0.0)
    p_analytic.set_defaults(func=_cmd_analytic)

    p_sim = sub.add_parser("simulate", help="Monte-Carlo value estimate")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--coverage", required=True)
    p_sim.add_argument("--policy", required=True, help="action names joined by |")
    p_sim.add_argument("--samples", type=int, default=100_000)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_rep = sub.add_parser("reproduce", help="regenerate a bundled study")
    p_rep.add_argument("study", choices=harness.STUDIES)
    p_rep.add_argument("--out", required=True)
    p_rep.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (harness.ModelFileError, ValueError, contracts.CertificateError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # numpy's message names the allocation that failed.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())
