"""Benchmark for cyins: one command, one workload, one seed.

    python3 perfbench/run.py --workload paper_studies|point_queries|mc_oracle \
        --seed N --seconds S --trace 0|1

One caller in a closed loop (the next op starts when the previous returns),
one workload process, no threads, ``CYINS_THREADS`` unset; the set-up probes
run one at a time in fresh interpreters, each waited for.  The workload repeats whole
units (a round of studies, a deck of quotes or estimates) until ``--seconds``
have passed, checks every output, prints every metric by name with its unit,
writes ``.perfbench/results/<workload>-seed<N>-trace<T>.json`` and prints one
JSON line last: ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the first unit until ``--seconds`` have
passed, reports the per-layer metrics (median over traced passes) and
``trace.overhead_s``, and writes the spans to
``.perfbench/spans/<workload>-seed<N>.csv.gz``.  See README.md.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

SETUP_PROBES = 21
SETUP_OP = -2
TAIL_BEYOND = 10

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

COUNT_METRICS = (
    "solvers.value_iteration.calls", "solvers.value_iteration.iterations",
    "solvers.value_iteration.unconverged", "solvers.enumeration.calls",
    "solvers.enumeration.policies", "contracts.sweep.calls", "contracts.sweep.rows",
    "contracts.sweep.distinct_policies", "contracts.solves", "contracts.refine.calls",
    "contracts.refine.solves", "model.evaluate_policy.calls", "montecarlo.simulate.calls",
    "montecarlo.simulate.trajectory_steps", "model.calls", "solvers.calls", "contracts.calls",
    "analytic.calls", "montecarlo.calls", "harness.calls", "cli.calls", "trace.spans",
)
SECOND_METRICS = (
    "solvers.value_iteration.self_s", "solvers.enumeration.self_s", "contracts.sweep.self_s",
    "contracts.refine.self_s", "contracts.optimal_region.self_s", "model.evaluate_policy.self_s",
    "model.validate_model.self_s", "montecarlo.simulate.self_s", "harness.reproduce.self_s",
    "harness.load_model.self_s", "cli.main.self_s", "model.self_s", "solvers.self_s",
    "contracts.self_s", "analytic.self_s", "montecarlo.self_s", "harness.self_s", "cli.self_s",
    "bench.self_s", "trace.overhead_s", "solvers.value_iteration.total_s",
    "solvers.enumeration.total_s", "contracts.sweep.total_s", "contracts.refine.total_s",
    "model.evaluate_policy.total_s", "montecarlo.simulate.total_s", "harness.reproduce.total_s",
)
PER_LAYER = {
    **{name: "count" for name in COUNT_METRICS},
    **{name: "s" for name in SECOND_METRICS},
    "montecarlo.simulate.bytes_computed": "bytes",
    "harness.bytes_written": "bytes",
    "contracts.yield": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("paper_studies", "point_queries", "mc_oracle"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate() -> None:
    """One process, no threads: pin BLAS pools to one thread, drop CYINS_THREADS."""
    os.environ.pop("CYINS_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def setup_seconds(workload: str, seed: int) -> float:
    """Set-up time in one fresh interpreter; waits for it to exit."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def run_unit(workload, k: int, recorder, first_op: int) -> list[dict]:
    """Run one unit's ops in order; time each call, then check its output."""
    from workloads import Verdict

    records = []
    for i, op in enumerate(workload.unit(k)):
        op_id = first_op + i
        recorder.begin_op(op_id)
        start = time.perf_counter()
        try:
            output, error = op.call(), None
        except Exception as exc:  # a raising op is a failed op; the run goes on
            output, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        counts = recorder.end_op()
        if recorder.spans:
            seconds = recorder.root_seconds()
        if error is None:
            try:
                verdict = op.check(output, counts)
            except Exception as exc:  # an output the check cannot read is wrong
                verdict = Verdict("", [("wrong", f"check raised {type(exc).__name__}: {exc}")])
        else:
            verdict = Verdict("", [("failed", error)])
        records.append({
            "op": op_id, "unit": k, "kind": op.kind, "seconds": seconds,
            "digest": verdict.digest, "problems": verdict.problems,
            "work": verdict.counters, "counts": counts,
        })
    return records


def restrict(counts: Counter, layers) -> dict:
    return {key: value for key, value in counts.items() if key[0].split(".", 1)[0] in layers}


def repeat_problems(units: list[list[dict]], layers) -> list[str]:
    """Units with the same inputs must give the same outputs and counters."""
    problems = []
    first = units[0]
    for unit in units[1:]:
        if [r["digest"] for r in unit] != [r["digest"] for r in first]:
            problems.append(f"unit {unit[0]['unit']}: outputs differ from an identical unit")
        if [(restrict(r["counts"], layers), r["work"]) for r in unit] != [
            (restrict(r["counts"], layers), r["work"]) for r in first
        ]:
            problems.append(f"unit {unit[0]['unit']}: work counters differ from an identical unit")
    return problems


def pinned_problems(workload, seed: int, unit: list[dict]) -> list[str]:
    from workloads import EXPECTED, unit_digest

    pinned = EXPECTED["unit_digests"].get(workload.name, {}).get(str(seed))
    if pinned is not None and unit_digest(unit) != pinned:
        return [f"first-unit digest {unit_digest(unit)} != recorded {pinned}"]
    return []


def timed(workload, seconds: float, seed: int, between_units) -> tuple[list[dict], list[str], dict]:
    import tracer

    recorder = tracer.Recorder(spans=False)
    units: list[list[dict]] = []
    with tracer.instrument(recorder, tracer.COUNTING_LAYERS):
        workload.setup()
        start = time.perf_counter()
        while not units or time.perf_counter() - start < seconds:
            units.append(run_unit(workload, len(units), recorder, sum(map(len, units))))
            between_units((time.perf_counter() - start) / seconds)
    by_key: dict[int, list] = {}
    for k, unit in enumerate(units):
        by_key.setdefault(workload.unit_key(k), []).append(unit)
    problems = pinned_problems(workload, seed, units[0])
    for same in by_key.values():
        problems += repeat_problems(same, tracer.COUNTING_LAYERS)
    records = [r for unit in units for r in unit]
    return records, problems, end_to_end(records, workload.name)


def end_to_end(records: list[dict], workload: str) -> dict:
    times = sorted(r["seconds"] for r in records)
    total = sum(times)
    metrics = {
        "ops_per_s": len(times) / total,
        "op_p50_ms": statistics.median(times) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ops": sum(1 for r in records if r["problems"]) / len(records),
    }
    if len(times) >= 2 * TAIL_BEYOND:
        index = len(times) - TAIL_BEYOND - 1
        metrics["op_tail_ms"] = times[index] * 1e3
        metrics["op_tail_pct"] = 100.0 * (index + 1) / len(times)
        metrics["op_tail_n"] = len(times)
    if workload == "paper_studies":
        for study in ("fig3", "fig4", "fig5"):
            metrics[f"{study}_s"] = statistics.median(r["seconds"] for r in records if r["kind"] == study)
    if workload == "mc_oracle":
        metrics["mc_steps_per_s"] = sum(r["work"]["mc_steps"] for r in records) / total
    return metrics


def traced(workload, seconds: float, seed: int) -> tuple[list[dict], list[str], dict, object]:
    import tracer

    full = tracer.Recorder(spans=True)
    counting = tracer.Recorder(spans=False)
    with tracer.instrument(full):
        full.begin_op(SETUP_OP)
        workload.setup()
        full.end_op()
    plain_units, traced_units, passes = [], [], []
    start = time.perf_counter()
    next_op = 0
    while not passes or time.perf_counter() - start < seconds:
        # Alternate which pass goes first, so warm-up is not charged to one side.
        for traced_pass in (False, True) if len(passes) % 2 == 0 else (True, False):
            if traced_pass:
                with tracer.instrument(full):
                    spanned = run_unit(workload, 0, full, next_op)
                next_op += len(spanned)
            else:
                with tracer.instrument(counting, tracer.COUNTING_LAYERS):
                    plain = run_unit(workload, 0, counting, next_op)
                next_op += len(plain)
        plain_units.append(plain)
        traced_units.append(spanned)
        passes.append(pass_metrics(full, spanned))

    problems = pinned_problems(workload, seed, traced_units[0])
    problems += repeat_problems(plain_units + traced_units, tracer.COUNTING_LAYERS)
    problems += repeat_problems(traced_units, tracer.LAYERS)
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_s"] = statistics.median(
        sum(r["seconds"] for r in unit) for unit in traced_units
    ) - statistics.median(sum(r["seconds"] for r in unit) for unit in plain_units)
    metrics["trace.passes"] = len(passes)
    return [r for unit in traced_units for r in unit], problems, metrics, full


def pass_metrics(recorder, records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, set-up included."""
    import tracer

    ops = [SETUP_OP] + [r["op"] for r in records]
    counts = Counter()
    for r in records:
        counts.update(r["counts"])
    metrics = tracer.layer_metrics(
        tracer.span_table(recorder, ops), counts,
        tracer.solve_context(recorder, ops), tracer.group_totals(recorder, ops),
    )
    metrics["harness.bytes_written"] = sum(r["work"].get("bytes_written", 0) for r in records)
    return metrics


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def commit() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyins" / "__init__.py").is_file():
        print(f"error: cyins sources not found under {SRC}", file=sys.stderr)
        return 2
    isolate()
    import workloads

    STATE.mkdir(exist_ok=True)
    setup_times: list[float] = []

    def probe_setup(elapsed: float) -> None:
        # Probes between units, in step with the elapsed share of the run,
        # so they sample the whole run rather than its start or its end.
        while len(setup_times) < min(SETUP_PROBES, round(SETUP_PROBES * elapsed)):
            setup_times.append(setup_seconds(args.workload, args.seed))

    with tempfile.TemporaryDirectory(dir=STATE) as scratch:
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(scratch))
        if args.trace:
            records, problems, metrics, recorder = traced(workload, args.seconds, args.seed)
            wanted = PER_LAYER
        else:
            records, problems, metrics = timed(workload, args.seconds, args.seed, probe_setup)
            probe_setup(1.0)
            metrics["setup_s"] = statistics.median(setup_times)
            wanted = END_TO_END

    failed = sum(1 for r in records if r["problems"])
    wrong = problems + [m for r in records for kind, m in r["problems"] if kind == "wrong"]
    op_problems = Counter(m for r in records for _, m in r["problems"])
    totals = Counter()
    for r in records:
        totals.update({f"{n}.{key}": v for (n, key), v in r["counts"].items()})
        totals.update(r["work"])
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "machine": machine(), "correct": not wrong, "attempted": len(records), "failed": failed,
        "metrics": metrics, "setup_seconds": setup_times, "counters": dict(sorted(totals.items())),
        "run_problems": problems, "op_problems": dict(op_problems.most_common(20)),
        "ops": [{k: r[k] for k in ("unit", "kind", "seconds", "digest")} for r in records],
    }

    results_dir = STATE / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (results_dir / f"{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        spans_dir = STATE / "spans"
        spans_dir.mkdir(exist_ok=True)
        with gzip.open(spans_dir / f"{stem}.csv.gz", "wt", compresslevel=1) as stream:
            recorder.write_spans(stream)

    for name, value in sorted(metrics.items()):
        print(f"{name} = {value!r} {PER_LAYER.get(name) or END_TO_END.get(name) or unit_of(name)}")
    for message, count in op_problems.most_common(5):
        print(f"problem x{count}: {message}")
    for message in problems:
        print(f"run problem: {message}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a report-only metric, from its name."""
    if name == "mc_steps_per_s":
        return "1/s"
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("failed_ops", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    raise SystemExit(main())
