"""Wrap cyins's public functions from outside and record spans and counters.

Discovery walks each layer module's ``__all__``, keeps the functions that
module defines, and finds every module attribute in the ``cyins`` package
bound to the same function object (``contracts`` binds
``solve_value_iteration``, the package binds nearly everything).  All those
bindings are replaced by one wrapper, so calls between modules are seen
however they are spelled.  Callables returned by ``make_*`` functions (the
contract refiners) are wrapped too.  A public function added later is
traced without editing this file; a group whose functions disappear reports
0.

A :class:`Recorder` always counts calls and reads work counters from what
the calls return.  With ``spans=True`` it also keeps one span per call
(name, start, end, parent, op id) in compact arrays; nothing is written
until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from fnmatch import fnmatchcase
from time import perf_counter

from cyins.contracts import ContractSweepRow
from cyins.model import MdpModel
from cyins.montecarlo import SimulationConfig
from cyins.solvers import SolveResult

LAYERS = ("model", "solvers", "contracts", "analytic", "montecarlo", "harness", "cli")

# Untraced runs wrap only the solvers: their results carry the convergence
# flag the quote checks need, and they are called a few times per solve, so
# counting them costs nothing measurable.
COUNTING_LAYERS = ("solvers",)

ROOT_SPAN = "bench.op"
NO_OP = -1

# Per-layer metric groups: name -> span-name patterns.  Counters read from
# results are summed over the group; ``RENAME`` maps them to metric names.
GROUPS = {
    "solvers.value_iteration": ("solvers.solve_value_iteration",),
    "solvers.enumeration": ("solvers.solve_policy_enumeration",),
    "contracts.sweep": ("contracts.sweep_*",),
    "contracts.refine": ("contracts.*_refiner",),
    "contracts.optimal_region": ("contracts.optimal_region",),
    "model.evaluate_policy": ("model.evaluate_policy",),
    "model.validate_model": ("model.validate_model",),
    "montecarlo.simulate": ("montecarlo.simulate_*",),
    "harness.reproduce": ("harness.reproduce",),
    "harness.load_model": ("harness.load_model",),
    "cli.main": ("cli.main",),
}
RENAME = {"solvers.enumeration": {"iterations": "policies"}}
# Counters a group always reports, 0 when its functions are absent.
GROUP_COUNTERS = {
    "solvers.value_iteration": ("iterations", "unconverged"),
    "solvers.enumeration": ("policies",),
    "contracts.sweep": ("rows", "distinct_policies"),
    "montecarlo.simulate": ("trajectory_steps", "bytes_computed"),
}
ENUMERATION = GROUPS["solvers.enumeration"]
REFINERS = GROUPS["contracts.refine"]

# Per-element size of the samples x states inversion temporaries (a float64
# gather of cumulative rows and a boolean mask), for ``bytes_computed``.
INVERSION_BYTES_PER_ELEMENT = 8 + 1


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def discover(layers=LAYERS) -> dict[str, tuple]:
    """``{"layer.function": (function, [(module, attribute), ...])}`` for every
    function in a layer's ``__all__``, with every cyins module attribute bound
    to it."""
    modules = {layer: importlib.import_module(f"cyins.{layer}") for layer in LAYERS}
    sites = [m for n, m in sorted(sys.modules.items()) if n == "cyins" or n.startswith("cyins.")]
    found = {}
    for layer in layers:
        module = modules[layer]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if hasattr(fn, "__wrapped__"):
                raise RuntimeError(f"cyins.{layer}.{attr} is already instrumented")
            bindings = [(site, name) for site in sites for name, value in vars(site).items() if value is fn]
            found[f"{layer}.{attr}"] = (fn, bindings)
    return found


class Recorder:
    """Counters per op, and optionally spans, for the calls it is handed."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("i")
        self.op = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.solve_spans: list[int] = []
        self._stack: list[int] = []
        self._root = -1
        self.op_id = NO_OP
        self.counts: Counter = Counter()

    def open(self, name: str) -> int:
        if not self.spans:
            return -1
        sid = len(self.start)
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.name.append(self._name_ids[name])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        if sid >= 0:
            self.end[sid] = perf_counter()
            self._stack.pop()

    def observe(self, name: str, sid: int, result) -> None:
        """Count a call and the work its result reports."""
        counts = self.counts
        counts[name, "calls"] += 1
        kind = type(result)
        if kind is SolveResult:
            counts[name, "iterations"] += result.iterations
            counts[name, "unconverged"] += not result.converged
            if sid >= 0:
                self.solve_spans.append(sid)
        elif kind is list and result and type(result[0]) is ContractSweepRow:
            counts[name, "rows"] += len(result)
            counts[name, "distinct_policies"] += len({row.policy for row in result})

    def observe_simulation(self, name: str, args, kwargs) -> None:
        """Trajectory steps and inversion bytes of a call given a SimulationConfig."""
        values = (*args, *kwargs.values())
        config = next(v for v in values if isinstance(v, SimulationConfig))
        model = next(v for v in values if isinstance(v, MdpModel))
        self.counts[name, "trajectory_steps"] += config.samples * config.horizon
        self.counts[name, "bytes_computed"] += (
            config.samples * (config.horizon - 1) * model.n_states * INVERSION_BYTES_PER_ELEMENT
        )

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.counts = Counter()
        self._root = self.open(ROOT_SPAN)

    def end_op(self) -> Counter:
        self.close(self._root)
        self.op_id = NO_OP
        return self.counts

    def root_seconds(self) -> float:
        """Duration of the last op's root span."""
        return self.end[self._root] - self.start[self._root]

    def write_spans(self, stream) -> None:
        """CSV of every span: id, parent, op, name, start and end in seconds."""
        origin = self.start[0] if len(self.start) else 0.0
        stream.write("span,parent,op,name,start_s,end_s\n")
        for sid in range(len(self.start)):
            stream.write(
                f"{sid},{self.parent[sid]},{self.op[sid]},{self.names[self.name[sid]]},"
                f"{self.start[sid] - origin:.9f},{self.end[sid] - origin:.9f}\n"
            )


def _takes_simulation_config(fn) -> bool:
    annotations = [p.annotation for p in inspect.signature(fn).parameters.values()]
    return SimulationConfig in annotations or "SimulationConfig" in annotations


def _wrap(recorder: Recorder, fn, name: str):
    returns = None
    attr = name.split(".", 1)[1]
    if attr.startswith("make_"):
        returns = f"{layer_of(name)}.{attr[len('make_'):]}"
    simulates = _takes_simulation_config(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(sid)
        recorder.observe(name, sid, result)
        if simulates:
            recorder.observe_simulation(name, args, kwargs)
        if returns is not None and callable(result):
            result = _wrap(recorder, result, returns)
        return result

    return wrapper


@contextmanager
def instrument(recorder: Recorder, layers=LAYERS):
    """Replace every binding of the layers' public functions by a wrapper."""
    patched = []
    try:
        for name, (fn, bindings) in discover(layers).items():
            wrapper = _wrap(recorder, fn, name)
            for module, attr in bindings:
                patched.append((module, attr, fn))
                setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def span_table(recorder: Recorder, ops) -> dict[str, dict[str, float]]:
    """Calls and self time per span name over the given op ids.

    Self time is a span's duration minus the time its child spans cover.
    """
    ops = set(ops)
    selected = [sid for sid in range(len(recorder.start)) if recorder.op[sid] in ops]
    covered = defaultdict(float)
    for sid in selected:
        parent = recorder.parent[sid]
        if parent >= 0:
            covered[parent] += recorder.end[sid] - recorder.start[sid]
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for sid in selected:
        entry = table[recorder.names[recorder.name[sid]]]
        entry["calls"] += 1
        entry["self_s"] += recorder.end[sid] - recorder.start[sid] - covered[sid]
    return dict(table)


def group_totals(recorder: Recorder, ops) -> Counter:
    """Inclusive seconds per group: durations of its spans not nested in another of its spans."""
    ops = set(ops)
    group_of = {}
    for name_id, name in enumerate(recorder.names):
        group_of[name_id] = next((g for g, patterns in GROUPS.items() if _matches(name, patterns)), None)
    totals = Counter()
    for sid in range(len(recorder.start)):
        group = group_of[recorder.name[sid]]
        if group is None or recorder.op[sid] not in ops:
            continue
        parent = recorder.parent[sid]
        while parent >= 0 and group_of[recorder.name[parent]] != group:
            parent = recorder.parent[parent]
        if parent < 0:
            totals[group] += recorder.end[sid] - recorder.start[sid]
    return totals


def solve_context(recorder: Recorder, ops) -> Counter:
    """Solves requested by the contracts layer, and those made inside a refiner."""
    ops = set(ops)
    counts = Counter()
    for sid in recorder.solve_spans:
        if recorder.op[sid] not in ops:
            continue
        name = recorder.names[recorder.name[sid]]
        parent = recorder.parent[sid]
        if parent >= 0:
            parent_name = recorder.names[recorder.name[parent]]
            if layer_of(parent_name) == "contracts" and not _matches(name, ENUMERATION):
                counts["contracts.solves"] += 1
        while parent >= 0:
            if _matches(recorder.names[recorder.name[parent]], REFINERS):
                counts["contracts.refine.solves"] += 1
                break
            parent = recorder.parent[parent]
    return counts


def _matches(name: str, patterns) -> bool:
    return any(fnmatchcase(name, p) for p in patterns)


def layer_metrics(
    table: dict[str, dict[str, float]], counts: Counter, context: Counter, totals: Counter
) -> dict[str, float]:
    """Flat per-layer metrics: layer totals, groups, and every span name."""
    metrics: dict[str, float] = {}
    for layer in (*LAYERS, "bench"):
        rows = [v for k, v in table.items() if layer_of(k) == layer]
        metrics[f"{layer}.calls"] = sum(v["calls"] for v in rows)
        metrics[f"{layer}.self_s"] = sum(v["self_s"] for v in rows)
    for group, patterns in GROUPS.items():
        names = [k for k in table if _matches(k, patterns)]
        metrics[f"{group}.calls"] = sum(table[k]["calls"] for k in names)
        metrics[f"{group}.self_s"] = sum(table[k]["self_s"] for k in names)
        metrics[f"{group}.total_s"] = totals[group]
        metrics.update({f"{group}.{key}": 0 for key in GROUP_COUNTERS.get(group, ())})
        for (name, key), value in counts.items():
            if key != "calls" and _matches(name, patterns):
                label = f"{group}.{RENAME.get(group, {}).get(key, key)}"
                metrics[label] = metrics.get(label, 0) + value
    metrics["contracts.solves"] = context["contracts.solves"]
    metrics["contracts.refine.solves"] = context["contracts.refine.solves"]
    solves = metrics["contracts.solves"]
    metrics["contracts.yield"] = metrics["contracts.sweep.distinct_policies"] / solves if solves else 0.0
    metrics["trace.spans"] = sum(v["calls"] for v in table.values())
    for name, entry in sorted(table.items()):
        metrics[f"span.{name}.calls"] = entry["calls"]
        metrics[f"span.{name}.self_s"] = entry["self_s"]
    return metrics
