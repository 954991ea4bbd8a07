"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

They use cheap slices of each workload's first unit: fig3, the quotes at
discount 0.99 or below, and the two-state Monte-Carlo estimates.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class Slice:
    """A workload whose units keep only the ops ``keep`` accepts."""

    def __init__(self, workload, keep):
        self.workload, self.keep, self.name = workload, keep, workload.name

    def unit(self, k):
        return [op for op in self.workload.unit(k) if self.keep(op)]

    def unit_key(self, k):
        return self.workload.unit_key(k)


CHEAP = {
    "paper_studies": lambda op: op.kind == "fig3",
    "point_queries": lambda op: float(op.kind.split("@")[1]) <= 0.99,
    "mc_oracle": lambda op: op.kind.endswith("@2"),
}


def sliced(name, seed, workdir):
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.setup()
    return Slice(workload, CHEAP[name])


def plain_and_traced(workload):
    counting = tracer.Recorder(spans=False)
    with tracer.instrument(counting, tracer.COUNTING_LAYERS):
        plain = run.run_unit(workload, 0, counting, 0)
    full = tracer.Recorder(spans=True)
    with tracer.instrument(full):
        spanned = run.run_unit(workload, 0, full, len(plain))
    return plain, spanned, full


@pytest.fixture(scope="module", params=sorted(CHEAP))
def traced_slice(request, tmp_path_factory):
    workload = sliced(request.param, 3, tmp_path_factory.mktemp(request.param))
    return (workload, *plain_and_traced(workload))


def test_tracing_changes_no_output(traced_slice):
    _, plain, spanned, _ = traced_slice
    assert plain and [r["digest"] for r in plain] == [r["digest"] for r in spanned]
    assert run.repeat_problems([plain, spanned], tracer.COUNTING_LAYERS) == []
    assert not [r["problems"] for r in plain + spanned if r["problems"]]


def test_self_times_sum_to_op_wall_time(traced_slice):
    _, _, spanned, recorder = traced_slice
    for record in spanned:
        table = tracer.span_table(recorder, [record["op"]])
        assert table[tracer.ROOT_SPAN]["calls"] == 1
        total = sum(entry["self_s"] for entry in table.values())
        assert total == pytest.approx(record["seconds"], rel=1e-9, abs=1e-12)
        assert all(entry["self_s"] >= -1e-9 for entry in table.values())


def test_layer_shares_follow_the_design(traced_slice):
    workload, _, spanned, recorder = traced_slice
    metrics = run.pass_metrics(recorder, spanned)
    for group in tracer.GROUPS:
        assert metrics[f"{group}.total_s"] >= metrics[f"{group}.self_s"] - 1e-9
    if workload.name == "paper_studies":
        assert metrics["solvers.enumeration.policies"] > 0
        assert metrics["contracts.refine.solves"] > 0
        assert metrics["span.contracts.linear_refiner.calls"] == 1
        assert metrics["analytic.calls"] > 0 and metrics["cli.main.calls"] == 1
        assert metrics["harness.bytes_written"] > 0
    if workload.name == "point_queries":
        assert metrics["solvers.enumeration.calls"] == 0 == metrics["solvers.enumeration.total_s"]
        assert metrics["contracts.solves"] == 2 * metrics["contracts.sweep.calls"]
    if workload.name == "mc_oracle":
        assert metrics["solvers.calls"] == 0
        assert metrics["montecarlo.simulate.trajectory_steps"] == 2 * inputs.MC_SAMPLES * 132
        total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
        assert metrics["montecarlo.self_s"] > 0.9 * total
    else:
        assert metrics["montecarlo.calls"] == 0


def test_discovery_covers_every_bound_public_function():
    found = tracer.discover()
    expected = set()
    for layer in tracer.LAYERS:
        module = importlib.import_module(f"cyins.{layer}")
        for attr in module.__all__:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                expected.add(f"{layer}.{attr}")
    assert set(found) == expected
    contracts = importlib.import_module("cyins.contracts")
    sites = {(module.__name__, attr) for module, attr in found["solvers.solve_value_iteration"][1]}
    assert {("cyins", "solve_value_iteration"), ("cyins.contracts", "solve_value_iteration")} <= sites

    with tracer.instrument(tracer.Recorder(spans=False)):
        for name, (fn, bindings) in found.items():
            assert all(getattr(module, attr).__wrapped__ is fn for module, attr in bindings), name
        with pytest.raises(RuntimeError):
            tracer.discover()
    for name, (fn, bindings) in found.items():
        assert all(getattr(module, attr) is fn for module, attr in bindings), name
    assert not hasattr(contracts.solve_value_iteration, "__wrapped__")


def test_counters_repeat_across_runs_of_the_same_seed(tmp_path):
    first, second = (sliced("point_queries", 5, tmp_path / str(i)) for i in range(2))
    counting = tracer.Recorder(spans=False)
    with tracer.instrument(counting, tracer.COUNTING_LAYERS):
        units = [run.run_unit(w, k, counting, 0) for w in (first, second) for k in (0, 1)]
    assert run.repeat_problems([units[0], units[2]], tracer.COUNTING_LAYERS) == []
    assert run.repeat_problems([units[1], units[3]], tracer.COUNTING_LAYERS) == []
    assert units[0][0]["counts"]["solvers.solve_value_iteration", "iterations"] > 0
    assert [r["digest"] for r in units[0]] != [r["digest"] for r in units[1]]


def test_unconverged_solve_fails_the_op_without_marking_it_wrong(tmp_path):
    workload = sliced("point_queries", 0, tmp_path)
    op = workload.unit(0)[0]
    verdict = op.check(op.call(), Counter({("solvers.solve_value_iteration", "unconverged"): 1}))
    assert [kind for kind, _ in verdict.problems] == ["failed"]


def test_wrong_quote_row_is_caught(tmp_path):
    workload = sliced("point_queries", 0, tmp_path)
    op = workload.unit(0)[0]
    row = op.call()[0]
    bad = type(row)(**{**row.__dict__, "profit": row.profit + 1.0})
    kinds = [kind for kind, _ in op.check([bad], Counter()).problems]
    assert kinds and set(kinds) == {"wrong"}


def test_inputs_depend_only_on_the_seed():
    assert inputs.setup_raws("point_queries", 4) == inputs.setup_raws("point_queries", 4)
    assert inputs.setup_raws("point_queries", 4) != inputs.setup_raws("point_queries", 5)
    discounts = {raw["discount"] for raw in inputs.setup_raws("point_queries", 4)}
    assert min(discounts) == 0.9 and max(discounts) == 0.9999


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "mc_oracle", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
