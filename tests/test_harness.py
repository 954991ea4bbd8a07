import contextlib
import copy
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyins
from cyins import analytic, cli, contracts, harness, montecarlo
from cyins.cli import main, parse_coverage_spec
from cyins.harness import (
    ModelFileError,
    SWEEP_CSV_HEADER,
    bundled_model,
    bundled_model_path,
    format_number,
    load_model,
    parse_policy_label,
    policy_label,
    reproduce,
    save_model,
    write_sweep_csv,
)
from cyins.model import (
    LinearCoverage,
    MdpModel,
    ProtectionPolicy,
    State,
    ThresholdCoverage,
    ZeroCoverage,
    validate_model,
)

from helpers import FOUR_STATE_RAW, TWO_STATE_RAW, random_two_state_raw


# ---------------------------------------------------------------- model files

def test_bundled_two_state_matches_reference_parameters(two_state):
    bundled = bundled_model("two_state.model")
    assert [s.name for s in bundled.states] == [s["name"] for s in TWO_STATE_RAW["states"]]
    assert bundled.losses.tolist() == [0.0, 10.0]
    assert bundled.costs.tolist() == [0.0, 1.0]
    assert np.array_equal(bundled.transitions, two_state.transitions)
    assert bundled.discount == 0.9
    assert bundled.initial_state == 0


def test_bundled_four_state_matches_reference_parameters(four_state):
    bundled = bundled_model("four_state.model")
    assert bundled.losses.tolist() == [0.0, 4.0, 8.0, 16.0]
    assert bundled.costs.tolist() == [0.0, 0.3, 0.6]
    assert np.array_equal(bundled.transitions, np.asarray(FOUR_STATE_RAW["transitions"]))
    assert bundled.initial_state == 0


def test_round_trip_preserves_every_field(tmp_path, four_state):
    path = tmp_path / "copy.model"
    save_model(four_state, path)
    loaded = load_model(path)
    assert loaded.states == four_state.states
    assert loaded.actions == four_state.actions
    assert np.array_equal(loaded.transitions, four_state.transitions)
    assert loaded.discount == four_state.discount
    assert loaded.initial_state == four_state.initial_state


def test_round_trip_full_precision(tmp_path):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9000000000000001
    raw["states"][1]["loss"] = 10.000000000000002
    model = load_model_from_raw(tmp_path, raw)
    assert model.discount == 0.9000000000000001
    assert model.states[1].loss == 10.000000000000002


def load_model_from_raw(tmp_path, raw):
    path = tmp_path / "m.model"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return load_model(path)


def test_parse_error_reports_location(tmp_path):
    path = tmp_path / "broken.model"
    path.write_text('{"discount": 0.9,\n  "states": [}', encoding="utf-8")
    with pytest.raises(ModelFileError, match="line 2"):
        load_model(path)


def test_wrong_row_count_names_the_action(tmp_path):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["transitions"][1] = [[0.8, 0.2]]  # strong action block lost a row
    path = tmp_path / "m.model"
    path.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(ModelFileError, match="A_H"):
        load_model(path)


def test_validation_failures_are_reported(tmp_path):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 1.0
    with pytest.raises(ModelFileError, match="discount"):
        load_model_from_raw(tmp_path, raw)


def test_missing_file(tmp_path):
    with pytest.raises(ModelFileError):
        load_model(tmp_path / "nope.model")


@pytest.mark.parametrize(
    "name, content",
    [("deep.model", b"[" * 5000), ("latin1.model", '{"discount": 0.9, "é": 1}'.encode("latin-1"))],
)
def test_unreadable_model_files_name_the_file(tmp_path, capsys, name, content):
    # JSON nested past the parser's recursion limit, and bytes that are not UTF-8.
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["solve", "--model", str(path), "--coverage", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


# -------------------------------------------------------------- policy labels

def test_policy_label_round_trip(two_state):
    policy = ProtectionPolicy((1, 0))
    label = policy_label(two_state, policy)
    assert label == "A_H|A_L"
    assert parse_policy_label(two_state, label) == policy
    with pytest.raises(ValueError):
        parse_policy_label(two_state, "A_H")
    with pytest.raises(ValueError):
        parse_policy_label(two_state, "A_H|Z")


# ----------------------------------------------------------------------- CSV

def test_sweep_csv_format(tmp_path, two_state):
    rows = contracts.sweep_linear(two_state, [0.0, 0.05, 1.0])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "A_H|A_H"
    assert first[2] == "31.95121951"  # ten significant digits
    params = [float(line.split(",")[0]) for line in lines[1:]]
    assert params == sorted(params)


def test_sweep_csv_renders_every_row_and_the_sign_of_zero(tmp_path, two_state):
    # Rows that repeat one problem print it alike; a negative zero still
    # prints as such, though it compares equal to 0.0.
    sweep = contracts.sweep_linear(two_state, [0.5])
    row = sweep[0]
    user, premium, cost = row.user_value, row.max_premium, row.protection_cost
    sweep = replace(
        sweep,
        parameters=np.array([0.5, 0.6, 0.7, 0.8]),
        problem_of=np.array([0, 0, 1, 2]),
        policies=(row.policy,),
        policy_of=np.zeros(3, dtype=int),
        figures=np.array([
            [user, premium, row.profit, row.direct_losses, cost],
            [user, premium, 0.0, -0.0, cost],
            [user, premium, -0.0, 0.0, cost],
        ]),
    )
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    fields = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    assert [f[0] for f in fields] == ["0.5", "0.6", "0.7", "0.8"]
    assert fields[0][1:] == fields[1][1:]
    assert [(f[4], f[5]) for f in fields[2:]] == [("0", "-0"), ("-0", "0")]


def test_sweep_csv_deterministic(tmp_path, two_state):
    rows = contracts.sweep_linear(two_state, [0.0, 0.3, 0.9])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, a)
    write_sweep_csv(contracts.sweep_linear(two_state, [0.0, 0.3, 0.9]), b)
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------ reproduce

def test_reproduce_fig3_summary(tmp_path):
    summary = reproduce("fig3", tmp_path)
    assert summary["case"] == "Case4a"
    assert summary["thresholds"]["R_B"] == pytest.approx(0.0889, abs=1e-3)
    assert summary["premium_rate"] == pytest.approx(21.9512, abs=1e-3)
    assert abs(summary["max_profit"]) <= 1e-7
    data = json.loads((tmp_path / "fig3_summary.json").read_text(encoding="utf-8"))
    assert data["case"] == "Case4a"
    lines = (tmp_path / "fig3.csv").read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[:7] == SWEEP_CSV_HEADER.split(",")
    assert header[7:] == ["analytic_policy", "analytic_value", "case_id"]
    # the overlay agrees with the numeric columns on every row
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[7] == fields[1]
        assert float(fields[8]) == pytest.approx(float(fields[2]), abs=1e-6)


@pytest.mark.parametrize("seed", [None, *range(12)])
def test_fig3_overlay_matches_the_closed_forms_row_by_row(seed):
    # The overlay reads each row's policy off its classify_case segment;
    # rows exactly on a threshold open the next segment, as
    # closed_form_policy's weak-action tie rule has it.
    raw = TWO_STATE_RAW if seed is None else random_two_state_raw(np.random.default_rng(seed))
    ts = analytic.TwoStateModel.from_model(validate_model(raw))
    model, s0 = ts.model, ts.model.initial_state
    classification = analytic.classify_case(ts)
    overlay = harness._analytic_overlay(ts, classification)
    levels = [*contracts.default_linear_grid(), *classification.thresholds.values()]
    for level in (x for x in levels if 0.0 <= x <= 1.0):
        policy = analytic.closed_form_policy(ts, level)
        actions = policy.actions
        value = analytic.closed_form_value(ts, s0, actions[s0], actions[1 - s0], level)
        (columns,) = overlay(np.array([level]))
        assert columns.split(",") == [
            policy_label(model, policy),
            format_number(value),
            classification.case_id,
        ]


def test_reproduce_rejects_unknown_study(tmp_path):
    with pytest.raises(ValueError):
        reproduce("fig9", tmp_path)


# ------------------------------------------------------------------------ CLI

def test_coverage_spec_grammar():
    assert parse_coverage_spec("none") == ZeroCoverage()
    assert parse_coverage_spec("linear:0.4") == LinearCoverage(0.4)
    assert parse_coverage_spec("threshold:16,0,0.9") == ThresholdCoverage(16.0, 0.0, 0.9)
    from cyins.cli import UsageError

    for bad in ("linear", "linear:x", "threshold:1,2", "waffle:1"):
        with pytest.raises(UsageError):
            parse_coverage_spec(bad)
    with pytest.raises(ValueError):
        parse_coverage_spec("linear:1.5")


def test_cli_solve_full_coverage(capsys):
    code = main(
        ["solve", "--model", str(bundled_model_path("two_state.model")), "--coverage", "linear:1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "A_L|A_L" in out
    bound = float(out.split("certificate bound: ")[1].split()[0])
    assert 0.0 <= bound <= 1e-9


def test_cli_analytic_report(capsys):
    code = main(["analytic", "--model", str(bundled_model_path("two_state.model"))])
    out = capsys.readouterr().out
    assert code == 0
    assert "-0.2" in out            # transition shift
    assert "-1.88" in out           # strong-vs-weak gap at the good state
    assert "Case4a" in out
    assert "R_B" in out
    assert "21.95121951" in out


def test_cli_analytic_rejects_non_two_state(capsys):
    code = main(["analytic", "--model", str(bundled_model_path("four_state.model"))])
    err = capsys.readouterr().err
    assert code == 1
    assert "two states and two actions" in err


def test_cli_usage_errors(capsys, tmp_path, monkeypatch):
    assert main(["frobnicate"]) == 2
    assert main(["solve", "--model", "x", "--coverage", "linear:oops"]) == 2
    assert main(["sweep", "--model", "x", "--family", "cubic", "--out", "y"]) == 2
    assert main(["solve", "--model", "x", "--coverage", "none", "--tol", "1e-9"]) == 2
    capsys.readouterr()
    # A grid without points is rejected before the (here missing) model loads.
    for points in ("0", "-1"):
        for family in ("linear", "threshold"):
            argv = ["sweep", "--model", "x", "--family", family, "--grid", points, "--out", "y"]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: --grid must be at least 1")
    # An empty --out would name the working directory.
    monkeypatch.chdir(tmp_path)
    model = str(bundled_model_path("two_state.model"))
    for argv in (
        ["reproduce", "fig3", "--out", ""],
        ["sweep", "--model", model, "--family", "linear", "--grid", "3", "--out", ""],
    ):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --out")
    assert list(tmp_path.iterdir()) == []
    # Coverage levels belong to the threshold family; a linear sweep fails
    # before the (here missing) model loads.
    for flags in (["--low-level", "5"], ["--high-level", "0.5"], ["--low-level", "0", "--high-level", "1"]):
        argv = ["sweep", "--model", "x", "--family", "linear", *flags, "--out", "y"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: --low-level and --high-level apply only")


def test_cli_threshold_sweep_keeps_the_default_of_an_omitted_level(tmp_path, four_state, capsys):
    out, expected = tmp_path / "steps.csv", tmp_path / "expected.csv"
    grid = contracts.default_threshold_grid(four_state, 9)
    argv = ["sweep", "--model", FOUR_STATE_PATH, "--family", "threshold", "--grid", "9", "--out", str(out)]
    for flags, levels in ((["--high-level", "0.5"], (0.0, 0.5)), (["--low-level", "0.2"], (0.2, 0.9))):
        assert main(argv + flags) == 0
        write_sweep_csv(contracts.sweep_threshold(four_state, *levels, grid), expected)
        assert out.read_bytes() == expected.read_bytes()
    capsys.readouterr()


def test_cli_reports_a_failed_allocation(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 72.8 PiB for an array with shape (10000000000000000,)")

    monkeypatch.setattr(montecarlo, "simulate_value", no_memory)
    argv = ["simulate", "--model", TWO_STATE_PATH, "--coverage", "none", "--policy", "A_H|A_H"]
    assert main(argv + ["--samples", "10000000000000000"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: Unable to allocate 72.8 PiB for an array with shape (10000000000000000,)\n"
    assert "estimate" not in captured.out


def test_readme_quick_tour_runs(capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme[readme.index("## Library quick tour") :]
    code = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    assert "cyins.optimal_region(cyins.sweep_linear(model))" in code
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_validation_errors(tmp_path, capsys):
    missing = main(["solve", "--model", str(tmp_path / "no.model"), "--coverage", "none"])
    assert missing == 1
    bad = tmp_path / "bad.model"
    bad.write_text("{", encoding="utf-8")
    assert main(["solve", "--model", str(bad), "--coverage", "none"]) == 1
    capsys.readouterr()
    # One sample has no standard error.
    model = str(bundled_model_path("two_state.model"))
    argv = ["simulate", "--model", model, "--coverage", "none", "--policy", "A_H|A_H"]
    assert main(argv + ["--samples", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: samples must be at least 2")
    assert "estimate" not in captured.out
    # A level outside [0, 1] fails before any line of the report.
    for level in ("2", "nan", "-1"):
        assert main(["analytic", "--model", model, "--at", level]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: coverage level must be in [0, 1]")


def test_cli_reports_malformed_state_and_action_lists(tmp_path, capsys):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"], raw["actions"] = 5, None
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--model", str(bad), "--coverage", "none"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert "states: expected a list" in err and "actions: expected a list" in err


def test_cli_solve_rejects_a_model_whose_values_overflow(tmp_path, capsys):
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["states"][1]["loss"] = 1e308
    huge = tmp_path / "huge.model"
    huge.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["solve", "--model", str(huge), "--coverage", "none"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "value scale" in captured.err and "policy:" not in captured.out


def test_cli_sweep_writes_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--model",
            str(bundled_model_path("two_state.model")),
            "--family",
            "linear",
            "--grid",
            "11",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text(encoding="utf-8").startswith(SWEEP_CSV_HEADER)
    capsys.readouterr()


def test_cli_threshold_sweep_uses_the_default_grid_span(tmp_path, four_state, capsys):
    out = tmp_path / "steps.csv"
    model_path = str(bundled_model_path("four_state.model"))
    args = ["sweep", "--model", model_path, "--family", "threshold", "--grid", "9"]
    assert main(args + ["--low-level", "0", "--high-level", "0.9", "--out", str(out)]) == 0
    grid = contracts.default_threshold_grid(four_state, 9)
    expected = tmp_path / "expected.csv"
    write_sweep_csv(contracts.sweep_threshold(four_state, 0.0, 0.9, grid), expected)
    assert out.read_bytes() == expected.read_bytes()
    capsys.readouterr()


def test_cli_sweep_grid_defaults_to_the_family_grid(tmp_path, capsys):
    out, expected = tmp_path / "default.csv", tmp_path / "expected.csv"
    for name, family, points in (
        ("two_state.model", "linear", contracts.LINEAR_GRID_POINTS),
        ("four_state.model", "threshold", contracts.THRESHOLD_GRID_POINTS),
    ):
        path = str(bundled_model_path(name))
        assert main(["sweep", "--model", path, "--family", family, "--out", str(out)]) == 0
        assert capsys.readouterr().out == f"wrote {points} rows to {out}\n"
        model = bundled_model(name)
        if family == "linear":
            rows = contracts.sweep_linear(model)
        else:
            rows = contracts.sweep_threshold(model, 0.0, 0.9)
        write_sweep_csv(rows, expected)
        assert out.read_bytes() == expected.read_bytes()


def _load_a_non_finite_model(monkeypatch):
    """Make the CLI load a model built directly with an infinite loss, which
    validation rejects: no policy has finite values to certify."""
    two_state = validate_model(TWO_STATE_RAW)
    infinite = MdpModel(
        states=(State("S_G", 0.0), State("S_B", np.inf)),
        actions=two_state.actions,
        transitions=two_state.transitions,
        discount=two_state.discount,
    )
    monkeypatch.setattr(harness, "load_model", lambda path: infinite)


def test_cli_sweep_reports_an_uncertified_solve(tmp_path, capsys, monkeypatch):
    _load_a_non_finite_model(monkeypatch)
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--model", "infinite.model", "--family", "linear", "--grid", "3"]
    with np.errstate(invalid="ignore"):
        assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: uncertified solve") and "Traceback" not in err
    assert not out.exists()


def test_cli_solve_reports_an_uncertified_solve(capsys, monkeypatch):
    _load_a_non_finite_model(monkeypatch)
    with np.errstate(invalid="ignore"):
        assert main(["solve", "--model", "infinite.model", "--coverage", "linear:0.5"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: uncertified solve") and "Traceback" not in captured.err
    assert "policy:" not in captured.out and "value[" not in captured.out


def test_cli_certifies_two_tier_coverage_at_discount_0_9999(tmp_path, capsys):
    # Value iteration stops at max_iter here, and the certificate proves
    # the policy it returns optimal, so both commands succeed.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9999
    model_path = tmp_path / "patient.model"
    model_path.write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--model", str(model_path), "--family", "threshold", "--grid", "2"]
    assert main(args + ["--low-level", "0", "--high-level", "0.5", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3
    assert main(["solve", "--model", str(model_path), "--coverage", "threshold:5,0,0.5"]) == 0
    report = capsys.readouterr().out
    values = [float(line.split("= ")[1]) for line in report.splitlines() if line.startswith("value[")]
    bound = float(report.split("certificate bound: ")[1].split()[0])
    assert bound <= contracts.CERT_TOL * (1.0 + max(map(abs, values)))


def test_two_state_linear_coverage_certifies_at_discount_0_9999(tmp_path, capsys):
    # Value iteration stops at max_iter here; the linear walk certifies,
    # and its policies are the closed-form segments'.
    raw = copy.deepcopy(TWO_STATE_RAW)
    raw["discount"] = 0.9999
    model_path = tmp_path / "patient.model"
    model_path.write_text(json.dumps(raw), encoding="utf-8")
    model = validate_model(raw)
    segments = analytic.classify_case(analytic.TwoStateModel.from_model(model)).segments
    assert len(segments) == 3
    grid = [0.0, *(0.5 * (segment.lo + segment.hi) for segment in segments)]
    rows = contracts.sweep_linear(model, grid)
    expected = [segments[0].policy, *(segment.policy for segment in segments)]
    assert [row.policy for row in rows] == expected

    assert main(["solve", "--model", str(model_path), "--coverage", "none"]) == 0
    out = capsys.readouterr().out
    assert f"policy: {policy_label(model, segments[0].policy)}" in out
    values = [float(line.split("= ")[1]) for line in out.splitlines() if line.startswith("value[")]
    bound = float(out.split("certificate bound: ")[1].split()[0])
    assert bound <= contracts.CERT_TOL * (1.0 + max(map(abs, values)))


def test_cli_main_gives_one_process_the_output_of_separate_ones(tmp_path, capsys, monkeypatch):
    # cli.main builds its parser once per process; each call must still
    # print what a fresh interpreter prints for the same argv.  COLUMNS
    # gives both sides one usage-message width.
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["analytic", "--model", str(bundled_model_path("two_state.model")), "--at", "0.5"],
        ["solve", "--model", str(bundled_model_path("four_state.model")), "--coverage", "linear:0.5"],
        ["reproduce", "fig9", "--out", str(tmp_path)],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(cyins.__file__).parents[1]))
    separate = []
    for argv in runs:
        done = subprocess.run(
            [sys.executable, "-m", "cyins", *argv], capture_output=True, text=True, env=env
        )
        separate.append((done.returncode, done.stdout, done.stderr))
    together = []
    for argv in runs + runs:
        code = main(argv)
        captured = capsys.readouterr()
        together.append((code, captured.out, captured.err))
    assert together == separate + separate
    assert [code for code, _, _ in separate] == [0, 0, 2]
    assert cli._build_parser() is cli._build_parser()


def test_cli_simulate_and_reproduce(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--model",
            str(bundled_model_path("two_state.model")),
            "--coverage",
            "none",
            "--policy",
            "A_H|A_H",
            "--samples",
            "2000",
            "--seed",
            "4",
        ]
    )
    assert code == 0
    assert "estimate" in capsys.readouterr().out

    code = main(["reproduce", "fig3", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "fig3.csv").exists()
    assert (tmp_path / "fig3_summary.json").exists()
    capsys.readouterr()


# ------------------------------------------------------------ CLI robustness

TWO_STATE_PATH = str(bundled_model_path("two_state.model"))
FOUR_STATE_PATH = str(bundled_model_path("four_state.model"))
OUT = "{out}"  # replaced by a scratch directory
# Each flag's good values, then its bad ones.  --grid and --samples take at
# most 50, so no example runs long.
FLAG_VALUES = {
    "--model": ([TWO_STATE_PATH, FOUR_STATE_PATH], [OUT + "/missing.model", "", "nan"]),
    "--coverage": (
        ["none", "linear:0.5", "linear:1", "threshold:8,0,0.9"],
        ["linear:nan", "linear:-1", "linear:x", "threshold:1,2", "threshold:a,0,1", "cubic:1", "", "nan"],
    ),
    "--family": (["linear", "threshold"], ["cubic", ""]),
    "--grid": (["1", "3", "50"], ["0", "-1", "nan", ""]),
    "--samples": (["2", "3", "50"], ["1", "0", "-1", "nan", ""]),
    "--out": ([OUT + "/sweep.csv", OUT], [OUT + "/no/such.csv", ""]),
    "--low-level": (["0", "0.5"], ["-1", "2", "nan", ""]),
    "--high-level": (["0.9", "1"], ["-1", "nan", ""]),
    "--at": (["0", "0.5", "1"], ["-1", "nan", ""]),
    "--policy": (["A_H|A_H", "A_L|A_H"], ["A_0|A_L|A_H|A_H", "A_H", "bogus", ""]),
    "--seed": (["0", "7"], ["-1", "18446744073709551616", "nan", ""]),
    "--tol": ([], ["1e-9"]),
    "--help": ([], []),
}
COMMAND_FLAGS = {
    "solve": ["--model", "--coverage"],
    "sweep": ["--model", "--family", "--grid", "--out", "--low-level", "--high-level"],
    "analytic": ["--model", "--at"],
    "simulate": ["--model", "--coverage", "--policy", "--samples", "--seed"],
    "reproduce": ["--out"],
}


@st.composite
def cli_argv(draw):
    """A subcommand with most of its own flags and now and then a stray one.

    Each value is one of the flag's good values, or a bad one a quarter of
    the time; now and then a flag comes without its value.  Every choice
    shrinks toward the valid one, so a failing example shrinks toward the
    argv that is valid but for the token that breaks it.
    """
    command = draw(st.sampled_from([*COMMAND_FLAGS, "frobnicate", "", "--help"]))
    argv = [command]
    if command == "reproduce" or draw(st.integers(0, 9)) == 9:
        argv.append(draw(st.sampled_from(["fig3", "fig4", "fig5", "fig9", ""])))
    flags = [f for f in COMMAND_FLAGS.get(command, []) if draw(st.integers(0, 9)) < 9]
    if draw(st.integers(0, 4)) == 4:
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES))))
    for flag in draw(st.permutations(flags)):
        argv.append(flag)
        good, bad = FLAG_VALUES[flag]
        pool = bad if not good or (bad and draw(st.integers(0, 3)) == 3) else good
        if pool and draw(st.integers(0, 19)) < 19:
            argv.append(draw(st.sampled_from(pool)))
    # An omitted count takes its default (100k samples; 201 levels or 401 cutoffs).
    caps = {"simulate": "--samples", "sweep": "--grid"}
    if command in caps and caps[command] not in argv:
        argv += [caps[command], draw(st.sampled_from(FLAG_VALUES[caps[command]][0]))]
    return argv


@pytest.fixture(scope="module")
def cli_out(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@settings(deadline=None, max_examples=200)
@given(argv=cli_argv())
@example(argv=["simulate", "--model", TWO_STATE_PATH, "--coverage", "none",
               "--policy", "A_H|A_H", "--samples", "3", "--seed", "-1"])
def test_cli_exits_with_a_code_for_any_argv(cli_out, argv):
    argv = [token.replace(OUT, str(cli_out)) for token in argv]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
