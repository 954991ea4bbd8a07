"""The benchmark's own output checks, on one round of each workload.

Each perfbench ``paper_studies`` op reproduces one study, and its check
compares the CSV with the sha256 and the summary with the numbers recorded
in ``perfbench/expected.json``.  Each ``point_queries`` op quotes one
contract, and its check tests the row against the workload's own dense
solve.  Each ``mc_oracle`` op is one Monte-Carlo estimate, and its check
tests it against the exact value and pins the digest of the estimates.  A
benchmark run counts an op that fails them as wrong, so one round of each
runs here too.
"""

import importlib
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_one_round_of_the_paper_studies_passes_the_benchmark_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    ops = workloads.PaperStudies(0, tmp_path).unit(0)
    assert [op.kind for op in ops] == list(workloads.STUDIES)
    for op in ops:
        verdict = op.check(op.call(), Counter())
        assert verdict.problems == [], op.kind


def test_one_deck_of_quotes_passes_the_benchmark_checks(tmp_path, monkeypatch):
    # Each perfbench ``point_queries`` op is a one-row sweep, which certifies
    # and prices its problems; its check solves the row's policy densely and
    # tests the certificate and the premium and profit identities.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    quotes = workloads.PointQueries(1, tmp_path)
    quotes.setup()
    ops = quotes.unit(0)
    assert ops
    for op in ops:
        verdict = op.check(op.call(), Counter())
        assert verdict.problems == [], op.kind


def test_one_deck_of_estimates_passes_the_benchmark_checks(tmp_path, monkeypatch):
    # Each perfbench ``mc_oracle`` op is one 100k-sample estimate; its check
    # compares it with the exact value, and the run compares the digest of
    # seed 0's first deck with the one recorded in expected.json.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    estimates = workloads.McOracle(0, tmp_path)
    estimates.setup()
    ops = estimates.unit(0)
    assert ops
    digests = []
    for op in ops:
        verdict = op.check(op.call(), Counter())
        assert verdict.problems == [], op.kind
        digests.append({"digest": verdict.digest})
    assert workloads.unit_digest(digests) == workloads.EXPECTED["unit_digests"]["mc_oracle"]["0"]
