"""The benchmark's own output checks, on one round of the paper studies.

Each perfbench ``paper_studies`` op reproduces one study, and its check
compares the CSV with the sha256 and the summary with the numbers recorded
in ``perfbench/expected.json``.  A benchmark run counts an op that fails
them as wrong, so one round runs here too.
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
