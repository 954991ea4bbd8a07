"""Fold a series of results files into one trajectory point.

    python3 perfbench/summarize.py .perfbench/results/*.json > perfbench/trajectory/BENCH_<n>.json

For every workload: the median, quartiles and spread ((q3 - q1) / median,
quartiles as ``statistics.quantiles(values, n=4)`` gives them) of each
untraced metric over the runs, and the per-layer metrics of the traced runs
(median over runs).  A table of the spreads goes to stderr.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def fold(values: list[float]) -> dict:
    point = {"median": statistics.median(values), "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        point.update(q1=q1, q3=q3, spread=(q3 - q1) / point["median"] if point["median"] else 0.0)
    return point


def main(paths: list[str]) -> int:
    results = [json.loads(Path(p).read_text()) for p in paths]
    if not results:
        print("usage: summarize.py RESULTS.json ...", file=sys.stderr)
        return 2
    point = {"machine": results[0]["machine"], "workloads": {}}
    for result in results:
        entry = point["workloads"].setdefault(result["workload"], {"runs": [], "traced_runs": []})
        runs = entry["traced_runs" if result["trace"] else "runs"]
        runs.append({k: result[k] for k in ("seed", "seconds", "correct", "attempted", "failed")})
        runs[-1]["metrics"] = result["metrics"]
    for name, entry in sorted(point["workloads"].items()):
        for kind, label in (("runs", "end_to_end"), ("traced_runs", "per_layer")):
            runs = entry.pop(kind)
            if not runs:
                continue
            shared = set.intersection(*(set(r["metrics"]) for r in runs))
            entry[label] = {m: fold([r["metrics"][m] for r in runs]) for m in sorted(shared)}
            entry[f"{label}_runs"] = [{k: v for k, v in r.items() if k != "metrics"} for r in runs]
        for metric, folded in sorted(entry.get("end_to_end", {}).items()):
            print(f"{name:14} {metric:16} median {folded['median']:.6g}  spread {folded.get('spread', 0):.3f}",
                  file=sys.stderr)
    json.dump(point, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
