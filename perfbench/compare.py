"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl

The files are written by perfbench/sweep.py, one run per line.  For each
workload and end-to-end metric the script prints each side's median and
quartiles over its runs, the change of the new median as a share of the
old one (positive is worse, whichever way the metric improves), and
whether that change is inside the metric's bound from BENCHMARK.json.
A metric whose old spread, (Q3 - Q1) / median, exceeds its bound is
marked unresolved: the runs cannot tell a change of that size from noise.
Exit status 1 when some metric got worse by more than its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _values(records: list[dict], workload: str, metric: str) -> list[float]:
    return [
        r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and metric in r["result"]["metrics"]
    ]


def _spread(q1: float, med: float, q3: float) -> float:
    return (q3 - q1) / med if med else 0.0


def summarize(groups: dict[str, list[dict]], spec: dict) -> None:
    """Median, quartiles and spread of every metric, per workload, for each group."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for label, records in groups.items():
        workloads = sorted({r["workload"] for r in records})
        for workload in workloads:
            runs = [r for r in records if r["workload"] == workload]
            bad = sum(not r["result"]["correct"] for r in runs)
            print(f"\n{label}{workload}: {len(runs)} runs, {bad} incorrect")
            names = sorted({m for r in runs for m in r["result"]["metrics"]})
            for name in names:
                q1, med, q3 = quartiles(_values(runs, workload, name))
                spread = _spread(q1, med, q3)
                bound = bounds.get(name)
                verdict = "" if bound is None else (
                    f"bound {bound:.2f}  " + ("ok" if spread <= bound / 3 else
                                             "inside bound" if spread <= bound else "TOO WIDE")
                )
                print(f"  {name:<52} median {med:<12.6g} Q1 {q1:<12.6g} Q3 {q3:<12.6g} "
                      f"spread {spread:6.3f}  {verdict}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_benchmark()
    old, new = load(argv[0]), load(argv[1])
    worse = 0
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for workload in sorted({r["workload"] for r in old} & {r["workload"] for r in new}):
            a, b = _values(old, workload, name), _values(new, workload, name)
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if not lower:
                change = -change
            if change > bound:
                verdict, worse = "WORSE than bound", worse + 1
            elif _spread(*qa) > bound:
                verdict = "unresolved (old spread exceeds bound)"
            else:
                verdict = "inside bound"
            print(f"{workload:<16} {name:<16} old {qa[1]:<11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]  "
                  f"new {qb[1]:<11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]  "
                  f"change {change:+7.2%} (bound {bound:.0%})  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
