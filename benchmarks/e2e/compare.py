#!/usr/bin/env python3
"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/e2e/compare.py A.json B.json           # B against the baseline A
    python3 benchmarks/e2e/compare.py --pairs A.json B.json   # plus the claim rule for B

A and B are results files that ``run.py --out`` appends to, one run per
invocation.  For every (workload, end-to-end metric) the report gives
each set's median and quartiles and a status:

``ok``          B's median is within the bound of A's median.
``REGRESSION``  B's median is worse than A's by more than the bound.
``unresolved``  one set's spread (interquartile range over median)
                exceeds the bound, so a change within the bound cannot
                be told from noise -- unless every run of B reads better
                than every run of A, which is reported as ``better``.

``--pairs`` treats run i of A and run i of B as one pair (run them
alternately, the parent first in every other pair) and adds the claim
rule for a change that claims a gain: B wins at least 9/10 of the pairs,
ties counting for neither side, and the medians differ by more than A's
interquartile range.

Exits 1 on a regression, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]

Key = Tuple[str, str]


def load_runs(path: Path) -> Dict[Key, List[float]]:
    """Values of every (workload, metric) across a file's runs, in run order."""
    values: Dict[Key, List[float]] = {}
    for run in json.loads(path.read_text())["runs"]:
        for workload, result in run["workloads"].items():
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(float(entry["value"]))
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def is_better(b: float, a: float, better: str) -> bool:
    return b < a if better == "lower" else b > a


def worsening(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """How much worse B's median is than A's, as a share of A's (< 0: better)."""
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    change = (median_b - median_a) / abs(median_a) if median_a else 0.0
    return change if better == "lower" else -change


def status(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        if all(is_better(x, y, better) for x in b for y in a):
            return "better"
        return "unresolved"
    return "REGRESSION" if worsening(a, b, better) > bound else "ok"


def claim(a: Sequence[float], b: Sequence[float], better: str) -> Tuple[int, int, bool]:
    """(wins of B, pairs, whether B's gain may be claimed)."""
    pairs = min(len(a), len(b))
    if pairs == 0:
        return 0, 0, False
    wins = sum(is_better(b[i], a[i], better) for i in range(pairs))
    q1, median_a, q3 = quartiles(a[:pairs])
    median_b = quartiles(b[:pairs])[1]
    return wins, pairs, wins >= 0.9 * pairs and abs(median_b - median_a) > q3 - q1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path, help="results of the parent (A)")
    parser.add_argument("candidate", type=Path, help="results of the change (B)")
    parser.add_argument("--pairs", action="store_true", help="apply the 9/10 claim rule")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_values, b_values = load_runs(args.baseline), load_runs(args.candidate)
    regressions = 0
    header = f"{'workload':<20} {'metric':<24} {'A median [q1, q3]':>30} {'B median [q1, q3]':>30} {'change':>8}  status"
    print(header + ("  claim" if args.pairs else ""))
    for workload in (entry["name"] for entry in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a_values or key not in b_values:
                continue
            a, b = a_values[key], b_values[key]
            verdict = status(a, b, metric["better"], metric["bound"])
            regressions += verdict == "REGRESSION"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
            median_a, median_b = quartiles(a)[1], quartiles(b)[1]
            change = (median_b - median_a) / abs(median_a) if median_a else 0.0
            line = (
                f"{workload:<20} {metric['name']:<24} {cells[0]:>30} {cells[1]:>30} "
                f"{change:>+8.1%}  {verdict}"
            )
            if args.pairs:
                wins, pairs, claimed = claim(a, b, metric["better"])
                line += f"  {wins}/{pairs} {'claimed' if claimed else 'not claimed'}"
            print(line)
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
