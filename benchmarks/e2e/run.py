#!/usr/bin/env python3
"""End-to-end benchmark: cold/warm optimize grids and quantized inference.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload alexnet-scheme1-b1 --seed 20190325
    python3 benchmarks/e2e/run.py --seed 20190325 --out results.json   # every workload
    python3 benchmarks/e2e/run.py --workload nin-scheme2-b32 --trace 1  # per-layer numbers
    python3 benchmarks/e2e/run.py --smoke                               # lenet versions

Prints ``<workload> <metric> <value> <unit>`` for every metric that
``BENCHMARK.json`` declares (end-to-end, or per-layer with ``--trace 1``)
and, as the last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``--workload`` every
workload runs in its own subprocess, one after another.  Exits 1 when an
operation failed or a declared metric is missing, 2 when the program or
``BENCHMARK.json`` cannot be loaded.
"""

from __future__ import annotations

import os

# One client doing one thing at a time: single-threaded BLAS keeps each
# operation on one core and the timings steadier on a shared host.
# Must be set before numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 20190325
#: Measured seconds per workload in ``--smoke`` mode: the minimum rounds.
SMOKE_SECONDS = 1


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(name: str, result, declared: List[dict]) -> dict:
    """Print one line per declared metric; return the JSON result."""
    metrics: Dict[str, dict] = {}
    for entry in declared:
        metric, unit = entry["name"], entry["unit"]
        if metric in result.metrics:
            value = result.metrics[metric]
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{name} {metric} {value!r} {unit}")
    absent = [entry["name"] for entry in declared if entry["name"] not in metrics]
    if absent:
        print(f"{name} missing {' '.join(absent)}")
    return {
        "correct": result.failed == 0 and not set(absent) - set(result.missing),
        "attempted": max(result.attempted, 1),
        "failed": min(result.failed, max(result.attempted, 1)),
        "metrics": metrics,
    }


def append_run(path: Path, args: argparse.Namespace, workloads: Dict[str, dict]) -> None:
    """Add this invocation to the results file that compare.py reads."""
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(
        {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "smoke": args.smoke,
            "cpu_count": os.cpu_count(),
            "workloads": workloads,
        }
    )
    path.write_text(json.dumps({"runs": runs}, indent=1) + "\n")


def run_one(args: argparse.Namespace, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"run.py: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    outcome = report(args.workload, result, declared)
    if args.out:
        append_run(Path(args.out), args, {args.workload: outcome})
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


def run_all(args: argparse.Namespace, spec: dict) -> int:
    results: Dict[str, dict] = {}
    status = 0
    for entry in spec["workloads"]:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", entry["name"],
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if child.returncode != 0:
            status = 1
        try:
            results[entry["name"]] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"run.py: workload {entry['name']} printed no result", file=sys.stderr)
            return 2 if child.returncode == 2 else 1
    if args.out:
        append_run(Path(args.out), args, results)
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "workloads": results,
            }
        )
    )
    return status


def main(argv: Optional[List[str]] = None) -> int:
    try:
        spec = load_spec()
    except (OSError, ValueError) as exc:
        print(f"run.py: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        choices=[entry["name"] for entry in spec["workloads"]],
        help="run one workload in this process (default: all, one subprocess each)",
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        help=f"measured time per workload (default: run_seconds from BENCHMARK.json, "
        f"{SMOKE_SECONDS} with --smoke); the workload's minimum rounds always run",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: a traced run that prints the per-layer metrics",
    )
    parser.add_argument("--out", help="append this invocation's results to a JSON file")
    parser.add_argument(
        "--smoke", action="store_true", help="lenet versions of the workloads, one round each"
    )
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else spec["run_seconds"]
    if args.workload is None:
        return run_all(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
