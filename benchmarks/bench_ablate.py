"""Ablation-campaign benchmark (ISSUE 6 acceptance evidence).

Measures the campaign engine (``repro ablate``) and writes
``BENCH_ablate.json``:

* **cold vs warm campaign** — the same component/scenario campaign run
  twice against one persistent cache directory.  Every cell builds a
  fresh optimizer, so only the content-addressed cache can make the
  second campaign fast; rows must be bit-identical across cold, warm,
  and a third no-cache campaign (caching never changes results).

* **chaos isolation** — the campaign re-run with one injected
  ``SimulatedCrash`` cell.  Exactly that cell must fail (classified,
  with a stable traceback digest) and every other row must stay
  bit-identical to the clean campaign.

* **importance ranking** — the report's component importance must be
  non-empty and sorted most-important-first; with a chaos cell present
  the crashed component must rank first (critical).

The script exits non-zero on any identity mismatch, a warm campaign
slower than cold, or an incomplete report — CI-compatible via
``--smoke``.  ``make bench-ablate`` runs the full configuration.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import (  # noqa: E402
    AblationSpec,
    ExperimentConfig,
    run_ablation_campaign,
)
from repro.telemetry import build_manifest  # noqa: E402

SEED = 20190325


def row_fingerprint(row) -> Dict[str, Any]:
    """Everything in a row that must be identical across cache states."""
    payload = row.as_dict()
    for volatile in ("elapsed_seconds", "cache_counters", "resumed"):
        payload.pop(volatile, None)
    return payload


def campaign_rows(report) -> List[Dict[str, Any]]:
    return [row_fingerprint(row) for row in report.rows]


def timed_campaign(spec: AblationSpec, config: ExperimentConfig):
    start = time.perf_counter()
    report = run_ablation_campaign(spec, config)
    return report, time.perf_counter() - start


def bench_cache_sharing(
    spec: AblationSpec, config: ExperimentConfig
) -> Dict[str, Any]:
    """Cold/warm/no-cache campaigns; asserts row bit-identity."""
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-ablate-")
    try:
        cached_config = replace(config, cache_dir=cache_dir)
        runs: Dict[str, List[Dict[str, Any]]] = {}
        times: Dict[str, float] = {}
        counters: Dict[str, Dict[str, int]] = {}
        restored: Dict[str, Dict[str, int]] = {}
        reports = {}
        for label, cfg in (
            ("cold", cached_config),
            ("warm", cached_config),
            ("no_cache", config),
        ):
            report, seconds = timed_campaign(spec, cfg)
            reports[label] = report
            runs[label] = campaign_rows(report)
            times[label] = seconds
            counters[label] = dict(report.cache_counters)
            restored[label] = dict(report.restored_cache_counters)
            print(
                f"  {label:<9} {seconds:8.3f}s  "
                f"({counters[label].get('hits', 0)} hits, "
                f"{counters[label].get('misses', 0)} misses; "
                f"{restored[label].get('hits', 0)} restore hits)"
            )
        warm_speedup = times["cold"] / times["warm"]
        identical = runs["cold"] == runs["warm"] == runs["no_cache"]
        print(
            f"  warm campaign speedup {warm_speedup:.1f}x, rows "
            f"{'BIT-IDENTICAL' if identical else 'MISMATCH'}"
        )
        for line in reports["cold"].lines():
            print(f"  {line}")
        return {
            "num_cells": len(runs["cold"]),
            "seconds": times,
            "warm_speedup": warm_speedup,
            "cache_counters": counters,
            "restored_cache_counters": restored,
            "bit_identical": identical,
            # Every warm cell is restored, so its hits are restore hits.
            "warm_hits": counters["warm"].get("hits", 0)
            + restored["warm"].get("hits", 0),
            "importance": [
                entry.as_dict() for entry in reports["cold"].importance
            ],
            "scenarios": [
                entry.as_dict() for entry in reports["cold"].scenarios
            ],
            "rows": runs["cold"],
            "passed": identical and warm_speedup > 1.0,
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def bench_chaos_isolation(
    spec: AblationSpec,
    config: ExperimentConfig,
    chaos_cell: str,
    clean_rows: List[Dict[str, Any]],
) -> Dict[str, Any]:
    """One injected crash must fail one cell and disturb nothing else."""
    chaos_spec = replace(spec, chaos_cells=(chaos_cell,))
    report, seconds = timed_campaign(chaos_spec, config)
    failed = [row for row in report.rows if row.status == "failed"]
    one_failure = [row.cell_id for row in failed] == [chaos_cell]
    record = failed[0].failure.as_dict() if failed else None
    survivors = {
        row["cell_id"]: row
        for row in campaign_rows(report)
        if row["cell_id"] != chaos_cell
    }
    clean = {
        row["cell_id"]: row
        for row in clean_rows
        if row["cell_id"] != chaos_cell
    }
    isolated = survivors == clean
    ranked_first = bool(
        report.importance and report.importance[0].critical
    )
    print(
        f"  chaos cell {chaos_cell}: "
        f"{'1 failed row' if one_failure else 'WRONG failure set'}, "
        f"others {'BIT-IDENTICAL' if isolated else 'DISTURBED'}, "
        f"crashed component ranked "
        f"{'first (critical)' if ranked_first else 'WRONG'}"
    )
    if record:
        print(
            f"  classified: {record['error_class']} at "
            f"{record['stage']} ({record['traceback_digest']})"
        )
    return {
        "chaos_cell": chaos_cell,
        "seconds": seconds,
        "failure": record,
        "one_failure": one_failure,
        "others_bit_identical": isolated,
        "critical_ranked_first": ranked_first,
        "passed": one_failure and isolated and ranked_first,
    }


def importance_sorted(importance: List[Dict[str, Any]]) -> bool:
    scores = [entry["score"] for entry in importance]
    return all(a >= b for a, b in zip(scores, scores[1:]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", default="lenet")
    parser.add_argument("--drop", type=float, default=0.05)
    parser.add_argument("--objective", default="input")
    parser.add_argument(
        "--components",
        default="xi,cache,scheme",
        help="comma-separated matrix components ('all' for every one)",
    )
    parser.add_argument(
        "--scenarios",
        default="drop:loose,input:noise,weights:noise",
        help="comma-separated scenario names ('' for none)",
    )
    parser.add_argument(
        "--chaos-cell",
        default="component/xi:equal/lenet",
        help="cell id crashed in the isolation benchmark",
    )
    parser.add_argument("--train-count", type=int, default=192)
    parser.add_argument("--test-count", type=int, default=96)
    parser.add_argument("--profile-images", type=int, default=12)
    parser.add_argument("--profile-points", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI configuration: 2-cell matrix, no scenarios",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_ablate.json"),
        help="result JSON path",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.components = "xi"
        args.scenarios = ""
        args.train_count = 96
        args.test_count = 48
        args.profile_images = 8
        args.profile_points = 4

    config = ExperimentConfig(
        model="lenet",
        num_classes=8,
        train_count=args.train_count,
        test_count=args.test_count,
        profile_images=args.profile_images,
        profile_points=args.profile_points,
        seed=SEED,
    )
    components = (
        None
        if args.components == "all"
        else tuple(c.strip() for c in args.components.split(",") if c.strip())
    )
    scenarios = tuple(
        s.strip() for s in args.scenarios.split(",") if s.strip()
    )
    spec = AblationSpec(
        models=tuple(m.strip() for m in args.models.split(",")),
        accuracy_drop=args.drop,
        objective=args.objective,
        components=components,
        scenarios=scenarios,
    )

    print("== cold vs warm campaign (shared persistent cache) ==")
    sharing = bench_cache_sharing(spec, config)
    print("== chaos isolation ==")
    chaos = bench_chaos_isolation(
        spec, config, args.chaos_cell, sharing["rows"]
    )

    ranked = bool(sharing["importance"]) and importance_sorted(
        sharing["importance"]
    )

    manifest = build_manifest(
        config={
            "benchmark": "ablate",
            "models": args.models,
            "drop": args.drop,
            "objective": args.objective,
            "components": args.components,
            "scenarios": args.scenarios,
            "chaos_cell": args.chaos_cell,
            "train_count": args.train_count,
            "test_count": args.test_count,
            "profile_images": args.profile_images,
            "profile_points": args.profile_points,
            "smoke": args.smoke,
        },
        seed=SEED,
    )
    payload = {
        "benchmark": "ablate",
        "smoke": args.smoke,
        "manifest": manifest.as_dict(),
        "cache_sharing": sharing,
        "chaos_isolation": chaos,
        "importance_ranked": ranked,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")

    failures = []
    if not sharing["bit_identical"]:
        failures.append("cold/warm/no-cache campaign rows differ")
    if sharing["warm_speedup"] <= 1.0:
        failures.append("warm campaign not faster than cold")
    if not chaos["passed"]:
        failures.append("chaos cell not isolated to one failed row")
    if not ranked:
        failures.append("importance ranking missing or unsorted")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
