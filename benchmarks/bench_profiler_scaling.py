"""Injection-campaign scaling benchmark: serial vs ``--jobs N`` threads.

Times the Sec. V-A lambda/theta profiling campaign on the same network
through the engine's two execution paths and writes
``BENCH_profiler.json``:

* ``serial`` — the layer-major loop: one ``forward_from`` replay per
  (layer, batch, delta, repeat) trial, layer after layer.
* ``jobsN``  — the same loop with whole layers on a thread pool of
  ``--jobs N`` workers (capped at the available cores; the payload
  records the count that ran).

Both paths draw every trial from the same coordinate-keyed
``SeedSequence`` stream and reduce in a fixed order, so the fitted
lambda/theta must be bit-identical; the script asserts this and exits
non-zero otherwise (CI runs it at smoke sizes for exactly that check).

Timing is best-of-``--repeats`` wall clock: the hosts this runs on
share cores, and the minimum is the standard noise-robust estimator.
Defaults are the paper's profiling budget (50 images, 20 delta points,
2 repeats) on alexnet, nin, resnet50 and mobilenet.

BLAS thread counts change the last digits of the fits, so the payload
records ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS``; ``make bench-profiler`` pins all three to 1.

Run ``python benchmarks/bench_profiler_scaling.py --help`` for knobs;
``make bench-profiler`` runs the default configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis import ErrorProfiler  # noqa: E402
from repro.config import ParallelSettings, ProfileSettings  # noqa: E402
from repro.data import SyntheticImageNet  # noqa: E402
from repro.models import build_model, lsuv_calibrate  # noqa: E402
from repro.telemetry import build_manifest  # noqa: E402

SEED = 20190325


def profile_once(network, images, settings: ProfileSettings, jobs: int):
    profiler = ErrorProfiler(
        network, images, settings, parallel=ParallelSettings(jobs=jobs)
    )
    start = time.perf_counter()
    report = profiler.profile()
    elapsed = time.perf_counter() - start
    return elapsed, report


def bench_model(
    model: str,
    *,
    num_images: int,
    num_points: int,
    num_repeats: int,
    jobs: int,
    timing_repeats: int,
) -> Dict[str, object]:
    source = SyntheticImageNet(num_classes=8, seed=SEED)
    images = source.train_test(num_images, 8)[0].images
    network = build_model(model, num_classes=8, seed=SEED)
    lsuv_calibrate(network, images[: min(16, num_images)])
    settings = ProfileSettings(
        num_images=num_images,
        num_delta_points=num_points,
        num_repeats=num_repeats,
        seed=SEED,
    )
    paths = {"serial": 1, f"jobs{jobs}": jobs}
    times: Dict[str, float] = {}
    fits: Dict[str, Dict[str, tuple]] = {}
    workers: Dict[str, int] = {}
    for label, path_jobs in paths.items():
        best = float("inf")
        for _ in range(timing_repeats):
            elapsed, report = profile_once(network, images, settings, path_jobs)
            best = min(best, elapsed)
        times[label] = best
        fits[label] = {p.name: (p.lam, p.theta) for p in report}
        workers[label] = report.jobs
        print(f"  {model}/{label:<8} best of {timing_repeats}: {best:.3f}s")

    reference = fits["serial"]
    mismatches: List[str] = [
        label for label, fit in fits.items() if fit != reference
    ]
    speedup = times["serial"] / times[f"jobs{jobs}"]
    print(
        f"  {model}: serial->jobs{jobs} {speedup:.2f}x "
        f"({workers[f'jobs{jobs}']} workers ran), "
        f"fits {'BIT-IDENTICAL' if not mismatches else 'MISMATCH'}"
    )
    return {
        "model": model,
        "seed": SEED,
        "num_images": num_images,
        "num_delta_points": num_points,
        "num_repeats": num_repeats,
        "jobs": jobs,
        "workers": workers,
        "timing_repeats": timing_repeats,
        "seconds": times,
        "speedup_jobs": speedup,
        "bit_identical": not mismatches,
        "mismatched_paths": mismatches,
        "fits": {
            name: {"lam": lam, "theta": theta}
            for name, (lam, theta) in reference.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models",
        default="alexnet,nin,resnet50,mobilenet",
        help="comma-separated zoo models to benchmark",
    )
    parser.add_argument("--images", type=int, default=50)
    parser.add_argument("--points", type=int, default=20)
    parser.add_argument("--num-repeats", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--repeats",
        type=int,
        default=2,
        help="timing repetitions per path (best-of)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI configuration: lenet only, small grid, 1 repeat",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_profiler.json"),
        help="result JSON path",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.models = "lenet"
        args.images = 8
        args.points = 4
        args.repeats = 1
        args.jobs = min(args.jobs, 2)

    results = []
    for model in args.models.split(","):
        print(f"== {model} ==")
        results.append(
            bench_model(
                model.strip(),
                num_images=args.images,
                num_points=args.points,
                num_repeats=args.num_repeats,
                jobs=args.jobs,
                timing_repeats=args.repeats,
            )
        )
    manifest = build_manifest(
        config={
            "benchmark": "profiler_scaling",
            "models": args.models,
            "images": args.images,
            "points": args.points,
            "num_repeats": args.num_repeats,
            "jobs": args.jobs,
            "timing_repeats": args.repeats,
            "smoke": args.smoke,
        },
        seed=SEED,
    )
    payload = {
        "benchmark": "profiler_scaling",
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
        # BLAS thread counts change the last digits of the fits.
        "blas_threads": {
            name: os.environ.get(name)
            for name in (
                "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS",
                "MKL_NUM_THREADS",
            )
        },
        "manifest": manifest.as_dict(),
        "results": results,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")
    failed = [r["model"] for r in results if not r["bit_identical"]]
    if failed:
        print(f"FAIL: non-identical fits for {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
