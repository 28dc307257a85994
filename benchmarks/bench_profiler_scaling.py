"""Injection-campaign scaling benchmark (ISSUE 3 acceptance evidence).

Times the Sec. V-A lambda/theta profiling campaign on the same network
through four execution paths and writes ``BENCH_profiler.json``:

* ``legacy``      — the pre-engine serial loop (``use_engine=False``):
                    one ``forward_from`` replay per (layer, delta,
                    repeat, batch) trial, through ``layer.forward``
                    (the same layer kernels on fresh buffers).
* ``engine``      — the injection engine with ``trial_batch=1``
                    (replay plans + kernels on reused buffers, no
                    multi-trial stacking).
* ``vectorized``  — the engine with its default trial batching: R
                    noise draws stacked along the batch axis per
                    ``forward_from_many`` replay.
* ``jobs``        — ``vectorized`` plus a worker pool across layers
                    (``--jobs N``, thread backend).

All four paths share the per-(layer, batch, delta, repeat)
``SeedSequence`` RNG contract, so the fitted lambda/theta must be
bit-identical; the script asserts this and exits non-zero otherwise
(CI runs it at smoke sizes for exactly that regression check).

Timing is best-of-``--repeats`` wall clock: the hosts this runs on
share cores, and the minimum is the standard noise-robust estimator.
Note that on a single-core host the ``jobs`` row cannot beat
``vectorized`` — the speedup evidence there is carried by replay
planning, vectorization and buffer reuse.  Every path runs the same
layer kernels (:mod:`repro.nn.kernels`).

Run ``python benchmarks/bench_profiler_scaling.py --help`` for knobs;
``make bench-profiler`` runs the full AlexNet/NiN configuration.
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
BACKEND = "thread"


def profile_once(
    network,
    images,
    settings: ProfileSettings,
    *,
    use_engine: bool,
    parallel: ParallelSettings,
) -> tuple:
    profiler = ErrorProfiler(
        network,
        images,
        settings,
        parallel=parallel,
        use_engine=use_engine,
    )
    start = time.perf_counter()
    report = profiler.profile()
    elapsed = time.perf_counter() - start
    fits = {p.name: (p.lam, p.theta) for p in report}
    return elapsed, fits, report


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
    paths = {
        "legacy": dict(use_engine=False, parallel=ParallelSettings()),
        "engine": dict(
            use_engine=True, parallel=ParallelSettings(trial_batch=1)
        ),
        "vectorized": dict(use_engine=True, parallel=ParallelSettings()),
        f"jobs{jobs}": dict(
            use_engine=True,
            parallel=ParallelSettings(jobs=jobs, backend=BACKEND),
        ),
    }
    times: Dict[str, float] = {}
    fits: Dict[str, Dict[str, tuple]] = {}
    for label, kwargs in paths.items():
        best = float("inf")
        for _ in range(timing_repeats):
            elapsed, fit, _ = profile_once(network, images, settings, **kwargs)
            best = min(best, elapsed)
        times[label] = best
        fits[label] = fit
        print(f"  {model}/{label:<12} best of {timing_repeats}: {best:.3f}s")

    mismatches: List[str] = []
    reference = fits["legacy"]
    for label, fit in fits.items():
        if fit != reference:
            mismatches.append(label)
    speedup = times["legacy"] / times[f"jobs{jobs}"]
    vector_speedup = times["legacy"] / times["vectorized"]
    print(
        f"  {model}: speedup legacy->vectorized {vector_speedup:.2f}x, "
        f"legacy->jobs{jobs} {speedup:.2f}x, "
        f"fits {'BIT-IDENTICAL' if not mismatches else 'MISMATCH'}"
    )
    return {
        "model": model,
        "seed": SEED,
        "num_images": num_images,
        "num_delta_points": num_points,
        "num_repeats": num_repeats,
        "jobs": jobs,
        "backend": BACKEND,
        "timing_repeats": timing_repeats,
        "seconds": times,
        "speedup_vectorized": vector_speedup,
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
        default="alexnet,nin",
        help="comma-separated zoo models to benchmark",
    )
    parser.add_argument("--images", type=int, default=24)
    parser.add_argument("--points", type=int, default=8)
    parser.add_argument("--num-repeats", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
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
            "backend": BACKEND,
            "timing_repeats": args.repeats,
            "smoke": args.smoke,
        },
        seed=SEED,
    )
    payload = {
        "benchmark": "profiler_scaling",
        "smoke": args.smoke,
        "cpu_count": os.cpu_count(),
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
