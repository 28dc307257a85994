"""Quantized-runtime benchmark (ISSUE 8 acceptance evidence).

Runs the paper's 1%-drop Optimized-Input allocation *for real* on the
integer low-bit runtime (``repro.quant.runtime``) and writes
``BENCH_quant.json`` with, per model:

* **wall-clock** — float64 engine forward vs quantized forward over
  the evaluation set (best of ``--repeats`` timed passes each);
* **memory traffic** — measured bytes moved through the bit-packed
  activation buffers, cross-checked per layer against the analytic
  :func:`repro.hardware.bandwidth.layer_traffic_bytes` prediction.
  Any layer diverging more than ``--traffic-tolerance`` (default 10%)
  is flagged in the JSON and fails the run;
* **accuracy** — measured top-1 drop under true integer execution vs
  the user budget;
* **bit-identity** — reference vs fast backends and packed vs unpacked
  activations, compared with exact array equality.

The script exits non-zero on any bit-identity violation, traffic
divergence beyond tolerance, or accuracy-budget violation — CI runs it
at smoke sizes (``--smoke``: lenet only) for exactly that regression
check.  ``make bench-quant`` runs the full alexnet/nin configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import ExperimentConfig, make_context  # noqa: E402
from repro.hardware.bandwidth import layer_traffic_bytes  # noqa: E402
from repro.models.evaluate import relative_drop  # noqa: E402
from repro.quant.runtime import (  # noqa: E402
    QuantizedNetwork,
    RuntimeSpec,
    build_quantized_network,
)

SEED = 20190325

#: Bits per element the float substrate moves (the engine is float64;
#: the paper's 32-bit baseline is also reported for comparison).
FLOAT_BITS = 64
PAPER_BASELINE_BITS = 32


def timed_best(fn, repeats: int) -> float:
    """Best-of-N wall-clock of a callable (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def forward_all(run_batch, images: np.ndarray, batch_size: int) -> None:
    for start in range(0, images.shape[0], batch_size):
        run_batch(images[start : start + batch_size])


def check_bit_identity(
    context, allocation, batch: np.ndarray
) -> Dict[str, bool]:
    """Exact-equality checks across backends and packing."""
    outputs = {}
    for backend in ("reference", "fast"):
        net = QuantizedNetwork(
            context.network, allocation, RuntimeSpec(backend=backend)
        )
        outputs[backend] = net.forward(batch)
    unpacked = QuantizedNetwork(
        context.network,
        allocation,
        RuntimeSpec(backend="fast", pack_activations=False),
    ).forward(batch)
    checks = {
        "backends": all(
            np.array_equal(outputs["reference"], out)
            for out in outputs.values()
        ),
        "packed_vs_unpacked": np.array_equal(outputs["fast"], unpacked),
    }
    return checks


def bench_model(
    config: ExperimentConfig,
    drop: float,
    repeats: int,
    batch_size: int,
    traffic_tolerance: float,
) -> Dict[str, object]:
    context = make_context(config)
    outcome = context.optimizer.optimize("input", accuracy_drop=drop)
    allocation = outcome.result.allocation
    stats = context.optimizer.stats()

    quantized = build_quantized_network(
        context.network, allocation, RuntimeSpec()
    )
    images = context.test.images
    labels = context.test.labels

    fp_seconds = timed_best(
        lambda: forward_all(
            lambda b: context.network.forward(b), images, batch_size
        ),
        repeats,
    )
    quantized.reset_traffic()
    q_seconds = timed_best(
        lambda: forward_all(lambda b: quantized.forward(b), images, batch_size),
        repeats,
    )

    # Accuracy under true integer execution.
    baseline = context.optimizer.baseline_accuracy()
    predictions = quantized.predict(images, batch_size=batch_size)
    measured_accuracy = float(np.mean(predictions == labels))
    measured_drop = relative_drop(baseline, measured_accuracy)

    # Measured vs analytic traffic, per layer.
    measured_bits = quantized.measured_input_bits()
    analytic_bytes = layer_traffic_bytes(stats, allocation)
    layers: List[Dict[str, object]] = []
    divergent: List[str] = []
    for entry in allocation:
        measured = measured_bits[entry.name] / 8.0
        analytic = analytic_bytes[entry.name]
        divergence = abs(measured - analytic) / analytic if analytic else 0.0
        flagged = divergence > traffic_tolerance
        if flagged:
            divergent.append(entry.name)
        layers.append(
            {
                "layer": entry.name,
                "bits": entry.total_bits,
                "analytic_bytes": analytic,
                "measured_bytes": measured,
                "divergence": divergence,
                "flagged": flagged,
            }
        )
    total_inputs = sum(stats[n].num_inputs for n in allocation.names)
    measured_total_bits = sum(measured_bits.values())
    effective_bits = allocation.effective_bitwidth(
        {n: stats[n].num_inputs for n in allocation.names}
    )
    fp_bytes = total_inputs * FLOAT_BITS / 8.0
    paper_baseline_bytes = total_inputs * PAPER_BASELINE_BITS / 8.0
    quant_bytes = measured_total_bits / 8.0

    identity = check_bit_identity(context, allocation, images[:batch_size])

    passed = (
        all(identity.values())
        and not divergent
        and measured_drop <= drop + 1e-9
    )
    result: Dict[str, object] = {
        "model": config.model,
        "accuracy_drop_budget": drop,
        "bitwidths": {a.name: a.total_bits for a in allocation},
        "effective_bitwidth": effective_bits,
        "seconds": {"fp64_engine": fp_seconds, "quantized": q_seconds},
        "traffic_bytes_per_image": {
            "fp64_engine": fp_bytes,
            "paper_fp32_baseline": paper_baseline_bytes,
            "quantized_measured": quant_bytes,
            "reduction_vs_fp32": (
                (paper_baseline_bytes - quant_bytes) / paper_baseline_bytes
            ),
            "consistent_with_mean_bitwidth": abs(
                quant_bytes * 8.0 / total_inputs - effective_bits
            )
            <= traffic_tolerance * effective_bits,
        },
        "layers": layers,
        "divergent_layers": divergent,
        "packed_weight_bytes": quantized.packed_weight_nbytes(),
        "accuracy": {
            "baseline": baseline,
            "simulated": outcome.validated_accuracy,
            "measured": measured_accuracy,
            "measured_drop": measured_drop,
            "budget_met": measured_drop <= drop + 1e-9,
        },
        "bit_identity": identity,
        "passed": passed,
    }
    print(
        f"  {config.model}: fp64 {fp_seconds:.3f}s  quantized "
        f"{q_seconds:.3f}s  traffic {quant_bytes:.0f} B/img "
        f"(fp32 baseline {paper_baseline_bytes:.0f} B/img, "
        f"{result['traffic_bytes_per_image']['reduction_vs_fp32']:.0%} "
        f"saved)  drop {measured_drop:.2%}/{drop:.2%}  "
        f"{'OK' if passed else 'FAIL'}"
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--models", default="alexnet,nin", help="comma-separated zoo models"
    )
    parser.add_argument("--drop", type=float, default=0.01)
    parser.add_argument("--train-count", type=int, default=256)
    parser.add_argument("--test-count", type=int, default=128)
    parser.add_argument("--profile-images", type=int, default=16)
    parser.add_argument("--profile-points", type=int, default=6)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument(
        "--repeats", type=int, default=3, help="timed passes (best-of)"
    )
    parser.add_argument(
        "--traffic-tolerance",
        type=float,
        default=0.10,
        help="max relative measured-vs-analytic traffic divergence",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI configuration: lenet only",
    )
    parser.add_argument(
        "--output",
        default=str(REPO_ROOT / "BENCH_quant.json"),
        help="result JSON path",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.models = "lenet"
        args.train_count = 96
        args.test_count = 48
        args.profile_images = 8
        args.profile_points = 4
        args.repeats = 2

    print("== quantized runtime vs fp64 engine ==")
    results = []
    for model in (m.strip() for m in args.models.split(",")):
        config = ExperimentConfig(
            model=model,
            num_classes=8,
            train_count=args.train_count,
            test_count=args.test_count,
            profile_images=args.profile_images,
            profile_points=args.profile_points,
            seed=SEED,
        )
        results.append(
            bench_model(
                config,
                args.drop,
                args.repeats,
                args.batch_size,
                args.traffic_tolerance,
            )
        )

    passed = all(r["passed"] for r in results)
    payload = {
        "benchmark": "quantized-runtime",
        "traffic_tolerance": args.traffic_tolerance,
        "cpu_count": os.cpu_count(),
        "models": results,
        "passed": passed,
    }
    Path(args.output).write_text(json.dumps(payload, indent=2))
    print(f"results written to {args.output}")
    if not passed:
        print("FAILURE: see flagged layers / identity checks above")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
