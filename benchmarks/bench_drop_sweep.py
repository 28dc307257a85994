"""Bits-vs-accuracy-drop trade curve (the curve Table III samples).

Not a single paper figure, but the continuous object behind the
1%/5% columns of Table III: as the user relaxes the accuracy
constraint, the effective bitwidth must fall monotonically, and the
sigma budget must grow.  The curve also demonstrates the paper's
workflow claim — after profiling once, each additional constraint
costs only a sigma search plus a cheap re-optimization.  The curve is
a one-model grid of the sweep executor (``run_drop_sweep``).
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments import export_csv, make_context, run_drop_sweep
from repro.pipeline import format_table

from conftest import bench_config


def test_drop_sweep(benchmark):
    context = make_context(bench_config("alexnet"))

    def run():
        return run_drop_sweep(
            context=context,
            objective="input",
            accuracy_drops=(0.01, 0.02, 0.05, 0.10, 0.20),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    model = context.config.model
    rows = [
        {
            "drop": f"{p.accuracy_drop:.1%}",
            "sigma": p.sigma,
            "eff_input_bits": p.effective_input_bits,
            "eff_mac_bits": p.effective_mac_bits,
            "accuracy": p.validated_accuracy,
        }
        for p in result.cells
    ]
    print(f"\n=== Trade curve: bits vs accuracy drop ({model}) ===")
    print(format_table(rows, float_format="{:.3f}"))
    export_csv(
        rows, Path(__file__).parent / "results" / f"drop_sweep_{model}.csv"
    )

    sigmas = [p.sigma for p in result.cells]
    assert all(s1 <= s2 + 1e-9 for s1, s2 in zip(sigmas, sigmas[1:])), (
        "sigma budget must grow with the allowed drop"
    )
    bits = [p.effective_input_bits for p in result.cells]
    assert all(b1 >= b2 - 0.3 for b1, b2 in zip(bits, bits[1:])), (
        "effective bits must not grow with the drop"
    )
    for p in result.cells:
        assert p.meets_constraint
