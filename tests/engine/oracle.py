"""Batch-major injection loop: the test oracle for the engine.

This is the profiler's original trial-at-a-time loop, kept outside
``src/`` the way ``tests/nn/reference_layers.py`` keeps the per-sample
layers.  It visits batches outer and layers inner, the opposite order
of :class:`repro.engine.InjectionEngine`, and accumulates each layer's
sums in place.  Both draw every trial's noise from the same
coordinate-keyed :func:`~repro.engine.rng.trial_rng` stream and add in
the same order per layer (batches outer, repeats inner), so their
``(sq_sums, counts)`` must match byte for byte.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.analysis.injection import uniform_noise_tap
from repro.engine import enforce_finite_trial, trial_rng
from repro.nn.graph import Network

Sums = Dict[str, np.ndarray]


def profile_serial(
    network: Network,
    images: np.ndarray,
    grids: Dict[str, np.ndarray],
    *,
    num_repeats: int,
    seed: int,
    batch_size: int,
) -> Tuple[Sums, Sums]:
    """``(sq_sums, counts)`` per layer of ``grids``, batch-major."""
    positions = {layer.name: index for index, layer in enumerate(network.layers)}
    sq_sums = {name: np.zeros(len(grid)) for name, grid in grids.items()}
    counts = {name: np.zeros(len(grid)) for name, grid in grids.items()}
    output_name = network.output_name
    for batch_start in range(0, images.shape[0], batch_size):
        batch = images[batch_start : batch_start + batch_size]
        batch_index = batch_start // batch_size
        cache = network.run_all(batch)
        reference = cache[output_name]
        for name, grid in grids.items():
            for j, delta in enumerate(grid):
                for repeat in range(num_repeats):
                    rng = trial_rng(seed, positions[name], batch_index, j, repeat)
                    tap = uniform_noise_tap(float(delta), rng)
                    perturbed = network.forward_from(cache, name, tap)
                    err = perturbed - reference
                    sq_sum = float((err * err).sum())
                    if not np.isfinite(sq_sum):
                        enforce_finite_trial(perturbed, name, float(delta))
                    sq_sums[name][j] += sq_sum
                    counts[name][j] += err.size
    return sq_sums, counts
