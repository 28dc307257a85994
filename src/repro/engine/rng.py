"""Deterministic per-trial RNG streams for injection campaigns.

Every injection trial is identified by a stable coordinate: the start
layer's position in the network, the batch index within the profiling
set, the delta-grid index, and the repeat index.  Each trial draws its
noise from a dedicated generator seeded by

    ``SeedSequence(seed).spawn(...)`` down the path
    ``(layer_position, batch_index, delta_index, repeat_index)``

(constructed directly via the equivalent ``spawn_key``, which avoids
materializing intermediate children).  Because the stream depends only
on the coordinate — never on execution order — the campaign produces
bit-identical sigmas regardless of worker count or the order layers
and batches are visited in.  This also fixes the old
profiler coupling where one ``default_rng(seed)`` threaded through the
nested loop made every layer's sigmas depend on every loop before it.
"""

from __future__ import annotations

import numpy as np


def trial_seed_sequence(
    seed: int,
    layer_position: int,
    batch_index: int,
    delta_index: int,
    repeat_index: int,
) -> np.random.SeedSequence:
    """The spawned child seed for one trial coordinate.

    Identical to
    ``SeedSequence(seed).spawn(P)[layer_position].spawn(B)[batch_index]
    .spawn(D)[delta_index].spawn(R)[repeat_index]`` for any counts
    P/B/D/R large enough — spawning appends the child index to the
    parent's ``spawn_key``.
    """
    return np.random.SeedSequence(
        entropy=seed,
        spawn_key=(layer_position, batch_index, delta_index, repeat_index),
    )


def trial_rng(
    seed: int,
    layer_position: int,
    batch_index: int,
    delta_index: int,
    repeat_index: int,
) -> np.random.Generator:
    """Generator for one trial, independent of any other trial's draws."""
    return np.random.default_rng(
        trial_seed_sequence(
            seed, layer_position, batch_index, delta_index, repeat_index
        )
    )
