"""Execution engine for injection campaigns (replay plans, batching, pools).

The profiler's Sec. V-A measurement loop is the repo's dominant cost;
this package makes it a first-class batched workload:

* :mod:`~repro.engine.kernels` — the replay forward: the layer kernels
  of :mod:`repro.nn.kernels` on reused buffers, GEMMs sliced per trial.
* :mod:`~repro.engine.campaign` — :class:`InjectionEngine`, the
  vectorized campaign runner with per-trial seed-sequence streams,
  trial batching, and layer-level worker pools.
* :mod:`~repro.engine.parallel` — thread/process pools with the clean
  activation caches shared read-only (shared memory for processes).
* :mod:`~repro.engine.rng` — the deterministic trial-stream derivation.
* :mod:`~repro.engine.timing` — per-stage wall-clock accounting.
* :mod:`~repro.engine.alloc` — glibc allocator tuning for large replay
  temporaries.

Architecture, determinism contract, knobs, and measured speedups:
``docs/performance.md``.
"""

from ..config import ParallelSettings
from ..nn.kernels import KernelScratch, fused_im2col
from .alloc import tune_allocator
from .campaign import (
    CampaignResult,
    InjectionEngine,
    LayerCells,
    enforce_finite_trial,
    run_layer_campaign,
)
from .kernels import make_forward_fn
from .parallel import SharedCaches
from .rng import trial_rng, trial_seed_sequence
from .timing import StageTimings

__all__ = [
    "CampaignResult",
    "InjectionEngine",
    "KernelScratch",
    "LayerCells",
    "ParallelSettings",
    "SharedCaches",
    "StageTimings",
    "enforce_finite_trial",
    "fused_im2col",
    "make_forward_fn",
    "run_layer_campaign",
    "trial_rng",
    "trial_seed_sequence",
    "tune_allocator",
]
