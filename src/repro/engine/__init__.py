"""Execution engine for injection campaigns (the Sec. V-A loop, pools).

The profiler's Sec. V-A measurement loop is the repo's dominant cost:

* :mod:`~repro.engine.campaign` — :class:`InjectionEngine`, the
  layer-major campaign loop with per-trial seed-sequence streams and a
  thread pool across layers.
* :mod:`~repro.engine.rng` — the deterministic trial-stream derivation.
* :mod:`~repro.engine.timing` — per-stage wall-clock accounting.
* :mod:`~repro.engine.alloc` — glibc allocator tuning for large replay
  temporaries.

Architecture, determinism contract, knobs, and measured timings:
``docs/performance.md``.
"""

from ..config import ParallelSettings
from .alloc import tune_allocator
from .campaign import (
    CampaignResult,
    InjectionEngine,
    LayerCells,
    enforce_finite_trial,
    run_layer_campaign,
)
from .rng import trial_rng, trial_seed_sequence
from .timing import StageTimings

__all__ = [
    "CampaignResult",
    "InjectionEngine",
    "LayerCells",
    "ParallelSettings",
    "StageTimings",
    "enforce_finite_trial",
    "run_layer_campaign",
    "trial_rng",
    "trial_seed_sequence",
    "tune_allocator",
]
