"""Content-addressed cache keys (the PR-4 manifest hash, fine-grained).

A cache entry is only reusable when *every* input that determines the
bits of the stored result is part of its key.  For this repository the
expensive quantities — per-layer Eq. 5 regressions,
sigma-search accuracy evaluations, final bit allocations — are pure
functions of:

* the network's **weights** (and structure: layer types, wiring,
  strides, ...),
* the **calibration/evaluation images** actually consumed,
* the **seed** material and trial-coordinate layout,
* the delta/sigma **grid** probed, and
* the **code version** of the numerics (:data:`CODE_SALT`).

Anything else — worker counts, telemetry — is excluded *by design*: the engine's determinism contract guarantees
bit-identical results across those knobs (``docs/performance.md``), so
including them would only fragment the cache.

Digests are full SHA-256 hex strings; :func:`make_key` folds a mapping
of (pre-digested) parts into one canonical key.  Floats are encoded via
``float.hex`` so two keys are equal iff the inputs are bit-equal.
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING, Any, Dict, Mapping

import numpy as np

from ..sanitize import sanitize_enabled

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..analysis.profiler import LayerErrorProfile
    from ..data import Dataset
    from ..nn.graph import Network

#: Version salt folded into every cache key.  Bump whenever a change
#: alters the *bits* of any cached quantity (kernel numerics, RNG
#: layout, reduction order); bumping invalidates every existing entry.
CODE_SALT = "repro-cache-v1"

# ----------------------------------------------------------------------
# Key-field registry: the determinism contract, machine-readable.
# ----------------------------------------------------------------------

#: The field is (directly or via a digest) part of every cache key that
#: its value can influence; changing it must miss.
KEYED = "keyed"
#: The field can change *how* a result is computed but never its bits —
#: the engine's determinism contract (``docs/performance.md``) covers
#: it, so keying it would only fragment the cache.
EXCLUDED_BY_CONTRACT = "excluded-by-contract"
#: The field never reaches a numeric code path (observability,
#: persistence, and policy knobs); exclusion needs no contract.
NON_NUMERIC = "non-numeric"

#: Every legal disposition a registry entry may carry.
KEY_FIELD_DISPOSITIONS = frozenset(
    {KEYED, EXCLUDED_BY_CONTRACT, NON_NUMERIC}
)

#: Machine-readable determinism contract for every configuration
#: dataclass whose fields can reach a cached computation: class name ->
#: field name -> disposition.  The determinism analyzer
#: (:mod:`repro.check.determinism`) statically cross-checks this table
#: against the dataclass definitions — a field added to any of these
#: classes without a registry entry (the stale-cache hazard: it changes
#: results but old keys still hit) fails ``repro check --determinism``,
#: as does a registry entry whose field no longer exists.
KEY_FIELD_REGISTRY: Dict[str, Dict[str, str]] = {
    "ProfileSettings": {
        "num_images": KEYED,
        "num_delta_points": KEYED,
        "delta_min": KEYED,
        "delta_max": KEYED,
        "num_repeats": KEYED,
        "seed": KEYED,
    },
    "SearchSettings": {
        "tolerance": KEYED,
        "initial_upper": KEYED,
        "max_doublings": KEYED,
        "num_images": KEYED,
        "num_trials": KEYED,
        "seed": KEYED,
    },
    "ParallelSettings": {
        "jobs": EXCLUDED_BY_CONTRACT,
        "transient_retries": NON_NUMERIC,
    },
    "TelemetrySettings": {
        "enabled": NON_NUMERIC,
        "trace_path": NON_NUMERIC,
        # Lifecycle events and resource samples are emitted at stage
        # boundaries only — numerics are bit-identical on or off
        # (docs/observability.md), so neither belongs in cache keys.
        "events_dir": NON_NUMERIC,
        "sample_resources": NON_NUMERIC,
    },
    "ExperimentConfig": {
        "model": KEYED,
        "num_classes": KEYED,
        "train_count": KEYED,
        "test_count": KEYED,
        "profile_images": KEYED,
        "profile_points": KEYED,
        "profile_repeats": KEYED,
        "search_trials": KEYED,
        "scheme": KEYED,
        "seed": KEYED,
        "strict": KEYED,
        "jobs": EXCLUDED_BY_CONTRACT,
        "telemetry": NON_NUMERIC,
        "trace_out": NON_NUMERIC,
        "events_dir": NON_NUMERIC,
        "cache_dir": NON_NUMERIC,
        "no_cache": NON_NUMERIC,
    },
    "SweepSpec": {
        "models": KEYED,
        "accuracy_drops": KEYED,
        "objectives": KEYED,
    },
    "AblationSpec": {
        "models": KEYED,
        "accuracy_drop": KEYED,
        "objective": KEYED,
        "components": KEYED,
        "scenarios": KEYED,
        "chaos_cells": EXCLUDED_BY_CONTRACT,
    },
    # Distributed-sweep coordination (docs/distributed.md): lease
    # timing decides *when* a cell runs and on which worker; worker
    # count and spawn mechanism decide *where*.  None of them can reach
    # a numeric code path — the executor's bit-identity contract — so
    # nothing here is keyed, and the plan fingerprint folds only the
    # KEYED fields of SweepSpec/ExperimentConfig above.
    "LeaseSettings": {
        "ttl_seconds": NON_NUMERIC,
        "heartbeat_seconds": NON_NUMERIC,
        "poll_seconds": NON_NUMERIC,
    },
    "DistributedSettings": {
        "workers": EXCLUDED_BY_CONTRACT,
        "spawn": EXCLUDED_BY_CONTRACT,
    },
    # Quantized-execution runtime (packed-weight entries): weight_bits
    # changes the packed bits; backend and pack_activations cannot —
    # the runtime's bit-identity contract (docs/quantized-execution.md)
    # guarantees identical integer accumulators for every backend and
    # identical codes packed or not.
    "RuntimeSpec": {
        "weight_bits": KEYED,
        "backend": EXCLUDED_BY_CONTRACT,
        "pack_activations": EXCLUDED_BY_CONTRACT,
    },
}


def _hasher() -> "hashlib._Hash":
    return hashlib.sha256()


def array_digest(array: np.ndarray) -> str:
    """SHA-256 over an array's dtype, shape, and C-contiguous bytes."""
    array = np.asarray(array)
    h = _hasher()
    h.update(array.dtype.str.encode("ascii"))
    h.update(repr(tuple(array.shape)).encode("ascii"))
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _canonical(value: Any) -> Any:
    """JSON-able canonical form; floats keep their exact bits."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (np.floating, float)):
        return f"f:{float(value).hex()}"
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return f"a:{array_digest(value)}"
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(value[k]) for k in sorted(value)}
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for a cache key; "
        "digest it explicitly first"
    )


def make_key(parts: Mapping[str, Any]) -> str:
    """One content-addressed key from a mapping of key parts.

    The :data:`CODE_SALT` is always folded in, so callers cannot forget
    the code-version component of the invalidation story.
    """
    payload = dict(parts)
    payload["__salt__"] = CODE_SALT
    canonical = json.dumps(_canonical(payload), sort_keys=True)
    if sanitize_enabled():
        # Key recomputation tripwire: the canonical text must be a
        # fixed point of encode -> decode -> encode, and a second
        # canonicalization pass over the same payload must agree.  An
        # iteration-order-dependent or non-canonical encoding makes
        # keys drift between runs — exactly the stale-cache hazard the
        # determinism analyzer hunts statically.
        roundtrip = json.dumps(json.loads(canonical), sort_keys=True)
        second = json.dumps(_canonical(payload), sort_keys=True)
        if canonical != roundtrip or canonical != second:
            raise RuntimeError(
                "REPRO_SANITIZE: cache-key payload is not canonically "
                "stable (encoding differs between passes); keys built "
                "from it would drift between runs"
            )
    h = _hasher()
    h.update(canonical.encode("utf-8"))
    return h.hexdigest()


def network_digest(network: "Network") -> str:
    """Digest of a network's structure and every parameter array.

    Walks the layers in topological order hashing the layer type, its
    wiring, every scalar hyperparameter (stride, padding, groups, ...)
    and every ``np.ndarray`` attribute (weights, biases, affine
    scale/shift).  Two networks collide only if they compute the same
    function with the same bits.
    """
    h = _hasher()
    h.update(repr((network.name, tuple(network.input_shape))).encode())
    h.update(repr(network.output_name).encode())
    h.update(repr(tuple(network.analyzed_layer_names)).encode())
    for index, layer in enumerate(network.layers):
        h.update(
            repr(
                (index, type(layer).__name__, layer.name, tuple(layer.inputs))
            ).encode()
        )
        for attr in sorted(vars(layer)):
            if attr.startswith("_"):
                continue
            value = getattr(layer, attr)
            if isinstance(value, np.ndarray):
                h.update(attr.encode())
                h.update(array_digest(value).encode("ascii"))
            elif isinstance(value, (bool, int, float, str)) or value is None:
                h.update(repr((attr, value)).encode())
            elif isinstance(value, (list, tuple)):
                h.update(repr((attr, tuple(value))).encode())
    return h.hexdigest()


def dataset_digest(dataset: "Dataset") -> str:
    """Digest of an evaluation dataset (images, labels, class count)."""
    h = _hasher()
    h.update(array_digest(dataset.images).encode("ascii"))
    h.update(array_digest(dataset.labels).encode("ascii"))
    h.update(repr(int(dataset.num_classes)).encode())
    return h.hexdigest()


def profiles_digest(profiles: Mapping[str, "LayerErrorProfile"]) -> str:
    """Digest of fitted Eq. 5 parameters (what Eq. 7 deltas depend on).

    Scheme-1 accuracy evaluations inject deltas derived from the fitted
    ``(lambda_K, theta_K)``; a sigma-eval entry is only reusable when
    those fits are bit-equal.
    """
    h = _hasher()
    for name in sorted(profiles):
        profile = profiles[name]
        h.update(name.encode())
        h.update(float(profile.lam).hex().encode("ascii"))
        h.update(float(profile.theta).hex().encode("ascii"))
    return h.hexdigest()
