"""Counters, gauges, and fixed-bucket histograms.

A :class:`MetricsRegistry` records run-level aggregates — trials
injected, kernel fast-path vs. legacy-path dispatches, worker-pool
queue depth, retries and fallbacks fired, memoization hit rates — and
renders them as deterministic snapshots or Prometheus-style text.

Determinism contract: histogram bucket boundaries are fixed at
creation (never derived from the data) and snapshots iterate names in
sorted order, so two runs of the same campaign produce byte-identical
exports (timing histogram *values* aside).
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default histogram boundaries for span/stage durations, in seconds.
DEFAULT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: ``snapshot()`` payload: counters / gauges / histograms sub-dicts.
Snapshot = Dict[str, Dict[str, Any]]

#: Default ``# HELP`` text for the well-known metric names; the
#: registry's :meth:`MetricsRegistry.set_help` overrides per instance.
METRIC_HELP: Dict[str, str] = {
    "repro_outcome_restored_total": (
        "Optimization outcomes restored whole from the persistent cache."
    ),
    "repro_engine_retries_total": (
        "Transient worker failures retried by the injection engine."
    ),
    "repro_worker_queue_depth": (
        "Engine worker tasks submitted and not yet collected."
    ),
    "repro_layer_campaign_seconds": (
        "Wall-clock seconds per per-layer injection campaign."
    ),
    "repro_monitor_cells_queued": "Cells observed queued by the monitor.",
    "repro_monitor_cells_running": "Cells currently running.",
    "repro_monitor_cells_done": "Cells finished successfully.",
    "repro_monitor_cells_failed": "Cells that ended in failure.",
    "repro_monitor_cells_cached": "Cells satisfied by a cache hit.",
    "repro_monitor_cells_total": "Best-known total cell count.",
    "repro_monitor_cache_hits": "Persistent-cache hits reported by cells.",
    "repro_monitor_cache_misses": (
        "Persistent-cache misses reported by cells."
    ),
    "repro_monitor_retries": "Transient retries reported by stages.",
    "repro_monitor_events_seen": "Bus events folded into the monitor.",
    "repro_monitor_run_finished": (
        "1 when every observed run emitted 'finished'."
    ),
    "repro_monitor_progress_ratio": "Completed cells / known total.",
    "repro_monitor_eta_seconds": (
        "Naive remaining-work estimate from mean cell time."
    ),
}

#: Prefix fallbacks for families with dynamic member names.
_HELP_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro_kernel_", "Forward-kernel dispatches by code path."),
    ("sweep_cells_", "Executed cells by final status (ok or failed)."),
    ("repro_monitor_", "Monitor projection of a tailed run's event bus."),
)


def metric_help(name: str) -> Optional[str]:
    """Default help text for a metric name (None when unknown)."""
    text = METRIC_HELP.get(name)
    if text is not None:
        return text
    for prefix, fallback in _HELP_PREFIXES:
        if name.startswith(prefix):
            return fallback
    return None


class Counter:
    """A monotonically increasing integer."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time float (queue depth, active workers)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram with fixed boundaries.

    ``counts[i]`` observations fell at or below ``boundaries[i]``; the
    final slot counts the overflow (``+Inf`` bucket).
    """

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
    ) -> None:
        boundaries = tuple(sorted(float(b) for b in buckets))
        if not boundaries:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if len(set(boundaries)) != len(boundaries):
            raise ValueError(f"histogram {name!r} has duplicate boundaries")
        self.name = name
        self.boundaries = boundaries
        self._counts = [0] * (len(boundaries) + 1)
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bisect.bisect_left(self.boundaries, float(value))
        with self._lock:
            self._counts[index] += 1
            self._sum += float(value)
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> List[int]:
        with self._lock:
            return list(self._counts)


class MetricsRegistry:
    """Get-or-create metric store with deterministic snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._help: Dict[str, str] = {}

    def set_help(self, name: str, text: str) -> None:
        """Attach ``# HELP`` text to a metric for Prometheus export."""
        with self._lock:
            self._help[name] = str(text)

    def help_text(self, name: str) -> Optional[str]:
        """Instance help if set, else the well-known default."""
        with self._lock:
            text = self._help.get(name)
        return text if text is not None else metric_help(name)

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(
                    name, buckets or DEFAULT_SECONDS_BUCKETS
                )
            return metric

    def snapshot(self) -> Snapshot:
        """All metric values as plain sorted dicts (JSON-ready)."""
        with self._lock:
            counters: Dict[str, Any] = {
                n: c.value for n, c in sorted(self._counters.items())
            }
            gauges: Dict[str, Any] = {
                n: g.value for n, g in sorted(self._gauges.items())
            }
            histograms: Dict[str, Any] = {}
            for name, hist in sorted(self._histograms.items()):
                histograms[name] = {
                    "boundaries": list(hist.boundaries),
                    "counts": hist.bucket_counts(),
                    "sum": hist.sum,
                    "count": hist.count,
                }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def render_prometheus(self, prefix: str = "") -> str:
        """Prometheus text exposition (deterministic ordering).

        Each metric gets a ``# HELP`` line (when help text is known)
        and a ``# TYPE`` line, per the text-format convention.
        """
        snap = self.snapshot()
        lines: List[str] = []

        def _comments(name: str, full: str, kind: str) -> None:
            text = self.help_text(name)
            if text is not None:
                lines.append(f"# HELP {full} {text}")
            lines.append(f"# TYPE {full} {kind}")

        for name, value in snap["counters"].items():
            full = f"{prefix}{name}"
            _comments(name, full, "counter")
            lines.append(f"{full} {int(value)}")
        for name, value in snap["gauges"].items():
            full = f"{prefix}{name}"
            _comments(name, full, "gauge")
            lines.append(f"{full} {_format_float(float(value))}")
        for name, data in snap["histograms"].items():
            full = f"{prefix}{name}"
            _comments(name, full, "histogram")
            cumulative = 0
            for boundary, count in zip(data["boundaries"], data["counts"]):
                cumulative += int(count)
                lines.append(
                    f'{full}_bucket{{le="{_format_float(float(boundary))}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{full}_bucket{{le="+Inf"}} {int(data["count"])}')
            lines.append(f"{full}_sum {_format_float(float(data['sum']))}")
            lines.append(f"{full}_count {int(data['count'])}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format_float(value: float) -> str:
    """Shortest clean decimal form (deterministic across runs)."""
    text = f"{value:.10g}"
    return text
