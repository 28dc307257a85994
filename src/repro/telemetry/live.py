"""Live run monitoring: tail the event bus, render progress, serve /metrics.

Backs ``repro monitor <run-dir>``: while a ``repro sweep`` / ``repro
ablate`` (or any other bus-emitting run) is still executing, this
module tails its ``events*.jsonl`` files (:class:`~repro.telemetry.
events.EventTail` consumes only newline-complete records, so mid-write
files are safe) and folds every lifecycle event into a
:class:`MonitorState`: per-cell states, progress, ETA, straggler cells,
cache hit-rate, and retry counts.

Two consumers:

* :func:`render_status` — the human terminal view, re-rendered per
  poll.
* :func:`update_metrics` — the same state projected onto a
  :class:`~repro.telemetry.metrics.MetricsRegistry`, served by
  :class:`MetricsEndpoint` (a stdlib ``http.server`` thread) as a
  Prometheus text exposition at ``/metrics`` for scraping.  This is
  the groundwork for the serving layer and distributed sweeps: any
  process that can write bus events is scrapable through one port.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from .clock import wall_time
from .events import (
    CELL_STATES,
    EventTail,
    discover_event_files,
)
from .metrics import MetricsRegistry

PathLike = Union[str, Path]

#: Cell states that mean "this cell will not run again".
TERMINAL_STATES = ("done", "failed")


class CellView:
    """The latest observed lifecycle of one cell."""

    __slots__ = (
        "cell_id", "state", "queued_ts", "running_ts",
        "finished_ts", "cached", "attrs",
    )

    def __init__(self, cell_id: str) -> None:
        self.cell_id = cell_id
        self.state = "queued"
        self.queued_ts: Optional[float] = None
        self.running_ts: Optional[float] = None
        self.finished_ts: Optional[float] = None
        self.cached = False
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> Optional[float]:
        """Running→terminal seconds (None while still in flight)."""
        if self.running_ts is None or self.finished_ts is None:
            return None
        return max(0.0, self.finished_ts - self.running_ts)

    def elapsed(self, now: float) -> Optional[float]:
        """Seconds a *running* cell has been in flight."""
        if self.state != "running" or self.running_ts is None:
            return None
        return max(0.0, now - self.running_ts)


class MonitorState:
    """Aggregate view of every event observed so far."""

    def __init__(self) -> None:
        self.cells: Dict[str, CellView] = {}
        self.stages: Dict[str, Dict[str, int]] = {}
        #: run_id -> "started" | "finished"
        self.runs: Dict[str, str] = {}
        self.run_attrs: Dict[str, Dict[str, Any]] = {}
        self.total_cells = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.events_seen = 0
        self.last_ts: Optional[float] = None
        self.invalid_events = 0
        #: Events dropped because their (run_id, seq) identity was
        #: already folded in — re-reads after a tail reset, or the same
        #: shard reached through two discovered paths.
        self.duplicate_events = 0
        self._seen_ids: set = set()

    # ------------------------------------------------------------------
    def apply(self, event: Mapping[str, Any]) -> None:
        """Fold one decoded bus event into the state.

        Idempotent per event: ``(run_id, seq)`` uniquely identifies a
        bus record across every emitter of a (possibly multi-writer)
        run, so replayed deliveries — a tail that reset after file
        truncation, one shard discovered twice — fold in exactly once.
        """
        kind = event.get("type")
        state = event.get("event")
        if not isinstance(kind, str) or not isinstance(state, str):
            self.invalid_events += 1
            return
        seq = event.get("seq")
        event_run_id = event.get("run_id")
        if (
            isinstance(event_run_id, str)
            and isinstance(seq, int)
            and not isinstance(seq, bool)
        ):
            identity = (event_run_id, seq)
            if identity in self._seen_ids:
                self.duplicate_events += 1
                return
            self._seen_ids.add(identity)
        ts = event.get("ts")
        ts = float(ts) if isinstance(ts, (int, float)) else None
        attrs = event.get("attrs")
        attrs = dict(attrs) if isinstance(attrs, Mapping) else {}
        self.events_seen += 1
        if ts is not None and (self.last_ts is None or ts > self.last_ts):
            self.last_ts = ts
        if kind == "run":
            run_id = str(event.get("run_id", ""))
            self.runs[run_id] = state
            self.run_attrs.setdefault(run_id, {}).update(attrs)
            if state == "started":
                self.total_cells += int(attrs.get("total_cells", 0) or 0)
            return
        name = str(event.get("name", ""))
        if not name:
            self.invalid_events += 1
            return
        if kind == "stage":
            counts = self.stages.setdefault(name, {})
            counts[state] = counts.get(state, 0) + 1
            self.retries += int(attrs.get("retries", 0) or 0)
            return
        if kind != "cell" or state not in CELL_STATES:
            self.invalid_events += 1
            return
        view = self.cells.get(name)
        if view is None:
            view = self.cells[name] = CellView(name)
        if state == "queued":
            view.queued_ts = ts
            if view.state not in TERMINAL_STATES:
                view.state = "queued"
        elif state == "running":
            view.running_ts = ts
            if view.state not in TERMINAL_STATES:
                view.state = "running"
        elif state == "cached-hit":
            view.cached = True
        else:  # done / failed
            view.state = state
            view.finished_ts = ts
        view.attrs.update(attrs)
        self.cache_hits += int(attrs.get("cache_hits", 0) or 0)
        self.cache_misses += int(attrs.get("cache_misses", 0) or 0)
        self.retries += int(attrs.get("retries", 0) or 0)

    # Derived views ----------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Cells per current state (all CELL_STATES keys present)."""
        out = {state: 0 for state in CELL_STATES}
        for view in self.cells.values():
            out[view.state] = out.get(view.state, 0) + 1
        out["cached-hit"] = sum(1 for v in self.cells.values() if v.cached)
        return out

    @property
    def known_total(self) -> int:
        """Best-known total cell count (announced, else observed)."""
        return max(self.total_cells, len(self.cells))

    @property
    def workers(self) -> Dict[str, str]:
        """run_id -> lifecycle state of every attached sweep worker.

        Distributed-sweep workers announce themselves with
        ``run_started(kind="worker", total_cells=0)`` on their own
        event shard; only the coordinator announces the real total, so
        worker attach/detach never perturbs the progress denominator.
        """
        return {
            run_id: state
            for run_id, state in self.runs.items()
            if self.run_attrs.get(run_id, {}).get("kind") == "worker"
        }

    @property
    def active_workers(self) -> int:
        """Workers that attached and have not yet finished."""
        return sum(
            1 for state in self.workers.values() if state == "started"
        )

    @property
    def completed(self) -> int:
        return sum(
            1 for v in self.cells.values() if v.state in TERMINAL_STATES
        )

    @property
    def finished(self) -> bool:
        """Every started run emitted ``finished`` (and at least one ran)."""
        return bool(self.runs) and all(
            state == "finished" for state in self.runs.values()
        )

    def progress(self) -> Tuple[int, int]:
        return self.completed, self.known_total

    def cache_hit_rate(self) -> Optional[float]:
        total = self.cache_hits + self.cache_misses
        if total == 0:
            return None
        return self.cache_hits / total

    def mean_cell_seconds(self) -> Optional[float]:
        durations = [
            view.duration
            for view in self.cells.values()
            if view.duration is not None
        ]
        if not durations:
            return None
        return sum(durations) / len(durations)

    def eta_seconds(self, now: Optional[float] = None) -> Optional[float]:
        """Naive remaining-work estimate from mean finished-cell time.

        Running cells count their already-elapsed time against the
        estimate; cached cells finish near-instantly and drag the mean
        down, which is exactly right for warm re-runs.
        """
        mean = self.mean_cell_seconds()
        if mean is None:
            return None
        now = wall_time() if now is None else now
        remaining = max(0, self.known_total - self.completed)
        if remaining == 0:
            return 0.0
        estimate = 0.0
        accounted = 0
        for view in self.cells.values():
            elapsed = view.elapsed(now)
            if elapsed is not None:
                estimate += max(0.0, mean - elapsed)
                accounted += 1
        estimate += mean * max(0, remaining - accounted)
        return estimate

    def stragglers(
        self, now: Optional[float] = None, factor: float = 3.0
    ) -> List[Tuple[str, float]]:
        """Running cells slower than ``factor`` x the mean cell time."""
        mean = self.mean_cell_seconds()
        if mean is None or mean <= 0:
            return []
        now = wall_time() if now is None else now
        slow: List[Tuple[str, float]] = []
        for view in self.cells.values():
            elapsed = view.elapsed(now)
            if elapsed is not None and elapsed > factor * mean:
                slow.append((view.cell_id, elapsed))
        slow.sort(key=lambda item: -item[1])
        return slow


# ----------------------------------------------------------------------
class RunMonitor:
    """Tails every bus file of a run directory into one state."""

    def __init__(self, run_dir: PathLike) -> None:
        self.run_dir = Path(run_dir)
        self.state = MonitorState()
        self._tails: Dict[Path, EventTail] = {}

    def poll(self) -> int:
        """Discover new files, consume new events; returns events applied."""
        applied = 0
        for path in discover_event_files(self.run_dir):
            tail = self._tails.get(path)
            if tail is None:
                tail = self._tails[path] = EventTail(path)
            for event in tail.poll():
                self.state.apply(event)
                applied += 1
        return applied

    @property
    def num_files(self) -> int:
        return len(self._tails)


def _format_seconds(seconds: float) -> str:
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.1f}s"


def render_status(
    state: MonitorState,
    now: Optional[float] = None,
    straggler_factor: float = 3.0,
    width: int = 30,
) -> str:
    """The human status block for one poll."""
    now = wall_time() if now is None else now
    counts = state.counts()
    done, total = state.progress()
    lines: List[str] = []
    workers = state.workers
    run_bits = []
    for run_id, run_state in sorted(state.runs.items()):
        if run_id in workers:
            continue  # summarized on their own line below
        kind = state.run_attrs.get(run_id, {}).get("kind", "run")
        run_bits.append(f"{kind}:{run_id[:8]} {run_state}")
    lines.append(
        "runs: " + (", ".join(run_bits) if run_bits else "(none seen yet)")
    )
    if workers:
        names = sorted(
            str(state.run_attrs.get(run_id, {}).get("worker", run_id[:8]))
            for run_id, run_state in workers.items()
            if run_state == "started"
        )
        active_text = (
            f" ({', '.join(names[:8])}"
            + ("..." if len(names) > 8 else "")
            + ")"
            if names
            else ""
        )
        lines.append(
            f"workers: {len(workers)} attached, "
            f"{state.active_workers} active{active_text}"
        )
    ratio = done / total if total else 0.0
    filled = int(round(ratio * width))
    bar = "#" * filled + "-" * (width - filled)
    eta = state.eta_seconds(now)
    eta_text = (
        "ETA n/a" if eta is None else f"ETA {_format_seconds(eta)}"
    )
    if state.finished:
        eta_text = "finished"
    lines.append(f"progress [{bar}] {done}/{total} cells  {eta_text}")
    lines.append(
        "cells: "
        + "  ".join(
            f"{name}={counts[name]}"
            for name in ("queued", "running", "done", "failed", "cached-hit")
        )
    )
    rate = state.cache_hit_rate()
    rate_text = "n/a" if rate is None else f"{rate:.1%}"
    lines.append(
        f"cache: {state.cache_hits} hits / {state.cache_misses} misses "
        f"(hit rate {rate_text})  retries: {state.retries}"
    )
    running = [
        (view.cell_id, view.elapsed(now) or 0.0)
        for view in state.cells.values()
        if view.state == "running"
    ]
    running.sort(key=lambda item: -item[1])
    for cell_id, elapsed in running[:6]:
        lines.append(f"  running {cell_id}  {_format_seconds(elapsed)}")
    slow = state.stragglers(now, factor=straggler_factor)
    if slow:
        mean = state.mean_cell_seconds() or 0.0
        lines.append(
            f"stragglers (>{straggler_factor:g}x mean "
            f"{_format_seconds(mean)}):"
        )
        for cell_id, elapsed in slow[:6]:
            lines.append(f"  {cell_id}  {_format_seconds(elapsed)}")
    failed = [
        view for view in state.cells.values() if view.state == "failed"
    ]
    for view in failed[:6]:
        error = view.attrs.get("error_class", "?")
        lines.append(f"  FAILED {view.cell_id}  ({error})")
    if state.last_ts is not None:
        age = max(0.0, now - state.last_ts)
        lines.append(
            f"{state.events_seen} events; last "
            f"{_format_seconds(age)} ago"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
def update_metrics(
    state: MonitorState, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Project the monitor state onto a metrics registry.

    Everything is exported as gauges: a monitor scrape is a snapshot of
    *someone else's* run, so monotonic-counter semantics belong to the
    emitting process, not this view.
    """
    registry = registry or MetricsRegistry()
    counts = state.counts()
    for name in ("queued", "running", "done", "failed"):
        registry.gauge(f"repro_monitor_cells_{name}").set(counts[name])
    registry.gauge("repro_monitor_cells_cached").set(counts["cached-hit"])
    registry.gauge("repro_monitor_cells_total").set(state.known_total)
    registry.gauge("repro_monitor_cache_hits").set(state.cache_hits)
    registry.gauge("repro_monitor_cache_misses").set(state.cache_misses)
    registry.gauge("repro_monitor_retries").set(state.retries)
    registry.gauge("repro_monitor_events_seen").set(state.events_seen)
    registry.gauge("repro_monitor_duplicate_events").set(
        state.duplicate_events
    )
    registry.gauge("repro_monitor_workers_attached").set(
        len(state.workers)
    )
    registry.gauge("repro_monitor_workers_active").set(
        state.active_workers
    )
    registry.gauge("repro_monitor_run_finished").set(
        1.0 if state.finished else 0.0
    )
    done, total = state.progress()
    registry.gauge("repro_monitor_progress_ratio").set(
        done / total if total else 0.0
    )
    eta = state.eta_seconds()
    if eta is not None:
        registry.gauge("repro_monitor_eta_seconds").set(eta)
    return registry


class MetricsEndpoint:
    """A stdlib HTTP thread serving ``GET /metrics`` for scraping.

    ``render`` is called per request, so the payload always reflects
    the live state.  ``port=0`` binds an ephemeral port (tests, and
    "just give me a port" CLI usage); the bound port is in
    :attr:`port` after construction.
    """

    def __init__(
        self,
        render: "Any",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        # Imported here: only the /metrics endpoint needs the HTTP stack.
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        endpoint = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                if self.path.rstrip("/") not in ("", "/metrics"):
                    self.send_error(404, "only /metrics is served")
                    return
                try:
                    payload = str(endpoint.render()).encode("utf-8")
                except (OSError, ValueError, KeyError, TypeError) as exc:
                    # pragma: no cover - defensive
                    self.send_error(500, f"render failed: {exc}")
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4"
                )
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args: Any) -> None:
                pass  # scrapes must not spam the monitor output

        self.render = render
        self.server = ThreadingHTTPServer((host, port), Handler)
        self.host = host
        self.port = int(self.server.server_address[1])
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsEndpoint":
        thread = threading.Thread(
            target=self.server.serve_forever,
            name="repro-metrics-endpoint",
            daemon=True,
        )
        thread.start()
        self._thread = thread
        return self

    def stop(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "MetricsEndpoint":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
