"""The injection-campaign runner: the paper's Sec. V-A loop.

:class:`InjectionEngine` executes the Sec. V-A measurement: for every
analyzed layer, inject ``U[-delta, delta]`` noise at each grid point x
repeat, replay the downstream layers (:meth:`Network.forward_from`) and
accumulate the squared output error.  The loop is layer-major, one trial
at a time; ``jobs > 1`` runs whole layers on a thread pool.

Determinism contract: every trial owns a coordinate
``(layer_position, batch, delta, repeat)`` and draws noise from its own
:func:`~repro.engine.rng.trial_rng` stream; per-trial squared errors
land in a preallocated cell array and are reduced in a fixed order.
Fitted lambda/theta are therefore **bit-identical** for any ``jobs`` or
traversal order.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..analysis.injection import uniform_noise_tap
from ..config import ParallelSettings
from ..errors import ProfilingError, ReproError, RetryExhaustedError, TransientError
from ..nn.graph import ActivationCache, Network
from ..resilience.guards import Diagnostic, check_finite_array, enforce
from ..sanitize import fp_guard
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.session import Telemetry
from ..telemetry.spans import NULL_TRACER, Span, Tracer
from .alloc import tune_allocator
from .rng import trial_rng
from .timing import StageTimings


@contextmanager
def _observed_stage(
    telemetry: Telemetry,
    timings: StageTimings,
    name: str,
    **attributes: object,
) -> Iterator[Optional[Span]]:
    """One engine stage: timing span + bus lifecycle + resource samples.

    Emits ``engine.<name>`` running/done (or failed) on the session's
    event bus and brackets the stage with resource samples; both are
    no-ops when the bus/profiler are the null instances.
    """
    bus = telemetry.event_bus
    stage_name = f"engine.{name}"
    bus.stage("running", stage_name)
    try:
        with timings.stage(name, **attributes) as span:
            with telemetry.resources.measure(stage_name, span=span):
                yield span
    except BaseException as exc:
        bus.stage("failed", stage_name, error_class=type(exc).__name__)
        raise
    bus.stage("done", stage_name)


def enforce_finite_trial(
    perturbed: np.ndarray, name: str, delta: float
) -> None:
    """Raise the standard structured error for a non-finite trial."""
    enforce(
        check_finite_array(perturbed, "profiling", layer=name)
        or [
            Diagnostic(
                stage="profiling",
                code="non_finite",
                message=(
                    "squared-error sum overflowed "
                    f"at delta={delta:.4g}"
                ),
                layer=name,
                value=float(delta),
            )
        ],
        strict=True,
        context=f"error injection at layer {name!r}, delta={delta:.4g}",
    )


@dataclass
class LayerCells:
    """Per-trial squared-error sums for one start layer.

    ``cells[b, j, r]`` is the squared-error sum of the trial at batch
    ``b``, delta index ``j``, repeat ``r``; ``counts[j]`` the number of
    output elements accumulated at delta index ``j``.
    """

    name: str
    cells: np.ndarray
    counts: np.ndarray


def run_layer_campaign(
    network: Network,
    caches: Sequence[ActivationCache],
    *,
    name: str,
    layer_position: int,
    grid: np.ndarray,
    num_repeats: int,
    seed: int,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    parent_id: Optional[str] = None,
) -> LayerCells:
    """The full delta-grid injection campaign for one start layer.

    Pure function of its arguments (each trial's RNG stream is derived
    from its coordinate), so it can run in any worker, in any order,
    and produce the same bits.  ``tracer``/``metrics``/``parent_id``
    only observe the run (``engine.layer`` and ``engine.injection_batch``
    spans, trial counters); they never touch the trial math, so results
    stay bit-identical with telemetry on or off.
    """
    tracer = tracer or NULL_TRACER
    grid = np.asarray(grid, dtype=np.float64)
    num_deltas = len(grid)
    output = network.output_name
    cells = np.zeros((len(caches), num_deltas, num_repeats))
    counts = np.zeros(num_deltas)
    trials = num_deltas * num_repeats
    # Under REPRO_SANITIZE=1 the whole injection campaign runs with FP
    # overflow/invalid/divide trapped; errstate never changes results,
    # so clean runs stay bit-identical with the guard on or off.
    with fp_guard(), tracer.span(
        "engine.layer",
        parent_id=parent_id,
        layer=name,
        layer_position=layer_position,
        num_deltas=num_deltas,
        num_repeats=num_repeats,
    ) as layer_span:
        for batch_index, cache in enumerate(caches):
            with tracer.span(
                "engine.injection_batch", layer=name, batch=batch_index
            ) as batch_span:
                reference = cache[output]
                for j, delta in enumerate(grid):
                    for r in range(num_repeats):
                        rng = trial_rng(seed, layer_position, batch_index, j, r)
                        tap = uniform_noise_tap(float(delta), rng)
                        perturbed = network.forward_from(cache, name, tap)
                        err = perturbed - reference
                        sq_sum = float((err * err).sum())
                        if not np.isfinite(sq_sum):
                            enforce_finite_trial(perturbed, name, float(delta))
                        cells[batch_index, j, r] = sq_sum
                        counts[j] += err.size
                batch_span.incr("trials", trials)
        layer_span.incr("trials", trials * len(caches))
    if metrics is not None:
        metrics.counter("repro_trials_injected_total").inc(
            trials * len(caches)
        )
        metrics.histogram("repro_layer_campaign_seconds").observe(
            layer_span.duration
        )
    return LayerCells(name=name, cells=cells, counts=counts)


#: Receives one layer's reduced ``(name, sq_sums, counts)`` as soon as
#: that layer finishes (see :meth:`InjectionEngine.run`).
LayerSink = Callable[[str, np.ndarray, np.ndarray], None]


@dataclass
class CampaignResult:
    """Reduced campaign output plus instrumentation."""

    #: Fixed-order reduced squared-error sums per layer, shape (D,).
    sq_sums: Dict[str, np.ndarray]
    #: Accumulated output-element counts per layer, shape (D,).
    counts: Dict[str, np.ndarray]
    num_images: int
    timings: StageTimings = field(default_factory=StageTimings)
    #: Fraction of total network MACs each layer's replay recomputes.
    replay_fractions: Dict[str, float] = field(default_factory=dict)
    #: Workers that ran the replay: ``jobs`` capped at the available
    #: cores (1 = serial).
    jobs: int = 1


class InjectionEngine:
    """Runs injection campaigns, serially or on a thread pool."""

    def __init__(
        self,
        network: Network,
        parallel: Optional[ParallelSettings] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.network = network
        self.parallel = parallel or ParallelSettings()
        self.telemetry = Telemetry.create(telemetry)
        tune_allocator()

    # ------------------------------------------------------------------
    def run(
        self,
        images: np.ndarray,
        grids: Dict[str, np.ndarray],
        num_repeats: int,
        seed: int,
        batch_size: int = 32,
        progress: bool = False,
        on_layer: Optional[LayerSink] = None,
    ) -> CampaignResult:
        """Execute the campaign for every layer in ``grids``.

        Layers are reduced one at a time, in ``grids`` order, as soon as
        each layer's replay finishes; ``on_layer(name, sq_sums, counts)``
        then sees the reduced sums before the next layer is collected,
        so a crash later in the campaign cannot lose them.
        """
        names = list(grids)
        telemetry = self.telemetry
        timings = StageTimings(
            tracer=telemetry.tracer if telemetry.enabled else None
        )
        positions = {
            layer.name: index
            for index, layer in enumerate(self.network.layers)
        }
        with _observed_stage(telemetry, timings, "reference"):
            caches = [
                self.network.run_all(images[start : start + batch_size])
                for start in range(0, images.shape[0], batch_size)
            ]
        tasks = [
            dict(
                name=name,
                layer_position=positions[name],
                grid=np.asarray(grids[name], dtype=np.float64),
                num_repeats=num_repeats,
                seed=seed,
            )
            for name in names
        ]
        sq_sums: Dict[str, np.ndarray] = {}
        counts: Dict[str, np.ndarray] = {}

        def finish(task: Dict[str, Any], layer_cells: LayerCells) -> None:
            name = task["name"]
            with _observed_stage(telemetry, timings, "reduce", layer=name):
                cells = layer_cells.cells
                num_deltas = cells.shape[1]
                totals = np.zeros(num_deltas)
                # Fixed reduction order (batches outer, repeats inner)
                # keeps float addition identical for every worker count.
                for j in range(num_deltas):
                    total = 0.0
                    for b in range(cells.shape[0]):
                        for r in range(cells.shape[2]):
                            total += cells[b, j, r]
                    totals[j] = total
                sq_sums[name] = totals
                counts[name] = layer_cells.counts.copy()
            if on_layer is not None:
                on_layer(name, sq_sums[name], counts[name])

        workers = self._effective_workers() if self.parallel.jobs > 1 else 1
        with _observed_stage(
            telemetry,
            timings,
            "replay",
            jobs=workers,
            num_layers=len(names),
        ) as replay_span:
            if self.parallel.jobs == 1:
                for task in tasks:
                    # Same thread as the replay span, so the thread-local
                    # span stack parents the layer span.
                    finish(task, self._campaign(caches, task))
                    if progress:  # pragma: no cover - console nicety
                        print(f"  profiled layer {task['name']}")
            else:
                replay_id = replay_span.span_id if replay_span else None
                self._run_thread_pool(caches, tasks, finish, workers, replay_id)
        return CampaignResult(
            sq_sums=sq_sums,
            counts=counts,
            num_images=int(images.shape[0]),
            timings=timings,
            replay_fractions=self._replay_fractions(names),
            jobs=workers,
        )

    # ------------------------------------------------------------------
    def _campaign(
        self,
        caches: Sequence[ActivationCache],
        task: Dict[str, Any],
        parent_id: Optional[str] = None,
    ) -> LayerCells:
        return run_layer_campaign(
            self.network,
            caches,
            tracer=self.telemetry.tracer,
            metrics=self.telemetry.metrics,
            parent_id=parent_id,
            **task,
        )

    def _replay_fractions(self, names: Sequence[str]) -> Dict[str, float]:
        from ..nn.graphutils import replay_cost_fraction

        fractions: Dict[str, float] = {}
        for name in names:
            try:
                fractions[name] = replay_cost_fraction(self.network, name)
            except ReproError:  # networks with no MAC work
                pass
        return fractions

    # ------------------------------------------------------------------
    def _collect(
        self,
        tasks: Sequence[Dict[str, Any]],
        submit: Callable[[Dict[str, Any]], Any],
        finish: Callable[[Dict[str, Any], Any], None],
    ) -> None:
        """Hand each result to ``finish`` in task order, with retries.

        ``submit(task)`` returns a future.  All tasks launch up front;
        a task failing with :class:`TransientError` is resubmitted up
        to ``transient_retries`` times (the resilience layer's retry
        semantics), any other failure aborts the campaign as a
        :class:`ProfilingError` naming the layer, original chained.
        """
        retries = self.parallel.transient_retries
        metrics = self.telemetry.metrics
        bus = self.telemetry.event_bus
        depth = metrics.gauge("repro_worker_queue_depth")
        futures = [submit(task) for task in tasks]
        for task in tasks:
            bus.stage("queued", f"engine.layer/{task['name']}")
        depth.set(len(futures))
        for task, future in zip(tasks, futures):
            name = task["name"]
            stage_name = f"engine.layer/{name}"
            failures: List[str] = []
            while True:
                try:
                    result = future.result()
                    depth.dec()
                    bus.stage(
                        "done", stage_name, retries=len(failures)
                    )
                    break
                except TransientError as exc:
                    metrics.counter("repro_engine_retries_total").inc()
                    failures.append(
                        f"attempt {len(failures) + 1}: {exc}"
                    )
                    if len(failures) > retries:
                        bus.stage(
                            "failed",
                            stage_name,
                            retries=len(failures),
                            error_class="RetryExhaustedError",
                        )
                        raise RetryExhaustedError(
                            f"injection campaign for layer {name!r} failed "
                            f"{len(failures)} times; last error: "
                            f"{failures[-1]}",
                            attempts=failures,
                        ) from exc
                    future = submit(task)
                except ReproError as exc:
                    bus.stage(
                        "failed",
                        stage_name,
                        retries=len(failures),
                        error_class=type(exc).__name__,
                    )
                    raise
                except BaseException as exc:
                    bus.stage(
                        "failed",
                        stage_name,
                        retries=len(failures),
                        error_class=type(exc).__name__,
                    )
                    raise ProfilingError(
                        f"injection worker for layer {name!r} crashed: "
                        f"{exc!r}"
                    ) from exc
            finish(task, result)

    def _effective_workers(self) -> int:
        """``jobs`` capped at the cores actually available to us.

        Oversubscribing a smaller CPU quota only adds contention, and
        results are bit-identical for any worker count, so the cap is
        free; ``jobs`` is an upper bound on concurrency, not a demand.
        """
        import os

        if hasattr(os, "sched_getaffinity"):
            available = len(os.sched_getaffinity(0))
        else:  # pragma: no cover - non-Linux
            available = os.cpu_count() or 1
        return max(1, min(self.parallel.jobs, available))

    def _run_thread_pool(
        self,
        caches: Sequence[ActivationCache],
        tasks: Sequence[Dict[str, Any]],
        finish: Callable[[Dict[str, Any], LayerCells], None],
        workers: int,
        parent_id: Optional[str] = None,
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-engine"
        ) as pool:

            def submit(task: Dict[str, Any]) -> Any:
                # Pool threads start with an empty span stack, so the
                # replay span's id is threaded through explicitly.
                return pool.submit(self._campaign, caches, task, parent_id)

            self._collect(tasks, submit, finish)
