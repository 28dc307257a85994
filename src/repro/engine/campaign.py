"""The vectorized, optionally parallel injection-campaign runner.

:class:`InjectionEngine` executes the paper's Sec. V-A measurement —
for every analyzed layer, inject ``U[-delta, delta]`` noise at each
grid point x repeat and accumulate the squared output error — with
three structural speedups over the naive loop:

1. **Replay plans** (:meth:`Network.replay_plan`): the downstream
   closure of each start layer is computed once, not per trial.
2. **Multi-trial batching** (:meth:`Network.forward_from_many`):
   ``trial_batch`` noise draws stack along the batch axis and replay in
   one pass through the layer kernels on reused buffers
   (:mod:`repro.engine.kernels`), so R replays share each layer's
   im2col/GEMM setup.
3. **A worker pool across layers** (thread by default, shared-memory
   processes optionally) — see :mod:`repro.engine.parallel`.

Determinism contract: every trial owns a coordinate
``(layer_position, batch, delta, repeat)`` and draws noise from its own
:func:`~repro.engine.rng.trial_rng` stream; per-trial squared errors
land in a preallocated cell array and are reduced in a fixed order.
Fitted lambda/theta are therefore **bit-identical** for any ``jobs``,
``backend``, ``trial_batch``, or traversal order.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..cache import ResultCache, array_digest, make_key, network_digest
from ..config import ParallelSettings
from ..errors import ProfilingError, ReproError, RetryExhaustedError, TransientError
from ..nn.graph import ActivationCache, Network
from ..nn.kernels import KernelScratch
from ..resilience.guards import Diagnostic, check_finite_array, enforce
from ..sanitize import fp_guard
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.session import Telemetry
from ..telemetry.spans import NULL_TRACER, Span, Tracer
from .alloc import tune_allocator
from .kernels import make_forward_fn
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
    """Raise the standard structured error for a non-finite trial.

    Shared by the engine and the legacy profiler loop so both surfaces
    report numerical blowups identically.
    """
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
    trial_batch: int,
    fast_kernels: bool,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    parent_id: Optional[str] = None,
) -> LayerCells:
    """The full delta-grid injection campaign for one start layer.

    Pure function of its arguments (each trial's RNG stream is derived
    from its coordinate), so it can run in any worker, in any order,
    and produce the same bits.  ``tracer``/``metrics``/``parent_id``
    only observe the run (``engine.layer`` and ``engine.injection_batch``
    spans, trial and kernel-dispatch counters); they never touch the
    trial math, so results stay bit-identical with telemetry on or off.
    """
    tracer = tracer or NULL_TRACER
    grid = np.asarray(grid, dtype=np.float64)
    num_deltas = len(grid)
    # One scratch per campaign: every replay chunk rewrites the same
    # per-layer buffers, which kills allocator churn on the hot path.
    scratch = KernelScratch() if fast_kernels else None
    output = network.output_name
    start_input = network[name].inputs[0]
    tiny = np.finfo(np.float64).tiny
    cells = np.zeros((len(caches), num_deltas, num_repeats))
    counts = np.zeros(num_deltas)
    coordinates = [
        (j, r) for j in range(num_deltas) for r in range(num_repeats)
    ]
    dispatches = 0
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
        trial_batch=trial_batch,
        fast_kernels=fast_kernels,
    ) as layer_span:
        for batch_index, cache in enumerate(caches):
            with tracer.span(
                "engine.injection_batch", layer=name, batch=batch_index
            ) as batch_span:
                source = cache[start_input]
                reference = cache[output]
                # Exact zeros stay exact under any fixed-point format
                # (Fig. 1), so they receive no noise; the mask depends
                # only on the clean input and is shared across all of
                # this batch's trials.
                zero_mask = np.abs(source) < tiny
                mask_zeros = bool(zero_mask.any())
                for chunk_start in range(0, len(coordinates), trial_batch):
                    chunk = coordinates[chunk_start : chunk_start + trial_batch]
                    perturbed_inputs: List[np.ndarray] = []
                    for j, r in chunk:
                        delta = float(grid[j])
                        rng = trial_rng(
                            seed, layer_position, batch_index, j, r
                        )
                        noise = rng.uniform(-delta, delta, size=source.shape)
                        if mask_zeros:
                            noise[zero_mask] = 0.0
                        perturbed_inputs.append(source + noise)
                    taps = [
                        (lambda value: (lambda _x: value))(p)
                        for p in perturbed_inputs
                    ]
                    # trial_groups tells the kernels how many trials the
                    # batch axis stacks, so each GEMM runs at unstacked
                    # shapes and the result cannot depend on the
                    # trial_batch setting.
                    forward_fn = (
                        make_forward_fn(scratch, trial_groups=len(chunk))
                        if fast_kernels
                        else None
                    )
                    outputs = network.forward_from_many(
                        cache, name, taps, forward_fn=forward_fn
                    )
                    dispatches += 1
                    for position, (j, r) in enumerate(chunk):
                        err = outputs[position] - reference
                        sq_sum = float((err * err).sum())
                        if not np.isfinite(sq_sum):
                            enforce_finite_trial(
                                outputs[position], name, float(grid[j])
                            )
                        cells[batch_index, j, r] = sq_sum
                        counts[j] += err.size
                batch_span.incr("trials", len(coordinates))
        layer_span.incr("trials", len(coordinates) * len(caches))
        layer_span.incr("dispatches", dispatches)
    if metrics is not None:
        metrics.counter("repro_trials_injected_total").inc(
            len(coordinates) * len(caches)
        )
        kernel_path = "fast" if fast_kernels else "legacy"
        metrics.counter(
            f"repro_kernel_{kernel_path}_dispatch_total"
        ).inc(dispatches)
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
    jobs: int = 1


class InjectionEngine:
    """Runs injection campaigns with batching and worker pools."""

    def __init__(
        self,
        network: Network,
        parallel: Optional[ParallelSettings] = None,
        telemetry: Optional[Telemetry] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.network = network
        self.parallel = parallel or ParallelSettings()
        self.telemetry = Telemetry.create(telemetry)
        #: Persistent result cache for the reference stage: clean
        #: activation caches keyed by (network, batch images).  Restored
        #: entries are mmap'd read-only views — no materialized copies.
        self.cache = cache
        if self.parallel.tune_allocator:
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
        settings = self.parallel
        positions = {
            layer.name: index
            for index, layer in enumerate(self.network.layers)
        }
        with _observed_stage(telemetry, timings, "reference"):
            caches = self._reference_caches(images, batch_size)
        with _observed_stage(telemetry, timings, "plan"):
            for name in names:
                self.network.replay_plan(name)
            replay_fractions = self._replay_fractions(names)
        tasks = [
            dict(
                name=name,
                layer_position=positions[name],
                grid=np.asarray(grids[name], dtype=np.float64),
                num_repeats=num_repeats,
                seed=seed,
                trial_batch=settings.trial_batch,
                fast_kernels=settings.fast_kernels,
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
                # keeps float addition identical to the serial loop for
                # every worker count and chunking.
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

        with _observed_stage(
            telemetry,
            timings,
            "replay",
            jobs=settings.jobs,
            backend=settings.backend,
            num_layers=len(names),
        ) as replay_span:
            replay_id = replay_span.span_id if replay_span else None
            if settings.jobs == 1:
                for task in tasks:
                    finish(task, self._run_serial_task(caches, task, progress))
            elif settings.backend == "process":
                self._run_process_pool(caches, tasks, finish, replay_id)
            else:
                self._run_thread_pool(caches, tasks, finish, replay_id)
        return CampaignResult(
            sq_sums=sq_sums,
            counts=counts,
            num_images=int(images.shape[0]),
            timings=timings,
            replay_fractions=replay_fractions,
            jobs=settings.jobs,
        )

    # ------------------------------------------------------------------
    def _reference_caches(
        self,
        images: np.ndarray,
        batch_size: int,
    ) -> List[ActivationCache]:
        """Clean per-batch activation caches, persisted when caching.

        A batch's activations are a pure function of (network bits,
        batch images).  Every layer forward allocates fresh outputs, so
        the cached activations never alias a replay scratch buffer.
        Cache hits return read-only mmap views; downstream replay only
        reads reference activations, so zero-copy restore is safe.
        """
        batches = [
            images[start : start + batch_size]
            for start in range(0, images.shape[0], batch_size)
        ]
        if self.cache is None:
            return [self.network.run_all(batch) for batch in batches]
        net_digest = network_digest(self.network)
        caches: List[ActivationCache] = []
        for batch in batches:
            key = make_key(
                {
                    "kind": "activations",
                    "network": net_digest,
                    "images": array_digest(batch),
                }
            )
            entry = self.cache.get_arrays("activations", key)
            if entry is not None:
                caches.append(ActivationCache(dict(entry)))
                continue
            cache = self.network.run_all(batch)
            self.cache.put_arrays(
                "activations",
                key,
                {name: cache[name] for name in cache.names()},
            )
            caches.append(cache)
        return caches

    def _replay_fractions(self, names: Sequence[str]) -> Dict[str, float]:
        from ..nn.graphutils import replay_cost_fraction

        fractions: Dict[str, float] = {}
        for name in names:
            try:
                fractions[name] = replay_cost_fraction(self.network, name)
            except ReproError:  # networks with no MAC work
                pass
        return fractions

    def _run_serial_task(
        self,
        caches: Sequence[ActivationCache],
        task: Dict[str, Any],
        progress: bool,
    ) -> LayerCells:
        # Same thread as the replay span, so the thread-local span
        # stack parents the layer span without an explicit parent_id.
        result = run_layer_campaign(
            self.network,
            caches,
            tracer=self.telemetry.tracer,
            metrics=self.telemetry.metrics,
            **task,
        )
        if progress:  # pragma: no cover - console nicety
            print(f"  profiled layer {task['name']}")
        return result

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
        parent_id: Optional[str] = None,
    ) -> None:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(
            max_workers=self._effective_workers(),
            thread_name_prefix="repro-engine",
        ) as pool:

            def submit(task: Dict[str, Any]) -> Any:
                # Pool threads start with an empty span stack, so the
                # replay span's id is threaded through explicitly.
                return pool.submit(
                    run_layer_campaign,
                    self.network,
                    caches,
                    tracer=self.telemetry.tracer,
                    metrics=self.telemetry.metrics,
                    parent_id=parent_id,
                    **task,
                )

            self._collect(tasks, submit, finish)

    def _run_process_pool(
        self,
        caches: Sequence[ActivationCache],
        tasks: Sequence[Dict[str, Any]],
        finish: Callable[[Dict[str, Any], LayerCells], None],
        parent_id: Optional[str] = None,
    ) -> None:
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        from .parallel import (
            SharedCaches,
            _process_worker_init,
            _process_worker_run,
        )

        # The network pickle rides in the shared segment next to the
        # caches: W spawned workers map one copy instead of each
        # receiving its own serialized copy through initargs.
        shared = SharedCaches.create(
            caches, blobs={"network": pickle.dumps(self.network)}
        )
        try:
            with ProcessPoolExecutor(
                max_workers=self._effective_workers(),
                mp_context=get_context("spawn"),
                initializer=_process_worker_init,
                initargs=(
                    shared.shm_name,
                    shared.descriptors,
                    shared.blob_descriptors,
                ),
            ) as pool:

                def unpack(task: Dict[str, Any], item: Any) -> None:
                    cells, spans, snapshot = (
                        item
                        if isinstance(item, tuple)
                        else pickle.loads(item)
                    )
                    if spans:
                        # Worker-root spans (parent None in the worker's
                        # local tracer) re-parent under the replay span;
                        # perf_counter is system-wide monotonic on
                        # Linux, so starts stay comparable for the merge
                        # sort.
                        self.telemetry.tracer.absorb(
                            spans, parent_id=parent_id
                        )
                    if snapshot:
                        self.telemetry.metrics.merge(snapshot)
                    finish(task, cells)

                def submit(task: Dict[str, Any]) -> Any:
                    return pool.submit(
                        _process_worker_run,
                        pickle.dumps(task),
                        self.telemetry.enabled,
                    )

                self._collect(tasks, submit, unpack)
        finally:
            shared.release()
