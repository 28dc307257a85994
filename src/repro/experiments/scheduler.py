"""Incremental sweep scheduler: Table-III-style grids without rework.

A sweep is a grid of cells ``(model, accuracy_drop, objective)``.  Run
naively — one fresh pipeline per cell — most of the work is repeated:
every cell of a model re-profiles the same lambda/theta, re-measures
the same baseline accuracy, and re-probes the same doubling-phase
sigmas.  The scheduler removes that rework on two levels:

* **In-process sharing**: cells are grouped by model and executed
  against *one* :class:`~repro.pipeline.PrecisionOptimizer`, whose
  profile report, layer stats, baseline accuracy, and sigma-evaluator
  memos are shared across every drop and objective of that model.
* **Persistent sharing** (``cache_dir``): all cache-aware surfaces read
  and write the content-addressed store (:mod:`repro.cache`), so a
  re-run — or a sweep extended by one new grid point — only computes
  what no earlier run has proven.  An interrupted sweep loses at most
  the cell in flight.

Results are bit-identical to the naive loop: nothing here changes the
math, only when it runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import ReproError
from ..optimize import input_bandwidth_objective, mac_energy_objective
from ..robustness.faults import FailureRecord, classify_failure
from ..telemetry.events import open_event_bus
from ..telemetry.resources import sample_resources
from .common import ExperimentConfig, ExperimentContext, make_context


@dataclass(frozen=True)
class SweepSpec:
    """The grid a sweep covers."""

    models: Sequence[str] = ("lenet",)
    accuracy_drops: Sequence[float] = (0.01, 0.05)
    objectives: Sequence[str] = ("input", "mac")

    def cells(self) -> Iterator[tuple]:
        """Cells in execution order: model-major, then drop, objective.

        Model-major order maximizes in-process sharing (one optimizer
        per model); drops before objectives so each sigma search is
        immediately reused by every objective at that drop.
        """
        for model in self.models:
            for drop in self.accuracy_drops:
                for objective in self.objectives:
                    yield model, float(drop), objective

    @property
    def num_cells(self) -> int:
        return (
            len(self.models)
            * len(self.accuracy_drops)
            * len(self.objectives)
        )


@dataclass
class SweepCellResult:
    """One finished grid cell."""

    model: str
    accuracy_drop: float
    objective: str
    sigma: float
    effective_input_bits: float
    effective_mac_bits: float
    baseline_accuracy: float
    validated_accuracy: Optional[float]
    target_accuracy: float
    bitwidths: Dict[str, int]
    degraded: bool
    elapsed_seconds: float
    #: True when the whole outcome came back from the persistent cache.
    #: Like the timing, it describes this run, not the result, so it
    #: stays out of :meth:`as_dict`.
    restored: bool = False

    @property
    def meets_constraint(self) -> Optional[bool]:
        if self.validated_accuracy is None:
            return None
        return self.validated_accuracy >= self.target_accuracy

    def as_dict(self) -> Dict[str, object]:
        return {
            "model": self.model,
            "drop": self.accuracy_drop,
            "objective": self.objective,
            "sigma": self.sigma,
            "eff_input_bits": self.effective_input_bits,
            "eff_mac_bits": self.effective_mac_bits,
            "baseline_accuracy": self.baseline_accuracy,
            "validated_accuracy": self.validated_accuracy,
            "meets_constraint": self.meets_constraint,
            "bitwidths": self.bitwidths,
            "degraded": self.degraded,
            "elapsed_seconds": self.elapsed_seconds,
        }

    def identity_dict(self) -> Dict[str, object]:
        """The row minus wall-clock timing: the bit-identity surface.

        Two cells computed from the same inputs must agree on exactly
        this dict — across serial vs distributed execution, any worker
        count, and any crash/re-dispatch history.  Only
        ``elapsed_seconds`` legitimately differs between runs.
        """
        row = self.as_dict()
        del row["elapsed_seconds"]
        return row


@dataclass
class SweepCellFailure:
    """One grid cell that raised instead of finishing (``keep_going``)."""

    model: str
    accuracy_drop: Optional[float]
    objective: Optional[str]
    failure: FailureRecord
    elapsed_seconds: float

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "model": self.model,
            "drop": self.accuracy_drop,
            "objective": self.objective,
            "status": "failed",
            "elapsed_seconds": self.elapsed_seconds,
        }
        row.update(self.failure.as_dict())
        return row


@dataclass
class SweepReport:
    """Every cell of a finished sweep plus shared-work accounting."""

    cells: List[SweepCellResult] = field(default_factory=list)
    #: Cells that raised, recorded instead of aborting the grid
    #: (only populated when ``run_sweep(..., keep_going=True)``).
    failures: List[SweepCellFailure] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    #: Persistent-cache counters summed over every model's optimizer
    #: (zeros when the sweep ran without a cache directory).
    cache_counters: Dict[str, int] = field(default_factory=dict)
    cache_dir: Optional[str] = None

    def rows(self) -> List[Dict[str, object]]:
        return [cell.as_dict() for cell in self.cells]

    def failure_rows(self) -> List[Dict[str, object]]:
        return [failure.as_dict() for failure in self.failures]

    def lines(self) -> List[str]:
        out = []
        for cell in self.cells:
            status = {True: "ok", False: "MISS", None: "-"}[
                cell.meets_constraint
            ]
            out.append(
                f"{cell.model:<12} drop={cell.accuracy_drop:<6.3g} "
                f"{cell.objective:<6} eff_in={cell.effective_input_bits:6.2f} "
                f"eff_mac={cell.effective_mac_bits:6.2f} "
                f"[{status}] {cell.elapsed_seconds:6.2f}s"
            )
        for failure in self.failures:
            out.append(
                f"{failure.model:<12} drop={failure.accuracy_drop!s:<6} "
                f"{str(failure.objective):<6} [FAILED] "
                f"{failure.failure.error_class} at {failure.failure.stage} "
                f"({failure.failure.traceback_digest})"
            )
        hits = self.cache_counters.get("hits", 0)
        misses = self.cache_counters.get("misses", 0)
        failed = f", {len(self.failures)} failed" if self.failures else ""
        out.append(
            f"{len(self.cells)} cells in {self.elapsed_seconds:.2f}s"
            f"{failed}; cache: {hits} hits / {misses} misses"
            + (f" ({self.cache_dir})" if self.cache_dir else " (off)")
        )
        return out


#: Builds the per-model context a sweep runs against; the default is
#: :func:`~repro.experiments.common.make_context`.  The ablation runner
#: substitutes factories that perturb the substrate or override
#: optimizer construction (see :mod:`repro.robustness.runner`).
ContextFactory = Callable[[ExperimentConfig], ExperimentContext]

#: Executes one cell against a ready optimizer; the default calls
#: ``optimizer.optimize(objective, accuracy_drop=drop)``.  Variants can
#: substitute e.g. the equal-xi allocator while reusing the grid loop,
#: fault isolation, and reporting.
OptimizeFn = Callable[[object, str, float], object]


def _default_optimize(optimizer: Any, objective: str, drop: float) -> Any:
    return optimizer.optimize(objective, accuracy_drop=drop)


def sweep_cell_id(model: str, drop: float, objective: str) -> str:
    """The canonical event-bus name of one grid cell."""
    return f"{model}/drop={drop:g}/{objective}"


def _cache_counts(optimizer: Any) -> Dict[str, int]:
    cache = getattr(optimizer, "cache", None)
    if cache is None:
        return {}
    return dict(cache.counters.as_dict())


def _restored_total(optimizer: Any) -> int:
    telemetry = getattr(optimizer, "telemetry", None)
    if telemetry is None:
        return 0
    return int(
        telemetry.metrics.counter("repro_outcome_restored_total").value
    )


def run_sweep(
    spec: Optional[SweepSpec] = None,
    config: Optional[ExperimentConfig] = None,
    progress: bool = False,
    keep_going: bool = False,
    context_factory: Optional[ContextFactory] = None,
    optimize_fn: Optional[OptimizeFn] = None,
) -> SweepReport:
    """Execute a sweep grid with cross-cell work sharing.

    Equivalent to calling ``optimizer.optimize(objective, drop)`` for
    every cell — the report's numbers are bit-identical to the naive
    per-cell loop — but profiles, stats, baseline accuracies, and
    sigma evaluations are computed at most once per model, and at most
    once *ever* when a persistent cache directory is configured.

    With ``keep_going`` a raising cell no longer aborts the grid: the
    failure is classified (:func:`repro.robustness.classify_failure`)
    and recorded in :attr:`SweepReport.failures`, and the remaining
    cells run to completion.  A failure while *building a model's
    context* records one failed row per cell of that model.  The
    default (``keep_going=False``) keeps the historical fail-fast
    behaviour.
    """
    spec = spec or SweepSpec()
    config = config or ExperimentConfig()
    if spec.num_cells == 0:
        raise ReproError("sweep spec has no cells")
    make = context_factory or make_context
    optimize = optimize_fn or _default_optimize
    report = SweepReport(cache_dir=config.resolved_cache_dir())
    totals: Dict[str, int] = {}
    bus = open_event_bus(config.events_dir)
    start = time.perf_counter()
    bus.run_started(total_cells=spec.num_cells, kind="sweep")
    for model, drop, objective in spec.cells():
        bus.cell("queued", sweep_cell_id(model, drop, objective))
    try:
        for model in spec.models:
            model_start = time.perf_counter()
            try:
                context = make(replace(config, model=model))
                optimizer = context.optimizer
                stats = optimizer.stats()
                rho_in = input_bandwidth_objective(stats).rho
                rho_mac = mac_energy_objective(stats).rho
            except Exception as exc:
                if not keep_going:
                    raise
                elapsed = time.perf_counter() - model_start
                failure = classify_failure(exc, stage_hint="context")
                for cell_model, drop, objective in spec.cells():
                    if cell_model != model:
                        continue
                    report.failures.append(
                        SweepCellFailure(
                            model=model,
                            accuracy_drop=drop,
                            objective=objective,
                            failure=failure,
                            elapsed_seconds=elapsed,
                        )
                    )
                    bus.cell(
                        "failed",
                        sweep_cell_id(model, drop, objective),
                        stage="context",
                        error_class=failure.error_class,
                    )
                    elapsed = 0.0  # charge the build once, to the first cell
                continue
            for cell_model, drop, objective in spec.cells():
                if cell_model != model:
                    continue
                cell_id = sweep_cell_id(model, drop, objective)
                cache_before = _cache_counts(optimizer)
                restored_before = _restored_total(optimizer)
                bus.cell("running", cell_id)
                cell_start = time.perf_counter()
                try:
                    outcome = optimize(optimizer, objective, drop)
                except Exception as exc:
                    if not keep_going:
                        raise
                    failure = classify_failure(exc)
                    report.failures.append(
                        SweepCellFailure(
                            model=model,
                            accuracy_drop=drop,
                            objective=objective,
                            failure=failure,
                            elapsed_seconds=time.perf_counter() - cell_start,
                        )
                    )
                    bus.cell(
                        "failed",
                        cell_id,
                        stage=failure.stage,
                        error_class=failure.error_class,
                    )
                    continue
                cell_elapsed = time.perf_counter() - cell_start
                cache_after = _cache_counts(optimizer)
                cache_hits = cache_after.get("hits", 0) - cache_before.get(
                    "hits", 0
                )
                cache_misses = cache_after.get(
                    "misses", 0
                ) - cache_before.get("misses", 0)
                restored = _restored_total(optimizer) > restored_before
                if restored:
                    bus.cell("cached-hit", cell_id)
                allocation = outcome.result.allocation
                cell = SweepCellResult(
                    model=model,
                    accuracy_drop=drop,
                    objective=objective,
                    sigma=outcome.result.sigma,
                    effective_input_bits=allocation.effective_bitwidth(rho_in),
                    effective_mac_bits=allocation.effective_bitwidth(rho_mac),
                    baseline_accuracy=outcome.baseline_accuracy,
                    validated_accuracy=outcome.validated_accuracy,
                    target_accuracy=outcome.sigma_result.target_accuracy,
                    bitwidths=outcome.bitwidths,
                    degraded=outcome.degraded,
                    elapsed_seconds=cell_elapsed,
                    restored=restored,
                )
                report.cells.append(cell)
                if bus.enabled:
                    bus.cell(
                        "done",
                        cell_id,
                        elapsed_seconds=cell_elapsed,
                        cache_hits=cache_hits,
                        cache_misses=cache_misses,
                        degraded=bool(outcome.degraded),
                        peak_rss_bytes=sample_resources().peak_rss_bytes,
                    )
                if progress:  # pragma: no cover - console nicety
                    print("  " + report.lines()[len(report.cells) - 1])
            if optimizer.cache is not None:
                for key, value in optimizer.cache.counters.as_dict().items():
                    totals[key] = totals.get(key, 0) + value
    finally:
        bus.run_finished(
            cells_done=len(report.cells), cells_failed=len(report.failures)
        )
        bus.close()
    report.elapsed_seconds = time.perf_counter() - start
    report.cache_counters = totals
    return report
