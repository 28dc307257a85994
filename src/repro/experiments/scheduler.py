"""The cell executor: every grid, worker, campaign and drop sweep.

A sweep is a list of cells ``(model, accuracy_drop, objective)``.  Run
naively — one fresh pipeline per cell — most of the work is repeated:
every cell of a model re-profiles the same lambda/theta, re-measures
the same baseline accuracy, and re-probes the same doubling-phase
sigmas.  The executor removes that rework on two levels:

* **In-process sharing**: consecutive cells of one context (model-major
  grids) run against *one* :class:`~repro.pipeline.PrecisionOptimizer`,
  whose profile report, layer stats, baseline accuracy, and
  sigma-evaluator memos are shared across every drop and objective.
* **Persistent sharing** (``cache_dir``): all cache-aware surfaces read
  and write the content-addressed store (:mod:`repro.cache`), so a
  re-run — or a sweep extended by one new grid point — only computes
  what no earlier run has proven.  An interrupted sweep loses at most
  the cell in flight.

:class:`CellExecutor` runs one cell: it classifies failures, emits the
cell lifecycle on the event bus, and measures the cell's cache traffic
as a delta.  :func:`run_sweep` loops it over a cell list; distributed
workers (:mod:`~repro.experiments.distributed`) call it per claimed
cell, and ablation campaigns (:mod:`~repro.experiments.ablate`) hand
it their matrix as cells with their own context factories.  Every
caller gets the same :class:`CellRow`.

Results are bit-identical to the naive loop: nothing here changes the
math, only when it runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from ..errors import ReproError
from ..optimize import input_bandwidth_objective, mac_energy_objective
from ..robustness.faults import FailureRecord, classify_failure
from ..telemetry.resources import sample_resources
from ..telemetry.session import Telemetry
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


#: Builds the context a cell runs against from the run configuration
#: (with the cell's model set); the default is
#: :func:`~repro.experiments.common.make_context`.  Campaign cells
#: supply factories that perturb the substrate or wrap it in chaos.
ContextFactory = Callable[[ExperimentConfig], ExperimentContext]


def sweep_cell_id(model: str, drop: float, objective: str) -> str:
    """The canonical event-bus name of one grid cell."""
    return f"{model}/drop={drop:g}/{objective}"


@dataclass(frozen=True)
class Cell:
    """One executable point: (model, drop, objective) and how to run it."""

    model: str
    accuracy_drop: float
    objective: str
    #: Report and event-bus name; defaults to :func:`sweep_cell_id`.
    cell_id: str = ""
    #: "sweep" for grid cells; campaigns use "component"/"scenario".
    kind: str = "sweep"
    #: Campaign labels: the toggled component or scenario name ("" for
    #: the baseline and for grid cells), and the variant name.
    group: str = ""
    variant: str = ""
    #: None runs the cell against the executor's default context.
    context_factory: Optional[ContextFactory] = None
    #: "optimized" (the Eq. 8 xi solve) or "equal" (equal-share xi).
    allocator: str = "optimized"

    def __post_init__(self) -> None:
        if not self.cell_id:
            object.__setattr__(
                self,
                "cell_id",
                sweep_cell_id(self.model, self.accuracy_drop, self.objective),
            )

    def row(self, status: str = "ok", **values: Any) -> "CellRow":
        """A row labelled with this cell's identity."""
        return CellRow(
            cell_id=self.cell_id,
            kind=self.kind,
            group=self.group,
            variant=self.variant,
            model=self.model,
            accuracy_drop=self.accuracy_drop,
            objective=self.objective,
            status=status,
            **values,
        )


@dataclass
class CellRow:
    """The recorded outcome of one cell — ``ok`` or structured ``failed``."""

    cell_id: str
    kind: str
    group: str
    variant: str
    model: str
    accuracy_drop: float
    objective: str
    status: str
    elapsed_seconds: float = 0.0
    #: True when the cell's whole outcome was restored from the
    #: persistent cache instead of being recomputed.
    resumed: bool = False
    sigma: Optional[float] = None
    effective_input_bits: Optional[float] = None
    effective_mac_bits: Optional[float] = None
    baseline_accuracy: Optional[float] = None
    validated_accuracy: Optional[float] = None
    target_accuracy: Optional[float] = None
    degraded: Optional[bool] = None
    bitwidths: Optional[Dict[str, int]] = None
    failure: Optional[FailureRecord] = None
    #: This cell's persistent-cache traffic (counter deltas; empty
    #: without a cache directory).
    cache_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def meets_constraint(self) -> Optional[bool]:
        if self.validated_accuracy is None or self.target_accuracy is None:
            return None
        return self.validated_accuracy >= self.target_accuracy

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cell_id": self.cell_id,
            "kind": self.kind,
            "group": self.group,
            "variant": self.variant,
            "model": self.model,
            "accuracy_drop": self.accuracy_drop,
            "objective": self.objective,
            "status": self.status,
            "elapsed_seconds": self.elapsed_seconds,
            "resumed": self.resumed,
            "sigma": self.sigma,
            "effective_input_bits": self.effective_input_bits,
            "effective_mac_bits": self.effective_mac_bits,
            "baseline_accuracy": self.baseline_accuracy,
            "validated_accuracy": self.validated_accuracy,
            "target_accuracy": self.target_accuracy,
            "meets_constraint": self.meets_constraint,
            "degraded": self.degraded,
            "bitwidths": self.bitwidths,
            "cache_counters": dict(self.cache_counters),
            "failure": (
                None if self.failure is None else self.failure.as_dict()
            ),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "CellRow":
        """Inverse of :meth:`as_dict` (derived keys are ignored)."""
        known = {f.name for f in fields(cls)}
        values = {k: v for k, v in payload.items() if k in known}
        if values.get("failure") is not None:
            values["failure"] = FailureRecord.from_dict(values["failure"])
        return cls(**values)

    def identity_dict(self) -> Dict[str, Any]:
        """The row minus what describes the run, not the result.

        Two cells computed from the same inputs must agree on exactly
        this dict — across serial vs distributed execution, any worker
        count, cold or warm cache, and any crash/re-dispatch history.
        """
        row = self.as_dict()
        for volatile in ("elapsed_seconds", "resumed", "cache_counters"):
            del row[volatile]
        return row


@dataclass
class SweepReport:
    """Every row of a finished sweep plus shared-work accounting."""

    cells: List[CellRow] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    cache_dir: Optional[str] = None

    @property
    def failed(self) -> List[CellRow]:
        return [row for row in self.cells if row.status == "failed"]

    @property
    def cache_counters(self) -> Dict[str, int]:
        """Persistent-cache counters summed over the cells' deltas."""
        totals: Dict[str, int] = {}
        for row in self.cells:
            for key, value in row.cache_counters.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def rows(self) -> List[Dict[str, Any]]:
        return [row.as_dict() for row in self.cells]

    def lines(self) -> List[str]:
        out = []
        for row in self.cells:
            head = (
                f"{row.model:<12} drop={row.accuracy_drop:<6.3g} "
                f"{row.objective:<6} "
            )
            if row.failure is not None:
                out.append(
                    head + f"[FAILED] {row.failure.error_class} at "
                    f"{row.failure.stage} ({row.failure.traceback_digest})"
                )
                continue
            status = {True: "ok", False: "MISS", None: "-"}[
                row.meets_constraint
            ]
            out.append(
                head + f"eff_in={row.effective_input_bits:6.2f} "
                f"eff_mac={row.effective_mac_bits:6.2f} "
                f"[{status}] {row.elapsed_seconds:6.2f}s"
                + (" resumed" if row.resumed else "")
            )
        out.append(summary_line(self.cells, self.elapsed_seconds,
                                self.cache_counters, self.cache_dir))
        return out


def summary_line(
    rows: Sequence[CellRow],
    elapsed_seconds: float,
    cache_counters: Dict[str, int],
    cache_dir: Optional[str],
) -> str:
    """The closing line of a sweep or campaign report."""
    failed = sum(1 for row in rows if row.status == "failed")
    resumed = sum(1 for row in rows if row.resumed)
    return (
        f"{len(rows)} cells in {elapsed_seconds:.2f}s"
        + (f", {failed} failed" if failed else "")
        + (f", {resumed} resumed" if resumed else "")
        + f"; cache: {cache_counters.get('hits', 0)} hits / "
        f"{cache_counters.get('misses', 0)} misses"
        + (f" ({cache_dir})" if cache_dir else " (off)")
    )


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


class CellExecutor:
    """Runs cells one at a time; the only cell loop body in the package.

    It keeps the context of the last cell, so consecutive cells of one
    model share profiles and sigma memos.  A failing cell becomes a
    ``failed`` row carrying a classified
    :class:`~repro.robustness.faults.FailureRecord`; ``config.strict``
    re-raises instead.  ``make`` builds the context of cells without a
    factory of their own; ``compute`` replaces the optimizer call (the
    distributed executor's synthetic benchmark cells use it).
    """

    def __init__(
        self,
        config: ExperimentConfig,
        telemetry: Telemetry,
        make: ContextFactory = make_context,
        compute: Optional[Callable[[Cell], CellRow]] = None,
    ) -> None:
        self.config = config
        self.telemetry = telemetry
        self.make = make
        self.compute = compute or self._optimize
        self._key: Any = None
        self._context: Optional[ExperimentContext] = None
        #: (optimizer, cache counts, restored count) before the cell.
        self._before: Optional[tuple] = None

    def _context_for(self, cell: Cell) -> ExperimentContext:
        factory = cell.context_factory or self.make
        if (factory, cell.model) != self._key:
            self._key, self._context = None, None
            self._context = factory(replace(self.config, model=cell.model))
            self._key = (factory, cell.model)
        return self._context

    def _optimize(self, cell: Cell) -> CellRow:
        optimizer = self._context_for(cell).optimizer
        self._before = (
            optimizer,
            _cache_counts(optimizer),
            _restored_total(optimizer),
        )
        stats = optimizer.stats()
        if cell.allocator == "equal":
            outcome = optimizer.equal_scheme(accuracy_drop=cell.accuracy_drop)
        else:
            outcome = optimizer.optimize(
                cell.objective, accuracy_drop=cell.accuracy_drop
            )
        allocation = outcome.result.allocation
        return cell.row(
            sigma=outcome.result.sigma,
            effective_input_bits=allocation.effective_bitwidth(
                input_bandwidth_objective(stats).rho
            ),
            effective_mac_bits=allocation.effective_bitwidth(
                mac_energy_objective(stats).rho
            ),
            baseline_accuracy=outcome.baseline_accuracy,
            validated_accuracy=outcome.validated_accuracy,
            target_accuracy=outcome.sigma_result.target_accuracy,
            degraded=outcome.degraded,
            bitwidths=dict(outcome.bitwidths),
        )

    def run(self, cell: Cell) -> CellRow:
        """Execute one cell and emit its running/done/failed lifecycle."""
        bus = self.telemetry.event_bus
        bus.cell("running", cell.cell_id)
        self._before = None
        start = time.perf_counter()
        with self.telemetry.tracer.span(
            "sweep.cell", cell_id=cell.cell_id, kind=cell.kind
        ) as span, self.telemetry.resources.measure("sweep.cell", span=span):
            try:
                row = self.compute(cell)
            # Fault isolation: a crashing cell becomes a failed row and
            # the rest of the grid still runs.
            except Exception as exc:  # repro-check: ignore[overbroad-except]
                if self.config.strict:
                    raise
                # No optimizer yet: the context could not be built.
                hint = "context" if self._before is None else ""
                row = cell.row(
                    "failed", failure=classify_failure(exc, stage_hint=hint)
                )
        row.elapsed_seconds = time.perf_counter() - start
        if self._before is not None:
            optimizer, counts, restored = self._before
            after = _cache_counts(optimizer)
            row.cache_counters = {
                key: value - counts.get(key, 0)
                for key, value in after.items()
            }
            row.resumed = _restored_total(optimizer) > restored
        self.telemetry.metrics.counter(f"sweep_cells_{row.status}_total").inc()
        if row.resumed:
            bus.cell("cached-hit", cell.cell_id, resumed=True)
        if row.failure is not None:
            bus.cell(
                "failed",
                cell.cell_id,
                elapsed_seconds=row.elapsed_seconds,
                stage=row.failure.stage,
                error_class=row.failure.error_class,
            )
        elif bus.enabled:
            bus.cell(
                "done",
                cell.cell_id,
                elapsed_seconds=row.elapsed_seconds,
                cache_hits=row.cache_counters.get("hits", 0),
                cache_misses=row.cache_counters.get("misses", 0),
                degraded=bool(row.degraded),
                peak_rss_bytes=sample_resources().peak_rss_bytes,
            )
        return row


def run_sweep(
    cells: Union[SweepSpec, Sequence[Cell], None] = None,
    config: Optional[ExperimentConfig] = None,
    progress: bool = False,
    telemetry: Optional[Telemetry] = None,
    kind: str = "sweep",
) -> SweepReport:
    """Execute cells in order with cross-cell work sharing.

    Equivalent to calling ``optimizer.optimize(objective, drop)`` for
    every cell — the report's numbers are bit-identical to the naive
    per-cell loop — but profiles, stats, baseline accuracies, and
    sigma evaluations are computed at most once per model, and at most
    once *ever* when a persistent cache directory is configured.

    A failing cell becomes a ``failed`` row and the remaining cells
    still run; ``config.strict`` fails fast instead.  ``telemetry``
    is the session whose tracer, metrics and event bus the run uses
    (default: one built from ``config``); ``kind`` labels the run on
    the bus.
    """
    config = config or ExperimentConfig()
    if cells is None or isinstance(cells, SweepSpec):
        cells = [Cell(*cell) for cell in (cells or SweepSpec()).cells()]
    if not cells:
        raise ReproError("sweep has no cells")
    session = Telemetry.create(
        telemetry if telemetry is not None else config.telemetry_settings()
    )
    executor = CellExecutor(config, session)
    bus = session.event_bus
    report = SweepReport(cache_dir=config.resolved_cache_dir())
    start = time.perf_counter()
    bus.run_started(total_cells=len(cells), kind=kind)
    for cell in cells:
        bus.cell("queued", cell.cell_id, kind=cell.kind)
    try:
        with session.tracer.span("sweep.run", kind=kind, cells=len(cells)):
            for cell in cells:
                row = executor.run(cell)
                report.cells.append(row)
                if progress:  # pragma: no cover - console nicety
                    status = "resumed" if row.resumed else row.status
                    print(
                        f"  {row.cell_id}: {status} "
                        f"({row.elapsed_seconds:.2f}s)"
                    )
    finally:
        failed = len(report.failed)
        bus.run_finished(
            cells_done=len(report.cells) - failed, cells_failed=failed
        )
        bus.close()
    report.elapsed_seconds = time.perf_counter() - start
    return report


def run_drop_sweep(
    config: Optional[ExperimentConfig] = None,
    objective: str = "input",
    accuracy_drops: Sequence[float] = (0.005, 0.01, 0.02, 0.05, 0.10),
    context: Optional[ExperimentContext] = None,
) -> SweepReport:
    """Trace one network's bits-vs-accuracy-drop curve.

    Table III samples two accuracy constraints (1%, 5%); the method's
    real product is the whole curve — how the effective bitwidth falls
    as the constraint relaxes.  It is a one-model grid in increasing
    drop order, so each extra point costs one sigma search plus one
    optimization on the shared profiles.
    """
    context = context or make_context(config)

    def given(_: ExperimentConfig) -> ExperimentContext:
        return context

    cells = [
        Cell(context.config.model, float(drop), objective,
             context_factory=given)
        for drop in sorted(accuracy_drops)
    ]
    return run_sweep(cells, context.config)
