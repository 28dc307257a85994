"""Ablation & scenario-robustness campaigns (``repro ablate``).

A campaign is a grid of fault-isolated cells: the ablation matrix
(baseline + one variant per toggled pipeline component, see
:mod:`repro.robustness.matrix`) crossed with the requested models, plus
one cell per requested scenario (:mod:`repro.robustness.scenarios`).
Each cell runs through the incremental sweep scheduler, so shared work
(profiles, sigma evaluations) is reused in-process and — with a cache
directory — across cells and across runs.

Fault isolation is the campaign's contract: a crashing cell (including
injected chaos) becomes a structured ``failed`` row carrying the error
class, the pipeline stage, and a traceback digest, and every other
cell still runs.  ``strict`` restores fail-fast.

Resuming is re-running with the same cache directory: a cell whose
whole outcome is already in the content-addressed cache is restored
(its row is marked ``resumed``), and every other cell re-executes,
reusing whatever profiles and sigma evaluations earlier runs proved.
The cache keys cover every result-determining setting, so a changed
grid or configuration can never pick up a stale result.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence

from ..errors import ReproError
from ..robustness import (
    CampaignCell,
    CampaignRow,
    baseline_variant,
    build_matrix,
    build_report,
    execute_cell,
    resolve_scenario,
)
from ..robustness.report import AblationReport
from ..telemetry.manifest import build_manifest
from ..telemetry.session import Telemetry
from .common import ExperimentConfig


@dataclass(frozen=True)
class AblationSpec:
    """What a campaign covers."""

    models: Sequence[str] = ("lenet",)
    accuracy_drop: float = 0.05
    objective: str = "input"
    #: Component toggles to ablate (None = every registered component).
    components: Optional[Sequence[str]] = None
    #: Scenario names to run (see ``repro.robustness.SCENARIOS``).
    scenarios: Sequence[str] = ()
    #: Cell ids that get a chaos crash injected on their first forward
    #: event (testing/demo hook for the fault-isolation contract).
    chaos_cells: Sequence[str] = ()


def build_campaign_cells(
    spec: AblationSpec, config: ExperimentConfig
) -> List[CampaignCell]:
    """The campaign's cell list, matrix-major then scenarios.

    Cell ids are stable across runs — ``component/<variant>/<model>``
    and ``scenario/<name>/<model>`` — which is what makes chaos
    targeting addressable.
    """
    chaos = set(spec.chaos_cells)
    cells: List[CampaignCell] = []
    variants = build_matrix(config, spec.components)
    for model in spec.models:
        for variant in variants:
            cell_id = f"component/{variant.name}/{model}"
            cells.append(
                CampaignCell(
                    cell_id=cell_id,
                    kind="component",
                    variant=variant,
                    scenario=None,
                    model=model,
                    accuracy_drop=spec.accuracy_drop,
                    objective=spec.objective,
                    chaos=cell_id in chaos,
                )
            )
    for name in spec.scenarios:
        scenario = resolve_scenario(name)
        drop = float(
            scenario.params.get("accuracy_drop", spec.accuracy_drop)
        )
        for model in spec.models:
            cell_id = f"scenario/{name}/{model}"
            cells.append(
                CampaignCell(
                    cell_id=cell_id,
                    kind="scenario",
                    variant=baseline_variant(),
                    scenario=scenario,
                    model=model,
                    accuracy_drop=drop,
                    objective=spec.objective,
                    chaos=cell_id in chaos,
                )
            )
    known = {cell.cell_id for cell in cells}
    unknown = sorted(chaos - known)
    if unknown:
        raise ReproError(
            f"chaos cells {unknown!r} are not in the campaign; "
            f"known ids: {sorted(known)}"
        )
    return cells


def _campaign_manifest(
    spec: AblationSpec,
    config: ExperimentConfig,
    cells: Sequence[CampaignCell],
) -> Dict[str, object]:
    manifest = build_manifest(
        config={
            "models": list(spec.models),
            "accuracy_drop": spec.accuracy_drop,
            "objective": spec.objective,
            "components": (
                None
                if spec.components is None
                else list(spec.components)
            ),
            "scenarios": list(spec.scenarios),
            "num_cells": len(cells),
            "experiment_config": asdict(config),
        },
        seed=config.seed,
        model=",".join(spec.models),
    )
    return manifest.as_dict()


def run_ablation_campaign(
    spec: Optional[AblationSpec] = None,
    config: Optional[ExperimentConfig] = None,
    progress: bool = False,
) -> AblationReport:
    """Execute (or resume) a campaign and measure component importance.

    ``config.strict`` turns the per-cell fault boundary off: the first
    failing cell raises instead of becoming a ``failed`` row.  With a
    cache directory, cells whose outcome an earlier run already cached
    are restored and marked ``resumed``; only the rest count as
    executed.
    """
    spec = spec or AblationSpec()
    config = config or ExperimentConfig()
    cells = build_campaign_cells(spec, config)
    manifest = _campaign_manifest(spec, config, cells)
    telemetry = Telemetry.create(config.telemetry_settings())
    bus = telemetry.event_bus
    keep_going = not config.strict
    rows: List[CampaignRow] = []
    executed: List[str] = []
    start = time.perf_counter()
    bus.run_started(total_cells=len(cells), kind="ablate")
    for cell in cells:
        bus.cell("queued", cell.cell_id, kind=cell.kind)
    with telemetry.tracer.span(
        "ablate.campaign",
        cells=len(cells),
        models=",".join(spec.models),
        objective=spec.objective,
    ):
        for cell in cells:
            bus.cell("running", cell.cell_id)
            with telemetry.tracer.span(
                "ablate.cell",
                cell_id=cell.cell_id,
                kind=cell.kind,
                chaos=cell.chaos,
            ) as cell_span, telemetry.resources.measure(
                "ablate.cell", span=cell_span
            ):
                row = execute_cell(
                    cell,
                    config,
                    keep_going=keep_going,
                    telemetry=telemetry,
                )
            telemetry.metrics.counter(
                f"ablate_cells_{row.status}_total"
            ).inc()
            rows.append(row)
            if row.resumed:
                bus.cell("cached-hit", cell.cell_id, resumed=True)
            else:
                executed.append(cell.cell_id)
            if row.status == "ok":
                bus.cell(
                    "done",
                    cell.cell_id,
                    elapsed_seconds=row.elapsed_seconds,
                )
            else:
                bus.cell(
                    "failed",
                    cell.cell_id,
                    elapsed_seconds=row.elapsed_seconds,
                    error_class=(
                        row.failure.error_class
                        if row.failure is not None
                        else ""
                    ),
                )
            if progress:  # pragma: no cover - console nicety
                status = "resumed" if row.resumed else row.status
                print(
                    f"  {cell.cell_id}: {status} "
                    f"({row.elapsed_seconds:.2f}s)"
                )
    bus.run_finished(
        cells_done=sum(1 for row in rows if row.status == "ok"),
        cells_failed=sum(1 for row in rows if row.status != "ok"),
    )
    elapsed = time.perf_counter() - start
    report = build_report(
        rows,
        elapsed_seconds=elapsed,
        manifest=manifest,
        cache_dir=config.resolved_cache_dir(),
        executed_cell_ids=executed,
    )
    if config.trace_out:
        telemetry.export()
    return report


__all__ = [
    "AblationSpec",
    "build_campaign_cells",
    "run_ablation_campaign",
]
