"""Ablation & scenario-robustness campaigns (``repro ablate``).

A campaign is run-matrix generation plus importance scoring.  The
matrix (baseline + one variant per toggled pipeline component, see
:mod:`repro.robustness.matrix`) is crossed with the requested models,
plus one cell per requested scenario (:mod:`repro.robustness.
scenarios`).  Those are ordinary cells of the sweep executor
(:func:`~repro.experiments.scheduler.run_sweep`), each with its own
context factory (:func:`build_cell_context`) and allocator; the
executor's rows are then scored by :mod:`repro.robustness.report`.
Shared work (profiles, sigma evaluations) is reused across cells and
across runs through the cache directory.

Fault isolation is the executor's contract: a crashing cell (including
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

from dataclasses import asdict, dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..data import SyntheticImageNet
from ..errors import ReproError
from ..models import pretrained_model
from ..models.calibrate import lsuv_calibrate
from ..models.pretrain import pretrain
from ..pipeline import PrecisionOptimizer
from ..robustness import (
    MatrixVariant,
    Scenario,
    baseline_variant,
    build_matrix,
    build_report,
    build_scenario_network,
    perturb_dataset,
    perturb_network_weights,
    resolve_scenario,
)
from ..robustness.report import AblationReport
from ..telemetry.manifest import build_manifest
from ..telemetry.session import Telemetry
from .common import ExperimentConfig, ExperimentContext
from .scheduler import Cell, run_sweep


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


def build_cell_context(
    config: ExperimentConfig,
    variant: MatrixVariant,
    scenario: Optional[Scenario] = None,
    chaos: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> ExperimentContext:
    """Build one campaign cell's (perturbed, maybe chaos-wrapped) context.

    Mirrors :func:`repro.experiments.common.make_context` but applies,
    in order: the variant's config overrides, topology substitution,
    pretraining, input/weight perturbation, chaos wrapping (a crash on
    the first forward event), then optimizer construction.  Contexts
    are never cached: every cell gets a fresh substrate so
    perturbations and chaos stay isolated.
    """
    config = variant.apply(config)
    source = SyntheticImageNet(
        num_classes=config.num_classes, seed=config.seed
    )
    if scenario is not None and scenario.kind == "topology":
        network = build_scenario_network(
            scenario, num_classes=config.num_classes, seed=config.seed
        )
        train, test = source.train_test(
            config.train_count, config.test_count
        )
        calibration = train.images[: min(32, len(train))]
        lsuv_calibrate(network, calibration)
        info = pretrain(network, train, test)
    else:
        network, train, test, info = pretrained_model(
            config.model,
            source=source,
            train_count=config.train_count,
            test_count=config.test_count,
            seed=config.seed,
        )
    if scenario is not None and scenario.kind == "input":
        test = perturb_dataset(test, scenario, seed=config.seed)
    if scenario is not None and scenario.kind == "weights":
        perturb_network_weights(
            network,
            rel_std=float(scenario.params.get("rel_std", 1e-3)),
            seed=config.seed,
        )
    substrate = network
    if chaos:
        from ..resilience.chaos import ChaosNetwork, FaultSchedule

        substrate = ChaosNetwork(
            network, crash_schedule=FaultSchedule.once(0)
        )
    optimizer = PrecisionOptimizer(
        substrate,
        test,
        profile_settings=config.profile_settings(),
        search_settings=config.search_settings(),
        scheme=config.scheme,
        strict=config.strict,
        parallel=config.parallel_settings(),
        telemetry=(
            telemetry
            if telemetry is not None
            else config.telemetry_settings()
        ),
        cache=config.resolved_cache_dir(),
    )
    return ExperimentContext(
        config=config,
        network=network,
        train=train,
        test=test,
        pretrain_info=info,
        optimizer=optimizer,
    )


def build_campaign_cells(
    spec: AblationSpec,
    config: ExperimentConfig,
    telemetry: Optional[Telemetry] = None,
) -> List[Cell]:
    """The campaign's executor cells, matrix-major then scenarios.

    Cell ids are stable across runs — ``component/<variant>/<model>``
    and ``scenario/<name>/<model>`` — which is what makes chaos
    targeting addressable.  Every cell's context is built by
    :func:`build_cell_context` on the shared ``telemetry`` session.
    """
    variants = build_matrix(config, spec.components)
    points = []  # (cell_id, kind, variant, scenario, model, drop)
    for model in spec.models:
        for variant in variants:
            points.append((f"component/{variant.name}/{model}", "component",
                           variant, None, model, spec.accuracy_drop))
    for name in spec.scenarios:
        scenario = resolve_scenario(name)
        drop = float(
            scenario.params.get("accuracy_drop", spec.accuracy_drop)
        )
        for model in spec.models:
            points.append((f"scenario/{name}/{model}", "scenario",
                           baseline_variant(), scenario, model, drop))
    chaos = set(spec.chaos_cells)
    cells = [
        Cell(
            model,
            drop,
            spec.objective,
            cell_id=cell_id,
            kind=kind,
            group=scenario.name if scenario else variant.component,
            variant=scenario.name if scenario else variant.name,
            context_factory=partial(
                build_cell_context,
                variant=variant,
                scenario=scenario,
                chaos=cell_id in chaos,
                telemetry=telemetry,
            ),
            allocator=variant.allocator,
        )
        for cell_id, kind, variant, scenario, model, drop in points
    ]
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
    cells: Sequence[Cell],
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
    telemetry = Telemetry.create(config.telemetry_settings())
    cells = build_campaign_cells(spec, config, telemetry)
    manifest = _campaign_manifest(spec, config, cells)
    sweep = run_sweep(
        cells, config, progress=progress, telemetry=telemetry, kind="ablate"
    )
    if config.trace_out:
        telemetry.export()
    return build_report(
        sweep.cells,
        elapsed_seconds=sweep.elapsed_seconds,
        manifest=manifest,
        cache_dir=sweep.cache_dir,
    )


__all__ = [
    "AblationSpec",
    "build_campaign_cells",
    "build_cell_context",
    "run_ablation_campaign",
]
