"""Fault-isolated execution of one campaign cell.

A campaign cell is one (variant, scenario, model, drop, objective)
point of an ablation/robustness campaign.  :func:`execute_cell` runs it
through the incremental sweep scheduler (one-cell grid) so the cell
inherits the scheduler's work sharing and — with ``keep_going`` — its
resilience boundary: an exception anywhere in the cell becomes a
structured ``failed`` row (:class:`~repro.robustness.faults.
FailureRecord`) instead of aborting the campaign.

Chaos injection is first-class: a cell marked ``chaos`` gets its
network wrapped in :class:`~repro.resilience.chaos.ChaosNetwork` with a
crash on the first forward event, which is how the test-suite and the
CI smoke prove the fault isolation end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from ..errors import ReproError
from .faults import FailureRecord
from .matrix import MatrixVariant
from .scenarios import (
    Scenario,
    build_scenario_network,
    perturb_dataset,
    perturb_network_weights,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.common import ExperimentConfig, ExperimentContext
    from ..telemetry.session import Telemetry


@dataclass(frozen=True)
class CampaignCell:
    """One executable point of a campaign."""

    cell_id: str
    #: "component" (matrix variant) or "scenario" (substrate perturbed).
    kind: str
    variant: MatrixVariant
    scenario: Optional[Scenario]
    model: str
    accuracy_drop: float
    objective: str
    #: Inject a SimulatedCrash on the cell's first forward event.
    chaos: bool = False


@dataclass
class CampaignRow:
    """The recorded outcome of one cell — ``ok`` or structured ``failed``."""

    cell_id: str
    kind: str
    #: Component name for matrix cells, scenario name for scenario
    #: cells, "" for the baseline.
    group: str
    variant: str
    model: str
    accuracy_drop: float
    objective: str
    status: str
    elapsed_seconds: float
    #: True when the cell's whole outcome was restored from the
    #: persistent cache instead of being recomputed.
    resumed: bool = False
    sigma: Optional[float] = None
    effective_input_bits: Optional[float] = None
    effective_mac_bits: Optional[float] = None
    baseline_accuracy: Optional[float] = None
    validated_accuracy: Optional[float] = None
    target_accuracy: Optional[float] = None
    meets_constraint: Optional[bool] = None
    degraded: Optional[bool] = None
    bitwidths: Optional[Dict[str, int]] = None
    failure: Optional[FailureRecord] = None
    cache_counters: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
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
        }
        payload["failure"] = (
            None if self.failure is None else self.failure.as_dict()
        )
        return payload


# ----------------------------------------------------------------------
def build_cell_context(
    config: "ExperimentConfig",
    cell: CampaignCell,
    telemetry: Optional["Telemetry"] = None,
) -> "ExperimentContext":
    """Build the (possibly perturbed, possibly chaos-wrapped) context.

    Mirrors :func:`repro.experiments.common.make_context` but applies,
    in order: topology substitution, pretraining, input/weight
    perturbation, chaos wrapping, then optimizer construction with the
    variant's parallel/optimizer overrides.  Contexts are never cached:
    every cell gets a fresh substrate so perturbations and chaos stay
    isolated.
    """
    from ..data import SyntheticImageNet
    from ..experiments.common import ExperimentContext
    from ..models import pretrained_model
    from ..models.calibrate import lsuv_calibrate
    from ..models.pretrain import pretrain
    from ..pipeline import PrecisionOptimizer

    scenario = cell.scenario
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
    if cell.chaos:
        from ..resilience.chaos import ChaosNetwork, FaultSchedule

        substrate = ChaosNetwork(
            network, crash_schedule=FaultSchedule.once(0)
        )
    parallel = config.parallel_settings()
    if cell.variant.parallel_overrides:
        parallel = replace(
            parallel, **dict(cell.variant.parallel_overrides)
        )
    optimizer_kwargs: Dict[str, Any] = dict(
        cell.variant.optimizer_overrides
    )
    if cell.variant.force_solver_failure:
        from ..resilience.chaos import broken_solver

        optimizer_kwargs["xi_solver"] = broken_solver(fail_times=None)
    optimizer = PrecisionOptimizer(
        substrate,
        test,
        profile_settings=config.profile_settings(),
        search_settings=config.search_settings(),
        scheme=config.scheme,
        strict=config.strict,
        parallel=parallel,
        telemetry=(
            telemetry
            if telemetry is not None
            else config.telemetry_settings()
        ),
        cache=config.resolved_cache_dir(),
        **optimizer_kwargs,
    )
    return ExperimentContext(
        config=config,
        network=network,
        train=train,
        test=test,
        pretrain_info=info,
        optimizer=optimizer,
    )


def _equal_scheme_optimize(optimizer: Any, objective: str, drop: float) -> Any:
    return optimizer.equal_scheme(accuracy_drop=drop)


def cell_config(
    cell: CampaignCell, base_config: "ExperimentConfig"
) -> "ExperimentConfig":
    """The cell's effective experiment configuration."""
    return cell.variant.apply(replace(base_config, model=cell.model))


def execute_cell(
    cell: CampaignCell,
    base_config: "ExperimentConfig",
    keep_going: bool = True,
    telemetry: Optional["Telemetry"] = None,
) -> CampaignRow:
    """Run one cell to a :class:`CampaignRow` under a fault boundary.

    With ``keep_going`` (the campaign default) any exception inside the
    cell — including injected chaos — is classified and recorded as a
    ``failed`` row; ``keep_going=False`` (``--strict``) restores
    fail-fast and lets the exception propagate.
    """
    from ..experiments.scheduler import SweepSpec, run_sweep

    config = cell_config(cell, base_config)
    # The campaign owns this cell's lifecycle on the event bus; the
    # nested one-cell sweep must not announce a run of its own (it
    # would double-count cells in `repro monitor`).  Engine stage
    # events still flow through the shared telemetry session.
    config = replace(config, events_dir="")
    spec = SweepSpec(
        models=(cell.model,),
        accuracy_drops=(cell.accuracy_drop,),
        objectives=(cell.objective,),
    )
    optimize_fn = (
        _equal_scheme_optimize
        if cell.variant.allocator == "equal"
        else None
    )
    report = run_sweep(
        spec,
        config,
        keep_going=keep_going,
        context_factory=lambda cfg: build_cell_context(
            cfg, cell, telemetry=telemetry
        ),
        optimize_fn=optimize_fn,
    )
    group = cell.scenario.name if cell.scenario else cell.variant.component
    common: Dict[str, Any] = {
        "cell_id": cell.cell_id,
        "kind": cell.kind,
        "group": group,
        "variant": (
            cell.scenario.name if cell.scenario else cell.variant.name
        ),
        "model": cell.model,
        "accuracy_drop": cell.accuracy_drop,
        "objective": cell.objective,
        "cache_counters": dict(report.cache_counters),
    }
    if report.cells:
        result = report.cells[0]
        return CampaignRow(
            status="ok",
            elapsed_seconds=result.elapsed_seconds,
            sigma=result.sigma,
            effective_input_bits=result.effective_input_bits,
            effective_mac_bits=result.effective_mac_bits,
            baseline_accuracy=result.baseline_accuracy,
            validated_accuracy=result.validated_accuracy,
            target_accuracy=result.target_accuracy,
            meets_constraint=result.meets_constraint,
            degraded=result.degraded,
            bitwidths=dict(result.bitwidths),
            resumed=result.restored,
            **common,
        )
    if not report.failures:
        raise ReproError(
            f"cell {cell.cell_id!r} produced neither a result nor a "
            "failure record"
        )
    failed = report.failures[0]
    return CampaignRow(
        status="failed",
        elapsed_seconds=failed.elapsed_seconds,
        failure=failed.failure,
        **common,
    )


__all__ = [
    "CampaignCell",
    "CampaignRow",
    "build_cell_context",
    "cell_config",
    "execute_cell",
]
