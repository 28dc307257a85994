"""Robustness instrumentation: ablation matrices, scenarios, fault taxonomy.

The package turns the pipeline's robustness story into measurements:

* :mod:`~repro.robustness.faults` — exception classification
  (error class, pipeline stage, stable traceback digest) used by the
  sweep scheduler's ``keep_going`` boundary and the campaign runner,
* :mod:`~repro.robustness.matrix` — the ablation run matrix (baseline
  + one variant per toggled component),
* :mod:`~repro.robustness.scenarios` — substrate perturbations
  (input shift, weight noise, odd topologies, extreme drop targets),
* :mod:`~repro.robustness.runner` — fault-isolated execution of one
  campaign cell,
* :mod:`~repro.robustness.report` — measured component importance and
  scenario verdicts.

None of these modules import :mod:`repro.experiments` at import time
(the sweep scheduler imports :mod:`~repro.robustness.faults`, so a
module-level import back would be circular); the campaign driver lives
in :mod:`repro.experiments.ablate`.
"""

from .faults import FailureRecord, classify_failure
from .matrix import (
    COMPONENT_BUILDERS,
    DEFAULT_COMPONENTS,
    MatrixVariant,
    baseline_variant,
    build_matrix,
)
from .report import (
    AblationReport,
    ImportanceEntry,
    ScenarioEntry,
    build_report,
)
from .runner import (
    CampaignCell,
    CampaignRow,
    build_cell_context,
    cell_config,
    execute_cell,
)
from .scenarios import (
    DEFAULT_SCENARIOS,
    SCENARIOS,
    Scenario,
    build_scenario_network,
    perturb_dataset,
    perturb_network_weights,
    resolve_scenario,
)

__all__ = [
    "COMPONENT_BUILDERS",
    "DEFAULT_COMPONENTS",
    "DEFAULT_SCENARIOS",
    "SCENARIOS",
    "AblationReport",
    "CampaignCell",
    "CampaignRow",
    "FailureRecord",
    "ImportanceEntry",
    "MatrixVariant",
    "Scenario",
    "ScenarioEntry",
    "baseline_variant",
    "build_cell_context",
    "build_matrix",
    "build_report",
    "build_scenario_network",
    "cell_config",
    "classify_failure",
    "execute_cell",
    "perturb_dataset",
    "perturb_network_weights",
    "resolve_scenario",
]
