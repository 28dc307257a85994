"""Robustness instrumentation: ablation matrices, scenarios, fault taxonomy.

The package turns the pipeline's robustness story into measurements:

* :mod:`~repro.robustness.faults` — exception classification
  (error class, pipeline stage, stable traceback digest) used by the
  cell executor's fault boundary,
* :mod:`~repro.robustness.matrix` — the ablation run matrix (baseline
  + one variant per toggled component),
* :mod:`~repro.robustness.scenarios` — substrate perturbations
  (input shift, weight noise, odd topologies, extreme drop targets),
* :mod:`~repro.robustness.report` — measured component importance and
  scenario verdicts, scored from the executor's rows.

None of these modules import :mod:`repro.experiments` at import time
(the cell executor imports :mod:`~repro.robustness.faults`, so a
module-level import back would be circular); the campaign driver and
its context factory live in :mod:`repro.experiments.ablate`.
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
    "FailureRecord",
    "ImportanceEntry",
    "MatrixVariant",
    "Scenario",
    "ScenarioEntry",
    "baseline_variant",
    "build_matrix",
    "build_report",
    "build_scenario_network",
    "classify_failure",
    "perturb_dataset",
    "perturb_network_weights",
    "resolve_scenario",
]
