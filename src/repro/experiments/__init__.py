"""Experiment drivers: one module per paper table/figure plus ablations.

Benchmarks (``benchmarks/``) and examples (``examples/``) call these
drivers; keeping them in the library makes every result reproducible
from the public API.
"""

from .ablations import (
    AdditivityResult,
    ChannelwiseResult,
    ClippingResult,
    NegativeFractionResult,
    SchemeAgreementResult,
    StabilityResult,
    XiAblationResult,
    run_additivity_check,
    run_budget_audit,
    run_channelwise_ablation,
    run_clipping_ablation,
    run_negative_fraction_ablation,
    run_profile_stability,
    run_scheme_agreement,
    run_xi_ablation,
)
from .common import (
    ExperimentConfig,
    ExperimentContext,
    clear_context_cache,
    make_context,
)
from .cost import CostComparison, run_cost_comparison
from .distributed import (
    DistributedSettings,
    SweepPlan,
    WorkerReport,
    collect_report,
    load_plan,
    plan_fingerprint,
    publish_plan,
    run_sweep_distributed,
    run_worker,
)
from .export import export_csv, export_json, load_json
from .scheduler import (
    Cell,
    CellExecutor,
    CellRow,
    SweepReport,
    SweepSpec,
    run_drop_sweep,
    run_sweep,
)
from .ablate import (
    AblationSpec,
    build_campaign_cells,
    run_ablation_campaign,
)
from .fig1 import ErrorShape, Fig1Result, run_fig1
from .suite import SUITE_EXPERIMENTS, run_suite
from .fig2 import Fig2Result, LinearitySeries, run_fig2
from .fig3 import Fig3Point, Fig3Result, run_fig3
from .fig4 import Fig4Result, run_fig4
from .table2 import Table2Result, run_table2
from .table3 import Table3Row, average_savings, run_table3, run_table3_row

__all__ = [
    "AblationSpec",
    "AdditivityResult",
    "Cell",
    "CellExecutor",
    "CellRow",
    "ChannelwiseResult",
    "ClippingResult",
    "CostComparison",
    "DistributedSettings",
    "ErrorShape",
    "ExperimentConfig",
    "ExperimentContext",
    "Fig1Result",
    "Fig2Result",
    "Fig3Point",
    "Fig3Result",
    "Fig4Result",
    "LinearitySeries",
    "NegativeFractionResult",
    "SUITE_EXPERIMENTS",
    "SchemeAgreementResult",
    "StabilityResult",
    "SweepPlan",
    "SweepReport",
    "SweepSpec",
    "Table2Result",
    "Table3Row",
    "WorkerReport",
    "XiAblationResult",
    "average_savings",
    "build_campaign_cells",
    "clear_context_cache",
    "collect_report",
    "export_csv",
    "export_json",
    "load_json",
    "load_plan",
    "make_context",
    "plan_fingerprint",
    "publish_plan",
    "run_ablation_campaign",
    "run_additivity_check",
    "run_budget_audit",
    "run_channelwise_ablation",
    "run_clipping_ablation",
    "run_cost_comparison",
    "run_drop_sweep",
    "run_fig1",
    "run_fig2",
    "run_fig3",
    "run_fig4",
    "run_negative_fraction_ablation",
    "run_profile_stability",
    "run_scheme_agreement",
    "run_suite",
    "run_sweep",
    "run_sweep_distributed",
    "run_table2",
    "run_table3",
    "run_table3_row",
    "run_worker",
    "run_xi_ablation",
]
