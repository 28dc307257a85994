"""repro — reproduction of "Multi-objective Precision Optimization of
Deep Neural Networks for Edge Devices" (Ho, Vaddi, Wong; DATE 2019).

The package implements the paper's analytical precision-allocation
method end to end on a pure-numpy substrate:

* :mod:`repro.nn` — CNN inference engine with error-injection taps.
* :mod:`repro.models` — scaled replicas of the paper's eight networks.
* :mod:`repro.data` — synthetic ImageNet-like dataset.
* :mod:`repro.quant` — fixed-point formats and bit accounting.
* :mod:`repro.hardware` — MAC energy / bandwidth / accelerator models.
* :mod:`repro.analysis` — lambda/theta profiling and sigma search.
* :mod:`repro.engine` — the injection-campaign loop, serial or on a
  thread pool across layers.
* :mod:`repro.optimize` — multi-objective xi optimization (Eq. 8).
* :mod:`repro.baselines` — uniform / equal-scheme / search baselines.
* :mod:`repro.weights` — weight bitwidth search (Sec. V-E).
* :mod:`repro.resilience` — guardrails, transient retries, and the
  chaos-testing harness.
* :mod:`repro.check` — static analysis: graph/allocation verifier
  (shape, dtype, range, overflow, xi audits) and numerical linter.
* :mod:`repro.telemetry` — zero-dependency observability: tracing
  spans, metrics, run manifests, JSONL traces (``docs/observability.md``).
* :mod:`repro.pipeline` — the end-to-end :class:`PrecisionOptimizer`.
* :mod:`repro.experiments` — drivers for every paper table and figure.

Quickstart::

    from repro import PrecisionOptimizer
    from repro.models import pretrained_model

    network, train, test, info = pretrained_model("alexnet")
    optimizer = PrecisionOptimizer(network, test)
    result = optimizer.optimize(objective="input", accuracy_drop=0.01)
    print(result.bitwidths)
"""

from .config import (
    DEFAULT_SEED,
    FAST_PROFILE,
    FAST_SEARCH,
    ParallelSettings,
    ProfileSettings,
    SearchSettings,
    TelemetrySettings,
)
from .errors import (
    DegradedResultWarning,
    GraphError,
    ModelError,
    NumericalGuardError,
    OptimizationError,
    ProfilingError,
    QuantizationError,
    ReproError,
    ResumeError,
    RetryExhaustedError,
    SearchError,
    ShapeError,
    TransientError,
)
from .pipeline import OptimizationOutcome, PrecisionOptimizer
from .telemetry import Telemetry

__version__ = "1.0.0"

__all__ = [
    "DEFAULT_SEED",
    "DegradedResultWarning",
    "FAST_PROFILE",
    "FAST_SEARCH",
    "GraphError",
    "ModelError",
    "NumericalGuardError",
    "OptimizationError",
    "OptimizationOutcome",
    "ParallelSettings",
    "PrecisionOptimizer",
    "ProfileSettings",
    "ProfilingError",
    "QuantizationError",
    "ReproError",
    "ResumeError",
    "RetryExhaustedError",
    "SearchError",
    "SearchSettings",
    "ShapeError",
    "Telemetry",
    "TelemetrySettings",
    "TransientError",
    "__version__",
]
