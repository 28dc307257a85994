"""Exception hierarchy for the repro package.

All errors raised intentionally by this library derive from
:class:`ReproError` so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A network graph is malformed (unknown input, duplicate name, cycle)."""


class ShapeError(ReproError):
    """Tensor shapes are inconsistent with a layer's expectations."""


class QuantizationError(ReproError):
    """A fixed-point format or bitwidth request is invalid."""


class ProfilingError(ReproError):
    """Error-injection profiling could not produce a usable regression."""


class SearchError(ReproError):
    """The sigma binary search could not bracket or converge."""


class OptimizationError(ReproError):
    """The constrained xi optimization failed to produce a feasible result."""


class ModelError(ReproError):
    """A model could not be constructed or pretrained."""


class NumericalGuardError(ReproError):
    """A resilience guardrail caught NaN/Inf or degenerate values.

    Carries the structured :class:`~repro.resilience.Diagnostic` records
    that triggered it, so callers can log or report exactly which stage
    and layer went numerically bad instead of receiving silent garbage.
    """

    def __init__(self, message: str, diagnostics=()):
        super().__init__(message)
        self.diagnostics = list(diagnostics)


class TransientError(ReproError):
    """A stage failed in a way expected to succeed on retry.

    Raised by flaky evaluators (and by the chaos harness when simulating
    them); the resilience layer retries these a bounded number of times
    before giving up.
    """


class RetryExhaustedError(OptimizationError):
    """Every attempt of a bounded retry loop failed.

    ``attempts`` records the per-attempt failure messages in order, so
    the exhaustion report shows every attempt, not just the last
    error.
    """

    def __init__(self, message: str, attempts=()):
        super().__init__(message)
        self.attempts = list(attempts)


class ResumeError(ReproError):
    """Persisted run state is missing, corrupt, or incompatible."""


class DegradedResultWarning(UserWarning):
    """A result came from a degraded fallback path, not the primary solver.

    Not a :class:`ReproError`: the pipeline *succeeded*, but via a safe
    fallback (e.g. the equal-xi scheme when the profiles admit no Eq. 8
    solution), and the result is correspondingly conservative.
    """
