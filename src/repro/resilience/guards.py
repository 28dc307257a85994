"""Numerical guardrails: catch NaN/Inf and degenerate values early.

The pipeline's stages (profiling regressions, sigma brackets, Eq. 8)
each assume well-behaved inputs; when that assumption breaks, the
failure mode without guardrails is silent garbage propagating several
stages downstream.  Every guard here produces structured
:class:`Diagnostic` records naming the stage, layer, and offending
value, and :func:`enforce` turns them into either a
:class:`~repro.errors.NumericalGuardError` (strict mode) or a
:class:`~repro.errors.DegradedResultWarning` (permissive mode).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..errors import DegradedResultWarning, NumericalGuardError

#: R-squared below this means the lambda/theta regression explains
#: essentially none of the variance — Eq. 5 does not hold for the layer.
R_SQUARED_FLOOR = 0.5


@dataclass(frozen=True)
class Diagnostic:
    """One structured guardrail finding."""

    stage: str  #: pipeline stage ("profiling", "regression", "sigma_search", "optimize")
    code: str  #: machine-readable kind ("non_finite", "non_positive_lambda", ...)
    message: str  #: human-readable description with the offending values
    layer: Optional[str] = None
    value: Optional[float] = None

    def __str__(self) -> str:
        where = f" [{self.layer}]" if self.layer else ""
        return f"{self.stage}{where}: {self.message}"


def check_finite_array(
    array: np.ndarray, stage: str, layer: Optional[str] = None
) -> List[Diagnostic]:
    """Diagnostics for NaN/Inf entries in an activation or measurement."""
    array = np.asarray(array)
    bad = ~np.isfinite(array)
    if not bad.any():
        return []
    num_nan = int(np.isnan(array).sum())
    num_inf = int(np.isinf(array).sum())
    return [
        Diagnostic(
            stage=stage,
            code="non_finite",
            message=(
                f"{num_nan} NaN and {num_inf} Inf values out of "
                f"{array.size} entries"
            ),
            layer=layer,
        )
    ]


def check_finite_scalar(
    value: float, stage: str, what: str, layer: Optional[str] = None
) -> List[Diagnostic]:
    """Diagnostics for a single non-finite scalar (accuracy, sigma, ...)."""
    if np.isfinite(value):
        return []
    return [
        Diagnostic(
            stage=stage,
            code="non_finite",
            message=f"{what} is {value!r}",
            layer=layer,
            value=float(value) if not np.isnan(value) else None,
        )
    ]


def check_profile_fit(
    name: str,
    lam: float,
    theta: float,
    r_squared: float,
    r_squared_floor: float = R_SQUARED_FLOOR,
) -> List[Diagnostic]:
    """Diagnostics for a degenerate lambda/theta regression.

    A non-positive lambda inverts Eq. 5 (more noise would *reduce* the
    output error); a near-zero R-squared means the linear model never
    held; either makes the downstream feasibility floors meaningless.
    """
    issues: List[Diagnostic] = []
    for what, value in (("lambda", lam), ("theta", theta), ("R^2", r_squared)):
        issues.extend(
            check_finite_scalar(value, "regression", what, layer=name)
        )
    if issues:
        return issues
    if lam <= 0:
        issues.append(
            Diagnostic(
                stage="regression",
                code="non_positive_lambda",
                message=f"fitted lambda {lam:.4g} is not positive",
                layer=name,
                value=float(lam),
            )
        )
    if r_squared < r_squared_floor:
        issues.append(
            Diagnostic(
                stage="regression",
                code="low_r_squared",
                message=(
                    f"R^2 {r_squared:.4g} below floor {r_squared_floor}; "
                    "the linear error model does not hold for this layer"
                ),
                layer=name,
                value=float(r_squared),
            )
        )
    return issues


def check_sigma_bracket(
    lower: float, upper: float, num_evaluations: int
) -> List[Diagnostic]:
    """Diagnostics for an unusable sigma-search bracket."""
    issues: List[Diagnostic] = []
    issues.extend(
        check_finite_scalar(lower, "sigma_search", "bracket lower bound")
    )
    issues.extend(
        check_finite_scalar(upper, "sigma_search", "bracket upper bound")
    )
    if issues:
        return issues
    if upper <= lower:
        issues.append(
            Diagnostic(
                stage="sigma_search",
                code="inverted_bracket",
                message=(
                    f"bracket [{lower:.4g}, {upper:.4g}] is empty after "
                    f"{num_evaluations} accuracy evaluations"
                ),
                value=float(upper - lower),
            )
        )
    return issues


def enforce(
    diagnostics: Sequence[Diagnostic],
    strict: bool,
    context: str = "pipeline guardrail",
) -> List[Diagnostic]:
    """Raise (strict) or warn (permissive) when diagnostics exist.

    Returns the diagnostics either way so callers can attach them to
    reports.  Non-finite findings always raise — there is no meaningful
    permissive interpretation of NaN activations.
    """
    diagnostics = list(diagnostics)
    if not diagnostics:
        return diagnostics
    fatal = strict or any(d.code == "non_finite" for d in diagnostics)
    summary = "; ".join(str(d) for d in diagnostics)
    if fatal:
        raise NumericalGuardError(
            f"{context}: {summary}", diagnostics=diagnostics
        )
    warnings.warn(
        f"{context}: {summary}", DegradedResultWarning, stacklevel=2
    )
    return diagnostics
