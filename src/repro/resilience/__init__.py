"""Resilience layer: guardrails, fallback chains, chaos.

The paper's pipeline is a chain of numerically fragile stages; this
package makes failure a first-class path instead of a crash:

* :mod:`~repro.resilience.guards` — NaN/Inf and degenerate-value
  detection with structured :class:`Diagnostic` records.
* :mod:`~repro.resilience.fallback` — multi-start retry for the Eq. 8
  solver and graceful degradation to the equal-xi scheme.
* :mod:`~repro.resilience.chaos` — seeded fault injection harness used
  by ``tests/resilience/`` to prove every degradation path.

Exports resolve lazily (PEP 562): the analysis/optimize modules import
``resilience.guards`` from deep inside the pipeline, and eager package
imports here would close an import cycle back onto them.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

_EXPORTS = {
    "ChaosNetwork": "chaos",
    "FaultSchedule": "chaos",
    "SimulatedCrash": "chaos",
    "broken_solver": "chaos",
    "crash_after_layers": "chaos",
    "flaky": "chaos",
    "DEFAULT_XI_RETRIES": "fallback",
    "FallbackReport": "fallback",
    "call_with_retries": "fallback",
    "solve_xi_with_fallback": "fallback",
    "Diagnostic": "guards",
    "R_SQUARED_FLOOR": "guards",
    "check_finite_array": "guards",
    "check_finite_scalar": "guards",
    "check_profile_fit": "guards",
    "check_sigma_bracket": "guards",
    "enforce": "guards",
}

__all__ = sorted(_EXPORTS)

if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from .chaos import (  # noqa: F401
        ChaosNetwork,
        FaultSchedule,
        SimulatedCrash,
        broken_solver,
        crash_after_layers,
        flaky,
    )
    from .fallback import (  # noqa: F401
        DEFAULT_XI_RETRIES,
        FallbackReport,
        call_with_retries,
        solve_xi_with_fallback,
    )
    from .guards import (  # noqa: F401
        R_SQUARED_FLOOR,
        Diagnostic,
        check_finite_array,
        check_finite_scalar,
        check_profile_fit,
        check_sigma_bracket,
        enforce,
    )


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
