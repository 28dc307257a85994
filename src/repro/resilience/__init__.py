"""Resilience layer: guardrails, retries, chaos.

The paper's pipeline is a chain of numerically fragile stages; this
package makes failure a first-class path instead of a crash:

* :mod:`~repro.resilience.guards` — NaN/Inf and degenerate-value
  detection with structured :class:`Diagnostic` records.
* :mod:`~repro.resilience.fallback` — bounded retries of transient
  evaluator failures.
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
    "crash_after_layers": "chaos",
    "flaky": "chaos",
    "call_with_retries": "fallback",
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
        crash_after_layers,
        flaky,
    )
    from .fallback import call_with_retries  # noqa: F401
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
