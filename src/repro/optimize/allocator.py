"""From a sigma budget and an objective to concrete bitwidths.

The last mile of the paper's pipeline (Sec. V-D): solve Eq. 8 for xi,
evaluate Eq. 7 for each layer's ``Delta_XK``, convert to fraction bits,
combine with measured integer bits, and package as a
:class:`~repro.quant.BitwidthAllocation`.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from ..analysis.profiler import LayerErrorProfile
from ..analysis.sigma_search import deltas_for_sigma
from ..errors import DegradedResultWarning, OptimizationError
from ..nn.statistics import LayerStats
from ..quant.allocation import BitwidthAllocation
from ..telemetry.session import Telemetry
from .eq8 import XiSolution, equal_xi, optimize_xi
from .objective import Objective, resolve_objective


@dataclass
class AllocationResult:
    """An optimized allocation with its provenance."""

    allocation: BitwidthAllocation
    xi: Dict[str, float]
    deltas: Dict[str, float]
    sigma: float
    objective: Objective
    solution: Optional[XiSolution] = None
    #: True when the profiles admit no Eq. 8 solution and the xi fell
    #: back to the equal scheme.
    degraded: bool = False

    def bitwidths(self) -> Dict[str, int]:
        return self.allocation.bitwidths()

    def effective_bitwidth(self, rho: Mapping[str, float]) -> float:
        return self.allocation.effective_bitwidth(rho)


def allocate_optimized(
    objective,
    profiles: Mapping[str, LayerErrorProfile],
    stats: Mapping[str, LayerStats],
    sigma: float,
    ordered_names: Optional[List[str]] = None,
    strict: bool = False,
    telemetry: Optional[Telemetry] = None,
) -> AllocationResult:
    """Optimize xi for an objective and emit the bitwidth allocation.

    When the profiles admit no Eq. 8 solution (a non-positive lambda
    the permissive guardrails let through, or floors past the unit
    budget), the allocation falls back to the equal scheme with a
    :class:`~repro.errors.DegradedResultWarning` and ``degraded=True``;
    ``strict=True`` re-raises the :class:`~repro.errors.OptimizationError`
    instead.
    """
    session = Telemetry.create(telemetry)
    names = list(ordered_names or profiles)
    objective = resolve_objective(objective, stats)
    solution: Optional[XiSolution] = None
    with session.tracer.span(
        "allocator.allocate", objective=objective.name, sigma=float(sigma)
    ):
        with session.tracer.span(
            "solver.solve", objective=objective.name, sigma=float(sigma)
        ) as solve_span:
            try:
                solution = optimize_xi(objective, profiles, sigma)
            except OptimizationError as exc:
                if strict:
                    raise
                session.metrics.counter("repro_solver_fallbacks_total").inc()
                warnings.warn(
                    f"xi optimization degraded to equal-xi for objective "
                    f"{objective.name!r}: {exc}",
                    DegradedResultWarning,
                    stacklevel=2,
                )
            solve_span.set(degraded=solution is None)
        xi = equal_xi(names) if solution is None else solution.xi
        deltas = deltas_for_sigma(profiles, sigma, xi=xi)
        allocation = BitwidthAllocation.from_deltas(
            [stats[name] for name in names], deltas
        )
    return AllocationResult(
        allocation=allocation,
        xi=xi,
        deltas=deltas,
        sigma=sigma,
        objective=objective,
        solution=solution,
        degraded=solution is None,
    )


def allocate_equal_scheme(
    profiles: Mapping[str, LayerErrorProfile],
    stats: Mapping[str, LayerStats],
    sigma: float,
    ordered_names: Optional[List[str]] = None,
) -> AllocationResult:
    """The paper's equal scheme (xi_K = 1/L) as an allocation."""
    names = list(ordered_names or profiles)
    xi = equal_xi(names)
    deltas = deltas_for_sigma(profiles, sigma, xi=xi)
    allocation = BitwidthAllocation.from_deltas(
        [stats[name] for name in names], deltas
    )
    return AllocationResult(
        allocation=allocation,
        xi=xi,
        deltas=deltas,
        sigma=sigma,
        objective=Objective("equal", {name: 1.0 for name in names}),
        solution=None,
    )
