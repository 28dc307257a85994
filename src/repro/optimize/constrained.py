"""Constrained bitwidth optimization: minimize one cost under a cap on
another.

The paper closes with "designers can formulate different optimization
criteria using our framework"; the most common real formulation is not
a weighted blend but a *budgeted* trade: minimize MAC energy subject to
the memory interface's bandwidth ceiling (or vice versa)::

    min  sum_K rho_K   * (-log2 Delta_K(xi))            (objective)
    s.t. sum_K cap_K   * (-log2 Delta_K(xi)) <= budget  (cap)
         sum_K xi_K = 1,  xi_K >= floor_K

Both sums are convex in xi, so a multiplier ``nu >= 0`` on the cap turns
this into the plain Eq. 8 problem with weights ``rho + nu * cap`` (both
normalised), which :func:`~repro.optimize.eq8.solve_shares` solves
exactly.  Scaling the weights does not move the solution, so the solve
runs on ``(1 - alpha) * rho + alpha * cap`` with ``alpha = nu / (1 +
nu)`` in ``[0, 1]``; ``alpha = 1`` is the cap-optimal point.  The cap
cost of the solution falls as ``alpha`` grows: when ``alpha = 0``
already meets the budget the cap does not bind, otherwise a bisection
finds the ``alpha`` where the cap cost meets the budget.

Budgets are stated in the cap objective's *weighted bits* (same units
as ``BitwidthAllocation.weighted_bits``), continuous before the ceil()
discretization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np

from ..analysis.profiler import LayerErrorProfile
from ..errors import OptimizationError
from .eq8 import eq8_layers, solve_shares, weighted_bits
from .objective import Objective


@dataclass
class ConstrainedSolution:
    """Result of the budgeted optimization."""

    xi: Dict[str, float]
    objective_value: float
    cap_value: float
    cap_budget: float

    @property
    def cap_satisfied(self) -> bool:
        # Additive tolerance: weighted bits may legitimately be negative
        # (a layer with Delta > 1 contributes -log2(Delta) < 0), so a
        # multiplicative margin would flip direction.
        tolerance = 1e-6 * max(1.0, abs(self.cap_budget))
        return self.cap_value <= self.cap_budget + tolerance


def optimize_xi_constrained(
    objective: Objective,
    cap: Objective,
    cap_budget: float,
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> ConstrainedSolution:
    """Minimize ``objective`` subject to ``cap``'s weighted bits <= budget.

    Raises :class:`OptimizationError` when the budget is infeasible
    (tighter than the cap-optimal solution can reach).
    """
    names = [name for name in profiles if name in objective.rho]
    if set(names) != set(objective.rho) or set(names) != set(cap.rho):
        raise OptimizationError(
            "objective, cap, and profiles must cover the same layers"
        )
    # Work on normalised weights; the reported values are rescaled back
    # to the caller's units.
    rho_raw = np.array([objective.rho[name] for name in names], dtype=float)
    cap_raw = np.array([cap.rho[name] for name in names], dtype=float)
    rho_scale = float(rho_raw.sum())
    cap_scale = float(cap_raw.sum())
    rho = rho_raw / rho_scale
    cap_rho = cap_raw / cap_scale
    cap_budget_scaled = cap_budget / cap_scale
    a, theta, floors = eq8_layers(names, profiles, sigma)

    def cap_bits(xi: np.ndarray) -> float:
        return weighted_bits(xi, cap_rho, a, theta)

    # Feasibility check: the cap-optimal point is the best achievable
    # cap value; if even that exceeds the budget, no xi satisfies it.
    best_cap = cap_bits(solve_shares(cap_rho, a, theta, floors))
    if best_cap > cap_budget_scaled:
        raise OptimizationError(
            f"cap budget {cap_budget:.4g} is infeasible; the best "
            f"achievable {cap.name} cost at this sigma is "
            f"{best_cap * cap_scale:.4g}"
        )

    def shares(alpha: float) -> np.ndarray:
        weights = (1.0 - alpha) * rho + alpha * cap_rho
        return solve_shares(weights, a, theta, floors)

    xi = shares(0.0)
    if cap_bits(xi) > cap_budget_scaled:
        # The cap binds.  alpha = 1 is the cap-optimal point, which
        # meets the budget; halve alpha until it does not, then bisect
        # until the midpoint is one of the ends.  ``hi`` always meets
        # the budget.
        hi, lo = 1.0, 0.5
        while cap_bits(shares(lo)) <= cap_budget_scaled:
            hi, lo = lo, 0.5 * lo
        while True:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break
            if cap_bits(shares(mid)) > cap_budget_scaled:
                lo = mid
            else:
                hi = mid
        xi = shares(hi)
    return ConstrainedSolution(
        xi={name: float(x) for name, x in zip(names, xi)},
        objective_value=weighted_bits(xi, rho, a, theta) * rho_scale,
        cap_value=cap_bits(xi) * cap_scale,
        cap_budget=cap_budget,
    )
