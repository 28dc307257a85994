"""SLSQP solves of Eq. 8: the oracle for the exact KKT solve.

These are the earlier stock solvers of :mod:`repro.optimize.eq8` and
:mod:`repro.optimize.constrained`: the same problems handed to
``scipy.optimize.minimize(method="SLSQP")`` with analytic gradients,
the way the paper hands Eq. 8 to Octave's ``sqp``.  Both start from
the equal share (the budgeted solve from the cap-optimal point) and
return the shares clipped to the floors and renormalised.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

import numpy as np
from scipy import optimize as sciopt

from repro.analysis.profiler import LayerErrorProfile
from repro.optimize import Objective
from repro.optimize.eq8 import eq8_layers, weighted_bits


def _problem(
    objective: Objective,
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> Tuple[List[str], np.ndarray, np.ndarray, np.ndarray]:
    names = [name for name in profiles if name in objective.rho]
    a, theta, floors = eq8_layers(names, profiles, sigma)
    return names, a, theta, floors


def _minimize(
    weights: np.ndarray,
    a: np.ndarray,
    theta: np.ndarray,
    floors: np.ndarray,
    start: np.ndarray,
    constraints: List[dict],
    max_iterations: int,
) -> np.ndarray:
    log2 = np.log(2.0)

    def gradient(xi: np.ndarray) -> np.ndarray:
        delta = a * np.sqrt(xi) + theta
        d_delta = a / (2.0 * np.sqrt(xi))
        return -(weights * d_delta) / (delta * log2)

    start = np.maximum(start, floors)
    result = sciopt.minimize(
        lambda xi: weighted_bits(xi, weights, a, theta),
        start / start.sum(),
        jac=gradient,
        method="SLSQP",
        bounds=[(float(f), 1.0) for f in floors],
        constraints=[
            {"type": "eq", "fun": lambda xi: xi.sum() - 1.0},
            *constraints,
        ],
        options={"maxiter": max_iterations, "ftol": 1e-12},
    )
    xi = np.clip(result.x, floors, 1.0)
    return xi / xi.sum()


def slsqp_xi(
    objective: Objective,
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> Dict[str, float]:
    """Eq. 8 by SLSQP from the equal share."""
    names, a, theta, floors = _problem(objective, profiles, sigma)
    rho = np.array([objective.rho[name] for name in names], dtype=float)
    start = np.full(len(names), 1.0 / len(names))
    xi = _minimize(rho / rho.sum(), a, theta, floors, start, [], 200)
    return {name: float(x) for name, x in zip(names, xi)}


def slsqp_xi_constrained(
    objective: Objective,
    cap: Objective,
    cap_budget: float,
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> Dict[str, float]:
    """Eq. 8 under a cap on ``cap``'s weighted bits, by SLSQP.

    Starts from the cap-optimal point, which meets any feasible budget.
    """
    names, a, theta, floors = _problem(objective, profiles, sigma)
    rho = np.array([objective.rho[name] for name in names], dtype=float)
    cap_raw = np.array([cap.rho[name] for name in names], dtype=float)
    cap_rho = cap_raw / cap_raw.sum()
    budget = cap_budget / cap_raw.sum()
    log2 = np.log(2.0)

    def cap_gradient(xi: np.ndarray) -> np.ndarray:
        delta = a * np.sqrt(xi) + theta
        d_delta = a / (2.0 * np.sqrt(xi))
        return (cap_rho * d_delta) / (delta * log2)

    start = np.array(
        [slsqp_xi(cap, profiles, sigma)[name] for name in names]
    )
    xi = _minimize(
        rho / rho.sum(),
        a,
        theta,
        floors,
        start,
        [
            {
                "type": "ineq",
                "fun": lambda xi: budget - weighted_bits(xi, cap_rho, a, theta),
                "jac": cap_gradient,
            }
        ],
        300,
    )
    return {name: float(x) for name, x in zip(names, xi)}
