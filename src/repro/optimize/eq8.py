"""Exact solve of the error-share problem (paper Eq. 8).

The paper solves::

    min  F = sum_K rho_K * (-log2(Delta_XK))
    s.t. sum_K xi_K = 1
    with Delta_XK = lambda_K * sigma_YL * sqrt(xi_K) + theta_K

with Octave's generic ``sqp``.  The problem is separable with one
linear constraint, and convex wherever every ``Delta_XK > 0`` (the log
of a positive concave function is concave), so its KKT conditions pin
the optimum down exactly.  Write ``a_K = lambda_K * sigma``, let ``rho``
be normalised to sum 1, and set ``t = 1 / (2 mu ln 2)`` for the
multiplier ``mu`` of the sum constraint.  Stationarity then says
``s_K = sqrt(xi_K)`` is the positive root of::

    a_K s^2 + theta_K s - rho_K a_K t = 0

and the layer's share is ``xi_K(t) = max(floor_K, s_K(t)^2)``, where the
per-layer feasibility floor keeps ``Delta_XK`` positive.  ``sum_K
xi_K(t)`` is nondecreasing in ``t``, so bisection on ``t`` meets the
unit budget to the last bit.  ``docs/method.md`` has the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

import numpy as np

from ..analysis.profiler import LayerErrorProfile
from ..errors import OptimizationError
from .objective import Objective

#: Global floor on any xi entry (shares cannot vanish entirely).
XI_FLOOR = 1e-6

#: Delta must clear this multiple of |theta| above zero at the floor.
_DELTA_MARGIN = 1e-9


@dataclass
class XiSolution:
    """Result of the Eq. 8 optimization."""

    xi: Dict[str, float]
    objective_value: float

    def as_array(self, names: List[str]) -> np.ndarray:
        return np.array([self.xi[name] for name in names])


def _feasibility_floor(
    lam: float, theta: float, sigma: float, name: str = "<unnamed>"
) -> float:
    """Smallest xi keeping ``lam*sigma*sqrt(xi) + theta`` positive.

    The raised :class:`OptimizationError` always names the offending
    layer — in a multi-layer failure the layer identity is the only
    debuggable signal.
    """
    if not (np.isfinite(lam) and np.isfinite(theta)):
        raise OptimizationError(
            f"layer {name!r} has non-finite profile "
            f"(lambda={lam!r}, theta={theta!r}); the regression fit is "
            "numerically broken"
        )
    if lam <= 0:
        raise OptimizationError(
            f"layer {name!r} has non-positive lambda {lam:.4g}; "
            "xi optimization requires a positive error slope"
        )
    if sigma <= 0:
        raise OptimizationError(
            f"xi optimization requires positive sigma, got {sigma!r} "
            f"(while flooring layer {name!r})"
        )
    if theta >= 0:
        return XI_FLOOR
    needed = ((-theta + _DELTA_MARGIN) / (lam * sigma)) ** 2
    return max(XI_FLOOR, float(needed))


def eq8_layers(
    names: List[str],
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(a, theta, floors)`` of Eq. 8 for ``names``, in that order.

    ``a_K = lambda_K * sigma``; raises :class:`OptimizationError` when a
    fit is unusable or the floors alone exceed the unit budget.
    """
    floors = np.array(
        [
            _feasibility_floor(
                profiles[name].lam, profiles[name].theta, sigma, name=name
            )
            for name in names
        ]
    )
    if floors.sum() >= 1.0:
        worst = sorted(zip(floors, names), reverse=True)[:3]
        offenders = ", ".join(f"{n}={f:.3g}" for f, n in worst)
        raise OptimizationError(
            "infeasible: per-layer floors exceed the unit budget "
            f"(largest: {offenders}); the profiling fit may be "
            "degenerate (large negative theta)"
        )
    lam = np.array([profiles[name].lam for name in names])
    theta = np.array([profiles[name].theta for name in names])
    return lam * sigma, theta, floors


def weighted_bits(
    xi: np.ndarray, weights: np.ndarray, a: np.ndarray, theta: np.ndarray
) -> float:
    """``sum_K weights_K * -log2(Delta_XK)`` at the shares ``xi``."""
    return float(-(weights * np.log2(a * np.sqrt(xi) + theta)).sum())


def solve_shares(
    weights: np.ndarray, a: np.ndarray, theta: np.ndarray, floors: np.ndarray
) -> np.ndarray:
    """The xi minimizing ``weighted_bits`` on the floored unit simplex.

    ``weights`` are non-negative with a positive sum; ``floors`` come
    from :func:`eq8_layers`.  Each root is taken in the form that avoids
    cancellation for the sign of its ``theta``.
    """
    rho_a = weights / weights.sum() * a
    positive = theta >= 0

    def shares(t: float) -> np.ndarray:
        root = np.sqrt(theta * theta + 4.0 * rho_a * a * t)
        denominator = np.where(positive, theta + root, 2.0 * a)
        numerator = np.where(positive, 2.0 * rho_a * t, root - theta)
        # theta = rho = 0 makes 0/0; that layer's root is s = 0.
        s = np.divide(
            numerator,
            denominator,
            out=np.zeros_like(numerator),
            where=denominator > 0,
        )
        return np.maximum(floors, s * s)

    # Bracket the budget between t and 2t, then halve the bracket until
    # its midpoint is one of its ends.
    hi = 1.0
    while shares(hi).sum() < 1.0:
        hi *= 2.0
    lo = 0.5 * hi
    while shares(lo).sum() >= 1.0:
        hi, lo = lo, 0.5 * lo
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if shares(mid).sum() < 1.0:
            lo = mid
        else:
            hi = mid
    xi = shares(hi)
    return xi / xi.sum()


def optimize_xi(
    objective: Objective,
    profiles: Mapping[str, LayerErrorProfile],
    sigma: float,
) -> XiSolution:
    """Solve Eq. 8 for the error-share vector xi.

    Layers with larger rho get larger xi (hence larger Delta, fewer
    bits) while the rest carry the error they give up: the optimizer
    trades precision between layers exactly as Table II shows for
    AlexNet.
    """
    names = [name for name in profiles if name in objective.rho]
    if set(names) != set(objective.rho):
        missing = set(objective.rho) - set(names)
        raise OptimizationError(
            f"objective references unprofiled layers: {sorted(missing)}"
        )
    a, theta, floors = eq8_layers(names, profiles, sigma)
    rho = np.array([objective.rho[name] for name in names], dtype=float)
    xi = solve_shares(rho, a, theta, floors)
    return XiSolution(
        xi={name: float(x) for name, x in zip(names, xi)},
        objective_value=weighted_bits(xi, rho / rho.sum(), a, theta),
    )


def equal_xi(names: List[str]) -> Dict[str, float]:
    """The equal scheme: ``xi_K = 1/L`` (paper's baseline Scheme 1)."""
    if not names:
        raise OptimizationError("equal_xi needs at least one layer")
    share = 1.0 / len(names)
    return {name: share for name in names}
