"""Objective definitions for bitwidth optimization (paper Sec. V-D).

An objective is a vector of per-layer importance coefficients
``rho_K``: "the coefficient that gives the relative importance of each
layer K in the objective".  The paper demonstrates two:

* ``#Input`` — input elements per layer: minimizing total activation
  read bandwidth.
* ``#MAC`` — MAC operations per layer: minimizing total MAC input bits,
  hence MAC energy.

Any positive weighting defines a valid objective ("designers can
formulate different optimization criteria using our framework").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Sequence

from ..errors import OptimizationError
from ..nn.statistics import LayerStats


@dataclass(frozen=True)
class Objective:
    """A named per-layer weighting ``rho``."""

    name: str
    rho: Dict[str, float]

    def __post_init__(self) -> None:
        if not self.rho:
            raise OptimizationError("objective needs at least one layer")
        if any(weight < 0 for weight in self.rho.values()):
            raise OptimizationError("objective weights must be non-negative")
        if all(weight == 0 for weight in self.rho.values()):
            raise OptimizationError("objective weights cannot all be zero")

    @property
    def total_weight(self) -> float:
        return float(sum(self.rho.values()))

    def normalized(self) -> "Objective":
        """Weights scaled to sum to 1 (invariant for the optimizer)."""
        total = self.total_weight
        return Objective(
            self.name, {k: v / total for k, v in self.rho.items()}
        )


def input_bandwidth_objective(stats: Mapping[str, LayerStats]) -> Objective:
    """rho_K = #Input_K — Table II's ``Opt_for_#Input``."""
    return Objective(
        "input", {name: float(s.num_inputs) for name, s in stats.items()}
    )


def mac_energy_objective(stats: Mapping[str, LayerStats]) -> Objective:
    """rho_K = #MAC_K — Table II's ``Opt_for_#MAC``."""
    return Objective(
        "mac", {name: float(s.num_macs) for name, s in stats.items()}
    )


def equal_objective(names: Sequence[str]) -> Objective:
    """The equal scheme's label: unit weights, since it solves no Eq. 8."""
    return Objective("equal", {name: 1.0 for name in names})


def blended_objective(
    first: Objective, second: Objective, alpha: float
) -> Objective:
    """Convex blend ``alpha * first + (1-alpha) * second`` (both normalized).

    Sweeping ``alpha`` traces the bandwidth/energy trade-off frontier.
    """
    if not 0.0 <= alpha <= 1.0:
        raise OptimizationError(f"alpha must be in [0, 1]; got {alpha}")
    a = first.normalized()
    b = second.normalized()
    if set(a.rho) != set(b.rho):
        raise OptimizationError("blended objectives must cover the same layers")
    rho = {
        name: alpha * a.rho[name] + (1.0 - alpha) * b.rho[name]
        for name in a.rho
    }
    return Objective(f"blend({first.name},{second.name},{alpha:.2f})", rho)


def resolve_objective(
    objective, stats: Mapping[str, LayerStats]
) -> Objective:
    """Accept an Objective, the names "input"/"mac", or a rho mapping."""
    if isinstance(objective, Objective):
        return objective
    if objective == "input":
        return input_bandwidth_objective(stats)
    if objective == "mac":
        return mac_energy_objective(stats)
    if isinstance(objective, Mapping):
        return Objective("custom", dict(objective))
    raise OptimizationError(
        f"cannot interpret objective {objective!r}; pass an Objective, "
        '"input", "mac", or a mapping of layer -> weight'
    )
