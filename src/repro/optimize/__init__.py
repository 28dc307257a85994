"""Multi-objective bitwidth optimization (paper Sec. V-D, Eq. 8)."""

from .allocator import (
    AllocationResult,
    allocate_equal_scheme,
    allocate_optimized,
)
from .constrained import ConstrainedSolution, optimize_xi_constrained
from .multi import FrontierPoint, objective_cost, tradeoff_frontier
from .objective import (
    Objective,
    blended_objective,
    input_bandwidth_objective,
    mac_energy_objective,
    resolve_objective,
)
from .eq8 import XiSolution, equal_xi, optimize_xi

__all__ = [
    "AllocationResult",
    "ConstrainedSolution",
    "FrontierPoint",
    "Objective",
    "XiSolution",
    "allocate_equal_scheme",
    "allocate_optimized",
    "blended_objective",
    "equal_xi",
    "input_bandwidth_objective",
    "mac_energy_objective",
    "objective_cost",
    "optimize_xi",
    "optimize_xi_constrained",
    "resolve_objective",
    "tradeoff_frontier",
]
