"""Ablation run-matrix generation: baseline + one variant per component.

The pipeline's load-bearing components (xi optimization, persistent
cache, accuracy-test scheme, execution backend) each get one matrix
variant that toggles *only that component* relative to the baseline
configuration.
Running the matrix and differencing each variant against the baseline
turns "this component matters" from an assertion into a measurement
(accuracy delta, cost-bits delta, wall-clock delta) — see
:mod:`repro.robustness.report`.

This module never imports :mod:`repro.experiments` at runtime (the
sweep scheduler imports :mod:`repro.robustness.faults`, so a runtime
import here would be circular); variants describe configurations as
override mappings applied via :func:`dataclasses.replace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..experiments.common import ExperimentConfig


@dataclass(frozen=True)
class MatrixVariant:
    """One row of the ablation matrix: a named single-component toggle.

    ``config_overrides`` are :class:`~repro.experiments.common.
    ExperimentConfig` field replacements.  ``allocator`` selects the
    final allocation call ("optimized" = the Eq. 8 xi solve, "equal" =
    the analytic equal-share scheme).
    """

    name: str
    #: Component this variant toggles; "" marks the baseline.
    component: str
    description: str
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    allocator: str = "optimized"

    def __post_init__(self) -> None:
        if self.allocator not in ("optimized", "equal"):
            raise ReproError(
                f'variant {self.name!r}: allocator must be "optimized" '
                f'or "equal", not {self.allocator!r}'
            )

    @property
    def is_baseline(self) -> bool:
        return self.component == ""

    def apply(self, config: "ExperimentConfig") -> "ExperimentConfig":
        """The variant's experiment configuration."""
        if not self.config_overrides:
            return config
        return replace(config, **dict(self.config_overrides))

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "component": self.component,
            "description": self.description,
            "config_overrides": dict(self.config_overrides),
            "allocator": self.allocator,
        }


def baseline_variant() -> MatrixVariant:
    return MatrixVariant(
        name="baseline",
        component="",
        description="every component at its production setting",
    )


# ----------------------------------------------------------------------
VariantBuilder = Callable[["ExperimentConfig"], List[MatrixVariant]]


def _xi_variants(config: "ExperimentConfig") -> List[MatrixVariant]:
    return [
        MatrixVariant(
            name="xi:equal",
            component="xi",
            description=(
                "xi optimization off: equal error shares instead of "
                "the objective-weighted Eq. 8 solve"
            ),
            allocator="equal",
        )
    ]


def _cache_variants(config: "ExperimentConfig") -> List[MatrixVariant]:
    return [
        MatrixVariant(
            name="cache:off",
            component="cache",
            description="persistent content-addressed result cache off",
            config_overrides={"no_cache": True},
        )
    ]


def _scheme_variants(config: "ExperimentConfig") -> List[MatrixVariant]:
    other = "scheme2" if config.scheme == "scheme1" else "scheme1"
    return [
        MatrixVariant(
            name=f"scheme:{other}",
            component="scheme",
            description=(
                f"sigma-search accuracy test swapped to {other} "
                f"(baseline uses {config.scheme})"
            ),
            config_overrides={"scheme": other},
        )
    ]


def _backend_variants(config: "ExperimentConfig") -> List[MatrixVariant]:
    if config.jobs != 1:
        return [
            MatrixVariant(
                name="backend:serial",
                component="backend",
                description="injection engine forced serial (jobs=1)",
                config_overrides={"jobs": 1},
            )
        ]
    return [
        MatrixVariant(
            name="backend:thread",
            component="backend",
            description=(
                "injection engine on the thread pool (jobs=2); results "
                "must stay bit-identical"
            ),
            config_overrides={"jobs": 2},
        )
    ]


#: Component registry: toggle name -> variant builder.
COMPONENT_BUILDERS: Dict[str, VariantBuilder] = {
    "xi": _xi_variants,
    "cache": _cache_variants,
    "scheme": _scheme_variants,
    "backend": _backend_variants,
}

#: Default component set, in reporting order.
DEFAULT_COMPONENTS: Tuple[str, ...] = tuple(COMPONENT_BUILDERS)


def build_matrix(
    config: "ExperimentConfig",
    components: Optional[Sequence[str]] = None,
) -> List[MatrixVariant]:
    """Baseline plus one variant per toggled component.

    ``components`` selects a subset of :data:`DEFAULT_COMPONENTS`
    (order preserved, unknown names rejected); None means all.
    """
    chosen = DEFAULT_COMPONENTS if components is None else tuple(components)
    unknown = [name for name in chosen if name not in COMPONENT_BUILDERS]
    if unknown:
        known = ", ".join(COMPONENT_BUILDERS)
        raise ReproError(
            f"unknown ablation components {unknown!r}; known: {known}"
        )
    variants = [baseline_variant()]
    for component in chosen:
        variants.extend(COMPONENT_BUILDERS[component](config))
    names = [variant.name for variant in variants]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate variant names in matrix: {names}")
    return variants
