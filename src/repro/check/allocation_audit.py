"""Pass 1c — static audit of a bitwidth allocation against the model.

Each check here protects one precondition of the paper's pipeline:

* **Integer-bit overflow** (Sec. II-A, Table II): an allocation whose
  ``I`` does not cover the layer's activation range saturates at
  inference — silently, because :meth:`FixedPointFormat.quantize`
  clamps.  Checked against the measured ``max|X_K|`` (error) and,
  when an input bound is available, against the statically propagated
  interval (warning: interval bounds are conservative).
* **Negative-F feasibility** (Sec. II-A): dropping low-order integer
  bits (``F < 0``) requires the dropped bits to exist — the implicit
  shift cannot consume the sign bit or push the word below the minimum
  width.
* **xi-share invariants** (Eq. 6/8): the error shares must satisfy
  ``sum_K xi_K = 1`` and respect the solver's floor; a violated sum
  means sigma_YL is mis-budgeted and the accuracy constraint no longer
  bounds the true output error.
* **Eq. 5 fit quality**: a near-zero ``lambda_K`` makes
  ``Delta = lambda * sigma * sqrt(xi) + theta`` insensitive to xi (the
  Eq. 8 objective is flat in that coordinate); a negative R^2 means the
  fitted line predicts worse than the mean — both poison the allocator.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.profiler import LayerErrorProfile
from ..config import MAX_BITWIDTH, MIN_BITWIDTH
from ..nn.graph import Network
from ..nn.statistics import LayerStats
from ..optimize.allocator import AllocationResult
from ..optimize.eq8 import XI_FLOOR
from ..quant.allocation import BitwidthAllocation
from ..quant.fixed_point import integer_bits_for_range
from ..resilience.guards import R_SQUARED_FLOOR
from .findings import CheckReport, Severity
from .intervals import Interval, propagate_ranges

#: |lambda| at or below this is treated as a degenerate Eq. 5 fit: the
#: line predicts essentially the same Delta for any sigma share, so the
#: Eq. 8 objective cannot trade error between layers.
LAMBDA_FLOOR = 1e-9

#: Tolerance on |sum_K xi_K - 1| (the Eq. 8 solve meets the constraint
#: to rounding; the slack admits shares from other sources, such as a
#: hand-written split; anything beyond this is a real violation).
XI_SUM_TOLERANCE = 1e-6


def audit_allocation(
    allocation: BitwidthAllocation,
    stats: Optional[Mapping[str, LayerStats]] = None,
    network: Optional[Network] = None,
    input_range: Optional[Interval] = None,
) -> CheckReport:
    """Audit the fixed-point formats of an allocation, statically.

    ``stats`` enables the measured-range overflow check; ``network`` +
    ``input_range`` additionally enable the interval-propagated bound.
    """
    report = CheckReport()
    if network is not None:
        analyzed = set(network.analyzed_layer_names)
        for name in allocation.names:
            if name not in network:
                report.add(
                    "unknown-layer",
                    Severity.ERROR,
                    f"allocation targets layer {name!r}, absent from "
                    f"network {network.name!r}",
                    layer=name,
                )
            elif name not in analyzed:
                report.add(
                    "not-analyzed",
                    Severity.ERROR,
                    f"allocation targets {name!r}, which is not an analyzed "
                    "(dot-product) layer",
                    layer=name,
                )
        missing = [n for n in sorted(analyzed) if n not in allocation]
        if missing:
            report.add(
                "uncovered-layers",
                Severity.WARNING,
                "analyzed layers without an allocation run at full "
                "precision: " + ", ".join(repr(n) for n in missing),
            )

    static_ranges: Dict[str, Interval] = {}
    if network is not None and input_range is not None:
        analysis = propagate_ranges(network, input_range)
        report.extend(analysis.report)
        static_ranges = analysis.analyzed_inputs

    for alloc in allocation:
        name = alloc.name
        if stats is not None and name in stats:
            max_abs = stats[name].max_abs_input
            needed = integer_bits_for_range(max_abs)
            if alloc.integer_bits < needed:
                report.add(
                    "overflow",
                    Severity.ERROR,
                    f"I={alloc.integer_bits} cannot represent the measured "
                    f"range max|X_K|={max_abs:.4g} (needs I>={needed}); "
                    "in-range activations will saturate at inference",
                    layer=name,
                    reference="Sec. II-A",
                )
        if name in static_ranges:
            bound = static_ranges[name]
            needed_static = integer_bits_for_range(bound.max_abs)
            if alloc.integer_bits < needed_static:
                report.add(
                    "static-range",
                    Severity.WARNING,
                    f"I={alloc.integer_bits} does not cover the statically "
                    f"propagated input bound {bound} (needs "
                    f"I>={needed_static}); inputs outside the calibration "
                    "set may overflow",
                    layer=name,
                    reference="Sec. II-A",
                )
        if alloc.fraction_bits < 0:
            dropped = -alloc.fraction_bits
            if dropped >= alloc.integer_bits:
                report.add(
                    "negative-f",
                    Severity.ERROR,
                    f"F={alloc.fraction_bits} drops {dropped} integer bits "
                    f"but only {alloc.integer_bits} exist (one is the "
                    "sign); the implicit shift is infeasible",
                    layer=name,
                    reference="Sec. II-A",
                )
            elif alloc.integer_bits + alloc.fraction_bits < MIN_BITWIDTH:
                report.add(
                    "negative-f",
                    Severity.ERROR,
                    f"I+F={alloc.integer_bits + alloc.fraction_bits} falls "
                    f"below the minimum word width {MIN_BITWIDTH}",
                    layer=name,
                    reference="Sec. II-A",
                )
        raw_width = alloc.integer_bits + alloc.fraction_bits
        if raw_width > MAX_BITWIDTH:
            report.add(
                "clamped-width",
                Severity.WARNING,
                f"requested width I+F={raw_width} exceeds the supported "
                f"maximum {MAX_BITWIDTH} and will be clamped; the realized "
                "rounding error is larger than the optimizer assumed",
                layer=name,
            )
    return report


def audit_xi(
    xi: Mapping[str, float],
    xi_floor: float = XI_FLOOR,
) -> CheckReport:
    """Check the error-share vector invariants of Eq. 6/8."""
    report = CheckReport()
    if not xi:
        report.add("xi-empty", Severity.ERROR, "xi assigns no shares")
        return report
    total = float(sum(xi.values()))
    if abs(total - 1.0) > XI_SUM_TOLERANCE:
        report.add(
            "xi-sum",
            Severity.ERROR,
            f"sum of xi shares is {total:.8f}, not 1 (off by "
            f"{total - 1.0:+.3g}); sigma_YL is mis-budgeted across layers",
            reference="Eq. 6",
        )
    for name, share in xi.items():
        if share < 0.0:
            report.add(
                "xi-negative",
                Severity.ERROR,
                f"xi={share:.4g} is negative; sqrt(xi) in Eq. 7 is undefined",
                layer=name,
                reference="Eq. 7",
            )
        # Strictly-below-floor shares (beyond rounding fuzz) mean the
        # solver escaped its own bound constraint.
        elif share < xi_floor * (1.0 - 1e-9):
            report.add(
                "xi-floor",
                Severity.ERROR,
                f"xi={share:.4g} is below the solver floor {xi_floor:g}; "
                "the layer's Delta collapses to theta and its bitwidth "
                "explodes",
                layer=name,
                reference="Eq. 8",
            )
    return report


def audit_profiles(
    profiles: Mapping[str, LayerErrorProfile],
    r_squared_floor: float = R_SQUARED_FLOOR,
    lambda_floor: float = LAMBDA_FLOOR,
) -> CheckReport:
    """Gate the Eq. 5 fits that feed the Eq. 8 objective."""
    report = CheckReport()
    for name, profile in profiles.items():
        if abs(profile.lam) <= lambda_floor:
            report.add(
                "degenerate-lambda",
                Severity.ERROR,
                f"lambda={profile.lam:.4g} is (near) zero: Delta does not "
                "respond to the error share, so the Eq. 8 objective is "
                "flat in this layer's coordinate",
                layer=name,
                reference="Eq. 5",
            )
        elif profile.lam < 0.0:
            report.add(
                "negative-lambda",
                Severity.ERROR,
                f"lambda={profile.lam:.4g} is negative: more injected noise "
                "would *reduce* the output error, inverting Eq. 5",
                layer=name,
                reference="Eq. 5",
            )
        if profile.r_squared < 0.0:
            report.add(
                "negative-r2",
                Severity.ERROR,
                f"R^2={profile.r_squared:.4g} is negative: the fitted line "
                "predicts worse than the mean of the measurements",
                layer=name,
                reference="Eq. 5",
            )
        elif profile.r_squared < r_squared_floor:
            report.add(
                "low-r2",
                Severity.WARNING,
                f"R^2={profile.r_squared:.4g} below floor "
                f"{r_squared_floor}; the linear error model barely holds",
                layer=name,
                reference="Eq. 5",
            )
    return report


def audit_allocation_result(
    result: "AllocationResult",
    stats: Optional[Mapping[str, LayerStats]] = None,
    profiles: Optional[Mapping[str, LayerErrorProfile]] = None,
    network: Optional[Network] = None,
    input_range: Optional[Interval] = None,
) -> CheckReport:
    """Audit an :class:`~repro.optimize.allocator.AllocationResult`.

    Convenience wrapper combining the format, xi, and fit audits; this
    is what the pipeline runs after every allocation.
    """
    report = audit_allocation(
        result.allocation,
        stats=stats,
        network=network,
        input_range=input_range,
    )
    xi = getattr(result, "xi", None)
    if xi:
        report.extend(audit_xi(xi))
    if profiles is not None:
        report.extend(audit_profiles(profiles))
    return report
