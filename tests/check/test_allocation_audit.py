"""Pass 1c: static allocation audits (overflow, negative-F, xi, fits)."""

from __future__ import annotations

import numpy as np

from repro.check import (
    Interval,
    Severity,
    audit_allocation,
    audit_allocation_result,
    audit_profiles,
    audit_xi,
)
from repro.analysis.profiler import LayerErrorProfile
from repro.models import build_model
from repro.nn.statistics import LayerStats
from repro.optimize.eq8 import XI_FLOOR
from repro.quant.allocation import BitwidthAllocation, LayerAllocation
from repro.quant.fixed_point import integer_bits_for_range

TEST_SEED = 1234


def rules(report):
    return {f.rule for f in report}


def make_profile(name, lam=2.0, theta=0.01, r_squared=0.99):
    grid = np.geomspace(1e-3, 1e-1, 5)
    return LayerErrorProfile(
        name=name,
        lam=lam,
        theta=theta,
        r_squared=r_squared,
        max_relative_error=0.02,
        deltas=grid,
        sigmas=(grid - theta) / lam,
    )


# ----------------------------------------------------------------------
class TestOverflowAudit:
    def test_undersized_integer_bits_flagged(self):
        """The acceptance fixture: I too small for the measured range."""
        stats = {
            "conv1": LayerStats(
                "conv1", num_inputs=100, num_macs=1000, max_abs_input=443.0
            )
        }
        needed = integer_bits_for_range(443.0)
        allocation = BitwidthAllocation(
            [LayerAllocation("conv1", integer_bits=needed - 2, fraction_bits=6)]
        )
        report = audit_allocation(allocation, stats=stats)
        overflow = report.by_rule("overflow")
        assert overflow and overflow[0].severity == Severity.ERROR
        assert overflow[0].layer == "conv1"
        assert report.exit_code() == 1

    def test_adequate_integer_bits_clean(self):
        stats = {
            "conv1": LayerStats(
                "conv1", num_inputs=100, num_macs=1000, max_abs_input=443.0
            )
        }
        allocation = BitwidthAllocation(
            [
                LayerAllocation(
                    "conv1",
                    integer_bits=integer_bits_for_range(443.0),
                    fraction_bits=6,
                )
            ]
        )
        assert audit_allocation(allocation, stats=stats).ok(strict=True)

    def test_pipeline_allocation_from_stats_is_clean(self):
        """uniform() derives I from the stats, so it can never overflow."""
        stats = [
            LayerStats("a", 10, 100, max_abs_input=139.0),
            LayerStats("b", 10, 100, max_abs_input=7.5),
        ]
        allocation = BitwidthAllocation.uniform(stats, total_bits=12)
        report = audit_allocation(
            allocation, stats={s.name: s for s in stats}
        )
        assert not report.by_rule("overflow")


class TestFormatAudit:
    def test_negative_f_dropping_all_integer_bits(self):
        allocation = BitwidthAllocation(
            [LayerAllocation("a", integer_bits=4, fraction_bits=-4)]
        )
        report = audit_allocation(allocation)
        flagged = report.by_rule("negative-f")
        assert flagged and flagged[0].severity == Severity.ERROR

    def test_moderate_negative_f_is_fine(self):
        # The paper's Sec. II-A trick: F=-2 with I=8 is a legal
        # 6-bit word with an implicit shift.
        allocation = BitwidthAllocation(
            [LayerAllocation("a", integer_bits=8, fraction_bits=-2)]
        )
        assert audit_allocation(allocation).ok(strict=True)

    def test_clamped_width_warned(self):
        allocation = BitwidthAllocation(
            [LayerAllocation("a", integer_bits=20, fraction_bits=20)]
        )
        report = audit_allocation(allocation)
        assert "clamped-width" in rules(report)
        assert report.ok()  # warning only
        assert not report.ok(strict=True)


class TestNetworkCoverage:
    def test_unknown_and_unanalyzed_targets(self):
        network = build_model("lenet", num_classes=8, seed=TEST_SEED)
        non_analyzed = next(
            layer.name for layer in network.layers if not layer.analyzed
        )
        allocation = BitwidthAllocation(
            [
                LayerAllocation("ghost", 4, 4),
                LayerAllocation(non_analyzed, 4, 4),
            ]
        )
        report = audit_allocation(allocation, network=network)
        assert "unknown-layer" in rules(report)
        assert "not-analyzed" in rules(report)
        assert "uncovered-layers" in rules(report)

    def test_static_range_audit_warns_on_small_i(self):
        network = build_model("lenet", num_classes=8, seed=TEST_SEED)
        name = network.analyzed_layer_names[-1]
        allocation = BitwidthAllocation(
            [LayerAllocation(name, integer_bits=1, fraction_bits=7)]
        )
        report = audit_allocation(
            allocation, network=network, input_range=Interval(-100.0, 100.0)
        )
        flagged = report.by_rule("static-range")
        assert flagged and flagged[0].severity == Severity.WARNING


# ----------------------------------------------------------------------
class TestXiAudit:
    def test_valid_xi_clean(self):
        assert audit_xi({"a": 0.25, "b": 0.75}).ok(strict=True)

    def test_sum_violation(self):
        report = audit_xi({"a": 0.6, "b": 0.6})
        assert "xi-sum" in rules(report)
        assert report.exit_code() == 1

    def test_floor_violation(self):
        report = audit_xi({"a": XI_FLOOR / 10, "b": 1.0 - XI_FLOOR / 10})
        assert "xi-floor" in rules(report)

    def test_negative_share(self):
        report = audit_xi({"a": -0.2, "b": 1.2})
        assert "xi-negative" in rules(report)

    def test_empty(self):
        assert "xi-empty" in rules(audit_xi({}))


class TestProfileGates:
    def test_healthy_profiles_clean(self):
        report = audit_profiles({"a": make_profile("a")})
        assert report.ok(strict=True)

    def test_degenerate_lambda(self):
        report = audit_profiles({"a": make_profile("a", lam=1e-12)})
        flagged = report.by_rule("degenerate-lambda")
        assert flagged and flagged[0].severity == Severity.ERROR
        assert flagged[0].reference == "Eq. 5"

    def test_negative_lambda(self):
        report = audit_profiles({"a": make_profile("a", lam=-0.5)})
        assert "negative-lambda" in rules(report)

    def test_negative_r_squared(self):
        report = audit_profiles({"a": make_profile("a", r_squared=-0.3)})
        assert "negative-r2" in rules(report)
        assert report.exit_code() == 1

    def test_low_r_squared_warns(self):
        report = audit_profiles({"a": make_profile("a", r_squared=0.3)})
        assert "low-r2" in rules(report)
        assert report.ok() and not report.ok(strict=True)


# ----------------------------------------------------------------------
class TestAuditResult:
    def test_combined_audit(self):
        from repro.optimize.allocator import AllocationResult
        from repro.optimize.objective import Objective

        stats = {
            "a": LayerStats("a", 10, 100, max_abs_input=100.0),
        }
        allocation = BitwidthAllocation(
            [LayerAllocation("a", integer_bits=2, fraction_bits=6)]
        )
        result = AllocationResult(
            allocation=allocation,
            xi={"a": 0.8},  # violates the sum constraint
            deltas={"a": 0.01},
            sigma=0.5,
            objective=Objective("input", {"a": 1.0}),
        )
        report = audit_allocation_result(
            result,
            stats=stats,
            profiles={"a": make_profile("a", lam=1e-15)},
        )
        found = rules(report)
        assert {"overflow", "xi-sum", "degenerate-lambda"} <= found
