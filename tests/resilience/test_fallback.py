"""Unit tests for the equal-xi degrade and the retry primitive."""

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.profiler import LayerErrorProfile
from repro.errors import (
    DegradedResultWarning,
    OptimizationError,
    RetryExhaustedError,
    TransientError,
)
from repro.nn.statistics import LayerStats
from repro.optimize import allocate_optimized, optimize_xi
from repro.optimize.objective import Objective
from repro.resilience import call_with_retries
from repro.telemetry import Telemetry


def make_profiles(lams=(2.0, 1.0, 0.5)):
    profiles = {}
    for i, lam in enumerate(lams):
        name = f"layer{i}"
        profiles[name] = LayerErrorProfile(
            name=name,
            lam=lam,
            theta=0.001,
            r_squared=0.999,
            max_relative_error=0.01,
            deltas=np.geomspace(1e-3, 1e-1, 8),
            sigmas=np.geomspace(1e-3, 1e-1, 8) / lam,
        )
    return profiles


def make_objective(profiles):
    return Objective("test", {name: 1.0 for name in profiles})


class TestCallWithRetries:
    def test_passthrough_on_success(self):
        assert call_with_retries(lambda x: x + 1, 41) == 42

    def test_retries_transient_then_succeeds(self):
        calls = {"n": 0}

        def flaky_fn():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientError("flaky")
            return "ok"

        assert call_with_retries(flaky_fn, retries=2) == "ok"
        assert calls["n"] == 3

    def test_exhaustion_raises_with_attempts(self):
        def always_fails():
            raise TransientError("nope")

        with pytest.raises(RetryExhaustedError) as excinfo:
            call_with_retries(always_fails, retries=2, label="probe")
        assert len(excinfo.value.attempts) == 3

    def test_non_transient_propagates_immediately(self):
        calls = {"n": 0}

        def bad():
            calls["n"] += 1
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retries(bad, retries=5)
        assert calls["n"] == 1


class TestEqualXiDegrade:
    """Profiles that admit no Eq. 8 solution degrade to equal xi.

    A fit with lambda <= 0 and theta > 0 passes the permissive
    guardrails with a warning.  Eq. 8 has no solution for it, yet the
    equal share still gives every layer a positive Delta.
    """

    def degenerate_profiles(self):
        profiles = make_profiles()
        profiles["layer1"] = replace(profiles["layer1"], lam=-0.05, theta=0.05)
        return profiles

    def stats(self, profiles):
        return {
            name: LayerStats(
                name=name, num_inputs=100, num_macs=1000, max_abs_input=4.0
            )
            for name in profiles
        }

    def test_healthy_profiles_are_not_degraded(self):
        profiles = make_profiles()
        result = allocate_optimized(
            make_objective(profiles), profiles, self.stats(profiles), 0.5
        )
        assert not result.degraded
        assert result.solution is not None
        assert sum(result.xi.values()) == pytest.approx(1.0)

    def test_degenerate_profile_degrades_to_equal_xi(self):
        profiles = self.degenerate_profiles()
        objective = make_objective(profiles)
        with pytest.raises(OptimizationError, match="layer1"):
            optimize_xi(objective, profiles, 0.5)
        session = Telemetry()
        with pytest.warns(DegradedResultWarning, match="layer1"):
            result = allocate_optimized(
                objective,
                profiles,
                self.stats(profiles),
                0.5,
                telemetry=session,
            )
        assert result.degraded
        assert result.solution is None
        assert set(result.xi.values()) == {1.0 / len(profiles)}
        # The equal share is a valid allocation: every Delta is the
        # fit's own prediction, none is clamped.
        for name, profile in profiles.items():
            predicted = profile.delta_for_sigma(0.5 * np.sqrt(result.xi[name]))
            assert predicted > 0
            assert result.deltas[name] == predicted
        fallbacks = session.metrics.counter("repro_solver_fallbacks_total")
        assert fallbacks.value == 1

    def test_strict_reraises(self):
        profiles = self.degenerate_profiles()
        with pytest.raises(OptimizationError, match="non-positive lambda"):
            allocate_optimized(
                make_objective(profiles),
                profiles,
                self.stats(profiles),
                0.5,
                strict=True,
            )
