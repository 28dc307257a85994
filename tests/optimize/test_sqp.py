"""Tests for the exact Eq. 8 solve, including its analytic solution.

With theta = 0 the Lagrangian gives a closed form: xi_K proportional to
rho_K.  The solver must recover it, and must respect the simplex
constraint and feasibility floors in general.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.profiler import LayerErrorProfile
from repro.errors import OptimizationError
from repro.optimize import Objective, equal_xi, optimize_xi


def make_profile(name, lam, theta=0.0):
    deltas = np.geomspace(0.01, 1.0, 5)
    return LayerErrorProfile(
        name=name,
        lam=lam,
        theta=theta,
        r_squared=1.0,
        max_relative_error=0.0,
        deltas=deltas,
        sigmas=(deltas - theta) / lam,
    )


class TestAnalyticSolution:
    def test_xi_proportional_to_rho_when_theta_zero(self):
        """Closed form: xi_K* = rho_K / sum(rho) for theta = 0."""
        profiles = {
            "a": make_profile("a", 50.0),
            "b": make_profile("b", 80.0),
            "c": make_profile("c", 120.0),
        }
        objective = Objective("t", {"a": 1.0, "b": 2.0, "c": 5.0})
        solution = optimize_xi(objective, profiles, sigma=0.5)
        assert solution.xi["a"] == pytest.approx(1 / 8, abs=1e-3)
        assert solution.xi["b"] == pytest.approx(2 / 8, abs=1e-3)
        assert solution.xi["c"] == pytest.approx(5 / 8, abs=1e-3)

    def test_lambda_does_not_affect_theta_zero_solution(self):
        """With theta = 0, lambda only shifts the objective constant."""
        profiles_a = {"a": make_profile("a", 10.0), "b": make_profile("b", 10.0)}
        profiles_b = {"a": make_profile("a", 500.0), "b": make_profile("b", 3.0)}
        objective = Objective("t", {"a": 3.0, "b": 1.0})
        xi_a = optimize_xi(objective, profiles_a, 1.0).xi
        xi_b = optimize_xi(objective, profiles_b, 1.0).xi
        assert xi_a["a"] == pytest.approx(xi_b["a"], abs=1e-3)

    @settings(max_examples=25, deadline=None)
    @given(
        rho_a=st.floats(min_value=0.1, max_value=10),
        rho_b=st.floats(min_value=0.1, max_value=10),
        sigma=st.floats(min_value=0.05, max_value=5.0),
    )
    def test_two_layer_closed_form_property(self, rho_a, rho_b, sigma):
        """PROPERTY: two-layer theta=0 case matches rho_K/sum(rho)."""
        profiles = {"a": make_profile("a", 30.0), "b": make_profile("b", 70.0)}
        objective = Objective("t", {"a": rho_a, "b": rho_b})
        xi = optimize_xi(objective, profiles, sigma).xi
        assert xi["a"] == pytest.approx(rho_a / (rho_a + rho_b), abs=5e-3)


class TestConstraints:
    def test_xi_sums_to_one(self):
        profiles = {
            n: make_profile(n, lam, theta)
            for n, lam, theta in [
                ("a", 40.0, -0.01),
                ("b", 90.0, 0.02),
                ("c", 20.0, 0.0),
            ]
        }
        objective = Objective("t", {"a": 1.0, "b": 4.0, "c": 2.0})
        solution = optimize_xi(objective, profiles, 0.7)
        assert sum(solution.xi.values()) == pytest.approx(1.0)
        assert all(x > 0 for x in solution.xi.values())

    def test_negative_theta_respects_feasibility_floor(self):
        """Deltas must stay positive even with strongly negative theta."""
        profiles = {
            "a": make_profile("a", 10.0, theta=-0.5),
            "b": make_profile("b", 10.0, theta=0.0),
        }
        objective = Objective("t", {"a": 1.0, "b": 1.0})
        solution = optimize_xi(objective, profiles, sigma=1.0)
        for name, profile in profiles.items():
            delta = profile.delta_for_sigma(1.0 * np.sqrt(solution.xi[name]))
            assert delta > 0

    def test_infeasible_floors_raise(self):
        """theta so negative that no xi in the simplex gives Delta > 0."""
        profiles = {
            "a": make_profile("a", 1.0, theta=-100.0),
            "b": make_profile("b", 1.0, theta=-100.0),
        }
        objective = Objective("t", {"a": 1.0, "b": 1.0})
        with pytest.raises(OptimizationError):
            optimize_xi(objective, profiles, sigma=1.0)

    def test_rejects_non_positive_sigma(self):
        profiles = {"a": make_profile("a", 10.0), "b": make_profile("b", 10.0)}
        objective = Objective("t", {"a": 1.0, "b": 1.0})
        with pytest.raises(OptimizationError):
            optimize_xi(objective, profiles, sigma=0.0)

    def test_rejects_unprofiled_layers(self):
        profiles = {"a": make_profile("a", 10.0)}
        objective = Objective("t", {"a": 1.0, "zz": 1.0})
        with pytest.raises(OptimizationError):
            optimize_xi(objective, profiles, sigma=1.0)


class TestOptimality:
    def test_beats_equal_scheme_on_skewed_objective(self):
        """The optimized xi must (weakly) beat xi = 1/L on its objective."""
        profiles = {
            "a": make_profile("a", 30.0, 0.001),
            "b": make_profile("b", 60.0, -0.002),
            "c": make_profile("c", 100.0, 0.0),
        }
        rho = {"a": 10.0, "b": 1.0, "c": 1.0}
        objective = Objective("t", rho)
        sigma = 0.8

        def cost(xi):
            total = 0.0
            for name, profile in profiles.items():
                delta = profile.delta_for_sigma(sigma * np.sqrt(xi[name]))
                total += rho[name] * -np.log2(delta)
            return total

        optimized = optimize_xi(objective, profiles, sigma)
        assert cost(optimized.xi) <= cost(equal_xi(list(profiles))) + 1e-9


class TestEqualXi:
    def test_shares(self):
        xi = equal_xi(["a", "b", "c", "d"])
        assert all(v == 0.25 for v in xi.values())

    def test_rejects_empty(self):
        with pytest.raises(OptimizationError):
            equal_xi([])
