"""The exact Eq. 8 solves against the SLSQP oracle.

Random problems cover random lambda, negative theta with active
floors (on the zero-rho layers), and 2 to 160 layers; the budgeted
solve stops at 40 layers, because its SLSQP oracle takes minutes on
140.  On each, the exact solve must reach the oracle's objective (to
rounding), land on the floored unit simplex, and give the same ceil'd
fraction bits.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sigma_search import deltas_for_sigma
from repro.optimize import Objective, optimize_xi, optimize_xi_constrained
from repro.optimize.eq8 import eq8_layers, weighted_bits
from repro.quant import fraction_bits_for_delta

from .slsqp_oracle import slsqp_xi, slsqp_xi_constrained
from .test_sqp import make_profile


@st.composite
def problems(draw, max_layers=160):
    """(profiles, objective, cap, sigma) with floors active on some layers."""
    count = draw(st.integers(2, max_layers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = float(rng.uniform(0.05, 2.0))
    lam = rng.uniform(0.5, 200.0, count)
    a = lam * sigma
    # theta >= -a / (2 sqrt(count)) keeps the floors below 1/4 in sum;
    # a layer's floor binds when its theta is near that bound.
    theta = rng.uniform(-1.0, 1.0, count) * a / (2.0 * np.sqrt(count))
    theta[rng.random(count) < 0.2] = 0.0
    # A zero weight floors its layer.  Positive weights stay >= 0.1: near
    # zero, a negative-theta layer's Delta is proportional to its weight
    # and far below the xi resolution of SLSQP, so the oracle cannot
    # resolve that layer's bits.
    rho = rng.uniform(0.1, 5.0, count)
    rho[rng.random(count) < 0.15] = 0.0
    rho[rng.integers(count)] = 1.0
    cap = rng.uniform(0.1, 5.0, count)
    names = [f"layer{i}" for i in range(count)]
    profiles = {
        name: make_profile(name, float(l), float(t))
        for name, l, t in zip(names, lam, theta)
    }
    return (
        profiles,
        Objective("objective", dict(zip(names, map(float, rho)))),
        Objective("cap", dict(zip(names, map(float, cap)))),
        sigma,
    )


def check_against_oracle(profiles, objective, sigma, xi, oracle):
    """Objective, simplex and fraction-bit checks for one solve."""
    names = list(profiles)
    a, theta, floors = eq8_layers(names, profiles, sigma)
    rho = np.array([objective.rho[name] for name in names])
    exact = np.array([xi[name] for name in names])
    value = weighted_bits(exact, rho, a, theta)
    reference = weighted_bits(
        np.array([oracle[name] for name in names]), rho, a, theta
    )
    assert value <= reference + 1e-12 * max(1.0, abs(value))
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(exact >= floors * (1.0 - 1e-12))

    def bits(shares):
        deltas = deltas_for_sigma(profiles, sigma, shares)
        return {name: fraction_bits_for_delta(d) for name, d in deltas.items()}

    assert bits(xi) == bits(oracle)


class TestPlainSolve:
    @settings(max_examples=20, deadline=None)
    @given(problem=problems())
    def test_matches_oracle(self, problem):
        profiles, objective, __, sigma = problem
        solution = optimize_xi(objective, profiles, sigma)
        check_against_oracle(
            profiles,
            objective,
            sigma,
            solution.xi,
            slsqp_xi(objective, profiles, sigma),
        )

    def test_on_real_profiles(self, lenet_profiles, lenet_stats):
        from repro.optimize import mac_energy_objective

        objective = mac_energy_objective(lenet_stats)
        profiles = lenet_profiles.profiles
        solution = optimize_xi(objective, profiles, 0.5)
        check_against_oracle(
            profiles,
            objective,
            0.5,
            solution.xi,
            slsqp_xi(objective, profiles, 0.5),
        )


class TestBudgetedSolve:
    @settings(max_examples=10, deadline=None)
    @given(problem=problems(max_layers=40), where=st.floats(0.05, 0.95))
    def test_matches_oracle(self, problem, where):
        """A budget between the cap-optimal cost and the cap cost of the
        unconstrained optimum binds; the exact solve meets it and is no
        worse than the oracle at any budget the oracle's point meets."""
        profiles, objective, cap, sigma = problem
        names = list(profiles)
        a, theta, __ = eq8_layers(names, profiles, sigma)
        weights = np.array([cap.rho[name] for name in names])

        def cap_cost(xi):
            return weighted_bits(
                np.array([xi[name] for name in names]), weights, a, theta
            )

        best = cap_cost(optimize_xi(cap, profiles, sigma).xi)
        free = cap_cost(optimize_xi(objective, profiles, sigma).xi)
        budget = best + where * (free - best)
        solution = optimize_xi_constrained(
            objective, cap, budget, profiles, sigma
        )
        assert solution.cap_value <= budget + 1e-12 * max(1.0, abs(budget))
        oracle = slsqp_xi_constrained(objective, cap, budget, profiles, sigma)
        # SLSQP may overshoot the cap by rounding; compare at the budget
        # its point actually meets.
        met = max(budget, cap_cost(oracle))
        if met > budget:
            solution = optimize_xi_constrained(
                objective, cap, met, profiles, sigma
            )
        check_against_oracle(profiles, objective, sigma, solution.xi, oracle)
