"""Closed-form orbit moments against combinatorial and enumeration oracles."""

from __future__ import annotations

from fractions import Fraction
from math import prod

import pytest

from orbitdesign import (
    MomentSet,
    OrbitDesign,
    OrbitDesignError,
    design_moments,
    enumerate_orbit,
    orbit_moment,
    orbit_moment_sum,
    orbit_size,
)


def enumeration_moment(k_factors, k, j):
    """Oracle: exact average of the product of the first j coordinates."""
    total = sum(prod(x[:j]) for x in enumerate_orbit(k_factors, k))
    return Fraction(total, orbit_size(k_factors, k))


class TestOrbitMoment:
    def test_all_low_orbit(self):
        assert [orbit_moment(6, 0, j) for j in range(1, 5)] == [-1, 1, -1, 1]

    def test_k6_orbit2(self):
        assert orbit_moment(6, 2, 1) == Fraction(-1, 3)
        assert orbit_moment(6, 2, 2) == Fraction(-1, 15)
        assert orbit_moment(6, 2, 3) == Fraction(1, 5)
        assert orbit_moment(6, 2, 4) == Fraction(-1, 15)

    def test_central_orbit_odd_moment_vanishes(self):
        for k_factors in (4, 6, 8, 10):
            assert orbit_moment(k_factors, k_factors // 2, 1) == 0

    def test_order_above_k_is_zero(self):
        assert orbit_moment(3, 1, 4) == 0
        assert orbit_moment(2, 0, 3) == 0

    def test_argument_validation(self):
        with pytest.raises(OrbitDesignError):
            orbit_moment(6, 7, 1)
        with pytest.raises(OrbitDesignError):
            orbit_moment(6, 2, 5)
        with pytest.raises(OrbitDesignError):
            orbit_moment(6, 2, 0)

    def test_closed_form_equals_alternating_sum(self):
        for k_factors in range(2, 23):
            for k in range(k_factors + 1):
                for j in range(1, 5):
                    assert orbit_moment(k_factors, k, j) == orbit_moment_sum(
                        k_factors, k, j
                    )

    def test_matches_enumeration_oracle(self):
        for k_factors in range(2, 11):
            for k in range(k_factors + 1):
                for j in range(1, min(4, k_factors) + 1):
                    expected = enumeration_moment(k_factors, k, j)
                    assert orbit_moment(k_factors, k, j) == expected
                    assert abs(float(orbit_moment(k_factors, k, j)) - float(expected)) < 1e-14

    def test_reflection_symmetry(self):
        for k_factors in range(2, 13):
            for k in range(k_factors + 1):
                for j in range(1, 5):
                    sign = -1 if j % 2 else 1
                    assert orbit_moment(k_factors, k_factors - k, j) == (
                        sign * orbit_moment(k_factors, k, j)
                    )

    def test_m2_strictly_decreasing_to_center(self):
        for k_factors in range(2, 13):
            values = [orbit_moment(k_factors, k, 2) for k in range(k_factors // 2 + 1)]
            assert all(a > b for a, b in zip(values, values[1:]))


class TestDesignMoments:
    def test_full_factorial_k4(self):
        d = OrbitDesign(
            4, {k: Fraction(orbit_size(4, k), 16) for k in range(5)}
        )
        assert design_moments(d) == MomentSet(0, 0, 0, 0)

    def test_identity_design_k6(self):
        d = OrbitDesign(
            6,
            {1: Fraction(6, 32), 3: Fraction(20, 32), 5: Fraction(6, 32)},
        )
        m = design_moments(d)
        assert (m.m1, m.m2, m.m3, m.m4) == (0, 0, 0, 0)

    def test_narrow_k6_mixture(self):
        w_outer = Fraction("0.3865")
        w_center = Fraction("0.2270")
        d = OrbitDesign(6, {2: w_outer, 3: w_center}, symmetric=True)
        m = design_moments(d)
        assert m.m2 == 2 * w_outer * Fraction(-1, 15) + w_center * Fraction(-1, 5)
        assert m.m4 == 2 * w_outer * Fraction(-1, 15) + w_center * Fraction(1, 5)

    def test_symmetric_odd_moments_exactly_zero(self):
        d = OrbitDesign(7, {2: 0.3, 3: 0.2}, symmetric=True)
        m = design_moments(d)
        assert m.m1 == 0 and m.m3 == 0

    def test_linear_in_weights_against_enumeration(self):
        d = OrbitDesign(5, {1: Fraction(2, 5), 4: Fraction(3, 5)})
        m = design_moments(d)
        for j in range(1, 5):
            expected = Fraction(2, 5) * enumeration_moment(5, 1, j) + Fraction(
                3, 5
            ) * enumeration_moment(5, 4, j)
            assert getattr(m, f"m{j}") == expected

    def test_float_weights_give_exact_moments(self):
        # Float weights are exact binary rationals; their mixture is kept
        # exact and rescaled to total weight 1.
        d = OrbitDesign(6, {2: 0.3, 3: 0.4}, symmetric=True)
        m = design_moments(d)
        w2, w3 = Fraction(0.3), Fraction(0.4)
        total = 2 * w2 + w3
        assert isinstance(m.m2, Fraction) and isinstance(m.m4, Fraction)
        assert m.m2 == (2 * w2 * orbit_moment(6, 2, 2) + w3 * orbit_moment(6, 3, 2)) / total


class TestMomentSet:
    def test_bounds_enforced(self):
        with pytest.raises(OrbitDesignError):
            MomentSet(0, 1.5, 0, 0)

    def test_float_conversion(self):
        m = MomentSet(Fraction(0), Fraction(-1, 15), Fraction(0), Fraction(1, 5))
        floats = m.as_floats()
        assert floats.m2 == pytest.approx(-1 / 15)
        assert isinstance(floats.m4, float)
