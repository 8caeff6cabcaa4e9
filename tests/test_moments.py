"""Closed-form orbit moments against combinatorial and enumeration oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

import numpy as np
import pytest

from orbitdesign import (
    MomentSet,
    OrbitDesign,
    OrbitDesignError,
    narrow_design,
    regime,
    wide_design,
)
from orbitdesign.moments import ZERO, design_moments, moment_polynomial, orbit_moment
from orbitdesign.orbits import enumerate_orbit, orbit_size

from conftest import orbit_moment_sum


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


def random_weights(rng, k_factors, kind, symmetric):
    """Random weights of one numeric kind on a random support.

    "float" and "fraction" weights are r_k / total for random integers r_k;
    "int" puts an int 1 on one orbit and int 0 on others; "mixed" draws each
    nonzero weight as a float or a Fraction and writes some zeros as int 0.
    """
    orbits = list(range(k_factors // 2 + 1 if symmetric else k_factors + 1))
    mass = {k: 2 if symmetric and 2 * k != k_factors else 1 for k in orbits}
    if kind == "int":
        chosen = rng.choice([k for k in orbits if mass[k] == 1])
        zeros = rng.sample(orbits, rng.randint(0, len(orbits) - 1))
        return {k: 0 for k in zeros if k != chosen} | {chosen: 1}
    support = rng.sample(orbits, rng.randint(1, len(orbits)))
    raw = {k: rng.randint(1, 10**6) for k in support}
    total = sum(mass[k] * r for k, r in raw.items())
    weights = {}
    for k, r in raw.items():
        as_float = kind == "float" or (kind == "mixed" and rng.random() < 0.5)
        weights[k] = r / total if as_float else Fraction(r, total)
    if kind == "mixed":
        weights |= {k: 0 for k in orbits if k not in raw and rng.random() < 0.5}
    return weights


def random_designs():
    rng = random.Random(1511)
    designs = []
    for k_factors in range(2, 41):
        for symmetric in (False, True):
            for kind in ("float", "fraction", "int", "mixed"):
                if kind == "int" and symmetric and k_factors % 2:
                    continue  # every symmetric orbit of odd K has mass 2
                weights = random_weights(rng, k_factors, kind, symmetric)
                designs.append(OrbitDesign(k_factors, weights, symmetric=symmetric))
    return designs


def closed_form(k_factors, j):
    """P_j and d_j of the module docstring, written out afresh."""
    K = k_factors
    if j > K:
        return (0,) * (j + 1), 1
    return {
        1: ((0, 1), K),
        2: ((-K, 0, 1), K * (K - 1)),
        3: ((0, 2 - 3 * K, 0, 1), K * (K - 1) * (K - 2)),
        4: ((3 * K * (K - 2), 0, 8 - 6 * K, 0, 1), K * (K - 1) * (K - 2) * (K - 3)),
    }[j]


def orbit_moment_mixture(design):
    """The moments as the Fraction mixture of orbit_moment over the weights."""
    K = design.k_factors
    weights = {k: Fraction(w) for k, w in design.weights().items()}
    total = sum(weights.values())
    return [
        sum(w * orbit_moment(K, k, j) for k, w in weights.items()) / total
        for j in range(1, 5)
    ]


def assert_exact_moments(design):
    # The design as given (its moments may be kept from its construction)
    # and a fresh general copy, whose moments are computed here.
    expected = orbit_moment_mixture(design)
    for d in (design, OrbitDesign(design.k_factors, design.weights())):
        for got, want in zip(design_moments(d), expected):
            assert type(got) is Fraction and got == want, (d, got, want)
            if want == 0:
                assert got is ZERO, d


class TestSharedIntegerRead:
    def test_design_moments_equal_fraction_mixture(self):
        designs = random_designs()
        assert len(designs) == 293
        designs += [
            OrbitDesign(4, {2: np.int64(1), 0: np.int64(0)}),
            OrbitDesign(7, {0: np.int64(1), 3: 0}),
            OrbitDesign(6, {1: np.int32(0), 3: np.int64(1)}, symmetric=True),
        ]
        for d in designs:
            assert_exact_moments(d)

    def test_integers_are_proportional_to_the_weights(self):
        for d in random_designs():
            weights = {k: Fraction(w) for k, w in d.weights().items()}
            numerators = d._numerators
            assert numerators.keys() == weights.keys()
            assert all(type(n) is int for n in numerators.values())
            assert len({numerators[k] / w for k, w in weights.items()}) == 1, d


class TestOnePassMoments:
    def test_symmetric_optima_equal_the_fraction_mixture(self):
        regions = [(K, L) for K in range(4, 101) for L in range(K // 2)]
        assert len(regions) == 2498
        for K, L in regions:
            construct = narrow_design if regime(K, L) == "narrow" else wide_design
            assert_exact_moments(construct(K, L).design)

    def test_vanishing_moments_are_the_shared_zero(self):
        m = design_moments(wide_design(30, 4).design)
        assert m == MomentSet(0, 0, 0, 0) and m.all_zero()
        assert all(x is ZERO and x == 0 for x in m)
        assert repr(ZERO) == "Fraction(0, 1)"
        # Odd moments of a symmetric design vanish; its even ones do not.
        m = design_moments(OrbitDesign(7, {2: 0.3, 3: 0.2}, symmetric=True))
        assert m.m1 is ZERO and m.m3 is ZERO and 0 not in (m.m2, m.m4)
        assert not m.all_zero()

    def test_all_zero_compares_by_value(self):
        assert MomentSet(0, 0.0, Fraction(0), 0).all_zero()
        assert not MomentSet(0, 0, 0, 1e-300).all_zero()
        assert not MomentSet(0, 0, Fraction(1, 10**30), 0).all_zero()
        zeros = (0, 0.0, -0.0, Fraction(0), ZERO)
        for values in product(zeros, repeat=4):
            assert MomentSet(*values).all_zero(), values
        for nonzero in (1e-300, -1e-300, Fraction(1, 10**30), Fraction(-1, 3), 1, float("nan")):
            for position in range(4):
                for zero in zeros:
                    values = [zero] * 4
                    values[position] = nonzero
                    assert not MomentSet._make(values).all_zero(), values

    def test_all_zero_stops_at_the_first_nonzero_moment(self):
        class Unread:
            def __eq__(self, other):
                raise AssertionError("all_zero read past a non-zero moment")

            __hash__ = None

        for position in range(3):
            values = [ZERO] * position + [Fraction(1, 3)] + [Unread()] * (3 - position)
            assert not MomentSet._make(values).all_zero()

    def test_cached_polynomials_equal_the_closed_form(self):
        for K in range(1, 121):
            for j in range(1, 5):
                coeffs, denom = moment_polynomial(K, j)
                assert (coeffs, denom) == closed_form(K, j) == moment_polynomial.__wrapped__(K, j)
                assert type(coeffs) is tuple and type(denom) is int
                assert all(type(c) is int for c in coeffs)
                assert moment_polynomial(K, j) is moment_polynomial(K, j)

    def test_numpy_factor_count_reads_the_int_table(self):
        coeffs, denom = moment_polynomial(np.int64(37), 4)
        assert type(denom) is int and all(type(c) is int for c in coeffs)
        assert (coeffs, denom) == closed_form(37, 4)


class TestMomentSet:
    def test_bounds_enforced(self):
        with pytest.raises(OrbitDesignError):
            MomentSet(0, 1.5, 0, 0)

    def test_float_conversion(self):
        m = MomentSet(Fraction(0), Fraction(-1, 15), Fraction(0), Fraction(1, 5))
        floats = m.as_floats()
        assert floats.m2 == pytest.approx(-1 / 15)
        assert isinstance(floats.m4, float)
