"""Hypercube combinatorics: points, orbits, regions, invariant designs."""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from orbitdesign import MomentSet, OrbitDesign, OrbitDesignError, Region, optimal_design
from orbitdesign.moments import design_moments, orbit_moment
from orbitdesign.orbits import (
    MAX_ORBIT_POINTS,
    enumerate_orbit,
    orbit_blocks,
    orbit_size,
    size_digits,
    weight_per_point,
)


def pascal_binomial(n, k):
    """Independent oracle: Pascal-triangle recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


class TestActiveCount:
    def test_matches_sum_formula(self):
        for k_factors in range(1, 9):
            for k in range(k_factors + 1):
                for x in enumerate_orbit(k_factors, k):
                    assert x.count(1) == (sum(x) + k_factors) // 2 == k


class TestOrbitSize:
    def test_examples(self):
        assert orbit_size(6, 2) == 15
        assert orbit_size(6, 3) == 20
        assert orbit_size(22, 11) == 705432

    @pytest.mark.parametrize("k", [-1, 7])
    def test_one_orbit_index_rule(self, k):
        # Sizes, designs and moments refuse an orbit index by one rule.
        message = rf"^orbit index must be in 0\.\.6, got {k}$"
        for refused in (
            lambda: orbit_size(6, k),
            lambda: OrbitDesign(6, {k: 1}),
            lambda: OrbitDesign(6, {k: 1}, symmetric=True),
            lambda: orbit_moment(6, k, 2),
        ):
            with pytest.raises(OrbitDesignError, match=message):
                refused()

    def test_against_pascal_recurrence(self):
        for n in range(23):
            for k in range(n + 1):
                assert orbit_size(n, k) == pascal_binomial(n, k)

    def test_sizes_sum_to_cube(self):
        for k_factors in range(1, 13):
            assert sum(orbit_size(k_factors, k) for k in range(k_factors + 1)) == (
                2**k_factors
            )

    def test_out_of_range(self):
        with pytest.raises(OrbitDesignError):
            orbit_size(6, 7)
        with pytest.raises(OrbitDesignError):
            orbit_size(6, -1)
        # Sizes are exact for any K; a listing is capped by its orbit size,
        # not by K.  Near the cap only the first item is drawn.
        assert orbit_size(76, 38) == math.comb(76, 38)
        assert len(list(enumerate_orbit(65, 1))) == 65
        for listing in (enumerate_orbit, orbit_blocks):
            assert next(listing(64, 32))
            with pytest.raises(OrbitDesignError, match=f"at most {MAX_ORBIT_POINTS} points"):
                next(listing(66, 33))


    def test_size_digits_leaves_the_digit_limit_alone(self, monkeypatch):
        def refuse(limit):
            raise AssertionError("the int-to-str digit limit must not change")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        size = math.comb(14292, 7146)
        digits = size_digits(size)
        assert len(digits) == 4301 > sys.get_int_max_str_digits()
        # Read back in chunks that each stay within the limit.
        value = 0
        for start in range(0, len(digits), 1000):
            chunk = digits[start : start + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == size
        assert size_digits(20) == "20" and size_digits(1) == "1"


class TestEnumerateOrbit:
    def test_two_factor_orbit(self):
        assert list(enumerate_orbit(2, 1)) == [(1, -1), (-1, 1)]

    def test_all_low(self):
        assert list(enumerate_orbit(3, 0)) == [(-1, -1, -1)]

    def test_first_point_and_count(self):
        points = list(enumerate_orbit(6, 2))
        assert len(points) == 15
        assert points[0] == (1, 1, -1, -1, -1, -1)

    def test_distinct_ordered_and_on_orbit(self):
        for k_factors in range(1, 8):
            for k in range(k_factors + 1):
                points = list(enumerate_orbit(k_factors, k))
                assert len(points) == orbit_size(k_factors, k)
                assert len(set(points)) == len(points)
                assert all(x.count(1) == k for x in points)
                subsets = [
                    tuple(i for i, e in enumerate(x) if e == 1) for x in points
                ]
                assert subsets == sorted(subsets)


class TestOrbitBlocks:
    def test_matches_enumerate_orbit(self):
        # K = 0..10 is a single block; K = 11..16 walks prefixes of 1..6 coordinates.
        for k_factors in range(17):
            for k in range(k_factors + 1):
                points = [p + s for p, suffixes in orbit_blocks(k_factors, k) for s in suffixes]
                expected = [
                    "".join("+" if v == 1 else "-" for v in x)
                    for x in enumerate_orbit(k_factors, k)
                ]
                assert points == expected, (k_factors, k)

    @pytest.mark.parametrize("k", [0, 1, 2, 62, 63, 64])
    def test_block_sizes_sum_to_orbit_size_at_k64(self, k):
        blocks = list(orbit_blocks(64, k))
        assert sum(len(suffixes) for _, suffixes in blocks) == math.comb(64, k)
        assert all(len(prefix) == 54 for prefix, _ in blocks)

    def test_out_of_range(self):
        with pytest.raises(OrbitDesignError):
            next(orbit_blocks(5, 6))


class TestRegion:
    def test_symmetric_predicate(self):
        assert Region(6, 2, 4).symmetric()
        assert not Region(6, 2, 5).symmetric()

    def test_validation(self):
        with pytest.raises(OrbitDesignError):
            Region(6, 3, 2)
        with pytest.raises(OrbitDesignError):
            Region(6, -1, 4)
        with pytest.raises(OrbitDesignError):
            Region(6, 0, 7)
        with pytest.raises(OrbitDesignError, match="need K >= 2, got 0$"):
            Region(0, 0, 0)


class TestOrbitDesign:
    def test_symmetric_mirrors_on_read(self):
        d = OrbitDesign(6, {1: Fraction(3, 16), 3: Fraction(5, 8)}, symmetric=True)
        assert d.weight(5) == Fraction(3, 16)
        assert d.weight(1) == Fraction(3, 16)
        assert d.weight(2) == 0
        assert d.support() == (1, 3, 5)
        assert {min(k, 6 - k) for k in d.support()} == {1, 3}

    def test_symmetric_rejects_upper_half_keys(self):
        with pytest.raises(OrbitDesignError):
            OrbitDesign(6, {4: Fraction(1, 2), 3: Fraction(1, 2)}, symmetric=True)
        with pytest.raises(OrbitDesignError, match=r"orbit index must be in 0\.\.6, got 7$"):
            OrbitDesign(6, {7: 1}, symmetric=True)

    def test_needs_a_factor(self):
        with pytest.raises(OrbitDesignError, match="need K >= 2, got 0$"):
            OrbitDesign(0, {0: 1})

    def test_weight_sum_enforced(self):
        with pytest.raises(OrbitDesignError):
            OrbitDesign(6, {2: 0.5, 3: 0.4})
        with pytest.raises(OrbitDesignError):
            OrbitDesign(6, {2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(1, 2)})

    def test_negative_weight_rejected(self):
        with pytest.raises(OrbitDesignError):
            OrbitDesign(6, {2: -0.1, 3: 1.1})

    def test_zero_weights_dropped(self):
        d = OrbitDesign(4, {0: Fraction(0), 2: Fraction(1)})
        assert d.support() == (2,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        # NaN fails both w < 0 and w > 0, so a sign test alone would drop it.
        with pytest.raises(OrbitDesignError, match="must be finite.*at k=0"):
            OrbitDesign(4, {0: bad, 2: 1.0})
        with pytest.raises(OrbitDesignError, match="must be finite.*at k=1"):
            OrbitDesign(4, {1: bad, 2: 0.5}, symmetric=True)

    def test_weight_sum_rule_is_exact(self):
        for offset, accepted in ((Fraction(5, 10**13), True), (Fraction(2, 10**12), False)):
            for sign in (1, -1):
                weights = {2: Fraction(1, 2), 3: Fraction(1, 2) + sign * offset}
                if accepted:
                    assert OrbitDesign(6, weights).support() == (2, 3)
                else:
                    with pytest.raises(OrbitDesignError, match="must sum to 1"):
                        OrbitDesign(6, weights)
        # A total beyond the float range is rejected, not an OverflowError.
        with pytest.raises(OrbitDesignError, match="must sum to 1, got inf"):
            OrbitDesign(6, {2: 1e308, 3: 1e308})

    def test_ten_float_tenths_accepted(self):
        # The float sum reads 0.9999999999999999; the exact sum of the ten
        # binary rationals is within 1e-15 of 1.
        assert sum([0.1] * 10) != 1
        d = OrbitDesign(12, dict.fromkeys(range(10), 0.1))
        assert d.support() == tuple(range(10))

    def test_numpy_integer_weight_is_read(self):
        np = pytest.importorskip("numpy")
        d = OrbitDesign(4, {2: np.int64(1), 0: np.int64(0)})
        assert d.support() == (2,)
        assert design_moments(d) == MomentSet(*(orbit_moment(4, 2, j) for j in range(1, 5)))

    def test_immutable(self):
        d = OrbitDesign(4, {2: Fraction(1)})
        with pytest.raises(AttributeError):
            d.k_factors = 5

    def test_equal_designs_hash_alike(self):
        # The same weights, given by the half as Fractions and by every
        # orbit as floats: equality and hashing read the weights, not how
        # they were given.
        half_weights = {0: Fraction(1, 8), 1: Fraction(1, 4), 3: Fraction(1, 4)}
        half = OrbitDesign(6, half_weights, symmetric=True)
        full = OrbitDesign(6, {0: 0.125, 6: 0.125, 1: 0.25, 5: 0.25, 3: 0.25})
        assert half == full and full == half
        assert hash(half) == hash(full)
        assert len({half, full}) == 1
        assert half != OrbitDesign(6, {0: 0.25, 6: 0.25, 3: 0.5})

    def test_not_equal_to_other_types(self):
        design = OrbitDesign(4, {2: Fraction(1)})
        assert (design == 3) is False
        assert design.__eq__(3) is NotImplemented


class TestPointWeight:
    def test_reference_point_weights(self):
        # Optimal narrow design for K=6 on [2, 4]: w* = (45 - 6 sqrt(37)) / 22.
        w = (45 - 6 * 37**0.5) / 22
        d = OrbitDesign(6, {2: w, 3: 1 - 2 * w}, symmetric=True)
        assert round(weight_per_point(d.weight(2), orbit_size(6, 2)), 4) == 0.0258
        assert round(weight_per_point(d.weight(3), orbit_size(6, 3)), 4) == 0.0113
        assert round(weight_per_point(d.weight(4), orbit_size(6, 4)), 4) == 0.0258

    def test_unsupported_orbit_is_zero(self):
        d = OrbitDesign(6, {2: 0.3865, 3: 0.2270}, symmetric=True)
        assert weight_per_point(d.weight(0), orbit_size(6, 0)) == 0

    def test_point_weights_recombine_to_one(self):
        designs = [
            OrbitDesign(6, {1: Fraction(3, 16), 3: Fraction(5, 8)}, symmetric=True),
            OrbitDesign(5, {0: Fraction(1, 3), 2: Fraction(2, 3)}),
            OrbitDesign(7, {2: 0.25, 3: 0.25}, symmetric=True),
        ]
        for d in designs:
            total = sum(
                weight_per_point(d.weight(k), orbit_size(d.k_factors, k))
                * orbit_size(d.k_factors, k)
                for k in d.support()
            )
            assert abs(total - 1) <= 1e-12

    def test_orbit_beyond_float_range_divides_exactly(self):
        # C(1030, 515) exceeds the float range, so float / size would overflow.
        d = OrbitDesign(1030, {0: 0.5, 515: 0.5})
        exact = float(Fraction(1, 2 * math.comb(1030, 515)))
        assert weight_per_point(d.weight(515), orbit_size(1030, 515)) == exact > 0
        assert weight_per_point(d.weight(0), orbit_size(1030, 0)) == 0.5
        # 2^53 < C(57, 25): float / size would round the size first.
        w = 0.13436424411240122
        assert weight_per_point(w, math.comb(57, 25)) == 1.3531861540661757e-17
        # Fraction and int weights take the same rule and return a float too.
        for w, size in ((Fraction(1, 3), math.comb(57, 25)), (1, math.comb(1030, 515))):
            per_point = weight_per_point(w, size)
            assert type(per_point) is float
            assert per_point == float(Fraction(w) / size) > 0

    def test_designs_k50_to_70_divide_exactly(self):
        # Every orbit of every optimal design for K = 50..70; many of their
        # sizes lie between 2^53 and the float range.
        for k_factors in range(50, 71):
            for lower in range(k_factors // 2):
                design = optimal_design(k_factors, lower).design
                for k in design.support():
                    w, size = float(design.weight(k)), math.comb(k_factors, k)
                    assert weight_per_point(w, size) == float(Fraction(w) / size), (
                        k_factors, lower, k,
                    )
