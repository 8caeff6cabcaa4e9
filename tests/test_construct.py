"""Design constructors against the frozen reference tables."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import pytest

import orbitdesign.construct
from orbitdesign import (
    EstimabilityError,
    MomentSet,
    OrbitDesign,
    OrbitDesignError,
    UnsupportedRegionError,
    WrongRegimeError,
    full_factorial,
    kw_check,
    lemma2_design,
    narrow_design,
    optimal_design,
    regime,
    threshold_b,
    wide_design,
)
from orbitdesign.construct import (
    SEARCH_MAX_EVALUATIONS,
    admissible_ells,
    minimize_scalar,
)
from orbitdesign.info_matrix import log_det_symmetric
from orbitdesign.moments import design_moments
from orbitdesign.orbits import orbit_size

from reference_tables import NARROW_ROWS, WIDE_ROWS

# Printed values are rounded to 4 decimals, so the true value is within
# 5e-5; exact ties (1/32 printed as 0.0312) need a whisker of float headroom.
TABLE_TOL = 5e-5 + 1e-12


def is_integer_threshold(k_factors):
    """Oracle: B_K = (K - sqrt(disc)) / 2 is an integer, written out in integers."""
    disc = 3 * k_factors - 2 if k_factors % 2 == 0 else 3 * k_factors
    root = math.isqrt(disc)
    return root * root == disc and (k_factors - root) % 2 == 0


class TestThreshold:
    def test_reference_values(self):
        assert threshold_b(6) == 1.0
        assert threshold_b(22) == 7.0
        assert round(threshold_b(4), 2) == 0.42

    def test_integer_predicate(self):
        # Lemma 2 applies exactly where B_K is an integer; regime is the one
        # threshold test, so lemma2_design and regime agree with it over K.
        thresholds = []
        for K in range(2, 10_001):
            integer = is_integer_threshold(K)
            root = math.isqrt(3 * K - 2 if K % 2 == 0 else 3 * K)
            at_threshold = regime(K, (K - root) // 2) in ("threshold", "full-factorial")
            try:
                lemma2_design(K)
            except OrbitDesignError:
                built = False
            else:
                built = True
            assert built == at_threshold == integer, K
            if integer:
                thresholds.append(K)
        assert thresholds[:6] == [2, 3, 6, 22, 27, 34]

    @pytest.mark.parametrize("k_factors", [-3, -2, -1, 0, 1])
    def test_needs_two_factors(self, k_factors):
        calls = [
            threshold_b,
            lemma2_design,
            lambda k: regime(k, 0),
            lambda k: wide_design(k, 0),
            lambda k: narrow_design(k, 0),
            lambda k: optimal_design(k, 0),
            full_factorial,
        ]
        for call in calls:
            with pytest.raises(OrbitDesignError, match=f"need K >= 2, got {k_factors}$"):
                call(k_factors)

    def test_matches_table_column(self):
        for row in WIDE_ROWS + NARROW_ROWS:
            k_factors, b_printed = row[0], row[-1]
            assert round(threshold_b(k_factors), 2) == pytest.approx(b_printed)


class TestLemma2:
    def test_k6(self):
        d = lemma2_design(6)
        assert d.weights() == {
            1: Fraction(3, 16),
            3: Fraction(5, 8),
            5: Fraction(3, 16),
        }

    def test_k22(self):
        d = lemma2_design(22)
        assert d.weight(7) == Fraction(11, 64)
        assert d.weight(15) == Fraction(11, 64)
        assert d.weight(11) == Fraction(21, 32)

    def test_k3_recovers_full_factorial(self):
        assert lemma2_design(3) == full_factorial(3)

    def test_k27_four_orbits(self):
        d = lemma2_design(27)
        assert d.support() == (9, 13, 14, 18)
        assert d.weight(9) == Fraction(13, 80)
        assert d.weight(13) == Fraction(27, 80)

    def test_moments_vanish_exactly(self):
        for k_factors in (2, 3, 6, 22, 27, 34):
            m = design_moments(lemma2_design(k_factors))
            assert m == MomentSet(0, 0, 0, 0)

    def test_rejects_non_integer_threshold(self):
        with pytest.raises(OrbitDesignError):
            lemma2_design(8)


def reference_wide_design(k_factors, lower, ell):
    """Wide-design weights as Fraction algebra: alpha w_L on the L pair,
    (1 - alpha) w_ell on the ell pair and the rest on the centre, with
    w_x = K / (2 t_x^2) (even K) or (K - 1) / (2 (t_x^2 - 1)) (odd K) and
    t_x = K - 2x; alpha = 1 without an ell.  Returns alpha and the expanded
    weights."""
    K = k_factors
    disc = 3 * K - 2 if K % 2 == 0 else 3 * K

    def inner(orbit):
        t = K - 2 * orbit
        return Fraction(K, 2 * t * t) if K % 2 == 0 else Fraction(K - 1, 2 * (t * t - 1))

    alpha, w_ell = Fraction(1), Fraction(0)
    if ell is not None:
        alpha = Fraction(disc - (K - 2 * ell) ** 2, 4 * (ell - lower) * (K - lower - ell))
        w_ell = inner(ell)
    w_low = inner(lower)
    center = alpha * (1 - 2 * w_low) + (1 - alpha) * (1 - 2 * w_ell)
    half = {lower: alpha * w_low, K // 2: center / (1 + K % 2)}
    if ell is not None:
        half[ell] = (1 - alpha) * w_ell
    weights = {}
    for k, w in half.items():
        if w > 0:
            weights[k] = weights[K - k] = w
    return alpha, weights


def wide_and_threshold_regions(max_k):
    """(K, L, default ell) of every wide and threshold region [L, K-L], K = 4..max_k."""
    regions = []
    for K in range(4, max_k + 1):
        disc = 3 * K - 2 if K % 2 == 0 else 3 * K
        ells = [e for e in range(K // 2 + 1) if K <= (K - 2 * e) ** 2 <= disc]
        for lower in range(K // 2):
            t2 = (K - 2 * lower) ** 2
            if t2 >= disc:
                regions.append((K, lower, ells[0] if t2 > disc else None))
    return regions


class TestWideDesign:
    def test_weights_equal_fraction_reference(self):
        regions = wide_and_threshold_regions(100)
        assert len(regions) == 1998
        for k_factors, lower, ell in regions:
            spec = wide_design(k_factors, lower)
            alpha, weights = reference_wide_design(k_factors, lower, ell)
            assert spec.ell == ell
            assert spec.alpha == alpha
            assert spec.design.weights() == weights, (k_factors, lower)
            assert design_moments(spec.design) == MomentSet(0, 0, 0, 0)

    def test_every_admissible_ell_equals_fraction_reference(self):
        # Includes ell at the threshold (alpha = 0, the L pair drops out)
        # and L at the threshold (alpha = 1, the ell pair drops out).
        for k_factors, lower, _ in wide_and_threshold_regions(40):
            for ell in admissible_ells(k_factors):
                if ell > lower:
                    spec = wide_design(k_factors, lower, ell)
                    alpha, weights = reference_wide_design(k_factors, lower, ell)
                    assert spec.alpha == alpha
                    assert spec.design.weights() == weights, (k_factors, lower, ell)

    @pytest.mark.parametrize("row", WIDE_ROWS, ids=lambda r: f"K{r[0]}-L{r[1]}-ell{r[2]}")
    def test_reference_rows(self, row):
        k_factors, lower, ell, center, w_low, w_ell, w_center, _ = row
        spec = wide_design(k_factors, lower, ell)
        design = spec.design
        for orbit, printed in ((lower, w_low), (ell, w_ell), (center, w_center)):
            if orbit is None:
                continue
            actual = float(design.weight(orbit))
            expected = 0.0 if printed is None else printed
            assert actual == pytest.approx(expected, abs=TABLE_TOL)
        assert design_moments(design) == MomentSet(0, 0, 0, 0)
        assert 0 <= spec.alpha <= 1

    def test_support_within_region_and_three_orbits(self):
        for row in WIDE_ROWS:
            k_factors, lower, ell = row[0], row[1], row[2]
            design = wide_design(k_factors, lower, ell).design
            assert all(lower <= k <= k_factors - lower for k in design.support())
            assert len({min(k, k_factors - k) for k in design.support()}) <= 3

    def test_default_ell_is_smallest_admissible(self):
        assert wide_design(9, 0).ell == 2
        assert wide_design(22, 0).ell == 7
        assert wide_design(4, 0).ell == 1

    def test_threshold_lower_returns_two_orbit_design(self):
        spec = wide_design(22, 7)
        assert spec.ell is None
        assert spec.alpha == 1
        assert spec.design == lemma2_design(22)

    def test_threshold_lower_with_explicit_ell(self):
        spec = wide_design(22, 7, 8)
        assert spec.alpha == 1
        assert spec.design == lemma2_design(22)

    def test_small_k_full_factorial(self):
        for k_factors in (2, 3):
            spec = wide_design(k_factors, 0)
            assert spec.design == full_factorial(k_factors)

    def test_small_k_with_restriction_rejected(self):
        with pytest.raises(EstimabilityError):
            wide_design(3, 1)
        with pytest.raises(EstimabilityError):
            wide_design(2, 1)

    def test_negative_lower_rejected(self):
        message = "need 0 <= lower <= upper <= 12, got lower=-1, upper=13$"
        with pytest.raises(OrbitDesignError, match=message):
            wide_design(12, -1)

    def test_narrow_lower_rejected(self):
        with pytest.raises(WrongRegimeError):
            wide_design(6, 2)

    def test_invalid_ell_rejected(self):
        with pytest.raises(OrbitDesignError):
            wide_design(9, 0, 4)  # beyond (K - sqrt(K)) / 2
        with pytest.raises(OrbitDesignError):
            wide_design(9, 1, 1)  # must exceed lower
        with pytest.raises(OrbitDesignError):
            wide_design(22, 0, 6)  # below the threshold


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def error_line(prefix, error):
    return f"{prefix} {type(error).__name__}: {error}"


class TestIdentityDesignsFrozen:
    """Every identity design, and every error of their constructors, as
    printed: ell, alpha and the exact weights of wide_design for K = 2..100,
    every L and every ell, and lemma2_design for K = 2..10,000."""

    def test_wide_family_digest(self):
        lines = []
        for K in range(2, 101):
            for L in range(K // 2 + 1):
                for ell in (None, *admissible_ells(K)):
                    try:
                        s = wide_design(K, L, ell)
                    except OrbitDesignError as e:
                        lines.append(error_line(f"{K} {L} {ell}", e))
                    else:
                        lines.append(f"{K} {L} {ell} {s.ell} {s.alpha} {s.design!r}")
        assert len(lines) == 10378
        assert digest(lines) == "7d9b61a8da0a2d45"

    def test_lemma2_digest(self):
        lines = []
        for K in range(2, 10_001):
            try:
                lines.append(f"{K} {lemma2_design(K)!r}")
            except OrbitDesignError as e:
                lines.append(error_line(K, e))
        assert digest(lines) == "3ffa94bead143744"

    def test_one_pair_weights_equal_lemma2_closed_form(self):
        thresholds = [K for K in range(2, 10_001) if is_integer_threshold(K)]
        assert thresholds[:6] == [2, 3, 6, 22, 27, 34]
        for K in thresholds:
            if K % 2 == 0:
                w_outer = Fraction(K, 2 * (3 * K - 2))
            else:
                w_outer = Fraction(K - 1, 2 * (3 * K - 1))
            lower, centre = round(threshold_b(K)), (1 - 2 * w_outer) / (1 + K % 2)
            spec = wide_design(K, lower)
            assert (spec.ell, spec.alpha) == (None, 1)
            assert spec.design.weights() == {
                lower: w_outer, K - lower: w_outer, K // 2: centre, (K + 1) // 2: centre
            }, K
            assert lemma2_design(K) == spec.design


def fraction_twin(design):
    """The design the public constructor builds from the same weights,
    given by their half as Fractions; read from the integers alone, so the
    design's own Fraction weights stay unbuilt."""
    K, scale = design.k_factors, design._scale
    half = {k: Fraction(n, scale) for k, n in design._numerators.items() if k <= K // 2}
    return OrbitDesign(K, half, symmetric=True)


def assert_entries_agree(design):
    """An integer-built design against its Fraction-built twin, on every
    read; its weights are built on the first read, and it stays immutable."""
    assert design._weights is None
    assert sum(design._numerators.values()) == design._scale
    twin = fraction_twin(design)
    K = design.k_factors
    assert design_moments(design) == design_moments(twin)
    assert design.support() == twin.support()
    assert design._weights is None
    assert repr(design) == repr(twin)
    weights = design.weights()
    assert list(weights.items()) == list(twin.weights().items())
    assert all(type(w) is Fraction for w in weights.values())
    for k in range(K + 1):
        assert design.weight(k) == twin.weight(k)
        assert type(design.weight(k)) is type(twin.weight(k))
    assert hash(design) == hash(twin)
    assert design == twin and twin == design
    weights[design.support()[0]] = Fraction(2)
    weights.clear()
    assert design.weights() == twin.weights()
    with pytest.raises(AttributeError):
        design.k_factors = K + 1
    with pytest.raises(AttributeError):
        design._weights = {}
    assert design.k_factors == K and design.weights() == twin.weights()


class TestIntegerEntry:
    """wide_design and full_factorial hand OrbitDesign integer numerators;
    their designs equal the ones built from Fraction weights."""

    def test_wide_designs_every_ell(self):
        count = 0
        for K in range(2, 101):
            for lower in range(K // 2):
                if regime(K, lower) == "narrow":
                    continue
                ells = [e for e in admissible_ells(K) if e > lower]
                for ell in (None, *ells):
                    assert_entries_agree(wide_design(K, lower, ell).design)
                    count += 1
        assert count == 8073

    def test_lemma2_and_optimal_designs(self):
        for K in (2, 3, 6, 22, 27):
            assert_entries_agree(lemma2_design(K))
            assert_entries_agree(optimal_design(K, 0).design)

    def test_full_factorial(self):
        for K in range(2, 31):
            assert_entries_agree(full_factorial(K))

    def test_large_k(self):
        assert_entries_agree(wide_design(14292, 7000).design)

    def test_refusals_match_the_constructor(self):
        # Both entries end in one check: the same refusal, word for word.
        cases = [
            (1, {0: 1, 1: 1}, 2),
            (6, {7: 1}, 1),
            (6, {2: -1, 3: 11}, 10),
            (6, {2: 1, 3: 2}, 2),
        ]
        for K, numerators, scale in cases:
            with pytest.raises(OrbitDesignError) as from_numerators:
                OrbitDesign._from_numerators(K, numerators, scale)
            with pytest.raises(OrbitDesignError) as from_weights:
                OrbitDesign(K, {k: Fraction(n, scale) for k, n in numerators.items()})
            assert str(from_numerators.value) == str(from_weights.value)
        with pytest.raises(OrbitDesignError, match="symmetric designs store orbits k <= 3 only"):
            OrbitDesign._from_numerators(6, {4: 1}, 2, symmetric=True)


class TestNarrowDesign:
    @pytest.mark.parametrize("row", NARROW_ROWS, ids=lambda r: f"K{r[0]}-L{r[1]}")
    def test_reference_rows(self, row):
        k_factors, lower, center, w_low, w_center, efficiency, _ = row
        spec = narrow_design(k_factors, lower)
        assert spec.w_star == pytest.approx(w_low, abs=TABLE_TOL)
        assert float(spec.design.weight(center)) == pytest.approx(
            w_center, abs=TABLE_TOL
        )
        assert spec.d_efficiency == pytest.approx(efficiency, abs=TABLE_TOL)
        assert spec.kw_report.passed

    def test_k6_closed_form(self):
        spec = narrow_design(6, 2)
        assert abs(spec.w_star - (45 - 6 * math.sqrt(37)) / 22) <= 1e-12

    def test_interior_unique_maximum(self):
        for k_factors, lower in ((6, 2), (8, 3), (11, 3), (22, 10)):
            spec = narrow_design(k_factors, lower)
            assert 0 < spec.w_star < 0.5
            for delta in (-1e-6, 1e-6):
                w = spec.w_star + delta
                if k_factors % 2 == 0:
                    d = OrbitDesign(
                        k_factors, {lower: w, k_factors // 2: 1 - 2 * w}, symmetric=True
                    )
                else:
                    d = OrbitDesign(
                        k_factors,
                        {lower: w, (k_factors - 1) // 2: 0.5 - w},
                        symmetric=True,
                    )
                perturbed = log_det_symmetric(k_factors, design_moments(d))
                assert perturbed < spec.log_det

    def test_threshold_equality_cases_still_optimizable(self):
        # Odd K with (K - 2L)^2 = 3K - 2: above the odd threshold, so the
        # two-orbit optimization applies even though the reference table
        # skips these rows.
        for k_factors, lower in ((9, 2), (17, 5)):
            spec = narrow_design(k_factors, lower)
            assert spec.kw_report.passed
            assert 0 < spec.w_star < 0.5

    def test_wide_lower_rejected(self):
        with pytest.raises(WrongRegimeError):
            narrow_design(6, 1)
        with pytest.raises(WrongRegimeError):
            narrow_design(22, 7)

    def test_single_orbit_region_rejected(self):
        with pytest.raises(EstimabilityError):
            narrow_design(6, 3)
        with pytest.raises(EstimabilityError):
            narrow_design(9, 4)

    def test_empty_region_rejected(self):
        with pytest.raises(OrbitDesignError):
            narrow_design(6, 4)

    def test_small_k_rejected(self):
        with pytest.raises(EstimabilityError):
            narrow_design(3, 1)

    def test_solver_trace_on_every_region_up_to_k100(self):
        for k_factors in range(4, 101):
            for lower in range(k_factors // 2):
                if regime(k_factors, lower) != "narrow":
                    continue
                spec = narrow_design(k_factors, lower)
                assert spec.evaluations <= 30, (k_factors, lower, spec.evaluations)
                assert math.isfinite(spec.residual), (k_factors, lower)


class TestMinimizeScalar:
    def test_converges_inside_the_bracket(self):
        # -(log w + 2 log(1/2 - w)) is strictly convex on (0, 1/2) and
        # minimal at w = 1/6.
        points = []

        def derivatives(w):
            points.append(w)
            return -1 / w + 2 / (0.5 - w), 1 / w**2 + 2 / (0.5 - w) ** 2

        w, evaluations = minimize_scalar(derivatives, 0.0, 0.5)
        assert w == pytest.approx(1 / 6, abs=1e-12)
        assert evaluations == len(points) <= 30
        assert all(0 < x < 0.5 for x in points)

    def test_newton_step_leaving_the_bracket_bisects(self):
        # f with f' = atan(x - 1) is strictly convex and minimal at x = 1.
        # Plain Newton from the midpoint 10 diverges (its first step lands
        # near -110), so the search has to bisect before Newton takes over.
        points = []

        def derivatives(x):
            points.append(x)
            return math.atan(x - 1), 1 / (1 + (x - 1) ** 2)

        x, _ = minimize_scalar(derivatives, -10.0, 30.0)
        assert x == pytest.approx(1, abs=1e-12)
        assert points[:2] == [10.0, 0.0]
        assert all(-10 < p < 30 for p in points)

    def test_collapsed_bracket_stops(self):
        # |x - 1/3| has second derivative 0, so no Newton step is taken and
        # every step bisects; the search stops once the bracket is narrower
        # than SEARCH_XTOL, before the evaluation cap.
        kink = 1 / 3

        def derivatives(x):
            return (1.0 if x > kink else -1.0), 0.0

        x, evaluations = minimize_scalar(derivatives, 0.0, 1.0)
        assert evaluations < SEARCH_MAX_EVALUATIONS
        assert abs(x - kink) <= 1e-12


class TestAsymmetricReduce:
    """optimal_design reduces asymmetric bounds to the stricter side max(L, K-U)."""

    def test_reduces_to_stricter_side(self):
        assert optimal_design(6, 0, 5).design == wide_design(6, 1).design
        assert optimal_design(9, 1, 9).design == wide_design(9, 1).design

    def test_support_inside_region(self):
        design = optimal_design(8, 1, 7).design
        assert all(1 <= k <= 7 for k in design.support())

    def test_narrow_asymmetric_rejected(self):
        with pytest.raises(UnsupportedRegionError):
            optimal_design(8, 3, 6)


class TestRegime:
    def test_regime_names(self):
        assert regime(3, 0) == "full-factorial"
        assert regime(6, 0) == "wide"
        assert regime(6, 1) == "threshold"
        assert regime(6, 2) == "narrow"
        assert regime(22, 7) == "threshold"

    def test_beyond_centre_is_narrow(self):
        # (K - 2L)^2 alone would call these wide.
        for k_factors, lower in ((6, 5), (6, 6), (16, 12), (16, 16), (3, 3)):
            assert regime(k_factors, lower) == "narrow"

    def test_admissible_ells_band(self):
        assert list(admissible_ells(9)) == [2, 3]
        assert list(admissible_ells(22)) == [7, 8]
        for k_factors in range(4, 65):
            ells = list(admissible_ells(k_factors))
            assert ells == list(range(ells[0], ells[-1] + 1))
            assert threshold_b(k_factors) <= ells[0]
            assert ells[-1] <= (k_factors - math.sqrt(k_factors)) / 2

    def test_admissible_ells_match_their_definition(self):
        # Every ell with K <= (K - 2 ell)^2 <= disc, by a scan over 0..K/2.
        for K in range(-3, 400):
            disc = 3 * K - 2 if K % 2 == 0 else 3 * K
            scan = [ell for ell in range(K // 2 + 1) if K <= (K - 2 * ell) ** 2 <= disc]
            assert list(admissible_ells(K)) == scan, K

    def test_wide_design_beyond_centre_rejected(self):
        # L = 5 > K/2 leaves [5, 1], which is no region.
        message = "need 0 <= lower <= upper <= 6, got lower=5, upper=1$"
        with pytest.raises(OrbitDesignError, match=message):
            wide_design(6, 5)

    def test_ell_rejected_for_full_factorial(self):
        with pytest.raises(OrbitDesignError, match="ell does not apply"):
            wide_design(3, 0, 1)


def _outcome(construct, k_factors, lower):
    try:
        construct(k_factors, lower)
    except OrbitDesignError as e:
        return e
    return None


class TestSymmetricGate:
    def test_constructors_agree(self):
        # A redirect names a constructor that succeeds, a region one of them
        # builds is not refused by the other but redirected, and any other
        # refusal is the same error from both.
        violations = []
        for K in range(-1, 41):
            for L in range(-2, K + 3):
                wide, narrow = _outcome(wide_design, K, L), _outcome(narrow_design, K, L)
                if isinstance(wide, WrongRegimeError):
                    agree = narrow is None
                elif isinstance(narrow, WrongRegimeError):
                    agree = wide is None
                else:
                    agree = None not in (wide, narrow) and (
                        (type(wide), str(wide)) == (type(narrow), str(narrow))
                    )
                if not agree:
                    violations.append((K, L, repr(wide), repr(narrow)))
        assert violations == []


def _check_region(k_factors, lower, upper):
    """optimal_design certifies the region, or refuses it for a stated reason."""
    symmetric = lower + upper == k_factors
    effective = max(lower, k_factors - upper)
    try:
        result = optimal_design(k_factors, lower, upper)
    except UnsupportedRegionError:
        assert not symmetric and effective > threshold_b(k_factors)
        return
    except EstimabilityError:
        assert symmetric and (k_factors <= 3 or lower == k_factors // 2)
        return
    assert result.kw_report.passed
    assert all(lower <= k <= upper for k in result.design.support())
    assert (result.regime == "narrow") == (effective > threshold_b(k_factors))
    assert (result.regime == "threshold") == (
        k_factors > 3 and effective == threshold_b(k_factors)
    )
    assert (result.regime == "full-factorial") == (k_factors <= 3)


class TestRegionSweep:
    def test_every_region_small_k(self):
        for k_factors in range(2, 17):
            for lower in range(k_factors + 1):
                for upper in range(lower, k_factors + 1):
                    _check_region(k_factors, lower, upper)

    def test_every_symmetric_region_up_to_k64(self):
        for k_factors in range(2, 65):
            for lower in range(k_factors // 2 + 1):
                _check_region(k_factors, lower, k_factors - lower)

    def test_record_matches_constructors(self):
        result = optimal_design(6, 2)
        spec = narrow_design(6, 2)
        assert (result.lower, result.upper, result.regime) == (2, 4, "narrow")
        assert result.design == spec.design
        assert result.log_det == spec.log_det
        assert result.d_efficiency == spec.d_efficiency
        assert result.moments == design_moments(spec.design)
        wide = optimal_design(12, 3, ell=4)
        assert wide.design == wide_design(12, 3, 4).design
        assert wide.moments == MomentSet(0, 0, 0, 0)
        assert (wide.log_det, wide.d_efficiency) == (0.0, 1.0)

    def test_tolerance_judges_the_same_certificate(self):
        loose = optimal_design(6, 2)
        tight = optimal_design(6, 2, tol=1e-20)
        assert loose.kw_report.passed and not tight.kw_report.passed
        assert tight.kw_report.max_violation == loose.kw_report.max_violation
        assert tight.kw_report.tol == 1e-20

    @pytest.mark.parametrize(
        "k_factors, lower, calls",
        # Wide, threshold (B_22 = 7) and narrow regions.
        [(20, 3, 0), (22, 7, 0), (20, 8, 1)],
    )
    def test_log_det_is_computed_only_when_nonzero(self, monkeypatch, k_factors, lower, calls):
        counted = []
        original = orbitdesign.construct.log_det_symmetric

        def counting(*args):
            counted.append(args)
            return original(*args)

        monkeypatch.setattr(orbitdesign.construct, "log_det_symmetric", counting)
        result = optimal_design(k_factors, lower)
        assert len(counted) == calls
        assert result.regime == regime(k_factors, lower)
        if calls == 0:
            assert (result.log_det, result.d_efficiency) == (0.0, 1.0)
            assert type(result.log_det) is float
        else:
            assert result.log_det == original(k_factors, result.moments) < 0

    def test_ell_in_narrow_regime_rejected(self):
        with pytest.raises(OrbitDesignError, match="wide regime"):
            optimal_design(6, 2, ell=3)


class TestCertification:
    def test_wide_designs_pass_kw(self):
        for row in WIDE_ROWS:
            k_factors, lower, ell = row[0], row[1], row[2]
            design = wide_design(k_factors, lower, ell).design
            report = kw_check(design, lower, k_factors - lower)
            assert report.passed
            # Identity information: the sensitivity is flat at p everywhere.
            assert report.max_violation <= 1e-9

    def test_narrow_designs_certify_at_large_k(self):
        # Regions whose float certificates used to exceed the 1e-9 tolerance.
        for k_factors, lower in ((76, 37), (80, 39), (92, 45), (94, 46), (100, 49)):
            report = narrow_design(k_factors, lower).kw_report
            assert report.passed and abs(report.max_violation) <= 1e-10

    @pytest.mark.parametrize("k_factors, lower, tol", [(4336, 2167, 1e-8), (12000, 5999, 1e-7)])
    def test_caller_judges_a_large_k_certificate(self, k_factors, lower, tol):
        # The excess a double w* leaves exceeds the absolute default at large
        # K: narrow_design returns the failing certificate, and the caller's
        # tolerance judges it.
        spec = narrow_design(k_factors, lower)
        assert not spec.kw_report.passed
        result = optimal_design(k_factors, lower, tol=tol)
        assert result.kw_report.passed
        assert result.kw_report.max_violation == spec.kw_report.max_violation
        assert result.design == spec.design

    def test_narrow_band_near_the_centre_returns_every_design(self):
        # K = 4300..4400 with the six lower bounds below the centre orbit: no
        # region raises, whatever its verdict at the default tolerance.
        for k_factors in range(4300, 4401):
            for lower in range(k_factors // 2 - 6, k_factors // 2):
                spec = narrow_design(k_factors, lower)
                assert 0 < spec.w_star < 0.5
                assert spec.kw_report.max_violation <= 1e-8, (k_factors, lower)

    def test_narrow_designs_flat_on_support(self):
        for k_factors, lower in ((6, 2), (10, 4), (13, 5)):
            spec = narrow_design(k_factors, lower)
            report = spec.kw_report
            for k in spec.design.support():
                assert abs(report.per_orbit[k] - report.p) <= 1e-9
