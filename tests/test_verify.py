"""Sensitivity polynomial, equivalence check and enumeration oracle."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

import orbitdesign.verify
from orbitdesign import (
    KwReport,
    MomentSet,
    OrbitDesign,
    OrbitDesignError,
    Region,
    SingularDesignError,
    full_factorial,
    kw_check,
    lemma2_design,
    narrow_design,
    regime,
    wide_design,
)
from orbitdesign.info_matrix import (
    assemble_general,
    d_efficiency_from_log_det,
    log_det_symmetric,
    model_dims,
)
from orbitdesign.moments import design_moments
from orbitdesign.orbits import enumerate_orbit
from orbitdesign.verify import brute_force_info, sensitivity_poly

from conftest import (
    exact_identity,
    feature_vector,
    random_asymmetric_designs,
    random_symmetric_designs,
)


def dense_sensitivity(k_factors, m, k):
    """Oracle: f(x)^T M^-1 f(x) at one representative point of orbit k."""
    info = assemble_general(k_factors, m)
    f = feature_vector(k_factors, next(enumerate_orbit(k_factors, k)))
    return float(f @ np.linalg.solve(info.dense, f))


class TestSensitivityPoly:
    def test_identity_design_is_flat_at_p(self):
        for k_factors in range(2, 101):
            poly = sensitivity_poly(k_factors, MomentSet(0, 0, 0, 0))
            p = model_dims(k_factors).p
            assert poly.numerators == (p * poly.denominator, 0, 0, 0, 0)

    def test_k6_narrow_optimum(self):
        spec = narrow_design(6, 2)
        poly = sensitivity_poly(6, design_moments(spec.design))
        for k in (2, 3, 4):
            assert float(poly.value(k)) == pytest.approx(22, abs=1e-9)
        assert Fraction(poly.numerators[4], poly.denominator) > 0

    def test_even_in_orbit_reflection(self):
        spec = narrow_design(8, 3)
        poly = sensitivity_poly(8, design_moments(spec.design))
        for k in range(9):
            assert poly.value(k) == poly.value(8 - k)

    def test_matches_dense_oracle(self):
        for k_factors in range(2, 11):
            designs = random_symmetric_designs(
                k_factors, 5, seed=400 + k_factors, min_total=0.02
            )
            designs.append(wide_design(k_factors, 0).design)
            designs += random_asymmetric_designs(k_factors, 5, seed=450 + k_factors)
            for d in designs:
                m = design_moments(d)
                try:
                    poly = sensitivity_poly(k_factors, m)
                except SingularDesignError:
                    continue
                for k in range(k_factors + 1):
                    assert float(poly.value(k)) == pytest.approx(
                        dense_sensitivity(k_factors, m, k), abs=1e-9
                    )

    def test_exact_design_gives_fraction_coefficients(self):
        for design in (lemma2_design(6), narrow_design(8, 3).design, full_factorial(3)):
            poly = sensitivity_poly(design.k_factors, design_moments(design))
            # Fraction refuses a float numerator, so building the
            # coefficients checks that they are exact.
            coeffs = [Fraction(c, poly.denominator) for c in poly.numerators]
            assert coeffs[1] == coeffs[3] == 0

    def test_odd_moments_give_dense_psi(self):
        d = OrbitDesign(6, {1: Fraction(1, 4), 3: Fraction(1, 2), 4: Fraction(1, 4)})
        m = design_moments(d)
        poly = sensitivity_poly(6, m)
        a1, a3 = (Fraction(poly.numerators[i], poly.denominator) for i in (1, 3))
        assert m.m1 != 0 and a1 != 0 and a3 != 0
        for k in range(7):
            assert float(poly.value(k)) == pytest.approx(dense_sensitivity(6, m, k), abs=1e-9)

    def test_singular_moments_rejected(self):
        d = OrbitDesign(6, {3: Fraction(1)}, symmetric=True)
        with pytest.raises(SingularDesignError):
            sensitivity_poly(6, design_moments(d))


class TestKwCheck:
    def test_identity_design_flat(self):
        design = wide_design(4, 0).design
        report = kw_check(design, 0, 4)
        assert report.passed
        assert all(v == pytest.approx(11, abs=1e-12) for v in report.per_orbit.values())

    def test_general_full_factorial_is_exactly_flat(self):
        # Stored with every orbit weight separately, not folded.
        for k_factors in range(2, 11):
            design = OrbitDesign(k_factors, full_factorial(k_factors).weights())
            assert not design.symmetric
            report = kw_check(design, 0, k_factors)
            assert report.max_violation == 0
            assert set(report.per_orbit.values()) == {model_dims(k_factors).p}

    def test_perturbed_design_fails(self):
        spec = narrow_design(6, 2)
        w = spec.w_star + 0.05
        bad = OrbitDesign(6, {2: w, 3: 1 - 2 * w}, symmetric=True)
        report = kw_check(bad, 2, 4)
        assert not report.passed
        assert report.max_violation > 1e-6

    def test_region_restriction_matters(self):
        # The K=6 narrow design is optimal on [2, 4] but not on the full cube.
        design = narrow_design(6, 2).design
        assert kw_check(design, 2, 4).passed
        assert not kw_check(design, 0, 6).passed

    def test_singular_design_raises_with_diagnostic(self):
        d = OrbitDesign(6, {0: Fraction(1, 4), 3: Fraction(1, 2)}, symmetric=True)
        # det B = (1 - m2) * lambda_S, and lambda_S vanishes.
        with pytest.raises(SingularDesignError, match="block B"):
            kw_check(d, 0, 6)

    def test_invalid_region(self):
        design = wide_design(6, 1).design
        with pytest.raises(OrbitDesignError):
            kw_check(design, 4, 2)

    @pytest.mark.parametrize("lower, upper", [(4, 2), (-1, 5), (1, 7)])
    def test_invalid_region_is_refused_by_the_region_rule(self, lower, upper):
        design = wide_design(6, 1).design
        with pytest.raises(OrbitDesignError) as by_region:
            Region(6, lower, upper)
        with pytest.raises(OrbitDesignError) as by_check:
            kw_check(design, lower, upper)
        assert str(by_check.value) == str(by_region.value)

    def test_support_outside_region_rejected(self):
        # The K=6 design for the full cube puts weight on orbits 1, 3 and 5.
        design = wide_design(6, 0).design
        with pytest.raises(OrbitDesignError, match=r"orbits \[1, 5\] outside"):
            kw_check(design, 2, 4)

    def test_outside_orbits_are_named_in_order(self):
        # Orbits 6 and 0 lie outside [1, 5]; the weights list 6 first.
        design = OrbitDesign(8, {6: Fraction(1, 4), 3: Fraction(1, 2), 0: Fraction(1, 4)})
        with pytest.raises(OrbitDesignError, match=r"orbits \[0, 6\] outside the region \[1, 5\]"):
            kw_check(design, 1, 5)

    def test_tolerance_is_a_parameter(self):
        spec = narrow_design(6, 2)
        w = spec.w_star + 1e-4
        slightly_off = OrbitDesign(6, {2: w, 3: 1 - 2 * w}, symmetric=True)
        report_loose = kw_check(slightly_off, 2, 4, tol=1e-2)
        report_tight = kw_check(slightly_off, 2, 4, tol=1e-12)
        assert report_loose.passed and not report_tight.passed


def general_scan(design, lower, upper, tol=1e-9):
    """The report of kw_check's general path: the integer scan of
    sensitivity_poly over orbits lower..upper, rounded once per value."""
    K = design.k_factors
    m = design_moments(design)
    poly = sensitivity_poly(K, m)
    p = model_dims(K).p
    scale = poly.denominator
    c0, c1, c2, c3, c4 = poly.numerators
    values = {}
    for k in range(lower, upper + 1):
        t = 2 * k - K
        values[k] = (((c4 * t + c3) * t + c2) * t + c1) * t + c0
    argmax = max(values, key=values.get)
    per_orbit = {k: value / scale for k, value in values.items()}
    return KwReport((values[argmax] - p * scale) / scale, argmax, per_orbit, p, tol, m)


def assert_same_report(report, expected):
    assert report == expected
    assert report.max_violation.hex() == expected.max_violation.hex()
    assert [(k, v.hex()) for k, v in report.per_orbit.items()] == [
        (k, v.hex()) for k, v in expected.per_orbit.items()
    ]


@pytest.fixture
def certificate_calls(monkeypatch):
    """Counts the calls of sensitivity_poly and inverse_coefficients that
    kw_check makes."""
    calls = dict.fromkeys(("sensitivity_poly", "inverse_coefficients"), 0)
    for name in calls:
        original = getattr(orbitdesign.verify, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(orbitdesign.verify, name, counted)
    return calls


class TestIdentityCase:
    def test_wide_reports_equal_the_general_scan(self):
        regions = [
            (K, L) for K in range(4, 101) for L in range(K // 2)
            if regime(K, L) in ("wide", "threshold")
        ]
        assert len(regions) == 1998
        for K, L in regions:
            design = wide_design(K, L).design
            for lower, upper in ((L, K - L), (0, K)):
                assert_same_report(kw_check(design, lower, upper), general_scan(design, lower, upper))

    def test_narrow_reports_on_one_sided_ranges(self):
        # A narrow design fills [L, K - L]; the ranges one orbit longer on
        # one side are the one-sided ranges that contain it.
        regions = [(K, L) for K in range(4, 101) for L in range(K // 2) if regime(K, L) == "narrow"]
        assert len(regions) == 500
        for K, L in regions:
            design = narrow_design(K, L).design
            for lower, upper in ((L, K - L), (L - 1, K - L), (L, K - L + 1)):
                assert_same_report(kw_check(design, lower, upper), general_scan(design, lower, upper))

    def test_zero_moments_skip_the_inverse(self, certificate_calls):
        report = kw_check(wide_design(20, 3).design, 3, 17)
        assert certificate_calls == {"sensitivity_poly": 0, "inverse_coefficients": 0}
        assert report.passed and set(report.per_orbit.values()) == {211.0}

    def test_narrow_design_takes_the_general_path(self, certificate_calls):
        design = narrow_design(20, 8).design
        certificate_calls.update(dict.fromkeys(certificate_calls, 0))
        report = kw_check(design, 8, 12)
        assert certificate_calls == {"sensitivity_poly": 1, "inverse_coefficients": 1}
        assert_same_report(report, general_scan(design, 8, 12))

    def test_tiny_moments_take_the_general_path(self, certificate_calls):
        weights = wide_design(20, 3).design.weights()
        weights[3] = weights[17] = Fraction(math.nextafter(float(weights[3]), 1))
        design = OrbitDesign(20, weights)
        m = design_moments(design)
        assert any(m) and max(map(abs, m)) < 1e-15
        report = kw_check(design, 3, 17)
        assert certificate_calls == {"sensitivity_poly": 1, "inverse_coefficients": 1}
        assert_same_report(report, general_scan(design, 3, 17))


def d_efficiency(design):
    K = design.k_factors
    return d_efficiency_from_log_det(K, log_det_symmetric(K, design_moments(design)))


class TestDEfficiency:
    def test_identity_designs(self):
        assert d_efficiency(full_factorial(4)) == 1.0
        assert d_efficiency(lemma2_design(6)) == 1.0

    def test_reference_values(self):
        assert round(d_efficiency(narrow_design(6, 2).design), 4) == 0.8854
        assert round(d_efficiency(narrow_design(14, 4).design), 4) == 0.9999

    def test_singular_design_is_zero(self):
        d = OrbitDesign(6, {3: Fraction(1)}, symmetric=True)
        assert d_efficiency(d) == 0.0

    def test_never_exceeds_one(self):
        for k_factors in range(4, 9):
            for d in random_symmetric_designs(k_factors, 5, seed=500 + k_factors):
                assert d_efficiency(d) <= 1 + 1e-12


class TestBruteForce:
    def test_full_factorial_identity(self):
        info = brute_force_info(full_factorial(4), exact=True)
        assert (info.dense == exact_identity(info.dims.p)).all()

    def test_lemma2_k3_identity(self):
        info = brute_force_info(lemma2_design(3), exact=True)
        assert (info.dense == exact_identity(7)).all()

    def test_single_orbit_matches_structured(self):
        d = OrbitDesign(6, {2: Fraction(1)})
        enumerated = brute_force_info(d, exact=True)
        structured = assemble_general(6, design_moments(d), exact=True)
        assert (enumerated.dense == structured.dense).all()

    def test_cost_guard(self):
        # The orbit-point cap is the only guard: K = 13 runs, and an orbit
        # past the cap is refused before any memory is taken for it.
        d = OrbitDesign(13, {6: Fraction(1, 2)}, symmetric=True)
        assert brute_force_info(d).dims.p == 92
        with pytest.raises(OrbitDesignError, match="orbit listing holds at most"):
            brute_force_info(OrbitDesign(66, {33: 1}))

    def test_exact_mode_needs_rational_weights(self):
        d = OrbitDesign(6, {2: 0.3865, 3: 0.2270}, symmetric=True)
        with pytest.raises(OrbitDesignError):
            brute_force_info(d, exact=True)
