"""Acceptance suite: one test (and one printed verdict line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from orbitdesign import (
    MomentSet,
    kw_check,
    lemma2_design,
    narrow_design,
    wide_design,
)
from orbitdesign.info_matrix import assemble_general, log_det_symmetric, model_dims, regularity
from orbitdesign.moments import design_moments
from orbitdesign.orbits import orbit_size, weight_per_point
from orbitdesign.verify import brute_force_info, sensitivity_poly

from conftest import (
    exact_identity,
    feature_vector,
    random_asymmetric_designs,
    random_symmetric_designs,
    symmetric_design,
)
from reference_tables import NARROW_ROWS, WIDE_ROWS

TABLE_TOL = 5e-5 + 1e-12


def _verdict(number: int, description: str):
    """Context manager printing one PASS/FAIL line for a criterion."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"[acceptance {number}] {status} - {description}")
            return False

    return _Reporter()


def test_criterion_1_wide_table_reproduction():
    with _verdict(1, "wide-bounds table reproduced, moments exactly zero, < 1 s"):
        start = time.perf_counter()
        for row in WIDE_ROWS:
            k_factors, lower, ell, center, w_low, w_ell, w_center, _ = row
            design = wide_design(k_factors, lower, ell).design
            for orbit, printed in ((lower, w_low), (ell, w_ell), (center, w_center)):
                if orbit is None:
                    continue
                expected = 0.0 if printed is None else printed
                assert abs(float(design.weight(orbit)) - expected) <= TABLE_TOL
            assert design_moments(design) == MomentSet(0, 0, 0, 0)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"wide table took {elapsed:.2f} s"


def test_criterion_2_narrow_table_reproduction():
    with _verdict(2, "narrow-bounds table reproduced (w*, efficiency), < 10 s"):
        start = time.perf_counter()
        for k_factors, lower, center, w_low, w_center, efficiency, _ in NARROW_ROWS:
            spec = narrow_design(k_factors, lower)
            assert abs(spec.w_star - w_low) <= TABLE_TOL, (k_factors, lower)
            assert abs(float(spec.design.weight(center)) - w_center) <= TABLE_TOL
            assert abs(spec.d_efficiency - efficiency) <= TABLE_TOL
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"narrow table took {elapsed:.2f} s"


def test_criterion_3_kw_certification():
    worst = -math.inf
    with _verdict(3, "every generated design certified by the equivalence check"):
        designs = []
        for row in WIDE_ROWS:
            k_factors, lower, ell = row[0], row[1], row[2]
            designs.append((wide_design(k_factors, lower, ell).design, lower))
        for k_factors, lower, *_ in NARROW_ROWS:
            designs.append((narrow_design(k_factors, lower).design, lower))
        for k_factors in (3, 6, 22, 27):
            designs.append((lemma2_design(k_factors), 0))
        for design, lower in designs:
            K = design.k_factors
            report = kw_check(design, lower, K - lower)
            worst = max(worst, report.max_violation)
            assert report.passed and report.max_violation <= 1e-9, (K, lower)
            for k in design.support():
                assert abs(report.per_orbit[k] - report.p) <= 1e-9
    print(f"[acceptance 3] worst max(psi - p) over all designs: {worst:.3e}")


def test_criterion_4_identity_matrix_designs():
    with _verdict(4, "threshold designs have exactly the identity information matrix"):
        for k_factors in (3, 6, 22, 27):
            design = lemma2_design(k_factors)
            info = assemble_general(k_factors, design_moments(design), exact=True)
            assert (info.dense == exact_identity(info.dims.p)).all(), k_factors
        for k_factors in (3, 6):
            enumerated = brute_force_info(lemma2_design(k_factors), exact=True)
            assert (enumerated.dense == exact_identity(enumerated.dims.p)).all()


def test_criterion_5_oracle_equivalence():
    with _verdict(5, "structured assembly and log det match enumeration, < 60 s"):
        start = time.perf_counter()
        for k_factors in range(2, 11):
            designs = random_symmetric_designs(k_factors, 20, seed=1000 + k_factors)
            for design in designs:
                m = design_moments(design)
                structured = assemble_general(k_factors, m).dense
                enumerated = brute_force_info(design).dense
                assert np.abs(structured - enumerated).max() <= 1e-12
                ld = log_det_symmetric(k_factors, m)
                if ld != -math.inf:
                    sign, dense_ld = np.linalg.slogdet(structured)
                    assert sign > 0
                    assert abs(ld - dense_ld) <= 1e-10 * max(1.0, abs(dense_ld))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"oracle grid took {elapsed:.2f} s"


def test_criterion_6_regularity_classifier():
    with _verdict(6, "regularity matches dense rank for all small support patterns"):
        for k_factors in range(2, 11):
            n_sym = k_factors // 2 + 1
            p = model_dims(k_factors).p
            for size in range(1, min(3, n_sym) + 1):
                for subset in combinations(range(n_sym), size):
                    design = symmetric_design(
                        k_factors, {k: Fraction(1, size) for k in subset}
                    )
                    dense = brute_force_info(design).dense
                    dense_regular = np.linalg.matrix_rank(dense, tol=1e-8) == p
                    assert regularity(design).regular == dense_regular, (
                        k_factors,
                        subset,
                    )


def test_criterion_7_worked_k6_example():
    with _verdict(7, "K=6, L=2 worked example (w*, point weights, efficiency)"):
        spec = narrow_design(6, 2)
        assert abs(spec.w_star - (45 - 6 * math.sqrt(37)) / 22) <= 1e-12
        assert round(weight_per_point(spec.design.weight(2), orbit_size(6, 2)), 4) == 0.0258
        assert round(weight_per_point(spec.design.weight(3), orbit_size(6, 3)), 4) == 0.0113
        assert round(spec.d_efficiency, 4) == 0.8854


def test_criterion_8_sensitivity_cross_check():
    with _verdict(8, "sensitivity quartic matches dense values; positive quartic term"):
        for k_factors in range(4, 9):
            designs = random_symmetric_designs(
                k_factors, 20, seed=2000 + k_factors, min_total=0.05
            )
            designs.append(wide_design(k_factors, 0).design)
            designs = [d for d in designs if regularity(d).regular]
            designs += random_asymmetric_designs(k_factors, 10, seed=2100 + k_factors)
            for design in designs:
                m = design_moments(design)
                poly = sensitivity_poly(k_factors, m)
                info = assemble_general(k_factors, m).dense
                inverse = np.linalg.inv(info)
                for k in range(k_factors + 1):
                    x = next(iter_orbit_representative(k_factors, k))
                    f = feature_vector(k_factors, x)
                    dense_value = float(f @ inverse @ f)
                    assert abs(float(poly.value(k)) - dense_value) <= 1e-9
        for k_factors, lower, *_ in NARROW_ROWS:
            spec = narrow_design(k_factors, lower)
            poly = sensitivity_poly(k_factors, design_moments(spec.design))
            a0, a4 = (Fraction(poly.numerators[i], poly.denominator) for i in (0, 4))
            assert a4 > 1e-15 * max(1.0, abs(float(a0)))


def iter_orbit_representative(k_factors, k):
    yield tuple([1] * k + [-1] * (k_factors - k))
