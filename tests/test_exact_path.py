"""The integer certificate path against Fraction references and frozen results.

design_moments, inverse_coefficients, sensitivity_poly and kw_check carry
integer numerators over one denominator, and the narrow ulp walk signs on
integer block-determinant polynomials (log_det_slope).  These tests check
that path against plain Fraction arithmetic on independent formulas, check
that the narrow w* is the double nearest the exact optimum, and pin the
narrow w* and the certificates of a fixed list of regions, so that a change
of the arithmetic cannot move a reported value.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction

import pytest

import orbitdesign.construct
import orbitdesign.moments
from orbitdesign import (
    OrbitDesign,
    SingularDesignError,
    kw_check,
    narrow_design,
    regime,
    wide_design,
)
from orbitdesign.construct import log_det_slope
from orbitdesign.info_matrix import information_blocks, model_dims
from orbitdesign.moments import design_moments

from conftest import orbit_moment_sum


def random_design(rng, k_factors, rational, symmetric):
    """Full-support design with random float or small-rational weights."""
    orbits = range(k_factors // 2 + 1) if symmetric else range(k_factors + 1)
    if rational:
        raw = {k: Fraction(rng.randint(1, 30)) for k in orbits}
    else:
        raw = {k: rng.random() + 0.01 for k in orbits}
    mass = {k: 1 if symmetric and 2 * k == k_factors else 2 for k in orbits}
    total = sum(w * (mass[k] if symmetric else 1) for k, w in raw.items())
    return OrbitDesign(k_factors, {k: w / total for k, w in raw.items()}, symmetric=symmetric)


def designs_k2_to_30():
    rng = random.Random(1212)
    return [
        random_design(rng, k_factors, rational, symmetric)
        for k_factors in range(2, 31)
        for rational in (False, True)
        for symmetric in (False, True)
    ]


def fraction_moments(design):
    """Moments as the Fraction mixture of orbit_moment_sum, divided by the total."""
    weights = {k: Fraction(w) for k, w in design.weights().items()}
    total = sum(weights.values())
    return tuple(
        sum(w * orbit_moment_sum(design.k_factors, k, j) for k, w in weights.items()) / total
        for j in range(1, 5)
    )


def fraction_inverse(matrix):
    """Gauss-Jordan inverse in Fractions."""
    n = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def fraction_psi(design):
    """psi(k) = tr(M^-1 M(k)) for every orbit k, block by block in
    Fractions, with M(k) the information matrix of orbit k from
    orbit_moment_sum."""
    K = design.k_factors
    inverses = [
        (fraction_inverse(block.matrix), block.mult)
        for block in information_blocks(K, *fraction_moments(design))
    ]
    psi = {}
    for k in range(K + 1):
        orbit = information_blocks(K, *(orbit_moment_sum(K, k, j) for j in range(1, 5)))
        psi[k] = sum(
            mult * sum(
                a * b for row, col in zip(inverse, zip(*other.matrix)) for a, b in zip(row, col)
            )
            for (inverse, mult), other in zip(inverses, orbit)
        )
    return psi


def assert_equals_fraction_scan(design):
    K = design.k_factors
    report = kw_check(design, 0, K)
    psi = fraction_psi(design)
    p = model_dims(K).p
    assert report.per_orbit == {k: float(value) for k, value in psi.items()}, design
    peak = max(psi.values())
    assert report.argmax_orbit == min(k for k, value in psi.items() if value == peak)
    assert report.max_violation == float(peak - p)


class TestIntegerPath:
    def test_design_moments_equal_fraction_mixture(self):
        for design in designs_k2_to_30():
            m = design_moments(design)
            assert (m.m1, m.m2, m.m3, m.m4) == fraction_moments(design), design

    def test_kw_check_equals_fraction_scan(self):
        for design in designs_k2_to_30():
            assert_equals_fraction_scan(design)

    @pytest.mark.parametrize("k_factors", [47, 64, 76, 100])
    def test_kw_check_equals_fraction_scan_at_large_k(self, k_factors):
        # The quartic's integer vectors are built per K; these K lie past
        # the K <= 30 scan, up to the largest K of the narrow regions.
        rng = random.Random(1400 + k_factors)
        for symmetric in (False, True):
            assert_equals_fraction_scan(random_design(rng, k_factors, True, symmetric))

    def test_design_keeps_its_moments(self):
        design = wide_design(20, 3).design
        assert design_moments(design) is design_moments(design)

    def test_wide_solve_evaluates_moments_once(self, monkeypatch):
        calls = []
        original = orbitdesign.moments.moment_polynomial

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(orbitdesign.moments, "moment_polynomial", counting)
        spec = wide_design(30, 4)
        kw_check(spec.design, 4, 26)
        # One pass over the four moments of the design, none for kw_check.
        assert sorted(calls) == [(30, 1), (30, 2), (30, 3), (30, 4)]

    def test_narrow_search_builds_its_polynomials_once(self, monkeypatch):
        calls = []
        original = orbitdesign.construct.determinant_polynomials

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(orbitdesign.construct, "determinant_polynomials", counting)
        spec = narrow_design(40, 17)
        assert spec.evaluations > 2
        # The float search, the exact ulp walk and the residual share one
        # set of polynomials.
        assert len(calls) == 1


def narrow_regions(max_k):
    return [
        (K, L) for K in range(4, max_k + 1) for L in range(K // 2) if regime(K, L) == "narrow"
    ]


def fraction_slope(k_factors, lower, w):
    """d(log det)/dw at the exact weight w of the narrow design on
    [L, K-L]: tr(M^-1 dM/dw) block by block, with Gauss-Jordan inverses in
    Fractions and moments from orbit_moment_sum."""
    K, center = k_factors, k_factors // 2
    m2_0, m4_0 = (orbit_moment_sum(K, center, j) for j in (2, 4))
    m2_slope, m4_slope = (2 * (orbit_moment_sum(K, lower, j) - orbit_moment_sum(K, center, j))
                          for j in (2, 4))
    blocks = information_blocks(K, 0, m2_0 + w * m2_slope, 0, m4_0 + w * m4_slope)
    directions = information_blocks(K, 0, m2_slope, 0, m4_slope, one=0)
    return sum(
        block.mult * sum(
            a * b
            for row, col in zip(fraction_inverse(block.matrix), zip(*direction.matrix))
            for a, b in zip(row, col)
        )
        for block, direction in zip(blocks, directions)
    )


def narrow_polynomials(monkeypatch, k_factors, lower):
    """The determinant polynomials narrow_design builds for [L, K-L]."""
    built = []
    original = orbitdesign.construct.determinant_polynomials

    def recording(*args):
        built.append(original(*args))
        return built[-1]

    monkeypatch.setattr(orbitdesign.construct, "determinant_polynomials", recording)
    narrow_design(k_factors, lower)
    monkeypatch.undo()
    (polynomials,) = built
    return polynomials


def test_integer_slope_sign_equals_fraction_slope(monkeypatch):
    rng, scales = random.Random(1401), random.Random(1402)
    for k_factors, lower in narrow_regions(40):
        polynomials = narrow_polynomials(monkeypatch, k_factors, lower)
        for _ in range(5):
            bits = rng.randrange(2, 60)
            w = Fraction(rng.randrange(1, 2**bits), 2 ** (bits + 1))
            slope = log_det_slope(polynomials, w.numerator, w.denominator)
            expected = fraction_slope(k_factors, lower, w)
            assert (slope > 0) == (expected > 0) and (slope < 0) == (expected < 0), (
                k_factors, lower, w,
            )
            # The walk passes unreduced midpoints; only the sign may be read.
            scale = scales.randrange(2, 2**20)
            unreduced = log_det_slope(polynomials, scale * w.numerator, scale * w.denominator)
            assert (unreduced > 0) == (slope > 0) and (unreduced < 0) == (slope < 0)


def test_integer_slope_rejects_singular_weights(monkeypatch):
    # w = 0 leaves the centre orbit alone, w = 1/2 the outer pair alone.
    polynomials = narrow_polynomials(monkeypatch, 20, 8)
    for w in (Fraction(0), Fraction(1, 2)):
        with pytest.raises(SingularDesignError):
            log_det_slope(polynomials, w.numerator, w.denominator)


def test_w_star_is_the_nearest_double():
    regions = narrow_regions(100)
    assert len(regions) == 500
    for k_factors, lower in regions:
        w = narrow_design(k_factors, lower).w_star
        below = (Fraction(math.nextafter(w, 0)) + Fraction(w)) / 2
        above = (Fraction(w) + Fraction(math.nextafter(w, 1))) / 2
        assert fraction_slope(k_factors, lower, below) > 0, (k_factors, lower)
        assert fraction_slope(k_factors, lower, above) < 0, (k_factors, lower)


def per_orbit_digest(report):
    text = ";".join(f"{k}:{v.hex()}" for k, v in sorted(report.per_orbit.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# (K, L, w*, evaluations, residual, log det, max_violation, argmax, digest of
# per_orbit), with w* the nearest double to the root of d(log det)/dw.
# (76, 37) and (100, 49) once failed their certificate.
NARROW_FROZEN = [
    (6, 2, '0x1.8bcbb7cd7e1eep-2', 8, '0x0.0p+0',
     '-0x1.56de275b92c57p+1', '0x1.0ca92bd8b5931p-52', 2, '24b8d6848af86da7'),
    (20, 8, '0x1.baedfb66ecb67p-2', 9, '0x0.0p+0',
     '-0x1.82b1642d795b6p+1', '0x1.3cdf2c46c52bap-51', 10, 'e8a2712deb0eef0d'),
    (40, 17, '0x1.c7417ebdf730cp-2', 10, '0x1.0000000000000p-45',
     '-0x1.6b910df097456p+1', '0x1.45b0e2df370e8p-52', 17, 'b572951885708005'),
    (76, 31, '0x1.8b61949559623p-3', 8, '0x0.0p+0',
     '-0x1.8179aea508774p-6', '0x1.4324cfc962e4cp-50', 38, '6f78c14b61984a1a'),
    (76, 37, '0x1.f915f78fd9013p-2', 12, '-0x1.3800000000000p-45',
     '-0x1.42734976acfc0p+7', '0x1.b41d5a84e1c55p-50', 37, '30d885cb6a34bb23'),
    (82, 34, '0x1.a9cc6864383cdp-3', 7, '-0x1.0000000000000p-44',
     '-0x1.c882e3bbdf5c8p-5', '0x1.d1d5a30befa0fp-52', 41, 'b0367cf3df8393cb'),
    (82, 40, '0x1.f99a9008c96dfp-2', 12, '-0x1.8f00000000000p-42',
     '-0x1.66b232c59986cp+7', '0x1.45e2d0a2d3edap-42', 41, '5f358dbadfb22fa6'),
    (100, 43, '0x1.028f39edf022cp-2', 6, '-0x1.0000000000000p-44',
     '-0x1.ab7e5146512b6p-3', '0x1.f9d598a950b64p-49', 50, '1a1872d0cc815b44'),
    (100, 46, '0x1.f2e3a99122c0bp-2', 12, '-0x1.0000000000000p-42',
     '-0x1.a64250590536cp+3', '0x1.341c0044f35efp-44', 50, '92463e2d2926f074'),
    (100, 49, '0x1.fac70f693006ep-2', 12, '-0x1.4800000000000p-41',
     '-0x1.d84cf37c6cbdap+7', '0x1.ce18b7e14ebb1p-44', 50, '4edac9607ece7244'),
]

# (K, L, max_violation, argmax, digest of per_orbit) of kw_check on wide_design.
WIDE_FROZEN = [
    (12, 1, '0x0.0p+0', 1, '57f6b6357e7b9fcb'),
    (22, 7, '0x0.0p+0', 7, '68c49264e920fa58'),
    (76, 0, '0x0.0p+0', 0, '97a8476f7e296293'),
    (100, 30, '0x0.0p+0', 30, '48b542774de792c6'),
]


@pytest.mark.parametrize(
    "k_factors, lower, w_star, evaluations, residual, log_det, violation, argmax, digest",
    NARROW_FROZEN,
)
def test_narrow_results_are_frozen(
    k_factors, lower, w_star, evaluations, residual, log_det, violation, argmax, digest
):
    spec = narrow_design(k_factors, lower)
    report = spec.kw_report
    assert spec.w_star.hex() == w_star
    assert (spec.evaluations, spec.residual.hex()) == (evaluations, residual)
    assert spec.log_det.hex() == log_det
    assert (report.max_violation.hex(), report.argmax_orbit) == (violation, argmax)
    assert per_orbit_digest(report) == digest


@pytest.mark.parametrize("k_factors, lower, violation, argmax, digest", WIDE_FROZEN)
def test_wide_certificates_are_frozen(k_factors, lower, violation, argmax, digest):
    report = kw_check(wide_design(k_factors, lower).design, lower, k_factors - lower)
    assert (report.max_violation.hex(), report.argmax_orbit) == (violation, argmax)
    assert per_orbit_digest(report) == digest


def test_every_narrow_solve_is_frozen():
    # One line per narrow region with K = 4..100, in order: w*, the search
    # and walk evaluations, the residual, log det and the certificate.
    regions = narrow_regions(100)
    assert len(regions) == 500
    lines = []
    for k_factors, lower in regions:
        spec = narrow_design(k_factors, lower)
        report = spec.kw_report
        lines.append(
            f"{k_factors} {lower} {spec.w_star.hex()} {spec.evaluations} "
            f"{spec.residual.hex()} {spec.log_det.hex()} {report.max_violation.hex()} "
            f"{report.argmax_orbit}"
        )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "bc21bfb996293e75a953ad8a35b06e1fd6949fdfffbfb63c2bbd250f538e38e2"
