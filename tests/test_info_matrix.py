"""Information-matrix structure against dense linear-algebra oracles."""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import orbitdesign.info_matrix
from orbitdesign import (
    MomentSet,
    OrbitDesign,
    OrbitDesignError,
    SingularDesignError,
    kw_check,
    narrow_design,
    optimal_design,
    regime,
)
from orbitdesign.info_matrix import (
    assemble_general,
    assemble_inverse,
    build_s_matrix,
    determinant_polynomials,
    info_matrix_of,
    information_blocks,
    inverse_coefficients,
    log_det_symmetric,
    model_dims,
    regularity,
)
from orbitdesign.moments import design_moments, orbit_moment
from orbitdesign.verify import brute_force_info, sensitivity_poly

from conftest import random_asymmetric_designs, random_symmetric_designs, symmetric_design

# Incidence of factors in the 15 interaction pairs for K=6, transposed
# (factors as rows), in lexicographic pair order.
S6_TRANSPOSED = [
    [1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 0, 1, 1, 0],
    [0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 1],
    [0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 1, 0, 1, 1],
]

ZERO_MOMENTS = MomentSet(0, 0, 0, 0)


def blocks_of(k_factors, m):
    return information_blocks(k_factors, m.m1, m.m2, m.m3, m.m4)


def block_spectrum(blocks):
    """Sorted eigenvalues of the invariant matrix with these blocks, each
    block's eigenvalues repeated by its multiplicity."""
    values = []
    for block in blocks:
        matrix = np.array(block.matrix, dtype=np.float64)
        values += list(np.linalg.eigvals(matrix).real) * block.mult
    return np.sort(values)


def exact_det(matrix):
    """Laplace expansion along the first row, exact for rational entries."""
    if len(matrix) == 1:
        return matrix[0][0]
    return sum(
        (-1) ** j * matrix[0][j] * exact_det([row[:j] + row[j + 1 :] for row in matrix[1:]])
        for j in range(len(matrix))
    )


def decimal_log_det(k_factors, m):
    """log det M to 60 digits: the exact block determinants (exact_det of
    the Fraction blocks) through decimal logarithms."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = decimal.Decimal(0)
        for block in blocks_of(k_factors, m):
            det = Fraction(exact_det(block.matrix))
            total += block.mult * (
                decimal.Decimal(det.numerator).ln() - decimal.Decimal(det.denominator).ln()
            )
        return total


def inverse_blocks(k_factors, m):
    """The blocks of M^-1: inverse_coefficients with its denominator divided
    out, exactly for an integer denominator."""
    blocks, denominator = inverse_coefficients(k_factors, m)
    divide = (lambda x: Fraction(x, denominator)) if isinstance(denominator, int) else (
        lambda x: x / denominator
    )
    return tuple(
        b._replace(matrix=tuple(tuple(map(divide, row)) for row in b.matrix)) for b in blocks
    )


def exact_identity_blocks(blocks):
    return all(
        all(
            sum(a * b for a, b in zip(row, col)) == (i == j)
            for j, col in enumerate(zip(*inverse.matrix))
        )
        for block, inverse in blocks
        for i, row in enumerate(block.matrix)
    )


class TestModelDims:
    def test_parameter_count(self):
        for k_factors in range(2, 23):
            dims = model_dims(k_factors)
            assert dims.p == 1 + k_factors * (k_factors + 1) // 2
            assert dims.p == 1 + k_factors + dims.n_inter

    def test_too_small(self):
        with pytest.raises(OrbitDesignError):
            model_dims(1)

    def test_kept_per_k_as_python_ints(self):
        # The counts are kept per K and shared, so a numpy K reads ints too.
        dims = model_dims(np.int64(57))
        assert dims == model_dims(57) and all(type(x) is int for x in dims)
        assert model_dims(57) is model_dims(57)


class TestSMatrix:
    def test_k6_display(self):
        assert build_s_matrix(6).T.tolist() == S6_TRANSPOSED

    def test_k2_single_row(self):
        assert build_s_matrix(2).tolist() == [[1, 1]]

    def test_row_and_column_sums(self):
        s = build_s_matrix(4)
        assert s.sum(axis=1).tolist() == [2] * 6
        assert s.sum(axis=0).tolist() == [3] * 4

    def test_gram_identity(self):
        for k_factors in range(2, 9):
            s = build_s_matrix(k_factors)
            expected = (k_factors - 2) * np.eye(k_factors) + np.ones(
                (k_factors, k_factors)
            )
            assert np.array_equal(s.T @ s, expected)


class TestAssembleGeneral:
    def test_zero_moments_give_identity(self):
        for k_factors in (2, 4, 6):
            info = assemble_general(k_factors, ZERO_MOMENTS)
            assert np.array_equal(info.dense, np.eye(info.dims.p))

    def test_single_orbit_against_enumeration(self):
        d = OrbitDesign(4, {1: Fraction(1)})
        m = design_moments(d)
        structured = assemble_general(4, m, exact=True)
        enumerated = brute_force_info(d, exact=True)
        assert (structured.dense == enumerated.dense).all()

    def test_symmetric_design_kills_coupling_block(self):
        d = symmetric_design(6, {1: Fraction(1, 2), 2: Fraction(1, 2)})
        info = assemble_general(6, design_moments(d), exact=True)
        coupling = info.dense[1:7, 7:]
        assert all(value == 0 for value in coupling.ravel())

    def test_matches_enumeration_on_random_designs(self):
        for k_factors in range(2, 9):
            for d in random_symmetric_designs(k_factors, 6, seed=k_factors):
                structured = assemble_general(k_factors, design_moments(d)).dense
                enumerated = brute_force_info(d).dense
                assert np.abs(structured - enumerated).max() <= 1e-12

    def test_asymmetric_design_against_enumeration(self):
        d = OrbitDesign(5, {1: Fraction(1, 4), 2: Fraction(3, 4)})
        structured = assemble_general(5, design_moments(d), exact=True)
        enumerated = brute_force_info(d, exact=True)
        assert (structured.dense == enumerated.dense).all()


class TestInfoMatrixOf:
    DESIGNS = [
        symmetric_design(8, {1: Fraction(1, 4), 3: Fraction(1, 4), 4: Fraction(1, 2)}),
        OrbitDesign(7, {0: 0.125, 2: 0.375, 5: 0.5}),
    ]

    @pytest.mark.parametrize("design", DESIGNS, ids=["symmetric", "asymmetric"])
    def test_is_the_dense_assembly_of_the_moments(self, design):
        info = info_matrix_of(design)
        expected = assemble_general(design.k_factors, design_moments(design))
        assert info.dims == expected.dims and info.moments == expected.moments
        assert np.array_equal(info.dense, expected.dense)

    @pytest.mark.parametrize("design", DESIGNS, ids=["symmetric", "asymmetric"])
    def test_matches_enumeration(self, design):
        enumerated = brute_force_info(design).dense
        assert np.abs(info_matrix_of(design).dense - enumerated).max() <= 1e-12


class TestBlockEigenvalues:
    def test_identity_case(self):
        blocks = blocks_of(6, ZERO_MOMENTS)
        assert [b.matrix for b in blocks] == [
            ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
            ((1, 0), (0, 1)),
            ((1,),),
        ]
        assert sum(len(b.matrix) * b.mult for b in blocks) == model_dims(6).p

    def test_single_symmetric_orbit_zeroes_lambda_one(self):
        # det A = (1 + (K-1) m2) * lambda_one, and lambda_one vanishes.
        d = OrbitDesign(6, {2: Fraction(1, 2)}, symmetric=True)
        a, b, lambda_i = blocks_of(6, design_moments(d))
        assert exact_det(a.matrix) == 0
        assert exact_det(b.matrix) != 0 and exact_det(lambda_i.matrix) != 0

    def test_central_orbit_zeroes_lambda_s(self):
        # det B = (1 - m2) * lambda_S, and lambda_S vanishes.
        d = OrbitDesign(6, {3: Fraction(1)}, symmetric=True)
        assert exact_det(blocks_of(6, design_moments(d))[1].matrix) == 0

    def test_multiplicities_against_dense_eigenvalues(self):
        for k_factors in range(2, 11):
            designs = random_symmetric_designs(k_factors, 4, seed=100 + k_factors)
            designs += random_asymmetric_designs(k_factors, 3, seed=150 + k_factors)
            for d in designs:
                m = design_moments(d)
                dense = np.linalg.eigvalsh(assemble_general(k_factors, m).dense)
                structured = block_spectrum(blocks_of(k_factors, m))
                assert len(structured) == model_dims(k_factors).p
                assert np.abs(np.sort(dense) - structured).max() <= 1e-8, k_factors

    def test_edge_case_block_shapes(self):
        assert [(len(b.matrix), b.mult) for b in blocks_of(2, ZERO_MOMENTS)] == [(3, 1), (1, 1)]
        assert [(len(b.matrix), b.mult) for b in blocks_of(3, ZERO_MOMENTS)] == [(3, 1), (2, 2)]
        assert [(len(b.matrix), b.mult) for b in blocks_of(7, ZERO_MOMENTS)] == [
            (3, 1),
            (2, 6),
            (1, 14),
        ]


class TestLogDet:
    def test_identity_log_det_zero(self):
        assert log_det_symmetric(6, ZERO_MOMENTS) == 0.0

    def test_reference_efficiency_k6(self):
        d = OrbitDesign(
            6, {2: Fraction("0.3865"), 3: Fraction("0.2270")}, symmetric=True
        )
        ld = log_det_symmetric(6, design_moments(d))
        assert round(math.exp(ld / 22), 4) == 0.8854

    def test_against_dense_determinant(self):
        for k_factors in range(2, 11):
            for d in random_symmetric_designs(k_factors, 5, seed=200 + k_factors):
                m = design_moments(d)
                ld = log_det_symmetric(k_factors, m)
                dense = assemble_general(k_factors, m).dense
                if ld == -math.inf:
                    rank = np.linalg.matrix_rank(dense, tol=1e-8)
                    assert rank < model_dims(k_factors).p
                else:
                    sign, dense_ld = np.linalg.slogdet(dense)
                    assert sign > 0
                    assert abs(ld - dense_ld) <= 1e-10 * max(1.0, abs(dense_ld))

    def test_singular_design_gives_neg_inf(self):
        d = OrbitDesign(6, {3: Fraction(1)}, symmetric=True)
        assert log_det_symmetric(6, design_moments(d)) == -math.inf

    def test_underflowing_block_ratio_gives_a_finite_log_det(self):
        # Block A's det / D^3 is below the float range and rounds to 0.0.
        m = design_moments(OrbitDesign(6, {2: 1e-300, 3: 1.0}, symmetric=True))
        ld = log_det_symmetric(6, m)
        assert math.isfinite(ld)
        dets = [(b.mult, Fraction(exact_det(b.matrix))) for b in blocks_of(6, m)]
        assert float(dets[0][1]) == 0.0
        expected = sum(mult * (math.log(x.numerator) - math.log(x.denominator)) for mult, x in dets)
        assert ld == pytest.approx(expected, rel=1e-12)

    def test_optima_against_decimal_oracle(self):
        # Near det / D^n = 1 a rounded block ratio loses digits to log, and
        # the lambda_I block repeats up to K(K-3)/2 times: every optimum
        # with K <= 100 keeps 13 digits, and a wide one (M = I) gives 0.
        regions = [(K, L) for K in range(4, 101) for L in range(K // 2)]
        assert len(regions) == 2498
        bound = decimal.Decimal("1e-13")
        for K, L in regions:
            result = optimal_design(K, L)
            exact = decimal_log_det(K, result.moments)
            assert abs(decimal.Decimal(result.log_det) - exact) <= bound * abs(exact), (K, L)

    def test_asymmetric_moments_against_dense_determinant(self):
        for k_factors in range(2, 11):
            for d in random_asymmetric_designs(k_factors, 4, seed=250 + k_factors):
                m = design_moments(d)
                assert (m.m1, m.m3) != (0, 0)
                sign, dense_ld = np.linalg.slogdet(assemble_general(k_factors, m).dense)
                assert sign > 0
                ld = log_det_symmetric(k_factors, m)
                assert abs(ld - dense_ld) <= 1e-10 * max(1.0, abs(dense_ld))
                assert log_det_symmetric(k_factors, m.as_floats()) == pytest.approx(ld, rel=1e-10)


    def test_float_moments_are_read_exactly(self):
        # A float moment is the binary rational it is: the same values as
        # Fractions give the same integers and the same log det, bit for bit.
        for k_factors in range(2, 11):
            for d in random_asymmetric_designs(k_factors, 2, seed=270 + k_factors):
                m = design_moments(d).as_floats()
                exact = MomentSet(*(Fraction(v) for v in (m.m1, m.m2, m.m3, m.m4)))
                ld = log_det_symmetric(k_factors, m)
                assert ld.hex() == log_det_symmetric(k_factors, exact).hex()
                numerators, denominator = inverse_coefficients(k_factors, m)
                assert type(denominator) is int
                assert all(type(x) is int for b in numerators for row in b.matrix for x in row)
                assert (numerators, denominator) == inverse_coefficients(k_factors, exact)


class TestRegularity:
    def test_two_good_orbits(self):
        d = symmetric_design(6, {2: Fraction(1, 2), 3: Fraction(1, 2)})
        assert regularity(d).regular

    def test_outer_plus_center_fails(self):
        d = symmetric_design(6, {0: Fraction(1, 2), 3: Fraction(1, 2)})
        report = regularity(d)
        assert not report.regular
        assert "B" in report.failing

    def test_first_two_orbits_fail_lambda_i(self):
        d = symmetric_design(8, {0: Fraction(1, 2), 1: Fraction(1, 2)})
        report = regularity(d)
        assert not report.regular
        assert "lambda_I" in report.failing

    def test_small_k_needs_two_orbits_only(self):
        assert regularity(symmetric_design(3, {0: Fraction(1, 2), 1: Fraction(1, 2)})).regular
        assert not regularity(OrbitDesign(3, {1: Fraction(1, 2)}, symmetric=True)).regular

    def test_exhaustive_against_dense_rank(self):
        for k_factors in range(2, 11):
            n_sym = k_factors // 2 + 1
            p = model_dims(k_factors).p
            for size in range(1, min(3, n_sym) + 1):
                for subset in combinations(range(n_sym), size):
                    totals = {k: Fraction(1, size) for k in subset}
                    d = symmetric_design(k_factors, totals)
                    dense = brute_force_info(d).dense
                    dense_regular = np.linalg.matrix_rank(dense, tol=1e-8) == p
                    assert regularity(d).regular == dense_regular, (
                        k_factors,
                        subset,
                    )

    def test_asymmetric_against_dense_rank(self):
        for k_factors in range(2, 9):
            p = model_dims(k_factors).p
            for size in range(1, 4):
                for subset in combinations(range(k_factors + 1), size):
                    d = OrbitDesign(k_factors, {k: Fraction(1, size) for k in subset})
                    dense = brute_force_info(d).dense
                    report = regularity(d)
                    dense_regular = np.linalg.matrix_rank(dense) == p
                    assert report.regular == dense_regular, (k_factors, subset)
                    assert report.regular == (not report.failing)
                    assert set(report.failing) <= {"A", "B", "lambda_I"}

    def test_symmetric_support_rule(self):
        # The paper's rule for symmetric designs, as the oracle: two distinct
        # symmetric orbits, and for K >= 4 one with 0 < k < K/2 and one with k > 1.
        def support_rule(k_factors, support):
            if len(support) < 2:
                return False
            return k_factors < 4 or (
                any(0 < k < k_factors / 2 for k in support) and any(k > 1 for k in support)
            )

        checked = 0
        for k_factors in range(2, 41):
            for size in range(1, 4):
                for subset in combinations(range(k_factors // 2 + 1), size):
                    report = regularity(
                        symmetric_design(k_factors, {k: Fraction(1, size) for k in subset})
                    )
                    assert report.regular == support_rule(k_factors, subset), (k_factors, subset)
                    assert report.regular == (not report.failing)
                    assert set(report.failing) <= {"A", "B", "lambda_I"}
                    checked += 1
        assert checked == 16_609


class TestTooFewFactors:
    """Every block formula refuses K <= 1 with the model's own error."""

    @pytest.mark.parametrize("k_factors", [0, 1])
    def test_block_formulas(self, k_factors):
        calls = [
            lambda: information_blocks(k_factors, 0, 0, 0, 0),
            lambda: log_det_symmetric(k_factors, ZERO_MOMENTS),
            lambda: inverse_coefficients(k_factors, ZERO_MOMENTS),
            lambda: determinant_polynomials(k_factors, 1, (0, 0, 0, 0), (0, 0, 0, 0)),
            lambda: sensitivity_poly(k_factors, ZERO_MOMENTS),
        ]
        for call in calls:
            with pytest.raises(OrbitDesignError, match=f"need K >= 2, got {k_factors}$"):
                call()

    def test_regularity(self):
        with pytest.raises(OrbitDesignError, match="need K >= 2, got 1$"):
            regularity(OrbitDesign(1, {0: 0.5, 1: 0.5}))


class TestInverse:
    def test_identity_coefficients(self):
        inverse = inverse_blocks(6, ZERO_MOMENTS)
        assert [b.matrix for b in inverse] == [b.matrix for b in blocks_of(6, ZERO_MOMENTS)]
        assert [b.mult for b in inverse] == [1, 5, 9]

    def test_reconstruction_on_reference_designs(self):
        designs = [
            OrbitDesign(6, {2: 0.3865, 3: 0.2270}, symmetric=True),
            OrbitDesign(8, {2: 0.2282, 4: 1 - 2 * 0.2282}, symmetric=True),
        ]
        for d in designs:
            m = design_moments(d).as_floats()
            for block, inverse in zip(blocks_of(d.k_factors, m), inverse_blocks(d.k_factors, m)):
                product = np.array(block.matrix) @ np.array(inverse.matrix)
                assert np.abs(product - np.eye(len(block.matrix))).max() <= 1e-12
            dense = assemble_general(d.k_factors, m).dense
            inv = assemble_inverse(d.k_factors, m)
            p = model_dims(d.k_factors).p
            assert np.abs(dense @ inv - np.eye(p)).max() <= 1e-10

    def test_reconstruction_on_random_designs(self):
        # The spectrum of the dense inverse is that of the block inverses.
        for k_factors in range(2, 11):
            designs = random_symmetric_designs(k_factors, 4, seed=300 + k_factors)
            designs += random_asymmetric_designs(k_factors, 2, seed=350 + k_factors)
            for d in designs:
                m = design_moments(d)
                if log_det_symmetric(k_factors, m) == -math.inf:
                    continue
                dense = np.linalg.eigvalsh(np.linalg.inv(assemble_general(k_factors, m).dense))
                structured = block_spectrum(inverse_blocks(k_factors, m))
                assert np.abs(np.sort(dense) - structured).max() <= 1e-8 * dense.max()

    def test_singular_design_raises(self):
        d = OrbitDesign(6, {3: Fraction(1)}, symmetric=True)
        with pytest.raises(SingularDesignError, match="block A"):
            inverse_coefficients(6, design_moments(d))
        # Outermost plus central orbit: only lambda_S, a factor of det B, vanishes.
        d = OrbitDesign(6, {0: Fraction(1, 4), 3: Fraction(1, 2)}, symmetric=True)
        with pytest.raises(SingularDesignError, match="block B"):
            inverse_coefficients(6, design_moments(d))

    def test_exact_inverse_times_matrix_is_identity(self):
        # With exact moments, symmetric or not, block @ inverse is exactly I.
        designs = [
            symmetric_design(6, {1: Fraction(1, 3), 2: Fraction(1, 3), 3: Fraction(1, 3)}),
            OrbitDesign(5, {1: Fraction(1, 4), 2: Fraction(1, 2), 4: Fraction(1, 4)}),
            OrbitDesign(3, {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
            OrbitDesign(2, {0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}),
        ]
        for d in designs:
            m = design_moments(d)
            numerators, denominator = inverse_coefficients(d.k_factors, m)
            assert type(denominator) is int
            assert all(type(x) is int for b in numerators for row in b.matrix for x in row)
            inverse = inverse_blocks(d.k_factors, m)
            assert exact_identity_blocks(zip(blocks_of(d.k_factors, m), inverse))


class TestFactoredOnce:
    """_factored_blocks keeps its last result, keyed by K and the identity of
    the MomentSet, so a narrow solve factors its certificate's blocks once."""

    @staticmethod
    def count_adjugates(monkeypatch):
        calls = []
        original = orbitdesign.info_matrix._adjugate

        def counting(matrix):
            calls.append(len(matrix))
            return original(matrix)

        monkeypatch.setattr(orbitdesign.info_matrix, "_adjugate", counting)
        return calls

    def test_log_det_after_kw_check_reuses_the_factorisation(self, monkeypatch):
        calls = self.count_adjugates(monkeypatch)
        regions = [(K, L) for K in range(4, 41) for L in range(K // 2) if regime(K, L) == "narrow"]
        assert len(regions) == 114
        for k_factors, lower in regions:
            report = kw_check(narrow_design(k_factors, lower).design, lower, k_factors - lower)
            calls.clear()
            reused = log_det_symmetric(k_factors, report.moments)
            assert calls == []
            fresh = log_det_symmetric(k_factors, MomentSet(*report.moments))
            assert calls == [3, 2, 1]
            assert reused.hex() == fresh.hex(), (k_factors, lower)

    def test_equal_moments_or_another_k_are_factored_afresh(self, monkeypatch):
        calls = self.count_adjugates(monkeypatch)
        m = design_moments(symmetric_design(20, {2: 0.25, 6: 0.25, 10: 0.5}))
        log_det_symmetric(20, m)
        assert len(calls) == 3
        inverse_coefficients(20, m)
        log_det_symmetric(20, m)
        assert len(calls) == 3
        log_det_symmetric(20, MomentSet(*m))  # equal, not the same object
        assert len(calls) == 6
        log_det_symmetric(21, m)
        assert len(calls) == 9
        log_det_symmetric(20, m)  # the entry now holds K = 21
        assert len(calls) == 12
