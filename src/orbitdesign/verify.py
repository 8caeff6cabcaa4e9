"""Optimality certification via the equivalence theorem.

A design maximizes the information determinant over a region exactly when
its sensitivity function psi(x) = f(x)^T M^-1 f(x) stays below the
parameter count p everywhere on the region.  For invariant designs psi is
constant on orbits, the average of f f^T over orbit k is the information
matrix M(k) of the uniform design on that orbit, and M(k) is affine in the
orbit moments m_j(k), so

    psi(k) = tr(M^-1 M(k)) = g_0 + sum_j g_j m_j(k),
    g_0 = tr(M^-1),  g_j = tr(M^-1 dM/dm_j),

each trace taken block by block (see info_matrix).  The orbit moments are
polynomials in t = 2k - K, so for every invariant design psi is the quartic

    psi_tilde(k) = a4 t^4 + a3 t^3 + a2 t^2 + a1 t + a0,

and for sign-symmetric designs g_1 = g_3 = 0, so a1 = a3 = 0 and the
quartic is even.  Checking optimality on a region therefore reduces to a
finite maximum of a quartic over the admitted orbit indices.

The certificate runs in integers over one denominator: M^-1 as integer
blocks over L (inverse_coefficients), and the quartic as five numerators
over L D, D the lcm of the moment denominators d_j (sensitivity_poly).
Substituting m_j(t) into g_0 + sum_j g_j m_j(t) folds the traces and the
moment polynomials into five integer vectors per K (quartic_directions), so
each numerator is one dot product with the flattened blocks of M^-1.
kw_check scans those integers and rounds once per reported value.

The wide designs have M = I exactly.  M is the unit diagonal plus entries
that are combinations of m_1..m_4, so M = I exactly when all four moments
are zero, and then psi(x) = f(x)^T f(x) = p at every point.  kw_check
selects that case from the exact moments and writes the flat report down;
a design with any nonzero moment gets the full integer certificate.

A direct summation oracle over enumerated orbits backs all structured
formulas; it accumulates exact integer Gram matrices per orbit and combines
them with the orbit weights, so it is exact whenever the weights are.  It
is the one part of this module that needs numpy, imported when called.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import TYPE_CHECKING, NamedTuple

from .exceptions import OrbitDesignError
from .info_matrix import (
    InfoMatrix,
    information_blocks,
    interaction_pairs,
    inverse_coefficients,
    model_dims,
)
from .moments import MomentSet, design_moments, moment_polynomial
from .orbits import OrbitDesign, Region, enumerate_orbit, listed_size, orbit_size

if TYPE_CHECKING:
    import numpy as np

KW_TOL = 1e-9  # default absolute bound on max(psi - p): kw_check, optimal_design, --tol


class SensitivityPoly(NamedTuple):
    """Quartic in t = 2k - K giving the sensitivity value on each orbit, as
    integer numerators c_0..c_4 over one positive integer denominator; the
    coefficients are the Fractions a_i = c_i / denominator."""

    k_factors: int
    numerators: tuple[int, ...]
    denominator: int

    def value(self, k: int) -> Fraction:
        """psi_tilde(k) for orbit index k."""
        c0, c1, c2, c3, c4 = self.numerators
        t = 2 * k - self.k_factors
        return Fraction((((c4 * t + c3) * t + c2) * t + c1) * t + c0, self.denominator)


class KwReport(NamedTuple):
    """Result of the equivalence-theorem check over a region of orbits.

    moments are the exact design moments the check was computed from; the
    verdict is max_violation <= tol, so another tolerance needs no recompute.
    """

    max_violation: float
    argmax_orbit: int
    per_orbit: dict[int, float]
    p: int
    tol: float
    moments: MomentSet

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tol

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"max(psi - p) = {self.max_violation:.3e} at orbit k={self.argmax_orbit} "
            f"(p = {self.p}, tol = {self.tol:.0e}) -> {verdict}"
        )


@lru_cache(maxsize=None)
def quartic_directions(k_factors: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Integer vectors v_0..v_4 and the scale D with a_i = (N . v_i) / (L D)
    for M^-1 = N / L flattened block by block, row by row.

    The blocks are linear in (1, m_1, .., m_4), so the orbit matrix M(k) is
    sum_i t^i B_i / D, B_i the blocks at D times the t^i coefficients of
    m_j(t) = P_j(t) / d_j (moment_polynomial) and of m_0 = 1.  v_i is B_i
    transposed, flattened and weighted by multiplicity: N . v_i = L tr(M^-1 B_i).
    """
    polys = [((1,), 1)] + [moment_polynomial(k_factors, j) for j in range(1, 5)]
    scale = math.lcm(*(d for _, d in polys))
    vectors = []
    for i in range(5):
        one, *moments = (c[i] * (scale // d) if i < len(c) else 0 for c, d in polys)
        blocks = information_blocks(k_factors, *moments, one=one)
        vectors.append(tuple(b.mult * v for b in blocks for col in zip(*b.matrix) for v in col))
    return tuple(vectors), scale


def sensitivity_poly(k_factors: int, m: MomentSet) -> SensitivityPoly:
    """The orbitwise sensitivity quartic for invariant moments, as integer
    numerators over L D; a1 = a3 = 0 exactly for symmetric moments.  Raises
    SingularDesignError for singular moments."""
    blocks, denominator = inverse_coefficients(k_factors, m)
    flat = [x for block in blocks for row in block.matrix for x in row]
    vectors, scale = quartic_directions(k_factors)
    numerators = tuple([sum(map(mul, flat, v)) for v in vectors])
    return SensitivityPoly(k_factors, numerators, denominator * scale)


def kw_check(
    design: OrbitDesign,
    lower: int,
    upper: int,
    tol: float = KW_TOL,
) -> KwReport:
    """Equivalence-theorem check of an invariant design over orbits lower..upper.

    Passing certifies D-optimality among all designs supported on the
    region.  The region must be one that Region accepts and the design
    must be supported inside it (otherwise OrbitDesignError) and regular;
    singular designs raise SingularDesignError with the failing block named.

    A design whose four moments are exactly zero has M = I, so psi(x) =
    f(x)^T f(x) = p on every orbit: its report (violation 0 at orbit lower,
    psi = p everywhere) is written down without the block inverse or the
    scan, and equals the one the general path gives.  Every other design,
    however small its moments, takes the general path.
    """
    K = design.k_factors
    Region(K, lower, upper)
    support = design._numerators
    if min(support) < lower or max(support) > upper:
        outside = sorted(k for k in support if not lower <= k <= upper)
        raise OrbitDesignError(
            f"design puts weight on orbits {outside} outside the region [{lower}, {upper}]"
        )
    m = design_moments(design)
    p = model_dims(K).p
    if m.all_zero():
        # M = I: psi(x) = f(x)^T f(x) = p on every orbit.
        return KwReport(0.0, lower, dict.fromkeys(range(lower, upper + 1), float(p)), p, tol, m)
    poly = sensitivity_poly(K, m)

    # The moments are exact, so the quartic is integers over one denominator:
    # the scan runs in integers and rounds once per reported value.  argmax
    # is the lowest orbit of the maximum.
    scale = poly.denominator
    c0, c1, c2, c3, c4 = poly.numerators
    ts = range(2 * lower - K, 2 * upper - K + 1, 2)
    values = [(((c4 * t + c3) * t + c2) * t + c1) * t + c0 for t in ts]
    top = max(values)
    argmax = lower + values.index(top)
    per_orbit = {k: value / scale for k, value in enumerate(values, lower)}
    return KwReport((top - p * scale) / scale, argmax, per_orbit, p, tol, m)


@lru_cache(maxsize=None)
def _orbit_gram(k_factors: int, k: int) -> np.ndarray:
    """Exact integer sum of f(x) f(x)^T over orbit k (cached, read-only)."""
    import numpy as np

    pairs = interaction_pairs(k_factors)
    p = model_dims(k_factors).p
    features = np.empty((listed_size(k_factors, k), p), dtype=np.int64)
    for row, x in enumerate(enumerate_orbit(k_factors, k)):
        features[row, 0] = 1
        features[row, 1 : k_factors + 1] = x
        for col, (a, b) in enumerate(pairs):
            features[row, k_factors + 1 + col] = x[a] * x[b]
    gram = features.T @ features
    gram.setflags(write=False)
    return gram


def brute_force_info(design: OrbitDesign, *, exact: bool = False) -> InfoMatrix:
    """Information matrix by direct enumeration: sum of w_k / C(K,k) * f f^T.

    The per-orbit Gram matrices are exact integers, so with rational weights
    and exact=True the result is exact.  An orbit past listed_size's cap is
    refused.  Needs numpy: it is a test oracle, on no command's path.
    """
    import numpy as np

    K = design.k_factors
    dims = model_dims(K)
    weights = design.weights()
    if exact:
        if not all(isinstance(w, (Fraction, int)) for w in weights.values()):
            raise OrbitDesignError("exact mode needs rational orbit weights")
        dense = np.zeros((dims.p, dims.p), dtype=object)
        for k, w in weights.items():
            dense = dense + _orbit_gram(K, k).astype(object) * (
                Fraction(w) / orbit_size(K, k)
            )
    else:
        dense = np.zeros((dims.p, dims.p), dtype=np.float64)
        for k, w in weights.items():
            dense += (float(w) / orbit_size(K, k)) * _orbit_gram(K, k)
    return InfoMatrix(dims, dense, design_moments(design))
