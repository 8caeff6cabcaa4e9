"""Invariant moments of designs on hypercube orbits.

For the uniform design on orbit k the information matrix has only four
distinct off-diagonal entries, the moments m_1..m_4: the average over the
orbit of products of 1, 2, 3 or 4 distinct coordinates.  With t = 2k - K
they have the closed forms m_j = P_j(t) / d_j (``moment_polynomial``),

    m_1 = t / K
    m_2 = (t^2 - K) / (K (K-1))
    m_3 = (t^3 - (3K-2) t) / (K (K-1) (K-2))
    m_4 = (t^4 - (6K-8) t^2 + 3 K (K-2)) / (K (K-1) (K-2) (K-3))

for j <= K and m_j = 0 for j > K.  An equivalent combinatorial form counts
sign patterns directly:

    m_j = C(K,k)^-1 * sum_i (-1)^(i+j) C(j,i) C(K-j, k-i).

Mixtures are linear in the orbit weights, so a design's moments follow from
integer power sums of t over its integer weights (``design_moments``; see
``OrbitDesign``).  One pass over those weights gives the power sums S_0..S_4;
the polynomials P_j and denominators d_j are built once per (K, j) and kept
(``moment_polynomial``), so each moment is one integer dot product.  A
moment whose numerator is zero -- every moment of the wide designs, which
have M = I -- is the shared ``ZERO``, with no gcd; any other moment is one
normalised Fraction.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from operator import index, mul

from .exceptions import OrbitDesignError
from .orbits import OrbitDesign, Weight, check_orbit_index

#: The one Fraction design_moments returns for every vanishing moment.
ZERO = Fraction(0)
_ALL_ZERO = (ZERO,) * 4


class MomentSet(namedtuple("MomentSet", "m1 m2 m3 m4")):
    """The four invariant moments of a design; exact zeros for symmetric odd moments.

    The constructor checks |m_j| <= 1.  design_moments and as_floats build
    theirs with _make, which skips the check: their values are orbit moments
    or mixtures of them, in [-1, 1] by construction.
    """

    __slots__ = ()

    def __new__(cls, m1: Weight, m2: Weight, m3: Weight, m4: Weight) -> "MomentSet":
        self = super().__new__(cls, m1, m2, m3, m4)
        for name, value in zip(cls._fields, self):
            # Small slack: float mixing can overshoot the exact bound by ulps.
            if not abs(float(value)) <= 1 + 1e-9:
                raise OrbitDesignError(f"moment {name}={value} outside [-1, 1]")
        return self

    def as_floats(self) -> "MomentSet":
        return MomentSet._make(map(float, self))

    def all_zero(self) -> bool:
        """True when all four moments are zero, i.e. M = I.  The tuple
        comparison stops at the first non-zero moment and tests identity
        before equality, so the shared ZEROs of design_moments cost no
        Fraction method."""
        return self == _ALL_ZERO


@cache
def moment_polynomial(k_factors: int, j: int) -> tuple[tuple[int, ...], int]:
    """The closed form of m_j as a polynomial in t = 2k - K: integer
    coefficients c_0..c_j and a denominator d, m_j = sum_i c_i t^i / d.
    Built once per (K, j) and shared by every caller."""
    K = index(k_factors)
    if j > K:
        return (0,) * (j + 1), 1
    if j == 1:
        return (0, 1), K
    if j == 2:
        return (-K, 0, 1), K * (K - 1)
    if j == 3:
        return (0, -(3 * K - 2), 0, 1), K * (K - 1) * (K - 2)
    return (3 * K * (K - 2), 0, -(6 * K - 8), 0, 1), K * (K - 1) * (K - 2) * (K - 3)


def orbit_moment(k_factors: int, k: int, j: int) -> Fraction:
    """Exact j-th moment of the uniform design on orbit k (closed form)."""
    check_orbit_index(k_factors, k)
    if not 1 <= j <= 4:
        raise OrbitDesignError(f"moment order must be in 1..4, got {j}")
    coeffs, denom = moment_polynomial(k_factors, j)
    t = 2 * k - k_factors
    value = 0
    for c in reversed(coeffs):
        value = value * t + c
    return Fraction(value, denom)


def design_moments(design: OrbitDesign) -> MomentSet:
    """Exact moments of an invariant design; the immutable design keeps them.

    With the design's integer weights n_k and the power sums S_i = sum_k
    n_k t_k^i, m_j = sum_i c_i S_i / (d_j S_0) for P_j(t) = sum_i c_i t^i:
    exact for the design as stored, rescaled to total weight 1.  One pass
    over the weights gives S_0..S_4; a zero numerator gives ZERO, any other
    one Fraction.
    """
    if design._moments is None:
        K = design.k_factors
        s0 = s1 = s2 = s3 = s4 = 0
        for k, n in design._numerators.items():
            t = 2 * k - K
            s0 += n
            n *= t
            s1 += n
            n *= t
            s2 += n
            n *= t
            s3 += n
            s4 += n * t
        sums = (s0, s1, s2, s3, s4)
        moments = []
        for j in (1, 2, 3, 4):
            coeffs, d = moment_polynomial(K, j)
            numerator = sum(map(mul, coeffs, sums))
            moments.append(Fraction(numerator, d * s0) if numerator else ZERO)
        object.__setattr__(design, "_moments", MomentSet._make(moments))
    return design._moments
