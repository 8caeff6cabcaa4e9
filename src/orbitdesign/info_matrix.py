"""Information matrices of invariant designs and their block structure.

The model is intercept + K main effects + all n = C(K,2) two-factor
interactions, p = 1 + K(K+1)/2 parameters.  For a permutation-invariant
design the p x p information matrix M is determined by the four moments:
unit diagonal, first row (1, m1 .. m1, m2 .. m2), main-effect block
(1-m2) I + m2 J, main/interaction block (m1-m3) S^T + m3 11^T, and
interaction block (1-2m2+m4) I + (m2-m4) S S^T + m4 J, where S is the 0/1
incidence matrix of factors in interaction pairs.

M commutes with permuting the factors, so it splits along the S_K-isotypic
parts of the parameter space (the Johnson scheme).  On the bases
(intercept, 1_K, 1_n), (v, S v) for a main-effect contrast v, and u with
S^T u = 0, M acts by

    A = [[1,  K m1,            n m2                       ],
         [m1, 1 + (K-1) m2,    (K-1) m1 + C(K-1,2) m3     ],
         [m2, 2 m1 + (K-2) m3, 1 + 2(K-2) m2 + C(K-2,2) m4]]   once,
    B = [[1 - m2,  (K-2)(m1 - m3)         ],
         [m1 - m3, 1 + (K-4) m2 - (K-3) m4]]                  K-1 times,
    lambda_I = 1 - 2 m2 + m4                                  K(K-3)/2 times,

with B = [1 - m2] for K = 2 and no lambda_I for K <= 3.  Hence
det M = det A (det B)^(K-1) lambda_I^(K(K-3)/2), the blocks of M^-1 are
the block inverses, and tr(M^-1 D) for an invariant D is the multiplicity
weighted sum of blockwise traces.  This holds for asymmetric designs too.

The block algebra runs in integers: the moments, a float read as the binary
rational it is, are scaled by their common denominator D, and the blocks of
D M are integer matrices.  Along a moment direction dm each block
determinant det(D block(m + w dm)) is an integer polynomial of degree at
most three in w (determinant_polynomials), so log det M and its derivatives
in w are sums of logarithms and ratios of these polynomials.  The
structured formulas use only the standard library.  The dense p x p
assembly (build_s_matrix, assemble_general, assemble_inverse,
info_matrix_of) is a test oracle for them; it imports numpy when called.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, combinations
from operator import index, mul
from typing import TYPE_CHECKING, NamedTuple, Union

from .exceptions import SingularDesignError
from .moments import MomentSet, design_moments
from .orbits import OrbitDesign, check_factor_count

if TYPE_CHECKING:
    import numpy as np

Numeric = Union[Fraction, float, int]


class ModelDims(NamedTuple):
    """Parameter counts of the interaction model for K factors."""

    k_factors: int
    p: int
    n_inter: int


@cache
def model_dims(k_factors: int) -> ModelDims:
    """The counts for K factors, built once per K (as Python ints)."""
    check_factor_count(k_factors)
    K = index(k_factors)
    n_inter = math.comb(K, 2)
    return ModelDims(K, 1 + K + n_inter, n_inter)


def interaction_pairs(k_factors: int) -> list[tuple[int, int]]:
    """Interaction index order used everywhere: lexicographic pairs (0,1), (0,2), ..."""
    return list(combinations(range(k_factors), 2))


class InfoMatrix(NamedTuple):
    """Dense information matrix plus the moments it was assembled from."""

    dims: ModelDims
    dense: np.ndarray
    moments: MomentSet


class Block(NamedTuple):
    """One block of an invariant matrix and how often it repeats in the spectrum."""

    name: str
    matrix: tuple[tuple[Numeric, ...], ...]
    mult: int


class RegularityReport(NamedTuple):
    """Nonsingularity verdict of an invariant design: regular, or the names
    of the blocks ("A", "B", "lambda_I") whose determinant is not positive."""

    regular: bool
    failing: tuple[str, ...]


def build_s_matrix(k_factors: int) -> np.ndarray:
    """0/1 incidence matrix, one row per interaction pair, ones at its two factors.

    Satisfies S 1 = 2*1, S^T 1 = (K-1) 1 and S^T S = (K-2) I + J.  Needs
    numpy, like every dense oracle.
    """
    import numpy as np

    dims = model_dims(k_factors)
    s = np.zeros((dims.n_inter, k_factors), dtype=np.int64)
    for row, (a, b) in enumerate(interaction_pairs(k_factors)):
        s[row, a] = 1
        s[row, b] = 1
    return s


def assemble_general(k_factors: int, m: MomentSet, *, exact: bool = False) -> InfoMatrix:
    """Dense p x p information matrix from the four moments.

    Handles asymmetric designs (m1, m3 nonzero).  With exact=True the matrix
    has object dtype holding exact rationals, suitable for identity checks;
    otherwise float64.  Needs numpy: it is a test oracle for the blocks.
    """
    import numpy as np

    dims = model_dims(k_factors)
    K, n = dims.k_factors, dims.n_inter
    kind = object if exact else np.float64
    one, m1, m2, m3, m4 = (Fraction(v) if exact else float(v) for v in (1, m.m1, m.m2, m.m3, m.m4))
    s = build_s_matrix(K).astype(kind)

    def full(rows: int, cols: int, value: Numeric) -> np.ndarray:
        return np.full((rows, cols), value, dtype=kind)

    dense = np.block([
        [full(1, 1, one), full(1, K, m1), full(1, n, m2)],
        [full(K, 1, m1), (one - m2) * np.eye(K, dtype=kind) + m2, (m1 - m3) * s.T + m3],
        [
            full(n, 1, m2),
            (m1 - m3) * s + m3,
            (one - 2 * m2 + m4) * np.eye(n, dtype=kind) + (m2 - m4) * (s @ s.T) + m4,
        ],
    ])
    return InfoMatrix(dims, dense, m)


def information_blocks(
    k_factors: int, m1: Numeric, m2: Numeric, m3: Numeric, m4: Numeric, one: Numeric = 1
) -> tuple[Block, ...]:
    """The blocks A, B, lambda_I of the information matrix with moments m1..m4.

    The blocks are affine in the moments: one=0 drops the constant part,
    which gives the blocks of the derivative of M along the moments, and
    scaling the moments and one by D gives the blocks of D M.
    """
    K, _, n = model_dims(k_factors)
    a = (
        (one, K * m1, n * m2),
        (m1, one + (K - 1) * m2, (K - 1) * m1 + math.comb(K - 1, 2) * m3),
        (m2, 2 * m1 + (K - 2) * m3, one + 2 * (K - 2) * m2 + math.comb(K - 2, 2) * m4),
    )
    if K == 2:
        return (Block("A", a, 1), Block("B", ((one - m2,),), 1))
    b = (
        (one - m2, (K - 2) * (m1 - m3)),
        (m1 - m3, one + (K - 4) * m2 - (K - 3) * m4),
    )
    blocks = (Block("A", a, 1), Block("B", b, K - 1))
    if K == 3:
        return blocks
    return blocks + (Block("lambda_I", ((one - 2 * m2 + m4,),), n - K),)


def _adjugate(a: tuple[tuple[Numeric, ...], ...]):
    """Adjugate and determinant of a 1x1, 2x2 or 3x3 matrix."""
    if len(a) == 1:
        return ((1,),), a[0][0]
    if len(a) == 2:
        (a00, a01), (a10, a11) = a
        return ((a11, -a01), (-a10, a00)), a00 * a11 - a01 * a10
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
    c00, c10, c20 = a11 * a22 - a12 * a21, a12 * a20 - a10 * a22, a10 * a21 - a11 * a20
    adjugate = (
        (c00, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
        (c10, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
        (c20, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10),
    )
    return adjugate, a00 * c00 + a01 * c10 + a02 * c20


def common_scale(values) -> tuple[int, list[int]]:
    """A scale D and D * values as integers: D is the lcm of the denominators
    of the values, each read as the exact rational it is (a float included)."""
    ratios = [v.as_integer_ratio() for v in values]
    scale = math.lcm(*(d for _, d in ratios))
    return scale, [n * (scale // d) for n, d in ratios]


# The last (K, MomentSet, result) of _factored_blocks.  It holds the
# MomentSet itself, so the identity test cannot match a new object that
# reuses a freed one's id.
_last_factored = None


def _factored_blocks(k_factors: int, m: MomentSet):
    """A scale D and (block, adjugate, determinant) of each integer block of D M.

    Keeps one entry, the last call's, keyed by K and the identity of m: a
    narrow solve's log_det_symmetric(K, report.moments) reuses what
    kw_check's inverse_coefficients has just factored.  Any other MomentSet,
    equal or not, or another K is factored afresh and replaces the entry.
    """
    global _last_factored
    entry = _last_factored
    if entry is not None and entry[1] is m and entry[0] == k_factors:
        return entry[2]
    scale, moments = common_scale((m.m1, m.m2, m.m3, m.m4))
    blocks = information_blocks(k_factors, *moments, one=scale)
    result = scale, tuple([(block, *_adjugate(block.matrix)) for block in blocks])
    _last_factored = (k_factors, m, result)
    return result


def log_det_symmetric(k_factors: int, m: MomentSet) -> float:
    """log det of the information matrix; -inf (not an exception) when singular.

    Holds for any invariant moments, symmetric or not.  Each block term is
    mult * log(det / D^n), D^n the determinant of D times the identity.
    Near 1 the rounded ratio would lose digits to log, so there the term is
    log1p of the exactly rounded (det - D^n) / D^n.
    """
    scale, factored = _factored_blocks(k_factors, m)
    total = 0.0
    for block, _, det in factored:
        n = len(block.matrix)
        if det <= 0:
            return -math.inf
        unit = scale**n
        excess = (det - unit) / unit
        if -0.5 <= excess <= 0.5:
            total += block.mult * math.log1p(excess)
        # A ratio below the normal floats has lost digits or underflowed to 0.
        elif (ratio := det / unit) < sys.float_info.min:
            total += block.mult * (math.log(det) - n * math.log(scale))
        else:
            total += block.mult * math.log(ratio)
    return total


def d_efficiency_from_log_det(k_factors: int, log_det: float) -> float:
    """det(M)^(1/p), the efficiency relative to the full factorial; 0 if singular."""
    return math.exp(log_det / model_dims(k_factors).p)


def regularity(design: OrbitDesign) -> RegularityReport:
    """Nonsingularity of the information matrix of an invariant design.

    M is nonsingular exactly when det A, det B and lambda_I are positive;
    failing names the blocks whose determinant is not.  Any invariant
    design is accepted.  For a symmetric design this is the paper's
    support rule, M is nonsingular when the design touches

    - at least two distinct symmetric orbits (det A > 0);
    - for K >= 4, some orbit with 0 < k < K/2 (det B > 0);
    - for K >= 4, some orbit with k > 1 (lambda_I > 0).
    """
    _, factored = _factored_blocks(design.k_factors, design_moments(design))
    failing = tuple(block.name for block, _, det in factored if det <= 0)
    return RegularityReport(not failing, failing)


def inverse_coefficients(k_factors: int, m: MomentSet) -> tuple[tuple[Block, ...], int]:
    """M^-1 as integer blocks over one denominator L, M^-1 = blocks / L.

    L is the lcm of the block determinants of D M, D the moments' common
    denominator, and the entries D adj(D M) L / det are integers.  Raises
    SingularDesignError naming the first singular block.
    """
    scale, factored = _factored_blocks(k_factors, m)
    for block, _, det in factored:
        if det <= 0:
            raise SingularDesignError(f"information matrix is singular (block {block.name})")
    denominator = math.lcm(*[det for _, _, det in factored])
    numerator = scale * denominator
    inverse = []
    for (name, _, mult), adj, det in factored:
        scaled = (numerator // det).__mul__  # exact: det divides L
        inverse.append(Block(name, tuple([tuple(map(scaled, row)) for row in adj]), mult))
    return tuple(inverse), denominator


def determinant_polynomials(
    k_factors: int, scale: int, m: tuple[int, ...], dm: tuple[int, ...]
) -> list[tuple[int, tuple[int, ...]]]:
    """(multiplicity, coefficients) per block of det(D block(m + w dm)) in w.

    Takes the pencil in integers: the moments m and the direction dm as
    integer numerators over one positive scale D, the caller's common
    denominator.  The coefficients, lowest degree first, are then integers.
    With a = D block(m) and b = D block(dm), det(a + w b) = det a +
    w tr(adj(a) b) + w^2 tr(a adj(b)) + w^3 det b for a 3x3 block; a 2x2
    block has no tr(a adj(b)) term, and a 1x1 block is a + w b; only the
    traces a block needs are formed.  The derivatives of log det M along dm
    are sums of p'/p.
    """
    polynomials = []
    for a, b in zip(
        information_blocks(k_factors, *m, one=scale),
        information_blocks(k_factors, *dm, one=0),
    ):
        adj_a, det_a = _adjugate(a.matrix)
        adj_b, det_b = _adjugate(b.matrix)
        size = len(a.matrix)
        middle = [_trace_product(adj_a, b.matrix)] if size > 1 else []
        if size > 2:
            middle.append(_trace_product(a.matrix, adj_b))
        polynomials.append((a.mult, (det_a, *middle, det_b)))
    return polynomials


def _trace_product(x, y) -> int:
    """tr(x y) of two square matrices of the same size."""
    return sum(map(mul, chain.from_iterable(x), chain.from_iterable(zip(*y))))


def assemble_inverse(k_factors: int, m: MomentSet) -> np.ndarray:
    """Dense float inverse of the information matrix (oracle for the blocks).

    Raises SingularDesignError like inverse_coefficients.  Needs numpy.
    """
    import numpy as np

    inverse_coefficients(k_factors, m)
    return np.linalg.inv(assemble_general(k_factors, m.as_floats()).dense)


def info_matrix_of(design: OrbitDesign) -> InfoMatrix:
    """Convenience: moments then dense assembly for an invariant design (needs numpy)."""
    return assemble_general(design.k_factors, design_moments(design))
