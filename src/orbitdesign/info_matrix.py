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
weighted sum of blockwise traces.  This holds for asymmetric designs too,
and exact moments keep everything exact.

The structured formulas use only the standard library.  The dense p x p
assembly (build_s_matrix, assemble_general, assemble_inverse,
info_matrix_of) is a test oracle for them; it imports numpy when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from operator import floordiv, mul, truediv
from typing import TYPE_CHECKING, NamedTuple, Union

from .exceptions import OrbitDesignError, SingularDesignError
from .moments import MomentSet, design_moments
from .orbits import OrbitDesign

if TYPE_CHECKING:
    import numpy as np

Numeric = Union[Fraction, float, int]

# A determinant factor this close to zero (relative to its size) counts as
# singular; exact-rational inputs produce exact zeros, so this only guards
# float-computed designs.
SINGULARITY_TOL = 1e-12


@dataclass(frozen=True)
class ModelDims:
    """Parameter counts of the interaction model for K factors."""

    k_factors: int
    p: int
    n_inter: int


def model_dims(k_factors: int) -> ModelDims:
    if k_factors < 2:
        raise OrbitDesignError(f"the interaction model needs K >= 2, got {k_factors}")
    n_inter = math.comb(k_factors, 2)
    return ModelDims(k_factors, 1 + k_factors + n_inter, n_inter)


def interaction_pairs(k_factors: int) -> list[tuple[int, int]]:
    """Interaction index order used everywhere: lexicographic pairs (0,1), (0,2), ..."""
    return list(combinations(range(k_factors), 2))


@dataclass(frozen=True)
class InfoMatrix:
    """Dense information matrix plus the moments it was assembled from."""

    dims: ModelDims
    dense: np.ndarray
    moments: MomentSet


class Block(NamedTuple):
    """One block of an invariant matrix and how often it repeats in the spectrum."""

    name: str
    matrix: tuple[tuple[Numeric, ...], ...]
    mult: int


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the nonsingularity test for a symmetric invariant design."""

    regular: bool
    failing: tuple[str, ...]
    symmetric_support: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.regular

    def message(self) -> str:
        if self.regular:
            return "design is regular (all parameters estimable)"
        return (
            f"singular design: block(s) {', '.join(self.failing)} vanish for "
            f"symmetric support {self.symmetric_support}"
        )


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
    K = k_factors
    n = math.comb(K, 2)
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


@lru_cache(maxsize=None)
def moment_direction(k_factors: int, j: int) -> tuple[int, ...]:
    """dM/dm_j for j = 1..4, and the identity for j = 0, in the layout of
    moment_traces: its transposed blocks flattened and weighted by multiplicity."""
    unit = [int(i == j) for i in range(5)]
    blocks = information_blocks(k_factors, *unit[1:], one=unit[0])
    return tuple(block.mult * v for block in blocks for col in zip(*block.matrix) for v in col)


def moment_traces(k_factors: int, inverse: tuple[tuple[Block, ...], Numeric]):
    """g_0 = tr(M^-1) and g_j = tr(M^-1 dM/dm_j), j = 1..4, from M^-1 as
    inverse_coefficients gives it: (numerators, its denominator L), each
    numerator a dot product with moment_direction, in integers if exact."""
    blocks, denominator = inverse
    flat = [x for block in blocks for row in block.matrix for x in row]
    return tuple(sum(map(mul, flat, moment_direction(k_factors, j))) for j in range(5)), denominator


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


def common_scale(values) -> tuple[Numeric, list]:
    """A scale D and D * values: integers over the common denominator of
    exact values, or D = 1.0 and the values themselves if any is a float."""
    if any(isinstance(v, float) for v in values):
        return 1.0, list(values)
    scale = math.lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def _factored_blocks(k_factors: int, m: MomentSet):
    """A scale D and (block, adjugate, det) for each block of D M.

    For exact moments D is their common denominator and all entries are
    integers, so the block algebra runs in integer arithmetic.  det is 0
    for a singular block.
    """
    scale, moments = common_scale((m.m1, m.m2, m.m3, m.m4))
    factored = []
    for block in information_blocks(k_factors, *moments, one=scale):
        adjugate, det = _adjugate(block.matrix)
        # A float determinant this close to zero (relative to its size)
        # counts as singular; integer ones are exact.
        if det <= (0 if isinstance(det, int) else SINGULARITY_TOL * (1 + abs(det))):
            det = 0
        factored.append((block, adjugate, det))
    return scale, factored


def _singular(block: Block) -> SingularDesignError:
    return SingularDesignError(f"information matrix is singular (block {block.name})")


def log_det_symmetric(k_factors: int, m: MomentSet) -> float:
    """log det of the information matrix; -inf (not an exception) when singular.

    Holds for any invariant moments, symmetric or not.
    """
    scale, factored = _factored_blocks(k_factors, m)
    total = 0.0
    for block, _, det in factored:
        if not det:
            return -math.inf
        total += block.mult * math.log(det / scale ** len(block.matrix))
    return total


def d_efficiency_from_log_det(k_factors: int, log_det: float) -> float:
    """det(M)^(1/p), the efficiency relative to the full factorial; 0 if singular."""
    return math.exp(log_det / model_dims(k_factors).p)


def regularity(design: OrbitDesign, k_factors: int | None = None) -> RegularityReport:
    """Nonsingularity classification of a symmetric invariant design.

    The matrix is nonsingular exactly when the design touches at least two
    distinct symmetric orbits and, for K >= 4, some supported orbit is
    strictly between the extremes (0 < k < K/2, keeps lambda_S positive) and
    some supported orbit has k > 1 (keeps lambda_I positive).  lambda_one
    and M11 = 1 + (K-1) m2 are the factors of det A, lambda_S and 1 - m2
    those of det B for symmetric moments.
    """
    if not design.symmetric:
        raise OrbitDesignError("regularity classification applies to symmetric designs")
    K = design.k_factors if k_factors is None else k_factors
    if K != design.k_factors:
        raise OrbitDesignError(f"design has K={design.k_factors}, expected {K}")
    support = design.symmetric_support()
    failing: list[str] = []
    if len(support) < 2:
        failing += ["lambda_one", "M11"]
    if K > 3:
        if not any(0 < k < K / 2 for k in support):
            failing.append("lambda_S")
        if not any(k > 1 for k in support):
            failing.append("lambda_I")
    return RegularityReport(not failing, tuple(failing), support)


def inverse_coefficients(k_factors: int, m: MomentSet) -> tuple[tuple[Block, ...], Numeric]:
    """M^-1 as (blocks, L), M^-1 = blocks / L.  For exact moments L is the lcm
    of the block determinants of D M (D the moments' common denominator) and
    the entries D adj(D M) L / det are integers; for float moments L = 1.0.
    Raises SingularDesignError naming the first singular block."""
    scale, factored = _factored_blocks(k_factors, m)
    for block, _, det in factored:
        if not det:
            raise _singular(block)
    exact = isinstance(scale, int)
    denominator = math.lcm(*(det for _, _, det in factored)) if exact else scale
    divide, numerator = floordiv if exact else truediv, scale * denominator
    return tuple(
        block._replace(matrix=tuple(tuple(divide(numerator * x, det) for x in row) for row in adj))
        for block, adj, det in factored
    ), denominator


def moment_derivative(k_factors: int, dm: tuple[Numeric, ...]) -> tuple[Numeric, tuple[Block, ...]]:
    """A scale E and the blocks of E dM along the moment direction dm."""
    dscale, dmoments = common_scale(dm)
    return dscale, information_blocks(k_factors, *dmoments, one=0)


def log_det_derivatives(k_factors: int, m: MomentSet, direction) -> tuple[float, float]:
    """First and second derivative of log det M along direction = moment_derivative(K, dm).

    They are tr(M^-1 dM) and -tr((M^-1 dM)^2), taken block by block with
    M^-1 = D adj(D M) / det(D M).  For exact arguments every block term is
    exact until its final rounding to float.
    """
    scale, factored = _factored_blocks(k_factors, m)
    dscale, dblocks = direction
    first = second = 0.0
    for (block, adjugate, det), d in zip(factored, dblocks):
        if not det:
            raise _singular(block)
        columns = tuple(zip(*d.matrix))
        y = [[sum(map(mul, row, col)) for col in columns] for row in adjugate]
        trace = sum(y[i][i] for i in range(len(y)))
        trace_sq = sum(map(mul, chain(*y), chain(*zip(*y))))
        first += block.mult * (scale * trace / (dscale * det))
        second -= block.mult * (scale * scale * trace_sq / (dscale * det) ** 2)
    return first, second


def assemble_inverse(k_factors: int, m: MomentSet) -> np.ndarray:
    """Dense float inverse of the information matrix (oracle for the blocks).

    Raises SingularDesignError like inverse_coefficients.  Needs numpy.
    """
    import numpy as np

    inverse_coefficients(k_factors, m)
    return np.linalg.inv(assemble_general(k_factors, m.as_floats()).dense)


def info_matrix_of(design: OrbitDesign, *, exact: bool = False) -> InfoMatrix:
    """Convenience: moments then dense assembly for an invariant design (needs numpy)."""
    return assemble_general(design.k_factors, design_moments(design), exact=exact)
