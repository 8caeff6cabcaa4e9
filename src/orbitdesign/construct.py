"""Construction of D-optimal invariant designs on bounded regions.

``optimal_design(K, lower, upper)`` is the entry point: it decides the
regime and builds the design; the design carries its certificate, and the
caller judges it.  ``regime(K, L)`` is the one place the regime rule lives.

With L <= active count <= K - L, two regimes exist, separated by the
threshold

    B_K = (K - sqrt(3K - 2)) / 2   (K even)
    B_K = (K - sqrt(3K)) / 2       (K odd).

For L <= B_K ("wide" bounds) designs exist whose information matrix equals
the identity, i.e. they are as good as the full 2^K factorial: mixtures,
alpha : 1 - alpha, of the one-pair designs (weight on a pair x, K - x, the
rest on the centre) of the outer pair L and an intermediate pair ell.  The
threshold design is alpha = 1, the pair L = B_K alone: Lemma 2's design,
the full factorial for K <= 3.  For B_K < L < K/2 ("narrow") the identity is
unattainable and the optimal design puts an optimized weight w* on each
outermost orbit with the remainder on the central orbit(s); w* maximizes
the log determinant over (0, 1/2).  That objective is strictly concave and
falls to -inf at both ends.  Its block determinants are integer
polynomials in w, so a safeguarded Newton search (``minimize_scalar``) on
float evaluations of their logarithmic derivatives comes within a few ulps
of w*, and the exact sign of d(log det)/dw = 2 (psi(L) - psi(c)), taken in
integers from the same polynomials at half-ulp midpoints
(``log_det_slope``), then picks the double nearest the exact optimum.
Asymmetric bounds [L, U] reduce to the stricter side max(L, K - U) when
that side is wide.

Regime membership is decided in exact integer arithmetic: L <= B_K is
equivalent to K - 2L > 0 and (K - 2L)^2 >= 3K - 2 (even K) resp. >= 3K
(odd K).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .exceptions import (
    EstimabilityError,
    OrbitDesignError,
    SingularDesignError,
    UnsupportedRegionError,
    WrongRegimeError,
)
from .info_matrix import (
    common_scale,
    d_efficiency_from_log_det,
    determinant_polynomials,
    log_det_symmetric,
)
from .moments import MomentSet, design_moments, orbit_moment
from .orbits import OrbitDesign, Region, check_factor_count, orbit_size
from .verify import KW_TOL, KwReport, kw_check

# The narrow search stops on a step shorter than this; exact signs at
# half-ulp midpoints take w* the rest of the way.  The evaluation cap only
# guards against derivatives that never settle.
SEARCH_XTOL = 1e-12
SEARCH_MAX_EVALUATIONS = 100


def _threshold_discriminant(k_factors: int) -> int:
    return 3 * k_factors - 2 if k_factors % 2 == 0 else 3 * k_factors


def threshold_b(k_factors: int) -> float:
    """Largest lower bound L at which fully efficient designs still exist."""
    check_factor_count(k_factors)
    return (k_factors - math.sqrt(_threshold_discriminant(k_factors))) / 2


def regime(k_factors: int, lower: int) -> str:
    """Regime of the symmetric bounds [L, K-L].

    "narrow" when L > B_K, which includes every L >= K/2; otherwise
    "full-factorial" for K <= 3, "threshold" when L = B_K and "wide" below.
    """
    check_factor_count(k_factors)
    t = k_factors - 2 * lower
    disc = _threshold_discriminant(k_factors)
    if t <= 0 or t * t < disc:
        return "narrow"
    if k_factors <= 3:
        return "full-factorial"
    return "threshold" if t * t == disc else "wide"


def admissible_ells(k_factors: int) -> range:
    """Intermediate orbits of the wide designs: B_K <= ell <= (K - sqrt(K))/2,
    i.e. K <= t^2 <= disc for t = K - 2 ell, or ceil(sqrt K) <= t <= isqrt(disc).
    A region [L, K-L] takes only those above L: not ell = B_K at L = B_K, and
    none for K <= 3 (the range [0]), where the design is the full factorial."""
    K = k_factors
    if K < 1:
        return range(0)
    t_max = math.isqrt(_threshold_discriminant(K))
    t_min = math.isqrt(K - 1) + 1
    return range((K - t_max + 1) // 2, (K - t_min) // 2 + 1)


def full_factorial(k_factors: int) -> OrbitDesign:
    """Uniform weight 2^-K per point, i.e. orbit weights C(K, k) / 2^K."""
    half = {k: orbit_size(k_factors, k) for k in range(k_factors // 2 + 1)}
    return OrbitDesign._from_numerators(k_factors, half, 2**k_factors, symmetric=True)


def lemma2_design(k_factors: int) -> OrbitDesign:
    """Identity-information design available exactly when B_K is an integer.

    The one-pair design of wide_design at L = B_K: weight K/(2(3K-2)) on
    each orbit of the outermost symmetric pair and the rest on the central
    orbit for even K; for odd K the outer weight is (K-1)/(2(3K-1)) and
    each of the two central orbits gets 1/2 minus that.  Both second and
    fourth moments vanish exactly.  For K <= 3 it is the full factorial.
    """
    K = k_factors
    check_factor_count(K)
    # The one integer that can equal B_K, and regime says whether it does.
    lower = (K - math.isqrt(_threshold_discriminant(K))) // 2
    if regime(K, lower) not in ("threshold", "full-factorial"):
        raise OrbitDesignError(
            f"threshold_b({K}) = {threshold_b(K):.4f} is not an integer; "
            "no two/three-orbit identity design exists at the threshold"
        )
    return wide_design(K, lower).design


def _symmetric_regime(k_factors: int, lower: int) -> str:
    """regime(K, L) for wide_design and narrow_design, which refuse a bad
    region by this one rule: K < 2 (regime), bounds outside 0 <= L <= K/2
    (Region), and L = K // 2, a single symmetric orbit on which no design
    estimates all parameters."""
    K = k_factors
    kind = regime(K, lower)
    Region(K, lower, K - lower)
    if lower == K // 2:
        if K <= 3:
            raise EstimabilityError(
                f"for K={K} only the full factorial estimates all parameters; "
                f"no design on [{lower}, {K - lower}] can"
            )
        # Even K: L = K/2 leaves one orbit; odd K: L = (K-1)/2 leaves the two
        # central orbits, which form a single symmetric orbit.
        raise EstimabilityError(
            f"the region [{lower}, {K - lower}] holds a single symmetric orbit; "
            "the information matrix is always singular there"
        )
    return kind


class WideDesignSpec(NamedTuple):
    """A fully efficient design mixing the outermost, an intermediate, and the
    central symmetric orbits; alpha is the mixing proportion of the outer
    component, 1 when the design has no intermediate orbit."""

    k_factors: int
    lower: int
    ell: Optional[int]
    alpha: Fraction
    design: OrbitDesign


def wide_design(k_factors: int, lower: int, ell: Optional[int] = None) -> WideDesignSpec:
    """Fully efficient design on [L, K-L] for L <= B_K.

    A mixture of the one-pair designs of L and of an intermediate orbit ell,
    which the caller may choose from admissible_ells(K); by default the
    smallest admissible integer is used.  At the threshold L = B_K the
    default is the pair L alone (alpha = 1, no ell): Lemma 2's design, which
    is the full factorial for K <= 3, where ell does not apply.
    """
    K = k_factors
    kind = _symmetric_regime(K, lower)
    if K <= 3 and ell is not None:
        raise OrbitDesignError(f"for K={K} the design is the full factorial; ell does not apply")
    if kind == "narrow":
        raise WrongRegimeError(
            f"lower bound {lower} exceeds the threshold B_{K} = {threshold_b(K):.4f}; "
            "use narrow_design"
        )

    ells = admissible_ells(K)
    if ell is None and kind == "wide":
        ell = ells[0]
    if ell is not None and ell <= lower:
        raise OrbitDesignError(f"ell must exceed the lower bound, got ell={ell} <= {lower}")
    if ell is not None and ell not in ells:
        raise OrbitDesignError(
            f"ell={ell} outside the admissible range "
            f"[{threshold_b(K):.4f}, {(K - math.sqrt(K)) / 2:.4f}]"
        )

    # With t_x = K - 2x, s_x = t_x^2 (even K) or t_x^2 - 1 (odd K) and
    # c = K or K - 1, weight w_x = c / (2 s_x) on the pair x, K - x and the
    # rest on the centre zero the second moment.  At t_L^2 = disc the pair L
    # alone (alpha = 1, q = 2 s_L, n_L = c) zeroes the fourth; else mixing the
    # L and ell components in proportion alpha = (disc - t_ell^2) / (t_L^2 - t_ell^2)
    # does; t_ell^2 <= disc (ell admissible) and t_L^2 >= disc (L not narrow)
    # put alpha in [0, 1], and over q = 2 s_L s_ell (t_L^2 - t_ell^2) the
    # weights alpha w_L and (1 - alpha) w_ell are integers n_L and n_ell.
    # The design takes them over q (1 + K mod 2), so that the rest, split
    # over the two central orbits for odd K, is an integer too; it builds
    # its Fraction weights only when they are read.
    odd = K % 2
    s_low = (K - 2 * lower) ** 2 - odd
    if ell is None:
        alpha, q, n_low, n_ell = Fraction(1), 2 * s_low, K - odd, 0
    else:
        s_ell = (K - 2 * ell) ** 2 - odd
        # disc - t_ell^2 and t_L^2 - t_ell^2
        numer, span = _threshold_discriminant(K) - odd - s_ell, s_low - s_ell
        alpha, q = Fraction(numer, span), 2 * s_low * s_ell * span
        n_low = (K - odd) * numer * s_ell
        n_ell = (K - odd) * (span - numer) * s_low
    halves = 1 + odd
    numerators = {lower: n_low * halves}
    if ell is not None:
        numerators[ell] = n_ell * halves
    numerators[K // 2] = q - 2 * (n_low + n_ell)
    design = OrbitDesign._from_numerators(K, numerators, q * halves, symmetric=True)
    if not (m := design_moments(design)).all_zero():
        raise OrbitDesignError(f"construction failed to zero the moments: {m}")
    return WideDesignSpec(K, lower, ell, alpha, design)


def minimize_scalar(
    derivatives: Callable[[float], tuple[float, float]], lo: float, hi: float
) -> tuple[float, int]:
    """Minimizer of a strictly convex function on the open interval (lo, hi).

    derivatives(x) gives the first and second derivative at x.  Newton steps
    stay inside a bracket that shrinks on the sign of the first derivative;
    a step that would leave it is replaced by bisection.  The search stops
    once a step is shorter than SEARCH_XTOL, so a converged Newton iteration
    is not followed by bisection down to the bracket width.  Evaluates only
    inside (lo, hi).  Returns the minimizer and the number of evaluations.
    """
    x = (lo + hi) / 2
    for evaluations in range(1, SEARCH_MAX_EVALUATIONS + 1):
        first, second = derivatives(x)
        if first > 0:
            hi = x
        else:
            lo = x
        step = first / second if second > 0 else math.inf
        if abs(step) < SEARCH_XTOL:
            return x - step, evaluations
        previous, x = x, x - step
        if not lo < x < hi:
            x = (lo + hi) / 2
        if abs(x - previous) < SEARCH_XTOL:
            break
    return x, evaluations


def log_det_slope(polynomials: list[tuple[int, tuple[int, ...]]], n: int, d: int) -> int:
    """A positive multiple of d(log det)/dw at the rational w = n/d, in integers.

    For d > 0 (n/d need not be reduced) and the polynomials p_b of
    determinant_polynomials, homogeneous Horner gives P_b = d^deg p_b(n/d) and
    P'_b = d^(deg-1) p_b'(n/d); the slope sum_b mult_b p_b'/p_b has the sign of
    the returned sum_b mult_b P'_b prod_{c != b} P_c.  Raises
    SingularDesignError if some P_b <= 0.
    """
    total, product = 0, 1
    for mult, coeffs in polynomials:
        p, dp, power = 0, 0, 1
        for c in reversed(coeffs):
            dp = dp * n + p
            p = p * n + c * power
            power *= d
        if p <= 0:
            raise SingularDesignError(f"information matrix is singular at w = {Fraction(n, d)}")
        total = total * p + mult * dp * product
        product *= p
    return total


class NarrowDesignSpec(NamedTuple):
    """Optimized two-symmetric-orbit design for narrow bounds.

    w_star is the double nearest the exact optimum.  evaluations counts the
    float derivative evaluations of the search and the exact sign
    evaluations together; residual is the float d(log det)/dw at w_star.
    The spec carries its certificate, and the caller judges it.
    """

    k_factors: int
    lower: int
    w_star: float
    design: OrbitDesign
    log_det: float
    d_efficiency: float
    kw_report: KwReport
    evaluations: int
    residual: float


def narrow_design(k_factors: int, lower: int) -> NarrowDesignSpec:
    """Optimal design on [L, K-L] for B_K < L < K/2.

    Weight w* on each of the two outermost orbits, remainder on the central
    orbit(s).  w* maximizes the log determinant over (0, 1/2).  A
    safeguarded Newton search (minimize_scalar) runs on float Horner
    evaluations of the block-determinant polynomials; from its result w
    moves one ulp at a time while the exact sign of d(log det)/dw, taken in
    integers from the same polynomials at the half-ulp midpoint
    (log_det_slope), says the root lies beyond it.  So w* is the double
    nearest the exact optimum, whatever path the search took.  The spec
    carries its certificate, and the caller judges it (at large K a double
    w* can miss KW_TOL); it also records the evaluations and the residual.

    It reads its four orbit moments once and puts them over their lcm D, so
    determinant_polynomials takes the pencil M(w) as integers over D and
    builds the one set of polynomials that the search, the walk and the
    residual share.  kw_check factors the certificate's blocks, and
    log_det_symmetric(K, report.moments) reuses that factorisation.
    """
    K = k_factors
    if _symmetric_regime(K, lower) != "narrow":
        raise WrongRegimeError(
            f"lower bound {lower} is at or below the threshold B_{K} = "
            f"{threshold_b(K):.4f}; use wide_design"
        )

    center = K // 2
    # m2 and m4 are affine in w, m_j(w) = m_j(center) + w * slope_j exactly,
    # with slope_j = 2 (m_j(lower) - m_j(center)); over the lcm D of the four
    # orbit moments' denominators each block determinant of D M(w) is an
    # integer polynomial in w.
    scale, (c2, c4, l2, l4) = common_scale(
        [orbit_moment(K, k, j) for k in (center, lower) for j in (2, 4)]
    )
    pencil = (0, c2, 0, c4), (0, 2 * (l2 - c2), 0, 2 * (l4 - c4))
    exact = determinant_polynomials(K, scale, *pencil)
    polynomials = [(mult, [float(c) for c in reversed(coeffs)]) for mult, coeffs in exact]

    def derivatives(w: float) -> tuple[float, float]:
        """d(-log det)/dw and its derivative: minus the sums over the blocks
        of mult p'/p and of mult (p''/p - (p'/p)^2), by Horner in floats."""
        first = second = 0.0
        for mult, coeffs in polynomials:
            p = dp = half_d2p = 0.0
            for c in coeffs:
                half_d2p = half_d2p * w + dp
                dp = dp * w + p
                p = p * w + c
            ratio = dp / p
            first -= mult * ratio
            second -= mult * (2 * half_d2p / p - ratio * ratio)
        return first, second

    w, evaluations = minimize_scalar(derivatives, 0.0, 0.5)
    # w* is the double nearest the root of d(log det)/dw: move one ulp while
    # the exact sign at the half-ulp midpoint (a/b + c/e) / 2 = (a e + c b) / (2 b e)
    # says the root lies beyond it, upwards first and downwards only if w
    # did not move up.
    for toward, sign in ((math.inf, 1), (-math.inf, -1)):
        start = w
        while True:
            neighbour = math.nextafter(w, toward)
            evaluations += 1
            a, b = w.as_integer_ratio()
            c, e = neighbour.as_integer_ratio()
            if sign * log_det_slope(exact, a * e + c * b, 2 * b * e) <= 0:
                break
            w = neighbour
        if w != start:
            break

    design = OrbitDesign(K, {lower: w, center: (1 - 2 * w) / (1 + K % 2)}, symmetric=True)
    report = kw_check(design, lower, K - lower)
    ld = log_det_symmetric(K, report.moments)
    # The residual is d(log det)/dw; 0.0 - x, unlike -x, keeps a zero +0.0.
    return NarrowDesignSpec(
        K, lower, w, design, ld, d_efficiency_from_log_det(K, ld), report, evaluations,
        0.0 - derivatives(w)[0],
    )


class OptimalDesign(NamedTuple):
    """The optimal design of a region [lower, upper] with its certificate.

    moments are the exact moments of the stored design, log_det and
    d_efficiency follow from them, and kw_report is the one
    equivalence-theorem check of the design over [lower, upper].
    """

    k_factors: int
    lower: int
    upper: int
    regime: str
    design: OrbitDesign
    moments: MomentSet
    log_det: float
    d_efficiency: float
    kw_report: KwReport


def optimal_design(
    k_factors: int,
    lower: int,
    upper: Optional[int] = None,
    ell: Optional[int] = None,
    tol: float = KW_TOL,
) -> OptimalDesign:
    """D-optimal design on [lower, upper] (default upper: K - lower), with its certificate.

    The regime is that of the stricter side max(L, K-U).  When it is wide,
    the fully efficient design for [max(L, K-U), K - max(L, K-U)] lies inside
    [L, U] and stays optimal there; ell is passed on to wide_design.
    Narrow bounds are supported when symmetric (UnsupportedRegionError
    otherwise) and take no ell.  The verdict of kw_report is taken at tol.
    """
    K = k_factors
    upper = K - lower if upper is None else upper
    effective = max(lower, K - upper)
    kind = regime(K, effective)
    region = Region(K, lower, upper)
    if kind != "narrow":
        design = wide_design(K, effective, ell).design
        report = kw_check(design, lower, upper, tol)
        # wide_design refuses any nonzero moment and kw_check returns those
        # moments: M = I, whose log det is exactly 0.
        ld = 0.0
    elif not region.symmetric():
        raise UnsupportedRegionError(
            f"asymmetric bounds [{lower}, {upper}] put max(L, K-U) = {effective} above "
            f"the threshold B_{K} = {threshold_b(K):.4f}; only wide asymmetric "
            "bounds are supported"
        )
    elif ell is not None:
        raise OrbitDesignError("ell applies to the wide regime only")
    else:
        spec = narrow_design(K, lower)
        design, ld = spec.design, spec.log_det
        report = spec.kw_report._replace(tol=tol)
    return OptimalDesign(
        K, lower, upper, kind, design, report.moments, ld,
        d_efficiency_from_log_det(K, ld), report,
    )
