"""Combinatorics of the two-level hypercube {-1,+1}^K.

A design point is a K-tuple with entries -1/+1; its orbit index k is the
number of entries equal to +1 ("active factors").  The permutation group of
the K factors partitions the cube into the K+1 orbits O_0, ..., O_K, and a
permutation-invariant design is fully described by one weight per orbit.
Under the additional sign-flip symmetry, orbits k and K-k are identified
(symmetric orbits), and symmetric designs carry equal weight on both.
``OrbitDesign`` holds its weights as integers over one scale.  Its
constructor reads a mapping of weights into them; the exact constructors
hand over the integers directly (``OrbitDesign._from_numerators``), and such
a design builds its ``Fraction`` weights only when they are first read.
Every design, region and model needs K >= 2 (``check_factor_count``).
``Weight`` (Fraction, float or int) is the one alias that types every number.

Scalar quantities of an orbit -- its size, moments and weights -- exist for
any K.  Listing its points costs C(K, k), so one rule bounds every listing:
``listed_size`` refuses an orbit of more than ``MAX_ORBIT_POINTS`` =
C(64, 32) points, whatever K is.  Two listings exist.  ``enumerate_orbit``
yields the points as tuples.  ``orbit_blocks`` yields the same points in
the same order as '+'/'-' strings, grouped in blocks that share a prefix,
which is what ``expand`` writes.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Iterator, Mapping, Optional, Union

from .exceptions import OrbitDesignError

#: Weights, moments and matrix entries: exact rationals where the construction permits.
Weight = Union[Fraction, float, int]

# The largest orbit a listing holds: the central orbit of K = 64.  A larger
# one would take practically forever to list.
MAX_ORBIT_POINTS = math.comb(64, 32)

WEIGHT_SUM_TOL = 1e-12
# The sum rule compares in integers against this exact binary rational.
_TOL_NUMERATOR, _TOL_DENOMINATOR = WEIGHT_SUM_TOL.as_integer_ratio()

# orbit_blocks splits a point into a prefix and its last SUFFIX_LENGTH
# coordinates, so a block holds at most C(10, 5) = 252 points.
SUFFIX_LENGTH = 10


def check_factor_count(k_factors: int) -> None:
    """The one K policy: the model has an interaction per pair of factors,
    so every model, region and design needs K >= 2."""
    if k_factors < 2:
        raise OrbitDesignError(f"need K >= 2, got {k_factors}")


def check_orbit_index(k_factors: int, k: int) -> None:
    """The one orbit-index rule: orbits are k = 0..K."""
    if not 0 <= k <= k_factors:
        raise OrbitDesignError(f"orbit index must be in 0..{k_factors}, got {k}")


def orbit_size(k_factors: int, k: int) -> int:
    """Exact size C(K, k) of the orbit with k active factors."""
    check_orbit_index(k_factors, k)
    return math.comb(k_factors, k)


def size_digits(size: int) -> str:
    """All digits of an orbit size, past the int-to-str digit limit (K >= 14,292) too."""
    # Decimal writes every digit of an int and is not bound by that limit,
    # so no interpreter-wide setting has to change.
    return str(Decimal(size))


def listed_size(k_factors: int, k: int) -> int:
    """Size C(K, k) of an orbit to be listed; refuses more than MAX_ORBIT_POINTS."""
    size = orbit_size(k_factors, k)
    if size > MAX_ORBIT_POINTS:
        raise OrbitDesignError(
            f"orbit {k} of K = {k_factors} has {size_digits(size)} points; "
            f"an orbit listing holds at most {MAX_ORBIT_POINTS} points"
        )
    return size


def weight_per_point(weight: Weight, size: int) -> float:
    """weight / size as a float, the weight of each point of an orbit of
    that size: divided exactly and rounded once, for every weight and size
    (float / int would round a size above 2^53 first)."""
    return float(Fraction(weight) / size)


def enumerate_orbit(k_factors: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield the C(K, k) points with k active factors.

    Points are emitted in lexicographic order of their +1-position subsets,
    so the stream is deterministic and the first point has the k leading
    coordinates active.  The orbit size is bounded by listed_size.
    """
    listed_size(k_factors, k)
    for positions in combinations(range(k_factors), k):
        point = [-1] * k_factors
        for pos in positions:
            point[pos] = 1
        yield tuple(point)


@cache
def _suffix_table(length: int) -> tuple[tuple[str, ...], ...]:
    """All '+'/'-' strings of the given length, grouped by their '+' count."""
    table: list[list[str]] = [[] for _ in range(length + 1)]
    for chars in product("+-", repeat=length):
        suffix = "".join(chars)
        table[suffix.count("+")].append(suffix)
    return tuple(map(tuple, table))


def orbit_blocks(k_factors: int, k: int) -> Iterator[tuple[str, tuple[str, ...]]]:
    """Yield the points of orbit k as blocks (prefix, suffixes).

    A point is written '+' for an active factor and '-' otherwise; the block
    stands for the points prefix + s, s in suffixes, and its suffixes cover
    the last min(K, SUFFIX_LENGTH) coordinates.  The points come in the
    order of enumerate_orbit: for strings of equal '+' count, the order of
    the +1 positions is string order with '+' before '-'.  Prefixes are
    walked '+' first with an explicit stack, so any K works; the orbit size
    is bounded by listed_size.
    """
    listed_size(k_factors, k)
    width = min(k_factors, SUFFIX_LENGTH)
    suffixes = _suffix_table(width)
    # (prefix, prefix coordinates still open, '+' entries still to place)
    stack = [("", k_factors - width, k)]
    while stack:
        prefix, free, active = stack.pop()
        if free == 0:
            yield prefix, suffixes[active]
            continue
        # Push '-' first so that '+' is walked first; prune a branch whose
        # remaining '+' count cannot fit its remaining coordinates.
        if active < free + width:
            stack.append((prefix + "-", free - 1, active))
        if active > 0:
            stack.append((prefix + "+", free - 1, active - 1))


class Region(namedtuple("Region", "k_factors lower upper")):
    """Design region: all cube points whose active count lies in [lower, upper]."""

    __slots__ = ()

    def __new__(cls, k_factors: int, lower: int, upper: int) -> "Region":
        check_factor_count(k_factors)
        if not 0 <= lower <= upper <= k_factors:
            raise OrbitDesignError(
                f"need 0 <= lower <= upper <= {k_factors}, "
                f"got lower={lower}, upper={upper}"
            )
        return super().__new__(cls, k_factors, lower, upper)

    def symmetric(self) -> bool:
        """True when the bounds are mirror images (lower + upper == K)."""
        return self.lower + self.upper == self.k_factors


class OrbitDesign:
    """Permutation-invariant approximate design: orbit index -> orbit weight.

    Weights are per orbit (the weight of an individual point is the orbit
    weight divided by the orbit size).  A symmetric design -- equal weight on
    orbits k and K-k -- is given by its half k <= K//2, and the design
    writes each of its weights to both orbits.

    A design holds its weights as integers n_k over one scale, mirror orbits
    included; design_moments takes its power sums from them, and the design
    keeps the moments it gives.  The constructor reads each weight once with
    w.as_integer_ratio() (a float is the binary rational it is) and puts
    them over the lcm of their denominators; the exact constructors of
    construct hand over integer numerators and their scale instead
    (_from_numerators).  Both entries end in _store, which checks the factor
    count, the orbit indices, negativity and the sum rule on the integers
    and drops zero weights.  weight() and weights() return the weights as
    given to the constructor, or, for a design built from numerators,
    Fraction(n_k, scale), built on the first read and kept.
    """

    __slots__ = ("k_factors", "symmetric", "_numerators", "_scale", "_weights", "_moments")

    def __init__(
        self,
        k_factors: int,
        weights: Mapping[int, Weight],
        *,
        symmetric: bool = False,
    ) -> None:
        ratios: dict[int, tuple[int, int]] = {}
        for k, w in weights.items():
            try:
                ratios[k] = w.as_integer_ratio()
            except AttributeError:  # numpy integers
                ratios[k] = operator.index(w), 1
            except (ValueError, OverflowError):
                raise OrbitDesignError(f"orbit weight must be finite, got {w} at k={k}") from None
        scale = math.lcm(*{d for _, d in ratios.values()})
        numerators = {k: n * (scale // d) for k, (n, d) in ratios.items()}
        self._store(k_factors, numerators, scale, symmetric, weights)

    @classmethod
    def _from_numerators(
        cls, k_factors: int, numerators: Mapping[int, int], scale: int, *, symmetric: bool = False
    ) -> "OrbitDesign":
        """The design with weights numerators[k] / scale, checked as the
        constructor checks its own; its Fraction weights wait for a read."""
        design = object.__new__(cls)
        design._store(k_factors, numerators, scale, symmetric, None)
        return design

    def _store(
        self,
        k_factors: int,
        numerators: Mapping[int, int],
        scale: int,
        symmetric: bool,
        given: Optional[Mapping[int, Weight]],
    ) -> None:
        """Check and keep integer weights over scale, keyed like the weights
        given (the half of a symmetric design); given, if any, is what
        weight() reads back."""
        check_factor_count(k_factors)
        top = k_factors // 2 if symmetric else k_factors
        stored: dict[int, int] = {}
        for k, n in numerators.items():
            if not 0 <= k <= top:
                check_orbit_index(k_factors, k)
                raise OrbitDesignError(f"symmetric designs store orbits k <= {top} only, got {k}")
            if n < 0:
                w = Fraction(n, scale) if given is None else given[k]
                raise OrbitDesignError(f"orbit weight must be nonnegative, got {w} at k={k}")
            if n:
                for j in (k, k_factors - k) if symmetric else (k,):
                    stored[j] = n
        object.__setattr__(self, "k_factors", k_factors)
        object.__setattr__(self, "symmetric", symmetric)
        object.__setattr__(self, "_numerators", stored)
        object.__setattr__(self, "_scale", scale)
        if given is not None:  # the weights as given, mirror orbits included
            given = {j: given[min(j, k_factors - j) if symmetric else j] for j in stored}
        object.__setattr__(self, "_weights", given)
        object.__setattr__(self, "_moments", None)
        # |total / scale - 1| > WEIGHT_SUM_TOL, cross-multiplied: exact, and
        # no quotient of huge integers has to fit a float.
        total = sum(stored.values())
        if abs(total - scale) * _TOL_DENOMINATOR > _TOL_NUMERATOR * scale:
            raise OrbitDesignError(
                f"orbit weights must sum to 1, got {sum(self.weights().values())}"
            )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("OrbitDesign is immutable")

    def _weight_map(self) -> dict[int, Weight]:
        if self._weights is None:
            scale = self._scale
            weights = {k: Fraction(n, scale) for k, n in self._numerators.items()}
            object.__setattr__(self, "_weights", weights)
        return self._weights

    def weight(self, k: int) -> Weight:
        """Weight of orbit k; 0 for unsupported orbits."""
        return self._weight_map().get(k, 0)

    def weights(self) -> dict[int, Weight]:
        """Orbit-weight map, mirror orbits included (a copy)."""
        return dict(self._weight_map())

    def support(self) -> tuple[int, ...]:
        """Sorted orbit indices carrying positive weight."""
        return tuple(sorted(self._numerators))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OrbitDesign):
            return NotImplemented
        return self.k_factors == other.k_factors and self.weights() == other.weights()

    def __hash__(self) -> int:
        return hash((self.k_factors, tuple(sorted(self.weights().items()))))

    def __repr__(self) -> str:
        kind = "symmetric" if self.symmetric else "general"
        entries = ", ".join(f"{k}: {w}" for k, w in sorted(self.weights().items()))
        return f"OrbitDesign(K={self.k_factors}, {kind}, {{{entries}}})"
