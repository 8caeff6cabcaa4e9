"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from orbitdesign import OrbitDesign
from orbitdesign.info_matrix import interaction_pairs


def symmetric_design(k_factors, totals):
    """Build a structurally symmetric design from totals per symmetric orbit.

    ``totals[k]`` is the combined weight of orbits k and K-k; it is split in
    half unless k is the degenerate central orbit of an even K.
    """
    folded = {}
    for k, total in totals.items():
        if 2 * k == k_factors:
            folded[k] = total
        else:
            folded[k] = total / 2
    return OrbitDesign(k_factors, folded, symmetric=True)


def random_symmetric_designs(k_factors, count, seed, min_total=0.0):
    """Deterministic grid of symmetric designs: full-support Dirichlet draws
    plus a few random small-support patterns (possibly singular).

    min_total > 0 floors every drawn orbit total, keeping the information
    matrix well conditioned (useful where absolute tolerances apply).
    """
    rng = np.random.default_rng(seed)
    n_sym = k_factors // 2 + 1
    designs = []
    for i in range(count):
        if i % 5 == 4 and n_sym >= 2:
            size = int(rng.integers(2, min(3, n_sym) + 1))
            chosen = sorted(rng.choice(n_sym, size=size, replace=False).tolist())
        else:
            chosen = list(range(n_sym))
        raw = rng.dirichlet(np.ones(len(chosen)))
        raw = min_total + (1 - len(chosen) * min_total) * raw
        totals = {k: float(w) for k, w in zip(chosen, raw)}
        designs.append(symmetric_design(k_factors, totals))
    return designs


def orbit_moment_sum(k_factors, k, j):
    """Oracle for orbit_moment: the j-th moment of orbit k via the
    alternating binomial sum, an independent code path.

    Splits the j product coordinates by how many are active: i active ones
    contribute sign (-1)^(j-i), and C(K-j, k-i) points share that pattern.
    """
    K = k_factors
    total = 0
    for i in range(j + 1):
        remaining = k - i
        if remaining < 0 or remaining > K - j:
            continue
        term = math.comb(j, i) * math.comb(K - j, remaining)
        total += term if (i + j) % 2 == 0 else -term
    return Fraction(total, math.comb(K, k))


def random_asymmetric_designs(k_factors, count, seed):
    """Full-support designs with independent weights on every orbit."""
    rng = np.random.default_rng(seed)
    return [
        OrbitDesign(k_factors, dict(enumerate(rng.dirichlet(np.ones(k_factors + 1)))))
        for _ in range(count)
    ]


def feature_vector(k_factors, x):
    """Regression vector (1, x, products of coordinate pairs) as float array."""
    pairs = interaction_pairs(k_factors)
    return np.array(
        [1] + list(x) + [x[a] * x[b] for a, b in pairs], dtype=np.float64
    )


def exact_identity(p):
    """p x p identity with exact Fraction entries (object dtype)."""
    eye = np.empty((p, p), dtype=object)
    for i in range(p):
        for j in range(p):
            eye[i, j] = Fraction(int(i == j))
    return eye
