"""Seeded inputs of the four workloads.

The seed fixes a workload's deck: a fixed mix of operations whose factor
counts, bounds and orbit weights are drawn from the seed.  The composition
of a deck is the same for every seed, so shares such as the failure fraction
do not depend on the seed.  A run replays the deck several times, each
replay in its own seeded order, and an operation's time is its median over
the replays, which damps the bursts in which other tenants of the machine
slow it down.

This module only makes inputs.  It imports nothing from ``orbitdesign``: the
regime of a region comes from the documented integer criterion
(K - 2L)^2 >= 3K - 2 (even K) or >= 3K (odd K).
"""

from __future__ import annotations

import random

WORKLOADS = ("cli-cold", "solve-sweep", "expand-stream", "oracle-check")

#: Workloads whose untraced operations are cold ``python -m orbitdesign`` children.
CLI_WORKLOADS = ("cli-cold", "expand-stream")

#: Symmetric regions whose narrow certificate fails at the seed commit
#: (float w* is not certifiable at the absolute 1e-9 tolerance there).
CERTIFICATE_FAILURES = frozenset({(76, 37), (80, 39), (92, 45), (94, 46), (100, 49)})

#: Largest factor count the seed commit accepts where it needs C(K, k).
REFUSAL_MAX_K = 64

#: Factor counts whose wide table has two rows and whose narrow table has
#: three, so that every deck's tables requests report the same number of designs.
TABLES_WIDE_K = (6, 7, 8)
TABLES_NARROW_K = (14, 16, 18, 19, 20, 21, 22)

#: Lower bounds per K for expand-stream.  Each band holds wide regions and
#: one narrow region whose supports differ by under 3%, so every deck writes
#: about 0.09 M, 0.24 M and 0.34 M lines whatever the seed.
EXPAND_BANDS = {18: (0, 1, 2, 3, 4, 6), 19: (0, 1, 2, 3, 4, 6), 20: (0, 1, 2, 3, 4, 7)}


def disc(k_factors: int) -> int:
    return 3 * k_factors - 2 if k_factors % 2 == 0 else 3 * k_factors


def regime(k_factors: int, lower: int) -> str:
    """Regime of the symmetric region [L, K-L]; L is below the centre orbit."""
    t2 = (k_factors - 2 * lower) ** 2
    d = disc(k_factors)
    if t2 == d:
        return "threshold"
    return "wide" if t2 > d else "narrow"


def default_ell(k_factors: int) -> int:
    """Smallest admissible intermediate orbit (the program's default)."""
    return next(e for e in range(k_factors // 2 + 1) if (k_factors - 2 * e) ** 2 <= disc(k_factors))


def sweep_regions() -> list[tuple[int, int]]:
    """Every symmetric region [L, K-L] with K = 4..100 and L below the centre orbit."""
    return [(k, low) for k in range(4, 101) for low in range(k // 2)]


def _lowers(k_factors: int, which: str) -> list[int]:
    return [low for low in range(k_factors // 2) if regime(k_factors, low) == which]


def _optimal(k_factors: int, lower: int, upper: int | None = None, **extra) -> dict:
    upper = k_factors - lower if upper is None else upper
    argv = ["optimal", "--k", str(k_factors), "--lower", str(lower)]
    if upper != k_factors - lower:
        argv += ["--upper", str(upper)]
    return {"kind": "optimal", "argv": argv, "k": k_factors, "lower": lower, "upper": upper, **extra}


def _symmetric(rng: random.Random, k_factors: int, which: str) -> dict:
    lower = rng.choice(_lowers(k_factors, which))
    return _optimal(k_factors, lower, effective=lower, regime=which)


def _cli_cold_units(rng: random.Random, tiny: bool) -> list[list[dict]]:
    """Units of the deck; a unit is one request, or an optimal --json then its verify."""
    small = range(4, 23)
    units = [[_symmetric(rng, rng.choice(small), which)] for which in ("wide", "narrow", "narrow")]
    k, low = rng.choice(((6, 1), (22, 7)))
    units.append([_optimal(k, low, effective=low, regime="threshold")])

    # Asymmetric wide bounds: the stricter side eff >= 1 is at or below B_K,
    # which needs K >= 6; the program answers with the design for [eff, K-eff].
    k = rng.randint(6, 22)
    eff = rng.choice([low for low in range(1, k // 2) if regime(k, low) != "narrow"])
    if rng.random() < 0.5:
        lower, upper = eff, rng.randint(k - eff + 1, k)
    else:
        lower, upper = rng.randint(0, eff - 1), k - eff
    units.append([_optimal(k, lower, upper, effective=eff, regime=regime(k, eff))])

    k = rng.choice(small)
    spec = _symmetric(rng, k, rng.choice(("wide", "narrow")))
    path = "{scratch}/design.json"
    spec["argv"] += ["--json", path]
    units.append([spec, {"kind": "verify", "argv": ["verify", path], "k": k,
                         "lower": spec["lower"], "upper": spec["upper"]}])

    k = rng.choice(TABLES_WIDE_K)
    units.append([{"kind": "tables", "argv": ["tables", "--which", "wide", "--k", str(k)],
                   "k": k, "which": "wide"}])
    k = rng.choice(TABLES_NARROW_K)
    units.append([{"kind": "tables", "argv": ["tables", "--which", "narrow", "--k", str(k)],
                   "k": k, "which": "narrow"}])

    # One request in ten has K = 65..100: the seed commit refuses it (K > 64)
    # or, for the narrow K >= 76 regions listed, cannot certify it.
    if rng.random() < 0.5:
        k, low = rng.choice(sorted(CERTIFICATE_FAILURES))
    else:
        k = rng.randint(REFUSAL_MAX_K + 1, 100)
        low = rng.choice([low for low in range(k // 2) if (k, low) not in CERTIFICATE_FAILURES])
    units.append([_optimal(k, low, effective=low, regime=regime(k, low))])

    if tiny:
        units = [units[1], units[5], units[7], units[8]]
    return units


def _expand_units(rng: random.Random, tiny: bool) -> list[list[dict]]:
    units = []
    for k, lowers in ({10: (0, 1, 3)} if tiny else EXPAND_BANDS).items():
        low = rng.choice(lowers)
        units.append([{"kind": "expand", "argv": ["expand", "--k", str(k), "--lower", str(low)],
                       "k": k, "lower": low, "upper": k - low, "effective": low,
                       "regime": regime(k, low)}])
    return units


def _solve_units(rng: random.Random, tiny: bool) -> list[list[dict]]:
    regions = sweep_regions()
    if tiny:
        regions = rng.sample(regions, 30) + [min(CERTIFICATE_FAILURES)]
    return [[{"kind": "solve", "k": k, "lower": low, "upper": k - low, "effective": low,
              "regime": regime(k, low)}] for k, low in regions]


def _dirichlet(rng: random.Random, size: int, floor: float) -> list[float]:
    """Dirichlet(1, ..., 1) draw with every share at least ``floor``."""
    raw = [rng.gammavariate(1.0, 1.0) for _ in range(size)]
    total = sum(raw)
    return [floor + (1 - size * floor) * r / total for r in raw]


def _oracle_design(rng: random.Random, k_factors: int, symmetric: bool) -> dict:
    if symmetric:
        # Totals per symmetric orbit, floored at 0.02 as in the tier-1 oracle
        # tests, so that absolute tolerances stay meaningful.
        totals = _dirichlet(rng, k_factors // 2 + 1, 0.02)
        weights = {k: t if 2 * k == k_factors else t / 2 for k, t in enumerate(totals)}
    else:
        weights = dict(enumerate(_dirichlet(rng, k_factors + 1, 0.01)))
    return {"kind": "oracle", "k": k_factors, "symmetric": symmetric,
            "weights": {str(k): w for k, w in weights.items()}}


def _oracle_units(rng: random.Random, tiny: bool) -> list[list[dict]]:
    """One unit per K: its symmetric, then its asymmetric design.

    Both designs of a K up to 12 enumerate all K + 1 orbits, so the first
    builds the enumeration oracle's cached Gram matrices and the second finds
    them warm.  Keeping the pair in one unit, in a fixed order, puts that cold
    cost on the same operation in every replay.
    """
    ks = [4, 6, 13] if tiny else range(4, 23)
    return [[_oracle_design(rng, k, sym) for sym in (True, False)] for k in ks]


_UNITS = {
    "cli-cold": _cli_cold_units,
    "solve-sweep": _solve_units,
    "expand-stream": _expand_units,
    "oracle-check": _oracle_units,
}


def deck(workload: str, seed: int, replay: int = 0, tiny: bool = False) -> list[dict]:
    """The seed's operations in the order of replay ``replay``.

    Each operation carries an ``id``, its place in the deck, that is the
    same in every replay.
    """
    units = _UNITS[workload](random.Random(f"{workload}/{seed}"), tiny)
    for index, op in enumerate(op for unit in units for op in unit):
        op["id"] = index
    random.Random(f"{workload}/{seed}/{replay}").shuffle(units)
    return [op for unit in units for op in unit]


def label(op: dict) -> str:
    """Short description of an operation for result files."""
    if "argv" in op:
        return " ".join(op["argv"])
    if op["kind"] == "oracle":
        return f"oracle K={op['k']} {'sym' if op['symmetric'] else 'asym'}"
    return f"solve K={op['k']} L={op['lower']} {op['regime']}"
