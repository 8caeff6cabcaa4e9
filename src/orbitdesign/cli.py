"""Command line front end.

Subcommands:

  optimal   construct the D-optimal design for a region, certify it, report it
  verify    run the equivalence-theorem check on a design file (any
            invariant design, sign-symmetric or not)
  tables    regenerate the reference tables of optimal designs (wide/narrow)
  expand    list every supported design point with its weight

Design file format (JSON, orbit weights, not point weights):

  {"k": 6, "lower": 2, "upper": 4,
   "orbits": [{"k": 2, "weight": 0.3865}, ...]}

A weight is a JSON number or a string "n/d", the exact rational n/d (any
string that fractions.Fraction reads, such as "0.15", is taken exactly).
optimal --json writes the weights of an exact design (wide, threshold,
full factorial) as such strings, so that verify of its file repeats the
exact certificate, and every other weight as a number.  A point of orbit k
carries point_weight: the orbit weight as a float, divided by C(K, k)
exactly and rounded once, for every K.

K policy: optimal and verify work on orbit weights and moments, and take
any K >= 2.  expand lists points, and refuses a design with an orbit of
more than C(64, 32) points before it writes anything.

Exit codes: 0 success / check passed, 2 usage or file error,
3 singular or non-estimable region, 4 equivalence check failed: max(psi - p)
on the region exceeds --tol (absolute), as a narrow double w* can at large K,
141 output pipe closed by its reader (as a tool killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from .construct import OptimalDesign, admissible_ells, optimal_design, regime, threshold_b
from .exceptions import (
    OrbitDesignError,
    SingularDesignError,
    UnsupportedRegionError,
)
from .orbits import (
    OrbitDesign,
    Region,
    Weight,
    listed_size,
    orbit_blocks,
    orbit_size,
    size_digits,
    weight_per_point,
)
from .verify import KW_TOL, kw_check

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SINGULAR = 3
EXIT_KW_FAIL = 4
EXIT_BROKEN_PIPE = 141

WIDE_TABLE_K = tuple(range(4, 13)) + (22,)
NARROW_TABLE_K = tuple(range(4, 23))

# expand writes its points in chunks of this many lines: one join per chunk
# keeps memory flat in the output size, and whole chunks write faster than
# single lines.
EXPAND_CHUNK_LINES = 8192


def _orbit_rows(design: OrbitDesign) -> list[tuple[int, float, float, int]]:
    """(k, orbit weight, point weight, orbit size) per supported orbit, ascending k."""
    rows = []
    for k, w in sorted(design.weights().items()):
        size, weight = orbit_size(design.k_factors, k), float(w)
        rows.append((k, weight, weight_per_point(weight, size), size))
    return rows


def _print_report(result: OptimalDesign) -> None:
    kw = result.kw_report
    print(
        f"K = {result.k_factors}  region: {result.lower} <= active <= "
        f"{result.upper}  p = {kw.p}"
    )
    print(f"regime: {result.regime}")
    print(f"{'k':>4} {'orbit_weight':>14} {'point_weight':>14} {'size':>6}")
    for k, orbit_weight, point_weight, size in _orbit_rows(result.design):
        print(f"{k:>4} {orbit_weight:>14.8f} {point_weight:>14.8f} {size_digits(size):>6}")
    m = result.moments.as_floats()
    print(f"moments: m1={m.m1:.8g} m2={m.m2:.8g} m3={m.m3:.8g} m4={m.m4:.8g}")
    print(f"log det = {result.log_det:.12g}   D-efficiency = {result.d_efficiency:.6f}")
    verdict = "PASS" if kw.passed else "FAIL"
    print(f"KW check: max(psi - p) = {kw.max_violation:.3e} (tol {kw.tol:.0e}) -> {verdict}")


def _json_weight(weight: Weight) -> Union[str, float]:
    """A weight as a design file holds it: a Fraction as the string "n/d",
    which a float would round, and any other weight as a number."""
    if isinstance(weight, Fraction):
        return f"{weight.numerator}/{weight.denominator}"
    return float(weight)


def _write_design_json(path: str, design: OrbitDesign, lower: int, upper: int) -> None:
    import json  # only design files need json; commands without one skip its import

    orbits = [{"k": k, "weight": _json_weight(w)} for k, w in sorted(design.weights().items())]
    payload = {"k": design.k_factors, "lower": lower, "upper": upper, "orbits": orbits}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_design_csv(path: str, design: OrbitDesign) -> None:
    lines = ["k,orbit_weight,point_weight,orbit_size"]
    for k, orbit_weight, point_weight, size in _orbit_rows(design):
        lines.append(f"{k},{orbit_weight:.17g},{point_weight:.17g},{size_digits(size)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_design_file(path: str):
    """Parse and validate a design file; returns (design, k, lower, upper).

    Unknown keys are rejected, weights must be finite, nonnegative and sum
    to 1 within 1e-9 (then renormalized), and every orbit must lie inside
    the declared region.  A JSON number is read as a float and a string as
    a Fraction; weights that are all strings stay exact.  Any invariant
    design is accepted, sign-symmetric or not; verify and expand load the
    same design.
    """
    import json  # only design files need json; commands without one skip its import

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # also bad UTF-8 and over-long integers
        raise OrbitDesignError(f"cannot read design file {path}: {exc}") from exc

    if not isinstance(raw, dict):
        raise OrbitDesignError("design file: must hold a JSON object")
    expected = {"k", "lower", "upper", "orbits"}
    if set(raw) != expected:
        unknown = set(raw) - expected
        missing = expected - set(raw)
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise OrbitDesignError("design file: " + ", ".join(parts))

    k_factors, lower, upper = raw["k"], raw["lower"], raw["upper"]
    for name, value in (("k", k_factors), ("lower", lower), ("upper", upper)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise OrbitDesignError(f"design file: {name} must be an integer")
    Region(k_factors, lower, upper)

    if not isinstance(raw["orbits"], list) or not raw["orbits"]:
        raise OrbitDesignError("design file: orbits must be a nonempty list")
    weights: dict[int, Weight] = {}
    for entry in raw["orbits"]:
        if not isinstance(entry, dict) or set(entry) != {"k", "weight"}:
            raise OrbitDesignError(
                "design file: each orbit needs exactly the keys 'k' and 'weight'"
            )
        k, w = entry["k"], entry["weight"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise OrbitDesignError("design file: orbit index must be an integer")
        try:
            if type(w) is str:
                weight = Fraction(w)
            else:
                weight = float(w) if type(w) in (int, float) else math.nan
        except (ValueError, ZeroDivisionError):  # a string that is no rational
            weight = math.nan
        except OverflowError:  # an integer literal beyond the float range
            weight = math.inf
        if not 0 <= weight < math.inf:
            raise OrbitDesignError(f"design file: invalid weight {w!r} at k={k}")
        if k in weights:
            raise OrbitDesignError(f"design file: duplicate orbit index {k}")
        if not lower <= k <= upper:
            raise OrbitDesignError(
                f"design file: orbit {k} outside the region [{lower}, {upper}]"
            )
        weights[k] = weight

    total = sum(weights.values())
    if abs(total - 1) > 1e-9:
        shown = float(total) if total <= sys.float_info.max else math.inf
        raise OrbitDesignError(f"design file: orbit weights sum to {shown:.12g}, not 1")
    weights = {k: w / total for k, w in weights.items()}
    return OrbitDesign(k_factors, weights), k_factors, lower, upper


def _cmd_optimal(args: argparse.Namespace) -> int:
    result = optimal_design(args.k, args.lower, args.upper, args.ell, args.tol)
    _print_report(result)
    if args.json:
        _write_design_json(args.json, result.design, result.lower, result.upper)
    if args.csv:
        _write_design_csv(args.csv, result.design)
    return EXIT_OK if result.kw_report.passed else EXIT_KW_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    design, k_factors, lower, upper = _load_design_file(args.file)
    if args.lower is not None:
        lower = args.lower
    if args.upper is not None:
        upper = args.upper
    report = kw_check(design, lower, upper, args.tol)
    print(f"design: K = {k_factors}, region {lower} <= active <= {upper}")
    print(f"{'k':>4} {'psi(k)':>20} {'psi(k) - p':>14}")
    for k in sorted(report.per_orbit):
        value = report.per_orbit[k]
        print(f"{k:>4} {value:>20.12f} {value - report.p:>14.3e}")
    print("KW check: " + report.summary())
    return EXIT_OK if report.passed else EXIT_KW_FAIL


def _table_weight(value: Weight) -> str:
    """A weight of the wide table; '-' for an orbit the design leaves empty."""
    return f"{float(value):.4f}" if value else "-"


def _wide_rows(k_factors: int) -> list[str]:
    """Lines 'K L ell c w_L w_ell w_c B_K' of the wide-bounds table."""
    K, center = k_factors, k_factors // 2
    rows = []
    for low in range(K // 2 + 1):
        if regime(K, low) == "narrow":
            continue
        for ell in admissible_ells(K):
            # ell == low happens only when low sits exactly at the threshold;
            # that is the two-orbit row, printed without an ell entry.
            two_orbit = ell == low
            weight = optimal_design(K, low, ell=None if two_orbit else ell).design.weight
            rows.append(
                f"{K} {low} {'-' if two_orbit else ell} {center} "
                f"{_table_weight(weight(low))} "
                f"{_table_weight(0 if two_orbit else weight(ell))} "
                f"{float(weight(center)):.4f} {threshold_b(K):.2f}"
            )
    return rows


def _narrow_rows(k_factors: int) -> list[str]:
    """Lines 'K L c w_L w_c efficiency B_K' of the narrow-bounds table.

    Lower bounds range over (K - sqrt(3K - 2))/2 < L < K/2; for odd K the
    value L with (K - 2L)^2 = 3K - 2 is excluded here (matching the
    published listing) although the package calls it narrow.
    """
    K, center = k_factors, k_factors // 2
    rows = []
    for low in range(center):
        if (K - 2 * low) ** 2 >= 3 * K - 2:
            continue
        result = optimal_design(K, low)
        weight = result.design.weight
        rows.append(
            f"{K} {low} {center} {float(weight(low)):.4f} "
            f"{float(weight(center)):.4f} {result.d_efficiency:.4f} "
            f"{threshold_b(K):.2f}"
        )
    return rows


_TABLES = (
    ("wide", "K L ell c w_L w_ell w_c B_K", WIDE_TABLE_K, _wide_rows),
    ("narrow", "K L c w_L w_c efficiency B_K", NARROW_TABLE_K, _narrow_rows),
)


def _cmd_tables(args: argparse.Namespace) -> int:
    if args.k is not None and not 4 <= args.k <= 22:
        raise OrbitDesignError(f"tables cover 4 <= K <= 22, got {args.k}")
    lines: list[str] = []
    for which, header, table_ks, rows in _TABLES:
        if args.which in (which, "both"):
            lines.append(header)
            for key in table_ks if args.k is None else (args.k,):
                lines.extend(rows(key))
    output = "\n".join(lines) + "\n"
    sys.stdout.write(output)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(line.replace(" ", ",") for line in lines) + "\n")
    return EXIT_OK


def _expand_chunks(design: OrbitDesign, n: Optional[int]) -> Iterator[str]:
    """The output of expand in chunks of about EXPAND_CHUNK_LINES lines.

    The first chunk carries the header.  _cmd_expand runs listed_size on
    every orbit before any output or CSV is opened, so a refused expansion
    writes nothing.  Each orbit comes from orbit_blocks as (prefix,
    suffixes) blocks; the line endings of a suffix list are built once per
    orbit, and a block is its prefix joined with them.  A chunk closes
    after the block that reaches EXPAND_CHUNK_LINES, so it overshoots by
    less than one block, at most C(10, 5) = 252 lines.
    """
    parts = ["k,point,point_weight" + ("" if n is None else ",count") + "\n"]
    lines = 0
    for k, _, weight, _ in _orbit_rows(design):
        tail = f",{weight:.17g}" + ("" if n is None else f",{round(n * weight)}") + "\n"
        endings: dict[tuple[str, ...], list[str]] = {}
        for prefix, suffixes in orbit_blocks(design.k_factors, k):
            ends = endings.get(suffixes)
            if ends is None:
                ends = endings[suffixes] = [suffix + tail for suffix in suffixes]
            head = f"{k},{prefix}"
            parts.append(head + head.join(ends))
            lines += len(suffixes)
            if lines >= EXPAND_CHUNK_LINES:
                yield "".join(parts)
                parts, lines = [], 0
    if lines:
        yield "".join(parts)


def _cmd_expand(args: argparse.Namespace) -> int:
    if args.file is not None:
        if any(v is not None for v in (args.k, args.lower, args.upper, args.ell)):
            raise OrbitDesignError("expand FILE takes no --k, --lower, --upper or --ell")
        design = _load_design_file(args.file)[0]
    elif args.k is None or args.lower is None:
        raise OrbitDesignError("expand needs either a design file or --k and --lower")
    else:
        design = optimal_design(args.k, args.lower, args.upper, args.ell).design

    for k in design.support():
        listed_size(design.k_factors, k)  # refuses before any output is opened
    with open(args.csv, "w", encoding="utf-8") if args.csv else nullcontext() as csv:
        for chunk in _expand_chunks(design, args.n):
            sys.stdout.write(chunk)
            if csv:
                csv.write(chunk)
    if args.n is not None:
        total_count = sum(
            size * round(args.n * weight) for _, _, weight, size in _orbit_rows(design)
        )
        note = (
            f"note: naive rounded counts sum to {total_count} "
            f"(target N = {args.n}); optimal rounding to an exact design "
            "is out of scope"
        )
        print(note, file=sys.stderr)
    return EXIT_OK


def _tolerance(text: str) -> float:
    """argparse type of --tol: a finite float >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text}")
    return value


def _sample_size(text: str) -> int:
    """argparse type of --n: an integer >= 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"sample size must be >= 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbitdesign",
        description=(
            "D-optimal designs for two-level interaction models when the "
            "number of active factors is bounded from both sides"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimal", help="construct and certify the optimal design")
    p_opt.add_argument("--k", type=int, required=True, help="number of factors K")
    p_opt.add_argument(
        "--lower", type=int, required=True, help="minimal number of active factors"
    )
    p_opt.add_argument(
        "--upper", type=int, default=None,
        help="maximal number of active factors (default: K - lower)",
    )
    p_opt.add_argument(
        "--ell", type=int, default=None,
        help="intermediate orbit index for the wide regime (default: smallest admissible)",
    )
    p_opt.add_argument("--tol", type=_tolerance, default=KW_TOL, help="KW check tolerance")
    p_opt.add_argument("--json", metavar="PATH", help="write the design file here")
    p_opt.add_argument("--csv", metavar="PATH", help="write orbit weights as CSV")

    p_ver = sub.add_parser("verify", help="equivalence-theorem check of a design file")
    p_ver.add_argument("file", help="design file (JSON)")
    p_ver.add_argument("--lower", type=int, default=None, help="override region lower bound")
    p_ver.add_argument("--upper", type=int, default=None, help="override region upper bound")
    p_ver.add_argument("--tol", type=_tolerance, default=KW_TOL, help="KW check tolerance")

    p_tab = sub.add_parser("tables", help="regenerate the optimal-design tables")
    p_tab.add_argument(
        "--which", choices=("wide", "narrow", "both"), default="both",
        help="which table to print",
    )
    p_tab.add_argument("--k", type=int, default=None, help="restrict to one K")
    p_tab.add_argument("--csv", metavar="PATH", help="also write CSV here")

    p_exp = sub.add_parser("expand", help="list all supported design points")
    p_exp.add_argument("file", nargs="?", help="design file (JSON); omit to construct one")
    p_exp.add_argument("--k", type=int, default=None, help="number of factors K")
    p_exp.add_argument("--lower", type=int, default=None, help="minimal active count")
    p_exp.add_argument("--upper", type=int, default=None, help="maximal active count")
    p_exp.add_argument("--ell", type=int, default=None, help="intermediate orbit (wide regime)")
    p_exp.add_argument(
        "--n", type=_sample_size, default=None, help="sample size for rounded counts"
    )
    p_exp.add_argument("--csv", metavar="PATH", help="also write CSV here")
    return parser


_HANDLERS = {
    "optimal": _cmd_optimal,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
    "expand": _cmd_expand,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (SingularDesignError, UnsupportedRegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except BrokenPipeError:
        # The reader of stdout stopped early, which is not an error: stop
        # quietly, and point stdout at devnull so the flush at exit cannot
        # fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (OrbitDesignError, OSError) as exc:  # OSError: an output cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())
