"""Output checks of the benchmark.

An operation fails when it exits with a nonzero code or when its output is
wrong, so no change gets faster by emitting wrong output.  Failures that the
seed commit already has are *known defects* and are counted like any other
failure; a run stays ``correct`` as long as every failure is a known defect
and every successful output passes its check.  This module reads program
output as text and needs neither ``orbitdesign`` nor numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import workloads
from reference import NARROW_ROWS, WIDE_ROWS
from workloads import CERTIFICATE_FAILURES, REFUSAL_MAX_K, default_ell

#: Tolerance of a four-decimal table entry, as in the tier-1 acceptance tests.
TABLE_TOL = 5e-5 + 1e-12

REFUSAL_MESSAGE = f"factor count must be in 0..{REFUSAL_MAX_K}"
CERTIFICATE_MESSAGE = "failed the equivalence check"

_WIDE = {(r[0], r[1], r[2]): r for r in WIDE_ROWS}
_NARROW = {(r[0], r[1]): r for r in NARROW_ROWS}


@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation."""

    code: int
    output_ok: bool
    known_defect: bool
    points: int
    note: str

    @property
    def failed(self) -> bool:
        return self.code != 0 or not self.output_ok


def record(op: dict, outcome: Outcome, wall_s: float) -> dict:
    """The result-file record of one attempt at an operation."""
    return {"id": op["id"], "label": workloads.label(op), "code": outcome.code,
            "wall_ms": wall_s * 1e3, "points": outcome.points, "failed": outcome.failed,
            "known_defect": outcome.known_defect, "note": outcome.note}


def known_defect(op: dict, code: int, message: str) -> bool:
    """True for the two failure classes present at the seed commit."""
    if code != 2:
        return False
    if REFUSAL_MESSAGE in message:
        return op["k"] > REFUSAL_MAX_K
    if CERTIFICATE_MESSAGE in message:
        return (op["k"], op.get("effective", op.get("lower"))) in CERTIFICATE_FAILURES
    return False


def failure(op: dict, code: int, message: str) -> Outcome:
    note = message.strip().splitlines()[-1] if message.strip() else f"exit {code}"
    return Outcome(code, True, known_defect(op, code, message), 0, note[:200])


def table_mismatch(op: dict, weights: dict[int, float], efficiency: float | None) -> str:
    """Compare orbit weights with the frozen tables; '' when they match or K is not tabled."""
    k_factors, eff = op["k"], op["effective"]
    center = k_factors // 2
    if op["regime"] == "narrow":
        row = _NARROW.get((k_factors, eff))
        if row is None:
            return ""
        expected = [(eff, row[3]), (center, row[4])]
        if efficiency is not None and abs(efficiency - row[5]) > TABLE_TOL:
            return f"D-efficiency {efficiency} != table {row[5]}"
    else:
        ell = None if op["regime"] == "threshold" else default_ell(k_factors)
        row = _WIDE.get((k_factors, eff, ell))
        if row is None:
            return ""
        expected = [(eff, row[4]), (center, row[6])]
        if ell is not None:
            expected.append((ell, row[5]))
    for orbit, value in expected:
        got = weights.get(orbit, 0.0)
        want = 0.0 if value is None else value
        if abs(got - want) > TABLE_TOL:
            return f"weight of orbit {orbit} is {got}, table has {want}"
    return ""


def _check_optimal(op: dict, out: str) -> str:
    lines = out.splitlines()
    if not lines or not lines[-1].endswith("-> PASS"):
        return "report does not end with a passed KW check"
    regime = next((ln.split(":", 1)[1].strip() for ln in lines if ln.startswith("regime:")), "")
    if regime != op["regime"]:
        return f"regime {regime!r}, expected {op['regime']!r}"
    start = next(i for i, ln in enumerate(lines) if ln.split()[:1] == ["k"]) + 1
    end = next(i for i, ln in enumerate(lines) if ln.startswith("moments:"))
    weights = {}
    for ln in lines[start:end]:
        k, orbit_weight, _, _ = ln.split()
        weights[int(k)] = float(orbit_weight)
    if abs(sum(weights.values()) - 1) > 1e-6:
        return f"orbit weights sum to {sum(weights.values())}"
    if any(not op["lower"] <= k <= op["upper"] for k in weights):
        return "support leaves the region"
    eff_line = next(ln for ln in lines if "D-efficiency =" in ln)
    efficiency = float(eff_line.rsplit("=", 1)[1])
    return table_mismatch(op, weights, efficiency)


def _check_verify(out: str) -> str:
    lines = out.splitlines()
    if not lines or not lines[-1].endswith("-> PASS"):
        return "verify did not pass"
    rows = [ln for ln in lines[2:-1] if len(ln.split()) == 3]
    return "" if rows else "no per-orbit rows"


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def expected_table(which: str, k_factors: int) -> list[str]:
    if which == "wide":
        return [
            f"{K} {L} {'-' if ell is None else ell} {c} {_fmt(wl)} {_fmt(we)} {_fmt(wc)} {b:.2f}"
            for K, L, ell, c, wl, we, wc, b in WIDE_ROWS
            if K == k_factors
        ]
    return [
        f"{K} {L} {c} {wl:.4f} {wc:.4f} {eff:.4f} {b:.2f}"
        for K, L, c, wl, wc, eff, b in NARROW_ROWS
        if K == k_factors
    ]


def _check_tables(op: dict, out: str) -> tuple[str, int]:
    rows = out.splitlines()[1:]
    if rows != expected_table(op["which"], op["k"]):
        return f"{op['which']} table for K={op['k']} differs from the frozen table", len(rows)
    return "", len(rows)


def check_expand(op: dict, data: bytes) -> tuple[str, int]:
    """Every line of an expand listing: format, orbit, order, counts and weights."""
    k_factors, lower, upper = op["k"], op["lower"], op["upper"]
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != b"k,point,point_weight":
        return "missing header", 0
    counts: dict[int, int] = {}
    weights: dict[int, float] = {}
    prev_k, prev_point, prev_w = -1, b"", b""
    for line in lines[1:]:
        parts = line.split(b",")
        if len(parts) != 3:
            return f"malformed line {line[:40]!r}", 0
        k = int(parts[0])
        point, w = parts[1], parts[2]
        if k != prev_k:
            if k < prev_k or k in counts:
                return "orbits out of order", 0
            if not lower <= k <= upper:
                return f"orbit {k} outside [{lower}, {upper}]", 0
            counts[k] = 0
            weights[k] = float(w)
            prev_k, prev_point, prev_w = k, b"", w
        elif w != prev_w:
            return f"point weights differ within orbit {k}", 0
        # Points of an orbit come in increasing order ('+' sorts before '-'),
        # which also proves they are distinct.
        if len(point) != k_factors or point.count(b"+") != k or point <= prev_point:
            return f"bad point {point!r} in orbit {k}", 0
        if point.count(b"-") != k_factors - k:
            return f"bad point {point!r} in orbit {k}", 0
        prev_point = point
        counts[k] += 1
    for k, n in counts.items():
        if n != math.comb(k_factors, k):
            return f"orbit {k} has {n} points, not C({k_factors},{k})", 0
    total_lines = len(lines) - 1
    if total_lines != sum(math.comb(k_factors, k) for k in counts):
        return "line count differs from the sum of orbit sizes", total_lines
    total = sum(counts[k] * weights[k] for k in counts)
    if abs(total - 1) > 1e-9:
        return f"point weights sum to {total!r}", total_lines
    if any(abs(weights[k] - weights.get(k_factors - k, -1.0)) > 1e-15 for k in weights):
        return "weights are not mirror symmetric", total_lines
    orbit_weights = {k: weights[k] * math.comb(k_factors, k) for k in weights}
    return table_mismatch(op, orbit_weights, None), total_lines


def check_cli(op: dict, code: int, out: bytes, err: str) -> Outcome:
    """Check one CLI operation from its exit code and captured output.

    Its points are the design points it lists (``expand``) or the designs it
    reports: one for ``optimal`` and ``verify``, one per row for ``tables``.
    """
    if code != 0:
        return failure(op, code, err)
    try:
        if op["kind"] == "expand":
            problem, points = check_expand(op, out)
        else:
            text = out.decode()
            if op["kind"] == "optimal":
                problem, points = _check_optimal(op, text), 1
            elif op["kind"] == "verify":
                problem, points = _check_verify(text), 1
            else:
                problem, points = _check_tables(op, text)
    except (ValueError, StopIteration, IndexError) as exc:
        problem, points = f"unparsable output: {exc!r}", 0
    return Outcome(code, not problem, False, points, problem)
