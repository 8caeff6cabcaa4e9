"""In-process operations of the warm worker (``worker.py``).

``worker.py`` imports this module only after it has written ``ready``, so
that numpy, ``orbitdesign.cli`` and the benchmark's own modules are not part
of the measured set-up time.  ``serve`` then reads jobs, one JSON object per
line, until its input closes:

    {"workload": ..., "seed": ..., "replay": ..., "tiny": ..., "trace": ..., "scratch": ...}

For each job it runs one replay of the seed's deck and answers with one JSON
line holding one record per operation (``checks.record``), its peak RSS and,
for a traced job, the per-layer trace summary.
Operations are timed one at a time around the program calls only; output
checks run after the clock stops.  CLI operations call
``orbitdesign.cli.main(argv)`` with standard output sent to a buffer.
"""

from __future__ import annotations

import io
import json
import resource
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter
from typing import TextIO

import numpy as np

import orbitdesign
import orbitdesign.cli
from orbitdesign import OrbitDesignError

import checks
import workloads
from tracer import ROOT, Tracer

#: Tolerances of the tier-1 oracle tests.
LOGDET_RTOL = 1e-10
DENSE_ATOL = 1e-12
PSI_ATOL = 1e-9

BRUTE_FORCE_MAX_K = 12


def _solve(op: dict):
    k_factors, lower = op["k"], op["lower"]

    def work():
        if op["regime"] == "narrow":
            spec = orbitdesign.narrow_design(k_factors, lower)
            return spec.design, spec.kw_report, spec.d_efficiency
        spec = orbitdesign.wide_design(k_factors, lower)
        return spec.design, orbitdesign.kw_check(spec.design, lower, k_factors - lower), None

    def check(value) -> tuple[str, int]:
        design, report, efficiency = value
        weights = {k: float(w) for k, w in design.weights().items()}
        if not report.passed:
            return f"not certified: {report.summary()}", 0
        if any(not lower <= k <= k_factors - lower for k in weights):
            return "support leaves the region", 0
        return checks.table_mismatch(op, weights, efficiency), 1

    return work, check


def _feature(k_factors: int, k: int) -> np.ndarray:
    """Regression vector of the orbit-k point with the first k factors active."""
    x = [1] * k + [-1] * (k_factors - k)
    pairs = [x[a] * x[b] for a in range(k_factors) for b in range(a + 1, k_factors)]
    return np.array([1] + x + pairs, dtype=np.float64)


def _oracle(op: dict):
    k_factors, symmetric = op["k"], op["symmetric"]
    weights = {int(k): w for k, w in op["weights"].items()}
    design = orbitdesign.OrbitDesign(k_factors, weights, symmetric=symmetric)

    def work():
        info = orbitdesign.info_matrix_of(design)
        out = {"dense": info.dense, "slogdet": np.linalg.slogdet(info.dense)}
        if k_factors <= BRUTE_FORCE_MAX_K:
            out["brute"] = orbitdesign.brute_force_info(design).dense
        if symmetric:
            m = orbitdesign.design_moments(design)
            out["log_det"] = orbitdesign.log_det_symmetric(k_factors, m)
            out["inverse"] = orbitdesign.assemble_inverse(k_factors, m)
            out["poly"] = orbitdesign.sensitivity_poly(k_factors, m)
        return out

    def check(out) -> tuple[str, int]:
        sign, dense_ld = out["slogdet"]
        if sign <= 0:
            return "dense information matrix is not positive definite", 0
        if symmetric and abs(out["log_det"] - dense_ld) > LOGDET_RTOL * max(1.0, abs(dense_ld)):
            return f"log det {out['log_det']} != dense {dense_ld}", 0
        if "brute" in out and np.abs(out["brute"] - out["dense"]).max() > DENSE_ATOL:
            return "enumerated and assembled matrices differ", 0
        if symmetric:
            for k in range(k_factors + 1):
                f = _feature(k_factors, k)
                psi = float(f @ out["inverse"] @ f)
                if abs(psi - float(out["poly"].value(k))) > PSI_ATOL:
                    return f"f'M^-1 f = {psi} != sensitivity {out['poly'].value(k)} at k={k}", 0
        return "", 1

    return work, check


class _CliOp:
    """One ``orbitdesign.cli.main`` call with its output captured."""

    def __init__(self, op: dict, scratch: str) -> None:
        self.argv = [a.replace("{scratch}", scratch) for a in op["argv"]]
        self.out = io.StringIO()
        self.err = io.StringIO()

    def work(self) -> int:
        with redirect_stdout(self.out), redirect_stderr(self.err):
            try:
                return orbitdesign.cli.main(self.argv)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 2


def run_op(op: dict, scratch: str, tracer: Tracer | None) -> tuple[checks.Outcome, float, int]:
    """Time one operation and check its output; returns (outcome, wall s, stdout bytes)."""
    cli_op = _CliOp(op, scratch) if "argv" in op else None
    if cli_op is not None:
        work, check = cli_op.work, None
    elif op["kind"] == "solve":
        work, check = _solve(op)
    else:
        work, check = _oracle(op)

    value, message = None, ""
    start = perf_counter()
    try:
        value = tracer.call(ROOT, work) if tracer else work()
        code = value if cli_op is not None else 0
    except OrbitDesignError as exc:
        code, message = 2, str(exc)
    except Exception:  # noqa: BLE001 - a crash is an operation failure, recorded
        code, message = 1, traceback.format_exc()
    wall = perf_counter() - start

    if cli_op is not None:
        text = cli_op.out.getvalue()
        outcome = checks.check_cli(op, code, text.encode(), cli_op.err.getvalue() + message)
        return outcome, wall, len(text)
    if code != 0:
        return checks.failure(op, code, message), wall, 0
    problem, points = check(value)
    return checks.Outcome(0, not problem, False, points, problem), wall, 0


def run_job(job: dict) -> dict:
    ops = workloads.deck(job["workload"], job["seed"], job["replay"], job["tiny"])
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    records = []
    bytes_out = 0
    try:
        for op in ops:
            outcome, wall, nbytes = run_op(op, job["scratch"], tracer)
            bytes_out += nbytes
            records.append(checks.record(op, outcome, wall))
    finally:
        if tracer:
            tracer.uninstall()
    result = {"ops": records, "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        result["trace"] = {
            "layers": tracer.summary(),
            "logdet_calls_from_construct": tracer.calls_from(
                "info_matrix.log_det_symmetric", "construct"
            ),
            "items": dict(tracer.items),
            "bytes_out": bytes_out,
            "spans": len(tracer.spans),
        }
    return result


def serve(jobs: TextIO, answers: TextIO) -> None:
    for line in jobs:
        answers.write(json.dumps(run_job(json.loads(line))) + "\n")
        answers.flush()
