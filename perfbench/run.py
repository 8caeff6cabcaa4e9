"""Benchmark of orbitdesign: end-to-end runs, traced per-layer runs, comparison.

Run one workload (the form the benchmark contract uses):

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes a separate
traced run and reports the per-layer metrics.  ``--workload all`` runs every
workload in turn.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it give
every metric by name with its unit and sample count.  Every run also writes a
result file under ``perfbench/results/`` (``--out`` to change) with the
machine notes, the seed, the sample counts and every operation's exit code.

Compare two result sets (directories of result files):

    python3 perfbench/run.py compare RESULTS_PARENT RESULTS_CHANGE

The load generator is this one process: a closed loop with one client that
runs one child process or one in-process operation at a time.  It starts
with the checkout's ``src`` on ``PYTHONPATH`` and changes nothing in it.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = ROOT / "BENCHMARK.json"
WORKER = HERE / "worker.py"

#: Fresh interpreters are started to measure set-up time at replay
#: boundaries about every ``--seconds / SETUP_SPAWNS`` seconds, and whenever
#: a workload needs a new worker, so that the samples (median reported) come
#: from the whole run and not from one moment of the machine.
SETUP_SPAWNS = 5
#: A run replays its deck at least this often, and then until --seconds pass;
#: an operation's time is its median over the replays.
MIN_REPLAYS = 3
#: ``python -X importtime`` runs per traced run (median of each import metric).
IMPORTTIME_RUNS = 3
#: Plain and traced passes per traced run (the fastest of each is used).
TRACE_PAIRS = 3
#: A child or worker job that takes longer than this is killed and fails.
OP_TIMEOUT_S = 150.0

#: Workloads whose warm worker is replaced before every replay, so that the
#: enumeration oracle's per-process Gram cache starts cold in every replay.
FRESH_WORKER_PER_REPLAY = ("oracle-check",)


# --------------------------------------------------------------------------
# Processes


def _env() -> dict:
    env = dict(os.environ)
    # One BLAS thread: with one client on a small machine, a second BLAS
    # thread competes with the load generator and other tenants, and its
    # start-up in every fresh process made the dense oracles' times jump.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class _Watchdog:
    """Kill a process that outlives ``OP_TIMEOUT_S``."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self.timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        self.timer.daemon = True

    def __enter__(self):
        self.timer.start()
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()


class Worker:
    """A warm ``worker.py`` process; ``startup_s`` is its measured set-up time."""

    def __init__(self) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=_env(),
            cwd=str(ROOT),
            text=True,
        )
        with _Watchdog(self.proc):
            line = self.proc.stdout.readline()
        self.startup_s = time.perf_counter() - start
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("worker failed to start (is orbitdesign importable from src/?)")

    def job(self, **job) -> dict:
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        with _Watchdog(self.proc):
            line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker died during job {job}")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def run_child(op: dict, scratch: str) -> tuple[checks.Outcome, float, int]:
    """One cold ``python -m orbitdesign`` command; returns (outcome, wall s, peak RSS KiB)."""
    argv = [a.replace("{scratch}", scratch) for a in op["argv"]]
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "orbitdesign", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_env(),
        cwd=str(ROOT),
    )
    with _Watchdog(proc):
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    outcome = checks.check_cli(op, proc.returncode, out, err.decode(errors="replace"))
    return outcome, wall, usage.ru_maxrss


# --------------------------------------------------------------------------
# Statistics


def per_operation(attempts: list[dict]) -> list[dict]:
    """One entry per operation: its median wall time over the replays;
    failed if any replay failed."""
    groups: dict[int, list[dict]] = {}
    for attempt in attempts:
        groups.setdefault(attempt["id"], []).append(attempt)
    return [
        {"wall_ms": statistics.median(a["wall_ms"] for a in group),
         "failed": any(a["failed"] for a in group),
         "points": min(a["points"] for a in group),
         "rss_kb": max(a["rss_kb"] for a in group)}
        for group in groups.values()
    ]


def ranked(ops: list[dict]) -> list[float]:
    """Ascending wall times in ms; a failure ranks after every success and
    counts as at least as slow as the slowest success.

    Where the tail lands on a success, fixing a failure can only lower it.
    Where it lands on a failure (ten or fewer operations, as on cli-cold), a
    fix that succeeds more slowly than the slowest success raises it; a fixed
    ceiling would avoid that but would read the same in every run.
    """
    slowest = max((o["wall_ms"] for o in ops if not o["failed"]), default=0.0)
    ordered = sorted(ops, key=lambda o: (o["failed"], o["wall_ms"]))
    return [max(o["wall_ms"], slowest) if o["failed"] else o["wall_ms"] for o in ordered]


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value, percentile and samples beyond it of the highest percentile
    with at least ten samples beyond it; the maximum when there are ten or fewer."""
    n = len(values)
    if n <= 10:
        return values[-1], 100.0, 0
    return values[n - 11], 100.0 * (n - 10) / n, 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --------------------------------------------------------------------------
# Runs


def machine_notes() -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def _from_worker(result: dict, replay: int) -> list[dict]:
    return [{**op, "replay": replay, "rss_kb": result["rss_kb"]} for op in result["ops"]]


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool, scratch: str):
    """Replays of the deck until ``seconds`` have passed (at least ``MIN_REPLAYS``);
    returns (set-up times, one record per attempt)."""
    in_process = workload not in workloads.CLI_WORKLOADS
    setup: list[float] = []
    attempts: list[dict] = []
    worker: Worker | None = None
    start = time.perf_counter()
    replay = 0
    try:
        while replay < MIN_REPLAYS or time.perf_counter() - start < seconds:
            needs_worker = in_process and worker is None
            if needs_worker or time.perf_counter() - start >= len(setup) * seconds / SETUP_SPAWNS:
                fresh = Worker()
                setup.append(fresh.startup_s)
                if needs_worker:
                    worker = fresh
                else:
                    fresh.close()
            if not in_process:
                for op in workloads.deck(workload, seed, replay, tiny):
                    outcome, wall, rss = run_child(op, scratch)
                    attempts.append({**checks.record(op, outcome, wall), "replay": replay,
                                     "rss_kb": rss})
            else:
                result = worker.job(workload=workload, seed=seed, replay=replay, tiny=tiny,
                                    trace=False, scratch=scratch)
                attempts += _from_worker(result, replay)
                if workload in FRESH_WORKER_PER_REPLAY:
                    worker.close()
                    worker = None
            replay += 1
    finally:
        if worker is not None:
            worker.close()
    return setup, attempts


def end_to_end(setup: list[float], attempts: list[dict]) -> dict:
    """End-to-end metrics with unit, sample count and notes.

    Timings use each operation's median over the replays; ``success_frac``
    counts every attempt.
    """
    ops = per_operation(attempts)
    values = ranked(ops)
    busy_s = sum(o["wall_ms"] for o in ops) / 1e3
    done = [o for o in ops if not o["failed"]]
    tail_value, pct, beyond = tail(values)
    n = len(ops)
    succeeded = sum(not a["failed"] for a in attempts)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
        "latency_p50_ms": {"value": statistics.median(values), "unit": "ms", "samples": n},
        "latency_tail_ms": {"value": tail_value, "unit": "ms", "samples": n,
                            "percentile": pct, "beyond": beyond},
        "ops_per_s": {"value": len(done) / busy_s, "unit": "1/s", "samples": n},
        "points_per_s": {"value": sum(o["points"] for o in done) / busy_s, "unit": "1/s",
                         "samples": len(done)},
        "success_frac": {"value": succeeded / len(attempts), "unit": "ratio",
                         "samples": len(attempts)},
        "peak_rss_mb": {"value": max(o["rss_kb"] for o in ops) / 1024, "unit": "MB",
                        "samples": n},
    }


def import_times() -> dict:
    """Median over runs of ``python -X importtime -c 'import orbitdesign'``, in ms."""
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orbitdesign"],
            capture_output=True, text=True, env=_env(), cwd=str(ROOT), timeout=OP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import orbitdesign failed: {proc.stderr[-500:]}")
        sums = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "orbitdesign_self": 0.0}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if not m:
                continue
            self_us, cumulative_us, name = int(m[1]), int(m[2]), m[3]
            top = name.split(".")[0]
            if name == "orbitdesign":
                sums["total"] = cumulative_us / 1e3
            if top in ("scipy", "numpy"):
                sums[top] += self_us / 1e3
            elif top == "orbitdesign":
                sums["orbitdesign_self"] += self_us / 1e3
        runs.append(sums)
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def run_traced(workload: str, seed: int, tiny: bool, scratch: str):
    """The deck in replay-0 order, in-process, ``TRACE_PAIRS`` times plain and
    traced in turn, each pass in a fresh worker.  The layer figures come from
    the fastest traced pass; the tracing overhead compares the fastest passes."""
    passes: dict[bool, list[dict]] = {False: [], True: []}
    for _ in range(TRACE_PAIRS):
        for trace in (False, True):
            worker = Worker()
            try:
                passes[trace].append(worker.job(workload=workload, seed=seed, replay=0,
                                                tiny=tiny, trace=trace, scratch=scratch))
            finally:
                worker.close()
    plain, traced = (min(passes[t], key=_pass_wall) for t in (False, True))
    return _from_worker(traced, 0), per_layer(traced, plain, import_times()), \
        trace_accounting(traced)


def _pass_wall(result: dict) -> float:
    return sum(op["wall_ms"] for op in result["ops"])


def per_layer(traced: dict, untraced: dict, imports: dict) -> dict:
    trace = traced["trace"]
    layers = trace["layers"]

    def get(name: str, field: str) -> float:
        return layers.get(name, {}).get(field, 0)

    narrow_calls = get("construct.narrow_design", "calls")
    metrics = {
        "import.total_ms": (imports["total"], "ms"),
        "import.scipy_ms": (imports["scipy"], "ms"),
        "import.numpy_ms": (imports["numpy"], "ms"),
        "import.orbitdesign_self_ms": (imports["orbitdesign_self"], "ms"),
        "cli.main.self_ms": (get("cli.main", "self_ms"), "ms"),
        "cli.main.calls": (get("cli.main", "calls"), "count"),
        "cli.bytes_out": (trace["bytes_out"], "bytes"),
        "construct.wide_design.self_ms": (get("construct.wide_design", "self_ms"), "ms"),
        "construct.narrow_design.self_ms": (get("construct.narrow_design", "self_ms"), "ms"),
        "construct.narrow_design.calls": (narrow_calls, "count"),
        "construct.minimize_scalar.ms": (get("construct.minimize_scalar", "busy_ms"), "ms"),
        "construct.narrow.logdet_calls": (
            trace["logdet_calls_from_construct"] / narrow_calls if narrow_calls else 0.0, "count"),
        "verify.kw_check.self_ms": (get("verify.kw_check", "self_ms"), "ms"),
        "verify.kw_check.calls": (get("verify.kw_check", "calls"), "count"),
        "verify.sensitivity_poly.self_ms": (get("verify.sensitivity_poly", "self_ms"), "ms"),
        "verify.brute_force_info.self_ms": (get("verify.brute_force_info", "self_ms"), "ms"),
        "info_matrix.assemble_general.self_ms": (get("info_matrix.assemble_general", "self_ms"), "ms"),
        "info_matrix.assemble_inverse.self_ms": (get("info_matrix.assemble_inverse", "self_ms"), "ms"),
        "info_matrix.inverse_coefficients.self_ms": (
            get("info_matrix.inverse_coefficients", "self_ms"), "ms"),
        "info_matrix.log_det_symmetric.self_ms": (get("info_matrix.log_det_symmetric", "self_ms"), "ms"),
        "info_matrix.log_det_symmetric.calls": (get("info_matrix.log_det_symmetric", "calls"), "count"),
        "info_matrix.regularity.self_ms": (get("info_matrix.regularity", "self_ms"), "ms"),
        "moments.design_moments.self_ms": (get("moments.design_moments", "self_ms"), "ms"),
        "moments.design_moments.calls": (get("moments.design_moments", "calls"), "count"),
        "moments.orbit_moment.calls": (get("moments.orbit_moment", "calls"), "count"),
        "orbits.enumerate_orbit.self_ms": (get("orbits.enumerate_orbit", "self_ms"), "ms"),
        "orbits.points_yielded": (trace["items"].get("orbits.enumerate_orbit", 0), "count"),
        "trace.overhead_frac": (_pass_wall(traced) / _pass_wall(untraced) - 1, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def trace_accounting(traced: dict) -> dict:
    """Sum of all spans' self time against the traced operations' wall time."""
    layers = traced["trace"]["layers"]
    return {"self_total_ms": sum(v["self_ms"] for v in layers.values()),
            "op_wall_ms": _pass_wall(traced)}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 out_dir: Path) -> dict:
    scratch = HERE / f".scratch-{os.getpid()}"
    scratch.mkdir(exist_ok=True)
    started = time.time()
    try:
        accounting = None
        if trace:
            ops, metrics, accounting = run_traced(workload, seed, tiny, str(scratch))
        else:
            setup, ops = run_untraced(workload, seed, seconds, tiny, str(scratch))
            metrics = end_to_end(setup, ops)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = [o for o in ops if o["failed"]]
    result = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "size": "tiny" if tiny else "full",
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(started)),
        "elapsed_s": time.time() - started,
        "machine": machine_notes(),
        "attempted": len(ops),
        "failed": len(failed),
        "fail_frac": len(failed) / len(ops),
        "known_defects": sum(o["known_defect"] for o in failed),
        "correct": all(o["known_defect"] for o in failed),
        "metrics": metrics,
        "trace_accounting": accounting,
        "replays": 1 + max(o["replay"] for o in ops),
        "attempts": [[o["id"], o["replay"], o["label"], o["code"], o["wall_ms"], o["failed"],
                      o["note"]] for o in ops],
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{int(trace)}-{int(started)}-{os.getpid()}.json"
    (out_dir / name).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    result["file"] = str(out_dir / name)
    return result


def print_result(result: dict) -> None:
    print(f"{result['workload']} seed {result['seed']} trace {result['trace']}: "
          f"{result['attempted']} attempted, {result['failed']} failed "
          f"(fail_frac {result['fail_frac']:.6g}, {result['known_defects']} known defects), "
          f"correct={result['correct']}")
    for name, m in result["metrics"].items():
        extra = f"  n={m['samples']}" if "samples" in m else ""
        if "percentile" in m:
            extra += f"  p{m['percentile']:.4g} ({m['beyond']} beyond)"
        print(f"  {name:<42} {m['value']:>16.6g} {m['unit']:<6}{extra}")
    failures = Counter((label, code, note)
                       for _, _, label, code, _, failed, note in result["attempts"] if failed)
    for (label, code, note), count in failures.items():
        print(f"  failed {count}x: [{code}] {label}: {note}")
    print(f"  result file: {result['file']}")


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in result["metrics"].items()},
    })


# --------------------------------------------------------------------------
# Compare


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            pairs: list[tuple[float, float]]) -> str:
    """Pair-wise rule: improved, no worse, worse or unresolved."""
    sign = 1 if better == "higher" else -1
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    spread = q3 - q1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (med_c - med_p) > spread):
        return "improved"
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if spread > bound * abs(med_p) and not all_better:
        return "unresolved"
    if sign * (med_p - med_c) > bound * abs(med_p):
        return "worse"
    return "no worse"


def load_results(directory: Path) -> dict:
    runs: dict = {}
    for path in sorted(directory.rglob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if data.get("trace") == 0 and "metrics" in data:
            runs.setdefault(data["workload"], []).append(data)
    return runs


def compare(parent_dir: Path, change_dir: Path) -> int:
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    parent, change = load_results(parent_dir), load_results(change_dir)
    print(f"{'workload':<14} {'metric':<16} {'unit':<6} "
          f"{'parent median [q1, q3] (n)':<38} {'change median [q1, q3] (n)':<38} verdict")
    for workload in workloads.WORKLOADS:
        if workload not in parent or workload not in change:
            continue
        p_runs, c_runs = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            by_seed = {r["seed"]: r["metrics"][name]["value"] for r in c_runs}
            pairs = [(r["metrics"][name]["value"], by_seed[r["seed"]])
                     for r in p_runs if r["seed"] in by_seed]
            cells = []
            for values in (p, c):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(values)})")
            print(f"{workload:<14} {name:<16} {metric['unit']:<6} {cells[0]:<38} {cells[1]:<38} "
                  f"{verdict(p, c, metric['better'], metric['bound'], pairs)}")
    return 0


# --------------------------------------------------------------------------
# Entry point


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("parent", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.parent, args.change)

    parser = argparse.ArgumentParser(description="orbitdesign benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny decks and one set-up spawn, for the benchmark's own tests")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result files")
    args = parser.parse_args(argv)

    if not (SRC / "orbitdesign" / "__init__.py").is_file():
        print(f"error: no orbitdesign sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace),
                              args.size == "tiny", args.out)
        print_result(result)
        results.append(result)
    if len(results) == 1:
        print(contract_line(results[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(contract_line(r)) for r in results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
