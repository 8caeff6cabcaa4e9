"""Tests of the benchmark itself.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
Tiny-size runs of every workload check that each metric named in
BENCHMARK.json is emitted with its unit, and that traced self times add up
to the traced wall time.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(tmp_path: Path, workload: str, trace: int) -> tuple[dict, dict]:
    out = tmp_path / "results"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny", "--out", str(out)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    (result_file,) = out.glob("*.json")
    return last, json.loads(result_file.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_end_to_end_metric(tmp_path, workload):
    last, result = _run(tmp_path, workload, 0)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    for name, metric in last["metrics"].items():
        assert math.isfinite(metric["value"]) and metric["value"] > 0, name
        assert result["metrics"][name]["samples"] >= 1
    for key in ("python", "numpy", "scipy", "nproc", "cpu_model"):
        assert result["machine"][key]
    assert result["seed"] == 3
    assert len(result["attempts"]) == last["attempted"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_layer_metric(tmp_path, workload):
    last, result = _run(tmp_path, workload, 1)
    assert last["correct"] is True
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
    assert last["metrics"]["import.total_ms"]["value"] > 0
    accounting = result["trace_accounting"]
    # Self times of all spans, the benchmark's root spans included, cover the
    # traced operations' wall time; the gap is the root wrapper's own cost.
    gap = accounting["op_wall_ms"] - accounting["self_total_ms"]
    assert 0 <= gap <= 0.02 * accounting["op_wall_ms"] + 0.05 * last["attempted"]


def test_worker_set_up_loads_only_orbitdesign():
    def modules(*argv: str) -> set:
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              env=run._env(), cwd=str(ROOT), timeout=170)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    at_ready = modules(str(HERE / "worker.py"), "--modules")
    plain = modules("-c", "import sys, orbitdesign; m = sorted(sys.modules); "
                          "import json; print(json.dumps(m))")
    assert "orbitdesign" in at_ready
    assert not {"orbitdesign.cli", "jobs", "checks", "workloads", "tracer"} & at_ready
    assert at_ready == plain


def test_workload_layers_are_exercised(tmp_path):
    last, _ = _run(tmp_path, "expand-stream", 1)
    metrics = {k: v["value"] for k, v in last["metrics"].items()}
    assert metrics["cli.main.calls"] == 1
    assert metrics["orbits.points_yielded"] > 0
    assert metrics["cli.bytes_out"] > metrics["orbits.points_yielded"]


def test_tracer_self_times_add_up():
    tracer = Tracer()

    def leaf(n):
        return sum(range(n))

    def gen(n):
        for i in range(n):
            yield leaf(100) + i

    def parent():
        total = leaf(1000)
        for value in tracer.iterate("gen", gen(50)):
            total += value
        return tracer.call("leaf", leaf, 500) + total

    tracer.call("root", parent)
    layers = tracer.summary()
    root_busy = layers["root"]["busy_ms"]
    assert all(v["self_ms"] >= 0 for v in layers.values())
    assert sum(v["self_ms"] for v in layers.values()) == pytest.approx(root_busy, rel=1e-9)
    assert tracer.items["gen"] == 50
    assert layers["gen"]["calls"] == 1


def test_failures_rank_slowest_and_tail_rule():
    ops = [{"wall_ms": float(i), "failed": False} for i in range(1, 30)]
    ops.append({"wall_ms": 0.5, "failed": True})
    values = run.ranked(ops)
    assert values[-1] == 29.0
    value, pct, beyond = run.tail(values)
    assert beyond == 10 and value == values[len(values) - 11]
    assert pct == pytest.approx(100 * 20 / 30)
    # The tail lands on a success, so fixing the failure cannot raise it,
    # however slow the fixed operation is.
    fixed = ops[:-1] + [{"wall_ms": 1000.0, "failed": False}]
    assert run.tail(run.ranked(fixed))[0] <= value
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0, 0)


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    faster = [80.0 + i % 3 for i in range(10)]
    pairs = list(zip(parent, faster))
    assert run.verdict(parent, faster, "lower", 0.1, pairs) == "improved"
    slower = [130.0 + i % 3 for i in range(10)]
    assert run.verdict(parent, slower, "lower", 0.1, list(zip(parent, slower))) == "worse"
    same = [101.0 + i % 2 for i in range(10)]
    assert run.verdict(parent, same, "lower", 0.1, list(zip(parent, same))) == "no worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 55.0, 145.0, 100.0, 70.0, 130.0]
    assert run.verdict(noisy, same, "lower", 0.1, list(zip(noisy, same))) == "unresolved"


def test_wrong_output_counts_as_failed():
    op = workloads.deck("cli-cold", 1, 0)[0]
    table_op = {"kind": "tables", "argv": [], "k": 6, "which": "narrow"}
    good = "K L c w_L w_c efficiency B_K\n" + "\n".join(checks.expected_table("narrow", 6)) + "\n"
    assert not checks.check_cli(table_op, 0, good.encode(), "").failed
    bad = good.replace("0.3865", "0.3866")
    assert checks.check_cli(table_op, 0, bad.encode(), "").failed
    assert checks.check_cli(op, 1, b"", "Traceback").failed
    assert not checks.check_cli(op, 1, b"", "Traceback").known_defect

    expand = {"kind": "expand", "k": 4, "lower": 2, "upper": 2, "effective": 2, "regime": "narrow"}
    lines = ["k,point,point_weight"] + [
        f"2,{p},{1 / 6!r}" for p in ("++--", "+-+-", "+--+", "-++-", "-+-+", "--++")
    ]
    assert checks.check_expand(expand, ("\n".join(lines) + "\n").encode())[0] == ""
    dropped = "\n".join(lines[:-1]) + "\n"
    assert checks.check_expand(expand, dropped.encode())[0]
    duplicated = "\n".join(lines[:-1] + [lines[-2]]) + "\n"
    assert checks.check_expand(expand, duplicated.encode())[0]


def test_known_defects_are_only_the_seed_failures():
    refusal = {"k": 70, "lower": 3}
    assert checks.known_defect(refusal, 2, "error: factor count must be in 0..64, got 70")
    assert not checks.known_defect({"k": 30, "lower": 3}, 2, "factor count must be in 0..64")
    certificate = {"k": 80, "lower": 39, "effective": 39}
    assert checks.known_defect(certificate, 2, "optimized design failed the equivalence check")
    assert not checks.known_defect({"k": 60, "lower": 29, "effective": 29}, 2,
                                   "optimized design failed the equivalence check")


def test_sweep_holds_every_symmetric_region():
    regions = workloads.sweep_regions()
    assert len(regions) == 2498
    assert sum(workloads.regime(k, low) == "narrow" for k, low in regions) == 500
    assert workloads.CERTIFICATE_FAILURES <= set(regions)


def test_same_seed_same_inputs_and_replays_reorder_them():
    for workload in workloads.WORKLOADS:
        first = workloads.deck(workload, 5, 0)
        assert first == workloads.deck(workload, 5, 0)
        replay = workloads.deck(workload, 5, 1)
        assert sorted(first, key=lambda op: op["id"]) == sorted(replay, key=lambda op: op["id"])
        assert first != workloads.deck(workload, 6, 0)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__", ".scratch-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=str(tmp_path), timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
