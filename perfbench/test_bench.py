"""Self-test of the benchmark: python3 -m pytest perfbench

Smoke runs of one corpus instance must emit every metric BENCHMARK.json names,
with its unit; the tracer must nest spans under the CLI's thread pool and keep
an unknown solver role under its own name.
"""

from __future__ import annotations

import concurrent.futures
import json
import shutil
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import pytest

import run
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


@pytest.mark.parametrize("trace, listed", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, listed):
    proc = bench(ROOT, "--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    for spec in SPEC[listed]:
        assert spec["name"] in metrics, spec["name"]
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
    assert "solver" not in metrics  # every solve was named by its role


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "--workload", "bounded", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _fake_module(**functions):
    module = types.ModuleType("fake")
    for name, fn in functions.items():
        setattr(module, name, fn)
    return module


def test_pool_spans_nest_under_the_submitting_span_and_add_up():
    def work(_):
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.02:
            pass

    def batch():
        with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
            for fut in [pool.submit(mod.work, k) for k in range(8)]:
                fut.result()

    mod = _fake_module(work=work, batch=batch)
    tracer = spans.Tracer()
    tracer.wrap(mod, "work", "work")
    tracer.wrap(mod, "batch", "batch")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        mod.batch()
    finally:
        sys.setswitchinterval(old)
        tracer.uninstall()
    assert mod.work is work
    root = [s for s in tracer.spans if s.layer == "batch"]
    workers = [s for s in tracer.spans if s.layer == "work"]
    assert len(root) == 1 and len(workers) == 8
    assert {s.thread for s in workers} - {threading.get_ident()}
    assert all(s.parent is root[0] for s in workers)
    summary = spans.summarize(tracer.spans)
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(root[0].duration, rel=1e-6)
    # the main thread only waits while the pool works
    assert summary["batch"]["self_s"] < 0.5 * summary["work"]["self_s"]
    assert summary["batch"]["s"] == pytest.approx(root[0].duration, rel=1e-6)


def test_unknown_solver_role_keeps_its_name_and_a_missing_one_vanishes():
    def solve(problem):
        return types.SimpleNamespace(iterations=7, status="MaxIterations")

    def run_pipeline(pair):
        mod.solve(types.SimpleNamespace(name=f"{pair.name}-game-p1"))
        mod.solve(types.SimpleNamespace(name=f"{pair.name}-game-joint"))

    mod = _fake_module(solve=solve, run_pipeline=run_pipeline)
    tracer = spans.Tracer()
    tracer.wrap(mod, "run_pipeline", "reduction", spans._enter_pipeline)
    tracer.wrap(mod, "solve", "solver", leave=spans._leave_solve)
    mod.run_pipeline(types.SimpleNamespace(name="slater-n4-m4-s1"))
    tracer.uninstall()
    summary = spans.summarize(tracer.spans)
    assert {"solver.game-p1", "solver.game-joint"} <= set(summary)
    wall = sum(s.duration for s in tracer.spans if s.parent is None)
    metrics = run.layer_metrics(summary, (wall, wall), (wall, wall), frozenset({"primal-aux", "refined-aux"}), 1.0)
    assert metrics["solver.game-joint.iterations"] == (7, "count")
    assert metrics["solver.game-joint.non_optimal"] == (1, "count")
    assert metrics["solver.calls"] == (2, "count")
    assert metrics["solver.primal-aux.iterations"] == (0, "count")  # bypassed by design
    assert not any(name.startswith("solver.game-p2.") for name in metrics)
