"""Every benchmark workload still runs each solver role it reports.

``perfbench/run.py`` reports per-layer metrics for each role in its
``KNOWN_ROLES`` (the SDP's name without its pair's name) and leaves a role
that ran zero times out of its results, unless the workload lists it among
its ``bypassed_roles`` in ``perfbench/workloads.py``.  A change that stops a
role would then give the benchmark a metric set short of the one
``BENCHMARK.json`` names.  This test runs the workloads' first two passes at
the benchmark's default seed, and the ``cli_batch`` files through
``sdgames reduce``, with the benchmark's own span recorder, and fails where a
role is missing.  It also runs the benchmark's correctness check,
``run.report_ok``, on a report that must pass and one that must fail.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from sdgames import cli, reduction
from sdgames.probio import report_to_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run, spans, workloads = (_load(name) for name in ("run", "spans", "workloads"))


def _roles(work) -> set:
    """The solver roles of every solve ``work()`` makes, named as the benchmark names them."""
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        work()
    finally:
        tracer.uninstall()
    return {span.layer[len("solver."):] for span in tracer.spans if span.layer.startswith("solver.")}


@pytest.mark.parametrize("workload", ["bounded", "certificate"])
def test_in_process_workload_runs_every_role_it_reports(workload):
    spec = workloads.IN_PROCESS[workload]

    def work():
        for j in (0, 1):
            for pair, expected in workloads.pass_instances(workload, run.DEFAULT_SEED, j):
                assert reduction.run_pipeline(pair, spec["config"]).kind == expected

    assert set(run.KNOWN_ROLES) - spec["bypassed_roles"] <= _roles(work)


def test_cli_batch_runs_every_role(tmp_path, capsys):
    batch = tmp_path / "batch"
    workloads.write_batch(run.DEFAULT_SEED, batch)

    def work():
        # a batch with Inconclusive files exits 3, as run.py accepts
        assert cli.main(["reduce", str(batch), "--json", "--out", str(tmp_path / "out")]) in (0, 2, 3)

    # run.py gives cli_batch no bypassed role
    assert set(run.KNOWN_ROLES) <= _roles(work)


def test_report_ok_accepts_a_report_and_rejects_a_changed_X(bounded_pair):
    # the JSON round trip of a report, as the benchmark checks it
    report = json.loads(json.dumps(report_to_dict(reduction.run_pipeline(bounded_pair))))
    assert run.report_ok(bounded_pair, report, reduction.STRONGLY_OPTIMAL)
    report["X"][0][0] += 1.0
    assert not run.report_ok(bounded_pair, report, reduction.STRONGLY_OPTIMAL)
