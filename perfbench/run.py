"""sdgames benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload bounded --seed 1 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  ``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` runs a fixed amount of work untraced, then the same work traced,
and reports the per-layer metrics and the tracing overhead.  Human-readable
lines come first; the last line of standard output is the result as one JSON
object.  README.md next to this file says why each workload and metric exists.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("bounded", "certificate", "cli_batch", "smoke")
DEFAULT_SEED = 1

# One BLAS/OpenMP thread, which no machine lacks: iteration counts repeat
# exactly at a fixed thread count but differ between 1 and 2 threads.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TRACE_PASSES = 2
MIN_BATCHES = 3
# a batch takes about 10 s; two hung ones still end a run within 180 s
CHILD_TIMEOUT_S = 75
KNOWN_ROLES = ("primal-aux", "refined-aux", "game-p1", "game-p2")
# The probes' times on the reference host when no other tenant slows it.
PROBE_ROUNDS = 80
PROBE_NOMINAL_S = 0.005
POOL_PROBE_NOMINAL_S = 0.036


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment(args) -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def measure_setup(args, batch_dir: Path, repeats: int, speed) -> float:
    """Median measured set-up time over fresh interpreters (import, generate,
    write), each followed by a probe of host speed."""
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_inputs.py"), args.workload, str(args.seed), str(batch_dir)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
        speed.probe_again()
    print(f"{'setup_s measured':32s} {statistics.median(times):14.6f} s")
    return statistics.median(times)


def report_ok(pair, report, expected: str) -> bool:
    """An outcome is correct when it has the expected kind and, if strongly
    optimal, the report's X and y alone pass the independent optimality check."""
    from sdgames.model import DualPoint, PrimalPoint, SymMat, verify_strongly_optimal
    from sdgames.reduction import STRONGLY_OPTIMAL, PipelineConfig

    if report is None or report.get("outcome") != expected:
        return False
    if expected != STRONGLY_OPTIMAL:
        return True
    try:
        X = SymMat([[float(v) for v in row] for row in report["X"]])
        y = DualPoint(tuple(float(v) for v in report["y"]))
        return verify_strongly_optimal(pair.to_float(), PrimalPoint(X), y, PipelineConfig().verify_tol)
    except (KeyError, TypeError, ValueError):
        return False


# --- host speed -----------------------------------------------------------------


def probe_work(_=None) -> None:
    """A fixed mix of small dense linear algebra and interpreted Python, like
    the solver's, that runs no sdgames code."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((24, 24))
    eye = np.eye(24)
    acc = 0.0
    for k in range(PROBE_ROUNDS):
        m = a @ a.T + k * eye
        acc += float(np.linalg.eigvalsh(m)[0]) + float(np.linalg.cholesky(m + 24 * eye)[0, 0])
        acc += float(np.tensordot(m, a, axes=2))
        for i in range(60):
            acc += i * 0.5


def probe() -> float:
    """Seconds for ``probe_work`` in this thread; median of three."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        probe_work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def pool_probe() -> float:
    """Seconds for ``probe_work`` four times on a pool of four threads, as the
    CLI runs a batch; median of three."""
    times = []
    with concurrent.futures.ThreadPoolExecutor(max_workers=4) as pool:
        for _ in range(3):
            t0 = time.perf_counter()
            list(pool.map(probe_work, range(4)))
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostSpeed:
    """Rescales measured times to one reference speed of the host.

    On the shared 2-core host this benchmark was defined on, the same code
    runs up to 1.9 times slower for minutes at a time, one CPU at a time,
    because of other tenants.  Every timed sample is followed by a probe of
    fixed work.  Work in this process or a single-threaded child is probed by
    ``probe``, and its times are multiplied by ``run_factor``: ``nominal``
    over the median probe time of the whole run, which is steadier than any
    one 5 ms probe.  A CLI batch, whose four threads share the interpreter
    lock across both CPUs, is probed by ``pool_probe``, which slows the way
    the batch does; a batch is long and its slowdown changes from one batch
    to the next, so its wall time is rescaled by the two probes around it
    (``rescale``).  The probes run no sdgames code, so a change to sdgames
    moves the rescaled times exactly as it moves the measured ones.
    """

    def __init__(self, probe_fn, nominal: float):
        self.probe_fn = probe_fn
        self.nominal = nominal
        self.readings = [probe_fn()]

    def probe_again(self) -> None:
        self.readings.append(self.probe_fn())

    def rescale(self, raw: float) -> float:
        """Probe after a sample; ``raw`` rescaled by the bracketing probes."""
        self.probe_again()
        return raw * self.nominal / (0.5 * (self.readings[-2] + self.readings[-1]))

    @property
    def run_factor(self) -> float:
        """The rescaling factor of the whole run so far."""
        return self.nominal / statistics.median(self.readings)


# --- in-process workloads ---------------------------------------------------


def classify(pair, expected, config):
    """Time one pipeline call (through the module attribute, so a traced run
    sees it) and check its outcome outside the timed region."""
    import sdgames.reduction as reduction
    from sdgames.probio import report_to_dict

    w0, c0 = time.perf_counter(), time.process_time()
    try:
        outcome = reduction.run_pipeline(pair, config)
    except Exception as exc:  # a failed instance is counted, not fatal
        print(f"perfbench: {pair.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        outcome = None
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    report = None if outcome is None else json.loads(json.dumps(report_to_dict(outcome)))
    return wall, cpu, report_ok(pair, report, expected)


def warm_up(config) -> None:
    import workloads

    (pair, expected), = workloads.pass_instances("smoke", 0, 0)
    classify(pair, expected, config)


def in_process_end_to_end(args, tally, speed) -> dict:
    """Closed loop, one client: classify instances pass after pass until the
    window closes, always finishing the first pass."""
    import workloads

    config = workloads.IN_PROCESS[args.workload]["config"]
    warm_up(config)
    samples = defaultdict(list)
    deadline = time.perf_counter() + args.seconds
    for j in itertools.count():
        for slot, (pair, expected) in enumerate(workloads.pass_instances(args.workload, args.seed, j)):
            if j and time.perf_counter() >= deadline:
                return pass_metrics(samples, speed.run_factor)
            wall, cpu, ok = classify(pair, expected, config)
            tally.record(ok)
            samples[slot].append((wall, cpu))
            speed.probe_again()


def pass_metrics(samples, factor: float) -> dict:
    """wall_s and cpu_s are the time of one pass: the sum over its slots of
    each slot's median time, rescaled by the run's ``factor``."""
    for slot, times in samples.items():
        print(f"slot {slot}: {len(times)} instances, measured median {statistics.median(w for w, _ in times):.3f} s, "
              f"walls {[round(w, 3) for w, _ in times]}")
    return {
        "wall_s": (factor * sum(statistics.median(w for w, _ in times) for times in samples.values()), "s"),
        "cpu_s": (factor * sum(statistics.median(c for _, c in times) for times in samples.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def in_process_traced(args, tally, speed):
    """Each instance of the first TRACE_PASSES passes once untraced and once
    traced, in alternating order so that neither run always finds the caches
    warm.  Returns the untraced and the traced (measured, rescaled) wall time
    and the spans.  A fixed amount of work makes the per-layer counts repeat
    exactly."""
    import spans
    import workloads

    config = workloads.IN_PROCESS[args.workload]["config"]
    warm_up(config)
    instances = [
        item for j in range(TRACE_PASSES) for item in workloads.pass_instances(args.workload, args.seed, j)
    ]
    walls = {False: 0.0, True: 0.0}
    tracer = spans.Tracer()
    for k, (pair, expected) in enumerate(instances):
        for traced in (False, True) if k % 2 == 0 else (True, False):
            if traced:
                spans.install(tracer)
            try:
                wall, _, ok = classify(pair, expected, config)
            finally:
                tracer.uninstall()
            tally.record(ok)
            walls[traced] += wall
            speed.probe_again()
    factor = speed.run_factor
    return [walls[False], walls[False] * factor], [walls[True], walls[True] * factor], tracer.spans


# --- the cli_batch workload ---------------------------------------------------


def run_batch(batch_dir: Path, out_dir: Path, spans_path=None) -> dict:
    """One ``sdgames reduce <dir> --json --out <dir>`` subprocess, timed from
    spawn to exit, with the child's own CPU time and peak memory."""
    shutil.rmtree(out_dir, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "cli_child.py")]
    if spans_path is not None:
        cmd += ["--trace", str(spans_path)]
    cmd += ["reduce", str(batch_dir), "--json", "--out", str(out_dir)]
    env = child_env()
    stderr_path = out_dir.parent / "batch.stderr"
    with open(stderr_path, "w") as err:
        t0 = time.perf_counter()
        env["PERFBENCH_SPAWN_T"] = repr(t0)
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=env)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 2, 3):
        print(f"perfbench: batch exited {proc.returncode}:\n{stderr_path.read_text()[-2000:]}",
              file=sys.stderr)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0,
            "killed": proc.returncode < 0}


def check_batch(files, out_dir: Path, tally) -> None:
    """Every file needs a report of the expected kind; a missing report
    (for example after the batch exits 1) counts as a failed instance."""
    from sdgames.probio import load_problem

    for path in files:
        pair, meta = load_problem(path)
        report_path = out_dir / f"{path.stem}.report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else None
        tally.record(report_ok(pair, report, meta["expected_outcome"]))


def batch_end_to_end(args, files, batch_dir, run_dir, tally, speed) -> dict:
    """Closed loop, one client: whole batches until the window closes, at
    least MIN_BATCHES so that the median discards one outlying batch."""
    runs = []
    deadline = time.perf_counter() + args.seconds
    while len(runs) < MIN_BATCHES or time.perf_counter() < deadline:
        r = run_batch(batch_dir, run_dir / "out")
        runs.append(r)
        measured = r["wall"]
        # CPU time is not rescaled: a batch's CPU time hardly moves when
        # other tenants slow the host, and rescaling it added their noise
        r["wall"] = speed.rescale(r["wall"])
        print(f"batch {len(runs)}: {measured:.3f} s measured, {r['wall']:.3f} s rescaled")
        check_batch(files, run_dir / "out", tally)
        if r["killed"]:
            break
    return {
        "wall_s": (statistics.median(r["wall"] for r in runs), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in runs), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in runs), "MB"),
    }


def batch_traced(files, batch_dir, run_dir, tally, speed):
    """One batch untraced, then one traced: the untraced and the traced
    (measured, rescaled) wall time, and the spans."""
    import spans

    walls = []
    for spans_path in (None, run_dir / "spans.json"):
        wall = run_batch(batch_dir, run_dir / "out", spans_path)["wall"]
        walls.append([wall, speed.rescale(wall)])
        check_batch(files, run_dir / "out", tally)
    return walls[0], walls[1], spans.load(json.loads(spans_path.read_text()))


# --- results --------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def layer_metrics(summary: dict, untraced, traced, bypassed_roles, factor: float) -> dict:
    """The per-layer metrics of a traced run, from ``spans.summarize``.
    ``untraced`` and ``traced`` are (measured, rescaled) wall times of the same
    work; span times are multiplied by the run's host-speed ``factor``."""

    def get(layer, key):
        value = summary.get(layer, {}).get(key, 0)
        return value * factor if key in ("s", "self_s", "raw_s") else value

    m = {}
    seen = {layer[len("solver."):] for layer in summary if layer.startswith("solver.")}
    m["solver.calls"] = (sum(get(f"solver.{r}", "calls") for r in seen), "count")
    for role in sorted(seen | (set(KNOWN_ROLES) & bypassed_roles)):
        s, iterations = get(f"solver.{role}", "s"), get(f"solver.{role}", "iterations")
        m[f"solver.{role}.s"] = (s, "s")
        m[f"solver.{role}.iterations"] = (iterations, "count")
        m[f"solver.{role}.s_per_iter"] = (s / iterations if iterations else 0.0, "s")
        m[f"solver.{role}.non_optimal"] = (get(f"solver.{role}", "non_optimal"), "count")
    for role in sorted(set(KNOWN_ROLES) - seen - bypassed_roles):
        print(f"perfbench: solver role {role!r} did not run; its metrics are left out", file=sys.stderr)
    m["bounds.practical_bound_M.s"] = (get("bounds.practical_bound_M", "s"), "s")
    m["game.solve_game.s"] = (get("game.solve_game", "s"), "s")
    m["auxiliary.build.s"] = (get("auxiliary.build", "self_s"), "s")
    m["game.build.s"] = (get("game.build", "self_s"), "s")
    m["reduction.self_s"] = (get("reduction", "self_s"), "s")
    m["probio.load.s"] = (get("probio.load", "self_s"), "s")
    m["probio.report.s"] = (get("probio.report", "self_s"), "s")
    m["bounds.certified_bound_M.s"] = (get("bounds.certified_bound_M", "self_s"), "s")
    batch = get("cli.cmd_reduce", "raw_s")
    m["cli.overlap"] = (get("reduction", "raw_s") / batch if batch else 0.0, "ratio")
    m["cli.startup_s"] = (get("process.startup", "self_s") + get("cli.import", "self_s"), "s")
    m["trace.wall_s"] = (traced[1], "s")
    m["trace.overhead_s"] = (traced[1] - untraced[1], "s")
    m["trace.accounted_share"] = (sum(row["self_s"] for row in summary.values()) / traced[0], "ratio")
    return m


def print_layers(summary: dict) -> None:
    print(f"{'layer':32s} {'calls':>6s} {'self_s':>10s} {'incl_s':>10s} {'iters':>6s}")
    for layer in sorted(summary):
        row = summary[layer]
        print(f"{layer:32s} {row['calls']:6d} {row['self_s']:10.4f} {row['s']:10.4f} {row['iterations']:6d}")


def run(args, run_dir: Path) -> dict:
    import spans
    import workloads

    tally = Tally()
    batch_dir = run_dir / "in"
    in_process = args.workload in workloads.IN_PROCESS
    speed = HostSpeed(probe, PROBE_NOMINAL_S)
    batch_speed = None if in_process else HostSpeed(pool_probe, POOL_PROBE_NOMINAL_S)
    if args.trace == 0:
        setup_s = measure_setup(args, batch_dir, SETUP_REPEATS, speed)
    elif not in_process:
        measure_setup(args, batch_dir, 1, speed)
    files = sorted(batch_dir.glob("*.json"))
    if args.trace == 0:
        if in_process:
            metrics = in_process_end_to_end(args, tally, speed)
        else:
            metrics = batch_end_to_end(args, files, batch_dir, run_dir, tally, batch_speed)
        metrics["setup_s"] = (setup_s * speed.run_factor, "s")
    else:
        if in_process:
            untraced, traced, recorded = in_process_traced(args, tally, speed)
            bypassed = workloads.IN_PROCESS[args.workload]["bypassed_roles"]
            factor = speed.run_factor
        else:
            untraced, traced, recorded = batch_traced(files, batch_dir, run_dir, tally, batch_speed)
            bypassed = frozenset()
            factor = batch_speed.run_factor
        summary = spans.summarize(recorded)
        print_layers(summary)
        metrics = layer_metrics(summary, untraced, traced, bypassed, factor)
    for name, probed in (("host.probe_s", speed), ("host.pool_probe_s", batch_speed)):
        if probed is not None:
            print(f"{name:32s} {statistics.median(probed.readings):14.6f} s "
                  f"(median of {len(probed.readings)}; nominal {probed.nominal} s)")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"{'failed_share':32s} {tally.failed / tally.attempted:14.6f} ratio "
          f"({tally.failed} of {tally.attempted})")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sdgames" / "__init__.py").is_file():
        print(f"perfbench: no sdgames sources under {SRC}", file=sys.stderr)
        return 2
    # the thread count is fixed before numpy loads OpenBLAS, here and in children
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    print(json.dumps({"environment": environment(args)}))
    run_dir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        result = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
