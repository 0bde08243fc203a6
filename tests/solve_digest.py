"""Parity digest of every embedded SDP solve the pipeline makes.

Runs ``run_pipeline`` over a fixed instance set and prints, per solver role
(the SDP's name without its pair's name, for example ``game-p1``), the number
of solves, their total iterations and one SHA-256 over each solve's status,
iterations, value, gap, warnings, primal, dual and dual_slack, in call order.
Two trees whose digests agree made bit-for-bit the same solves::

    python tests/solve_digest.py            # the full set
    python tests/solve_digest.py --corpus   # the five-instance corpus only

The instance set is ``bounded`` and ``certificate`` pass 0 of the benchmark at
seeds 1-3, plus dense ``random_slater`` and ``random_unbounded`` pairs at
n = m in {3, 6, 12}.  BLAS runs on one thread, as in the benchmark: iteration
counts differ between thread counts.  Not collected by pytest;
``tests/test_solver.py`` runs it twice on the corpus and expects equal digests.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

if __name__ == "__main__":
    # before numpy loads; a test that imports this module changes nothing
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hashlib  # noqa: E402
from contextlib import contextmanager  # noqa: E402

import numpy as np  # noqa: E402

import sdgames  # noqa: E402
from sdgames import solver  # noqa: E402
from sdgames.generators import (  # noqa: E402
    example_corpus,
    random_diagonal,
    random_slater,
    random_unbounded,
)
from sdgames.reduction import PipelineConfig, run_pipeline  # noqa: E402

SEEDS = (1, 2, 3)
DENSE_SIZES = (3, 6, 12)


def corpus_instances() -> list:
    """(pair, config) for the five-instance example corpus."""
    return [(pair, PipelineConfig()) for pair, _ in example_corpus()]


def full_instances() -> list:
    """(pair, config) for the full digest set."""
    out = []
    for seed in SEEDS:
        # the benchmark's bounded and certificate workloads, pass 0
        out += [(random_diagonal(n, n, seed, kind="slater"), PipelineConfig()) for n in (4, 6, 8)]
        out += [
            (random_unbounded(n, n, seed + k), PipelineConfig(bound_mode=10.0))
            for n in (6, 8, 10)
            for k in (0, 1)
        ]
    for gen in (random_slater, random_unbounded):
        out += [(gen(n, n, 1), PipelineConfig()) for n in DENSE_SIZES]
    return out


def _solve_bytes(res) -> bytes:
    parts = [res.status, str(res.iterations), repr(res.value), repr(res.gap), repr(res.warnings)]
    arrays = [*res.primal, res.dual, *res.dual_slack]
    return "\n".join(parts).encode() + b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def role(problem, pair) -> str:
    """The SDP's name without its pair's name, for example ``game-p1``."""
    prefix = (pair.name or "pair") + "-"
    return problem.name[len(prefix):] if problem.name.startswith(prefix) else problem.name


@contextmanager
def recording(on_solve):
    """Wrap ``solve`` in every sdgames module that calls it; ``on_solve(problem,
    result)`` sees each solve as it returns."""
    original = solver.solve

    def recorded(problem, *args, **kwargs):
        res = original(problem, *args, **kwargs)
        on_solve(problem, res)
        return res

    modules = [m for m in vars(sdgames).values() if getattr(m, "solve", None) is original]
    for m in modules:
        m.solve = recorded
    try:
        yield
    finally:
        for m in modules:
            m.solve = original


def solves_of(pair, run) -> tuple:
    """run()'s result and {role: result} of the solves it made on ``pair``,
    the last one per role."""
    solves = {}

    def on_solve(problem, res):
        solves[role(problem, pair)] = res

    with recording(on_solve):
        out = run()
    return out, solves


def digest(instances) -> dict:
    """role -> (solves, iterations, SHA-256 hex digest) over the given instances."""
    records: dict = {}
    current = [None]

    def on_solve(problem, res):
        rec = records.setdefault(role(problem, current[0]), [0, 0, hashlib.sha256()])
        rec[0] += 1
        rec[1] += res.iterations
        rec[2].update(_solve_bytes(res))

    with recording(on_solve):
        for pair, config in instances:
            current[0] = pair
            run_pipeline(pair, config)
    return {r: (n, it, h.hexdigest()) for r, (n, it, h) in sorted(records.items())}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    instances = corpus_instances() if "--corpus" in argv else full_instances()
    for role, (n, it, hexdigest) in digest(instances).items():
        print(f"{role:12s} solves {n:3d} iterations {it:5d} sha256 {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
