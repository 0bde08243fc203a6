"""Outcome census: the expected against the reported outcome kind over a fixed ladder.

Runs ``run_pipeline`` with the practical bound on every instance and prints,
per instance, the expected and the reported kind, the M used, and per solver
role (``primal-aux``, ``refined-aux``, ``game-p1``, ``game-p2``) the solves,
their total iterations and how many ended neither Optimal nor StoppedEarly,
as ``solves/iterations/non_optimal``, then the number of game solves that a
stop test ended early (StoppedEarly: player 1 at a certifying iterate), where
player 1's game solve started (``aux``, at the auxiliary point, or ``cold``),
the width ``value_upper - value_lower`` of the game's value bracket and the
wall time.  A summary follows: the kinds lost (expected but not reported) and
gained (reported but not expected), the total iterations and non-Optimal
solves per role, the early-stopped solves, the player-1 solves started at the
auxiliary point and the widest bracket per reported kind.  The exit status is
1 when a kind is lost or gained::

    python tests/outcome_census.py          # n = m in {2, 3, 4, 6, 8, 12}
    python tests/outcome_census.py --fast   # n = m in {2, 3, 4}
    python tests/outcome_census.py --large  # n = m in {16, 24, 32}, about 15 s
    python tests/outcome_census.py --khachiyan  # khachiyan_pair(n, tau), about 0.5 s
    python tests/outcome_census.py --stalls # game-p1 iterations without a stop test
    python tests/outcome_census.py --sweep  # the kind per pair and fixed M

Instances: the five-instance example corpus, ``khachiyan_pair(n, 2)`` for
n in {1, 2, 3}, and ``random_slater``, ``random_unbounded``,
``random_dual_unbounded`` and ``random_diagonal`` (both kinds) at seeds 1-3.
A pair built around strictly feasible points is expected StronglyOptimal; one
built around a strict unbounded primal (dual) direction, PrimalUnboundedCert
(DualUnboundedCert); the corpus carries its own expectations.  A tree that
changes results (fewer solves, another linear solve) compares the kind, M and
width columns and the iteration totals with its parent's.  BLAS runs on one
thread, as in ``tests/solve_digest.py``.  Not collected by pytest;
``tests/test_reduction.py`` checks the kinds of the fast ladder.

``--large`` instead runs ``random_slater`` and ``random_unbounded`` at
n = m in {16, 24, 32}, seed 1, and prints the same table: the sizes where a
pair takes seconds and a solve that stops short of Optimal shows, which the
default ladder does not reach.  It is the only ladder where the main
auxiliary solve of a pair with a strongly optimal pair stops short
(``slater-n24-m24-s1`` ends MaxIterations), so that the attainment probe's
point, not the main solve's, gives M.

``--khachiyan`` instead runs ``khachiyan_pair(n, tau)`` for n in 1..4 and
tau in 1..6 and prints the same table.  Both sides of every chain are
strictly feasible, so each is expected StronglyOptimal; the optimum
2^-((tau+1) 2^n - tau) shrinks doubly exponentially in n, and the practical
M grows with 2^tau.

``--stalls`` instead runs ``solve_game`` without a stop test on
``random_unbounded(n, n, s)``, n in {6, 8, 10}, s in 100-111, at M = 10, and
prints the total, median and largest game-p1 iteration count and how many of
those solves reach max_iters: player 1's iterations at the precision limit,
which the pipeline's stop test hides.

``--sweep`` instead runs ``run_pipeline`` at each fixed M in {1, 3, 1e4,
1e6, 1e8, 1e10} on the corpus, six random pairs and :func:`scaled_pair`,
and prints one row per pair: the kind at each M, or the class of the
exception the run raised.  A
tree that changes routing or solves compares this table with its parent's;
it takes about 2 s and exits 1 when any cell holds an exception, since
``run_pipeline`` reports numerical trouble as an outcome and never raises on
it, or when a pair whose expected kind is not StronglyOptimal is reported
StronglyOptimal at any M: a loose check or a large M may lose a kind to
Inconclusive, but a strongly optimal pair reported where none exists is wrong.
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

import statistics  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from functools import partial  # noqa: E402

import numpy as np  # noqa: E402

from sdgames.game import GAME_TOL, solve_game  # noqa: E402
from sdgames.generators import (  # noqa: E402
    example_corpus,
    khachiyan_pair,
    random_diagonal,
    random_dual_unbounded,
    random_slater,
    random_unbounded,
)
from sdgames.model import SdpPair, SymMat  # noqa: E402
from sdgames.reduction import (  # noqa: E402
    DUAL_UNBOUNDED_CERT,
    INCONCLUSIVE,
    PRIMAL_UNBOUNDED_CERT,
    STRONGLY_OPTIMAL,
    PipelineConfig,
    run_pipeline,
)
from sdgames.solver import MAX_ITERS, OPTIMAL, STOPPED_EARLY  # noqa: E402

from solve_digest import recording, role  # noqa: E402

SEEDS = (1, 2, 3)
SIZES = (2, 3, 4, 6, 8, 12)
FAST_SIZES = (2, 3, 4)
LARGE_SIZES = (16, 24, 32)
ROLES = ("primal-aux", "refined-aux", "game-p1", "game-p2")
GENERATORS = (
    (random_slater, STRONGLY_OPTIMAL),
    (random_unbounded, PRIMAL_UNBOUNDED_CERT),
    (random_dual_unbounded, DUAL_UNBOUNDED_CERT),
    (partial(random_diagonal, kind="slater"), STRONGLY_OPTIMAL),
    (partial(random_diagonal, kind="unbounded"), PRIMAL_UNBOUNDED_CERT),
)


def instances(sizes=SIZES) -> list:
    """(pair, expected kind) for the corpus, small Khachiyan pairs and the random ladder."""
    out = [(pair, meta["expected_outcome"]) for pair, meta in example_corpus()]
    out += [(khachiyan_pair(n, 2), STRONGLY_OPTIMAL) for n in (1, 2, 3)]
    for gen, expected in GENERATORS:
        out += [(gen(n, n, seed), expected) for n in sizes for seed in SEEDS]
    return out


def large_instances() -> list:
    """(pair, expected kind) for ``random_slater`` and ``random_unbounded`` at
    n = m in LARGE_SIZES, seed 1."""
    return [(gen(n, n, 1), expected) for gen, expected in GENERATORS[:2] for n in LARGE_SIZES]


def khachiyan_chains() -> list:
    """(pair, expected kind) for ``khachiyan_pair(n, tau)``, n in 1..4, tau in 1..6."""
    return [(khachiyan_pair(n, tau), STRONGLY_OPTIMAL) for n in range(1, 5) for tau in range(1, 7)]


def census(cases) -> list:
    """One row per (pair, expected): name, expected, kind, M, start (of
    player 1's game solve), width (of the value bracket), wall_s and per role
    [solves, iterations, non_optimal, stopped_early]."""
    rows = []
    current = [None, None]  # the instance's role table and its pair

    def on_solve(problem, res):
        counts = current[0].setdefault(role(problem, current[1]), [0, 0, 0, 0])
        counts[0] += 1
        counts[1] += res.iterations
        counts[2] += res.status not in (OPTIMAL, STOPPED_EARLY)
        counts[3] += res.status == STOPPED_EARLY

    with recording(on_solve):
        for pair, expected in cases:
            roles: dict = {}
            current[:] = [roles, pair]
            t0 = time.perf_counter()
            out = run_pipeline(pair)
            wall = time.perf_counter() - t0
            rows.append({
                "name": pair.name,
                "expected": expected,
                "kind": out.kind,
                "M": out.M_used.value,
                "start": out.diagnostics["game_start"],
                "width": out.diagnostics["value_upper"] - out.diagnostics["value_lower"],
                "roles": roles,
                "wall_s": wall,
            })
    return rows


def summary(rows) -> dict:
    """Kinds lost and gained (as counters), total iterations and non-Optimal
    solves per role, the early-stopped solves, the player-1 solves started at
    the auxiliary point and the widest bracket per reported kind."""
    missed = [r for r in rows if r["kind"] != r["expected"]]

    def total(k, i):
        return sum(r["roles"].get(k, [0, 0, 0, 0])[i] for r in rows)

    return {
        "lost": Counter(r["expected"] for r in missed),
        "gained": Counter(r["kind"] for r in missed),
        "missed": [r["name"] for r in missed],
        "iterations": {k: total(k, 1) for k in ROLES},
        "non_optimal": {k: total(k, 2) for k in ROLES},
        "stopped_early": sum(total(k, 3) for k in ROLES),
        "aux_starts": sum(r["start"] == "aux" for r in rows),
        "widest": {kind: max(r["width"] for r in rows if r["kind"] == kind)
                   for kind in sorted({r["kind"] for r in rows})},
    }


def stalls() -> list:
    """Iterations of player 1's game solve without a stop test on
    ``random_unbounded(n, n, s)``, n in {6, 8, 10}, s in 100-111, at M = 10."""
    out = []
    current = [None]

    def on_solve(problem, res):
        if role(problem, current[0]) == "game-p1":
            out.append(res.iterations)

    with recording(on_solve):
        for n in (6, 8, 10):
            for seed in range(100, 112):
                current[0] = pair = random_unbounded(n, n, seed)
                solve_game(pair, 10.0, GAME_TOL)
    return out


SWEEP_MS = (1.0, 3.0, 1e4, 1e6, 1e8, 1e10)
KINDS = (STRONGLY_OPTIMAL, PRIMAL_UNBOUNDED_CERT, DUAL_UNBOUNDED_CERT, INCONCLUSIVE)


def scaled_pair() -> SdpPair:
    """A_1 = A_2 = 1e12 I, C = I, b = (1, 2) at n = 2: both sides strictly
    feasible, with data far from unit scale."""
    A = SymMat.from_array(1e12 * np.eye(2))
    return SdpPair(C=SymMat.from_array(np.eye(2)), A=(A, A), b=(1.0, 2.0), name="scaled-1e12")


def sweep() -> list:
    """(name, expected kind, [kind or exception class at each M in SWEEP_MS])
    for the corpus, six random pairs and :func:`scaled_pair`."""
    cases = [(pair, meta["expected_outcome"]) for pair, meta in example_corpus()] + [
        (random_slater(4, 4, 1), STRONGLY_OPTIMAL),
        (random_unbounded(4, 4, 1), PRIMAL_UNBOUNDED_CERT),
        (random_dual_unbounded(4, 4, 1), DUAL_UNBOUNDED_CERT),
        (random_slater(8, 8, 1), STRONGLY_OPTIMAL),
        (random_slater(12, 12, 2), STRONGLY_OPTIMAL),
        (random_unbounded(8, 8, 1), PRIMAL_UNBOUNDED_CERT),
        (scaled_pair(), STRONGLY_OPTIMAL),
    ]
    rows = []
    for pair, expected in cases:
        kinds = []
        for M in SWEEP_MS:
            try:
                kinds.append(run_pipeline(pair, PipelineConfig(bound_mode=M)).kind)
            except Exception as exc:  # the table shows any failure by its class
                kinds.append(type(exc).__name__)
        rows.append((pair.name, expected, kinds))
    return rows


def _counts(c) -> str:
    return "/".join(map(str, c[:3])) if c else "-"


def _stopped(roles) -> int:
    return sum(c[3] for c in roles.values())


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--stalls" in argv:
        its = stalls()
        print(f"{len(its)} game-p1 solves without a stop test: iterations {sum(its)} in total, "
              f"median {statistics.median(its):g}, max {max(its)}; "
              f"{its.count(MAX_ITERS)} end at max_iters = {MAX_ITERS}")
        return 0
    if "--sweep" in argv:
        print(f"{'instance':26s} " + " ".join(f"{'M = ' + format(M, 'g'):>20s}" for M in SWEEP_MS))
        raised = false_optimal = 0
        for name, expected, kinds in sweep():
            print(f"{name:26s} " + " ".join(f"{k:>20s}" for k in kinds))
            raised += sum(k not in KINDS for k in kinds)
            if expected != STRONGLY_OPTIMAL:
                false_optimal += kinds.count(STRONGLY_OPTIMAL)
        if raised:
            print(f"\n{raised} runs raised an exception")
        if false_optimal:
            print(f"\n{false_optimal} runs reported StronglyOptimal on a pair expected otherwise")
        return 1 if raised or false_optimal else 0
    if "--large" in argv:
        cases = large_instances()
    elif "--khachiyan" in argv:
        cases = khachiyan_chains()
    else:
        cases = instances(FAST_SIZES if "--fast" in argv else SIZES)
    rows = census(cases)
    print(f"{'instance':26s} {'expected':20s} {'reported':20s} {'M':>6s} "
          + " ".join(f"{k:>11s}" for k in ROLES) + f" {'stopped':>7s} {'start':>5s} {'width':>9s} {'wall_s':>7s}")
    for r in rows:
        print(f"{r['name']:26s} {r['expected']:20s} {r['kind']:20s} {r['M']:6g} "
              + " ".join(f"{_counts(r['roles'].get(k)):>11s}" for k in ROLES)
              + f" {_stopped(r['roles']):7d} {r['start']:>5s} {r['width']:9.2e} {r['wall_s']:7.3f}")
    s = summary(rows)
    print(f"\n{len(rows)} instances, {len(rows) - len(s['missed'])} with the expected kind")
    print("kinds lost:   " + (", ".join(f"{k} {v}" for k, v in sorted(s["lost"].items())) or "none"))
    print("kinds gained: " + (", ".join(f"{k} {v}" for k, v in sorted(s["gained"].items())) or "none"))
    if s["missed"]:
        print("not as expected: " + ", ".join(s["missed"]))
    its = s["iterations"]
    print("total iterations: " + ", ".join(f"{k} {v}" for k, v in its.items())
          + f", all {sum(its.values())}")
    print("non-Optimal solves: " + ", ".join(f"{k} {v}" for k, v in s["non_optimal"].items())
          + f"; stopped early: {s['stopped_early']}")
    print(f"player 1 started at the aux point: {s['aux_starts']} of {len(rows)}")
    print("widest bracket per reported kind: "
          + ", ".join(f"{k} {w:.3g}" for k, w in s["widest"].items()))
    return 1 if s["missed"] else 0


if __name__ == "__main__":
    sys.exit(main())
