"""Workload definitions: which instances each workload classifies.

Every input is made from the ``--seed`` argument; the same seed gives the same
instances.  The in-process workloads run the instance list in passes; pass
``j`` draws fresh random instances from the seeds following ``seed``, so a
longer run averages over more instances instead of repeating one.

Slater pairs are diagonal (``random_diagonal(..., kind="slater")``), not
dense ``random_slater`` pairs: on about one dense Slater pair in a hundred
(n = 3 to 8) the practical bound's tighter refined-aux probe stops at
``MaxIterations``, the auxiliary solution is flagged ``SuspectedUnattained`` and
the pipeline reports ``Inconclusive`` where a strongly optimal pair exists, for
example on ``random_slater(8, 8, 1267815975)``.  README.md records this open
defect; no diagonal Slater pair has shown it.

Why each workload exists is documented in README.md next to this file.
"""

from __future__ import annotations

from pathlib import Path

from sdgames.generators import example_corpus, khachiyan_pair, random_diagonal, random_unbounded
from sdgames.probio import save_problem
from sdgames.reduction import PRIMAL_UNBOUNDED_CERT, STRONGLY_OPTIMAL, PipelineConfig

BOUNDED_LADDER = (4, 6, 8)
CERTIFICATE_LADDER = (6, 8, 10)
CERTIFICATE_M = 10.0
CLI_SIZES = (2, 3, 4)
KHACHIYAN_SIZES = (1, 2, 3)
KHACHIYAN_TAU = 2

# Solver roles a workload skips by design read 0; any other role that does
# not appear is left out of the results, so a removed solve shows as missing.
AUX_ROLES = frozenset({"primal-aux", "refined-aux"})

IN_PROCESS = {
    "bounded": {"config": PipelineConfig(), "bypassed_roles": frozenset()},
    "certificate": {
        "config": PipelineConfig(bound_mode=CERTIFICATE_M),
        "bypassed_roles": AUX_ROLES,
    },
    # self-test only: one corpus instance through the practical bound
    "smoke": {"config": PipelineConfig(), "bypassed_roles": frozenset()},
}


def slater(n: int, seed: int):
    """A solvable pair with strictly feasible primal and dual, n = m."""
    return random_diagonal(n, n, seed, kind="slater")


def pass_instances(workload: str, seed: int, j: int) -> list:
    """The (pair, expected outcome kind) list of pass ``j`` of a workload."""
    if workload == "bounded":
        return [(slater(n, seed + j), STRONGLY_OPTIMAL) for n in BOUNDED_LADDER]
    if workload == "certificate":
        return [
            (random_unbounded(n, n, seed + 2 * j + k), PRIMAL_UNBOUNDED_CERT)
            for n in CERTIFICATE_LADDER
            for k in (0, 1)
        ]
    if workload == "smoke":
        pair, meta = example_corpus()[0]
        return [(pair, meta["expected_outcome"])]
    raise ValueError(f"{workload!r} is not an in-process workload")


def batch_files(seed: int) -> list:
    """The (file stem, pair, metadata) list of the ``cli_batch`` directory."""
    files = [(pair.name, pair, meta) for pair, meta in example_corpus()]
    for n in KHACHIYAN_SIZES:
        # the chain is feasible with a finite optimum that both sides attain
        meta = {"expected_outcome": STRONGLY_OPTIMAL}
        files.append((f"khachiyan_n{n}_tau{KHACHIYAN_TAU}", khachiyan_pair(n, KHACHIYAN_TAU), meta))
    for n in CLI_SIZES:
        files.append((f"slater_n{n}", slater(n, seed), {"expected_outcome": STRONGLY_OPTIMAL}))
        files.append(
            (f"unbounded_n{n}", random_unbounded(n, n, seed), {"expected_outcome": PRIMAL_UNBOUNDED_CERT})
        )
    return files


def write_batch(seed: int, directory: Path) -> list:
    """Write the ``cli_batch`` problem files; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, pair, meta in batch_files(seed):
        path = directory / f"{stem}.json"
        save_problem(path, pair, meta)
        paths.append(path)
    return paths
