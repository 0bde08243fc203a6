"""Seeded property tests: the problem-file parser on arbitrary JSON-like input,
``sdgames verify`` on every result that the pipeline reports, and the
certificate read against the objective pre-filter it dropped."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_oracle
from sdgames.cli import main
from sdgames.game import normalized_strategy1, solve_game
from sdgames.generators import (
    example_corpus,
    random_diagonal,
    random_dual_unbounded,
    random_slater,
    random_unbounded,
)
from sdgames.probio import ProblemFormatError, problem_from_dict, report_to_dict, save_problem
from sdgames.reduction import INCONCLUSIVE, _certifies, recover_certificate, run_pipeline

NUMBERS = st.one_of(
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.fractions().map(str),
    st.sampled_from(["1e400", "-1e308", "1e-400", "1e99999", "2.5e-3", "-7/3"]),
)

ENTRIES = st.one_of(
    NUMBERS,
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(["1/0", "0x10", "inf", "1_0", "1/2/3"]),
)

JSON_LIKE = st.recursive(
    ENTRIES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(st.text(max_size=4), kids, max_size=4)
    ),
    max_leaves=8,
)


def _symmetric(n):
    """n x n matrices of arbitrary entries that mirror their upper triangle."""

    def fill(upper):
        it = iter(upper)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = next(it)
        return rows

    k = n * (n + 1) // 2
    return st.lists(st.one_of(NUMBERS, NUMBERS, ENTRIES), min_size=k, max_size=k).map(fill)


@st.composite
def _near_valid(draw):
    """Documents with every field present and mostly numeric entries, so that
    parsing reaches the entry, symmetry and pair checks."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    doc = {
        "n": draw(st.one_of(st.just(n), st.just(n), JSON_LIKE)),
        "m": draw(st.one_of(st.just(m), st.just(m), JSON_LIKE)),
        "C": draw(st.one_of(_symmetric(n), _symmetric(n), JSON_LIKE)),
        "A": draw(st.one_of(st.lists(_symmetric(n), min_size=m, max_size=m), JSON_LIKE)),
        "b": draw(st.one_of(st.lists(NUMBERS, min_size=m, max_size=m), JSON_LIKE)),
    }
    if draw(st.booleans()):
        doc["name"] = draw(JSON_LIKE)
    return doc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(JSON_LIKE, _near_valid()))
def test_problem_from_dict_raises_only_format_errors(doc):
    try:
        pair, _ = problem_from_dict(doc)
    except ProblemFormatError:
        return
    pair.to_float()  # every accepted entry fits a float


GENERATORS = {
    "slater": random_slater,
    "unbounded": random_unbounded,
    "diag-slater": random_diagonal,
    "diag-unbounded": lambda n, m, seed: random_diagonal(n, m, seed, kind="unbounded"),
}


def _candidates(report: dict):
    """The (kind, candidate) pairs that ``sdgames verify`` checks, read off a report."""
    if report["X"] is not None:
        yield "optimal", {"X": report["X"], "y": report["y"]}
    if report["direction_X"] is not None:
        yield "primal-dir", {"W": report["direction_X"]}
    if report["direction_y"] is not None:
        yield "dual-dir", {"y": report["direction_y"]}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(
    st.sampled_from(sorted(GENERATORS)),
    st.integers(1, 4),
    st.integers(1, 4),
    st.integers(0, 2**16),
)
def test_verify_accepts_every_reported_result(family, n, m, seed):
    pair = GENERATORS[family](n, m, seed)
    report = json.loads(json.dumps(report_to_dict(run_pipeline(pair))))
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "pair.json"
        save_problem(problem, pair)
        # the report form reads the kind from the outcome; Inconclusive holds no result
        path = Path(tmp) / "report.json"
        path.write_text(json.dumps(report))
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(out):
            rc = main(["verify", str(problem), str(path)])
        assert rc == (1 if report["outcome"] == INCONCLUSIVE else 0), (report["outcome"], out.getvalue())
        if report["outcome"] == INCONCLUSIVE:
            return
        for kind, cand in _candidates(report):
            path = Path(tmp) / f"{kind}.json"
            path.write_text(json.dumps(cand))
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = main(["verify", str(problem), str(path), "--kind", kind])
            assert rc == 0, (report["outcome"], kind, out.getvalue())


CERTIFICATE_PAIRS = [pair.to_float() for pair, _ in example_corpus()] + [
    gen(3, 3, seed).to_float()
    for gen in (random_unbounded, random_dual_unbounded, random_slater, GENERATORS["diag-unbounded"])
    for seed in (1, 2)
]


@lru_cache(maxsize=None)
def _game_s1(index: int):
    """Player 1's optimal blocks (X, y, u) on a pair at M = 10."""
    s1 = solve_game(CERTIFICATE_PAIRS[index], 10.0).s1
    return s1.X.array, s1.y, s1.u


@st.composite
def _unit_trace_s1(draw):
    """A pair and a unit-trace player-1 strategy with t' = 0: player 1's
    optimal blocks mixed with a random strategy, from all of one to all of
    the other, so that both checks pass, fail and sit near their margins."""
    index = draw(st.integers(0, len(CERTIFICATE_PAIRS) - 1))
    pair = CERTIFICATE_PAIRS[index]
    w = draw(st.one_of(st.sampled_from([0.0, 0.5, 1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1.0]), st.floats(0.0, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    G = rng.standard_normal((pair.n, pair.n))
    noise = normalized_strategy1(G @ G.T, np.abs(rng.standard_normal(pair.m)), 0.0, abs(rng.standard_normal()))
    X, y, u = _game_s1(index)
    mixed = (w * X + (1 - w) * noise.X.array, w * y + (1 - w) * noise.y, 0.0, w * u + (1 - w) * noise.u)
    return pair, normalized_strategy1(*mixed)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_unit_trace_s1(), st.sampled_from([1e-6, 1e-9]))
def test_certificate_read_matches_the_pre_filter(case, tol):
    pair, s1 = case
    checks = recover_certificate(s1, pair, tol)
    reference = certificate_oracle.candidate_checks(s1, pair, tol)
    # every check the pre-filter ran comes out the same, and only its candidates pass
    assert {key: checks[key] for key in reference} == reference
    assert [key for key, check in checks.items() if check["ok"]] == [
        key for key, check in reference.items() if check["ok"]
    ]
    accepted = _certifies(pair, tol)(s1)
    assert (accepted is None) == (certificate_oracle.certifies(pair, tol)(s1) is None)
    assert accepted is None or accepted == checks
