"""Pipeline classification, recovery operations, and the equivalence
properties on random instance families."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sdgames
from sdgames import cli, reduction
from sdgames.auxiliary import ATTAINED, solve_aux
from sdgames.bounds import practical_bound_M
from sdgames.game import GAME_TOL, GameSolution, Strategy1, Strategy2, solve_game
from sdgames.generators import random_diagonal, random_dual_unbounded, random_slater, random_unbounded
from sdgames.model import (
    DualPoint,
    PrimalPoint,
    SymMat,
    check_primal_direction,
    frobenius_inner,
    verify_strongly_optimal,
)
from sdgames.probio import report_to_dict, save_problem
from sdgames.reduction import (
    DUAL_UNBOUNDED_CERT,
    INCONCLUSIVE,
    PRIMAL_UNBOUNDED_CERT,
    STRONGLY_OPTIMAL,
    PipelineConfig,
    aux_value_relation,
    recover_certificate,
    recover_optimal,
    run_pipeline,
)
from sdgames.solver import NUMERICAL_FAILURE, OPTIMAL, STOPPED_EARLY, solve

import outcome_census
import solve_digest
from lp_oracle import OPTIMAL as LP_OPTIMAL
from lp_oracle import UNBOUNDED as LP_UNBOUNDED
from lp_oracle import lp_min_inequality


def s2_of(X, y, t):
    return Strategy2(SymMat.from_array(np.asarray(X, float)), np.atleast_1d(y), t)


def s1_of(X, y, t, u):
    return Strategy1(SymMat.from_array(np.asarray(X, float)), np.atleast_1d(y), t, u)


class TestRecoverOptimal:
    def test_bounded_strategy(self):
        s2 = s2_of(np.array([[1.0, 0.0], [0.0, 0.0]]) / 3.0, [1.0 / 3.0], 1.0 / 3.0)
        X, y = recover_optimal(s2, 1e-8)
        assert np.allclose(X.array, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)
        assert y[0] == pytest.approx(1.0, abs=1e-12)

    def test_vanished_t_errors(self):
        s2 = s2_of(np.diag([0.5, 0.5]), [0.0], 0.0)
        with pytest.raises(ValueError, match="t vanished"):
            recover_optimal(s2, 1e-8)

    def test_scaling_consistency(self):
        base = np.array([[2.0, 0.5], [0.5, 1.0]])
        for lam in (0.5, 2.0):
            total = np.trace(lam * base) + lam * 0.7 + lam * 0.3
            s2 = s2_of(lam * base / total, [lam * 0.7 / total], lam * 0.3 / total)
            X, y = recover_optimal(s2, 1e-10)
            assert np.allclose(X.array, base / 0.3, atol=1e-10)
            assert y[0] == pytest.approx(0.7 / 0.3, abs=1e-10)


class TestRecoverCertificate:
    def test_unbounded_example_primal_direction(self, unbounded_pair):
        W = np.array([[1.0, 1.5], [1.5, 5.0]])
        total = np.trace(W) + 0.4
        s1 = s1_of(W / total, [0.0], 0.0, 0.4 / total)
        checks = recover_certificate(s1, unbounded_pair.to_float(), 1e-6)
        assert checks["primal"]["ok"]
        assert not checks["dual"]["ok"] and checks["dual"]["objective_along_direction"] == 0.0

    def test_both_infeasible_dual_direction(self, both_infeasible_pair):
        s1 = s1_of(np.zeros((2, 2)), [2.0 / 3.0], 0.0, 1.0 / 3.0)
        pair = both_infeasible_pair.to_float()
        checks = recover_certificate(s1, pair, 1e-6)
        assert checks["dual"]["ok"]
        assert checks["dual"]["objective_along_direction"] == pytest.approx(pair.b_array[0] * 2.0 / 3.0)
        assert not checks["primal"]["ok"] and checks["primal"]["objective_along_direction"] == 0.0

    def test_pure_u_yields_nothing(self, bounded_pair):
        s1 = s1_of(np.zeros((2, 2)), [0.0], 0.0, 1.0)
        checks = recover_certificate(s1, bounded_pair.to_float(), 1e-6)
        assert list(checks) == ["primal", "dual"]
        assert not any(check["ok"] for check in checks.values())

    def test_nonzero_t_errors(self, bounded_pair):
        s1 = s1_of(np.zeros((2, 2)), [0.5], 0.5, 0.0)
        with pytest.raises(ValueError, match="t' nonzero"):
            recover_certificate(s1, bounded_pair.to_float(), 1e-6)


class TestAuxValueRelation:
    def test_zero(self):
        assert aux_value_relation(0.0, 5.0) == 0.0

    def test_both_infeasible_value(self):
        assert aux_value_relation(1.0 / 3.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_invert_on_unbounded_example(self, unbounded_pair, game_tol):
        # aux optimum 1 at M = 1 forces game value 1/3
        aux = solve_aux(unbounded_pair)
        g = solve_game(unbounded_pair, 1.0, game_tol)
        assert aux_value_relation(g.value, 1.0) == pytest.approx(aux.w, abs=1e-5)

    def test_rejects_value_at_least_one(self):
        with pytest.raises(ValueError):
            aux_value_relation(1.0, 1.0)


class TestPipelineConfig:
    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_numeric_bound_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            PipelineConfig(bound_mode=bad)

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_game_tol_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="^game_tol must be finite and positive"):
            PipelineConfig(game_tol=bad)

    def test_two_settings_and_a_fixed_verification_tolerance(self):
        assert [f.name for f in fields(PipelineConfig)] == ["game_tol", "bound_mode"]
        assert PipelineConfig().verify_tol == PipelineConfig.verify_tol == 1e-6
        assert PipelineConfig(bound_mode=10.0).game_tol == GAME_TOL
        with pytest.raises(TypeError):
            PipelineConfig(verify_tol=0.1)

    @pytest.mark.parametrize("bad", [0.5, 1.0 - 1e-12])
    def test_numeric_bound_below_one_is_rejected_by_name(self, bad):
        with pytest.raises(ValueError, match=r"^bound_mode: .* at least 1"):
            PipelineConfig(bound_mode=bad)
        assert PipelineConfig(bound_mode=1.0).bound_mode == 1.0


class TestPipelineCorpus:
    def test_bounded(self, bounded_pair):
        out = run_pipeline(bounded_pair, PipelineConfig(bound_mode=3.0))
        assert out.kind == STRONGLY_OPTIMAL
        assert abs(out.game_value) <= 1e-6
        assert np.allclose(out.X_opt.array, [[1.0, 0.0], [0.0, 0.0]], atol=1e-4)
        assert out.y_opt[0] == pytest.approx(1.0, abs=1e-4)

    def test_unbounded(self, unbounded_pair):
        out = run_pipeline(unbounded_pair, PipelineConfig(bound_mode=1.0))
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert out.game_value == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert check_primal_direction(unbounded_pair, out.direction_X, 1e-6)["strict"]

    def test_duality_gap_inconclusive(self, duality_gap_pair):
        out = run_pipeline(duality_gap_pair, PipelineConfig(bound_mode=1.0))
        assert out.kind == INCONCLUSIVE
        assert out.game_value > 1e-3
        assert any("no pair of strongly optimal solutions" in s for s in out.notes)

    def test_unattained_inconclusive(self, unattained_pair):
        out = run_pipeline(unattained_pair)
        assert out.kind == INCONCLUSIVE
        assert any("constraint qualification" in s for s in out.notes)


class TestRouting:
    """Verification picks the outcome, whatever the bracket lower <= v <= upper
    says; the bracket only writes the notes.  The strategies are the solved
    equilibrium of corpus ``unbounded`` at M = 1 (threshold 1/4): its second
    player's strategy recovers a pair that fails verification, and its first
    player's strategy yields a verified primal direction."""

    @pytest.fixture(scope="class")
    def game(self, unbounded_pair, game_tol):
        return solve_game(unbounded_pair, 1.0, game_tol)

    def _run(self, monkeypatch, pair, game, lower, upper):
        planted = GameSolution(game.s1, game.s2, lower, upper)
        monkeypatch.setattr(reduction, "solve_game", lambda pf, M, tol, certifies, point: planted)
        return run_pipeline(pair, PipelineConfig(bound_mode=1.0))

    def test_straddling_bracket_tries_both_branches(self, monkeypatch, unbounded_pair, game):
        out = self._run(monkeypatch, unbounded_pair, game, -1e-9, 0.5)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert not out.verification["optimal"]["ok"] and out.verification["primal"]["ok"]
        assert "recovered pair failed independent optimality verification" in out.notes
        assert any("straddles 0" in s for s in out.notes)
        assert not any("no pair of strongly optimal solutions" in s for s in out.notes)

    def test_bracket_within_threshold_still_gets_the_certificate(
        self, monkeypatch, unbounded_pair, game
    ):
        # the certificate attempt follows any failed bounded one, whatever
        # the bracket
        out = self._run(monkeypatch, unbounded_pair, game, 0.0, 0.2)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert not out.verification["optimal"]["ok"] and out.verification["primal"]["ok"]
        assert out.notes[:2] == [
            "recovered pair failed independent optimality verification",
            "game value bracket [0, 0.2] straddles 0",
        ]

    def test_positive_lower_within_threshold_still_tries_certificate(
        self, monkeypatch, unbounded_pair, game
    ):
        out = self._run(monkeypatch, unbounded_pair, game, 0.01, 0.2)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert not out.verification["optimal"]["ok"] and out.verification["primal"]["ok"]
        assert "game value positive; no pair of strongly optimal solutions exists" in out.notes
        assert out.diagnostics["value_lower"] == 0.01
        assert out.diagnostics["value_upper"] == 0.2

    def test_tiny_positive_lower_still_tries_certificate(self, monkeypatch, unbounded_pair, game):
        # any certified positive lower bound gets the certificate attempt: the
        # threshold 0.5/(M+1) shrinks with M, so no absolute cut-off is safe
        out = self._run(monkeypatch, unbounded_pair, game, 1e-7, 0.2)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert not out.verification["optimal"]["ok"] and out.verification["primal"]["ok"]
        assert "game value positive; no pair of strongly optimal solutions exists" in out.notes

    def test_positive_lower_at_large_M_gets_the_certificate_attempt(self, duality_gap_pair):
        # the bracket at M = 1e4 is about [1.997e-9, 2.006e-9], far below the
        # threshold 5e-5; the certificate branch runs and finds t' nonzero
        out = run_pipeline(duality_gap_pair, PipelineConfig(bound_mode=1e4))
        assert out.kind == INCONCLUSIVE
        assert 0 < out.diagnostics["value_lower"] < 1e-8
        assert "recovered pair failed independent optimality verification" in out.notes
        assert "game value positive; no pair of strongly optimal solutions exists" in out.notes
        assert any(s.startswith("certificate recovery failed") for s in out.notes)

    def test_structure_note_reads_u_against_the_bracket(self, monkeypatch, unbounded_pair, game):
        # u = v means lower <= u <= upper when only the bracket is known; here
        # u lies inside the bracket but about 5e-3 from its midpoint
        u = game.s1.u
        out = self._run(monkeypatch, unbounded_pair, game, u - 1e-4, u + 1e-2)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert not any("unbounded-regime structure" in s for s in out.notes)
        out = self._run(monkeypatch, unbounded_pair, game, u + 1e-3, u + 1e-2)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert any("unbounded-regime structure" in s for s in out.notes)


def _with_game_p1(pair, config):
    """run_pipeline's outcome and the result of its player-1 game solve."""
    out, solves = solve_digest.solves_of(pair, lambda: run_pipeline(pair, config))
    return out, solves["game-p1"]


class TestEarlyStop:
    """Player 1's game solve ends at the first iterate whose strategy the
    certificate branch reports, with zero margin on the direction's constraints."""

    def test_certificate_at_fixed_M(self):
        # runs 99 iterations to the precision limit without the stop test
        out, res = _with_game_p1(random_unbounded(10, 10, 2), PipelineConfig(bound_mode=10.0))
        assert res.status == STOPPED_EARLY and res.iterations <= 15
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert out.verification["primal"]["min_constraint_value"] >= 0
        assert out.diagnostics["value_lower"] > 0.5 / (10.0 + 1.0)
        assert not any("unbounded-regime structure" in s for s in out.notes)

    def test_certificate_verifies_from_its_report_near_the_full_value(self, tmp_path, capsys):
        # player 2 stops at the verification tolerance after player 1's early
        # stop; the report still verifies, and its value is the full game's
        pair, config = random_unbounded(10, 10, 2), PipelineConfig(bound_mode=10.0)
        out = run_pipeline(pair, config)
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        problem, report = tmp_path / "pair.json", tmp_path / "pair.report.json"
        save_problem(problem, pair)
        report.write_text(json.dumps(report_to_dict(out)))
        assert cli.main(["verify", str(problem), str(report)]) == 0
        assert capsys.readouterr().out.startswith("PASS (Farkas certificate, ")
        full = solve_game(pair, 10.0, GAME_TOL)
        assert abs(json.loads(report.read_text())["game_value"] - full.value) <= 1e-5

    def test_accepted_strategy_is_not_worked_out_again(self, monkeypatch):
        # the stop test reaches lambda_min(K(s1)) and the checks once here;
        # solve_game and the certificate branch reuse what it computed
        calls = []

        def counted(name, f):
            def wrapper(*args):
                calls.append(name)
                return f(*args)

            return wrapper

        for module, name in [(sdgames.game, "best_response_value_p2"), (reduction, "recover_certificate")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        out = run_pipeline(random_unbounded(10, 10, 2), PipelineConfig(bound_mode=10.0))
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert sorted(calls) == ["best_response_value_p2", "recover_certificate"]

    def test_early_stopped_certificate_skips_the_bounded_attempt(self, monkeypatch):
        calls = []

        def recover(*args, **kwargs):
            calls.append(args)
            return recover_optimal(*args, **kwargs)

        monkeypatch.setattr(reduction, "recover_optimal", recover)
        out, res = _with_game_p1(random_unbounded(10, 10, 2), PipelineConfig(bound_mode=10.0))
        assert res.status == STOPPED_EARLY
        assert out.kind == PRIMAL_UNBOUNDED_CERT
        assert calls == [] and "optimal" not in out.verification

    def test_both_infeasible_keeps_its_dual_direction(self, both_infeasible_pair):
        # an earlier iterate's primal candidate passes its check only by the
        # margin, and no exact primal direction exists for this pair
        out, res = _with_game_p1(both_infeasible_pair, PipelineConfig())
        assert res.status == STOPPED_EARLY
        assert out.kind == DUAL_UNBOUNDED_CERT
        assert out.verification["dual"]["ok"] and out.verification["dual"]["max_eig_combo"] <= 0

    def test_dual_direction_stops_below_the_old_threshold(self):
        # the stop test asks lambda_min(K(s1)) > 0, not > 0.5/(M+1): player 1
        # ran 121 iterations to MaxIterations here under the old threshold
        out, res = _with_game_p1(random_dual_unbounded(8, 8, 3), PipelineConfig())
        assert res.status == STOPPED_EARLY and res.iterations <= 20
        assert out.kind == DUAL_UNBOUNDED_CERT and out.verification["dual"]["ok"]
        assert out.diagnostics["game_status"] == (STOPPED_EARLY, OPTIMAL)


class TestAuxStart:
    """Player 1's game solve starts at the auxiliary point when the practical
    bound's auxiliary solution predicts a bounded pair, and cold otherwise."""

    def test_stalled_slater_pair_converges_from_the_aux_point(self):
        # player 1 ran 69 iterations to the precision limit here from a cold start
        out, res = _with_game_p1(random_slater(6, 6, 1), PipelineConfig())
        assert out.kind == STRONGLY_OPTIMAL and out.verification["optimal"]["ok"]
        assert out.diagnostics["game_start"] == "aux"
        assert res.status == OPTIMAL and res.iterations <= 10

    @pytest.mark.parametrize(
        "pair, config",
        [(random_slater(4, 4, 1), PipelineConfig(bound_mode=10.0)),
         (random_unbounded(4, 4, 1), PipelineConfig()),
         # w* / (1 + max |data|) is 5.3e-2, far above solve_aux's bounded prediction
         (random_dual_unbounded(4, 4, 2), PipelineConfig())],
        ids=["fixed-M", "unbounded-practical", "dual-unbounded-practical"],
    )
    def test_other_pairs_start_cold(self, monkeypatch, pair, config):
        starts = []

        def recorded(problem, *args, **kwargs):
            if problem.name.endswith("-game-p1"):
                starts.append(kwargs.get("start"))
            return solve(problem, *args, **kwargs)

        monkeypatch.setattr(sdgames.game, "solve", recorded)
        out = run_pipeline(pair, config)
        assert starts == [None]
        assert out.diagnostics["game_start"] == "cold"


class TestFailedGameSolve:
    """A game solve that ends NumericalFailure leaves its best iterate:
    verification still picks the outcome, and the status is only recorded."""

    NOTE = "a game solve ended NumericalFailure; its best iterate was used"

    def _run(self, monkeypatch, pair, player):
        def failing(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            if problem.name.endswith(f"-game-{player}"):
                res.status = NUMERICAL_FAILURE
            return res

        monkeypatch.setattr(sdgames.game, "solve", failing)
        return run_pipeline(pair)

    def test_player2_failure_still_verifies_its_pair(self, monkeypatch, bounded_pair):
        out = self._run(monkeypatch, bounded_pair, "p2")
        assert out.kind == STRONGLY_OPTIMAL and out.verification["optimal"]["ok"]
        assert out.diagnostics["game_status"] == (OPTIMAL, NUMERICAL_FAILURE)
        assert out.notes == [self.NOTE]

    def test_player1_failure_still_verifies_its_direction(self, monkeypatch, unbounded_pair):
        # the failed solve's iterate is not taken as a stop-test certificate;
        # the certificate branch checks its directions again
        out = self._run(monkeypatch, unbounded_pair, "p1")
        assert out.kind == PRIMAL_UNBOUNDED_CERT and out.verification["primal"]["ok"]
        assert out.diagnostics["game_status"] == (NUMERICAL_FAILURE, OPTIMAL)
        assert out.notes[0] == self.NOTE

    def test_no_note_without_a_failure(self, bounded_pair):
        out = run_pipeline(bounded_pair)
        assert out.diagnostics["game_status"] == (OPTIMAL, OPTIMAL) and out.notes == []


@pytest.mark.parametrize(
    "name", ["bounded", "unbounded", "both_infeasible", "aux_unattained", "duality_gap"]
)
def test_value_bracket_is_ordered_on_corpus(corpus, game_tol, name):
    pair, meta = corpus[name]
    g = solve_game(pair, float(meta["recommended_M"]), game_tol)
    assert g.lower <= g.upper + 1e-12 * (1.0 + abs(g.upper))


# Dense Slater pairs on which a refined-aux probe stops short of Optimal; the
# pipeline used to fall back to M = 1 and report Inconclusive on them.
@pytest.mark.parametrize(
    "n, seed",
    [(8, 1267815975), (6, 1572147493), (6, 1636759492), (3, 831769172), (6, 1061), (8, 1027)],
)
def test_dense_slater_regressions_strongly_optimal(n, seed):
    pair = random_slater(n, n, seed)
    out = run_pipeline(pair)
    assert out.kind == STRONGLY_OPTIMAL
    assert verify_strongly_optimal(
        pair.to_float(), PrimalPoint(out.X_opt), DualPoint(tuple(out.y_opt)), 1e-6
    )


def test_slater_pair_at_huge_M_is_strongly_optimal():
    # at M = 1e10 player 2's cold solve ended NumericalFailure on this pair;
    # started from player 1's iterate it converges, and s2 recovers a pair
    # that verifies
    pair = random_slater(8, 8, 1)
    out = run_pipeline(pair, PipelineConfig(bound_mode=1e10))
    assert out.kind == STRONGLY_OPTIMAL and out.diagnostics["game_status"] == (OPTIMAL, OPTIMAL)
    assert verify_strongly_optimal(
        pair.to_float(), PrimalPoint(out.X_opt), DualPoint(tuple(out.y_opt)), 1e-6
    )


@pytest.mark.parametrize("bound_mode", ["practical", 1.0, 10.0])
def test_scaled_pair_reports_an_outcome(scaled_pair, bound_mode):
    # run_pipeline never raises on numerics; both sides of the pair are
    # strictly feasible, so no certificate may be reported
    out = run_pipeline(scaled_pair, PipelineConfig(bound_mode=bound_mode))
    assert out.kind in (STRONGLY_OPTIMAL, INCONCLUSIVE)


def test_outcome_census_fast_ladder_reports_expected_kinds():
    # the fast ladder of tests/outcome_census.py: corpus, small Khachiyan pairs
    # and every random family at n <= 4; each pair runs all four solver roles
    rows = outcome_census.census(outcome_census.instances(outcome_census.FAST_SIZES))
    assert len(rows) == 5 + 3 + 5 * len(outcome_census.FAST_SIZES) * len(outcome_census.SEEDS)
    assert [(r["name"], r["kind"]) for r in rows if r["kind"] != r["expected"]] == []
    assert all(set(r["roles"]) == set(outcome_census.ROLES) for r in rows)
    summary = outcome_census.summary(rows)
    assert not summary["lost"] and not summary["gained"]
    # brackets are certified, lower <= upper, and narrow at the practical M
    assert all(-1e-12 <= r["width"] <= 1e-4 for r in rows)
    assert set(summary["widest"]) == {r["kind"] for r in rows}


def test_outcome_census_exits_1_when_a_kind_is_lost(bounded_pair, monkeypatch, capsys):
    # corpus bounded reports StronglyOptimal; the census gates on the kind
    for expected, rc in ((STRONGLY_OPTIMAL, 0), (PRIMAL_UNBOUNDED_CERT, 1)):
        monkeypatch.setattr(outcome_census, "instances", lambda sizes: [(bounded_pair, expected)])
        assert outcome_census.main(["--fast"]) == rc
    assert "kinds lost:   PrimalUnboundedCert 1" in capsys.readouterr().out


def test_outcome_census_sweep_exits_1_when_a_run_raises(monkeypatch, capsys):
    class Ran:
        kind = INCONCLUSIVE

    def raising(pair, config):
        raise RuntimeError("a solve broke down")

    for run, rc in ((lambda pair, config: Ran, 0), (raising, 1)):
        monkeypatch.setattr(outcome_census, "run_pipeline", run)
        assert outcome_census.main(["--sweep"]) == rc
    assert "RuntimeError" in capsys.readouterr().out


def test_outcome_census_sweep_exits_1_on_a_false_strongly_optimal(monkeypatch, capsys):
    # every sweep row but the three random_slater pairs, the scaled pair and
    # corpus bounded expects another kind, so a run that always reports
    # StronglyOptimal fails the gate on those rows and one that never does
    # passes it
    class Ran:
        kind = INCONCLUSIVE

    class Optimal:
        kind = STRONGLY_OPTIMAL

    for ran, rc in ((Ran, 0), (Optimal, 1)):
        monkeypatch.setattr(outcome_census, "run_pipeline", lambda pair, config: ran)
        assert outcome_census.main(["--sweep"]) == rc
    n_other = 7 * len(outcome_census.SWEEP_MS)
    assert f"{n_other} runs reported StronglyOptimal on a pair expected otherwise" in capsys.readouterr().out


def test_runtime_does_not_import_scipy():
    """The runtime needs numpy only; importing scipy.linalg alone would take
    longer than importing all of sdgames."""
    code = (
        "import sys\n"
        "import sdgames\n"
        "from sdgames.generators import example_corpus\n"
        "pair, _ = example_corpus()[0]\n"
        "assert sdgames.run_pipeline(pair).kind == 'StronglyOptimal'\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    src = str(Path(sdgames.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


class TestEquivalenceProperties:
    def test_bounded_case_forward_and_converse(self):
        for seed in range(10):
            pair = random_slater(2 + seed % 3, 1 + seed % 3, 100 + seed)
            out = run_pipeline(pair)
            assert out.kind == STRONGLY_OPTIMAL, f"seed {seed}: {out.notes}"
            assert abs(out.game_value) <= 1e-6
            assert verify_strongly_optimal(
                pair.to_float(), PrimalPoint(out.X_opt), DualPoint(tuple(out.y_opt)), 1e-6
            )

    def test_bounded_case_t_lower_bound(self):
        for seed in range(5):
            pair = random_slater(2, 2, 200 + seed)
            M = practical_bound_M(pair).value
            g = solve_game(pair, M)
            assert g.s2.t >= 1.0 / (M + 1.0) - 1e-6

    def test_unbounded_case_structure(self):
        for seed in range(10):
            pair = random_unbounded(2 + seed % 3, 1 + seed % 2, 300 + seed)
            M = practical_bound_M(pair).value
            g = solve_game(pair, M)
            assert g.value > 1e-6, f"seed {seed}"
            assert abs(g.s1.u - g.value) <= 1e-6
            assert abs(g.s1.t) <= 1e-6
            out = run_pipeline(pair)
            assert out.kind in (PRIMAL_UNBOUNDED_CERT, DUAL_UNBOUNDED_CERT), f"seed {seed}"

    def test_value_trace_relation_unbounded_branch(self):
        for seed in range(5):
            pair = random_unbounded(2, 2, 400 + seed)
            M = practical_bound_M(pair).value
            g = solve_game(pair, M)
            assert g.value == pytest.approx(1.0 - (1.0 + M) * g.s2.t, abs=1e-6)

    def test_aux_relation_on_attained_unbounded(self):
        for seed in range(5):
            pair = random_unbounded(2, 1, 500 + seed)
            aux = solve_aux(pair)
            assert aux.attained_flag == ATTAINED
            M = practical_bound_M(pair).value
            g = solve_game(pair, M)
            implied = aux_value_relation(g.value, M)
            assert abs(aux.w - implied) <= 1e-5 * (1.0 + abs(aux.w))

    def test_lp_oracle_equivalence_diagonal(self):
        matched = 0
        for seed in range(10):
            kind = "slater" if seed % 2 == 0 else "unbounded"
            pair = random_diagonal(3, 2, 600 + seed, kind=kind)
            A_lp = np.array([np.diag(Ai.array) for Ai in pair.A])
            c_lp = np.diag(pair.C.array)
            status, val = lp_min_inequality(c_lp, A_lp, pair.b_array)
            out = run_pipeline(pair)
            if status == LP_OPTIMAL:
                assert out.kind == STRONGLY_OPTIMAL, f"seed {seed}: {out.notes}"
                got = frobenius_inner(pair.C.to_float(), out.X_opt)
                assert got == pytest.approx(val, abs=1e-6 * (1 + abs(val)))
            elif status == LP_UNBOUNDED:
                assert out.kind == PRIMAL_UNBOUNDED_CERT, f"seed {seed}: {out.notes}"
            matched += 1
        assert matched == 10
