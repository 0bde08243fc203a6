"""Modified semidefinite Dantzig game: payoff, response operators, player SDPs,
and the diagonal (LP) reduction against a matrix-game oracle."""

from __future__ import annotations

import numpy as np
import pytest

import sdgames.game
from sdgames.game import (
    Strategy1,
    Strategy2,
    best_response_value_p1,
    best_response_value_p2,
    game_sdp_player1,
    game_sdp_player2,
    normalized_strategy1,
    normalized_strategy2,
    payoff,
    response_matrix_K,
    response_matrix_L,
    solve_game,
    _player1_start,
    _player2_start,
)
from sdgames.generators import khachiyan_pair, random_diagonal, random_slater, random_unbounded
from sdgames.model import SdpPair, SymMat, frobenius_inner, min_eigenvalue
from sdgames.bounds import practical_bound_M
from sdgames.blocks import DIAG, MATRIX
from sdgames.solver import DUAL_INFEASIBLE, MIN, OPTIMAL, PRIMAL_INFEASIBLE, _Ipm, solve

from game_oracle import block_matrix, subgame_payoff
import solve_digest
from solve_digest import solves_of
from lp_oracle import matrix_game_value


def rand_s1(rng, n, m):
    G = rng.normal(size=(n, n))
    return normalized_strategy1(
        G @ G.T, rng.uniform(0, 1, m), float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
    )


def rand_s2(rng, n, m):
    G = rng.normal(size=(n, n))
    return normalized_strategy2(G @ G.T, rng.uniform(0, 1, m), float(rng.uniform(0, 1)))


def s2_zeros(X, y, t):
    return Strategy2(SymMat.from_array(np.asarray(X, float)), np.atleast_1d(y), t)


def s1_zeros(X, y, t, u):
    return Strategy1(SymMat.from_array(np.asarray(X, float)), np.atleast_1d(y), t, u)


@pytest.fixture(scope="module")
def bounded_opt_s2():
    X = np.array([[1.0, 0.0], [0.0, 0.0]]) / 3.0
    return s2_zeros(X, [1.0 / 3.0], 1.0 / 3.0)


class TestStrategies:
    def test_trace_enforced(self):
        with pytest.raises(ValueError, match="unit trace"):
            s2_zeros(np.eye(2), [0.0], 0.0)

    def test_nonnegativity_enforced(self):
        with pytest.raises(ValueError):
            s2_zeros(np.zeros((2, 2)), [1.5], -0.5)

    def test_strategy1_validation(self):
        with pytest.raises(ValueError, match="unit trace"):
            s1_zeros(np.eye(2), [0.0], 0.0, 0.5)
        with pytest.raises(ValueError):
            s1_zeros(np.diag([0.5, 0.5]), [0.5], 0.5, -0.5)
        with pytest.raises(ValueError, match="psd"):
            s1_zeros(np.array([[0.5, 0.6], [0.6, 0.1]]), [0.2], 0.1, 0.1)

    def test_block_matrix_layout(self, bounded_opt_s2):
        B = block_matrix(bounded_opt_s2)
        assert B.dim == 4
        assert B.entry(0, 0) == pytest.approx(1.0 / 3.0)
        assert B.entry(2, 2) == pytest.approx(1.0 / 3.0)
        assert B.entry(3, 3) == pytest.approx(1.0 / 3.0)


class TestPayoff:
    def test_bounded_optimal_s2_caps_at_zero(self, bounded_pair, bounded_opt_s2):
        rng = np.random.default_rng(2)
        for _ in range(50):
            s1 = rand_s1(rng, 2, 1)
            assert payoff(bounded_pair, 3.0, s1, bounded_opt_s2) <= 1e-12
        embed = s1_zeros(bounded_opt_s2.X.array, bounded_opt_s2.y, bounded_opt_s2.t, 0.0)
        assert payoff(bounded_pair, 3.0, embed, bounded_opt_s2) == pytest.approx(0.0, abs=1e-15)

    def test_pure_u_row(self, bounded_pair):
        rng = np.random.default_rng(3)
        s1 = s1_zeros(np.zeros((2, 2)), [0.0], 0.0, 1.0)
        for _ in range(20):
            s2 = rand_s2(rng, 2, 1)
            expect = float(np.trace(s2.X.array) + np.sum(s2.y) - s2.t * 3.0)
            assert payoff(bounded_pair, 3.0, s1, s2) == pytest.approx(expect, abs=1e-14)

    def test_both_infeasible_value_point(self, both_infeasible_pair):
        s1 = s1_zeros(np.zeros((2, 2)), [2.0 / 3.0], 0.0, 1.0 / 3.0)
        s2 = s2_zeros(np.zeros((2, 2)), [2.0 / 3.0], 1.0 / 3.0)
        assert payoff(both_infeasible_pair, 1.0, s1, s2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_bilinear_in_first_argument(self, bounded_pair):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b2 = rand_s1(rng, 2, 1), rand_s1(rng, 2, 1)
            s2 = rand_s2(rng, 2, 1)
            alpha = float(rng.uniform(0, 1))
            mix = Strategy1(
                SymMat.from_array(alpha * a.X.array + (1 - alpha) * b2.X.array),
                alpha * a.y + (1 - alpha) * b2.y,
                alpha * a.t + (1 - alpha) * b2.t,
                alpha * a.u + (1 - alpha) * b2.u,
            )
            lhs = payoff(bounded_pair, 3.0, mix, s2)
            rhs = alpha * payoff(bounded_pair, 3.0, a, s2) + (1 - alpha) * payoff(
                bounded_pair, 3.0, b2, s2
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_payoff_decreasing_in_M(self, bounded_pair):
        s1 = s1_zeros(np.diag([0.25, 0.25]), [0.125], 0.125, 0.25)
        s2 = s2_zeros(np.diag([0.25, 0.25]), [0.25], 0.25)
        p1 = payoff(bounded_pair, 2.0, s1, s2)
        p2 = payoff(bounded_pair, 4.0, s1, s2)
        assert p2 - p1 == pytest.approx(-s1.u * s2.t * 2.0, abs=1e-15)


class TestResponseOperators:
    def test_K_for_pure_u(self, bounded_pair):
        s1 = s1_zeros(np.zeros((2, 2)), [0.0], 0.0, 1.0)
        K = response_matrix_K(bounded_pair, 3.0, s1).array
        assert np.allclose(K, np.diag([1.0, 1.0, 1.0, -3.0]), atol=1e-15)

    def test_K_at_bounded_embedding_has_zero_min_eig(self, bounded_pair, bounded_opt_s2):
        embed = s1_zeros(bounded_opt_s2.X.array, bounded_opt_s2.y, bounded_opt_s2.t, 0.0)
        K = response_matrix_K(bounded_pair, 3.0, embed)
        assert min_eigenvalue(K) == pytest.approx(0.0, abs=1e-12)

    def test_L_for_pure_t(self, bounded_pair):
        s2 = s2_zeros(np.zeros((2, 2)), [0.0], 1.0)
        L = response_matrix_L(bounded_pair, 3.0, s2).array
        expect = np.zeros((5, 5))
        expect[:2, :2] = -bounded_pair.C.array
        expect[2, 2] = 1.0
        expect[3, 3] = 0.0
        expect[4, 4] = -3.0
        assert np.allclose(L, expect, atol=1e-15)

    def test_L_last_block_is_value_at_optimum(self, both_infeasible_pair):
        s2 = s2_zeros(np.zeros((2, 2)), [2.0 / 3.0], 1.0 / 3.0)
        L = response_matrix_L(both_infeasible_pair, 1.0, s2).array
        assert L[-1, -1] == pytest.approx(1.0 / 3.0, abs=1e-15)

    @pytest.mark.parametrize("make_pair", [
        pytest.param(lambda request: request.getfixturevalue("bounded_pair"), id="bounded"),
        pytest.param(lambda request: random_slater(4, 3, 1), id="random_slater-4-3-1"),
        pytest.param(lambda request: khachiyan_pair(2, 2), id="khachiyan-2-2"),
    ])
    def test_operator_consistency_random(self, make_pair, request):
        pair = make_pair(request)
        rng = np.random.default_rng(11)
        for _ in range(100):
            s1, s2 = rand_s1(rng, pair.n, pair.m), rand_s2(rng, pair.n, pair.m)
            p = payoff(pair, 3.0, s1, s2)
            K = response_matrix_K(pair, 3.0, s1)
            L = response_matrix_L(pair, 3.0, s2)
            assert frobenius_inner(K, block_matrix(s2)) == pytest.approx(p, abs=1e-12)
            assert frobenius_inner(block_matrix(s1), L) == pytest.approx(p, abs=1e-12)


class TestBestResponses:
    def test_pure_u_scalar_instance(self):
        pair = SdpPair(C=SymMat([[1.0]]), A=(SymMat([[1.0]]),), b=(1.0,))
        s1 = Strategy1(SymMat([[0.0]]), np.array([0.0]), 0.0, 1.0)
        assert best_response_value_p2(pair, 1.0, s1) == pytest.approx(-1.0, abs=1e-14)

    def test_both_infeasible_optimal_s1(self, both_infeasible_pair):
        s1 = s1_zeros(np.zeros((2, 2)), [2.0 / 3.0], 0.0, 1.0 / 3.0)
        assert best_response_value_p2(both_infeasible_pair, 1.0, s1) == pytest.approx(
            1.0 / 3.0, abs=1e-14
        )

    def test_bounded_optimal_s2(self, bounded_pair, bounded_opt_s2):
        assert best_response_value_p1(bounded_pair, 3.0, bounded_opt_s2) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_pure_t_response_value(self, bounded_pair):
        s2 = s2_zeros(np.zeros((2, 2)), [0.0], 1.0)
        lam = best_response_value_p1(bounded_pair, 3.0, s2)
        assert lam == pytest.approx(1.0, abs=1e-14)  # max(lambda_max(-C), b_1, 0, -M)

    def test_best_response_bounds_random(self, bounded_pair):
        rng = np.random.default_rng(13)
        s1 = rand_s1(rng, 2, 1)
        s2 = rand_s2(rng, 2, 1)
        floor = best_response_value_p2(bounded_pair, 3.0, s1)
        ceil = best_response_value_p1(bounded_pair, 3.0, s2)
        for _ in range(100):
            o2 = rand_s2(rng, 2, 1)
            assert payoff(bounded_pair, 3.0, s1, o2) >= floor - 1e-12
            o1 = rand_s1(rng, 2, 1)
            assert payoff(bounded_pair, 3.0, o1, s2) <= ceil + 1e-12


class TestSubgame:
    def test_zero_diagonal(self, bounded_pair):
        rng = np.random.default_rng(17)
        for _ in range(100):
            z = rand_s2(rng, 2, 1)
            assert subgame_payoff(bounded_pair, z, z) == pytest.approx(0.0, abs=1e-12)

    def test_antisymmetry(self, bounded_pair):
        rng = np.random.default_rng(19)
        for _ in range(100):
            z1, z2 = rand_s2(rng, 2, 1), rand_s2(rng, 2, 1)
            assert subgame_payoff(bounded_pair, z1, z2) == pytest.approx(
                -subgame_payoff(bounded_pair, z2, z1), abs=1e-12
            )

    def test_bounded_optimum_dominates(self, bounded_pair, bounded_opt_s2):
        rng = np.random.default_rng(23)
        for _ in range(100):
            z = rand_s2(rng, 2, 1)
            assert subgame_payoff(bounded_pair, bounded_opt_s2, z) >= -1e-12


class TestGameSdps:
    def test_bounded_value_zero(self, bounded_pair, game_tol):
        r1 = solve(game_sdp_player1(bounded_pair.to_float(), 3.0), game_tol)
        r2 = solve(game_sdp_player2(bounded_pair.to_float(), 3.0), game_tol)
        assert abs(r1.value) <= 1e-7
        assert abs(r2.value) <= 1e-7

    def test_both_infeasible_value_third(self, both_infeasible_pair, game_tol):
        r1 = solve(game_sdp_player1(both_infeasible_pair.to_float(), 1.0), game_tol)
        r2 = solve(game_sdp_player2(both_infeasible_pair.to_float(), 1.0), game_tol)
        assert r1.value == pytest.approx(1.0 / 3.0, abs=1e-7)
        assert r2.value == pytest.approx(1.0 / 3.0, abs=1e-7)

    def test_minimax_duality_random(self, game_tol):
        pair = random_slater(2, 2, 97)
        M = practical_bound_M(pair).value
        r1 = solve(game_sdp_player1(pair.to_float(), M), game_tol)
        r2 = solve(game_sdp_player2(pair.to_float(), M), game_tol)
        assert r1.value == pytest.approx(r2.value, abs=1e-6)
        assert r1.value >= -1e-7


def _upper_weighted(S):
    """Entries p <= q of S in row-major order, the off-diagonal ones doubled."""
    iu, ju = np.triu_indices(S.shape[0])
    return np.where(iu == ju, 1.0, 2.0) * S[iu, ju]


class TestPlayerSdpRows:
    """A x - b of each player SDP against its constraints stated through K and L.

    K and L are linear, so a strategy scaled by lam off the unit-trace face
    gives lam K(s) (lam L(s)) and a trace row of lam - 1.
    """

    @pytest.mark.parametrize("n,m,seed", [(1, 1, 5), (2, 3, 6), (4, 2, 7)])
    def test_player1_rows(self, n, m, seed):
        rng = np.random.default_rng(seed)
        pair, M, lam, v = random_slater(n, m, seed).to_float(), 2.5, 1.7, rng.normal()
        s1 = rand_s1(rng, n, m)
        G = rng.normal(size=(n, n))
        S_mat, S_diag, S_sc = G + G.T, rng.normal(size=m), rng.normal()
        prob = game_sdp_player1(pair, M)
        x = [lam * s1.X.array, lam * s1.y, [lam * s1.t], [lam * s1.u], [v], S_mat, S_diag, [S_sc]]
        K = lam * response_matrix_K(pair, M, s1).array
        expected = np.concatenate([
            _upper_weighted(K[:n, :n] - v * np.eye(n) - S_mat),
            np.diag(K)[n:n + m] - v - S_diag,
            [K[n + m, n + m] - v - S_sc],
            [lam - 1.0],
        ])
        got = prob.A @ prob.structure.flat(x) - prob.b
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())

    @pytest.mark.parametrize("n,m,seed", [(1, 1, 5), (2, 3, 6), (4, 2, 7)])
    def test_player2_rows(self, n, m, seed):
        rng = np.random.default_rng(seed)
        pair, M, lam, v = random_slater(n, m, seed).to_float(), 2.5, 0.6, rng.normal()
        s2 = rand_s2(rng, n, m)
        G = rng.normal(size=(n, n))
        S_mat, S_diag, S_1, S_2 = G + G.T, rng.normal(size=m), rng.normal(), rng.normal()
        prob = game_sdp_player2(pair, M)
        x = [lam * s2.X.array, lam * s2.y, [lam * s2.t], [v], S_mat, S_diag, [S_1], [S_2]]
        L = lam * response_matrix_L(pair, M, s2).array
        expected = np.concatenate([
            _upper_weighted(v * np.eye(n) - L[:n, :n] - S_mat),
            v - np.diag(L)[n:n + m] - S_diag,
            [v - L[n + m, n + m] - S_1],
            [v - L[n + m + 1, n + m + 1] - S_2],
            [lam - 1.0],
        ])
        got = prob.A @ prob.structure.flat(x) - prob.b
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())


class TestSolveGame:
    def test_bounded(self, bounded_pair, game_tol):
        g = solve_game(bounded_pair, 3.0, game_tol)
        assert abs(g.value) <= 1e-7
        assert g.s2.t == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert g.s2.y[0] == pytest.approx(1.0 / 3.0, abs=1e-5)
        assert g.upper - g.lower <= 1e-6

    def test_both_infeasible(self, both_infeasible_pair, game_tol):
        g = solve_game(both_infeasible_pair, 1.0, game_tol)
        assert g.value == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert g.s1.y[0] == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert g.s1.t <= 1e-7
        assert g.s1.u == pytest.approx(g.value, abs=1e-6)

    def test_unbounded_has_vanishing_t(self, unbounded_pair, game_tol):
        g = solve_game(unbounded_pair, 1.0, game_tol)
        assert g.value > 0.1
        assert g.s1.t <= 1e-7

    def test_unattained_variant_regression_value(self, unattained_pair, game_tol):
        # hand-derived equilibrium value of the modified game at M = 1
        g = solve_game(unattained_pair, 1.0, game_tol)
        assert g.value == pytest.approx((6.0 + np.sqrt(17.0)) / 19.0, abs=1e-7)

    def test_unbounded_example_known_optimal_strategy(self, unbounded_pair, game_tol):
        # the worked example's second-player strategy attains the value 1/3
        g = solve_game(unbounded_pair, 1.0, game_tol)
        Y = s2_zeros(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0, [0.0], 1.0 / 3.0)
        assert best_response_value_p1(unbounded_pair, 1.0, Y) == pytest.approx(
            g.value, abs=1e-8
        )
        assert g.s2.t == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rejects_nonpositive_bound(self, bounded_pair):
        with pytest.raises(ValueError):
            solve_game(bounded_pair, 0.0)

    def test_certifies_sees_only_strategies_past_the_threshold(self, game_tol):
        # random_unbounded(10, 10, 2) at M = 10 (threshold 1/22): player 1's
        # solve ends at the first strategy that certifies accepts
        pair, M = random_unbounded(10, 10, 2), 10.0
        seen = []

        def certifies(s1):
            seen.append(s1)
            return len(seen) == 2

        g, solves = solves_of(pair, lambda: solve_game(pair, M, game_tol, certifies))
        assert len(seen) == 2 and g.s1 is seen[-1] and g.s1.t <= 1e-6 and g.certificate is True
        for s1 in seen:
            assert s1.t <= 1e-6 and best_response_value_p2(pair, M, s1) > 0.5 / (M + 1)
        assert g.lower == best_response_value_p2(pair, M, seen[-1])
        assert g.lower <= g.upper
        # player 2 then stops at the verification tolerance: still Optimal,
        # in fewer iterations, and its upper end still bounds the value
        full, full_solves = solves_of(pair, lambda: solve_game(pair, M, game_tol))
        p2, full_p2 = solves["game-p2"], full_solves["game-p2"]
        assert p2.status == OPTIMAL and p2.iterations < full_p2.iterations
        assert full.lower <= g.upper <= full.upper + 1e-6 and abs(g.lower - full.lower) <= 1e-4

    def test_bounded_pair_s2_unchanged_by_certifies(self, game_tol):
        # player 1 never stops early at value 0, so player 2 keeps tol
        pair = random_slater(4, 4, 1)
        M = practical_bound_M(pair).value
        plain = solve_game(pair, M, game_tol)
        g = solve_game(pair, M, game_tol, lambda s1: True)
        assert g.certificate is None
        for a, b in [(g.s2.X.array, plain.s2.X.array), (g.s2.y, plain.s2.y), (g.s2.t, plain.s2.t)]:
            assert np.array_equal(a, b)

    def test_certifies_never_called_at_value_zero(self, bounded_pair, game_tol):
        def certifies(s1):
            raise AssertionError("called on a pair with game value 0")

        g = solve_game(bounded_pair, 3.0, game_tol, certifies)
        assert abs(g.value) <= 1e-7


def _infeasibilities(prob, x, y, s):
    """The solver's (pinf, dinf) of the iterate (x, y, s) of ``prob``."""
    c = (1.0 if prob.sense == MIN else -1.0) * prob.objective
    r_p = prob.b - prob.A @ prob.structure.flat(x)
    r_d = c - prob.A.T @ y - prob.structure.flat(s)
    return abs(r_p).max() / (1.0 + abs(prob.b).max()), abs(r_d).max() / (1.0 + abs(c).max())


class TestPlayer2Start:
    """Player 2's solve starts at player 1's iterate read through the duality
    of the two player SDPs."""

    def test_mapped_start_swaps_the_infeasibilities(self, bounded_pair, game_tol):
        pair = bounded_pair.to_float()
        p1, p2 = game_sdp_player1(pair, 3.0), game_sdp_player2(pair, 3.0)
        r1 = solve(p1, game_tol)
        x, y, s = start = _player2_start(r1)
        pinf, dinf = _infeasibilities(p2, *start)
        assert abs(pinf - r1.dual_infeas) <= 1e-14 and abs(dinf - r1.primal_infeas) <= 1e-14
        # the objectives swap exactly: player 2's v is minus player 1's dual
        # objective, and its dual objective is minus player 1's primal one
        assert float(p2.objective @ p2.structure.flat(x)) == -r1.dual_objective
        assert float(p2.b @ y) == -r1.primal_objective
        assert np.all(np.linalg.eigvalsh(x[0]) > 0) and np.all(np.linalg.eigvalsh(s[4]) > 0)

    @pytest.mark.parametrize("name, M", [("bounded", 3.0), ("both_infeasible", 1.0), ("aux_unattained", 1.0)])
    def test_player2_converges_at_once_from_player1(self, corpus, game_tol, name, M):
        pair = corpus[name][0]
        g, solves = solves_of(pair, lambda: solve_game(pair, M, game_tol))
        assert solves["game-p1"].status == solves["game-p2"].status == OPTIMAL
        assert solves["game-p2"].iterations <= 2
        assert g.upper - g.lower <= 1e-8

    @pytest.mark.parametrize("farkas", [PRIMAL_INFEASIBLE, DUAL_INFEASIBLE])
    def test_farkas_status_on_player1_starts_player2_cold(self, monkeypatch, bounded_pair, game_tol, farkas):
        pair = bounded_pair.to_float()
        solved = {}

        def forced(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            if problem.name.endswith("-game-p1"):
                res.status = farkas
            solved[problem.name[-2:]] = res
            return res

        monkeypatch.setattr(sdgames.game, "solve", forced)
        g = solve_game(pair, 3.0, game_tol)
        cold = solve(game_sdp_player2(pair, 3.0), game_tol)
        assert g.status == (farkas, OPTIMAL)
        assert solve_digest._solve_bytes(solved["p2"]) == solve_digest._solve_bytes(cold)


class TestPlayer1Start:
    """Player 1's solve can start at a primal-dual point of the pair, read as
    a near-equilibrium pair of strategies through the duality of the two
    player SDPs."""

    @pytest.mark.parametrize(
        "make", [lambda corpus: corpus["bounded"][0], lambda corpus: random_slater(4, 4, 2)],
        ids=["bounded", "slater-n4-m4-s2"],
    )
    def test_aux_point_gives_a_feasible_interior_iterate(self, corpus, game_tol, make):
        pair = make(corpus)
        bound = practical_bound_M(pair)
        aux = bound.derived_from
        prob = game_sdp_player1(pair.to_float(), bound.value)
        x, y, s = _player1_start(pair.to_float(), bound.value, aux.X.array, aux.y)
        ipm = _Ipm(prob, game_tol)
        xf, sf = ipm._flat(x), ipm._flat(s)
        pinf, dinf = ipm._infeasibilities(*ipm._residuals(xf, y, sf))
        assert pinf <= 1e-12 and dinf <= 1e-12
        assert y.shape == (prob.num_constraints,)
        for block, xb, sb in zip(prob.structure, x, s):
            if block.kind == MATRIX:
                np.linalg.cholesky(xb)
                np.linalg.cholesky(sb)
            elif block.kind == DIAG:
                assert np.all(np.asarray(xb) > 0) and np.all(np.asarray(sb) > 0)
        # <x, s> = v2 - v1, with v1 player 1's v and v2 minus its trace-row multiplier
        v1, v2 = x[4][0], -y[-1]
        gap = float(prob.structure.flat(x) @ prob.structure.flat(s))
        assert gap == pytest.approx(v2 - v1, rel=1e-12)

    def test_started_player1_converges_to_the_same_value(self, bounded_pair, game_tol):
        aux = practical_bound_M(bounded_pair).derived_from
        g, solves = solves_of(bounded_pair, lambda: solve_game(bounded_pair, 4.0, game_tol,
                                                              point=(aux.X.array, aux.y)))
        cold, cold_solves = solves_of(bounded_pair, lambda: solve_game(bounded_pair, 4.0, game_tol))
        assert solves["game-p1"].status == OPTIMAL
        assert solves["game-p1"].iterations < cold_solves["game-p1"].iterations
        assert abs(g.lower - cold.lower) <= 1e-9 and g.upper - g.lower <= 1e-9


class TestDiagonalReduction:
    def _restriction_matrix(self, pair, M):
        n, m = pair.n, pair.m
        rows = []
        basis1 = []
        for i in range(m):
            e = np.zeros(m)
            e[i] = 1.0
            basis1.append(s1_zeros(np.zeros((n, n)), e, 0.0, 0.0))
        for j in range(n):
            E = np.zeros((n, n))
            E[j, j] = 1.0
            basis1.append(s1_zeros(E, np.zeros(m), 0.0, 0.0))
        basis1.append(s1_zeros(np.zeros((n, n)), np.zeros(m), 1.0, 0.0))
        basis1.append(s1_zeros(np.zeros((n, n)), np.zeros(m), 0.0, 1.0))
        basis2 = []
        for i in range(m):
            e = np.zeros(m)
            e[i] = 1.0
            basis2.append(s2_zeros(np.zeros((n, n)), e, 0.0))
        for j in range(n):
            E = np.zeros((n, n))
            E[j, j] = 1.0
            basis2.append(s2_zeros(E, np.zeros(m), 0.0))
        basis2.append(s2_zeros(np.zeros((n, n)), np.zeros(m), 1.0))
        for s1 in basis1:
            rows.append([payoff(pair, M, s1, s2) for s2 in basis2])
        return np.array(rows)

    def test_restriction_reproduces_lp_game_matrix(self, game_tol):
        rng = np.random.default_rng(31)
        checked = 0
        for seed in range(10):
            kind = "slater" if seed % 2 == 0 else "unbounded"
            pair = random_diagonal(3, 2, seed, kind=kind).to_float()
            M = practical_bound_M(pair).value
            n, m = pair.n, pair.m
            Q = self._restriction_matrix(pair, M)
            A_lp = np.array([np.diag(Ai.array) for Ai in pair.A])
            c_lp = np.diag(pair.C.array)
            b_lp = pair.b_array
            top = np.block(
                [
                    [np.zeros((m, m)), -A_lp, b_lp[:, None]],
                    [A_lp.T, np.zeros((n, n)), -c_lp[:, None]],
                    [-b_lp[None, :], c_lp[None, :], np.zeros((1, 1))],
                ]
            )
            expect = np.vstack([top, np.concatenate([np.ones(m + n), [-M]])])
            assert np.allclose(Q, expect, atol=1e-12)
            # the subgame block is antisymmetric, so the subgame has value zero
            assert np.allclose(top, -top.T, atol=1e-12)
            v_lp = matrix_game_value(Q)
            g = solve_game(pair, M, game_tol)
            assert g.value == pytest.approx(v_lp, abs=1e-6)
            checked += 1
        assert checked == 10
