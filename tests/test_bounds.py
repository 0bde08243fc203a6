"""Bitsize accounting, KKT/auxiliary dimension formulas, bound exponents, and
the Khachiyan chain's closed-form optimum."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from sdgames import direct, generators
from sdgames.bounds import (
    ARBITRARY,
    PRACTICAL,
    SolutionBoundM,
    aux_dimensions,
    bitsize_from_entries,
    ceil_lg,
    certified_bound_M,
    eta1,
    eta_bar,
    input_bitsize,
    kkt_dimensions,
    practical_bound_M,
    squared_height,
)
from sdgames.generators import khachiyan_pair
from sdgames.model import SdpPair, SymMat
from sdgames.reduction import STRONGLY_OPTIMAL, run_pipeline
from sdgames.solver import solve


def _sym_dim(n: int) -> int:
    # independent first-principles count of symmetric-matrix entries
    return sum(1 for i in range(n) for j in range(i, n))


class TestBitsize:
    def test_small_entries(self, bounded_pair):
        assert input_bitsize(bounded_pair) == 2

    def test_khachiyan_data_after_clearing(self):
        # raw chain data {B = 4, x0 = 1/2, 1}; clearing by 2 gives {8, 1, 2}
        assert bitsize_from_entries([4, Fraction(1, 2), 1]) == 4

    def test_all_zero_data(self):
        assert bitsize_from_entries([0, 0]) == 1

    def test_float_mode_rejected(self):
        pair = SdpPair(C=SymMat([[1.0]]), A=(SymMat([[1.0]]),), b=(1.0,))
        with pytest.raises(ValueError, match="float"):
            input_bitsize(pair)

    def test_ceil_lg(self):
        assert [ceil_lg(v) for v in (1, 2, 3, 4, 8, 17, 60, 105)] == [0, 1, 2, 2, 3, 5, 6, 7]


class TestDimensionFormulas:
    @pytest.mark.parametrize(
        "n,m,N,p",
        [(2, 1, 7, 8), (1, 1, 3, 3), (3, 2, 14, 17)],
    )
    def test_kkt_dimensions(self, n, m, N, p):
        dims = kkt_dimensions(n, m)
        assert (dims.N, dims.p, dims.d) == (N, p, 2)

    @pytest.mark.parametrize(
        "n,m,expected",
        [(2, 1, (8, 5, 77, 105)), (1, 1, (6, 3, 45, 60)), (2, 2, (10, 6, 116, 161))],
    )
    def test_aux_dimensions(self, n, m, expected):
        assert aux_dimensions(n, m) == expected

    def test_first_principles_recount(self):
        for n in range(1, 11):
            for m in range(1, 11):
                dims = kkt_dimensions(n, m)
                assert dims.N == 2 * _sym_dim(n) + m
                assert dims.p == m + _sym_dim(n) + n * n
                nbar, mbar, Nbar, pbar = aux_dimensions(n, m)
                assert nbar == 2 * n + 2 * m + 2
                assert mbar == m + _sym_dim(n) + 1
                assert Nbar == 2 * _sym_dim(nbar) + mbar
                assert pbar == mbar + _sym_dim(nbar) + nbar * nbar

    @pytest.mark.parametrize("tau,N,p,expected", [(2, 7, 8, 12), (1, 3, 3, 6), (10, 14, 17, 29)])
    def test_squared_height(self, tau, N, p, expected):
        assert squared_height(tau, N, p) == expected

    @pytest.mark.parametrize("N,tau,expected", [(3, 1, 83), (1, 1, 6), (7, 12, 9557)])
    def test_eta1(self, N, tau, expected):
        assert eta1(N, tau) == expected

    def test_eta_bar_exact_values(self):
        assert eta_bar(1, 1, 1) == 990 + 90 + 45 * 99 * 2**44
        assert eta_bar(2, 1, 2) == 2926 + 154 + 77 * 165 * 2**76
        assert eta_bar(1, 1, 2) > eta_bar(1, 1, 1)

    def test_eta_monotone_on_grid(self):
        for N in range(1, 6):
            for tau in range(1, 6):
                assert eta1(N + 1, tau) > eta1(N, tau)
                assert eta1(N, tau + 1) > eta1(N, tau)
        for n in range(1, 6):
            for m in range(1, 6):
                for tau in range(1, 6):
                    assert eta_bar(n + 1, m, tau) > eta_bar(n, m, tau)
                    assert eta_bar(n, m + 1, tau) > eta_bar(n, m, tau)
                    assert eta_bar(n, m, tau + 1) > eta_bar(n, m, tau)


class TestCertifiedBound:
    def test_smallest_case_exponent(self):
        pair = SdpPair(C=SymMat([[1]]), A=(SymMat([[1]]),), b=(1,))
        k = certified_bound_M(pair)
        assert type(k) is int
        assert k == eta_bar(1, 1, 1) + 2

    def test_bounded_example_exponent(self, bounded_pair):
        k = certified_bound_M(bounded_pair)
        assert type(k) is int
        assert k == eta_bar(2, 1, 2) + 3

    def test_certified_dominates_practical(self, bounded_pair, unbounded_pair):
        for pair in (bounded_pair, unbounded_pair):
            assert certified_bound_M(pair) >= math.log2(practical_bound_M(pair).value)

    def test_float_mode_rejected(self):
        pair = SdpPair(C=SymMat([[1.0]]), A=(SymMat([[1.0]]),), b=(1.0,))
        with pytest.raises(ValueError):
            certified_bound_M(pair)


class TestSolutionBoundM:
    @pytest.mark.parametrize(
        "mode, value",
        [("Certified", 10.0), ("Certified", math.inf), (PRACTICAL, 0.5), (ARBITRARY, math.nan), (ARBITRARY, math.inf)],
    )
    def test_rejects_other_modes_and_values_below_1_or_infinite(self, mode, value):
        with pytest.raises(ValueError):
            SolutionBoundM(mode=mode, value=value)


class TestPracticalBound:
    def test_bounded(self, bounded_pair):
        M = practical_bound_M(bounded_pair)
        assert M.mode == PRACTICAL
        assert M.value == 4.0
        aux = M.derived_from
        assert M.value >= float(np.trace(aux.X.array) + np.sum(aux.y)) + 1.0

    def test_unbounded_example(self, unbounded_pair):
        M = practical_bound_M(unbounded_pair)
        assert M.mode == PRACTICAL
        assert M.value == 2.0

    def test_both_infeasible(self, both_infeasible_pair):
        M = practical_bound_M(both_infeasible_pair)
        assert M.value == 2.0

    @pytest.mark.parametrize(
        "n, tau, M", [(1, 6, 67.0), (2, 3, 19.0), (2, 4, 35.0), (2, 5, 67.0), (2, 6, 129.0)]
    )
    def test_khachiyan_M_dominates_the_main_aux_point(self, n, tau, M):
        # the refined-aux probe's point undercuts every auxiliary optimum on
        # these chains; M from the main solve's point admits the strongly optimal pair
        pair = khachiyan_pair(n, tau)
        assert practical_bound_M(pair).value == M
        assert run_pipeline(pair).kind == STRONGLY_OPTIMAL

    def test_unattained_arbitrary(self, unattained_pair):
        M = practical_bound_M(unattained_pair)
        assert M.mode == ARBITRARY
        assert M.value == 1.0


def _chain_optimum(n: int, tau: int) -> Fraction:
    """The closed-form optimum 2^-((tau+1) 2^n - tau) of ``khachiyan_pair(n, tau)``."""
    return Fraction(1, 2 ** ((tau + 1) * 2**n - tau))


class TestKhachiyan:
    @pytest.mark.parametrize(
        "n,tau,expected",
        [(1, 1, Fraction(1, 8)), (2, 2, Fraction(1, 2**10)), (3, 1, Fraction(1, 2**15))],
    )
    def test_closed_form(self, n, tau, expected):
        # the completion with blocks [[x_i, x_(i-1)], [x_(i-1), B]], x_0 = 1/2
        # and x_i = x_(i-1)^2 / B, is psd and feasible and attains the closed form
        assert _chain_optimum(n, tau) == expected
        pair = khachiyan_pair(n, tau)
        B = 2**tau
        x = [Fraction(1, 2)]
        for _ in range(n):
            x.append(x[-1] ** 2 / B)
        X = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
        for i in range(1, n + 1):
            p, q = 2 * i - 2, 2 * i - 1
            X[p][p], X[p][q], X[q][p], X[q][q] = x[i], x[i - 1], x[i - 1], Fraction(B)
            assert x[i] * B - x[i - 1] ** 2 == 0

        def inner(M):
            return sum(a * v for row_a, row_x in zip(M.rows(), X) for a, v in zip(row_a, row_x))

        assert all(inner(Ai) >= bi for Ai, bi in zip(pair.A, pair.b))
        assert inner(pair.C) == expected

    @pytest.mark.parametrize("n,tau", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_solver_reproduces_closed_form(self, n, tau):
        prob = direct.primal_sdp(khachiyan_pair(n, tau))
        r = solve(prob, 1e-12)
        assert r.value == pytest.approx(float(_chain_optimum(n, tau)), rel=1e-3)

    def test_bad_arguments(self):
        for n, tau in [(0, 1), (1, 0), (generators.MAX_SIZE // 2 + 1, 1)]:
            with pytest.raises(ValueError):
                khachiyan_pair(n, tau)
