"""Auxiliary SDP construction, solving, and strict unbounded-direction checks."""

from __future__ import annotations

import numpy as np
import pytest

from sdgames import auxiliary
from sdgames.auxiliary import (
    ATTAINED,
    SUSPECTED_UNATTAINED,
    build_dual_aux,
    build_primal_aux,
    solve_aux,
    verify_strict_dual_unbounded,
    verify_strict_primal_unbounded,
)
from sdgames.generators import random_slater, random_unbounded
from sdgames.model import SdpPair, SymMat, max_eigenvalue
from sdgames.solver import MAX_ITERATIONS, NUMERICAL_FAILURE, OPTIMAL, SolverOptions, solve

from test_solver import bv_inner


class TestBuildPrimalAux:
    def test_bounded_block_layout(self, bounded_pair):
        prob = build_primal_aux(bounded_pair)
        assert tuple(b.size for b in prob.structure) == (2, 2, 1, 1, 1, 1)
        assert prob.num_constraints == 1 + 3 + 1

    def test_smallest_case_layout(self):
        pair = SdpPair(C=SymMat([[1]]), A=(SymMat([[1]]),), b=(1,))
        prob = build_primal_aux(pair)
        assert tuple(b.size for b in prob.structure) == (1, 1, 1, 1, 1, 1)
        assert prob.num_constraints == 3

    def test_both_infeasible_aux_optimum(self, both_infeasible_pair):
        r = solve(build_primal_aux(both_infeasible_pair), SolverOptions(tol=1e-9, max_iters=300))
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(1.0, abs=1e-7)


class TestBuildDualAux:
    def test_bounded_no_duality_gap(self, bounded_pair):
        opts = SolverOptions(tol=1e-9, max_iters=300)
        rp = solve(build_primal_aux(bounded_pair), opts)
        rd = solve(build_dual_aux(bounded_pair), opts)
        assert rp.status == OPTIMAL and rd.status == OPTIMAL
        assert rp.value == pytest.approx(rd.value, abs=1e-6)

    def test_scaled_primal_optimum_feasible_for_dual(self, bounded_pair):
        # (W, z, r) = (X*, y*, 1) scaled into the unit-trace normalization
        X = np.array([[1.0, 0.0], [0.0, 0.0]])
        y, r = 1.0, 1.0
        total = np.trace(X) + y + r
        W, z, r = X / total, y / total, r / total
        A1 = bounded_pair.A[0].array
        C = bounded_pair.C.array
        tol = 1e-12
        assert max_eigenvalue(SymMat.from_array(z * A1 - r * C, symmetrize=True)) <= tol
        assert float(np.tensordot(A1, W, 2)) - r * 1.0 >= -tol
        assert z + np.trace(W) + r <= 1.0 + tol
        # and its dual-auxiliary objective matches the attained optimum 0
        assert z * 1.0 - float(np.tensordot(C, W, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_point_feasible_value_zero(self, bounded_pair):
        prob = build_dual_aux(bounded_pair)
        split = prob.structure.split
        zero = split(np.zeros(prob.structure.dim))
        assert bv_inner(split(prob.objective), zero) == 0.0
        for a, rhs in zip(prob.A[:-1], prob.b[:-1]):
            assert bv_inner(split(a), zero) == pytest.approx(0.0, abs=1e-15)


class TestSolveAux:
    def test_bounded(self, bounded_pair):
        aux = solve_aux(bounded_pair)
        assert aux.attained_flag == ATTAINED
        assert abs(aux.w) <= 1e-6
        assert np.allclose(aux.X.array, [[1.0, 0.0], [0.0, 0.0]], atol=0.05)
        assert aux.y[0] == pytest.approx(1.0, abs=0.05)

    def test_unbounded_example(self, unbounded_pair):
        aux = solve_aux(unbounded_pair)
        assert aux.attained_flag == ATTAINED
        assert aux.w == pytest.approx(1.0, abs=1e-6)
        assert float(np.trace(aux.X.array)) == pytest.approx(0.0, abs=1e-4)

    def test_both_infeasible(self, both_infeasible_pair):
        aux = solve_aux(both_infeasible_pair)
        assert aux.attained_flag == ATTAINED
        assert aux.w == pytest.approx(1.0, abs=1e-6)
        # optimum sits at (X, y, w) = (0, 0, 1)
        assert float(np.trace(aux.X.array)) == pytest.approx(0.0, abs=1e-4)
        assert float(np.sum(aux.y)) == pytest.approx(0.0, abs=1e-4)

    def test_unattained_variant_flagged(self, unattained_pair):
        aux = solve_aux(unattained_pair)
        assert aux.attained_flag == SUSPECTED_UNATTAINED
        assert aux.w == pytest.approx(2.0, abs=1e-3)

    def test_duality_gap_flagged(self, duality_gap_pair):
        aux = solve_aux(duality_gap_pair)
        assert aux.attained_flag == SUSPECTED_UNATTAINED
        assert abs(aux.w) <= 1e-3

    @pytest.mark.parametrize("probe_status", [MAX_ITERATIONS, NUMERICAL_FAILURE])
    def test_unconverged_probe_falls_back_to_main_solve(
        self, bounded_pair, monkeypatch, probe_status
    ):
        def solve_with_failing_probe(problem, opts=None):
            res = solve(problem, opts)
            if problem.name.endswith("-refined-aux"):
                res.status = probe_status
            return res

        monkeypatch.setattr(auxiliary, "solve", solve_with_failing_probe)
        aux = solve_aux(bounded_pair)
        opts = SolverOptions(tol=1e-9, max_iters=300)
        first = solve(build_primal_aux(bounded_pair.to_float()), opts)
        assert first.status == OPTIMAL
        assert aux.attained_flag == ATTAINED
        assert np.array_equal(aux.X.array, 0.5 * (first.primal[0] + first.primal[0].T))
        assert np.array_equal(aux.y, first.primal[2])


class TestStrictPrimalUnbounded:
    def test_unbounded_example_direction(self, unbounded_pair):
        W = SymMat(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0)
        assert verify_strict_primal_unbounded(unbounded_pair, W, 1e-9)

    def test_zero_fails(self, unbounded_pair):
        assert not verify_strict_primal_unbounded(unbounded_pair, SymMat.zeros(2), 1e-9)

    def test_bounded_direction_fails(self, bounded_pair):
        W = SymMat([[1.0, 0.0], [0.0, 0.0]])
        assert not verify_strict_primal_unbounded(bounded_pair, W, 1e-9)

    def test_dimension_mismatch(self, bounded_pair):
        with pytest.raises(ValueError):
            verify_strict_primal_unbounded(bounded_pair, SymMat.zeros(3), 1e-9)


class TestStrictDualUnbounded:
    def test_semidefinite_combo_fails(self, both_infeasible_pair):
        # sum y_i A_i is negative semidefinite but not definite
        assert not verify_strict_dual_unbounded(both_infeasible_pair, [2.0 / 3.0], 1e-9)

    def test_negative_definite_combo_passes(self):
        pair = SdpPair(C=SymMat.zeros(2), A=(SymMat([[-1, 0], [0, -1]]),), b=(1,))
        assert verify_strict_dual_unbounded(pair, [1.0], 1e-9)

    def test_zero_fails(self, both_infeasible_pair):
        assert not verify_strict_dual_unbounded(both_infeasible_pair, [0.0], 1e-9)


class TestInvariants:
    def test_aux_always_strictly_feasible(self):
        # X = 0, y = 0, w = 1 + max(|b|_inf, lambda_max(-C), 1) clears every
        # inequality with strict margin
        for seed in range(20):
            pair = random_slater(3, 2, seed) if seed % 2 else random_unbounded(3, 2, seed)
            C = pair.C.array
            b = pair.b_array
            w = 1.0 + max(float(np.max(np.abs(b))), max_eigenvalue(SymMat.from_array(-C)), 1.0)
            for bi in b:
                assert w > bi
            assert np.linalg.eigvalsh(C + w * np.eye(pair.n))[0] > 0
            assert -w < 0

    def test_primal_dual_aux_agree_on_attained(self, bounded_pair, unbounded_pair):
        opts = SolverOptions(tol=1e-9, max_iters=300)
        for pair in (bounded_pair, unbounded_pair):
            aux = solve_aux(pair)
            assert aux.attained_flag == ATTAINED
            rd = solve(build_dual_aux(pair), opts)
            assert rd.value == pytest.approx(aux.w, abs=1e-6)

    def test_strict_direction_implies_attained(self, unbounded_pair):
        W = SymMat(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0)
        assert verify_strict_primal_unbounded(unbounded_pair, W, 1e-9)
        assert solve_aux(unbounded_pair).attained_flag == ATTAINED
        for seed in range(10):
            pair = random_unbounded(int(2 + seed % 3), int(1 + seed % 2), seed)
            aux = solve_aux(pair)
            assert aux.attained_flag == ATTAINED, f"seed {seed}"
