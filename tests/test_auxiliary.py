"""Auxiliary SDP construction, solving, and strict unbounded-direction checks."""

from __future__ import annotations

import numpy as np
import pytest

from sdgames import auxiliary
from sdgames.auxiliary import (
    ATTAINED,
    SUSPECTED_UNATTAINED,
    _as_refined,
    _probe_start,
    build_primal_aux,
    build_refined_aux,
    solve_aux,
)
from sdgames.bounds import ARBITRARY, practical_bound_M
from sdgames.generators import khachiyan_pair, random_dual_unbounded, random_slater, random_unbounded
from sdgames.model import (
    SdpPair,
    SymMat,
    check_dual_direction,
    check_primal_direction,
    max_eigenvalue,
)
from sdgames.solver import MAX_ITERATIONS, NUMERICAL_FAILURE, OPTIMAL, solve

from aux_oracle import build_dual_aux
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
        r = solve(build_primal_aux(both_infeasible_pair), 1e-9)
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(1.0, abs=1e-7)


class TestBuildDualAux:
    def test_bounded_no_duality_gap(self, bounded_pair):
        rp = solve(build_primal_aux(bounded_pair), 1e-9)
        rd = solve(build_dual_aux(bounded_pair), 1e-9)
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
        assert max_eigenvalue(SymMat.from_array(z * A1 - r * C)) <= tol
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

    @pytest.mark.parametrize("tau, M", [(6, 67.0), (1, 5.0)])
    def test_size_is_what_M_dominates(self, tau, M):
        # on khachiyan_pair(1, 6) the probe's point undercuts the optimal main
        # solve's in tr(X) + 1'y (54.88 against 64.01), so size is raised to
        # the main solve's; on khachiyan_pair(1, 1) it is the point's own
        bound = practical_bound_M(khachiyan_pair(1, tau))
        aux = bound.derived_from
        own = float(np.trace(aux.X.array) + np.sum(aux.y))
        if tau == 6:
            assert aux.size > own + 9
        else:
            assert aux.size == own
        assert bound.value == M

    @pytest.mark.parametrize("probe_status", [MAX_ITERATIONS, NUMERICAL_FAILURE])
    def test_unconverged_probe_falls_back_to_main_solve(
        self, bounded_pair, monkeypatch, probe_status
    ):
        def solve_with_failing_probe(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            if problem.name.endswith("-refined-aux"):
                res.status = probe_status
            return res

        aux, names = _recorded_solve_aux(monkeypatch, bounded_pair, solve_with_failing_probe)
        first = solve(build_primal_aux(bounded_pair.to_float()), 1e-9)
        assert first.status == OPTIMAL
        assert aux.attained_flag == ATTAINED
        assert np.array_equal(aux.X.array, 0.5 * (first.primal[0] + first.primal[0].T))
        assert np.array_equal(aux.y, first.primal[2])
        assert names == ["bounded-primal-aux", "bounded-refined-aux"]

    def test_stopped_main_solve_with_small_residuals_is_trusted(self, bounded_pair, monkeypatch):
        def solve_stopped_short(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            res.status = MAX_ITERATIONS if problem.name.endswith("-primal-aux") else NUMERICAL_FAILURE
            return res

        first = solve(build_primal_aux(bounded_pair.to_float()), 1e-9)
        assert abs(first.value) <= 1e-7 and max(first.primal_infeas, first.dual_infeas) <= 1e-8
        aux, names = _recorded_solve_aux(monkeypatch, bounded_pair, solve_stopped_short)
        assert names == ["bounded-primal-aux", "bounded-refined-aux"]
        assert aux.attained_flag == ATTAINED and aux.solve_status == MAX_ITERATIONS
        assert np.array_equal(aux.y, first.primal[2])

    @pytest.mark.parametrize(
        "field, value", [("primal_infeas", 1e-6), ("dual_infeas", 1e-6), ("value", 1e-3)]
    )
    def test_stopped_main_solve_needs_small_residuals(self, bounded_pair, monkeypatch, field, value):
        def solve_stopped_short(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            if problem.name.endswith("-primal-aux"):
                res.status = MAX_ITERATIONS
                setattr(res, field, value)
            else:
                res.status = NUMERICAL_FAILURE
            return res

        monkeypatch.setattr(auxiliary, "solve", solve_stopped_short)
        assert solve_aux(bounded_pair).attained_flag == SUSPECTED_UNATTAINED

    def test_failed_main_solve_plays_at_M_one(self, bounded_pair, monkeypatch):
        # a NumericalFailure main solve goes through the same residual gate
        # as any stopped one; here it fails the gate, so M = 1
        def solve_failed(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            res.status = NUMERICAL_FAILURE
            if problem.name.endswith("-primal-aux"):
                res.primal_infeas = 1e-6
            return res

        monkeypatch.setattr(auxiliary, "solve", solve_failed)
        M = practical_bound_M(bounded_pair)
        assert M.value == 1.0 and M.mode == ARBITRARY
        assert M.derived_from.attained_flag == SUSPECTED_UNATTAINED
        assert M.derived_from.solve_status == NUMERICAL_FAILURE


def _recorded_solve_aux(monkeypatch, pair, inner=solve):
    """solve_aux(pair) with every SDP solved by ``inner``, and the names of
    those SDPs in call order."""
    names = []

    def recorded(problem, *args, **kwargs):
        names.append(problem.name)
        return inner(problem, *args, **kwargs)

    monkeypatch.setattr(auxiliary, "solve", recorded)
    return solve_aux(pair), names


def _residuals(problem, x, y, s):
    """b - A x and c - A'y - s of ``problem`` at the iterate (x, y, s) given as
    blocks, and bounds on the rounding error of each of their entries."""
    flat = problem.structure.flat
    A, xf, sf = problem.A, flat(x), flat(s)
    rounding_p = 1e-12 * (np.abs(problem.b) + np.abs(A) @ np.abs(xf))
    rounding_d = 1e-12 * (np.abs(problem.objective) + np.abs(A.T) @ np.abs(y) + np.abs(sf))
    return problem.b - A @ xf, problem.objective - A.T @ y - sf, rounding_p, rounding_d


def _probe_pairs(corpus):
    """The corpus and random pairs of every kind at n = m in {2, 3, 4, 6}, seeds 1-3."""
    gens = (random_slater, random_unbounded, random_dual_unbounded)
    return [pair for pair, _ in corpus.values()] + [
        gen(n, n, s) for gen in gens for n in (2, 3, 4, 6) for s in (1, 2, 3)
    ]


class TestProbeStart:
    def test_start_is_strictly_inside_the_cone(self, corpus):
        for pair in _probe_pairs(corpus):
            first = solve(build_primal_aux(pair.to_float()), 1e-9)
            x, _, s = _probe_start(*_as_refined(first), first.value + 1e-5 * (1.0 + abs(first.value)))
            for v in (*x, *s):
                if v.ndim == 2:
                    np.linalg.cholesky(v)  # raises unless positive definite
                else:
                    assert np.all(v > 0), pair.name

    def test_unblended_start_keeps_the_main_residuals(self, corpus):
        for pair in _probe_pairs(corpus):
            base = build_primal_aux(pair.to_float())
            first = solve(base, 1e-9)
            cap = first.value + 1e-5 * (1.0 + abs(first.value))
            refined = build_refined_aux(base, cap)
            x, y, s = _as_refined(first)
            x[-1] = cap - x[4]
            r_p, r_d, err_p, err_d = _residuals(refined, x, y, s)
            main_p, main_d, _, _ = _residuals(base, first.primal, first.dual, first.dual_slack)
            d = base.structure.dim
            assert np.all(np.abs(r_d[:d] - main_d) <= err_d[:d]), pair.name
            assert r_d[d:] == 0.0
            assert np.all(np.abs(r_p[:-1] - main_p) <= err_p[:-1]), pair.name
            assert abs(r_p[-1]) <= err_p[-1]

    def test_probe_starts_choose_the_same_M_as_cold_probes(self, corpus, monkeypatch):
        # the start changes only the probe's iterate path: with the probe
        # started cold, solve_aux reports the same flag and the same M
        pairs = _probe_pairs(corpus)
        warm = [practical_bound_M(pair) for pair in pairs]

        def cold_probes(problem, *args, start=None, **kwargs):
            if problem.name.endswith("-refined-aux"):
                start = None
            return solve(problem, *args, start=start, **kwargs)

        monkeypatch.setattr(auxiliary, "solve", cold_probes)
        for pair, M in zip(pairs, warm):
            cold = practical_bound_M(pair)
            assert M.derived_from.attained_flag == cold.derived_from.attained_flag, pair.name
            assert M.value == cold.value, pair.name


class TestOneProbe:
    @pytest.mark.parametrize("n, tau, M", [(2, 3, 19.0), (3, 1, 9.0), (3, 2, 15.0), (3, 3, 26.0)])
    def test_khachiyan_pairs_make_one_probe(self, monkeypatch, n, tau, M):
        # one refined-aux solve gives these chains' flag and M
        pair = khachiyan_pair(n, tau)
        aux, names = _recorded_solve_aux(monkeypatch, pair)
        prefix = pair.name + "-"
        assert names == [prefix + "primal-aux", prefix + "refined-aux"]
        assert aux.attained_flag == ATTAINED
        bound = practical_bound_M(pair)
        assert bound.derived_from.attained_flag == ATTAINED
        assert bound.value == M

    def test_converged_probe_beyond_the_norm_cap_is_unattained(self, bounded_pair, monkeypatch):
        def solve_with_large_probe(problem, *args, **kwargs):
            res = solve(problem, *args, **kwargs)
            if problem.name.endswith("-refined-aux"):
                assert res.status == OPTIMAL
                res.primal[0] = 1e12 * res.primal[0]
            return res

        aux, names = _recorded_solve_aux(monkeypatch, bounded_pair, solve_with_large_probe)
        assert names == ["bounded-primal-aux", "bounded-refined-aux"]
        assert aux.attained_flag == SUSPECTED_UNATTAINED
        M = practical_bound_M(bounded_pair)
        assert M.value == 1.0 and M.mode == ARBITRARY
        assert M.derived_from.attained_flag == SUSPECTED_UNATTAINED


class TestStrictPrimalUnbounded:
    def test_unbounded_example_direction(self, unbounded_pair):
        W = SymMat(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0)
        assert check_primal_direction(unbounded_pair, W, 1e-9)["strict"]

    def test_zero_fails(self, unbounded_pair):
        assert not check_primal_direction(unbounded_pair, SymMat.zeros(2), 1e-9)["strict"]

    def test_bounded_direction_fails(self, bounded_pair):
        W = SymMat([[1.0, 0.0], [0.0, 0.0]])
        assert not check_primal_direction(bounded_pair, W, 1e-9)["strict"]

    def test_dimension_mismatch(self, bounded_pair):
        with pytest.raises(ValueError):
            check_primal_direction(bounded_pair, SymMat.zeros(3), 1e-9)["strict"]


class TestStrictDualUnbounded:
    def test_semidefinite_combo_fails(self, both_infeasible_pair):
        # sum y_i A_i is negative semidefinite but not definite
        assert not check_dual_direction(both_infeasible_pair, [2.0 / 3.0], 1e-9)["strict"]

    def test_negative_definite_combo_passes(self):
        pair = SdpPair(C=SymMat.zeros(2), A=(SymMat([[-1, 0], [0, -1]]),), b=(1,))
        assert check_dual_direction(pair, [1.0], 1e-9)["strict"]

    def test_zero_fails(self, both_infeasible_pair):
        assert not check_dual_direction(both_infeasible_pair, [0.0], 1e-9)["strict"]


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
        for pair in (bounded_pair, unbounded_pair):
            aux = solve_aux(pair)
            assert aux.attained_flag == ATTAINED
            rd = solve(build_dual_aux(pair), 1e-9)
            assert rd.value == pytest.approx(aux.w, abs=1e-6)

    def test_strict_direction_implies_attained(self, unbounded_pair):
        W = SymMat(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0)
        assert check_primal_direction(unbounded_pair, W, 1e-9)["strict"]
        assert solve_aux(unbounded_pair).attained_flag == ATTAINED
        for seed in range(10):
            pair = random_unbounded(int(2 + seed % 3), int(1 + seed % 2), seed)
            aux = solve_aux(pair)
            assert aux.attained_flag == ATTAINED, f"seed {seed}"
