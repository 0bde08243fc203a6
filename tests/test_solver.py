"""Interior-point solver: correctness on small problems, LP reduction against a
vertex-enumeration oracle, duality and structural invariants."""

from __future__ import annotations

import numpy as np
import pytest

from sdgames import direct, solver
from sdgames.auxiliary import build_primal_aux, build_refined_aux, solve_aux
from sdgames.blocks import (
    MATRIX,
    BlockStructure,
    diag_block,
    free_scalar,
    matrix_block,
    matrix_equality,
    upper_triangle,
)
from sdgames.game import game_sdp_player1, game_sdp_player2, solve_game
from sdgames.generators import (
    example_corpus,
    khachiyan_pair,
    random_dual_unbounded,
    random_slater,
    random_unbounded,
)
from sdgames.reduction import run_pipeline
from sdgames.solver import (
    DUAL_INFEASIBLE,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    STOPPED_EARLY,
    StandardSdp,
    _ConeScaling,
    _Ipm,
    _chol,
    _step_to_boundary,
    solve,
)

import solve_digest
import weak_duality_oracle
from lp_oracle import OPTIMAL as LP_OPTIMAL
from lp_oracle import lp_min_standard


def _sdp(st, obj, rows, **kw):
    """StandardSdp from an objective block list and (block list, rhs) rows."""
    return StandardSdp(st, st.flat(obj), [st.flat(a) for a, _ in rows], [r for _, r in rows], **kw)


def _scalar_lp(c, a, rhs, sense="min"):
    st = BlockStructure([diag_block(1)])
    return _sdp(st, [np.array([c])], [([np.array([a])], rhs)], sense=sense)


def _random_feasible_block_sdp(rng, n=3, d=2, m=4):
    """Strictly feasible primal/dual data built around interior points."""
    st = BlockStructure([matrix_block(n), diag_block(d)])
    G = rng.normal(size=(n, n))
    X0 = G @ G.T + 0.5 * np.eye(n)
    x0d = rng.uniform(0.5, 1.5, size=d)
    rows = []
    for _ in range(m):
        Ak = rng.normal(size=(n, n))
        Ak = 0.5 * (Ak + Ak.T)
        ak = rng.normal(size=d)
        rows.append(([Ak, ak], float(np.tensordot(Ak, X0, 2) + ak @ x0d)))
    y0 = rng.normal(size=m)
    H = rng.normal(size=(n, n))
    S0 = H @ H.T + 0.5 * np.eye(n)
    s0d = rng.uniform(0.5, 1.5, size=d)
    Cm = sum(y0[k] * rows[k][0][0] for k in range(m)) + S0
    cd = sum(y0[k] * rows[k][0][1] for k in range(m)) + s0d
    return _sdp(st, [Cm, cd], rows)


def svec(structure: BlockStructure, v) -> np.ndarray:
    """Isometric scalarization: stacks blocks, off-diagonals scaled by sqrt(2).

    Satisfies svec(u) . svec(v) == bv_inner(u, v).
    """
    parts = []
    for b, x in zip(structure, v):
        if b.kind == MATRIX:
            iu = np.triu_indices(b.size)
            w = np.where(iu[0] == iu[1], 1.0, np.sqrt(2.0))
            parts.append(np.asarray(x)[iu] * w)
        else:
            parts.append(np.asarray(x, dtype=float))
    return np.concatenate(parts)


def bv_inner(u, v) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += float(np.vdot(a, b))
    return total


def _dual_formulation(problem: StandardSdp) -> StandardSdp:
    """min -beta'y s.t. sum_k y_k a_k + z = c, z in the cone, y free."""
    st_p = problem.structure
    blocks = [free_scalar() for _ in range(problem.num_constraints)] + list(st_p)
    st = BlockStructure(blocks)
    p = problem.num_constraints
    cons = []
    c_vec = svec(st_p, st_p.split(problem.objective))
    row_vecs = [svec(st_p, st_p.split(a)) for a in problem.A]
    dim = c_vec.size
    # one scalar equation per svec coordinate of the slack
    basis = []
    offset = 0
    for b in st_p:
        if b.kind == "matrix":
            k = b.size
            iu = np.triu_indices(k)
            for t in range(len(iu[0])):
                basis.append((offset + t,))
            offset += len(iu[0])
        else:
            for t in range(b.size):
                basis.append((offset + t,))
            offset += b.size
    for coord in range(dim):
        row = [np.zeros(1) for _ in range(p)]
        for k in range(p):
            row[k][0] = row_vecs[k][coord]
        # slack coefficient: unit svec coordinate mapped back to block entries
        unit = np.zeros(dim)
        unit[coord] = 1.0
        slack_blocks = []
        off = 0
        for b in st_p:
            if b.kind == "matrix":
                k = b.size
                iu = np.triu_indices(k)
                Mkk = np.zeros((k, k))
                seg = unit[off : off + len(iu[0])]
                for t, (i, j) in enumerate(zip(*iu)):
                    if seg[t]:
                        w = 1.0 if i == j else 1.0 / np.sqrt(2.0)
                        Mkk[i, j] = seg[t] * w
                        Mkk[j, i] = seg[t] * w
                slack_blocks.append(Mkk)
                off += len(iu[0])
            else:
                slack_blocks.append(unit[off : off + b.size].copy())
                off += b.size
        cons.append((row + slack_blocks, float(c_vec[coord])))
    obj = [np.zeros(1) for _ in range(p)] + st_p.split(np.zeros(st_p.dim))
    for k in range(p):
        obj[k][0] = -problem.b[k]
    return _sdp(st, obj, cons, sense="min")


class TestBlockStructure:
    def test_scalar_dimension_bookkeeping(self):
        st = BlockStructure([matrix_block(3), diag_block(4), free_scalar(), free_scalar()])
        scalar_dim = sum(b.size * (b.size + 1) // 2 if b.kind == MATRIX else b.size for b in st)
        assert scalar_dim == 3 * 4 // 2 + 4 + 2
        assert st.cone_dim == 3 + 4
        assert svec(st, st.identity()).size == scalar_dim

    def test_matrix_block_needs_positive_order(self):
        with pytest.raises(ValueError):
            matrix_block(0)

    @pytest.mark.parametrize(
        "c,a,rhs",
        [
            (1.0, 1.0, 1.0),  # optimal, the matrix block binds
            (2.0, -1.0, -3.0),  # optimal, the diag block binds
            (-2.0, 1.0, 2.0),  # unbounded
            (1.0, -1.0, 1.0),  # infeasible
        ],
    )
    def test_order_one_matrix_block_matches_diag_block(self, c, a, rhs):
        # min c x + y s.t. a x - y = rhs, x >= 0, y >= 0
        def lp(first):
            st = BlockStructure([first, diag_block(1)])
            shape = (1, 1) if first.kind == MATRIX else (1,)
            obj = [np.full(shape, c), np.ones(1)]
            return _sdp(st, obj, [([np.full(shape, a), -np.ones(1)], rhs)])

        r_mat = solve(lp(matrix_block(1)))
        r_diag = solve(lp(diag_block(1)))
        assert r_mat.status == r_diag.status
        if r_diag.status == OPTIMAL:
            assert r_mat.value == pytest.approx(r_diag.value, abs=1e-9)
            assert r_mat.primal[0].shape == (1, 1)


    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_view_writes_land_in_the_parent_array(self, lead):
        st = BlockStructure([diag_block(2), matrix_block(3), free_scalar(), matrix_block(1)])
        assert [(sl.start, sl.stop) for sl in st.slices] == [(0, 2), (2, 11), (11, 12), (12, 13)]
        assert st.dim == 13
        arr = np.zeros(lead + (st.dim,))
        for k in range(len(st)):
            view = st.view(arr, k)
            assert view.shape == lead + st.shapes[k]
            view[...] = 10.0 * k + np.arange(view.size).reshape(view.shape)
        for k in range(len(st)):
            cols = arr[..., st.slices[k]]
            assert np.array_equal(cols, 10.0 * k + np.arange(cols.size).reshape(cols.shape))

    def test_split_flat_round_trip(self):
        rng = np.random.default_rng(5)
        st = BlockStructure([matrix_block(2), diag_block(3), free_scalar(), matrix_block(1)])
        x = _random_point(rng, st, symmetric=False)
        assert all(np.array_equal(u, v) for u, v in zip(st.split(st.flat(x)), x))
        v = rng.normal(size=st.dim)
        assert np.array_equal(st.flat(st.split(v)), v)
        with pytest.raises(ValueError):
            st.flat(x[:-1])
        with pytest.raises(ValueError):
            st.flat([np.ravel(x[0])] + x[1:])


class TestProblemData:
    @pytest.mark.parametrize("field", ["objective", "A", "b"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_entry_rejected(self, field, bad):
        st = BlockStructure([matrix_block(2), diag_block(1)])
        data = {"objective": np.ones(st.dim), "A": np.eye(2, st.dim), "b": np.ones(2)}
        data[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"{field} has a non-finite entry"):
            StandardSdp(st, data["objective"], data["A"], data["b"])

    def test_shapes_must_conform(self):
        st = BlockStructure([matrix_block(2), diag_block(1)])
        with pytest.raises(ValueError, match="objective"):
            StandardSdp(st, np.ones(st.dim - 1), np.eye(2, st.dim), np.ones(2))
        with pytest.raises(ValueError, match="p x dim"):
            StandardSdp(st, np.ones(st.dim), np.eye(2, st.dim + 1), np.ones(2))
        with pytest.raises(ValueError, match="p x dim"):
            StandardSdp(st, np.ones(st.dim), np.eye(2, st.dim), np.ones(3))

    def test_matrix_parts_replaced_by_their_symmetric_part(self):
        rng = np.random.default_rng(3)
        st = BlockStructure([matrix_block(3), diag_block(2), matrix_block(2)])
        c, A = rng.normal(size=st.dim), rng.normal(size=(4, st.dim))
        given = (c.copy(), A.copy())
        prob = StandardSdp(st, c, A, np.ones(4))
        assert np.array_equal(c, given[0]) and np.array_equal(A, given[1])
        for v, raw in ((prob.objective, c), (prob.A, A)):
            for k in (0, 2):
                M, R = st.view(v, k), st.view(raw, k)
                assert np.array_equal(M, 0.5 * (R + R.swapaxes(-1, -2)))
                assert np.array_equal(M, M.swapaxes(-1, -2))
            assert np.array_equal(st.view(v, 1), st.view(raw, 1))
        # a symmetric block is kept bit for bit, signed zeros included
        A = prob.A.copy()
        st.view(A, 0)[0] = -0.0
        again = StandardSdp(st, prob.objective, A, prob.b)
        assert again.A.tobytes() == A.tobytes()
        assert again.objective.tobytes() == prob.objective.tobytes()

    @pytest.mark.parametrize("field", ["A", "objective"])
    def test_antisymmetric_part_solves_like_the_symmetric_part(self, field):
        # <K - K', X> = 0 for symmetric X; kept in a row or the objective, K - K'
        # would leave the dual residual c - A'y - s an antisymmetric part that no
        # symmetric s cancels
        rng = np.random.default_rng(7)
        prob = _random_feasible_block_sdp(rng)
        n = prob.structure.blocks[0].size
        data = {"objective": prob.objective.copy(), "A": prob.A.copy()}
        v = data[field]
        K = rng.normal(size=v.shape[:-1] + (n, n))
        v[..., : n * n] += (K - K.swapaxes(-1, -2)).reshape(v.shape[:-1] + (-1,))
        r = solve(StandardSdp(prob.structure, data["objective"], data["A"], prob.b))
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(solve(prob).value, abs=1e-7)


class TestSolverOptions:
    """A solve's one setting is its tolerance; the iteration cap is
    ``solver.MAX_ITERS`` for every solve."""

    @pytest.mark.parametrize("tol", [0.0, -1e-8, np.nan, np.inf, -np.inf])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            solve(_scalar_lp(1.0, 1.0, 1.0), tol)

    def test_one_cap_for_every_role(self, monkeypatch):
        # the auxiliary, game and direct solves all stop at the same cap
        monkeypatch.setattr(solver, "MAX_ITERS", 2)
        pair = random_slater(4, 4, 1)
        seen = []

        def on_solve(problem, res):
            seen.append((solve_digest.role(problem, pair), res.iterations))

        with solve_digest.recording(on_solve):
            run_pipeline(pair)
            direct.solve_both(pair)
        roles = [r for r, _ in seen]
        assert set(roles) == {"primal-aux", "refined-aux", "game-p1", "game-p2", "primal", "dual"}
        assert roles[-2:] == ["primal", "dual"]
        assert all(its <= 2 for _, its in seen), seen


class TestMatrixEquality:
    @pytest.mark.parametrize("n,sign,with_rhs", [(1, 1.0, True), (2, -1.0, True), (3, 1.0, False),
                                                 (4, -1.0, True)])
    def test_rows_state_the_weighted_entries(self, n, sign, with_rhs):
        rng = np.random.default_rng(n)
        st = BlockStructure(
            [matrix_block(n), diag_block(3), free_scalar(), matrix_block(n), diag_block(1)]
        )

        def sym():
            G = rng.normal(size=(n, n))
            return G + G.T

        terms = {1: [sym() for _ in range(3)], 2: [sym()], 4: [np.eye(n)]}
        R = sym() if with_rhs else np.zeros((n, n))
        rows, rhs = matrix_equality(st, terms, (3, sign), R if with_rhs else None)
        x = _random_point(rng, st)
        lhs = sum(v * Mj for k, Ms in terms.items() for v, Mj in zip(x[k], Ms)) + sign * x[3]
        iu, ju = np.triu_indices(n)
        assert len(rows) == len(rhs) == iu.size
        for row, beta, p, q in zip(rows, rhs, iu, ju):
            w = 1.0 if p == q else 2.0
            assert row.shape == (st.dim,)
            row = st.split(row)
            assert np.all(row[0] == 0.0)
            assert bv_inner(row, x) == pytest.approx(w * lhs[p, q], rel=1e-12, abs=1e-12)
            assert beta == pytest.approx(w * R[p, q], rel=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_upper_triangle_is_the_shared_triu_pattern(self, n):
        iu, ju, scale = upper_triangle(n)
        ref_i, ref_j = np.triu_indices(n)
        assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
        assert np.array_equal(scale, np.where(ref_i == ref_j, 1.0, 2.0))
        assert upper_triangle(n)[0] is iu
        for a in (iu, ju, scale):
            with pytest.raises(ValueError):
                a[0] = a[0]
        assert upper_triangle.cache_info().maxsize is not None


class TestExamples:
    def test_scalar_equality(self):
        r = solve(_scalar_lp(1.0, 1.0, 1.0))
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(1.0, abs=1e-8)
        assert abs(r.gap) <= 1e-8

    def test_rank_one_minimizer(self):
        st = BlockStructure([matrix_block(2)])
        E11 = np.zeros((2, 2))
        E11[0, 0] = 1.0
        prob = _sdp(st, [np.eye(2)], [([E11], 1.0)])
        r = solve(prob)
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(r.primal[0], E11, atol=1e-6)

    def test_khachiyan_2_2_value(self):
        # the chain's optimum 2^-((tau+1) 2^n - tau) at n = tau = 2
        r = solve(direct.primal_sdp(khachiyan_pair(2, 2)), 1e-12)
        assert r.value == pytest.approx(2.0**-10, rel=1e-3)

    def test_gap_consistency(self):
        r = solve(_scalar_lp(1.0, 1.0, 1.0))
        assert r.gap == pytest.approx(r.primal_objective - r.dual_objective, abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        prob = _random_feasible_block_sdp(rng)
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.value == r2.value
        assert r1.iterations == r2.iterations


class TestStopTest:
    def test_stop_ends_the_solve_with_the_accepted_iterate(self):
        prob = _random_feasible_block_sdp(np.random.default_rng(3))
        seen = []

        def stop(blocks):
            seen.append([b.copy() for b in blocks])
            return len(seen) == 4

        r = solve(prob, stop=stop)
        assert (r.status, r.iterations) == (STOPPED_EARLY, 4)
        assert r.warnings[-1] == "stopped early: the stop test accepted iteration 4"
        # the accepted iterate itself, not the best-merit one
        assert all(np.array_equal(a, b) for a, b in zip(r.primal, seen[-1]))

    def test_stop_returns_its_payload_as_the_certificate(self):
        prob = _random_feasible_block_sdp(np.random.default_rng(3))
        payload = object()
        r = solve(prob, stop=lambda blocks: payload)
        assert (r.status, r.iterations) == (STOPPED_EARLY, 1)
        assert r.certificate is payload
        assert solve(prob).certificate is None

    def test_rejecting_stop_changes_nothing(self):
        prob = _random_feasible_block_sdp(np.random.default_rng(3))
        calls = []
        plain = solve(prob)
        r = solve(prob, stop=lambda blocks: calls.append(blocks) or False)
        assert r.status == OPTIMAL and len(calls) == r.iterations - 1
        assert solve_digest._solve_bytes(r) == solve_digest._solve_bytes(plain)


class TestStart:
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_resuming_from_an_iterate_repeats_the_rest_of_the_solve(self, k):
        # the iterate of iteration k is where the cold solve stood, so the
        # solve started there takes the cold solve's remaining iterations and
        # ends at the same point bit for bit
        prob = _random_feasible_block_sdp(np.random.default_rng(3))
        cold = solve(prob)
        mid = solve(prob, stop=lambda blocks, seen=[]: seen.append(1) or len(seen) == k)
        assert mid.iterations == k
        r = solve(prob, start=(mid.primal, mid.dual, mid.dual_slack))
        assert r.status == OPTIMAL and r.iterations == cold.iterations - k + 1
        for a, b in zip([*r.primal, r.dual, *r.dual_slack], [*cold.primal, cold.dual, *cold.dual_slack]):
            assert np.array_equal(a, b)

    def test_start_at_a_converged_iterate_returns_it(self):
        prob = _random_feasible_block_sdp(np.random.default_rng(4))
        cold = solve(prob)
        r = solve(prob, start=(cold.primal, cold.dual, cold.dual_slack))
        assert (r.status, r.iterations, r.value, r.gap) == (OPTIMAL, 1, cold.value, cold.gap)
        for a, b in zip([*r.primal, r.dual, *r.dual_slack], [*cold.primal, cold.dual, *cold.dual_slack]):
            assert np.array_equal(a, b)

    def test_start_needs_one_multiplier_per_row(self):
        prob = _random_feasible_block_sdp(np.random.default_rng(4))
        cold = solve(prob)
        with pytest.raises(ValueError, match="y"):
            solve(prob, start=(cold.primal, cold.dual[:-1], cold.dual_slack))
        with pytest.raises(ValueError, match="block structure"):
            solve(prob, start=(cold.primal[:1], cold.dual, cold.dual_slack))


class TestRefinementGate:
    def test_directions_refined_only_below_the_precision_merit(self, monkeypatch):
        # per iteration, one LU solve per Newton direction while the best merit
        # is at least _PRECISION_MERIT, and one refinement solve more after it
        merits, solves = [], []
        converged, lu_solve = _Ipm._converged, np.linalg.solve

        def record_merit(ipm, pinf, dinf, pobj, dobj, compl):
            merits.append(pinf + dinf + abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)))
            solves.append(0)
            return converged(ipm, pinf, dinf, pobj, dobj, compl)

        def counted_solve(a, b):
            solves[-1] += 1
            return lu_solve(a, b)

        monkeypatch.setattr(_Ipm, "_converged", record_merit)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        r = solve(build_primal_aux(random_slater(4, 4, 1)))
        assert r.status == OPTIMAL and len(merits) == r.iterations
        best = np.minimum.accumulate(merits)
        expected = [4 if m < solver._PRECISION_MERIT else 2 for m in best[:-1]] + [0]
        assert solves == expected
        assert 2 in expected and 4 in expected


class TestCertificates:
    def test_infeasible_scalar(self):
        r = solve(_scalar_lp(0.0, 1.0, -1.0))
        assert r.status == PRIMAL_INFEASIBLE

    def test_infeasible_dual_program_of_both_infeasible_pair(self, both_infeasible_pair):
        from sdgames.direct import dual_sdp

        r = solve(dual_sdp(both_infeasible_pair.to_float()))
        assert r.status != OPTIMAL

    def test_unbounded_detection(self):
        # min -x s.t. 0*x = 0, x >= 0 is unbounded below
        st = BlockStructure([diag_block(1)])
        prob = _sdp(st, [np.array([-1.0])], [([np.array([0.0])], 0.0)])
        r = solve(prob)
        assert r.status == DUAL_INFEASIBLE


class TestPresolve:
    # the solver uses the rows as given; these tests pin how it behaves on
    # hand-built rows of deficient rank

    def test_dependent_rows_removed_with_warning(self):
        # consistent dependent rows solve to the value, one multiplier per row
        st = BlockStructure([diag_block(2)])
        rows = [
            ([np.array([1.0, 1.0])], 2.0),
            ([np.array([2.0, 2.0])], 4.0),
            ([np.array([1.0, -1.0])], 0.0),
        ]
        prob = _sdp(st, [np.array([1.0, 1.0])], rows)
        r = solve(prob)
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(2.0, abs=1e-7)
        assert r.dual.shape == (3,)

    def test_inconsistent_duplicate_is_infeasible(self):
        st = BlockStructure([diag_block(1)])
        rows = [
            ([np.array([1.0])], 1.0),
            ([np.array([1.0])], 2.0),
        ]
        prob = _sdp(st, [np.array([1.0])], rows)
        r = solve(prob)
        assert r.status == PRIMAL_INFEASIBLE

    def test_inconsistent_rows_never_solve_optimal(self):
        rng = np.random.default_rng(109)
        cases = [prob for prob, _, inconsistent in _dependent_row_cases(rng, False) if inconsistent]
        assert len(cases) == 9
        for prob in cases:
            with np.errstate(all="ignore"):
                r = solve(prob)
            assert r.status != OPTIMAL
            assert r.dual.shape == (prob.num_constraints,)

    def test_no_rows(self):
        # min tr X + 1'd over (matrix(3), diag(2)) with no constraint rows
        st = BlockStructure([matrix_block(3), diag_block(2)])
        prob = StandardSdp(st, st.flat([np.eye(3), np.ones(2)]), np.zeros((0, st.dim)), np.zeros(0))
        r = solve(prob)
        assert r.status == OPTIMAL
        assert r.value == pytest.approx(0.0, abs=1e-7)
        assert r.dual.shape == (0,)


def _built_sdps(pair):
    """Every SDP the package builds for ``pair``."""
    pf = pair.to_float()
    base = build_primal_aux(pf)
    yield base
    for cap in (-1.0, 0.0, 1e3):
        yield build_refined_aux(base, cap)
    for M in (1.0, 10.0):
        yield game_sdp_player1(pf, M)
        yield game_sdp_player2(pf, M)
    yield direct.primal_sdp(pf)
    yield direct.dual_sdp(pf)


class TestFullRowRank:
    # the solver uses the rows as built: every builder gives each row but at
    # most one a column of its own, so its rows are independent

    @pytest.mark.parametrize(
        "pair",
        [pair for pair, _ in example_corpus()]
        + [gen(n, n, seed) for gen in (random_slater, random_unbounded, random_dual_unbounded)
           for n in (2, 4) for seed in (1, 2)]
        + [khachiyan_pair(n, tau) for n, tau in [(1, 1), (2, 2), (3, 1), (3, 3)]],
        ids=lambda pair: pair.name,
    )
    def test_every_built_sdp_has_full_row_rank(self, pair):
        for prob in _built_sdps(pair):
            assert np.linalg.matrix_rank(prob.A) == prob.num_constraints, prob.name


def _random_mixed_sdp(rng, n_indep=6, n_dep=3, consistent=True):
    """Rows over matrix, diag and free blocks; the last n_dep rows are linear
    combinations of earlier ones, with a matching (or perturbed) right-hand side."""
    st = BlockStructure(
        [matrix_block(3), diag_block(2), free_scalar(), matrix_block(2), free_scalar()]
    )
    rows = []
    for _ in range(n_indep):
        a = []
        for b in st:
            if b.kind == "matrix":
                G = rng.normal(size=(b.size, b.size))
                a.append(G + G.T)
            else:
                a.append(rng.normal(size=b.size))
        rows.append((a, float(rng.normal())))
    for _ in range(n_dep):
        coef = rng.normal(size=len(rows))
        a = [sum(c * r[0][i] for c, r in zip(coef, rows)) for i in range(len(st))]
        rhs = float(sum(c * r[1] for c, r in zip(coef, rows)))
        rows.append((a, rhs if consistent else rhs + 1.0))
    order = rng.permutation(len(rows))
    obj = [np.eye(3), np.ones(2), np.zeros(1), np.eye(2), np.zeros(1)]
    return _sdp(st, obj, [rows[j] for j in order])


def _random_point(rng, st, symmetric=True):
    x = []
    for b in st:
        if b.kind == "matrix":
            G = rng.normal(size=(b.size, b.size))
            x.append(G @ G.T + np.eye(b.size) if symmetric else G)
        elif b.kind == "diag":
            x.append(rng.uniform(0.5, 2.0, size=b.size))
        else:
            x.append(rng.normal(size=1))
    return x


class TestConstraintOperator:
    def test_apply_A_matches_row_loop(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, 1e-8)
            rows = [prob.structure.split(a) for a in prob.A]
            for symmetric in (True, False):
                x = _random_point(rng, prob.structure, symmetric)
                ref = np.array([bv_inner(list(a), x) for a in rows])
                assert np.allclose(ipm.A @ ipm._flat(x), ref, rtol=1e-13, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, 1e-8)
            x = _random_point(rng, prob.structure, symmetric=False)
            y = rng.normal(size=ipm.p)
            aty = ipm._blocks(ipm.A.T @ y)
            assert [a.shape for a in aty] == list(prob.structure.shapes)
            lhs = float(y @ (ipm.A @ ipm._flat(x)))
            assert lhs == pytest.approx(bv_inner(aty, x), rel=1e-12, abs=1e-12)

    def test_schur_matches_einsum(self):
        rng = np.random.default_rng(107)
        for _ in range(5):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, 1e-8)
            x = _random_point(rng, prob.structure)
            s = _random_point(rng, prob.structure)
            rows = [prob.structure.split(a) for a in prob.A]
            ref = np.zeros((ipm.p, ipm.p))
            for i, b in enumerate(prob.structure):
                a = np.array([row[i] for row in rows])
                if b.kind == "matrix":
                    W = _ConeScaling(x[i][None], s[i][None]).W[0]
                    waw = np.einsum("pq,lqr,rs->lps", W, a, W)
                    ref += np.einsum("kpq,lpq->kl", a, waw)
                elif b.kind == "diag":
                    ref += (a * (x[i] / s[i])) @ a.T
            S = ipm._schur(ipm._scalings(ipm._flat(x), ipm._flat(s)))
            assert np.allclose(S, ref, rtol=1e-12, atol=1e-10 * np.abs(ref).max())

    def test_flat_round_trip(self):
        rng = np.random.default_rng(111)
        kinds = {"matrix": 0.0, "diag": 1.0, "free": 2.0}
        for blocks in (
            [diag_block(2), matrix_block(3), free_scalar(), diag_block(1), matrix_block(2),
             free_scalar(), diag_block(3)],
            [free_scalar(), diag_block(1), matrix_block(2)],
            [matrix_block(2), free_scalar()],
        ):
            st = BlockStructure(blocks)
            rows = [(_random_point(rng, st, symmetric=False), 1.0) for _ in range(2)]
            ipm = _Ipm(_sdp(st, st.split(np.zeros(st.dim)), rows), 1e-8)
            x = _random_point(rng, st, symmetric=False)
            back = ipm._blocks(ipm._flat(x))
            assert [a.shape for a in back] == list(st.shapes)
            assert all(np.array_equal(u, v) for u, v in zip(back, x))
            v = rng.normal(size=ipm.A.shape[1])
            assert np.array_equal(ipm._flat(ipm._blocks(v)), v)
            # flat order: matrix blocks, then the orthant, then the free scalars
            tags = ipm._flat([np.full(np.shape(b), kinds[k.kind]) for k, b in zip(st, x)])
            assert np.all(np.diff(tags) >= 0)

    def test_scaled_step_lengths_match_cholesky(self):
        def reference(x, dx):
            L = np.linalg.cholesky(x)
            Z = np.linalg.solve(L, dx)
            E = np.linalg.solve(L, Z.T).T
            emin = float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])
            return np.inf if emin >= -1e-14 else -1.0 / emin

        def ratio(v, dv):
            neg = dv < 0
            return float(np.min(-v[neg] / dv[neg])) if np.any(neg) else np.inf

        rng = np.random.default_rng(113)
        for trial in range(10):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, 1e-8)
            x = _random_point(rng, prob.structure)
            s = _random_point(rng, prob.structure)
            dx = _random_point(rng, prob.structure, symmetric=False)
            ds = _random_point(rng, prob.structure, symmetric=False)
            for i, b in enumerate(prob.structure):
                if b.kind == "matrix":
                    dx[i] = dx[i] + dx[i].T
                    ds[i] = ds[i] + ds[i].T
                    if trial == 0:  # psd directions never leave the cone
                        dx[i] = dx[i] @ dx[i].T
                        ds[i] = ds[i] @ ds[i].T
                elif b.kind == "diag":  # odd trials: only the matrix blocks bind
                    dx[i] = np.abs(dx[i]) if trial % 2 or trial == 0 else dx[i] - 3.0
                    ds[i] = np.abs(ds[i]) if trial % 2 or trial == 0 else ds[i] - 3.0
            ref_p = ref_d = np.inf
            for i, b in enumerate(prob.structure):
                if b.kind == "matrix":
                    ref_p = min(ref_p, reference(x[i], dx[i]))
                    ref_d = min(ref_d, reference(s[i], ds[i]))
                elif b.kind == "diag":
                    ref_p = min(ref_p, ratio(x[i], dx[i]))
                    ref_d = min(ref_d, ratio(s[i], ds[i]))
            xf, sf = ipm._flat(x), ipm._flat(s)
            ap, ad, _ = ipm._step_lengths(ipm._scalings(xf, sf), xf, sf, ipm._flat(dx), ipm._flat(ds))
            if trial == 0:
                assert ap == ad == ref_p == ref_d == np.inf
            else:
                assert np.isfinite(ref_p) and np.isfinite(ref_d)
                assert ap == pytest.approx(ref_p, rel=1e-9)
                assert ad == pytest.approx(ref_d, rel=1e-9)


def _scatter_split(ipm, v):
    """Reference for ``_Ipm._blocks``: scatter the flat vector v into the
    structure's column order, then split the copy into blocks."""
    u = np.empty_like(v)
    u[ipm.perm] = v
    return ipm.structure.split(u)


class TestLayout:
    @pytest.mark.parametrize(
        "pair", [pair for pair, _ in example_corpus()] + [random_slater(4, 4, 1)],
        ids=lambda pair: pair.name,
    )
    def test_blocks_are_views_equal_to_the_scatter(self, pair):
        rng = np.random.default_rng(5)
        for prob in _built_sdps(pair):
            ipm = _Ipm(prob, 1e-8)
            v = rng.normal(size=prob.structure.dim)
            got, ref = ipm._blocks(v), _scatter_split(ipm, v)
            assert [a.shape for a in got] == [a.shape for a in ref], prob.name
            assert all(np.array_equal(a, b) for a, b in zip(got, ref)), prob.name
            assert all(np.shares_memory(a, v) for a in got), prob.name

    def test_equal_structures_share_one_read_only_layout(self):
        def build():
            return BlockStructure([matrix_block(3), diag_block(2), free_scalar(), matrix_block(3)])

        st1, st2 = build(), build()
        assert st1 is not st2 and st1 == st2
        rows = [(_random_point(np.random.default_rng(3), st1), 1.0)]
        ipm1 = _Ipm(_sdp(st1, st1.split(np.ones(st1.dim)), rows), 1e-8)
        ipm2 = _Ipm(_sdp(st2, st2.split(np.zeros(st2.dim)), rows), 1e-8)
        assert ipm1.layout is ipm2.layout
        for a in (ipm1.layout.perm, ipm1.layout.tr, ipm1.layout.e):
            with pytest.raises(ValueError):
                a[0] = a[0]
        assert solver._layout.cache_info().maxsize is not None


def _dependent_row_cases(rng, consistent):
    """(problem, number of dependent rows, whether they are inconsistent)."""
    for _ in range(5):
        yield _random_mixed_sdp(rng, consistent=consistent), 3, not consistent
    shift = 0.0 if consistent else 1.0
    # more rows than columns: a 2x2 block spans 3 of its 4 columns, so of 6 rows
    # on d = 5 columns, row 4 depends on rows 0-3 and row 5 lies past d
    st = BlockStructure([matrix_block(2), diag_block(1)])
    indep = [(_random_point(rng, st), float(rng.normal())) for _ in range(4)]
    dep = []
    for c in rng.normal(size=(2, 4)):
        a = [sum(ck * r[0][i] for ck, r in zip(c, indep)) for i in range(2)]
        dep.append((a, float(sum(ck * r[1] for ck, r in zip(c, indep))) + shift))
    prob = _sdp(st, [np.eye(2), np.ones(1)], indep + dep)
    assert prob.A.shape[0] > prob.A.shape[1]
    yield prob, 2, not consistent
    # a zero row, then a duplicate of an independent row, before independent rows
    st = BlockStructure([matrix_block(3), diag_block(2), free_scalar()])
    indep = [(_random_point(rng, st, symmetric=True), float(rng.normal())) for _ in range(4)]
    zero = (st.split(np.zeros(st.dim)), shift)
    dup = (indep[0][0], indep[0][1] + shift)
    obj = [np.eye(3), np.ones(2), np.zeros(1)]
    yield _sdp(st, obj, [zero, indep[0], dup] + indep[1:]), 2, not consistent
    # no rows at all
    yield StandardSdp(st, st.flat(obj), np.zeros((0, st.dim)), np.zeros(0)), 0, False
    # sparse rows: a dependent row, then an independent one
    st = BlockStructure([diag_block(2)])
    rows = [
        ([np.array(a)], rhs)
        for a, rhs in [([1.0, 1.0], 2.0), ([2.0, 2.0], 4.0 + shift), ([1.0, -1.0], 0.0)]
    ]
    yield _sdp(st, [np.ones(2)], rows), 1, not consistent
    st = BlockStructure([diag_block(3)])
    rows = [([np.eye(3)[i]], rhs) for i, rhs in [(0, 1.0), (0, 1.0 + shift), (1, 1.0)]]
    yield _sdp(st, [np.ones(3)], rows), 1, not consistent


def _ref_chol(a):
    sym = 0.5 * (a + a.T)
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        eps = 1e-14 * max(1.0, abs(float(np.trace(sym))))
        return np.linalg.cholesky(sym + eps * np.eye(sym.shape[0]))


class _RefScaling:
    """NT scaling of one k x k matrix block: the reference for the stacked kernels."""

    def __init__(self, x, s):
        Lx = _ref_chol(x)
        Ls = _ref_chol(s)
        U, sig, Vt = np.linalg.svd(Ls.T @ Lx)
        isq = 1.0 / np.sqrt(sig)
        self.lam = sig
        self.R = Lx @ (Vt.T * isq)
        self.Rinv = (isq[:, None] * U.T) @ Ls.T
        self.W = self.R @ self.R.T

    def scaled(self, dx, ds):
        return self.Rinv @ dx @ self.Rinv.T, self.R.T @ ds @ self.R

    def combine_target(self, sigma_mu, dxt, dst):
        psi = -(0.5 * (dxt @ dst + dst @ dxt))
        np.fill_diagonal(psi, psi.diagonal() + sigma_mu)
        denom = 0.5 * (self.lam[:, None] + self.lam[None, :])
        return self.R @ (psi / denom) @ self.R.T


def _ref_min_eig_scaled(t, lam):
    isq = 1.0 / np.sqrt(lam)
    E = isq[:, None] * t * isq[None, :]
    return float(np.linalg.eigvalsh(0.5 * (E + E.T))[0])


class _RefKernels:
    """The cone kernels of one solve, one matrix block at a time."""

    def __init__(self, ipm):
        st = ipm.structure
        self.ipm = ipm
        tags = ipm._flat([np.full(shape, float(i)) for i, shape in enumerate(st.shapes)])
        self.mats = []  # (flat slice, order) per matrix block, in flat order
        for i, b in enumerate(st):
            if b.kind == MATRIX:
                idx = np.flatnonzero(tags == i)
                self.mats.append((slice(idx[0], idx[-1] + 1), b.size))
        self.mats.sort(key=lambda m: m[0].start)

    def scalings(self, x, s):
        nt = [_RefScaling(x[sl].reshape(k, k), s[sl].reshape(k, k)) for sl, k in self.mats]
        return nt, x[self.ipm.orth] / s[self.ipm.orth]

    def apply_w(self, scalings, u):
        nt, w2 = scalings
        out = np.zeros_like(u)
        for (sl, k), sc in zip(self.mats, nt):
            out[sl] = (sc.W @ u[sl].reshape(k, k) @ sc.W).ravel()
        out[self.ipm.orth] = w2 * u[self.ipm.orth]
        return out

    def schur(self, scalings):
        nt, w2 = scalings
        A, p = self.ipm.A, self.ipm.p
        A_o = A[:, self.ipm.orth]
        S = (A_o * w2) @ A_o.T
        for (sl, k), sc in zip(self.mats, nt):
            Ai = A[:, sl]
            waw = (sc.W @ Ai.reshape(p, k, k) @ sc.W).reshape(p, -1)
            S += Ai @ waw.T
        return S

    def step_lengths(self, scalings, x, s, dx, ds):
        nt, _ = scalings
        o = self.ipm.orth
        ep = float(np.min(dx[o] / x[o], initial=0.0))
        ed = float(np.min(ds[o] / s[o], initial=0.0))
        pairs = []
        for (sl, k), sc in zip(self.mats, nt):
            dxt, dst = sc.scaled(dx[sl].reshape(k, k), ds[sl].reshape(k, k))
            ep = min(ep, _ref_min_eig_scaled(dxt, sc.lam))
            ed = min(ed, _ref_min_eig_scaled(dst, sc.lam))
            pairs.append((dxt, dst))
        return _step_to_boundary(ep), _step_to_boundary(ed), pairs


def _unstack(stacked):
    """Per-block arrays, in flat order, from a list of (g, k, k) stacks."""
    return [m for stack in stacked for m in stack]


def _symmetric_direction(rng, st):
    d = _random_point(rng, st, symmetric=False)
    return [a + a.T if b.kind == MATRIX else a for a, b in zip(d, st)]


class TestStackedKernels:
    """The stacked cone kernels against the per-block reference, bit for bit."""

    @pytest.mark.parametrize(
        "blocks, stacks",
        [
            # one run of equal orders
            ([matrix_block(3), matrix_block(3), matrix_block(3), diag_block(2)], [(3, 3)]),
            # equal orders that diag and free blocks separate in the structure are
            # adjacent in the flat order
            (
                [matrix_block(2), diag_block(2), matrix_block(2), free_scalar(), matrix_block(2)],
                [(3, 2)],
            ),
            # mixed orders: only consecutive equal orders share a stack
            (
                [matrix_block(2), matrix_block(3), matrix_block(3), matrix_block(2), diag_block(1)],
                [(1, 2), (2, 3), (1, 2)],
            ),
            # 1x1 matrix blocks
            ([matrix_block(1), diag_block(1), matrix_block(1), matrix_block(2)], [(2, 1), (1, 2)]),
        ],
    )
    def test_kernels_match_per_block_reference(self, blocks, stacks):
        rng = np.random.default_rng(127)
        st = BlockStructure(blocks)
        rows = [(_symmetric_direction(rng, st), float(rng.normal())) for _ in range(5)]
        ipm = _Ipm(_sdp(st, _random_point(rng, st), rows), 1e-8)
        assert [(g, k) for _, g, k in ipm.stacks] == stacks
        ref = _RefKernels(ipm)
        for _ in range(3):
            x = ipm._flat(_random_point(rng, st))
            s = ipm._flat(_random_point(rng, st))
            dx = ipm._flat(_symmetric_direction(rng, st))
            ds = ipm._flat(_symmetric_direction(rng, st))
            u = rng.normal(size=x.size)
            for sl, g, k in ipm.stacks:
                # one Cholesky call over the x and s blocks of a stack
                both = np.concatenate([x[sl], s[sl]]).reshape(2 * g, k, k)
                assert all(np.array_equal(a, _ref_chol(b)) for a, b in zip(_chol(both), both))
            got, want = ipm._scalings(x, s), ref.scalings(x, s)
            assert np.array_equal(got[1], want[1])
            for attr in ("lam", "R", "Rinv", "W"):
                per_block = _unstack([getattr(sc, attr) for sc in got[0]])
                assert len(per_block) == len(want[0])
                assert all(np.array_equal(a, getattr(b, attr)) for a, b in zip(per_block, want[0]))
            assert np.array_equal(ipm._apply_w(got, u), ref.apply_w(want, u))
            assert np.array_equal(ipm._schur(got), ref.schur(want))
            ap, ad, scaled = ipm._step_lengths(got, x, s, dx, ds)
            ref_ap, ref_ad, ref_pairs = ref.step_lengths(want, x, s, dx, ds)
            assert (ap, ad) == (ref_ap, ref_ad)
            # one stacked product P [dX; dS] P' per stack gives both scaled sides
            for side in (0, 1):
                halves = [t[side * g : (side + 1) * g] for t, (_, g, _) in zip(scaled, ipm.stacks)]
                per_block = _unstack(halves)
                assert all(np.array_equal(a, b[side]) for a, b in zip(per_block, ref_pairs))
            targets = _unstack([sc.combine_target(0.3, t) for sc, t in zip(got[0], scaled)])
            ref_targets = [
                sc.combine_target(0.3, dxt, dst) for sc, (dxt, dst) in zip(want[0], ref_pairs)
            ]
            assert all(np.array_equal(a, b) for a, b in zip(targets, ref_targets))

    def test_marginally_indefinite_block_is_nudged_alone(self):
        rng = np.random.default_rng(131)
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        bad = Q @ np.diag([2.0, 1.0, -1e-15]) @ Q.T
        bad = 0.5 * (bad + bad.T)  # iterates are exactly symmetric
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(bad)
        good = [G @ G.T + np.eye(3) for G in rng.normal(size=(2, 3, 3))]
        x = np.stack([good[0], bad, good[1]])
        s = np.stack([G @ G.T + np.eye(3) for G in rng.normal(size=(3, 3, 3))])
        # the merged call over the 2g blocks of x and s nudges the bad block alone
        both = np.concatenate([x, s])
        L = _chol(both)
        assert np.array_equal(L[1], _ref_chol(bad))
        for i in (0, 2, 3, 4, 5):
            assert np.array_equal(L[i], np.linalg.cholesky(both[i]))
        sc = _ConeScaling(x, s)
        for i in range(3):
            ref = _RefScaling(x[i], s[i])
            for attr in ("lam", "R", "Rinv", "W"):
                assert np.array_equal(getattr(sc, attr)[i], getattr(ref, attr))


class TestInvariants:
    def test_iterates_stay_exactly_symmetric(self, bounded_pair, game_tol, monkeypatch):
        # the Cholesky factors and the x update rely on x and s being exactly
        # symmetric on every matrix block, without a symmetrization of their own
        scalings = _Ipm._scalings
        calls = []

        def checked(ipm, x, s):
            for v in (x, s):
                assert np.array_equal(v, v[ipm.tr])
            calls.append(ipm)
            return scalings(ipm, x, s)

        monkeypatch.setattr(_Ipm, "_scalings", checked)
        solve_aux(bounded_pair)
        solve_aux(random_slater(4, 4, 1))
        solve_game(random_slater(4, 4, 1), 10.0, game_tol)
        # rows given with non-symmetric matrix parts, of which StandardSdp keeps
        # the symmetric part; s is still symmetrized after each step
        rng = np.random.default_rng(7)
        prob = _random_feasible_block_sdp(rng)
        n = prob.structure.blocks[0].size
        K = rng.normal(size=(prob.num_constraints, n, n))
        A = prob.A.copy()
        A[:, : n * n] += (K - K.swapaxes(1, 2)).reshape(len(A), -1)  # <K - K', X> = 0
        solve(StandardSdp(prob.structure, prob.objective, A, prob.b))
        assert len(calls) > 50 and all(ipm.stacks for ipm in calls)

    def test_solve_digest_repeats_exactly(self):
        # the parity digest of tests/solve_digest.py is worth comparing between
        # trees only if one tree repeats it bit for bit
        first = solve_digest.digest(solve_digest.corpus_instances())
        assert set(first) == {"primal-aux", "refined-aux", "game-p1", "game-p2"}
        assert solve_digest.digest(solve_digest.corpus_instances()) == first

    def test_weak_duality_at_every_iterate(self):
        rng = np.random.default_rng(17)
        with weak_duality_oracle.checked() as count:
            for _ in range(5):
                prob = _random_feasible_block_sdp(rng)
                assert solve(prob).status == OPTIMAL
        assert count[0] > 5

    def test_weak_duality_at_every_iterate_of_the_pipeline(self, corpus):
        # every solve run_pipeline makes on the corpus, all four solver roles
        roles = set()
        with weak_duality_oracle.checked() as count:
            for pair, _ in corpus.values():
                _, solves = solve_digest.solves_of(pair, lambda: run_pipeline(pair))
                roles |= set(solves)
        assert roles == {"primal-aux", "refined-aux", "game-p1", "game-p2"}
        assert count[0] > 100

    def test_block_permutation_equivariance(self):
        rng = np.random.default_rng(29)
        prob = _random_feasible_block_sdp(rng)
        perm = [1, 0]
        st = BlockStructure([list(prob.structure)[i] for i in perm])
        split = prob.structure.split
        obj = [split(prob.objective)[i] for i in perm]
        cons = [([split(a)[i] for i in perm], rhs) for a, rhs in zip(prob.A, prob.b)]
        permuted = _sdp(st, obj, cons)
        r1 = solve(prob)
        r2 = solve(permuted)
        assert r1.value == pytest.approx(r2.value, abs=1e-10)
        for i, j in enumerate(perm):
            assert np.allclose(r1.primal[j], r2.primal[i], atol=1e-10)

    def test_diagonal_blocks_reproduce_lp(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n, m = int(rng.integers(2, 6)), int(rng.integers(1, 4))
            if m >= n:
                m = n - 1
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(0.5, 1.5, size=n)
            b = A @ x0
            lam = rng.normal(size=m)
            c = A.T @ lam + rng.uniform(0.2, 1.0, size=n)
            st = BlockStructure([diag_block(n)])
            prob = _sdp(st, [c], [([A[k]], float(b[k])) for k in range(m)])
            r = solve(prob)
            status, val = lp_min_standard(c, A, b)
            assert status == LP_OPTIMAL
            assert r.status == OPTIMAL
            assert r.value == pytest.approx(val, abs=1e-6 * (1 + abs(val)))

    def test_self_duality(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            prob = _random_feasible_block_sdp(rng, n=2, d=2, m=3)
            r1 = solve(prob)
            r2 = solve(_dual_formulation(prob))
            assert r1.status == OPTIMAL and r2.status == OPTIMAL
            assert r2.value == pytest.approx(-r1.value, abs=1e-6 * (1 + abs(r1.value)))

    def test_reported_solution_feasibility(self):
        rng = np.random.default_rng(61)
        prob = _random_feasible_block_sdp(rng)
        r = solve(prob)
        for (a, rhs) in zip(prob.A, prob.b):
            assert bv_inner(prob.structure.split(a), r.primal) == pytest.approx(rhs, abs=1e-7 * (1 + abs(rhs)))
        assert np.linalg.eigvalsh(r.primal[0])[0] >= -1e-9
        assert np.min(r.primal[1]) >= -1e-9
