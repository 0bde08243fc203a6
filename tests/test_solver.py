"""Interior-point solver: correctness on small problems, LP reduction against a
vertex-enumeration oracle, duality and structural invariants."""

from __future__ import annotations

import numpy as np
import pytest

from sdgames.blocks import (
    MATRIX,
    BlockStructure,
    diag_block,
    free_scalar,
    matrix_block,
    matrix_equality,
)
from sdgames.solver import (
    DUAL_INFEASIBLE,
    OPTIMAL,
    PRIMAL_INFEASIBLE,
    SolverOptions,
    StandardSdp,
    _ConeScaling,
    _Ipm,
    solve,
    solve_with_certificate,
)

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
        assert st.scalar_dim == 3 * 4 // 2 + 4 + 2
        assert st.cone_dim == 3 + 4
        assert svec(st, st.identity()).size == st.scalar_dim

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
        from sdgames.bounds import khachiyan_instance

        prob, opt = khachiyan_instance(2, 2)
        r = solve(prob, SolverOptions(tol=1e-12, max_iters=400))
        assert r.value == pytest.approx(float(opt), rel=1e-3)

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


class TestCertificates:
    def test_infeasible_scalar(self):
        r = solve_with_certificate(_scalar_lp(0.0, 1.0, -1.0))
        assert r.status == PRIMAL_INFEASIBLE
        # the Farkas ray certifies: beta'y > 0 with -a'y in the cone dual
        y = float(np.atleast_1d(r.dual)[0])
        assert -1.0 * y > 0

    def test_infeasible_dual_program_of_both_infeasible_pair(self, both_infeasible_pair):
        from sdgames.direct import dual_sdp

        r = solve_with_certificate(dual_sdp(both_infeasible_pair.to_float()))
        assert r.status != OPTIMAL

    def test_feasible_problem_matches_solve(self):
        rng = np.random.default_rng(8)
        prob = _random_feasible_block_sdp(rng)
        r1 = solve(prob)
        r2 = solve_with_certificate(prob)
        assert r1.status == r2.status == OPTIMAL
        assert r1.value == r2.value

    def test_unbounded_detection(self):
        # min -x s.t. 0*x = 0, x >= 0 is unbounded below
        st = BlockStructure([diag_block(1)])
        prob = _sdp(st, [np.array([-1.0])], [([np.array([0.0])], 0.0)])
        r = solve(prob)
        assert r.status == DUAL_INFEASIBLE


class TestPresolve:
    def test_dependent_rows_removed_with_warning(self):
        st = BlockStructure([diag_block(2)])
        rows = [
            ([np.array([1.0, 1.0])], 2.0),
            ([np.array([2.0, 2.0])], 4.0),
            ([np.array([1.0, -1.0])], 0.0),
        ]
        prob = _sdp(st, [np.array([1.0, 1.0])], rows)
        r = solve(prob)
        assert r.status == OPTIMAL
        assert any("dependent" in w for w in r.warnings)
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


def _reference_presolve(problem):
    """One-vector-at-a-time Gram-Schmidt on svec rows."""
    rows_vec = np.array([svec(problem.structure, problem.structure.split(a)) for a in problem.A])
    beta = problem.b
    keep, basis, dropped = [], [], []
    for j in range(rows_vec.shape[0]):
        v = rows_vec[j].copy()
        for _ in range(2):
            for q in basis:
                v -= (q @ v) * q
        nv = np.linalg.norm(v)
        if nv > 1e-10 * (1.0 + np.linalg.norm(rows_vec[j])):
            basis.append(v / nv)
            keep.append(j)
        else:
            dropped.append(j)
    inconsistent = False
    for j in dropped:
        coeff, *_ = np.linalg.lstsq(rows_vec[keep].T, rows_vec[j], rcond=None)
        if abs(beta[j] - coeff @ beta[keep]) > 1e-8 * (1.0 + np.abs(beta).max()):
            inconsistent = True
    return keep, dropped, inconsistent


class TestConstraintOperator:
    def test_apply_A_matches_row_loop(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, SolverOptions())
            kept = [prob.structure.split(prob.A[j]) for j in ipm.kept_rows]
            for symmetric in (True, False):
                x = _random_point(rng, prob.structure, symmetric)
                ref = np.array([bv_inner(list(a), x) for a in kept])
                assert np.allclose(ipm.A @ ipm._flat(x), ref, rtol=1e-13, atol=1e-12)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            prob = _random_mixed_sdp(rng)
            ipm = _Ipm(prob, SolverOptions())
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
            ipm = _Ipm(prob, SolverOptions())
            x = _random_point(rng, prob.structure)
            s = _random_point(rng, prob.structure)
            kept = [prob.structure.split(prob.A[j]) for j in ipm.kept_rows]
            ref = np.zeros((ipm.p, ipm.p))
            for i, b in enumerate(prob.structure):
                a = np.array([row[i] for row in kept])
                if b.kind == "matrix":
                    W = _ConeScaling(x[i], s[i]).W
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
            ipm = _Ipm(_sdp(st, st.split(np.zeros(st.dim)), rows), SolverOptions())
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
            ipm = _Ipm(prob, SolverOptions())
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

    @pytest.mark.parametrize("consistent", [True, False])
    def test_presolve_matches_gram_schmidt(self, consistent):
        rng = np.random.default_rng(109)
        for _ in range(5):
            prob = _random_mixed_sdp(rng, consistent=consistent)
            ipm = _Ipm(prob, SolverOptions())
            keep, dropped, inconsistent = _reference_presolve(prob)
            assert ipm.kept_rows == keep
            assert ipm.dropped_rows == dropped
            assert len(dropped) == 3
            assert ipm.inconsistent == inconsistent == (not consistent)
            assert ipm.p == len(keep)
            assert np.array_equal(ipm.beta, prob.b[keep])


class TestInvariants:
    def test_weak_duality_in_debug_mode(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            prob = _random_feasible_block_sdp(rng)
            r = solve(prob, SolverOptions(debug=True))
            assert r.status == OPTIMAL

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

    def test_initial_centrality_scales_start_only(self):
        rng = np.random.default_rng(71)
        prob = _random_feasible_block_sdp(rng)
        r1 = solve(prob, SolverOptions())
        r2 = solve(prob, SolverOptions(initial_centrality=5.0))
        assert r1.status == r2.status == OPTIMAL
        assert r1.value == pytest.approx(r2.value, abs=1e-7)

    def test_reported_solution_feasibility(self):
        rng = np.random.default_rng(61)
        prob = _random_feasible_block_sdp(rng)
        r = solve(prob)
        for (a, rhs) in zip(prob.A, prob.b):
            assert bv_inner(prob.structure.split(a), r.primal) == pytest.approx(rhs, abs=1e-7 * (1 + abs(rhs)))
        assert np.linalg.eigvalsh(r.primal[0])[0] >= -1e-9
        assert np.min(r.primal[1]) >= -1e-9
