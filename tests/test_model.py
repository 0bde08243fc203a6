"""Core data model: symmetric matrices, inner products, psd tests, and the
checks of strongly optimal pairs and unbounded directions."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdgames.model import (
    DualPoint,
    PrimalPoint,
    SdpPair,
    SymMat,
    check_dual_direction,
    check_primal_direction,
    check_strongly_optimal,
    frobenius_inner,
    is_psd,
    min_eigenvalue,
    verify_strongly_optimal,
)
from sdgames.auxiliary import solve_aux
from sdgames.generators import example_corpus, random_dual_unbounded, random_slater, random_unbounded
from sdgames.reduction import run_pipeline

import optimality_oracle


class TestSymMat:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMat([[1, 2], [3, 4]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            SymMat([[1, 2, 3], [2, 1, 0]])

    def test_exact_mode_for_integers_and_fractions(self):
        M = SymMat([[1, Fraction(1, 2)], [Fraction(1, 2), 0]])
        assert M.mode == "exact"
        assert M.entry(0, 1) == Fraction(1, 2)

    def test_float_mode(self):
        M = SymMat([[1.0, 0.5], [0.5, 0.0]])
        assert M.mode == "float"

    def test_float_entries_are_read_only(self):
        M = SymMat([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            M.array[0, 0] = 5.0

    def test_from_array_takes_the_symmetric_part(self):
        a = np.random.default_rng(3).normal(size=(4, 4))
        M = SymMat.from_array(a)
        assert np.array_equal(M.array, M.array.T)
        assert np.allclose(M.array, 0.5 * (a + a.T), rtol=0, atol=1e-15)
        with pytest.raises(ValueError, match="symmetric"):
            SymMat(a)  # the constructor stays strict

    def test_from_array_keeps_a_symmetric_array_bit_for_bit(self):
        g = np.triu(np.random.default_rng(4).normal(size=(4, 4)))
        a = g + np.triu(g, 1).T
        a[0, 1] = a[1, 0] = 5e-324  # the least subnormal survives too
        assert SymMat.from_array(a).array.tobytes() == a.tobytes()

    def test_to_float_is_one_way(self):
        M = SymMat([[1, 2], [2, 2]])
        F = M.to_float()
        assert F.mode == "float"
        assert M.mode == "exact"
        assert np.array_equal(F.array, M.array)


class TestFrobeniusInner:
    def test_identity(self):
        assert frobenius_inner(SymMat.identity(2), SymMat.identity(2)) == 2

    def test_bounded_example_objective(self):
        C = SymMat([[1, 2], [2, 2]])
        X = SymMat([[1, 0], [0, 0]])
        assert frobenius_inner(C, X) == 1

    def test_unbounded_example_strategy(self):
        C = SymMat([[0.0, -1.0], [-1.0, 0.0]])
        X = SymMat((np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0))
        assert frobenius_inner(C, X) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            frobenius_inner(SymMat.identity(2), SymMat.identity(3))

    def test_bilinear_and_symmetric_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            A, B, C = (rng.normal(size=(n, n)) for _ in range(3))
            A, B, C = (SymMat.from_array(M) for M in (A, B, C))
            alpha = float(rng.normal())
            scale = 1.0 + max(M.max_abs_entry() for M in (A, B, C)) ** 2 * n * n
            lhs = frobenius_inner(SymMat.from_array(alpha * A.array + B.array), C)
            rhs = alpha * frobenius_inner(A, C) + frobenius_inner(B, C)
            assert abs(lhs - rhs) <= 1e-12 * scale
            assert abs(frobenius_inner(A, B) - frobenius_inner(B, A)) <= 1e-12 * scale


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(SymMat.identity(3)) == pytest.approx(1.0, abs=1e-14)

    def test_off_diagonal(self):
        assert min_eigenvalue(SymMat([[0, 1], [1, 0]])) == pytest.approx(-1.0, abs=1e-14)

    def test_bounded_example_closed_form(self):
        lam = min_eigenvalue(SymMat([[1, 2], [2, 2]]))
        assert lam == pytest.approx((3 - math.sqrt(17)) / 2, abs=1e-12)

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            min_eigenvalue(SymMat([[np.inf, 0.0], [0.0, 1.0]]))

    def test_orthogonal_conjugation_preserves_spectrum(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            d = rng.normal(size=n)
            M = SymMat.from_array(Q.T @ np.diag(d) @ Q)
            assert min_eigenvalue(M) == pytest.approx(float(np.min(d)), abs=1e-10)


class TestIsPsd:
    def test_identity(self):
        assert is_psd(SymMat.identity(2), 1e-9)

    def test_indefinite(self):
        assert not is_psd(SymMat([[0, 1], [1, 0]]), 1e-9)

    def test_unbounded_example_dual_slack_infeasible(self):
        # C - y A at y = 0 for the unbounded instance: never psd
        y = 0.0
        M = SymMat([[y, -1.0 - y], [-1.0 - y, 0.0]])
        assert not is_psd(M, 1e-9)

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_psd(SymMat.identity(1), -1.0)

    def test_psd_pairing_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            G, H = rng.normal(size=(n, n)), rng.normal(size=(n, n))
            A = SymMat.from_array(G.T @ G)
            B = SymMat.from_array(H.T @ H)
            assert is_psd(A, 0.0) or min_eigenvalue(A) > -1e-12
            assert frobenius_inner(A, B) >= -1e-10


class TestResiduals:
    """The slack fields of ``check_strongly_optimal``."""

    def test_bounded_recovered_solution(self, bounded_pair):
        check = check_strongly_optimal(bounded_pair, SymMat([[1.0, 0.0], [0.0, 0.0]]), (1.0,), 1e-7)
        assert check["ok"]
        assert check["worst_linear_violation"] == 0.0
        assert check["gap"] == pytest.approx(0.0, abs=1e-15)

    def test_zero_point(self, bounded_pair):
        check = check_strongly_optimal(bounded_pair, SymMat.zeros(2), (0.0,), 1e-7)
        assert not check["ok"]
        assert check["worst_linear_violation"] == pytest.approx(1.0)
        assert check["gap"] == pytest.approx(0.0)

    def test_large_y_dual_violation(self, bounded_pair):
        check = check_strongly_optimal(bounded_pair, SymMat.zeros(2), (50.0,), 1e-7)
        assert not check["ok"]
        assert check["min_eig_slack"] < 0

    def test_negative_tol_rejected(self, bounded_pair):
        with pytest.raises(ValueError, match="nonnegative"):
            check_strongly_optimal(bounded_pair, SymMat.zeros(2), (0.0,), -1e-7)

    def test_fields_must_be_finite(self, bounded_pair):
        # SymMat refuses a non-finite X, and the dual slack a non-finite y
        with pytest.raises(ValueError, match="non-finite"):
            check_strongly_optimal(bounded_pair, SymMat.zeros(2), (np.nan,), 1e-7)


class TestVerifyStronglyOptimal:
    def test_bounded_example_passes(self, bounded_pair):
        X = PrimalPoint(SymMat([[1.0, 0.0], [0.0, 0.0]]))
        assert verify_strongly_optimal(bounded_pair, X, DualPoint((1.0,)), 1e-7)

    def test_positive_gap_fails(self, bounded_pair):
        X = PrimalPoint(SymMat([[1.0, 0.0], [0.0, 0.0]]))
        assert not verify_strongly_optimal(bounded_pair, X, DualPoint((0.0,)), 1e-7)

    def test_infeasible_point_fails(self, bounded_pair):
        X = PrimalPoint(SymMat.zeros(2))
        assert not verify_strongly_optimal(bounded_pair, X, DualPoint((0.0,)), 1e-7)

    def test_negative_gap_fails_on_duality_gap_aux_point(self, duality_gap_pair):
        # the pair has a positive duality gap, so no strongly optimal pair
        # exists; its aux point is feasible within about 4e-8 on both sides,
        # but its gap of about -0.024 lies far below -tol
        aux = solve_aux(duality_gap_pair)
        check = check_strongly_optimal(duality_gap_pair, aux.X, aux.y, 1e-6)
        assert check["min_eig_slack"] >= -1e-6 and check["worst_linear_violation"] <= 1e-6
        assert check["gap"] < -0.01
        assert not check["ok"]

    def test_psd_margins_scale_with_their_own_matrix(self, bounded_pair):
        # at the optimum max |X| = 1 and max |C - y A_1| = 2: each psd margin
        # is tol * (1 + its own max entry), 2 tol for X and 3 tol for the slack.
        # X_22 = d moves <C, X> by 2 d and leaves <A_1, X> = 1, so each point
        # below has gap <C, X> - y = 0 and only its psd margin decides
        tol = 1e-6
        X = PrimalPoint(SymMat([[1.0, 0.0], [0.0, 1.25 * tol]]))
        assert verify_strongly_optimal(bounded_pair, X, DualPoint((1.0 + 2.5 * tol,)), tol)
        X = PrimalPoint(SymMat([[1.0, 0.0], [0.0, -2.5 * tol]]))
        assert not verify_strongly_optimal(bounded_pair, X, DualPoint((1.0 - 5.0 * tol,)), tol)

    def test_monotone_in_tol(self, bounded_pair):
        rng = np.random.default_rng(7)
        X0 = SymMat([[1.0, 0.0], [0.0, 0.0]])
        for _ in range(20):
            noise = 1e-6 * rng.normal(size=(2, 2))
            X = PrimalPoint(SymMat.from_array(X0.array + noise + noise.T))
            y = DualPoint((1.0 + float(1e-6 * rng.normal()),))
            passed = [
                verify_strongly_optimal(bounded_pair, X, y, tol)
                for tol in (1e-9, 1e-7, 1e-5, 1e-3)
            ]
            # once true it stays true as tol grows
            assert all(b or not a for a, b in zip(passed, passed[1:]))


@cache
def _base_candidates() -> tuple:
    """(pair, X, y) per corpus and random pair: the reported strongly optimal
    pair, or the identity and ones where none is reported."""
    pairs = [pair for pair, _ in example_corpus()] + [
        random_slater(3, 3, 1), random_slater(4, 2, 2), random_unbounded(3, 3, 1),
        random_dual_unbounded(3, 2, 1),
    ]
    out = []
    for pair in pairs:
        res = run_pipeline(pair)
        if res.X_opt is None:
            out.append((pair, np.eye(pair.n), np.ones(pair.m)))
        else:
            out.append((pair, res.X_opt.array, res.y_opt))
    return tuple(out)


_TOLS = st.sampled_from([1e-9, 1e-6, 1e-3])
# a perturbation in units of tol: none, within a few margins, or far out
_STEPS = st.just(0.0) | st.floats(-4.0, 4.0) | st.floats(-1e3, 1e3)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 8), _TOLS, _STEPS, _STEPS, _STEPS, _STEPS)
def test_check_strongly_optimal_matches_the_reference(index, tol, sx, dx, sy, dy):
    # candidates scaled and shifted from a base point: ok and the three
    # slack numbers equal the reference's bit for bit
    pair, X0, y0 = _base_candidates()[index]
    X = SymMat.from_array((1.0 + sx * tol) * X0 + dx * tol * np.eye(pair.n))
    y = (1.0 + sy * tol) * y0 + dy * tol
    check = check_strongly_optimal(pair, X, y, tol)
    point, multipliers = PrimalPoint(X), DualPoint(tuple(y))
    ref = optimality_oracle.residuals(pair, point, multipliers)
    assert check["ok"] == optimality_oracle.verify_strongly_optimal(pair, point, multipliers, tol)
    for key in ("min_eig_slack", "worst_linear_violation", "gap"):
        assert check[key].hex() == getattr(ref, key).hex(), key


def _flags(check):
    return check["ok"], check["strict"]


class TestDirectionChecks:
    # unbounded: C = [[0, -1], [-1, 0]], A = [[-1, 1], [1, 0]], b = 1
    def test_strict_primal_direction(self, unbounded_pair):
        W = SymMat(np.array([[1.0, 1.5], [1.5, 5.0]]) / 9.0)
        check = check_primal_direction(unbounded_pair, W, 1e-9)
        assert _flags(check) == (True, True)
        assert check["min_constraint_value"] == pytest.approx(2.0 / 9.0)
        assert check["objective_along_direction"] == pytest.approx(-1.0 / 3.0)

    def test_farkas_primal_direction_not_strict(self, unbounded_pair):
        W = SymMat([[2, 1], [1, 1]])  # <A, W> = 0, <C, W> = -2
        assert _flags(check_primal_direction(unbounded_pair, W, 1e-9)) == (True, False)

    def test_violated_primal_constraint_fails(self, unbounded_pair):
        W = SymMat([[3, 1], [1, 1]])  # <A, W> = -1
        assert _flags(check_primal_direction(unbounded_pair, W, 1e-9)) == (False, False)

    def test_indefinite_primal_direction_fails(self, unbounded_pair):
        W = SymMat([[-1.0, 1.0], [1.0, 0.0]])  # <A, W> = 3, <C, W> = -2, not psd
        assert _flags(check_primal_direction(unbounded_pair, W, 1e-9)) == (False, False)

    def test_farkas_dual_direction_not_strict(self, both_infeasible_pair):
        # y'A = diag(-2/3, 0) is negative semidefinite but singular
        check = check_dual_direction(both_infeasible_pair, [2.0 / 3.0], 1e-9)
        assert _flags(check) == (True, False)
        assert check["max_eig_combo"] == pytest.approx(0.0, abs=1e-12)
        assert check["objective_along_direction"] == pytest.approx(2.0 / 3.0)

    def test_strict_dual_direction(self):
        pair = SdpPair(C=SymMat.zeros(2), A=(SymMat([[-1, 0], [0, -1]]),), b=(1,))
        assert _flags(check_dual_direction(pair, [1.0], 1e-9)) == (True, True)

    def test_negative_multiplier_fails(self):
        pair = SdpPair(C=SymMat.zeros(2), A=(SymMat([[1, 0], [0, 1]]),), b=(-1,))
        assert _flags(check_dual_direction(pair, [-1.0], 1e-9)) == (False, False)

    def test_indefinite_combo_fails(self, bounded_pair):
        assert _flags(check_dual_direction(bounded_pair, [1.0], 1e-9)) == (False, False)

    def test_flags_are_python_bools(self, unbounded_pair, both_infeasible_pair):
        checks = [
            check_primal_direction(unbounded_pair, SymMat([[2, 1], [1, 1]]), 1e-9),
            check_dual_direction(both_infeasible_pair, np.array([2.0 / 3.0]), 1e-9),
        ]
        assert all(type(c[k]) is bool for c in checks for k in ("ok", "strict"))

    def test_dimension_mismatch(self, bounded_pair):
        with pytest.raises(ValueError):
            check_primal_direction(bounded_pair, SymMat.zeros(3), 1e-9)
        with pytest.raises(ValueError):
            check_dual_direction(bounded_pair, [1.0, 1.0], 1e-9)


class TestSdpPair:
    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            SdpPair(C=SymMat.identity(2), A=(SymMat.identity(3),), b=(1,))
        with pytest.raises(ValueError):
            SdpPair(C=SymMat.identity(2), A=(SymMat.identity(2),), b=(1, 2))

    def test_mixed_mode_collapses_to_float(self):
        pair = SdpPair(C=SymMat.identity(2), A=(SymMat([[0.5, 0.0], [0.0, 1.0]]),), b=(1,))
        assert pair.mode == "float"

    def test_exact_round_values(self, bounded_pair):
        assert bounded_pair.mode == "exact"
        assert bounded_pair.b == (Fraction(1),)


def _exact_pair(rng, n, m):
    """An exact-mode pair with small random rational entries."""

    def mat():
        M = [[Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4))) for _ in range(n)] for _ in range(n)]
        return SymMat([[M[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])

    return SdpPair(C=mat(), A=tuple(mat() for _ in range(m)), b=tuple(range(m)))


def _float_pair(rng, n, m):
    def mat():
        return SymMat.from_array(rng.normal(size=(n, n)))

    return SdpPair(C=mat(), A=tuple(mat() for _ in range(m)), b=tuple(rng.normal(size=m)))


class TestConstraintOperator:
    """SdpPair.apply_A / apply_AT against a per-constraint reference."""

    @pytest.fixture(params=["exact", "float"])
    def pairs(self, request):
        rng = np.random.default_rng(11)
        make = _exact_pair if request.param == "exact" else _float_pair
        pairs = [make(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6))) for _ in range(10)]
        assert all(p.mode == request.param for p in pairs)
        return pairs

    def test_stack_shape_and_entries(self, pairs):
        for pair in pairs:
            assert pair.A_stack.shape == (pair.m, pair.n, pair.n)
            assert pair.A_stack.dtype == np.float64
            for Ai, Si in zip(pair.A, pair.A_stack):
                assert np.array_equal(Ai.array, Si)

    def test_apply_A_matches_per_row_inner_products(self, pairs):
        rng = np.random.default_rng(12)
        for pair in pairs:
            X = SymMat.from_array(rng.normal(size=(pair.n, pair.n)))
            ref = [frobenius_inner(Ai.to_float(), X) for Ai in pair.A]
            np.testing.assert_allclose(pair.apply_A(X), ref, rtol=1e-13, atol=1e-13)

    def test_apply_A_of_exact_matrix_matches_exact_inner_products(self, pairs):
        X = SymMat([[Fraction(1, 3) * (i + j) for j in range(5)] for i in range(5)])
        for pair in pairs:
            Xn = SymMat([[X.entry(i, j) for j in range(pair.n)] for i in range(pair.n)])
            ref = [float(frobenius_inner(Ai, Xn)) for Ai in pair.A]
            np.testing.assert_allclose(pair.apply_A(Xn), ref, rtol=1e-13, atol=1e-13)

    def test_apply_AT_matches_explicit_sum(self, pairs):
        rng = np.random.default_rng(13)
        for pair in pairs:
            y = rng.normal(size=pair.m)
            ref = np.zeros((pair.n, pair.n))
            for yi, Ai in zip(y, pair.A):
                ref += yi * Ai.array
            np.testing.assert_allclose(pair.apply_AT(y), ref, rtol=1e-13, atol=1e-13)
            np.testing.assert_allclose(pair.apply_AT(tuple(Fraction(v) for v in y)), ref, rtol=1e-13, atol=1e-13)

    def test_adjoint_identity(self, pairs):
        rng = np.random.default_rng(14)
        for pair in pairs:
            X = SymMat.from_array(rng.normal(size=(pair.n, pair.n)))
            y = rng.normal(size=pair.m)
            lhs = float(np.tensordot(pair.apply_AT(y), X.array, axes=2))
            rhs = float(y @ pair.apply_A(X))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    def test_stack_is_read_only_and_cached(self, pairs):
        for pair in pairs:
            with pytest.raises(ValueError):
                pair.A_stack[0, 0, 0] = 1.0
            assert pair.A_stack is pair.A_stack

    def test_b_array_is_read_only_and_cached(self, pairs):
        for pair in pairs:
            assert np.array_equal(pair.b_array, [float(v) for v in pair.b])
            with pytest.raises(ValueError):
                pair.b_array[0] = 1.0
            assert pair.b_array is pair.b_array


class TestHashEqualityContract:
    def test_equal_symmats_across_modes_hash_equal(self):
        a, b = SymMat([[1]]), SymMat(np.array([[1.0]]))
        assert a.mode != b.mode
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_equal_pairs_across_modes_hash_equal(self, bounded_pair):
        pf = bounded_pair.to_float()
        assert bounded_pair.mode != pf.mode
        assert bounded_pair == pf
        assert hash(bounded_pair) == hash(pf)
        assert len({bounded_pair, pf}) == 1

    def test_exact_entry_differs_from_its_rounded_float(self):
        a, f = SymMat([[Fraction(1, 3)]]), SymMat(np.array([[1 / 3]]))
        assert Fraction(1, 3) != 1 / 3
        assert a != f and f != a
        assert a == SymMat([[Fraction(1, 3)]]) and f == a.to_float()

    def test_exact_pair_differs_from_its_rounded_float(self):
        a = SymMat([[Fraction(1, 3)]])
        pair = SdpPair(C=a, A=(a,), b=(1,))
        assert pair.mode == "exact"
        assert pair != pair.to_float()


class TestNonFiniteData:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_symmat_names_the_entry(self, bad):
        rows = [[1.0, 0.0], [0.0, bad]]
        with pytest.raises(ValueError, match=r"non-finite entry at \(1, 1\)"):
            SymMat(rows)
        with pytest.raises(ValueError, match=r"non-finite entry at \(1, 1\)"):
            SymMat(np.array(rows))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_pair_names_the_entry_of_b(self, bad):
        with pytest.raises(ValueError, match=r"b\[1\] is not finite"):
            SdpPair(C=SymMat.identity(2), A=(SymMat.identity(2),) * 2, b=(1.0, bad))
