"""Auxiliary primal/dual SDPs and strict unbounded-direction checks.

The primal auxiliary program relaxes the combined primal-dual feasibility
system of a pair with a slack w >= 0 and minimizes w; its optimum is zero and
attained exactly when a strongly optimal pair exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockStructure, bv_norm_inf, diag_block, matrix_block, matrix_equality
from .model import SdpPair, SymMat, frobenius_inner, is_psd, max_eigenvalue
from .solver import (
    MAX,
    MIN,
    NUMERICAL_FAILURE,
    OPTIMAL,
    SolveResult,
    SolverOptions,
    StandardSdp,
    solve,
)

ATTAINED = "Attained"
SUSPECTED_UNATTAINED = "SuspectedUnattained"


class SolverFailure(RuntimeError):
    """An embedded SDP solve broke down numerically."""


@dataclass(frozen=True, eq=False)
class AuxSolution:
    X: SymMat
    y: np.ndarray
    w: float
    attained_flag: str
    solve_status: str = OPTIMAL

    @property
    def attained(self) -> bool:
        return self.attained_flag == ATTAINED


def _aux_structure(n: int, m: int) -> BlockStructure:
    return BlockStructure(
        [matrix_block(n), matrix_block(n), diag_block(m), diag_block(m), diag_block(1), diag_block(1)]
    )


def build_primal_aux(pair: SdpPair) -> StandardSdp:
    """Standard-form encoding of the primal auxiliary SDP.

    Variables diag(X, Z, y, s, w, r) with slack blocks Z, s, r turning the
    relaxed feasibility system into equalities; the objective extracts w.
    """
    n, m = pair.n, pair.m
    C = pair.C.array
    A = [Ai.array for Ai in pair.A]
    b = pair.b_array
    st = _aux_structure(n, m)
    X_, Z_, Y_, S_, W_, R_ = range(6)
    rows = np.zeros((m + 1, st.dim))
    X, _, Y, S, W, R = st.split(rows)
    # <A_i, X> + w - s_i = b_i
    X[:m] = A
    np.fill_diagonal(S, -1.0)
    W[:m] = 1.0
    # <C, X> - b'y - w + r = 0
    X[m] = C
    Y[m] = -b
    W[m] = -1.0
    R[m] = 1.0
    # sum_i y_i A_i - w I + Z = C, entrywise over p <= q
    E, e = matrix_equality(st, {Y_: A, W_: [-np.eye(n)]}, (Z_, 1.0), C)
    obj = np.zeros(st.dim)
    st.view(obj, W_)[:] = 1.0
    return StandardSdp(st, obj, np.vstack([rows[:m], E, rows[m:]]), np.concatenate([b, e, [0.0]]),
                       sense=MIN, name=f"{pair.name or 'pair'}-primal-aux")


def build_refined_aux(pair: SdpPair, w_cap: float) -> StandardSdp:
    """Primal auxiliary SDP restricted to w <= w_cap, minimizing tr(X) + 1'y.

    Used to pick a small point on the (near-)optimal face; the restricted
    problem stays bounded exactly when the auxiliary optimum is attained by
    a finite solution.
    """
    base = build_primal_aux(pair)
    st = BlockStructure(list(base.structure) + [diag_block(1)])
    # w + q = w_cap, with q the new last block
    rows = np.zeros((base.num_constraints + 1, st.dim))
    rows[:-1, :-1] = base.A
    st.view(rows, 4)[-1] = 1.0
    st.view(rows, len(st) - 1)[-1] = 1.0
    obj = np.zeros(st.dim)
    st.view(obj, 0)[:] = np.eye(pair.n)
    st.view(obj, 2)[:] = 1.0
    return StandardSdp(st, obj, rows, np.append(base.b, float(w_cap)),
                       sense=MIN, name=f"{pair.name or 'pair'}-refined-aux")


def build_dual_aux(pair: SdpPair) -> StandardSdp:
    """Standard-form encoding of the dual auxiliary SDP (a maximization)."""
    n, m = pair.n, pair.m
    C = pair.C.array
    A = [Ai.array for Ai in pair.A]
    b = pair.b_array
    st = _aux_structure(n, m)
    W_, Z2_, ZV_, S2_, R_, Q_ = range(6)
    # sum_i z_i A_i - r C + Z2 = 0, entrywise
    E, e = matrix_equality(st, {ZV_: A, R_: [-C]}, (Z2_, 1.0))
    rows = np.zeros((m + 1, st.dim))
    W, _, ZV, S2, R, Q = st.split(rows)
    # <A_i, W> - r b_i - s2_i = 0
    W[:m] = A
    R[:m, 0] = -b
    np.fill_diagonal(S2, -1.0)
    # 1'z + tr(W) + r + q = 1
    W[m] = np.eye(n)
    ZV[m] = 1.0
    R[m] = 1.0
    Q[m] = 1.0
    obj = np.zeros(st.dim)
    st.view(obj, W_)[:] = -C
    st.view(obj, ZV_)[:] = b
    return StandardSdp(st, obj, np.vstack([E, rows]), np.concatenate([e, np.zeros(m), [1.0]]),
                       sense=MAX, name=f"{pair.name or 'pair'}-dual-aux")


def _extract(res: SolveResult):
    X, _, y, _, w = res.primal[:5]
    return SymMat.from_array(X, symmetrize=True), np.array(y, dtype=float), float(w[0])


def solve_aux(pair: SdpPair, opts: Optional[SolverOptions] = None) -> AuxSolution:
    """Solve the primal auxiliary SDP and pick a small optimal point if one exists.

    When the main solve converges to a point of moderate norm it is returned
    as attained.  Otherwise the near-optimal face is probed at two shrinking
    caps on w, minimizing tr(X) + 1'y: if the minimal point stays bounded as
    the cap tightens, the infimum is reported as attained at that point; if it
    grows roughly inversely with the cap, the instance is flagged
    SuspectedUnattained.  A probe that does not converge says nothing about
    growth, so the main solve's point is then reported as attained when it is
    optimal and of moderate norm.  The flag is heuristic: it never certifies
    non-attainment.
    """
    opts = opts or SolverOptions(tol=1e-9, max_iters=300)
    pf = pair.to_float()
    first = solve(build_primal_aux(pf), opts)
    if first.status == NUMERICAL_FAILURE:
        raise SolverFailure("auxiliary SDP solve failed numerically")
    w_star = first.value
    scale = 1.0 + pf.max_abs_entry()
    norm_cap = 1e6 * scale
    probe_opts = SolverOptions(tol=1e-7, max_iters=opts.max_iters)
    delta = 1e-4 * (1.0 + abs(w_star))
    loose = solve(build_refined_aux(pf, w_star + delta), probe_opts)
    tight = solve(build_refined_aux(pf, w_star + delta / 10.0), probe_opts)
    first_small = first.status == OPTIMAL and bv_norm_inf(first.primal[:3]) <= norm_cap
    probed = loose.status == OPTIMAL and tight.status == OPTIMAL
    attained = (
        probed
        and bv_norm_inf(tight.primal[:3]) <= norm_cap
        and tight.value <= 2.0 * loose.value + 1.0
    )
    if attained:
        X, y, _ = _extract(tight)
        if first_small:
            # the direct solution is preferable when it is just as small
            Xf, yf, _ = _extract(first)
            g_first = float(np.trace(Xf.array) + np.sum(yf))
            if g_first <= tight.value + 0.1:
                X, y = Xf, yf
        return AuxSolution(X=X, y=y, w=w_star, attained_flag=ATTAINED, solve_status=first.status)
    X, y, w = _extract(first)
    flag = ATTAINED if first_small and not probed else SUSPECTED_UNATTAINED
    return AuxSolution(X=X, y=y, w=w, attained_flag=flag, solve_status=first.status)


def verify_strict_primal_unbounded(pair: SdpPair, W: SymMat, tol: float) -> bool:
    """W psd with <A_i, W> > 0 for all i and <C, W> < 0, with margin tol*scale."""
    if W.dim != pair.n:
        raise ValueError("direction dimension does not match the pair")
    scale = 1.0 + pair.max_abs_entry()
    Wf = W.to_float()
    if not is_psd(Wf, tol):
        return False
    if min(frobenius_inner(Ai.to_float(), Wf) for Ai in pair.A) <= tol * scale:
        return False
    return frobenius_inner(pair.C.to_float(), Wf) < -tol * scale


def verify_strict_dual_unbounded(pair: SdpPair, y, tol: float) -> bool:
    """y >= 0 with sum_i y_i A_i negative definite and b'y > 0, margin tol*scale."""
    yv = np.asarray([float(v) for v in y], dtype=float)
    if yv.shape[0] != pair.m:
        raise ValueError("direction length does not match the pair")
    scale = 1.0 + pair.max_abs_entry()
    y_scale = 1.0 + float(np.max(np.abs(yv)))
    if float(np.min(yv)) < -tol * y_scale:
        return False
    combo = sum(yi * Ai.array for yi, Ai in zip(yv, pair.A))
    if max_eigenvalue(SymMat.from_array(combo, symmetrize=True)) >= -tol * scale:
        return False
    return float(pair.b_array @ yv) > tol * scale
