"""Direct standard-form encodings of the primal and dual programs of a pair,
used to cross-check the game route."""

from __future__ import annotations

import numpy as np

from .blocks import BlockStructure, diag_block, matrix_block, matrix_equality
from .model import SdpPair, SymMat
from .solver import MAX, MIN, OPTIMAL, PRIMAL_INFEASIBLE, StandardSdp, solve

DIRECT_TOL = 1e-9  # solve_both's default tolerance


def primal_sdp(pair: SdpPair) -> StandardSdp:
    """min <C, X> s.t. <A_i, X> - s_i = b_i, X psd, s >= 0."""
    st = BlockStructure([matrix_block(pair.n), diag_block(pair.m)])
    rows = np.zeros((pair.m, st.dim))
    st.view(rows, 0)[:] = pair.A_stack
    np.fill_diagonal(st.view(rows, 1), -1.0)
    obj = np.zeros(st.dim)
    st.view(obj, 0)[:] = pair.C.array
    return StandardSdp(st, obj, rows, pair.b_array, sense=MIN, name=f"{pair.name or 'pair'}-primal")


def dual_sdp(pair: SdpPair) -> StandardSdp:
    """max b'y s.t. sum_i y_i A_i + Z = C, y >= 0, Z psd."""
    st = BlockStructure([diag_block(pair.m), matrix_block(pair.n)])
    rows, rhs = matrix_equality(st, {0: pair.A_stack}, (1, 1.0), pair.C.array)
    obj = np.zeros(st.dim)
    st.view(obj, 0)[:] = pair.b_array
    return StandardSdp(st, obj, rows, rhs, sense=MAX, name=f"{pair.name or 'pair'}-dual")


_FACE_TOL = 1e-11


def detect_primal_face(pair: SdpPair):
    """Exact implied-equality reduction of the primal feasible set.

    A constraint with A_i negative semidefinite and b_i >= 0 admits no psd X
    with <A_i, X> > 0, so feasibility forces <A_i, X> = 0 and hence
    range(X) inside ker(A_i).  Restricting to that kernel is exact, and b_i > 0
    proves primal infeasibility outright.  Returns (basis Q, reduced pair,
    "infeasible" flag); Q is None when no reduction applies.

    Without this step a path-following solve of a pair whose primal value
    function is discontinuous (positive duality gap) converges to the limiting
    perturbed value instead of the true infimum.
    """
    scale = 1.0 + pair.max_abs_entry()
    tol = _FACE_TOL * scale
    A = pair.A_stack
    C = pair.C.array
    b = pair.b_array
    Q = np.eye(pair.n)
    active = np.arange(pair.m)
    reduced = False
    while active.size and Q.shape[1] > 0:
        sub = A[active]
        lam, V = np.linalg.eigh(0.5 * (sub + sub.swapaxes(1, 2)))
        # negative semidefinite A_i with b_i >= 0: an implied equality
        hit = np.flatnonzero((lam[:, -1] <= tol) & (b[active] >= -tol))
        if not hit.size:
            break
        pos = hit[0]
        if b[active[pos]] > tol:
            return None, None, True
        kernel = V[pos][:, np.abs(lam[pos]) <= tol]
        if kernel.shape[1] < Q.shape[1]:
            A = kernel.T @ A @ kernel
            C = kernel.T @ C @ kernel
            Q = Q @ kernel
        # else A_i ~ 0 and b_i ~ 0: a trivial constraint
        active = np.delete(active, pos)
        reduced = True
    if not reduced:
        return None, None, False
    if Q.shape[1] == 0:
        return Q, None, bool(np.any(b[active] > tol))
    if active.size:
        subA = tuple(SymMat.from_array(Ai) for Ai in A[active])
        subb = tuple(float(v) for v in b[active])
    else:
        # all constraints were implied equalities; keep one vacuous row
        subA = (SymMat.zeros(Q.shape[1]).to_float(),)
        subb = (-1.0,)
    sub = SdpPair(
        C=SymMat.from_array(C),
        A=subA,
        b=subb,
        name=f"{pair.name or 'pair'}-faced",
    )
    return Q, sub, False


def solve_both(pair: SdpPair, tol: float = DIRECT_TOL) -> dict:
    """Solve the pair's primal and dual directly, each to ``tol``.

    The primal route first applies the exact implied-equality face reduction
    so that its reported value is the true infimum even across a duality gap;
    the dual route is solved as stated.  Values are best estimates even when a
    run stops short of full optimality.
    """
    pf = pair.to_float()
    Q, sub, infeasible = detect_primal_face(pf)
    if infeasible:
        pstatus, pvalue = PRIMAL_INFEASIBLE, float("nan")
    elif Q is not None and sub is None:
        # the face collapsed: X = 0
        pstatus, pvalue = OPTIMAL, 0.0
    else:
        pres = solve(primal_sdp(pf if Q is None else sub), tol)
        pstatus, pvalue = pres.status, pres.value
    dres = solve(dual_sdp(pf), tol)
    return {
        "primal_status": pstatus,
        "primal_value": pvalue,
        "dual_status": dres.status,
        "dual_value": dres.value,
    }
