"""Direct standard-form encodings of the primal and dual programs of a pair,
used to cross-check the game route."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .blocks import BlockStructure, diag_block, matrix_block, matrix_equality
from .model import SdpPair, SymMat
from .solver import MAX, MIN, SolverOptions, StandardSdp, solve


def primal_sdp(pair: SdpPair) -> StandardSdp:
    """min <C, X> s.t. <A_i, X> - s_i = b_i, X psd, s >= 0."""
    st = BlockStructure([matrix_block(pair.n), diag_block(pair.m)])
    rows = np.zeros((pair.m, st.dim))
    st.view(rows, 0)[:] = [Ai.array for Ai in pair.A]
    np.fill_diagonal(st.view(rows, 1), -1.0)
    obj = np.zeros(st.dim)
    st.view(obj, 0)[:] = pair.C.array
    return StandardSdp(st, obj, rows, pair.b_array, sense=MIN, name=f"{pair.name or 'pair'}-primal")


def dual_sdp(pair: SdpPair) -> StandardSdp:
    """max b'y s.t. sum_i y_i A_i + Z = C, y >= 0, Z psd."""
    st = BlockStructure([diag_block(pair.m), matrix_block(pair.n)])
    rows, rhs = matrix_equality(st, {0: [Ai.array for Ai in pair.A]}, (1, 1.0), pair.C.array)
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
    A = [Ai.array.copy() for Ai in pair.A]
    C = pair.C.array.copy()
    b = list(pair.b_array)
    Q = np.eye(pair.n)
    active = list(range(len(A)))
    reduced = False
    changed = True
    while changed and Q.shape[1] > 0:
        changed = False
        for pos, i in enumerate(active):
            lam, V = np.linalg.eigh(0.5 * (A[i] + A[i].T))
            if lam[-1] > tol:
                continue
            if b[i] > tol:
                return None, None, True
            if b[i] < -tol:
                continue  # slack inequality, not an implied equality
            kernel = V[:, np.abs(lam) <= tol]
            if kernel.shape[1] == A[i].shape[0]:
                # A_i ~ 0 and b_i ~ 0: trivial constraint
                del active[pos]
            else:
                K = kernel
                A = [K.T @ Aj @ K for Aj in A]
                C = K.T @ C @ K
                Q = Q @ K
                del active[pos]
            reduced = True
            changed = True
            break
    if not reduced:
        return None, None, False
    if Q.shape[1] == 0:
        return Q, None, any(b[i] > tol for i in active)
    k = Q.shape[1]
    if active:
        subA = tuple(SymMat.from_array(A[i], symmetrize=True) for i in active)
        subb = tuple(float(b[i]) for i in active)
    else:
        # all constraints were implied equalities; keep one vacuous row
        subA = (SymMat.zeros(k).to_float(),)
        subb = (-1.0,)
    sub = SdpPair(
        C=SymMat.from_array(C, symmetrize=True),
        A=subA,
        b=subb,
        name=f"{pair.name or 'pair'}-faced",
    )
    return Q, sub, False


def solve_both(pair: SdpPair, opts: Optional[SolverOptions] = None) -> dict:
    """Solve the pair's primal and dual directly.

    The primal route first applies the exact implied-equality face reduction
    so that its reported value is the true infimum even across a duality gap;
    the dual route is solved as stated.  Values are best estimates even when a
    run stops short of full optimality.
    """
    opts = opts or SolverOptions(tol=1e-9, max_iters=500)
    pf = pair.to_float()
    Q, sub, infeasible = detect_primal_face(pf)
    if infeasible:
        pstatus, pvalue, pres = "PrimalInfeasibleDetected", float("nan"), None
    elif Q is not None and (sub is None or Q.shape[1] == 0):
        # the face collapsed: X = 0 (or unconstrained on a null face)
        pstatus, pvalue, pres = "Optimal", 0.0, None
    elif Q is not None:
        pres = solve(primal_sdp(sub), opts)
        pstatus, pvalue = pres.status, pres.value
    else:
        pres = solve(primal_sdp(pf), opts)
        pstatus, pvalue = pres.status, pres.value
    dres = solve(dual_sdp(pf), opts)
    return {
        "primal_status": pstatus,
        "primal_value": pvalue,
        "dual_status": dres.status,
        "dual_value": dres.value,
        "primal_result": pres,
        "dual_result": dres,
        "face_basis": Q,
    }
