"""Auxiliary primal/dual SDPs and the auxiliary solve behind the practical bound.

The primal auxiliary program relaxes the combined primal-dual feasibility
system of a pair with a slack w >= 0 and minimizes w; its optimum is zero and
attained exactly when a strongly optimal pair exists.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockStructure, bv_norm_inf, diag_block, matrix_block, matrix_equality
from .model import SdpPair, SymMat
from .solver import MIN, OPTIMAL, START_BLEND, SolveResult, StandardSdp, solve

ATTAINED = "Attained"
SUSPECTED_UNATTAINED = "SuspectedUnattained"

_MAIN_TOL = 1e-9  # the auxiliary SDP's solve
_PROBE_TOL = 1e-7  # the refined-aux probe


@dataclass(frozen=True, eq=False)
class AuxSolution:
    X: SymMat
    y: np.ndarray
    w: float
    attained_flag: str
    size: float  # the tr(X) + 1'y that M must dominate (see solve_aux)
    solve_status: str = OPTIMAL
    predicts_bounded: bool = False  # w near 0: a strongly optimal pair exists (see solve_aux)


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
    A = pair.A_stack
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


def build_refined_aux(base: StandardSdp, w_cap: float) -> StandardSdp:
    """The primal auxiliary SDP ``base`` restricted to w <= w_cap, minimizing tr(X) + 1'y.

    Used to pick a small point on the (near-)optimal face; the restricted
    problem stays bounded exactly when the auxiliary optimum is attained by
    a finite solution.  The cap row w + q = w_cap is the last row, with q
    the new last block.
    """
    st = BlockStructure(list(base.structure) + [diag_block(1)])
    rows = np.zeros((base.num_constraints + 1, st.dim))
    rows[:-1, :-1] = base.A
    st.view(rows, 4)[-1] = 1.0
    st.view(rows, len(st) - 1)[-1] = 1.0
    obj = np.zeros(st.dim)
    st.view(obj, 0)[:] = np.eye(st.blocks[0].size)
    st.view(obj, 2)[:] = 1.0
    name = base.name.removesuffix("-primal-aux") + "-refined-aux"
    return StandardSdp(st, obj, rows, np.append(base.b, float(w_cap)), sense=MIN, name=name)


def _as_refined(res: SolveResult) -> tuple:
    """The primal auxiliary solve's iterate ``res`` read in the refined-aux SDP,
    as (x, y, s) with q = 0.

    The multipliers are (res.dual, -1).  The refined objective is the main
    one plus I on X and 1 on y, minus 1 on w, and the cap row's -1 adds 1 on
    w and on q, so the dual slack is res.dual_slack plus I on X, 1 on y and
    1 on q: the dual residual on the main solve's blocks is the main solve's.
    """
    s = [*res.dual_slack, np.ones(1)]
    s[0] = s[0] + np.eye(len(s[0]))
    s[2] = s[2] + 1.0
    return [*res.primal, np.zeros(1)], np.append(res.dual, -1.0), s


def _probe_start(x: list, y: np.ndarray, s: list, w_cap: float) -> tuple:
    """The start (x, y, s) of the refined-aux probe at cap ``w_cap`` from a
    refined-aux iterate, such as the main solve's read by :func:`_as_refined`.

    q moves to w_cap - w, so x keeps the iterate's primal residual on every
    row but the cap row, which it meets exactly; x is left otherwise as it
    is, a solver iterate inside the cone.  s is blended a fraction
    START_BLEND toward its mean eigenvalue times the identity, as
    :func:`game._player1_start` blends its strategies toward the uniform one:
    the trace of s is kept and every eigenvalue is lifted off the boundary.
    """
    x = [*x[:-1], w_cap - x[4]]
    mean = sum(np.trace(v) if v.ndim == 2 else np.sum(v) for v in s) / sum(len(v) for v in s)
    s = [(1.0 - START_BLEND) * v + START_BLEND * mean * (np.eye(len(v)) if v.ndim == 2 else 1.0)
         for v in s]
    return x, y, s


def _extract(res: SolveResult):
    X, _, y = res.primal[:3]
    return SymMat.from_array(X), np.array(y, dtype=float)


def solve_aux(pair: SdpPair) -> AuxSolution:
    """Solve the primal auxiliary SDP and pick a small optimal point if one exists.

    One probe of the near-optimal face, at the cap w* + delta/10 on w,
    minimizes tr(X) + 1'y.  If it converges to a point within the norm cap,
    the infimum is reported as attained at that point (or at the main
    solve's, when that is optimal and no larger); a converged probe whose
    point exceeds the cap flags the instance SuspectedUnattained.

    ``predicts_bounded``, |w*| <= 1e-7 * (1 + max |data|), is the pipeline's
    one prediction that a strongly optimal pair exists.

    ``size`` is the tr(X) + 1'y that the practical bound must dominate: the
    reported point's own, raised to the main solve's when the probe's point
    is reported although the main solve is optimal, within the norm cap and
    predicts a bounded pair.  The cap relaxes the dual's psd constraint by w
    too, so the probe's point can undercut every auxiliary optimum in
    tr(X) + 1'y.

    A probe that does not converge says nothing about attainment.  The main
    solve's point is then reported as attained when it is bounded and
    usable: optimal, or stopped short (NumericalFailure too) with a bounded
    prediction and primal and dual infeasibility at most 1e-8.  That relaxed
    gate applies only here; the choice between the main solve's and the
    probe's point on the attained branch still asks for an optimal main
    solve.  The flag is heuristic: it never certifies non-attainment.

    The main solve runs to tol 1e-9 and the probe to 1e-7, each within
    ``solver.MAX_ITERS`` iterations, whatever tolerance the game solves use.
    The probe adds its cap row to the primal auxiliary SDP and starts at the
    main solve's iterate read in its SDP (:func:`_as_refined`), moved to its
    cap by :func:`_probe_start`.  The start changes only the probe's iterate path,
    not its tolerance or convergence test.
    """
    pf = pair.to_float()
    base = build_primal_aux(pf)
    first = solve(base, _MAIN_TOL)
    w_star = first.value
    scale = 1.0 + pf.max_abs_entry()
    norm_cap = 1e6 * scale
    delta = 1e-4 * (1.0 + abs(w_star))
    cap = w_star + delta / 10.0
    start = _probe_start(*_as_refined(first), cap)
    probe = solve(build_refined_aux(base, cap), _PROBE_TOL, start=start)
    probed = probe.status == OPTIMAL
    first_small = bv_norm_inf(first.primal[:3]) <= norm_cap
    w_small = abs(w_star) <= 1e-7 * scale
    floor = -np.inf
    if probed and bv_norm_inf(probe.primal[:3]) <= norm_cap:
        X, y = _extract(probe)
        flag = ATTAINED
        if first.status == OPTIMAL and first_small:
            Xf, yf = _extract(first)
            g_first = float(np.trace(Xf.array) + np.sum(yf))
            if g_first <= probe.value + 0.1:
                # the direct solution is preferable when it is just as small
                X, y = Xf, yf
            elif w_small:
                floor = g_first
    else:
        X, y = _extract(first)
        usable = first.status == OPTIMAL or (w_small and max(first.primal_infeas, first.dual_infeas) <= 1e-8)
        flag = ATTAINED if usable and first_small and not probed else SUSPECTED_UNATTAINED
    size = max(float(np.trace(X.array) + np.sum(y)), floor)
    return AuxSolution(X=X, y=y, w=w_star, attained_flag=flag, size=size, solve_status=first.status,
                       predicts_bounded=w_small)
