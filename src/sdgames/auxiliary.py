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
from .solver import MIN, OPTIMAL, SolveResult, SolverOptions, StandardSdp, solve

ATTAINED = "Attained"
SUSPECTED_UNATTAINED = "SuspectedUnattained"

_MAIN_OPTS = SolverOptions(tol=1e-9, max_iters=300)  # the auxiliary SDP's solve
_PROBE_OPTS = SolverOptions(tol=1e-7, max_iters=300)  # the two refined-aux probes


@dataclass(frozen=True, eq=False)
class AuxSolution:
    X: SymMat
    y: np.ndarray
    w: float
    attained_flag: str
    solve_status: str = OPTIMAL


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


def _extract(res: SolveResult):
    X, _, y, _, w = res.primal[:5]
    return SymMat.from_array(X, symmetrize=True), np.array(y, dtype=float), float(w[0])


def solve_aux(pair: SdpPair) -> AuxSolution:
    """Solve the primal auxiliary SDP and pick a small optimal point if one exists.

    The near-optimal face is probed at two shrinking caps on w, minimizing
    tr(X) + 1'y: if the minimal point stays bounded as the cap tightens, the
    infimum is reported as attained at that point (or at the main solve's,
    when that is optimal and no larger); if it grows roughly inversely with
    the cap, the instance is flagged SuspectedUnattained.  The tight probe
    runs first.  The two probes differ only in the cap entry of b, so the
    tight probe's dual is feasible for the loose one, and by weak duality
    b_loose'y bounds the loose probe's value from below; when that bound
    already shows no growth the loose probe is skipped.  It runs only when
    the tight probe is optimal and the bound leaves the growth test open.

    A probe that does not converge says nothing about growth.  The main
    solve's point is then reported as attained when it is bounded and
    usable: optimal, or stopped short (NumericalFailure too) with
    |w*| <= 1e-7 * (1 + max |data|) and primal and dual infeasibility at
    most 1e-8.  That relaxed gate applies only here; the choice between the
    main solve's and the tight probe's point on the attained branch still
    asks for an optimal main solve.  The flag is heuristic: it never
    certifies non-attainment.

    The main solve runs to tol 1e-9 and the probes to 1e-7, each within 300
    iterations, whatever tolerance the game solves use.
    """
    pf = pair.to_float()
    first = solve(build_primal_aux(pf), _MAIN_OPTS)
    w_star = first.value
    scale = 1.0 + pf.max_abs_entry()
    norm_cap = 1e6 * scale
    delta = 1e-4 * (1.0 + abs(w_star))
    tight_cap, loose_cap = w_star + delta / 10.0, w_star + delta
    tight = solve(build_refined_aux(pf, tight_cap), _PROBE_OPTS)
    probed = tight.status == OPTIMAL
    grows = False
    if probed:
        # b_loose'y <= loose.value; the cap is the last entry of b
        loose_lower = tight.dual_objective + (loose_cap - tight_cap) * tight.dual[-1]
        if tight.value > 2.0 * loose_lower + 1.0:
            loose = solve(build_refined_aux(pf, loose_cap), _PROBE_OPTS)
            probed = loose.status == OPTIMAL
            grows = tight.value > 2.0 * loose.value + 1.0
    first_small = bv_norm_inf(first.primal[:3]) <= norm_cap
    if probed and not grows and bv_norm_inf(tight.primal[:3]) <= norm_cap:
        X, y, _ = _extract(tight)
        if first.status == OPTIMAL and first_small:
            # the direct solution is preferable when it is just as small
            Xf, yf, _ = _extract(first)
            g_first = float(np.trace(Xf.array) + np.sum(yf))
            if g_first <= tight.value + 0.1:
                X, y = Xf, yf
        return AuxSolution(X=X, y=y, w=w_star, attained_flag=ATTAINED, solve_status=first.status)
    X, y, w = _extract(first)
    usable = first.status == OPTIMAL or (
        abs(w_star) <= 1e-7 * scale and max(first.primal_infeas, first.dual_infeas) <= 1e-8
    )
    flag = ATTAINED if usable and first_small and not probed else SUSPECTED_UNATTAINED
    return AuxSolution(X=X, y=y, w=w, attained_flag=flag, solve_status=first.status)
