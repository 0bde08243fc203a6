"""Test-only encoding of the dual auxiliary SDP, the Lagrangian dual of
:func:`sdgames.auxiliary.build_primal_aux`: the pipeline never solves it, so
it lives here to check the primal auxiliary optimum by strong duality."""

from __future__ import annotations

import numpy as np

from sdgames.auxiliary import _aux_structure
from sdgames.blocks import matrix_equality
from sdgames.model import SdpPair
from sdgames.solver import MAX, StandardSdp


def build_dual_aux(pair: SdpPair) -> StandardSdp:
    """Standard-form encoding of the dual auxiliary SDP (a maximization)."""
    n, m = pair.n, pair.m
    C = pair.C.array
    A = pair.A_stack
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
