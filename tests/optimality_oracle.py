"""Reference check of a strongly optimal pair: the two functions that
:func:`sdgames.model.check_strongly_optimal` replaced, kept so that a test
can hold the one-pass check to their margins and numbers bit for bit.  The
gap test is two-sided, as in the check.

``residuals`` reports the worst slacks of a candidate pair;
``verify_strongly_optimal`` is the weak-duality test, with early exits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from sdgames.model import (
    DualPoint,
    PrimalPoint,
    SdpPair,
    dual_slack_matrix,
    frobenius_inner,
    is_psd,
    min_eigenvalue,
)


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case feasibility/optimality slack of a candidate primal-dual point."""

    min_eig_slack: float
    worst_linear_violation: float
    gap: float

    def __post_init__(self):
        for v in (self.min_eig_slack, self.worst_linear_violation, self.gap):
            if not np.isfinite(v):
                raise ValueError("residual fields must be finite")


def residuals(pair: SdpPair, X: PrimalPoint, y: DualPoint) -> ResidualReport:
    """Aggregate feasibility/optimality residuals of a candidate pair (X, y).

    min_eig_slack is the smallest eigenvalue over the psd conditions
    (X, the dual slack C - sum y_i A_i, and the y_i as 1x1 blocks);
    worst_linear_violation is max_i max(0, b_i - <A_i, X>); gap is <C,X> - b'y.
    """
    if X.X.dim != pair.n or len(y.y) != pair.m:
        raise ValueError("dimension mismatch with the problem pair")
    Xf = X.X.to_float()
    yv = y.array
    slack = min(min_eigenvalue(Xf), min_eigenvalue(dual_slack_matrix(pair, yv)), float(np.min(yv)))
    return ResidualReport(
        min_eig_slack=slack,
        worst_linear_violation=float(np.max(pair.b_array - pair.apply_A(Xf), initial=0.0)),
        gap=frobenius_inner(pair.C.to_float(), Xf) - float(pair.b_array @ yv),
    )


def verify_strongly_optimal(pair: SdpPair, X: PrimalPoint, y: DualPoint, tol: float) -> bool:
    """Weak-duality check: primal feasible, dual feasible and gap = 0, all within tol."""
    if X.X.dim != pair.n or len(y.y) != pair.m:
        raise ValueError("dimension mismatch with the problem pair")
    Xf = X.X.to_float()
    yv = y.array
    b = pair.b_array
    if not is_psd(Xf, tol):
        return False
    if float(np.min(yv)) < -tol * (1.0 + float(np.max(np.abs(yv)))):
        return False
    if np.any(b - pair.apply_A(Xf) > tol * (1.0 + np.abs(b))):
        return False
    if not is_psd(dual_slack_matrix(pair, yv), tol):
        return False
    obj = frobenius_inner(pair.C.to_float(), Xf)
    gap = obj - float(b @ yv)
    return abs(gap) <= tol * (1.0 + abs(obj))
