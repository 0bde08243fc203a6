"""Reference certificate read: the objective pre-filter that
:func:`sdgames.reduction.recover_certificate` dropped, kept so that a test
can hold the one-pass read to the directions and the stop decisions it made.

``candidate_checks`` keeps s1's X' only when <C, X'> < -tol * scale and its
y' only when b'y' > tol * scale, then checks each candidate kept;
``certifies`` is the early-stop test built on it.
"""

from __future__ import annotations

from sdgames.game import Strategy1
from sdgames.model import SdpPair, check_dual_direction, check_primal_direction, frobenius_inner

ZERO_MARGIN = {
    "primal": lambda check: check["min_constraint_value"] >= 0.0,
    "dual": lambda check: check["max_eig_combo"] <= 0.0,
}


def candidate_checks(s1: Strategy1, pair: SdpPair, tol: float) -> dict:
    """The checks of the candidate directions of s1, keyed ``primal`` and
    ``dual``; raises ValueError when t' has not vanished."""
    if s1.t > tol:
        raise ValueError("t' nonzero in unbounded regime")
    scale = 1.0 + pair.max_abs_entry()
    checks = {}
    if frobenius_inner(pair.C.to_float(), s1.X.to_float()) < -tol * scale:
        checks["primal"] = check_primal_direction(pair, s1.X, tol)
    if float(pair.b_array @ s1.y) > tol * scale:
        checks["dual"] = check_dual_direction(pair, s1.y, tol)
    return checks


def certifies(pair: SdpPair, tol: float):
    """Some candidate passes its check, and every one that passes holds its
    constraints with zero margin; returns the candidate checks, else None."""

    def test(s1: Strategy1):
        try:
            checks = candidate_checks(s1, pair, tol)
        except ValueError:
            return None
        passed = [key for key, check in checks.items() if check["ok"]]
        if passed and all(ZERO_MARGIN[key](checks[key]) for key in passed):
            return checks
        return None

    return test
