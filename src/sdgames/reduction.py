"""End-to-end pipeline: pick a solution bound, solve the modified Dantzig game,
classify, recover solutions or certificates, and re-verify everything with
independent arithmetic.

Classification never guesses: a recovered point or direction is only reported
after it passes the check in :mod:`sdgames.model` that ``sdgames verify`` also
runs (``check_strongly_optimal``, ``check_primal_direction``,
``check_dual_direction``), otherwise the outcome is Inconclusive with the
checks of every candidate tried.  A direction is reported when it is a Farkas
certificate; whether it is also strict is recorded in its check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .bounds import ARBITRARY, SolutionBoundM, practical_bound_M
from .game import Strategy1, Strategy2, solve_game
from .model import (
    SdpPair,
    SymMat,
    check_dual_direction,
    check_primal_direction,
    check_strongly_optimal,
    frobenius_inner,
)
from .solver import NUMERICAL_FAILURE, SolverOptions

STRONGLY_OPTIMAL = "StronglyOptimal"
PRIMAL_UNBOUNDED_CERT = "PrimalUnboundedCert"
DUAL_UNBOUNDED_CERT = "DualUnboundedCert"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PipelineConfig:
    solver_opts: SolverOptions = SolverOptions(tol=1e-10, max_iters=300)
    bound_mode: Union[str, float] = "practical"
    verify_tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.verify_tol < np.inf:
            raise ValueError("verification tolerance must be finite and positive")
        if isinstance(self.bound_mode, str):
            if self.bound_mode != "practical":
                raise ValueError("bound_mode is 'practical' or a fixed numeric value")
        elif not 1 <= float(self.bound_mode) < np.inf:
            raise ValueError("bound_mode: a fixed solution bound must be finite and positive, "
                             f"and at least 1 (got {self.bound_mode!r})")


@dataclass(eq=False)
class Outcome:
    kind: str
    game_value: float
    M_used: SolutionBoundM
    X_opt: Optional[SymMat] = None
    y_opt: Optional[np.ndarray] = None
    direction_X: Optional[SymMat] = None
    direction_y: Optional[np.ndarray] = None
    implied_w_bar: Optional[float] = None
    verification: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


@dataclass(frozen=True, eq=False)
class CertificateFragment:
    """Candidate unbounded directions read off an optimal player-1 strategy."""

    primal_direction: Optional[SymMat] = None
    dual_direction: Optional[np.ndarray] = None

    @property
    def empty(self) -> bool:
        return self.primal_direction is None and self.dual_direction is None


def recover_optimal(s2: Strategy2, tol: float):
    """Scale the second player's optimal strategy back to a primal/dual pair."""
    if s2.t <= tol:
        raise ValueError("t vanished; bounded-case recovery impossible")
    X = SymMat.from_array(s2.X.array / s2.t, symmetrize=True)
    return X, s2.y / s2.t


def recover_certificate(s1: Strategy1, pair: SdpPair, tol: float) -> CertificateFragment:
    """Read candidate unbounded directions off an optimal player-1 strategy.

    <C, X'> < 0 makes X' a candidate unbounded direction of the primal
    (certifying dual infeasibility); b'y' > 0 makes y' a candidate for the
    dual (certifying primal infeasibility).  Both may hold; primal is listed
    first.  Expects t' to have vanished: a positive-value game with t' > tol
    signals numerical trouble or a failed constraint qualification.
    """
    if s1.t > tol:
        raise ValueError("t' nonzero in unbounded regime")
    scale = 1.0 + pair.max_abs_entry()
    primal = None
    dual = None
    if frobenius_inner(pair.C.to_float(), s1.X.to_float()) < -tol * scale:
        primal = s1.X
    if float(pair.b_array @ s1.y) > tol * scale:
        dual = np.array(s1.y)
    return CertificateFragment(primal_direction=primal, dual_direction=dual)


# a candidate that passes its check only by the check's margin may have no
# exact counterpart; an early-stopped player 1 must do better than that
_ZERO_MARGIN = {
    "primal": lambda check: check["min_constraint_value"] >= 0.0,
    "dual": lambda check: check["max_eig_combo"] <= 0.0,
}


def _certificate_checks(s1: Strategy1, pair: SdpPair, tol: float):
    """The candidate directions of s1 and their independent checks, keyed
    ``primal`` and ``dual``; raises ValueError when t' has not vanished."""
    frag = recover_certificate(s1, pair, tol)
    checks = {}
    if frag.primal_direction is not None:
        checks["primal"] = check_primal_direction(pair, frag.primal_direction, tol)
    if frag.dual_direction is not None:
        checks["dual"] = check_dual_direction(pair, frag.dual_direction, tol)
    return frag, checks


def _certifies(pair: SdpPair, tol: float):
    """Test of a player-1 strategy: some candidate direction passes its
    check, and every one that passes also holds its constraints with zero
    margin (min <A_i, W> >= 0, or lambda_max(sum_i y_i A_i) <= 0).  Returns
    the ``_certificate_checks`` of a strategy that passes, else None."""

    def certifies(s1: Strategy1):
        try:
            frag, checks = _certificate_checks(s1, pair, tol)
        except ValueError:
            return None
        passed = [key for key, check in checks.items() if check["ok"]]
        if passed and all(_ZERO_MARGIN[key](checks[key]) for key in passed):
            return frag, checks
        return None

    return certifies


def aux_value_relation(v: float, M: float) -> float:
    """Auxiliary optimum implied by a positive game value: w = v(M+1)/(1-v)."""
    if not 0.0 <= v < 1.0:
        raise ValueError("the game value lies in [0, 1) in the unbounded regime")
    return v * (M + 1.0) / (1.0 - v)


def run_pipeline(pair: SdpPair, config: Optional[PipelineConfig] = None) -> Outcome:
    """Classify a pair through its modified Dantzig game.

    Verification picks the outcome: the first candidate that passes its
    independent check is reported.  The strongly optimal pair recovered from
    the second player's strategy is tried first, then the unbounded
    directions read off the first player's strategy (t' = 0 expected).  When
    none passes the outcome is Inconclusive.  ``verification`` holds the
    check of every candidate tried, keyed ``optimal``, ``primal`` and
    ``dual``.

    The strategies bracket the game value, lower <= v <= upper.  The bracket
    only writes the diagnostics and the notes: a positive or a straddling
    value, and whether the first player's strategy has the unbounded-regime
    structure t' = 0, lower <= u <= upper.  The game solves' statuses only
    inform too: ``diagnostics["game_status"]`` holds both, and a note marks
    a NumericalFailure.

    The first player's game solve stops at the first iterate whose strategy
    passes the certificate checks with zero margin.  That certificate is
    already verified and is reported at once, without a bounded attempt; its
    bracket is that iterate's and can be some 1e-5 wide, since the second
    player's solve then only closes it from above and stops at
    ``verify_tol``.
    """
    config = config or PipelineConfig()
    pf = pair.to_float()
    if isinstance(config.bound_mode, str):
        M_used = practical_bound_M(pair)
    else:
        M_used = SolutionBoundM(mode=ARBITRARY, value=float(config.bound_mode))
    M = M_used.value
    tol = config.verify_tol
    game = solve_game(pf, M, config.solver_opts, _certifies(pf, tol), tol)
    v, lower, upper = game.value, game.lower, game.upper
    threshold = 0.5 / (M + 1.0)
    diagnostics = {
        "value_lower": lower,
        "value_upper": upper,
        "threshold": threshold,
        "s1_t": game.s1.t,
        "s1_u": game.s1.u,
        "s2_t": game.s2.t,
        "game_status": game.status,
    }
    out = Outcome(kind=INCONCLUSIVE, game_value=v, M_used=M_used, diagnostics=diagnostics)
    if NUMERICAL_FAILURE in game.status:
        out.notes.append(f"a game solve ended {NUMERICAL_FAILURE}; its best iterate was used")

    if game.certificate is None:
        try:
            X, y = recover_optimal(game.s2, tol=min(threshold, 1e-8))
        except ValueError as exc:
            out.notes.append(f"bounded-branch recovery failed: {exc}")
        else:
            out.verification["optimal"] = check_strongly_optimal(pf, X, y, tol)
            if out.verification["optimal"]["ok"]:
                out.kind = STRONGLY_OPTIMAL
                out.X_opt = X
                out.y_opt = y
                return out
            out.notes.append("recovered pair failed independent optimality verification")

    if lower > 0:
        out.notes.append("game value positive; no pair of strongly optimal solutions exists")
        out.implied_w_bar = aux_value_relation(v, M) if v < 1.0 else None
    else:
        out.notes.append(f"game value bracket [{lower:.3g}, {upper:.3g}] straddles 0")
    # u = v, when only the bracket is known
    structure_ok = lower - tol <= game.s1.u <= upper + tol and game.s1.t <= tol
    if not structure_ok:
        out.notes.append(
            "optimal strategy violates the unbounded-regime structure (t'=0, u=v); "
            "constraint qualification may fail"
        )
    try:
        # an early-stopped player 1 already ran these checks on this s1
        frag, checks = game.certificate or _certificate_checks(game.s1, pf, tol)
    except ValueError as exc:
        out.notes.append(f"certificate recovery failed: {exc}")
        return out
    if frag.empty:
        out.notes.append("no certificate inequality is strictly satisfied")
        return out
    out.verification.update(checks)
    primal_ok = checks.get("primal", {}).get("ok", False)
    dual_ok = checks.get("dual", {}).get("ok", False)
    if primal_ok:
        out.kind = PRIMAL_UNBOUNDED_CERT
        out.direction_X = frag.primal_direction
        if dual_ok:
            out.direction_y = frag.dual_direction
            out.notes.append("both certificate directions verified; primal listed first")
        return out
    if dual_ok:
        out.kind = DUAL_UNBOUNDED_CERT
        out.direction_y = frag.dual_direction
        return out
    out.notes.append("candidate directions failed independent verification")
    return out
