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
from typing import ClassVar, Optional, Union

import numpy as np

from .bounds import ARBITRARY, PRACTICAL, SolutionBoundM, practical_bound_M
from .game import GAME_TOL, Strategy1, Strategy2, solve_game
from .model import (
    VERIFY_TOL,
    SdpPair,
    SymMat,
    check_dual_direction,
    check_primal_direction,
    check_strongly_optimal,
)
from .solver import NUMERICAL_FAILURE

STRONGLY_OPTIMAL = "StronglyOptimal"
PRIMAL_UNBOUNDED_CERT = "PrimalUnboundedCert"
DUAL_UNBOUNDED_CERT = "DualUnboundedCert"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class PipelineConfig:
    game_tol: float = GAME_TOL
    bound_mode: Union[str, float] = "practical"
    verify_tol: ClassVar[float] = VERIFY_TOL

    def __post_init__(self):
        if not 0 < self.game_tol < np.inf:
            raise ValueError("game_tol must be finite and positive")
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


def recover_optimal(s2: Strategy2, tol: float):
    """Scale the second player's optimal strategy back to a primal/dual pair."""
    if s2.t <= tol:
        raise ValueError("t vanished; bounded-case recovery impossible")
    X = SymMat.from_array(s2.X.array / s2.t)
    return X, s2.y / s2.t


def recover_certificate(s1: Strategy1, pair: SdpPair, tol: float) -> dict:
    """Check an optimal player-1 strategy's blocks as unbounded directions.

    Returns ``{"primal": check_primal_direction(pair, s1.X, tol), "dual":
    check_dual_direction(pair, s1.y, tol)}``.  A passing primal check makes
    X' a Farkas certificate that the dual is infeasible (<C, X'> < 0 among
    its conditions), a passing dual check y' one that the primal is
    infeasible (b'y' > 0).  Both may pass.  Expects t' to have vanished: a
    positive-value game with t' > tol signals numerical trouble or a failed
    constraint qualification, and raises ValueError.
    """
    if s1.t > tol:
        raise ValueError("t' nonzero in unbounded regime")
    return {
        "primal": check_primal_direction(pair, s1.X, tol),
        "dual": check_dual_direction(pair, s1.y, tol),
    }


# a direction that passes its check only by the check's margin may have no
# exact counterpart; an early-stopped player 1 must do better than that
_ZERO_MARGIN = {
    "primal": lambda check: check["min_constraint_value"] >= 0.0,
    "dual": lambda check: check["max_eig_combo"] <= 0.0,
}


def _certifies(pair: SdpPair, tol: float):
    """Test of a player-1 strategy: some direction passes its check, and
    every one that passes also holds its constraints with zero margin
    (min <A_i, W> >= 0, or lambda_max(sum_i y_i A_i) <= 0).  Returns the
    ``recover_certificate`` checks of a strategy that passes, else None."""

    def certifies(s1: Strategy1):
        try:
            checks = recover_certificate(s1, pair, tol)
        except ValueError:
            return None
        passed = [key for key, check in checks.items() if check["ok"]]
        if passed and all(_ZERO_MARGIN[key](checks[key]) for key in passed):
            return checks
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
    the second player's strategy is tried first, then the first player's
    blocks X' and y' as unbounded directions (t' = 0 expected); a passing
    primal direction is listed first.  When none passes the outcome is
    Inconclusive.  ``verification`` holds the check of every candidate
    tried, keyed ``optimal``, ``primal`` and ``dual``: both direction checks
    whenever t' vanished, the failing one too.

    The strategies bracket the game value, lower <= v <= upper.  The bracket
    only writes the diagnostics and the notes: a positive or a straddling
    value, and whether the first player's strategy has the unbounded-regime
    structure t' = 0, lower <= u <= upper.  The game solves' statuses only
    inform too: ``diagnostics["game_status"]`` holds both, and a note marks
    a NumericalFailure.

    Under the practical bound, when the auxiliary solution predicts a
    strongly optimal pair (``AuxSolution.predicts_bounded``, decided by
    :func:`~sdgames.auxiliary.solve_aux` alone), player 1's game solve
    starts at the auxiliary point (see :func:`solve_game`'s ``point``);
    every other solve starts cold.  ``diagnostics["game_start"]`` records
    which: ``"aux"`` or ``"cold"``.

    The first player's game solve stops at the first iterate whose strategy
    passes the certificate checks with zero margin.  That certificate is
    already verified and is reported at once, without a bounded attempt; its
    bracket is that iterate's and can be some 1e-5 wide, since the second
    player's solve then only closes it from above and stops at
    ``VERIFY_TOL``, the tolerance of every check.  The game solves run to
    ``config.game_tol`` within ``solver.MAX_ITERS`` iterations.
    """
    config = config or PipelineConfig()
    pf = pair.to_float()
    if isinstance(config.bound_mode, str):
        M_used = practical_bound_M(pair)
    else:
        M_used = SolutionBoundM(mode=ARBITRARY, value=float(config.bound_mode))
    M = M_used.value
    aux = M_used.derived_from
    warm = M_used.mode == PRACTICAL and aux.predicts_bounded
    point = (aux.X.array, aux.y) if warm else None
    game = solve_game(pf, M, config.game_tol, _certifies(pf, VERIFY_TOL), point=point)
    v, lower, upper = game.value, game.lower, game.upper
    diagnostics = {
        "value_lower": lower,
        "value_upper": upper,
        "s1_t": game.s1.t,
        "s1_u": game.s1.u,
        "s2_t": game.s2.t,
        "game_status": game.status,
        "game_start": "aux" if warm else "cold",
    }
    out = Outcome(kind=INCONCLUSIVE, game_value=v, M_used=M_used, diagnostics=diagnostics)
    if NUMERICAL_FAILURE in game.status:
        out.notes.append(f"a game solve ended {NUMERICAL_FAILURE}; its best iterate was used")

    if game.certificate is None:
        try:
            X, y = recover_optimal(game.s2, tol=1e-8)
        except ValueError as exc:
            out.notes.append(f"bounded-branch recovery failed: {exc}")
        else:
            out.verification["optimal"] = check_strongly_optimal(pf, X, y, VERIFY_TOL)
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
    structure_ok = lower - VERIFY_TOL <= game.s1.u <= upper + VERIFY_TOL and game.s1.t <= VERIFY_TOL
    if not structure_ok:
        out.notes.append(
            "optimal strategy violates the unbounded-regime structure (t'=0, u=v); "
            "constraint qualification may fail"
        )
    try:
        # an early-stopped player 1 already ran these checks on this s1
        checks = game.certificate or recover_certificate(game.s1, pf, VERIFY_TOL)
    except ValueError as exc:
        out.notes.append(f"certificate recovery failed: {exc}")
        return out
    out.verification.update(checks)
    passed = [key for key, check in checks.items() if check["ok"]]
    if not passed:
        out.notes.append("candidate directions failed independent verification")
        return out
    out.kind = PRIMAL_UNBOUNDED_CERT if passed[0] == "primal" else DUAL_UNBOUNDED_CERT
    if "primal" in passed:
        out.direction_X = game.s1.X
    if "dual" in passed:
        out.direction_y = np.array(game.s1.y)
    if len(passed) == 2:
        out.notes.append("both certificate directions verified; primal listed first")
    return out
