"""The modified semidefinite Dantzig game: block strategies, bilinear payoff,
response operators, and the two player SDPs.

Player 1 plays a density matrix diag(X, diag(y), t, u) of order n+m+2, player 2
plays diag(X, diag(y), t) of order n+m+1.  The payoff to player 1 is

    sum_i y1_i (t2 b_i - <A_i, X2>) + <X1, sum_i y2_i A_i - t2 C>
    + t1 (<C, X2> - b'y2) + u (tr(X2) + 1'y2 - t2 M).

That payoff is written down once, as the matrix P of :func:`payoff_matrix`:
payoff(s1, s2) = flat(s1)' P flat(s2).  The response operators
K(s1) = P' flat(s1) and L(s2) = P flat(s2) and both player SDPs are read off
P; best responses are extreme eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .blocks import BlockStructure, diag_block, free_scalar, matrix_block, matrix_equality, upper_triangle
from .model import VERIFY_TOL, SdpPair, SymMat, frobenius_inner, is_psd, max_eigenvalue, min_eigenvalue
from .solver import (
    DUAL_INFEASIBLE,
    MAX,
    MIN,
    PRIMAL_INFEASIBLE,
    START_BLEND,
    STOPPED_EARLY,
    StandardSdp,
    solve,
)

_TRACE_TOL = 1e-10
_PSD_TOL = 1e-7

GAME_TOL = 1e-10  # the player SDPs' default solver tolerance


@dataclass(frozen=True, eq=False)
class _BlockStrategy:
    """A block strategy diag(X, diag(y), scalars...), a density matrix.

    The scalar blocks are the fields after ``y``: (t,) or (t, u).
    """

    X: SymMat
    y: np.ndarray
    t: float

    def _scalars(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self)[2:])

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        for f in fields(self)[2:]:
            object.__setattr__(self, f.name, float(getattr(self, f.name)))
        total = self.trace_sum()
        if abs(total - 1.0) > _TRACE_TOL:
            raise ValueError(f"strategy must have unit trace, got {total!r}")
        tol = _PSD_TOL * (1.0 + max(1.0, self.X.max_abs_entry()))
        if (self.y.size and float(np.min(self.y)) < -tol) or min(self._scalars()) < -tol:
            raise ValueError("strategy blocks must be nonnegative")
        if not is_psd(self.X.to_float(), _PSD_TOL):
            raise ValueError("strategy matrix block must be psd")

    def trace_sum(self) -> float:
        return float(sum(self._scalars(), np.trace(self.X.array) + np.sum(self.y)))

    def _flat(self) -> np.ndarray:
        """flat(s) = (X raveled, y, scalars), the vector P acts on."""
        return np.concatenate([self.X.array.ravel(), self.y, self._scalars()])

    @classmethod
    def _normalized(cls, X, y, *scalars):
        """Clip eigenvalues of X in [-1e-9 (1 + max |X|), 0) and negative y and
        scalars to zero, then rescale to unit trace."""
        Xa = np.asarray(X, dtype=float)
        scale = 1.0 + float(np.max(np.abs(Xa)))
        w, V = np.linalg.eigh(0.5 * (Xa + Xa.T))
        w = np.where((w < 0) & (w >= -1e-9 * scale), 0.0, w)
        Xa = (V * w) @ V.T
        y = np.maximum(np.asarray(y, dtype=float), 0.0)
        scalars = [max(float(v), 0.0) for v in scalars]
        total = float(sum(scalars, np.trace(Xa) + np.sum(y)))
        if total <= 0:
            raise ValueError("cannot normalize a zero strategy")
        return cls(SymMat.from_array(Xa / total), y / total, *(v / total for v in scalars))


@dataclass(frozen=True, eq=False)
class Strategy1(_BlockStrategy):
    """First player's block strategy (X, y, t, u), a density matrix."""

    u: float


@dataclass(frozen=True, eq=False)
class Strategy2(_BlockStrategy):
    """Second player's block strategy (X, y, t), a density matrix."""


@dataclass(frozen=True, eq=False)
class GameSolution:
    """Strategies and the value bracket they certify: every s2 pays player 1
    at least ``lower`` against s1, and no s1 earns more than ``upper``
    against s2, so lower <= v <= upper for the game value v.

    ``certificate`` is what the ``certifies`` test of :func:`solve_game`
    returned on s1 when player 1's solve stopped there, else None.  s1 then
    proves the value positive, and s2 is solved only to the verification
    tolerance: ``upper`` stays a certified bound, up to a few 1e-7 higher.

    ``status`` holds the solver statuses of player 1's and player 2's solves.
    They only inform: the bracket holds whatever they say.
    """

    s1: Strategy1
    s2: Strategy2
    lower: float
    upper: float
    certificate: object = None
    status: tuple = ()

    def __post_init__(self):
        # both hold for any strategies; only rounding may break them
        slack = 1e-7 * (1.0 + abs(self.upper))
        if self.lower > self.upper + slack or self.upper < -slack:
            raise ValueError("the value bracket must have lower <= upper and upper >= 0")

    @property
    def value(self) -> float:
        return 0.5 * (self.lower + self.upper)


def normalized_strategy1(X, y, t: float, u: float) -> Strategy1:
    """Clip tiny negative eigenvalues and rescale to unit trace."""
    return Strategy1._normalized(X, y, t, u)


def normalized_strategy2(X, y, t: float) -> Strategy2:
    return Strategy2._normalized(X, y, t)


def payoff(pair: SdpPair, M: float, s1: Strategy1, s2: Strategy2) -> float:
    """Bilinear payoff to player 1."""
    if s1.X.dim != pair.n or s2.X.dim != pair.n:
        raise ValueError("strategy dimensions do not match the pair")
    if s1.y.size != pair.m or s2.y.size != pair.m:
        raise ValueError("strategy multiplier lengths do not match the pair")
    if M <= 0:
        raise ValueError("the solution bound must be positive")
    b = pair.b_array
    C = pair.C.to_float()
    X2 = s2.X.to_float()
    total = float(s1.y @ (s2.t * b - pair.apply_A(X2)))
    total += float(np.tensordot(s1.X.array, pair.apply_AT(s2.y) - s2.t * C.array, axes=2))
    total += s1.t * (frobenius_inner(C, X2) - float(b @ s2.y))
    total += s1.u * (float(np.trace(X2.array)) + float(np.sum(s2.y)) - s2.t * M)
    return total


def payoff_matrix(pair: SdpPair, M: float) -> np.ndarray:
    """The matrix P with payoff(s1, s2) = flat(s1)' P flat(s2).

    flat(s) = (X raveled, y, t[, u]), so P is (n^2+m+2) x (n^2+m+1).  With
    A the m x n^2 matrix of the raveled A_i, its rows X1, y1, t1, u against
    its columns X2, y2, t2 are

        [  0      A'   -vec C ]
        [ -A      0     b     ]
        [ vec C' -b'    0     ]
        [ vec I'  1'   -M     ]

    The first n^2+m+1 rows, the symmetric subgame, are antisymmetric.
    """
    n, m = pair.n, pair.m
    d = n * n
    A = pair.A_stack.reshape(m, d)
    c = pair.C.array.ravel()
    Q = np.zeros((d + m + 1, d + m + 1))
    Q[:d, d:-1] = A.T
    Q[:d, -1] = -c
    Q[d:-1, -1] = pair.b_array
    return np.vstack([Q - Q.T, np.concatenate([np.eye(n).ravel(), np.ones(m), [-float(M)]])])


def _block_matrix(v: np.ndarray, n: int) -> SymMat:
    """diag(V, diag(w)) for v = (V raveled, w), V of order n."""
    B = np.diag(np.concatenate([np.zeros(n), v[n * n:]]))
    B[:n, :n] = v[:n * n].reshape(n, n)
    return SymMat.from_array(B)


def response_matrix_K(pair: SdpPair, M: float, s1: Strategy1) -> SymMat:
    """Block matrix with payoff(s1, s2) = <K(s1), block(s2)> for every s2,
    the layout of P' flat(s1).

    Blocks: t C - sum_i y_i A_i + u I (n x n); diagonal <X, A_i> - t b_i + u
    (m entries); scalar b'y - <X, C> - u M.
    """
    return _block_matrix(payoff_matrix(pair, M).T @ s1._flat(), pair.n)


def response_matrix_L(pair: SdpPair, M: float, s2: Strategy2) -> SymMat:
    """Block matrix with payoff(s1, s2) = <block(s1), L(s2)> for every s1,
    the layout of P flat(s2).

    Blocks: sum_i y_i A_i - t C (n x n); diagonal t b_i - <A_i, X> (m);
    scalar <C, X> - b'y; scalar tr(X) + 1'y - t M.
    """
    return _block_matrix(payoff_matrix(pair, M) @ s2._flat(), pair.n)


def best_response_value_p2(pair: SdpPair, M: float, s1: Strategy1) -> float:
    """min over strategies of player 2 of payoff(s1, .) = lambda_min(K(s1))."""
    return min_eigenvalue(response_matrix_K(pair, M, s1))


def best_response_value_p1(pair: SdpPair, M: float, s2: Strategy2) -> float:
    """max over strategies of player 1 of payoff(., s2) = lambda_max(L(s2))."""
    return max_eigenvalue(response_matrix_L(pair, M, s2))


def _response_sdp(pair: SdpPair, R: np.ndarray, sign: float, sense: str, name: str) -> StandardSdp:
    """sense v s.t. sign (R z - v I) = S psd over unit-trace block strategies z.

    z = flat(strategy) has blocks (X, y, scalars) and R z is a response laid
    out as diag(matrix, diagonal); S has the response's blocks.  Rows: the
    matrix block's entries p <= q, each diagonal entry, then tr z = 1.
    """
    n, m = pair.n, pair.m
    d = n * n

    def blocks(size):
        return [matrix_block(n), diag_block(m)] + [diag_block(1)] * (size - d - m)

    nz = R.shape[1]  # the strategy's columns; v is column nz
    zb = blocks(nz)
    st = BlockStructure(zb + [free_scalar()] + blocks(R.shape[0]))
    V_ = len(zb)
    sR = sign * R
    # the strategy's matrix block never enters the response's matrix block
    terms = {k: sR[:d, st.slices[k]].T for k in range(1, V_)}
    terms[V_] = [-sign * np.eye(n)]
    E, e = matrix_equality(st, terms, (V_ + 1, -1.0))
    rows = np.zeros((R.shape[0] - d + 1, st.dim))
    rows[:-1, :nz] = sR[d:]
    rows[:-1, nz] = -sign
    np.fill_diagonal(rows[:-1, st.slices[V_ + 1].stop:], -1.0)
    rows[-1, :nz] = np.concatenate([np.eye(n).ravel(), np.ones(nz - d)])
    obj = np.zeros(st.dim)
    obj[nz] = 1.0
    return StandardSdp(st, obj, np.vstack([E, rows]), np.concatenate([e, np.zeros(len(rows) - 1), [1.0]]),
                       sense=sense, name=f"{pair.name or 'pair'}-{name}")


def _player2_start(res1) -> tuple:
    """Player 2's iterate (x, y, s) that is player 1's iterate ``res1`` read
    through the duality of the two :func:`_response_sdp` programs.

    Player 1's blocks are (X, y, t, u, v, SX, Sy, St), player 2's (X, y, t,
    v, TX, Ty, Tt, Tu).  Player 1's dual slack on its strategy and slack
    blocks is player 2's primal on its slack and strategy blocks, and the
    other way round; player 2's v is minus player 1's trace-row multiplier,
    and its multipliers are player 1's X over p <= q (the rows of
    ``matrix_equality``), y, t, u and v.  Player 2's primal and dual
    objectives are minus player 1's dual and primal ones.  Where player 1's
    dual residual vanishes on its slack blocks, player 2's primal and dual
    residuals are player 1's dual and primal ones, those of the off-diagonal
    matrix rows halved or doubled.
    """
    x, y, s = res1.primal, res1.dual, res1.dual_slack
    xv = [*s[5:8], [-y[-1]], *s[:4]]
    sv = [*x[5:8], [0.0], *x[:4]]
    iu, ju, _ = upper_triangle(x[0].shape[0])
    return xv, np.concatenate([x[0][iu, ju], *x[1:5]]), sv


def _player1_start(pair: SdpPair, M: float, X, y) -> tuple:
    """Player 1's iterate (x, y, s) built from a primal-dual point (X, y) of
    the pair, the duality of :func:`_player2_start` read the other way round.

    With tau = tr X + 1'y + 1, s2 = (X, y, 1)/tau and s1 = (X, y, 1, 0)/tau
    are strategies whose payoff is near 0 when (X, y) is near a strongly
    optimal pair, the equilibrium of a game of value 0.  Both are blended a
    fraction 1e-3 toward the uniform strategy, so that every block is
    positive definite.  With v1 = lambda_min(K(s1)) - 1e-3 and
    v2 = lambda_max(L(s2)) + 1e-3, player 1's primal is (s1, v1,
    K(s1) - v1 I), its multipliers are s2's X over p <= q, y, t and -v2, and
    its dual slack is (v2 I - L(s2), 0, s2): strictly inside the cone,
    primal and dual feasible up to rounding, with <x, s> = v2 - v1.
    """
    n, m = pair.n, pair.m
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    tau = float(np.trace(X) + np.sum(y)) + 1.0

    def blend(k):
        """(X, y, 1, 0...) / tau with k scalars, blended toward I / (n + m + k)."""
        u = START_BLEND / (n + m + k)
        Xb = (1.0 - START_BLEND) / tau * X + u * np.eye(n)
        yb = (1.0 - START_BLEND) / tau * y + u
        scalars = np.full(k, u)
        scalars[0] += (1.0 - START_BLEND) / tau
        return Xb, yb, scalars

    X1, y1, ts1 = blend(2)
    X2, y2, ts2 = blend(1)
    P = payoff_matrix(pair, M)
    d = n * n
    K = P.T @ np.concatenate([X1.ravel(), y1, ts1])
    L = P @ np.concatenate([X2.ravel(), y2, ts2])
    KX, LX = K[:d].reshape(n, n), L[:d].reshape(n, n)
    v1 = min(np.linalg.eigvalsh(KX)[0], K[d:].min()) - START_BLEND
    v2 = max(np.linalg.eigvalsh(LX)[-1], L[d:].max()) + START_BLEND
    x = [X1, y1, ts1[:1], ts1[1:], [v1], KX - v1 * np.eye(n), K[d:-1] - v1, K[-1:] - v1]
    s = [v2 * np.eye(n) - LX, v2 - L[d:-2], v2 - L[-2:-1], v2 - L[-1:], [0.0], X2, y2, ts2]
    iu, ju, _ = upper_triangle(n)
    return x, np.concatenate([X2[iu, ju], y2, ts2, [-v2]]), s


def game_sdp_player1(pair: SdpPair, M: float) -> StandardSdp:
    """max v s.t. K(X, y, t, u) - v I psd, (X, y, t, u) a unit-trace block strategy."""
    return _response_sdp(pair, payoff_matrix(pair, M).T, 1.0, MAX, "game-p1")


def game_sdp_player2(pair: SdpPair, M: float) -> StandardSdp:
    """min v s.t. v I - L(X, y, t) psd, (X, y, t) a unit-trace block strategy."""
    return _response_sdp(pair, payoff_matrix(pair, M), -1.0, MIN, "game-p2")


def _certifying_iterate(pair: SdpPair, M: float, certifies):
    """Stop test for player 1's solve: the iterate's strategy s1 has t <= VERIFY_TOL,
    lambda_min(K(s1)) > 0 and ``certifies(s1)`` returns a true value.

    The primal blocks are (X, y, t, u, v, ...).  v > 0 and t <= VERIFY_TOL * trace
    come first: they cost no eigenvalue call.  The iterates that pass them
    build P for K(s1) anew; a P held through the solve would raise its peak
    memory.  lambda_min(K(s1)) > 0 proves the value positive, so at value 0
    ``certifies`` is never asked.  An accepted iterate returns (s1,
    lambda_min(K(s1)), what ``certifies`` returned), any other None.
    """

    def stop(blocks):
        X, y, (t,), (u,), (v,) = blocks[:5]
        if v <= 0 or t > VERIFY_TOL * (np.trace(X) + np.sum(y) + t + u):
            return None
        try:
            s1 = normalized_strategy1(X, y, t, u)
        except ValueError:  # an iterate rounded off the cone
            return None
        lower = best_response_value_p2(pair, M, s1)
        if lower <= 0:
            return None
        checks = certifies(s1)
        return (s1, lower, checks) if checks else None

    return stop


def solve_game(
    pair: SdpPair, M: float, tol: float = GAME_TOL, certifies=None, point=None,
) -> GameSolution:
    """Solve both player SDPs and return their strategies with the bracket
    lower = lambda_min(K(s1)) <= v <= upper = lambda_max(L(s2)).

    The bracket holds for any strategies, so every solve status is accepted:
    a solve that does not converge leaves its best iterate, and only a wider
    bracket or a failed verification downstream shows it.  The statuses are
    kept as ``GameSolution.status``.

    With ``certifies``, a test of player 1's strategy, player 1's solve stops
    at the first iterate whose normalized strategy s1 has t <= VERIFY_TOL,
    lambda_min(K(s1)) > 0 and ``certifies(s1)`` true; the solve's
    ``certificate`` brings back s1, lambda_min(K(s1)) and that value, which
    is kept as ``GameSolution.certificate``.  Any such s1 proves the value
    positive, optimal or not; ``lower`` is then its bound, below the value
    by up to a few 1e-5.  Player 2 then only closes the bracket from above, so its solve
    stops at tolerance max(tol, VERIFY_TOL): upper = lambda_max(L(s2)) is
    certified for any s2, and a bracket already some 1e-5 wide cannot show
    the extra digits.  Every other solve uses ``tol``.

    The two player SDPs are one primal-dual pair: each is the Lagrangian dual
    of the other, and player 1's primal-dual iterate with x and s swapped is
    a player-2 iterate with the same gap (:func:`_player2_start`).  So player
    2's solve starts where player 1's ended and keeps its own tolerance and
    convergence test; it runs only the iterations that point still lacks,
    one or two after a converged player 1.  It starts cold when player 1
    ended with a Farkas status, whose iterate diverged.

    ``point = (X, y)``, a primal-dual point of the pair such as the auxiliary
    solve's, starts player 1 at :func:`_player1_start`'s iterate instead of
    the scaled identity.  Near a strongly optimal pair that iterate is near
    the game's equilibrium, so player 1 runs only the few iterations that
    close its gap; the convergence and stop tests are the same from either
    start.
    """
    if M <= 0:
        raise ValueError("the solution bound must be positive")
    pf = pair.to_float()
    stop = None if certifies is None else _certifying_iterate(pf, M, certifies)
    start = None if point is None else _player1_start(pf, M, *point)
    res1 = solve(game_sdp_player1(pf, M), tol, stop=stop, start=start)
    if res1.status == STOPPED_EARLY:
        s1, lower, certificate = res1.certificate
        tol2 = max(tol, VERIFY_TOL)
    else:
        s1 = normalized_strategy1(res1.primal[0], res1.primal[1], res1.primal[2][0], res1.primal[3][0])
        lower, certificate, tol2 = best_response_value_p2(pf, M, s1), None, tol
    # a Farkas status means player 1's iterates diverged: start player 2 cold
    warm = res1.status not in (PRIMAL_INFEASIBLE, DUAL_INFEASIBLE)
    res2 = solve(game_sdp_player2(pf, M), tol2, start=_player2_start(res1) if warm else None)
    s2 = normalized_strategy2(res2.primal[0], res2.primal[1], res2.primal[2][0])
    return GameSolution(s1, s2, lower, best_response_value_p1(pf, M, s2), certificate,
                        (res1.status, res2.status))
