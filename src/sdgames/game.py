"""The modified semidefinite Dantzig game: block strategies, bilinear payoff,
response operators, and the two player SDPs.

Player 1 plays a density matrix diag(X, diag(y), t, u) of order n+m+2, player 2
plays diag(X, diag(y), t) of order n+m+1.  The payoff to player 1 is

    sum_i y1_i (t2 b_i - <A_i, X2>) + <X1, sum_i y2_i A_i - t2 C>
    + t1 (<C, X2> - b'y2) + u (tr(X2) + 1'y2 - t2 M).

The payoff tensor is never materialized; the response operators K (linear in
player 2's strategy) and L (linear in player 1's) carry the game, and best
responses are extreme eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from .blocks import BlockStructure, diag_block, free_scalar, matrix_block, matrix_equality
from .model import SdpPair, SymMat, frobenius_inner, is_psd, max_eigenvalue, min_eigenvalue
from .solver import MAX, MAX_ITERATIONS, MIN, OPTIMAL, SolverOptions, StandardSdp, solve
from .auxiliary import SolverFailure

_TRACE_TOL = 1e-10
_PSD_TOL = 1e-7


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

    def as_block_matrix(self) -> SymMat:
        n = self.X.dim
        d = np.concatenate([self.y, self._scalars()])
        B = np.zeros((n + d.size, n + d.size))
        B[:n, :n] = self.X.array
        B[n:, n:] = np.diag(d)
        return SymMat.from_array(B)

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
        return cls(SymMat.from_array(Xa / total, symmetrize=True), y / total, *(v / total for v in scalars))


@dataclass(frozen=True, eq=False)
class Strategy1(_BlockStrategy):
    """First player's block strategy (X, y, t, u), a density matrix."""

    u: float


@dataclass(frozen=True, eq=False)
class Strategy2(_BlockStrategy):
    """Second player's block strategy (X, y, t), a density matrix."""


@dataclass(frozen=True, eq=False)
class GameSolution:
    value: float
    s1: Strategy1
    s2: Strategy2
    residual: float
    value_p1: float = 0.0
    value_p2: float = 0.0

    def __post_init__(self):
        if self.value < -1e-7 * (1.0 + abs(self.value)):
            raise ValueError("the modified game value cannot be negative")


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


def response_matrix_K(pair: SdpPair, M: float, s1: Strategy1) -> SymMat:
    """Block matrix with payoff(s1, s2) = <K(s1), block(s2)> for every s2.

    Blocks: t C - sum_i y_i A_i + u I (n x n); diagonal <X, A_i> - t b_i + u
    (m entries); scalar b'y - <X, C> - u M.
    """
    n = pair.n
    b = pair.b_array
    Xf = s1.X.to_float()
    K = np.zeros((n + pair.m + 1, n + pair.m + 1))
    K[:n, :n] = s1.t * pair.C.array - pair.apply_AT(s1.y) + s1.u * np.eye(n)
    K[n:, n:] = np.diag(np.append(
        pair.apply_A(Xf) - s1.t * b + s1.u,
        float(b @ s1.y) - frobenius_inner(Xf, pair.C.to_float()) - s1.u * M,
    ))
    return SymMat.from_array(K, symmetrize=True)


def response_matrix_L(pair: SdpPair, M: float, s2: Strategy2) -> SymMat:
    """Block matrix with payoff(s1, s2) = <block(s1), L(s2)> for every s1.

    Blocks: sum_i y_i A_i - t C (n x n); diagonal t b_i - <A_i, X> (m);
    scalar <C, X> - b'y; scalar tr(X) + 1'y - t M.
    """
    n = pair.n
    b = pair.b_array
    Xf = s2.X.to_float()
    L = np.zeros((n + pair.m + 2, n + pair.m + 2))
    L[:n, :n] = pair.apply_AT(s2.y) - s2.t * pair.C.array
    L[n:, n:] = np.diag(np.concatenate([
        s2.t * b - pair.apply_A(Xf),
        [frobenius_inner(pair.C.to_float(), Xf) - float(b @ s2.y),
         float(np.trace(Xf.array)) + float(np.sum(s2.y)) - s2.t * M],
    ]))
    return SymMat.from_array(L, symmetrize=True)


def best_response_value_p2(pair: SdpPair, M: float, s1: Strategy1) -> float:
    """min over strategies of player 2 of payoff(s1, .) = lambda_min(K(s1))."""
    return min_eigenvalue(response_matrix_K(pair, M, s1))


def best_response_value_p1(pair: SdpPair, M: float, s2: Strategy2) -> float:
    """max over strategies of player 1 of payoff(., s2) = lambda_max(L(s2))."""
    return max_eigenvalue(response_matrix_L(pair, M, s2))


def subgame_payoff(pair: SdpPair, z1: Strategy2, z2: Strategy2) -> float:
    """Payoff of the symmetric subgame on the first n+m+1 blocks: player 1
    plays z1 with u = 0, so M drops out."""
    return payoff(pair, 1.0, Strategy1(z1.X, z1.y, z1.t, 0.0), z2)


def game_sdp_player1(pair: SdpPair, M: float) -> StandardSdp:
    """max v s.t. K(X, y, t, u) - v I psd, (X, y, t, u) a unit-trace block strategy."""
    n, m = pair.n, pair.m
    A = pair.A_stack
    C = pair.C.array
    b = pair.b_array
    st = BlockStructure(
        [matrix_block(n), diag_block(m), diag_block(1), diag_block(1), free_scalar(),
         matrix_block(n), diag_block(m), diag_block(1)]
    )
    X_, Y_, T_, U_, V_, SM_, SD_, SS_ = range(8)
    I = np.eye(n)
    # t C - sum y_i A_i + (u - v) I - S_mat = 0 entrywise
    E, e = matrix_equality(st, {T_: [C], Y_: -A, U_: [I], V_: [-I]}, (SM_, -1.0))
    rows = np.zeros((m + 2, st.dim))
    X, Y, T, U, V, _, SD, SS = st.split(rows)
    V[:-1] = -1.0  # -v in every row but the trace row
    # <A_i, X> - t b_i + u - v - S_diag_i = 0
    X[:m] = A
    T[:m, 0] = -b
    U[:m] = 1.0
    np.fill_diagonal(SD, -1.0)
    # b'y - <X, C> - u M - v - S_sc = 0
    X[m] = -C
    Y[m] = b
    U[m] = -float(M)
    SS[m] = -1.0
    # tr X + 1'y + t + u = 1
    X[m + 1] = I
    Y[m + 1] = 1.0
    T[m + 1] = 1.0
    U[m + 1] = 1.0
    obj = np.zeros(st.dim)
    st.view(obj, V_)[:] = 1.0
    return StandardSdp(st, obj, np.vstack([E, rows]), np.concatenate([e, np.zeros(m + 1), [1.0]]),
                       sense=MAX, name=f"{pair.name or 'pair'}-game-p1")


def game_sdp_player2(pair: SdpPair, M: float) -> StandardSdp:
    """min v s.t. v I - L(X, y, t) psd, (X, y, t) a unit-trace block strategy."""
    n, m = pair.n, pair.m
    A = pair.A_stack
    C = pair.C.array
    b = pair.b_array
    st = BlockStructure(
        [matrix_block(n), diag_block(m), diag_block(1), free_scalar(),
         matrix_block(n), diag_block(m), diag_block(1), diag_block(1)]
    )
    X_, Y_, T_, V_, SM_, SD_, SS1_, SS2_ = range(8)
    I = np.eye(n)
    # v I - sum y_i A_i + t C - S_mat = 0 entrywise
    E, e = matrix_equality(st, {V_: [I], Y_: -A, T_: [C]}, (SM_, -1.0))
    rows = np.zeros((m + 3, st.dim))
    X, Y, T, V, _, SD, SS1, SS2 = st.split(rows)
    V[:-1] = 1.0  # v in every row but the trace row
    # v - t b_i + <A_i, X> - S_diag_i = 0
    T[:m, 0] = -b
    X[:m] = A
    np.fill_diagonal(SD, -1.0)
    # v - <C, X> + b'y - S_sc1 = 0
    X[m] = -C
    Y[m] = b
    SS1[m] = -1.0
    # v - tr X - 1'y + t M - S_sc2 = 0
    X[m + 1] = -I
    Y[m + 1] = -1.0
    T[m + 1] = float(M)
    SS2[m + 1] = -1.0
    # tr X + 1'y + t = 1
    X[m + 2] = I
    Y[m + 2] = 1.0
    T[m + 2] = 1.0
    obj = np.zeros(st.dim)
    st.view(obj, V_)[:] = 1.0
    return StandardSdp(st, obj, np.vstack([E, rows]), np.concatenate([e, np.zeros(m + 2), [1.0]]),
                       sense=MIN, name=f"{pair.name or 'pair'}-game-p2")


def solve_game(pair: SdpPair, M: float, opts: Optional[SolverOptions] = None) -> GameSolution:
    """Solve both player SDPs and return the equilibrium.

    The value is the average of the two optima; the residual aggregates the
    solver disagreement and the best-response gaps of the extracted strategies.
    """
    if M <= 0:
        raise ValueError("the solution bound must be positive")
    opts = opts or SolverOptions(tol=1e-10, max_iters=300)
    pf = pair.to_float()
    # both player problems are feasible and bounded by construction, so any
    # status besides convergence (or an iteration-capped near-solve) is a failure
    acceptable = (OPTIMAL, MAX_ITERATIONS)
    res1 = solve(game_sdp_player1(pf, M), opts)
    if res1.status not in acceptable:
        raise SolverFailure(f"player 1 game SDP failed: {res1.status}")
    res2 = solve(game_sdp_player2(pf, M), opts)
    if res2.status not in acceptable:
        raise SolverFailure(f"player 2 game SDP failed: {res2.status}")
    v1, v2 = res1.value, res2.value
    s1 = normalized_strategy1(res1.primal[0], res1.primal[1], res1.primal[2][0], res1.primal[3][0])
    s2 = normalized_strategy2(res2.primal[0], res2.primal[1], res2.primal[2][0])
    v = 0.5 * (v1 + v2)
    residual = max(
        abs(v1 - v2),
        abs(best_response_value_p2(pf, M, s1) - v),
        abs(best_response_value_p1(pf, M, s2) - v),
    )
    return GameSolution(value=v, s1=s1, s2=s2, residual=residual, value_p1=v1, value_p2=v2)
