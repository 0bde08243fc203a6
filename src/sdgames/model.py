"""Symmetric matrices, SDP pairs in primal/dual normal form, and the checks of
every result the pipeline reports: a strongly optimal pair and the two
unbounded-direction certificates.

The primal program is  min <C, X>  s.t.  <A_i, X> >= b_i,  X psd;
its dual is            max b'y     s.t.  sum_i y_i A_i <= C (Loewner),  y >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
import numpy as np

EXACT = "exact"
FLOAT = "float"


def _is_exact_scalar(v) -> bool:
    return isinstance(v, (int, Fraction)) or (
        isinstance(v, np.integer)
    )


class SymMat:
    """Dense symmetric real matrix.

    Carries either exact rational entries (``Fraction``/``int``) or binary64
    floats; the mode is fixed per instance and conversion to float is an
    explicit, one-way step (:meth:`to_float`).
    """

    __slots__ = ("dim", "_rows", "_arr", "mode")

    def __init__(self, entries):
        if isinstance(entries, SymMat):
            entries = entries._rows if entries.mode == EXACT else entries._arr
        if isinstance(entries, np.ndarray) and entries.dtype != object:
            arr = np.array(entries, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ValueError(f"expected a square matrix, got shape {arr.shape}")
            if arr.shape[0] < 1:
                raise ValueError("dimension must be at least 1")
        else:
            rows = [list(r) for r in entries]
            n = len(rows)
            if n < 1 or any(len(r) != n for r in rows):
                raise ValueError("expected a square matrix")
            if all(_is_exact_scalar(v) for r in rows for v in r):
                rows = [[Fraction(v) for v in r] for r in rows]
                for i in range(n):
                    for j in range(i):
                        if rows[i][j] != rows[j][i]:
                            raise ValueError("matrix is not symmetric")
                self.dim = n
                self._rows = tuple(tuple(r) for r in rows)
                self._arr = None
                self.mode = EXACT
                return
            arr = np.array([[float(v) for v in r] for r in rows], dtype=float)
        bad = np.argwhere(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"non-finite entry at ({bad[0, 0]}, {bad[0, 1]})")
        if not np.array_equal(arr, arr.T):
            raise ValueError("matrix is not symmetric")
        arr.flags.writeable = False
        self.dim = int(arr.shape[0])
        self._arr = arr
        self._rows = None
        self.mode = FLOAT

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "SymMat":
        """Wrap the symmetric part 0.5 (a + a') of a float array; a symmetric
        array's entries are kept bit for bit."""
        arr = np.asarray(arr, dtype=float)
        return cls(0.5 * (arr + arr.T))

    @classmethod
    def identity(cls, n: int) -> "SymMat":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, n: int) -> "SymMat":
        return cls([[Fraction(0)] * n for _ in range(n)])

    @property
    def array(self) -> np.ndarray:
        """Read-only float64 view of the entries (does not change the mode)."""
        if self._arr is not None:
            return self._arr
        return np.array([[float(v) for v in r] for r in self._rows], dtype=float)

    def entry(self, i: int, j: int):
        if self.mode == EXACT:
            return self._rows[i][j]
        return self._arr[i, j]

    def rows(self):
        if self.mode == EXACT:
            return self._rows
        return tuple(tuple(v for v in r) for r in self._arr)

    def to_float(self) -> "SymMat":
        """Explicit one-way conversion to float mode."""
        if self.mode == FLOAT:
            return self
        return SymMat(self.array)

    def max_abs_entry(self) -> float:
        return float(np.max(np.abs(self.array)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymMat):
            return NotImplemented
        if self.dim != other.dim:
            return False
        if self.mode == FLOAT and other.mode == FLOAT:
            return np.array_equal(self._arr, other._arr)
        # exact across modes: Fraction(float) is the float's exact value
        return all(Fraction(a) == Fraction(b)
                   for ra, rb in zip(self.rows(), other.rows()) for a, b in zip(ra, rb))

    def __hash__(self):
        # equality crosses modes (exact == float when every float is the
        # exact entry), so only the dimension may enter the hash
        return hash(self.dim)

    def __repr__(self) -> str:
        return f"SymMat(dim={self.dim}, mode={self.mode})"


@dataclass(frozen=True)
class SdpPair:
    """Problem data (C, A_1..A_m, b) defining the primal/dual normal-form pair.

    The constraint operator X -> (<A_i, X>)_i and its adjoint
    y -> sum_i y_i A_i live here (:meth:`apply_A`, :meth:`apply_AT`), in float
    arithmetic over one stacked copy of the A_i (:attr:`A_stack`).
    """

    C: SymMat
    A: tuple
    b: tuple
    name: str = ""

    def __post_init__(self):
        A = tuple(self.A)
        b = tuple(self.b)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if len(A) < 1:
            raise ValueError("need at least one constraint matrix")
        if len(b) != len(A):
            raise ValueError("length of b must match the number of constraints")
        n = self.C.dim
        if any(Ai.dim != n for Ai in A):
            raise ValueError("all constraint matrices must share the objective's dimension")
        modes = {self.C.mode} | {Ai.mode for Ai in A}
        b_exact = all(_is_exact_scalar(v) for v in b)
        if modes == {EXACT} and b_exact:
            object.__setattr__(self, "b", tuple(Fraction(v) for v in b))
        else:
            if EXACT in modes or b_exact:
                # mixed input collapses to float mode
                object.__setattr__(self, "C", self.C.to_float())
                object.__setattr__(self, "A", tuple(Ai.to_float() for Ai in A))
            object.__setattr__(self, "b", tuple(float(v) for v in b))
            bad = np.flatnonzero(~np.isfinite(self.b))
            if bad.size:
                raise ValueError(f"b[{bad[0]}] is not finite")

    @property
    def n(self) -> int:
        return self.C.dim

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def mode(self) -> str:
        return self.C.mode

    @cached_property
    def b_array(self) -> np.ndarray:
        """b as one read-only float array."""
        b = np.array([float(v) for v in self.b], dtype=float)
        b.flags.writeable = False
        return b

    @cached_property
    def A_stack(self) -> np.ndarray:
        """The A_i as one read-only float (m, n, n) array."""
        A = np.stack([Ai.array for Ai in self.A])
        A.flags.writeable = False
        return A

    def apply_A(self, X: SymMat) -> np.ndarray:
        """The vector (<A_i, X>)_i."""
        return np.tensordot(self.A_stack, X.array, axes=2)

    def apply_AT(self, y) -> np.ndarray:
        """The matrix sum_i y_i A_i."""
        return np.tensordot(np.asarray(y, dtype=float), self.A_stack, axes=1)

    def to_float(self) -> "SdpPair":
        if self.mode == FLOAT:
            return self
        return SdpPair(
            C=self.C.to_float(),
            A=tuple(Ai.to_float() for Ai in self.A),
            b=tuple(float(v) for v in self.b),
            name=self.name,
        )

    def max_abs_entry(self) -> float:
        return max(self.C.max_abs_entry(), float(np.max(np.abs(self.A_stack))),
                   float(np.max(np.abs(self.b_array))))


@dataclass(frozen=True)
class PrimalPoint:
    X: SymMat


@dataclass(frozen=True)
class DualPoint:
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "y", tuple(self.y))

    @property
    def array(self) -> np.ndarray:
        return np.array([float(v) for v in self.y], dtype=float)


def frobenius_inner(A: SymMat, B: SymMat):
    """Trace inner product sum_ij A_ij B_ij; exact when both operands are exact."""
    if A.dim != B.dim:
        raise ValueError(f"dimension mismatch: {A.dim} vs {B.dim}")
    if A.mode == EXACT and B.mode == EXACT:
        return sum(a * b for ra, rb in zip(A.rows(), B.rows()) for a, b in zip(ra, rb))
    return float(np.tensordot(A.array, B.array, axes=2))


def min_eigenvalue(A: SymMat) -> float:
    """Smallest eigenvalue via a dense symmetric eigensolver."""
    return float(np.linalg.eigvalsh(A.array)[0])


def max_eigenvalue(A: SymMat) -> float:
    return float(np.linalg.eigvalsh(A.array)[-1])


def is_psd(A: SymMat, tol: float) -> bool:
    """Positive semidefiniteness up to a tolerance relative to the entry scale."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    return min_eigenvalue(A) >= -tol * (1.0 + A.max_abs_entry())


def dual_slack_matrix(pair: SdpPair, y) -> SymMat:
    """C - sum_i y_i A_i as a float symmetric matrix."""
    if len(y) != pair.m:
        raise ValueError("multiplier vector has wrong length")
    return SymMat.from_array(pair.C.array - pair.apply_AT(y))


# the tolerance of the checks below in a pipeline run, of player 1's
# certificate stop test and of player 2's solve after an early stop
VERIFY_TOL = 1e-6


def check_strongly_optimal(pair: SdpPair, X: SymMat, y, tol: float) -> dict:
    """Check (X, y) as a strongly optimal pair by weak duality.

    ``ok``: X psd, y >= 0, <A_i, X> >= b_i, sum_i y_i A_i <= C (Loewner)
    and gap = 0.  The margins are tol * (1 + max |entry|) for each psd
    condition (X, and the dual slack C - sum_i y_i A_i), tol * (1 + max |y|)
    for y >= 0, tol * (1 + |b_i|) for constraint i and tol * (1 + |<C, X>|)
    for |gap|, on both sides: an exactly feasible pair has gap >= 0, so a gap
    far below 0 means the candidate lies near no feasible pair.
    ``min_eig_slack`` is the smallest eigenvalue over the psd conditions (X,
    the dual slack and the y_i as 1x1 blocks); ``worst_linear_violation`` is
    max_i max(0, b_i - <A_i, X>); ``gap`` is <C, X> - b'y.
    """
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    yv = np.asarray([float(v) for v in y], dtype=float)
    if X.dim != pair.n or yv.shape[0] != pair.m:
        raise ValueError("dimension mismatch with the problem pair")
    Xf = X.to_float()
    slack = dual_slack_matrix(pair, yv)
    b = pair.b_array
    lam_X, lam_S, y_min = min_eigenvalue(Xf), min_eigenvalue(slack), float(np.min(yv))
    shortfall = b - pair.apply_A(Xf)
    obj = frobenius_inner(pair.C.to_float(), Xf)
    gap = obj - float(b @ yv)
    ok = (
        lam_X >= -tol * (1.0 + Xf.max_abs_entry())
        and y_min >= -tol * (1.0 + float(np.max(np.abs(yv))))
        and not np.any(shortfall > tol * (1.0 + np.abs(b)))
        and lam_S >= -tol * (1.0 + slack.max_abs_entry())
        and abs(gap) <= tol * (1.0 + abs(obj))
    )
    return {
        "ok": ok,
        "min_eig_slack": min(lam_X, lam_S, y_min),
        "worst_linear_violation": float(np.max(shortfall, initial=0.0)),
        "gap": gap,
    }


def verify_strongly_optimal(pair: SdpPair, X: PrimalPoint, y: DualPoint, tol: float) -> bool:
    """Weak-duality check: primal feasible, dual feasible and gap = 0, all within tol."""
    return check_strongly_optimal(pair, X.X, y.y, tol)["ok"]


def check_primal_direction(pair: SdpPair, W: SymMat, tol: float) -> dict:
    """Check W as an unbounded direction of the primal.

    ``ok``: W psd, <A_i, W> >= 0 for all i and <C, W> < 0, a Farkas
    certificate that the dual is infeasible.  ``strict``: also <A_i, W> > 0.
    The linear margins are tol * (1 + max |data|); ``tol`` is also the margin
    <C, W> must clear, so a larger ``tol`` is not uniformly looser.
    """
    if W.dim != pair.n:
        raise ValueError("direction dimension does not match the pair")
    scale = 1.0 + pair.max_abs_entry()
    Wf = W.to_float()
    worst_lin = float(np.min(pair.apply_A(Wf)))
    obj = frobenius_inner(pair.C.to_float(), Wf)
    farkas = is_psd(Wf, tol) and obj < -tol * scale
    return {
        "ok": farkas and worst_lin >= -tol * scale,
        "strict": farkas and worst_lin > tol * scale,
        "min_constraint_value": worst_lin,
        "objective_along_direction": obj,
    }


def check_dual_direction(pair: SdpPair, y, tol: float) -> dict:
    """Check y as an unbounded direction of the dual.

    ``ok``: y >= 0, sum_i y_i A_i <= 0 (Loewner) and b'y > 0, a Farkas
    certificate that the primal is infeasible.  ``strict``: also
    sum_i y_i A_i negative definite.  The margins are tol * (1 + max |y|) for
    y >= 0 and tol * (1 + max |data|) for the rest; ``tol`` is also the
    margin b'y must clear, so a larger ``tol`` is not uniformly looser.
    """
    yv = np.asarray([float(v) for v in y], dtype=float)
    if yv.shape[0] != pair.m:
        raise ValueError("direction length does not match the pair")
    scale = 1.0 + pair.max_abs_entry()
    y_scale = 1.0 + float(np.max(np.abs(yv)))
    lam = max_eigenvalue(SymMat.from_array(pair.apply_AT(yv)))
    val = float(pair.b_array @ yv)
    farkas = float(np.min(yv)) >= -tol * y_scale and val > tol * scale
    return {
        "ok": farkas and lam <= tol * scale,
        "strict": farkas and lam < -tol * scale,
        "max_eig_combo": lam,
        "objective_along_direction": val,
    }
