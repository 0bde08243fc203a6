"""Instance generators: the worked-example corpus, the Khachiyan family in
pair normal form, and seeded random families (Slater, strictly unbounded,
diagonal/LP)."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .model import SdpPair, SymMat

MAX_SIZE = 32


def _check_size(n: int, m: int) -> None:
    if not 1 <= n <= MAX_SIZE or not 1 <= m <= MAX_SIZE:
        raise ValueError(f"n and m must lie in 1..{MAX_SIZE}")


def example_corpus() -> List[Tuple[SdpPair, dict]]:
    """The five worked examples with their expected pipeline outcomes.

    The bounded instance carries a repaired constraint matrix: the originally
    published data admits no dual-feasible point, so the claimed optimal pair
    cannot exist; the off-diagonal entry is adjusted to restore every stated
    property.  The unattained-variant instance is classified Inconclusive: its
    equilibrium value is (6+sqrt(17))/19 with u != v, and no certificate
    direction survives verification.
    """
    bounded = SdpPair(
        C=SymMat([[1, 2], [2, 2]]),
        A=(SymMat([[1, 2], [2, 0]]),),
        b=(1,),
        name="bounded",
    )
    unbounded = SdpPair(
        C=SymMat([[0, -1], [-1, 0]]),
        A=(SymMat([[-1, 1], [1, 0]]),),
        b=(1,),
        name="unbounded",
    )
    both_infeasible = SdpPair(
        C=SymMat([[0, -1], [-1, 0]]),
        A=(SymMat([[-1, 0], [0, 0]]),),
        b=(1,),
        name="both_infeasible",
    )
    unattained = SdpPair(
        C=SymMat([[-2, -1], [-1, -2]]),
        A=(SymMat([[-1, 0], [0, 0]]),),
        b=(1,),
        name="aux_unattained",
    )
    duality_gap = SdpPair(
        C=SymMat([[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
        A=(
            SymMat([[0, -1, 0], [-1, 0, 0], [0, 0, 1]]),
            SymMat([[0, 0, 0], [0, -1, 0], [0, 0, 0]]),
        ),
        b=(1, 0),
        name="duality_gap",
    )
    return [
        (bounded, {"expected_outcome": "StronglyOptimal", "recommended_M": 3}),
        (unbounded, {"expected_outcome": "PrimalUnboundedCert", "recommended_M": 1}),
        (both_infeasible, {"expected_outcome": "DualUnboundedCert", "recommended_M": 1}),
        (unattained, {"expected_outcome": "Inconclusive", "recommended_M": 1}),
        (duality_gap, {"expected_outcome": "Inconclusive", "recommended_M": 1}),
    ]


def khachiyan_pair(n: int, tau: int) -> SdpPair:
    """Khachiyan chain in pair normal form over one psd matrix of order 2n.

    Block i of the optimal completion holds [[x_i, x_{i-1}], [x_{i-1}, B]];
    one-sided inequalities suffice because the chain is monotone: the
    objective pins every slack at the optimum.  Integer data throughout.
    With B = 2^tau and x_0 = 1/2 the optimum is 2^-((tau+1) 2^n - tau),
    whose bitsize is exponential in n.
    """
    if n < 1 or tau < 1:
        raise ValueError("n and tau must be positive")
    if 2 * n > MAX_SIZE:
        raise ValueError("n too large for desk scale")
    B = 2**tau
    dim = 2 * n

    def zeros():
        return [[Fraction(0)] * dim for _ in range(dim)]

    A = []
    b = []
    # 2 X[0,1] >= 1 pins x_0 = 1/2 from below
    M0 = zeros()
    M0[0][1] = Fraction(1)
    M0[1][0] = Fraction(1)
    A.append(SymMat(M0))
    b.append(Fraction(1))
    # diagonal cap X[2i-1, 2i-1] <= B
    for i in range(1, n + 1):
        Mi = zeros()
        Mi[2 * i - 1][2 * i - 1] = Fraction(-1)
        A.append(SymMat(Mi))
        b.append(Fraction(-B))
    # chain link: off-diagonal of block i dominates the previous diagonal
    for i in range(2, n + 1):
        Mi = zeros()
        Mi[2 * i - 2][2 * i - 1] = Fraction(1)
        Mi[2 * i - 1][2 * i - 2] = Fraction(1)
        Mi[2 * i - 4][2 * i - 4] = Fraction(-2)
        A.append(SymMat(Mi))
        b.append(Fraction(0))
    C = zeros()
    C[2 * n - 2][2 * n - 2] = Fraction(1)
    return SdpPair(C=SymMat(C), A=tuple(A), b=tuple(b), name=f"khachiyan-n{n}-tau{tau}")


def _pair(C, A, b, name: str) -> SdpPair:
    """Pair of float data, each matrix replaced by its symmetric part."""
    return SdpPair(
        C=SymMat.from_array(C),
        A=tuple(SymMat.from_array(Ai) for Ai in A),
        b=tuple(float(v) for v in b),
        name=name,
    )


def _random_sym(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.normal(size=(n, n))
    return 0.5 * (G + G.T)


def random_slater(n: int, m: int, seed: int) -> SdpPair:
    """Pair with strictly feasible primal and dual, built around interior points."""
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    X0 = G @ G.T + 0.5 * np.eye(n)
    y0 = rng.uniform(0.5, 1.5, size=m)
    A = [_random_sym(rng, n) for _ in range(m)]
    b = [float(np.tensordot(Ai, X0, axes=2) - rng.uniform(0.1, 0.6)) for Ai in A]
    H = rng.normal(size=(n, n))
    Z0 = H @ H.T + 0.5 * np.eye(n)
    C = sum(yi * Ai for yi, Ai in zip(y0, A)) + Z0
    return _pair(C, A, b, f"slater-n{n}-m{m}-s{seed}")


def random_unbounded(n: int, m: int, seed: int) -> SdpPair:
    """Pair with a strictly unbounded primal direction W0 > 0 baked in."""
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    W0 = G @ G.T + 0.5 * np.eye(n)
    trW = float(np.trace(W0))
    margin = 0.5
    A = []
    for _ in range(m):
        Ai = _random_sym(rng, n)
        val = float(np.tensordot(Ai, W0, axes=2))
        if val < margin:
            Ai = Ai + (margin - val) / trW * np.eye(n)
        A.append(Ai)
    C = _random_sym(rng, n)
    cval = float(np.tensordot(C, W0, axes=2))
    C = C - (cval + margin) / trW * np.eye(n)
    b = [float(rng.uniform(-1.0, 1.0)) for _ in range(m)]
    return _pair(C, A, b, f"unbounded-n{n}-m{m}-s{seed}")


def random_dual_unbounded(n: int, m: int, seed: int) -> SdpPair:
    """Pair with a strictly unbounded dual direction y0 > 0 baked in:
    sum_i y0_i A_i < 0 and b'y0 > 0, so the dual is strictly feasible."""
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    y0 = rng.uniform(0.5, 1.5, size=m)
    margin = 0.5
    A = np.array([_random_sym(rng, n) for _ in range(m)])
    top = float(np.linalg.eigvalsh(np.tensordot(y0, A, axes=1))[-1])
    A -= max(top + margin, 0.0) / y0.sum() * np.eye(n)
    b = rng.uniform(-1.0, 1.0, size=m)
    b -= (float(b @ y0) - margin) / y0.sum()
    return _pair(_random_sym(rng, n), A, b, f"dual-unbounded-n{n}-m{m}-s{seed}")


def random_diagonal(n: int, m: int, seed: int, kind: str = "slater") -> SdpPair:
    """Diagonal (LP) instance; 'slater' builds a solvable LP, 'unbounded' a
    strictly unbounded one."""
    _check_size(n, m)
    rng = np.random.default_rng(seed)
    if kind == "slater":
        x0 = rng.uniform(0.5, 2.0, size=n)
        y0 = rng.uniform(0.5, 1.5, size=m)
        rows = rng.integers(-3, 4, size=(m, n)).astype(float)
        b = rows @ x0 - rng.uniform(0.1, 0.6, size=m)
        c = rows.T @ y0 + rng.uniform(0.2, 1.0, size=n)
    elif kind == "unbounded":
        d0 = rng.uniform(0.5, 2.0, size=n)
        rows = rng.integers(-3, 4, size=(m, n)).astype(float)
        slack = rows @ d0
        rows = rows + np.where(slack < 0.5, (0.5 - slack) / np.sum(d0), 0.0)[:, None]
        c = rng.normal(size=n)
        c = c - (float(c @ d0) + 0.5) / float(np.sum(d0))
        b = rng.uniform(-1.0, 1.0, size=m)
    else:
        raise ValueError("kind must be 'slater' or 'unbounded'")
    A = [np.diag(row) for row in rows]
    return _pair(np.diag(c), A, b, f"diag-{kind}-n{n}-m{m}-s{seed}")
