"""Exact bitsize accounting, KKT dimension formulas, coordinate/solution bounds,
and the Khachiyan worst-case family.

All bound formulas are evaluated in exact integer arithmetic; the certified
solution bound is reported only as a base-2 exponent since its numeric value
overflows any float for nontrivial sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

import numpy as np

from .auxiliary import ATTAINED, AuxSolution, solve_aux
from .blocks import BlockStructure, free_scalar, matrix_block
from .model import EXACT, SdpPair
from .solver import MIN, SolverOptions, StandardSdp

CERTIFIED = "Certified"
PRACTICAL = "Practical"
ARBITRARY = "Arbitrary"


@dataclass(frozen=True)
class BitsizeProfile:
    """Uniform bitsize bound tau0 over the integer-cleared problem data."""

    tau0: int

    def __post_init__(self):
        if self.tau0 < 1:
            raise ValueError("tau0 must be at least 1")


@dataclass(frozen=True)
class KktDimensions:
    N: int
    p: int
    d: int = 2


@dataclass(frozen=True, eq=False)
class SolutionBoundM:
    """A constant M dominating tr(X*) + 1'y* + 1 for some auxiliary optimum."""

    mode: str
    value: float
    certified_log2: Optional[int] = None
    derived_from: Optional[AuxSolution] = None

    def __post_init__(self):
        if self.mode not in (CERTIFIED, PRACTICAL, ARBITRARY):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == CERTIFIED and self.certified_log2 is None:
            raise ValueError("certified mode requires the exponent")
        if self.mode != CERTIFIED and not self.value >= 1.0:
            raise ValueError("numeric solution bounds must be at least 1")


def ceil_lg(v: int) -> int:
    """Ceiling of the base-2 logarithm of a positive integer."""
    if v < 1:
        raise ValueError("ceil_lg needs a positive integer")
    return (v - 1).bit_length()


def bitsize_from_entries(entries: Iterable) -> BitsizeProfile:
    """tau0 over a collection of rationals, after jointly clearing denominators."""
    fracs = [Fraction(e) for e in entries]
    if not fracs:
        return BitsizeProfile(tau0=1)
    lcm = 1
    for f in fracs:
        lcm = math.lcm(lcm, f.denominator)
    ints = [abs(int(f * lcm)) for f in fracs]
    nz = [v for v in ints if v]
    if not nz:
        return BitsizeProfile(tau0=1)
    return BitsizeProfile(tau0=1 + max(ceil_lg(v) for v in nz))


def input_bitsize(pair: SdpPair) -> BitsizeProfile:
    """tau0 of an exact-rational pair; denominators are cleared jointly first."""
    if pair.mode != EXACT:
        raise ValueError("bitsize is undefined for float-mode data")
    entries = []
    for M in (pair.C, *pair.A):
        for row in M.rows():
            entries.extend(row)
    entries.extend(pair.b)
    return bitsize_from_entries(entries)


def kkt_dimensions(n: int, m: int) -> KktDimensions:
    """Variable/equation counts of the KKT polynomial system of an (n, m) SDP."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return KktDimensions(N=n * (n + 1) + m, p=m + (3 * n * n + n) // 2, d=2)


def squared_height(tau: int, N: int, p: int) -> int:
    """Height bound tau + N + lg(p) of the squared-up system."""
    if tau < 1 or N < 1 or p < 1:
        raise ValueError("inputs must be positive")
    return tau + N + ceil_lg(p)


def eta1(N: int, tau: int) -> int:
    """Coordinate-bound exponent (N^2-N)/2 + 2^N + N(tau+N+2)2^(N-1)."""
    if N < 1:
        raise ValueError("N must be positive")
    return (N * N - N) // 2 + 2**N + N * (tau + N + 2) * 2 ** (N - 1)


def aux_dimensions(n: int, m: int) -> Tuple[int, int, int, int]:
    """(nbar, mbar, Nbar, pbar) of the auxiliary SDP's standard reformulation."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    nbar = 2 * n + 2 * m + 2
    mbar = m + n * (n + 1) // 2 + 1
    Nbar = nbar * (nbar + 1) + mbar
    pbar = mbar + nbar * (nbar + 1) // 2 + nbar * nbar
    return nbar, mbar, Nbar, pbar


def eta_bar(n: int, m: int, tau0: int) -> int:
    """Coordinate-bound exponent for the auxiliary SDP.

    Evaluates (Nbar^2-Nbar)/2 + 2*Nbar + Nbar(taubar1+Nbar+2)2^(Nbar-1)
    with taubar1 = tau0 + Nbar + lg(pbar), exactly as printed (note the
    linear 2*Nbar term, unlike the 2^N term of eta1).
    """
    if tau0 < 1:
        raise ValueError("tau0 must be at least 1")
    _, _, Nbar, pbar = aux_dimensions(n, m)
    taubar1 = tau0 + Nbar + ceil_lg(pbar)
    return (Nbar * Nbar - Nbar) // 2 + 2 * Nbar + Nbar * (taubar1 + Nbar + 2) * 2 ** (Nbar - 1)


def certified_bound_M(pair: SdpPair) -> SolutionBoundM:
    """Certified solution bound M = (n+m) 2^etabar1 + 1, reported as an exponent.

    The numeric value overflows binary64 for all nontrivial sizes, so the
    float field is an infinity sentinel; pipelines must use a practical bound
    for computation.
    """
    tau0 = input_bitsize(pair).tau0
    e = eta_bar(pair.n, pair.m, tau0)
    log2 = e + ceil_lg(pair.n + pair.m) + 1
    return SolutionBoundM(mode=CERTIFIED, value=math.inf, certified_log2=log2)


def practical_bound_M(pair: SdpPair, opts: Optional[SolverOptions] = None) -> SolutionBoundM:
    """Numeric solution bound from a solved auxiliary SDP.

    Attained: M = ceil(tr(X*) + 1'y* + 1) + 1.  Suspected unattained: any
    positive constant is admissible; M = 1.
    """
    aux = solve_aux(pair, opts)
    if aux.attained_flag == ATTAINED:
        g = float(np.trace(aux.X.array) + np.sum(aux.y)) + 1.0
        value = float(math.ceil(g - 1e-6)) + 1.0
        return SolutionBoundM(mode=PRACTICAL, value=value, derived_from=aux)
    return SolutionBoundM(mode=ARBITRARY, value=1.0, derived_from=aux)


def khachiyan_instance(n: int, tau: int) -> Tuple[StandardSdp, Fraction]:
    """Chain SDP min x_n s.t. [[x_i, x_{i-1}], [x_{i-1}, B]] psd, x_0 = 1/2.

    B = 2^tau.  Returns the block SDP (n 2x2 matrix blocks plus scalar
    variables) and the closed-form optimum 2^(-(tau+1)2^n + tau), whose
    bitsize is exponential in n.
    """
    if n < 1 or tau < 1:
        raise ValueError("n and tau must be positive")
    B = float(2**tau)
    st = BlockStructure([free_scalar() for _ in range(n + 1)] + [matrix_block(2) for _ in range(n)])
    rows = np.zeros((3 * n + 1, st.dim))
    rhs = np.zeros(3 * n + 1)
    x = st.split(rows)
    # x_0 = 1/2, then per link i: X_i = [[x_i, x_{i-1}], [x_{i-1}, B]]
    x[0][0] = 1.0
    rhs[0] = 0.5
    for i in range(1, n + 1):
        r = 3 * i - 2
        Xi = x[n + i]
        Xi[r, 0, 0] = 1.0
        x[i][r] = -1.0
        Xi[r + 1, 0, 1] = Xi[r + 1, 1, 0] = 1.0
        x[i - 1][r + 1] = -2.0
        Xi[r + 2, 1, 1] = 1.0
        rhs[r + 2] = B
    obj = np.zeros(st.dim)
    st.view(obj, n)[:] = 1.0
    optimum = Fraction(1, 2 ** ((tau + 1) * 2**n - tau))
    return StandardSdp(st, obj, rows, rhs, sense=MIN, name=f"khachiyan-n{n}-tau{tau}"), optimum
