"""Exact bitsize accounting, KKT dimension formulas and coordinate/solution bounds.

All bound formulas are evaluated in exact integer arithmetic.  The certified
solution bound is reported only as its base-2 exponent, since its value
overflows any float for nontrivial sizes; a game plays a numeric
:class:`SolutionBoundM`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .auxiliary import ATTAINED, AuxSolution, solve_aux
from .model import EXACT, SdpPair

PRACTICAL = "Practical"
ARBITRARY = "Arbitrary"


@dataclass(frozen=True)
class KktDimensions:
    N: int
    p: int
    d: int = 2


@dataclass(frozen=True, eq=False)
class SolutionBoundM:
    """A constant M dominating tr(X*) + 1'y* + 1 for some auxiliary optimum:
    ``Practical``, read off the auxiliary solve ``derived_from``, or
    ``Arbitrary``, any finite M of at least 1, which is admissible when no auxiliary
    optimum is attained or when the caller fixes M."""

    mode: str
    value: float
    derived_from: Optional[AuxSolution] = None

    def __post_init__(self):
        if self.mode not in (PRACTICAL, ARBITRARY):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 1.0 <= self.value < math.inf:
            raise ValueError("solution bounds must be finite and at least 1")


def ceil_lg(v: int) -> int:
    """Ceiling of the base-2 logarithm of a positive integer."""
    if v < 1:
        raise ValueError("ceil_lg needs a positive integer")
    return (v - 1).bit_length()


def bitsize_from_entries(entries: Iterable) -> int:
    """The uniform bitsize bound tau0 >= 1 of a collection of rationals, after
    jointly clearing denominators."""
    fracs = [Fraction(e) for e in entries]
    if not fracs:
        return 1
    lcm = 1
    for f in fracs:
        lcm = math.lcm(lcm, f.denominator)
    ints = [abs(int(f * lcm)) for f in fracs]
    nz = [v for v in ints if v]
    if not nz:
        return 1
    return 1 + max(ceil_lg(v) for v in nz)


def input_bitsize(pair: SdpPair) -> int:
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
    """(nbar, mbar, Nbar, pbar) of the auxiliary SDP's standard reformulation,
    whose KKT system has the sizes of :func:`kkt_dimensions` at (nbar, mbar)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    nbar = 2 * n + 2 * m + 2
    mbar = m + n * (n + 1) // 2 + 1
    kkt = kkt_dimensions(nbar, mbar)
    return nbar, mbar, kkt.N, kkt.p


def eta_bar(n: int, m: int, tau0: int) -> int:
    """Coordinate-bound exponent for the auxiliary SDP.

    Evaluates (Nbar^2-Nbar)/2 + 2*Nbar + Nbar(taubar1+Nbar+2)2^(Nbar-1)
    with taubar1 = tau0 + Nbar + lg(pbar), the :func:`squared_height` of the
    auxiliary KKT system, exactly as printed (note the linear 2*Nbar term,
    unlike the 2^N term of eta1).
    """
    _, _, Nbar, pbar = aux_dimensions(n, m)
    taubar1 = squared_height(tau0, Nbar, pbar)
    return (Nbar * Nbar - Nbar) // 2 + 2 * Nbar + Nbar * (taubar1 + Nbar + 2) * 2 ** (Nbar - 1)


def certified_bound_M(pair: SdpPair) -> int:
    """The exponent k of the certified solution bound M = (n+m) 2^etabar1 + 1 <= 2^k.

    M itself overflows binary64 for all nontrivial sizes, so only k is
    returned; a game plays the practical bound (:func:`practical_bound_M`) or
    a fixed M.
    """
    e = eta_bar(pair.n, pair.m, input_bitsize(pair))
    return e + ceil_lg(pair.n + pair.m) + 1


def practical_bound_M(pair: SdpPair) -> SolutionBoundM:
    """Numeric solution bound from a solved auxiliary SDP.

    Attained: M = ceil(size + 1) + 1, with size the tr(X) + 1'y that
    :func:`solve_aux` says M must dominate (``AuxSolution.size``).  Suspected
    unattained: any positive constant is admissible; M = 1.
    """
    aux = solve_aux(pair)
    if aux.attained_flag == ATTAINED:
        g = aux.size + 1.0
        value = float(math.ceil(g - 1e-6)) + 1.0
        return SolutionBoundM(mode=PRACTICAL, value=value, derived_from=aux)
    return SolutionBoundM(mode=ARBITRARY, value=1.0, derived_from=aux)
