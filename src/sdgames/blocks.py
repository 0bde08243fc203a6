"""Block-structured variables for the standard-form solver.

A variable is a list of blocks: symmetric psd matrix blocks, nonnegative
diagonal (vector) blocks, and unconstrained free scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence

import numpy as np

MATRIX = "matrix"
DIAG = "diag"
FREE = "free"


@dataclass(frozen=True)
class Block:
    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in (MATRIX, DIAG, FREE):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == FREE and self.size != 1:
            raise ValueError("free blocks are scalars")
        if self.size < 1:
            raise ValueError("block size must be positive")

    @property
    def scalar_dim(self) -> int:
        """Number of independent scalars in the block."""
        if self.kind == MATRIX:
            return self.size * (self.size + 1) // 2
        return self.size

    @property
    def cone_dim(self) -> int:
        """Barrier degree: size for cone blocks, 0 for free scalars."""
        return 0 if self.kind == FREE else self.size


def matrix_block(k: int) -> Block:
    return Block(MATRIX, k)


def diag_block(k: int) -> Block:
    return Block(DIAG, k)


def free_scalar() -> Block:
    return Block(FREE, 1)


@dataclass(frozen=True)
class BlockStructure:
    blocks: tuple

    def __init__(self, blocks: Sequence[Block]):
        object.__setattr__(self, "blocks", tuple(blocks))
        if not self.blocks:
            raise ValueError("structure needs at least one block")

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def scalar_dim(self) -> int:
        return sum(b.scalar_dim for b in self.blocks)

    @property
    def cone_dim(self) -> int:
        return sum(b.cone_dim for b in self.blocks)

    def zeros(self) -> List[np.ndarray]:
        out = []
        for b in self.blocks:
            if b.kind == MATRIX:
                out.append(np.zeros((b.size, b.size)))
            else:
                out.append(np.zeros(b.size))
        return out

    def identity(self, scale: float = 1.0) -> List[np.ndarray]:
        """Identity-like point: scale*I on matrix blocks, scale on diag, 0 on free."""
        out = []
        for b in self.blocks:
            if b.kind == MATRIX:
                out.append(scale * np.eye(b.size))
            elif b.kind == DIAG:
                out.append(scale * np.ones(b.size))
            else:
                out.append(np.zeros(1))
        return out

    def conformal(self, v: Sequence[np.ndarray]) -> bool:
        if len(v) != len(self.blocks):
            return False
        for b, x in zip(self.blocks, v):
            x = np.asarray(x)
            if b.kind == MATRIX:
                if x.shape != (b.size, b.size):
                    return False
            elif x.shape != (b.size,):
                return False
        return True


def bv_inner(u, v) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += float(np.vdot(a, b))
    return total


def bv_norm_inf(u) -> float:
    return max((float(np.max(np.abs(a))) if a.size else 0.0) for a in u)


def matrix_equality(structure: BlockStructure, terms: dict, slack: tuple, rhs=None) -> list:
    """(row, rhs) pairs of sum_k sum_j v_kj M_kj + sign * S = R over the entries p <= q.

    ``terms`` maps block k to one n x n matrix M_kj per scalar v_kj of the block,
    ``slack = (s, sign)`` names the matrix block S, and ``rhs`` is R (None: 0).
    Off-diagonal rows are doubled, so S enters with ``sign`` at (p, q) and (q, p).
    """
    s, sign = slack
    n = structure.blocks[s].size
    entries = [(p, q) for p in range(n) for q in range(p, n)]
    iu, ju = np.array(entries).T
    scale = np.where(iu == ju, 1.0, 2.0)
    # coef[k][r] is the coefficient vector of block k in row r
    coef = {k: scale[:, None] * np.moveaxis(np.reshape(Ms, (-1, n, n)), 0, 2)[iu, ju]
            for k, Ms in terms.items()}
    beta = [0.0] * len(entries) if rhs is None else (scale * np.asarray(rhs)[iu, ju]).tolist()
    rows = []
    for r, (p, q) in enumerate(entries):
        row = structure.zeros()
        for k, c in coef.items():
            row[k] = c[r]
        row[s][p, q] = row[s][q, p] = sign
        rows.append((row, beta[r]))
    return rows
