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

_SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class Block:
    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in (MATRIX, DIAG, FREE):
            raise ValueError(f"unknown block kind {self.kind!r}")
        if self.kind == MATRIX and self.size < 2:
            raise ValueError("matrix blocks need size >= 2; use a diag block instead")
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


def psd_block(k: int) -> Block:
    """Matrix block for k >= 2, a single nonnegative scalar for k == 1."""
    return matrix_block(k) if k >= 2 else diag_block(1)


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


def bv_copy(v):
    return [np.array(x, dtype=float) for x in v]


def bv_inner(u, v) -> float:
    total = 0.0
    for a, b in zip(u, v):
        total += float(np.vdot(a, b))
    return total


def bv_norm_inf(u) -> float:
    return max((float(np.max(np.abs(a))) if a.size else 0.0) for a in u)


def svec(structure: BlockStructure, v) -> np.ndarray:
    """Isometric scalarization: stacks blocks, off-diagonals scaled by sqrt(2).

    Satisfies svec(u) . svec(v) == bv_inner(u, v).
    """
    parts = []
    for b, x in zip(structure, v):
        if b.kind == MATRIX:
            k = b.size
            iu = np.triu_indices(k)
            w = np.where(iu[0] == iu[1], 1.0, _SQRT2)
            parts.append(np.asarray(x)[iu] * w)
        else:
            parts.append(np.asarray(x, dtype=float))
    return np.concatenate(parts)


def sym_basis(n: int, p: int, q: int) -> np.ndarray:
    """Symmetric basis element with ones at (p, q) and (q, p)."""
    E = np.zeros((n, n))
    E[p, q] = 1.0
    E[q, p] = 1.0
    return E


def sym_entries(n: int):
    """(p, q, scale) over independent entries; scale doubles off-diagonals so
    that scale * M[p, q] equals the inner product with sym_basis(n, p, q)."""
    for p in range(n):
        for q in range(p, n):
            yield p, q, (1.0 if p == q else 2.0)


def constraint_row(structure: BlockStructure) -> List[np.ndarray]:
    """Zero coefficient block-vector for one scalar constraint."""
    return structure.zeros()
