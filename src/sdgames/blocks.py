"""Block-structured variables for the standard-form solver.

A variable is a list of blocks: symmetric psd matrix blocks, nonnegative
diagonal (vector) blocks, and unconstrained free scalars.
"""

from __future__ import annotations

import functools
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
    """The blocks of a variable and its column layout.

    A variable is stored as one float vector of length ``dim``: block k owns
    the columns ``slices[k]``, which hold the raveled entries of an order-n
    matrix block (n * n columns) or the entries of a diag or free block.  A
    constraint matrix has one such vector per row.
    """

    blocks: tuple

    def __init__(self, blocks: Sequence[Block]):
        object.__setattr__(self, "blocks", tuple(blocks))
        if not self.blocks:
            raise ValueError("structure needs at least one block")
        shapes = []
        slices = []
        d = 0
        for b in self.blocks:
            shapes.append((b.size, b.size) if b.kind == MATRIX else (b.size,))
            slices.append(slice(d, d + (b.size * b.size if b.kind == MATRIX else b.size)))
            d = slices[-1].stop
        object.__setattr__(self, "shapes", tuple(shapes))
        object.__setattr__(self, "slices", tuple(slices))
        object.__setattr__(self, "dim", d)

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def cone_dim(self) -> int:
        return sum(b.cone_dim for b in self.blocks)

    def view(self, rows: np.ndarray, k: int) -> np.ndarray:
        """Writable view of block k across the leading axes of a (..., dim) array."""
        return rows[..., self.slices[k]].reshape(rows.shape[:-1] + self.shapes[k])

    def split(self, v: np.ndarray) -> List[np.ndarray]:
        """Views of every block of a (..., dim) array."""
        return [self.view(v, k) for k in range(len(self.blocks))]

    def flat(self, blocks: Sequence) -> np.ndarray:
        """Block list -> one vector of length dim."""
        blocks = [np.asarray(x, dtype=float) for x in blocks]
        if [x.shape for x in blocks] != list(self.shapes):
            raise ValueError("blocks do not conform to the block structure")
        return np.concatenate([x.ravel() for x in blocks])

    def identity(self) -> List[np.ndarray]:
        """Identity-like point: I on matrix blocks, 1 on diag, 0 on free."""
        out = []
        for b in self.blocks:
            if b.kind == MATRIX:
                out.append(np.eye(b.size))
            elif b.kind == DIAG:
                out.append(np.ones(b.size))
            else:
                out.append(np.zeros(1))
        return out


def bv_norm_inf(u) -> float:
    return max((float(np.max(np.abs(a))) if a.size else 0.0) for a in u)


@functools.lru_cache(maxsize=32)
def upper_triangle(n: int) -> tuple:
    """(iu, ju, scale) of order n: the entries p <= q as ``np.triu_indices(n)``
    orders them, and 1 on the diagonal, 2 off it.  The arrays are read-only:
    every caller shares them."""
    iu, ju = np.triu_indices(n)
    scale = np.where(iu == ju, 1.0, 2.0)
    for a in (iu, ju, scale):
        a.flags.writeable = False
    return iu, ju, scale


def matrix_equality(structure: BlockStructure, terms: dict, slack: tuple, rhs=None) -> tuple:
    """(rows, rhs) of sum_k sum_j v_kj M_kj + sign * S = R over the entries p <= q.

    ``terms`` maps block k to one n x n matrix M_kj per scalar v_kj of the block,
    ``slack = (s, sign)`` names the matrix block S, and ``rhs`` is R (None: 0).
    Off-diagonal rows are doubled, so S enters with ``sign`` at (p, q) and (q, p).
    """
    s, sign = slack
    n = structure.blocks[s].size
    iu, ju, scale = upper_triangle(n)
    rows = np.zeros((iu.size, structure.dim))
    for k, Ms in terms.items():
        structure.view(rows, k)[:] = scale[:, None] * np.reshape(Ms, (-1, n, n))[:, iu, ju].T
    S = structure.view(rows, s)
    r = np.arange(iu.size)
    S[r, iu, ju] = S[r, ju, iu] = sign
    beta = np.zeros(iu.size) if rhs is None else scale * np.asarray(rhs)[iu, ju]
    return rows, beta
