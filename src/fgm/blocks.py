"""Block-structured weight vectors and dense column caches.

The subproblem solver works on a weight vector split into one block per
selection round.  Both the weights and the cached feature columns share a
single flat layout addressed through a common ``offsets`` array, so inner
products and per-block norms reduce to plain vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class BlockWeights:
    """Weight vector partitioned into contiguous blocks.

    Parameters
    ----------
    flat : ndarray
        Concatenation of all blocks, shape ``(offsets[-1],)``.
    offsets : ndarray
        Block boundaries, shape ``(n_blocks + 1,)``; block ``t`` occupies
        ``flat[offsets[t]:offsets[t + 1]]``.  Blocks are non-empty.
    """

    flat: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets.ndim != 1 or self.offsets.size < 1:
            raise ValueError("offsets must be a non-empty 1-D array")
        if self.offsets[0] != 0 or self.offsets[-1] != self.flat.size:
            raise ValueError("offsets must start at 0 and end at flat.size")
        if np.any(np.diff(self.offsets) <= 0):
            raise ValueError("blocks must be non-empty")

    @property
    def n_blocks(self) -> int:
        return self.offsets.size - 1

    def block(self, t: int) -> np.ndarray:
        return self.flat[self.offsets[t]:self.offsets[t + 1]]

    def blocks(self) -> list[np.ndarray]:
        return [self.block(t) for t in range(self.n_blocks)]

    def norms(self) -> np.ndarray:
        """Euclidean norm of every block, shape ``(n_blocks,)``."""
        sq = np.add.reduceat(self.flat * self.flat, self.offsets[:-1])
        return np.sqrt(sq)

    @classmethod
    def zeros(cls, offsets: np.ndarray) -> "BlockWeights":
        offsets = np.asarray(offsets, dtype=np.intp)
        return cls(np.zeros(int(offsets[-1])), offsets)

    @classmethod
    def from_blocks(cls, blocks: list[np.ndarray]) -> "BlockWeights":
        sizes = [len(b) for b in blocks]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        flat = np.concatenate([np.asarray(b, dtype=float) for b in blocks]) if blocks else np.zeros(0)
        return cls(flat, offsets)

    def zero_extend(self, new_offsets: np.ndarray) -> "BlockWeights":
        """Warm start for a grown cache: keep existing blocks, append zeros."""
        new_offsets = np.asarray(new_offsets, dtype=np.intp)
        if new_offsets.size < self.offsets.size or np.any(new_offsets[: self.offsets.size] != self.offsets):
            raise ValueError("new offsets must extend the current layout")
        flat = np.zeros(int(new_offsets[-1]))
        flat[: self.flat.size] = self.flat
        return BlockWeights(flat, new_offsets)


@dataclass
class ColumnCache:
    """Dense matrix of selected (already scaled) feature columns.

    ``matrix`` has shape ``(n_instances, offsets[-1])``; columns of block
    ``t`` were added by selection round ``t``.  Instances are in the row
    dimension so a model score is a single matrix-vector product.
    """

    matrix: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.offsets[-1]:
            raise ValueError("matrix width must match offsets[-1]")

    @property
    def n_blocks(self) -> int:
        return self.offsets.size - 1

    @property
    def n_instances(self) -> int:
        return self.matrix.shape[0]

    def scores(self, w: BlockWeights) -> np.ndarray:
        """Per-instance decision values ``sum_t w_t . x_{it}``."""
        return self.matrix @ w.flat

    @classmethod
    def empty(cls, n_instances: int) -> "ColumnCache":
        return cls(np.zeros((n_instances, 0)), np.zeros(1, dtype=np.intp))

    def extend(self, columns: np.ndarray) -> "ColumnCache":
        """Return a new cache with ``columns`` appended as one more block."""
        if columns.ndim != 2 or columns.shape[0] != self.n_instances or columns.shape[1] == 0:
            raise ValueError("columns must be a non-empty (n_instances, k) matrix")
        matrix = np.hstack([self.matrix, columns])
        offsets = np.concatenate([self.offsets, [self.offsets[-1] + columns.shape[1]]])
        return ColumnCache(matrix, offsets)
