"""The column cache, sole owner of the block layout.

Each selection round appends one block of positions, one per (feature,
scale) pair its selection holds.  Weights are flat float arrays in the
cache's ``offsets``: block ``t`` is ``w[offsets[t]:offsets[t + 1]]``, so
gradients, block norms and the prox are plain vector operations.  A scaled
column is stored once however many positions hold it (a feature picked
again in a later round, or by nested nodes within one round); ``index``
maps every position to its stored column, and ``cache @ w`` and
``cache.T @ z`` are the products with the position-wise matrix, which is
never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ColumnCache:
    """Distinct selected (already scaled) feature columns and the block layout over them.

    ``matrix`` has shape ``(n_instances, p)``; instances are in the row
    dimension so a model score is a single matrix-vector product.
    ``offsets`` starts at 0 and increases strictly: blocks are non-empty.
    ``index`` maps each of the ``offsets[-1]`` positions to its column of
    ``matrix``; left out, it is ``arange(offsets[-1])`` and ``matrix`` must
    have one column per position.  ``cache @ w`` is ``matrix @ bincount(index,
    w, p)`` and ``cache.T @ z`` is ``(matrix.T @ z)[index]``.  ``keys`` maps
    each column that :meth:`extend` stored to its ``(feature, scale bits)``
    key.
    """

    matrix: np.ndarray
    offsets: np.ndarray
    index: np.ndarray | None = None
    keys: dict = field(default_factory=dict, repr=False)
    sizes: np.ndarray = field(init=False, repr=False)   # block widths, np.diff(offsets)

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets.ndim != 1 or self.offsets.size < 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be a 1-D array starting at 0")
        self.sizes = np.diff(self.offsets)
        if np.any(self.sizes <= 0):
            raise ValueError("blocks must be non-empty")
        if self.matrix.ndim != 2:
            raise ValueError("matrix must be 2-D")
        if self.index is None:
            if self.matrix.shape[1] != self.offsets[-1]:
                raise ValueError("matrix width must match offsets[-1]")
            self.index = np.arange(self.offsets[-1])
        self.index = np.asarray(self.index, dtype=np.intp)
        if self.index.shape != (self.offsets[-1],):
            raise ValueError("index must map each of the offsets[-1] positions")
        if self.index.size and (self.index.min() < 0 or self.index.max() >= self.matrix.shape[1]):
            raise ValueError("index names a column outside matrix")

    @property
    def n_instances(self) -> int:
        return self.matrix.shape[0]

    def __matmul__(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ np.bincount(self.index, w, self.matrix.shape[1])

    @property
    def T(self) -> "_Transposed":
        # built on each call and holding no reference to the cache, so no cycle keeps a
        # replaced cache's matrix alive
        return _Transposed(self.matrix, self.index)

    def block_norms(self, w: np.ndarray) -> np.ndarray:
        """Euclidean norm of each block of the flat weights ``w``."""
        return np.sqrt(np.add.reduceat(w * w, self.offsets[:-1]))

    @classmethod
    def empty(cls, n_instances: int) -> "ColumnCache":
        return cls(np.zeros((n_instances, 0)), np.zeros(1, dtype=np.intp))

    def extend(self, columns: np.ndarray, features: np.ndarray,
               scales: np.ndarray) -> "ColumnCache":
        """Return a new cache with one more block, position ``i`` holding ``columns[:, i]``.

        ``columns`` must be ``gather(features) * scales``, so that a key
        ``(features[i], scales[i])`` names its column's bits.  Only columns
        whose key the cache lacks are copied in, each once; a position
        whose key it holds, from an earlier round or an earlier position of
        this block, maps to that column.  ``self`` is unchanged.
        """
        if columns.ndim != 2 or columns.shape[0] != self.n_instances or columns.shape[1] == 0:
            raise ValueError("columns must be a non-empty (n_instances, k) matrix")
        k = columns.shape[1]
        if np.shape(features) != (k,) or np.shape(scales) != (k,):
            raise ValueError("need one feature and one scale per column")
        keys = dict(self.keys)
        first = self.matrix.shape[1]
        new, positions = [], []
        # a scale's bits, not its value: 0.0 and -0.0 scale a column to different bits
        bits = np.ascontiguousarray(scales, dtype=np.float64).view(np.int64)
        for i, key in enumerate(zip(np.asarray(features).tolist(), bits.tolist())):
            column = keys.setdefault(key, first + len(new))
            if column == first + len(new):
                new.append(i)
            positions.append(column)
        if len(new) < k:
            columns = columns[:, new]
        matrix = np.hstack([self.matrix, columns]) if new else self.matrix
        offsets = np.concatenate([self.offsets, [self.offsets[-1] + k]])
        return ColumnCache(matrix, offsets, np.concatenate([self.index, positions]), keys)


@dataclass(slots=True)
class _Transposed:
    """``cache.T``: products with the transposed position-wise matrix."""

    matrix: np.ndarray
    index: np.ndarray

    def __matmul__(self, z: np.ndarray) -> np.ndarray:
        return (self.matrix.T @ z)[self.index]
