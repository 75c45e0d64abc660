"""The dense column cache, sole owner of the block layout.

Each selection round appends one block of columns.  Weights are flat float
arrays in the cache's ``offsets``: block ``t`` is ``w[offsets[t]:offsets[t + 1]]``,
so scores, gradients and block norms are plain vector operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ColumnCache:
    """Dense matrix of selected (already scaled) feature columns.

    ``matrix`` has shape ``(n_instances, offsets[-1])``; columns of block
    ``t`` were added by selection round ``t``.  Instances are in the row
    dimension so a model score is a single matrix-vector product.
    ``offsets`` starts at 0 and increases strictly: blocks are non-empty.
    """

    matrix: np.ndarray
    offsets: np.ndarray
    sizes: np.ndarray = field(init=False, repr=False)   # block widths, np.diff(offsets)

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.intp)
        if self.offsets.ndim != 1 or self.offsets.size < 1 or self.offsets[0] != 0:
            raise ValueError("offsets must be a 1-D array starting at 0")
        self.sizes = np.diff(self.offsets)
        if np.any(self.sizes <= 0):
            raise ValueError("blocks must be non-empty")
        if self.matrix.ndim != 2 or self.matrix.shape[1] != self.offsets[-1]:
            raise ValueError("matrix width must match offsets[-1]")

    @property
    def n_instances(self) -> int:
        return self.matrix.shape[0]

    def block_norms(self, w: np.ndarray) -> np.ndarray:
        """Euclidean norm of each block of the flat weights ``w``."""
        return np.sqrt(np.add.reduceat(w * w, self.offsets[:-1]))

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
