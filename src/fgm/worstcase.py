"""Exact worst-case selection of the most violated feature set.

Given current per-instance weights ``alpha``, the most violated constraint
under a cardinality budget ``B`` is found by scoring every candidate unit
and keeping the ``B`` largest scores.  With ``omega = sum_i alpha_i y_i x_i``:

* plain features score ``c_j = lambda_j^2 * omega_j^2``;
* tree nodes score ``c_j = lambda_j^2 * ||omega_{G_j}||^2``, every node
  whatever its depth; disjoint groups are a tree whose nodes are all roots,
  so :func:`score_tree_pruned` searches both;
* degree-2 polynomial interaction features are scored blockwise from the
  raw data without materializing the expanded design.

Selection is exact: ties are broken toward the smallest unit index, and
zero-score units remain selectable so exactly ``min(B, p)`` units return.
Every search returns its selection as a sorted tuple of distinct Python
ints, the form in which training compares and records it.
It works on whole score arrays: a partition finds the B-th best score,
every candidate at or above it is kept so ties across that boundary
survive, and a lexsort on ``(-score, id)`` applies the tie rule.  NaN
scores raise ``ValueError``.  The set scorer gathers ``omega^2`` over a
structure's flat ``members`` and sums each set with ``np.add.reduceat``.

Each kernel reads :attr:`SparseDataset.design`: a fit view's array copy,
else X's own row-major view when X stores every cell (stored values as
stored), else the CSR.  On an array omega is one matrix-vector product and
the degree-2 cross products one matrix product per anchor block.  The CSR,
the only layout that fits sparse ultrahigh-dimensional data, is never
copied squared; an array is X's own values or at most the CSR's size.
Scoring reads shared state but never mutates it, so independent calls are
safe to run concurrently and results do not depend on thread count.
"""

from __future__ import annotations

import math

import numpy as np

from .dataset import SparseDataset, TreeStructure, _columns


def _check_alpha(alpha: np.ndarray, n: int) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n,):
        raise ValueError("alpha length must match the number of instances")
    if np.any(alpha < 0):
        raise ValueError("alpha entries must be non-negative")
    return alpha


def _omega(alpha: np.ndarray, data: SparseDataset) -> np.ndarray:
    """Weighted label-signed column sums ``omega = X' (alpha .* y)``."""
    return data.design.T @ (alpha * data.y)


def score_features(alpha: np.ndarray, data: SparseDataset, lam: np.ndarray) -> np.ndarray:
    """Per-feature scores ``lambda_j^2 * omega_j^2``, shape ``(m,)``."""
    alpha = _check_alpha(alpha, data.n)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (data.m,):
        raise ValueError("lambda length must match the feature dimension")
    omega = _omega(alpha, data)
    return (lam * omega) ** 2


def _top(scores: np.ndarray, ids: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``budget`` best ``(score, id)`` pairs, best first; ties to the smaller id."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if np.isnan(scores).any():
        raise ValueError("scores must not be NaN")
    if scores.size > budget:
        kth = np.partition(scores, scores.size - budget)[scores.size - budget]
        keep = scores >= kth
        scores, ids = scores[keep], ids[keep]
    order = np.lexsort((ids, -scores))[:budget]
    return scores[order], ids[order]


def select_top_b(scores: np.ndarray, budget: int) -> tuple[int, ...]:
    """Ids of the ``B`` largest scores as a sorted tuple; ties go to the smallest index.

    Returns all ids when fewer than ``B`` candidates exist.  Zero scores
    are selectable, so the result always has ``min(B, p)`` ids.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty vector")
    _, ids = _top(scores, np.arange(scores.size), budget)
    return tuple(np.sort(ids).tolist())


def _set_scores(alpha: np.ndarray, data: SparseDataset, tree: TreeStructure) -> np.ndarray:
    """``lambda_h^2 * ||omega_{G_h}||^2`` for every node ``h``, over the tree's flat members."""
    alpha = _check_alpha(alpha, data.n)
    if tree.members.max() >= data.m:
        raise ValueError("feature index out of range")
    omega_sq = _omega(alpha, data) ** 2
    return tree.lambdas ** 2 * np.add.reduceat(omega_sq[tree.members], tree.starts)


def score_tree_pruned(alpha: np.ndarray, data: SparseDataset, tree: TreeStructure,
                      budget: int) -> tuple[int, ...]:
    """Sorted ids of the top-``B`` tree nodes (or groups) by ``lambda_h^2 ||omega_{G_h}||^2``.

    Every node is scored in one pass over the tree's ``members`` and
    ``starts`` and ranked like any other score array.  Nothing is pruned:
    one gather is cheaper than walking the tree.  The name is kept because
    callers and the benchmark tracer look the search up by it.  A member at
    or beyond ``data.m`` raises ``ValueError``.
    """
    return select_top_b(_set_scores(alpha, data, tree), budget)


# ---------------------------------------------------------------------------
# degree-2 polynomial interaction features


def poly_dim(m: int) -> int:
    """Number of degree-2 virtual features: ``(m + 2)(m + 1) / 2``."""
    if m < 1:
        raise ValueError("need m >= 1")
    return (m + 2) * (m + 1) // 2


def poly_variant(flat: int, m: int) -> tuple:
    """Decode a flat virtual-feature id.

    Enumeration order: ``("const",)``, then ``("linear", a)`` for
    ``a = 0..m-1``, then ``("square", a)``, then ``("cross", a, b)`` for
    pairs ``a < b`` in lexicographic order.
    """
    total = poly_dim(m)
    if not 0 <= flat < total:
        raise ValueError(f"flat id {flat} outside [0, {total})")
    if flat == 0:
        return ("const",)
    flat -= 1
    if flat < m:
        return ("linear", flat)
    flat -= m
    if flat < m:
        return ("square", flat)
    flat -= m
    # lexicographic pair (a, b), a < b.  Counted from the last pair, the
    # rows hold 1, 2, 3, ... pairs, so the row of ``back`` is the largest
    # ``j`` with ``j (j + 1) / 2 <= back``, an exact integer square root
    back = m * (m - 1) // 2 - 1 - flat
    j = (math.isqrt(8 * back + 1) - 1) // 2
    return ("cross", m - 2 - j, m - 1 - (back - j * (j + 1) // 2))


def poly_flat(variant: tuple, m: int) -> int:
    """Inverse of :func:`poly_variant`."""
    kind = variant[0]
    if kind == "const":
        return 0
    if kind == "linear":
        a = variant[1]
        if not 0 <= a < m:
            raise ValueError("linear index out of range")
        return 1 + a
    if kind == "square":
        a = variant[1]
        if not 0 <= a < m:
            raise ValueError("square index out of range")
        return 1 + m + a
    if kind == "cross":
        a, b = variant[1], variant[2]
        if not 0 <= a < b < m:
            raise ValueError("cross pair must satisfy 0 <= a < b < m")
        return 1 + 2 * m + (a * (2 * m - a - 1)) // 2 + (b - a - 1)
    raise ValueError(f"unknown variant {variant!r}")


def poly_columns(data: SparseDataset, flat_ids: np.ndarray, gamma: float, r: float) -> np.ndarray:
    """Materialize virtual-feature columns for the given flat ids.

    The degree-2 map of ``k(x, z) = (gamma x'z + r)^2`` sends ``x`` to
    ``[r, sqrt(2 gamma r) x_a, gamma x_a^2, sqrt(2) gamma x_a x_b]``.
    The raw columns it reads are gathered in one pass from
    :attr:`SparseDataset.design` (a stored ``-0.0`` stays ``-0.0`` on X's own view).
    """
    if not gamma > 0 or not r >= 0:    # NaN fails both
        raise ValueError("need gamma > 0 and r >= 0")
    flat_ids = np.asarray(flat_ids, dtype=np.intp)
    variants = [poly_variant(int(flat), data.m) for flat in flat_ids]
    raw = sorted({a for v in variants for a in v[1:]})
    ids = np.asarray(raw, dtype=np.intp)
    col = dict(zip(raw, _columns(data.design, ids).T))
    out = np.zeros((data.n, flat_ids.size))
    for pos, variant in enumerate(variants):
        if variant[0] == "const":
            out[:, pos] = r
        elif variant[0] == "linear":
            out[:, pos] = np.sqrt(2.0 * gamma * r) * col[variant[1]]
        elif variant[0] == "square":
            out[:, pos] = gamma * col[variant[1]] ** 2
        else:
            out[:, pos] = np.sqrt(2.0) * gamma * col[variant[1]] * col[variant[2]]
    return out


def score_polynomial_streamed(alpha: np.ndarray, data: SparseDataset, gamma: float,
                              r: float, budget: int, block: int = 64) -> tuple[int, ...]:
    """Sorted ids of the top-``B`` degree-2 virtual features, never materializing them.

    Scores every virtual feature ``k`` by ``omega_k^2`` with
    ``omega_k = sum_i alpha_i y_i phi_k(x_i)``.  Interaction terms are
    scanned blockwise over the anchor feature: for a block of anchors
    ``A``, one product (sparse, or BLAS on an array :attr:`~SparseDataset.design`)
    gives the ``sum_i z_i x_ia x_ib`` values for every partner ``b > a``,
    and the block's cross scores are merged with the running best ``B`` as
    arrays, so peak memory besides the data and its dense view is
    ``O(B + block * (n + m))``.  The result is identical to scoring the
    materialized expansion, including the smallest-flat-id tie rule.
    """
    if not gamma > 0 or not r >= 0:    # NaN fails both
        raise ValueError("need gamma > 0 and r >= 0")
    if block < 1:
        raise ValueError("block must be >= 1")
    alpha = _check_alpha(alpha, data.n)
    z = alpha * data.y
    m = data.m

    D = data.design
    lin = np.sqrt(2.0 * gamma * r) * _omega(alpha, data)     # (m,)
    if D is data.X:
        rows = np.repeat(np.arange(data.n), np.diff(data.X.indptr))
        sq = gamma * np.bincount(data.X.indices, data.X.data * data.X.data * z[rows], m)
        XT = data.X.T.tocsr()                                # row a is raw feature a
    else:
        sq = gamma * np.einsum("ij,ij,i->j", D, D, z)
    scores = np.concatenate([[(r * float(z.sum())) ** 2], lin ** 2, sq ** 2])
    best, best_ids = _top(scores, np.arange(scores.size), budget)

    root2_gamma = np.sqrt(2.0) * gamma
    for start in range(0, m - 1, block):
        stop = min(start + block, m - 1)                     # anchors with a partner b > a
        # rows b = start+1 .. m-1, one column per anchor a: sum_i z_i x_ia x_ib
        if D is data.X:
            G = XT[start + 1:] @ (XT[start:stop].toarray().T * z[:, None])
        else:
            G = D[:, start + 1:].T @ (D[:, start:stop] * z[:, None])
        upper = np.arange(m - start - 1) >= np.arange(stop - start)[:, None]
        cross = (root2_gamma * G.T[upper]) ** 2              # flat-id order
        first = 1 + 2 * m + (start * (2 * m - start - 1)) // 2
        best, best_ids = _top(np.concatenate([best, cross]),
                              np.concatenate([best_ids, np.arange(first, first + cross.size)]),
                              budget)
    return tuple(np.sort(best_ids).tolist())

