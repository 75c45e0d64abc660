"""Exact worst-case selection of the most violated feature set.

Given current per-instance weights ``alpha``, the most violated constraint
under a cardinality budget ``B`` is found by scoring every candidate unit
and keeping the ``B`` largest scores.  With ``omega = sum_i alpha_i y_i x_i``:

* plain features score ``c_j = lambda_j^2 * omega_j^2``;
* tree nodes score ``c_j = lambda_j^2 * ||omega_{G_j}||^2``, every node
  whatever its depth; disjoint groups are a tree whose nodes are all roots,
  so :func:`score_tree_pruned` searches both;
* degree-2 polynomial interaction features are scored blockwise from the
  raw data without materializing the expanded design: one product per
  block of anchor features ``a`` gives every ``sum_i z_i x_ia x_ib`` with
  partner ``b >= a``, the squares on its diagonal and the crosses above.

Selection is exact: ties are broken toward the smallest unit index, and
zero-score units remain selectable so exactly ``min(B, p)`` units return.
Every search returns its selection as a sorted tuple of distinct Python
ints, the form in which training compares and records it.
It works on whole score arrays: a partition finds the B-th best score,
every candidate at or above it is kept so ties across that boundary
survive, and a lexsort on ``(-score, id)`` applies the tie rule.  NaN
scores raise ``ValueError``.  The set scorer gathers ``omega^2`` over a
structure's flat ``members`` and sums each set with ``np.add.reduceat``.

Each kernel reads :attr:`SparseDataset.design`: a read-only view of X's
stored row-major array (stored values as stored), or X's stored CSR.  On
the view omega is one matrix-vector product.  The degree-2 search reads the
support rows (``alpha_i > 0``) by feature rows, the same way on either
layout: it copies those rows once per search, unless every row is one, so
besides the data it holds the support rows (at most ``n_sv * m * 8`` bytes
on the array) and, on the CSR, their transpose, not X's.  The CSR, the only
layout that fits sparse ultrahigh-dimensional data, is never copied
squared or as an array.
Scoring reads shared state but never mutates it, so independent calls are
safe to run concurrently and results do not depend on thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .dataset import SparseDataset, TreeStructure, _columns, _is_count


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
    # reduceat adds each set in sequence; summing sets pairwise, as
    # dataset._inverse_set_norms does, would move the scores' last bits
    sums = np.add.reduceat(omega_sq[tree.members], tree.starts)
    lam_sq = tree.lambdas ** 2
    # a node of scale 0 scores 0, as a plain feature does in score_features,
    # even where its squares overflow to inf and 0 * inf would be NaN
    return np.multiply(lam_sq, sums, out=np.zeros_like(sums), where=lam_sq > 0)


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


@dataclass(frozen=True)
class PolyMap:
    """The degree-2 map of ``k(x, z) = (gamma x'z + r)^2`` and its search's block width.

    The map sends ``x`` to ``[r, sqrt(2 gamma r) x_a, gamma x_a^2,
    sqrt(2) gamma x_a x_b]`` in :func:`poly_variant`'s order.  ``block`` is
    the number of anchor features per product of
    :func:`score_polynomial_streamed`; it changes the search's memory, not
    its result.  A ``gamma`` that is not finite and > 0, an ``r`` that is
    not finite and >= 0 (NaN fails both), or a ``block`` that is not an
    integer >= 1 (a ``bool`` included) raises ``ValueError`` when the map is
    built, so the kernels that take it check none of them.
    """

    gamma: float = 1.0
    r: float = 1.0
    block: int = 64

    def __post_init__(self):
        if not (0 < self.gamma < np.inf and 0 <= self.r < np.inf):
            raise ValueError("need finite gamma > 0 and r >= 0")
        if not _is_count(self.block):
            raise ValueError("block must be an integer >= 1")


def poly_columns(data: SparseDataset, flat_ids: np.ndarray, pmap: PolyMap) -> np.ndarray:
    """Materialize ``pmap``'s virtual-feature columns for the given flat ids.

    The raw columns it reads are gathered in one pass from
    :attr:`SparseDataset.design`; a stored ``-0.0`` stays ``-0.0`` on either layout.
    """
    gamma, r = pmap.gamma, pmap.r
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


def score_polynomial_streamed(alpha: np.ndarray, data: SparseDataset, pmap: PolyMap,
                              budget: int) -> tuple[int, ...]:
    """Sorted ids of the top-``B`` degree-2 virtual features, never materializing them.

    Scores every virtual feature ``k`` by ``omega_k^2`` with
    ``omega_k = sum_i alpha_i y_i phi_k(x_i)``: the constant and linear terms
    at once over every row, so a NaN anywhere in X raises, the rest blockwise
    over the anchor feature ``a``.  Only the support rows, those with
    ``z_i = alpha_i y_i != 0``, add to the rest, so they are gathered once
    (skipped when every ``z_i`` is nonzero) and each product runs over them
    alone.  One product per block of ``pmap.block`` anchors, read alike from
    the CSR and X's own view
    (:attr:`~SparseDataset.design`), gives ``G[b, a] = sum_i z_i x_ia x_ib``
    for every partner ``b >= a``: the squares on its diagonal, the crosses
    above it.  Once the running best holds ``B`` scores, a block passes on
    only the scores at or above the ``B``-th best (and any NaN, which
    raises), so the merge sorts a handful of candidates.  Peak memory besides
    the data is the support rows (on the array at most ``n_sv * m * 8``
    bytes), on the CSR also their transpose, not X's, and
    ``O(B + block * (n_sv + m))``.  The result is identical to scoring the
    materialized expansion, including the smallest-flat-id tie rule.
    """
    gamma, r, block = pmap.gamma, pmap.r, pmap.block
    alpha = _check_alpha(alpha, data.n)
    z = alpha * data.y
    m = data.m

    lin = np.sqrt(2.0 * gamma * r) * _omega(alpha, data)
    scores = np.concatenate([[(r * float(z.sum())) ** 2], lin ** 2])
    best, best_ids = _top(scores, np.arange(m + 1), budget)

    D = data.design
    rows = np.flatnonzero(z)
    if rows.size < z.size:
        D, z = D[rows], z[rows]
    T = D.T.tocsr() if sp.issparse(D) else D.T               # row a is raw feature a
    for start in range(0, m, block):
        stop = min(start + block, m)
        anchors = T[start:stop].toarray() if sp.issparse(T) else T[start:stop]
        G = T[start:] @ (anchors.T * z[:, None])             # G[b - start, a - start]
        sq = (gamma * np.diagonal(G)) ** 2
        cross = (np.sqrt(2.0) * gamma * G) ** 2
        # only scores at or above the B-th best can enter; a NaN passes, so _top raises
        kth = best[-1] if best.size == budget else -np.inf
        keep = np.flatnonzero(~(sq < kth))
        b, a = np.divmod(np.flatnonzero(~(cross < kth)), stop - start)
        upper = b > a
        b, a = b[upper], a[upper]
        cross = cross[b, a]
        a, b = a + start, b + start
        best, best_ids = _top(np.concatenate([best, sq[keep], cross]),
                              np.concatenate([best_ids, 1 + m + start + keep,
                                              1 + 2 * m + a * (2 * m - a - 1) // 2 + b - a - 1]),
                              budget)
    return tuple(np.sort(best_ids).tolist())
