"""Exact worst-case selection of the most violated feature set.

Given current per-instance weights ``alpha``, the most violated constraint
under a cardinality budget ``B`` is found by scoring every candidate unit
and keeping the ``B`` largest scores.  With ``omega = sum_i alpha_i y_i x_i``:

* plain features score ``c_j = lambda_j^2 * omega_j^2``;
* disjoint groups score ``c_j = lambda_j^2 * ||omega_{G_j}||^2``;
* tree nodes score like groups: every node is scored, whatever its depth;
* degree-2 polynomial interaction features are scored blockwise from the
  raw data without materializing the expanded design.

Selection is exact: ties are broken toward the smallest unit index, and
zero-score units remain selectable so exactly ``min(B, p)`` units return.
It works on whole score arrays: a partition finds the B-th best score,
every candidate at or above it is kept so ties across that boundary
survive, and a lexsort on ``(-score, id)`` applies the tie rule.  NaN
scores raise ``ValueError``.  Groups and tree nodes share one scorer that
gathers ``omega^2`` over the concatenated member lists and sums each set
with ``np.add.reduceat``.
Scoring reads shared state but never mutates it, so independent calls are
safe to run concurrently and results do not depend on thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import GroupStructure, SparseDataset, TreeStructure


@dataclass(frozen=True)
class Constraint:
    """A selected unit set: sorted ids and the budget that produced it."""

    ids: tuple[int, ...]
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))
        if list(self.ids) != sorted(set(self.ids)):
            raise ValueError("constraint ids must be sorted and unique")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if len(self.ids) > self.budget:
            raise ValueError("constraint holds more ids than its budget")


def _check_alpha(alpha: np.ndarray, n: int) -> np.ndarray:
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (n,):
        raise ValueError("alpha length must match the number of instances")
    if np.any(alpha < 0):
        raise ValueError("alpha entries must be non-negative")
    return alpha


def _omega(alpha: np.ndarray, data: SparseDataset) -> np.ndarray:
    """Weighted label-signed column sums ``omega = X' (alpha .* y)``."""
    return data.X.T @ (alpha * data.y)


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


def select_top_b(scores: np.ndarray, budget: int) -> Constraint:
    """Ids of the ``B`` largest scores; ties go to the smallest index.

    Returns all ids when fewer than ``B`` candidates exist.  Zero scores
    are selectable, so the result always has ``min(B, p)`` ids.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty vector")
    _, ids = _top(scores, np.arange(scores.size), budget)
    return Constraint(tuple(np.sort(ids)), budget)


def _set_scores(alpha: np.ndarray, data: SparseDataset, sets: list[np.ndarray],
                lam: np.ndarray) -> np.ndarray:
    """``lambda_j^2 * ||omega_{G_j}||^2`` for every non-empty set ``G_j``, in one pass."""
    alpha = _check_alpha(alpha, data.n)
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (len(sets),):
        raise ValueError("lambda length must match the number of sets")
    members = np.concatenate(sets)
    if members.max() >= data.m:
        raise ValueError("feature index out of range")
    sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
    starts = np.cumsum(sizes) - sizes
    omega_sq = _omega(alpha, data) ** 2
    return lam ** 2 * np.add.reduceat(omega_sq[members], starts)


def score_groups(alpha: np.ndarray, data: SparseDataset, groups: GroupStructure,
                 lam: np.ndarray) -> np.ndarray:
    """Per-group scores ``lambda_j^2 * ||omega_{G_j}||^2``."""
    return _set_scores(alpha, data, groups.groups, lam)


def score_tree_pruned(alpha: np.ndarray, data: SparseDataset, tree: TreeStructure,
                      budget: int) -> Constraint:
    """Top-``B`` tree nodes by ``lambda_h^2 ||omega_{G_h}||^2``.

    Every node is scored in one vectorized pass and ranked like any other
    score array.  Nothing is pruned: scoring all nodes costs one gather
    over the node sets, which is cheaper than walking the tree.  The name is
    kept because callers and the benchmark tracer look the search up by it.
    """
    return select_top_b(_set_scores(alpha, data, tree.sets, tree.lambdas), budget)


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
    # lexicographic pair (a, b), a < b
    a = 0
    row = m - 1
    while flat >= row:
        flat -= row
        row -= 1
        a += 1
    return ("cross", a, a + 1 + flat)


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
    """
    if gamma <= 0 or r < 0:
        raise ValueError("need gamma > 0 and r >= 0")
    flat_ids = np.asarray(flat_ids, dtype=np.intp)
    variants = [poly_variant(int(flat), data.m) for flat in flat_ids]
    raw = sorted({a for v in variants for a in v[1:]})
    dense = data.X[:, np.asarray(raw, dtype=np.intp)].toarray()   # one pass over X
    col = dict(zip(raw, dense.T))
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
                              r: float, budget: int, block: int = 64) -> Constraint:
    """Top-``B`` degree-2 virtual features without materializing the expansion.

    Scores every virtual feature ``k`` by ``omega_k^2`` with
    ``omega_k = sum_i alpha_i y_i phi_k(x_i)``.  Interaction terms are
    scanned blockwise over the anchor feature: for a block of anchors
    ``A``, one sparse product gives the ``sum_i z_i x_ia x_ib`` values for
    every partner ``b > a``, and the block's cross scores are merged with
    the running best ``B`` as arrays, so peak memory besides the data is
    ``O(B + block * m)``.  The result is identical to scoring the
    materialized expansion, including the smallest-flat-id tie rule.
    """
    if gamma <= 0 or r < 0:
        raise ValueError("need gamma > 0 and r >= 0")
    if block < 1:
        raise ValueError("block must be >= 1")
    alpha = _check_alpha(alpha, data.n)
    z = alpha * data.y
    m = data.m

    lin = np.sqrt(2.0 * gamma * r) * (data.X.T @ z)          # (m,)
    sq = gamma * (data.X.multiply(data.X).T @ z)             # (m,)
    scores = np.concatenate([[(r * float(z.sum())) ** 2], lin ** 2, sq ** 2])
    best, best_ids = _top(scores, np.arange(scores.size), budget)

    XT = data.X.T.tocsr()                                    # row a is raw feature a
    root2_gamma = np.sqrt(2.0) * gamma
    for start in range(0, m - 1, block):
        stop = min(start + block, m - 1)                     # anchors with a partner b > a
        W = XT[start:stop].toarray().T * z[:, None]          # (n, k)
        G = XT[start + 1:] @ W                               # rows b = start+1 .. m-1
        upper = np.arange(m - start - 1) >= np.arange(stop - start)[:, None]
        cross = (root2_gamma * G.T[upper]) ** 2              # flat-id order
        first = 1 + 2 * m + (start * (2 * m - start - 1)) // 2
        best, best_ids = _top(np.concatenate([best, cross]),
                              np.concatenate([best_ids, np.arange(first, first + cross.size)]),
                              budget)
    return Constraint(tuple(np.sort(best_ids)), budget)

