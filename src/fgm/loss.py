"""Classification losses on cached column blocks.

Implements the two supported empirical losses, their gradient with respect
to the flat weights of the cached columns, and the recovery of per-instance
dual variables from the margins of a solved subproblem:

* squared hinge: ``(C/2) * sum_i max(1 - y_i u_i, 0)^2`` with duals
  ``alpha_i = C * xi_i``;
* logistic: ``C * sum_i log(1 + exp(-y_i u_i))`` with duals
  ``alpha_i = C * sigmoid(-y_i u_i)``;

where ``u_i = sum_t w_t . x_{it}`` is the decision value over the cached
blocks.  All reductions are plain BLAS operations, deterministic for a
fixed thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ColumnCache

SQUARED_HINGE = "squared_hinge"
LOGISTIC = "logistic"
_KINDS = (SQUARED_HINGE, LOGISTIC)


@dataclass(frozen=True)
class LossKind:
    """Loss family and its regularization weight, a finite ``C > 0``."""

    kind: str = SQUARED_HINGE
    C: float = 10.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if not 0 < self.C < np.inf:    # NaN fails too
            raise ValueError("C must be positive and finite")


def margins_from_scores(scores: np.ndarray, labels: np.ndarray, kind: LossKind) -> np.ndarray:
    """Per-instance loss argument xi from decision values.

    Squared hinge uses ``xi_i = max(1 - y_i u_i, 0)``; logistic uses
    ``xi_i = -y_i u_i``.
    """
    if kind.kind == SQUARED_HINGE:
        return np.maximum(1.0 - labels * scores, 0.0)
    return -labels * scores


def loss_from_margins(xi: np.ndarray, kind: LossKind) -> float:
    if kind.kind == SQUARED_HINGE:
        return 0.5 * kind.C * float(xi @ xi)
    # log(1 + e^z) computed as max(z, 0) + log1p(e^-|z|) to avoid overflow
    return kind.C * float(np.sum(np.maximum(xi, 0.0) + np.log1p(np.exp(-np.abs(xi)))))


def eval_loss(w: np.ndarray, cache: ColumnCache, labels: np.ndarray,
              kind: LossKind) -> tuple[float, np.ndarray]:
    """Loss value at the flat weights ``w`` and the margins xi it was computed from."""
    if np.shape(w) != (cache.offsets[-1],):
        raise ValueError("weight layout does not match the cache")
    if labels.shape != (cache.n_instances,):
        raise ValueError("labels length does not match the cache")
    xi = margins_from_scores(cache @ w, labels, kind)
    return loss_from_margins(xi, kind), xi


def gradient_from_margins(M, xi: np.ndarray, labels: np.ndarray, kind: LossKind) -> np.ndarray:
    """Loss gradient in ``w`` from the margins xi of ``M @ w``.

    It is ``-M' (labels * recover_duals(xi))``: the duals the search and the bounds read.
    """
    return -(M.T @ (labels * recover_duals(xi, kind)))


def recover_duals(xi: np.ndarray, kind: LossKind) -> np.ndarray:
    """Per-instance dual variables from the margins of a solved subproblem.

    Squared hinge gives ``alpha = C * xi`` (non-negative because xi is
    clipped at 0); logistic gives ``alpha = C * sigmoid(xi)`` which lies in
    (0, C).  The plain hinge loss admits no such closed form and is not
    supported.
    """
    xi = np.asarray(xi, dtype=float)
    if kind.kind == SQUARED_HINGE:
        return kind.C * xi
    return kind.C / (1.0 + np.exp(-np.clip(xi, -700, 700)))


def dual_value_terms(alpha: np.ndarray, kind: LossKind) -> float:
    """Alpha-only part of the negated dual objective.

    For squared hinge this is ``||alpha||^2 / (2C) - 1'alpha``; for
    logistic it is the conjugate sum
    ``sum_i [a log(a/C) + (C-a) log((C-a)/C)]`` (with ``0 log 0 = 0``),
    and ``+inf`` when alpha leaves ``[0, C]``.  Adding the selected-column
    energy ``max_t ||X_t' (alpha .* y)||^2 / 2`` gives a value whose
    minimum over feasible alpha is the negated subproblem optimum.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        return np.inf
    if kind.kind == SQUARED_HINGE:
        return float(alpha @ alpha) / (2.0 * kind.C) - float(alpha.sum())
    if np.any(alpha > kind.C):
        return np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(alpha > 0, alpha * np.log(alpha / kind.C), 0.0)
        b = np.where(kind.C - alpha > 0, (kind.C - alpha) * np.log((kind.C - alpha) / kind.C), 0.0)
    return float(np.sum(a + b))
