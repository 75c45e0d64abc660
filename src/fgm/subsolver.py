"""Subproblem solver: squared-sum-of-norms prox and accelerated descent.

The learning subproblem over the cached columns is

    min_w  0.5 * (sum_t ||w_t||)^2  +  p(w)

with ``p`` a smooth classification loss.  It is solved by an accelerated
proximal gradient method whose key ingredient is the exact proximal
operator of the squared sum of block norms (a sort-and-threshold rule in
the block-norm domain).  The loop alone owns the step rule: a solve starts
at the inverse step ``0.1 * n * C`` unless its caller passes one, each
iteration first tries ``_ETA = 0.8`` times the last accepted inverse step,
and each rejected trial grows it by ``1/_ETA`` (500 trials at most); a
function-value restart keeps the accepted objective sequence
non-increasing.  Training carries ``_ETA**2`` times a round's last accepted
inverse step into the next round.
The same loop also drives the dense l1 and l2 baselines: it owns the loss,
its gradient and every product with the design, and each solver supplies
only the prox of its penalty (sum of norms, soft threshold, or ridge).
Every solve returns one record, :class:`ApgResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import ColumnCache
from .loss import LossKind, gradient_from_margins, loss_from_margins, margins_from_scores

_ETA = 0.8      # backoff: a step first tries _ETA * tau, and each rejected trial divides by _ETA


class NumericalError(RuntimeError):
    """Raised when the solver produces a non-finite value."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def regularizer(w: np.ndarray, cache: ColumnCache) -> float:
    """Half the squared sum of block norms, ``0.5 * (sum_t ||w_t||)^2``, in the cache's layout."""
    return 0.5 * float(cache.block_norms(w).sum()) ** 2


def _moreau_coefficients(u: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Per-block shrink factors for the prox of ``(s/2)(sum_t ||w_t||)^2``.

    Given block norms ``u`` of the prox argument, returns factors ``c`` so
    the minimizer's block ``t`` is ``c_t`` times the input block, plus the
    common threshold subtracted from the surviving norms.  Blocks are
    sorted by norm; the active count is the largest ``j`` whose norm stays
    positive after subtracting ``s/(1+js)`` times the running norm sum.
    There is one block per selection round, so the sorted norms are
    scanned as Python floats, with the IEEE operations of the array form.
    """
    if s <= 0:
        raise ValueError("prox scale s must be positive")
    rho, total, csum = 0, 0.0, 0.0
    for j, u_j in enumerate((-np.sort(-u)).tolist(), start=1):
        csum += u_j
        if u_j - (s / (1.0 + j * s)) * csum > 0:
            rho, total = j, csum
    if not rho:
        return np.zeros_like(u), 0.0
    threshold = (s / (1.0 + rho * s)) * total
    shrunk = np.maximum(u - threshold, 0.0)
    return np.divide(shrunk, u, out=np.zeros_like(u), where=shrunk > 0), threshold


def moreau_projection(g: np.ndarray, cache: ColumnCache, s: float) -> tuple[np.ndarray, float]:
    """Minimizer of ``0.5 ||w - g||^2 + (s/2)(sum_t ||w_t||)^2`` in the cache's block layout.

    Returns the minimizer and its :func:`regularizer` value.  Every output
    block is either zero or a positive multiple of the corresponding input
    block; surviving block norms are the input norms minus a common
    threshold.
    """
    norms = cache.block_norms(g)
    c, _ = _moreau_coefficients(norms, s)
    return np.repeat(c, cache.sizes) * g, 0.5 * float((c * norms).sum()) ** 2


@dataclass
class ApgResult:
    """Outcome of one accelerated solve; ``weights`` are flat, in the solved design's columns."""

    weights: np.ndarray
    scores: np.ndarray         # design @ weights, per instance
    tau: float                 # last accepted inverse step size
    max_tau: float             # largest accepted inverse step size
    objectives: list[float]    # accepted objective values, index 0 = start
    converged: bool            # False when the iteration cap, not the stop rule, ended it

    @property
    def n_iters(self) -> int:
        return len(self.objectives) - 1

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.weights)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.weights))


def _relative_change(f_prev: float, f_curr: float) -> float:
    return abs(f_prev - f_curr) / max(abs(f_prev), 1e-12)


def _accelerated(M, labels: np.ndarray, kind: LossKind, x: np.ndarray, penalty: float,
                 prox, stop, max_iter: int, tau: float | None = None) -> ApgResult:
    """Accelerated proximal gradient for ``loss(M @ x) + penalty(x)``, shared by every solver.

    The loop owns the loss, its gradient and every product with ``M``; a
    solver supplies only ``prox(g, tau) -> (x, penalty)``, the minimizer of
    ``penalty(x) + 0.5 * tau * ||x - g||^2`` with its penalty value, and
    ``stop(x, s, f_prev, f_curr)``, asked after every accepted iteration with
    the point and its scores ``s = M @ x``.  ``penalty`` is the start's, and
    ``tau`` the first inverse step, ``0.1 * n * C`` when not given.  The
    scores at the extrapolated point are extrapolated with the same momentum
    as the point; each line-search trial takes fresh ones in one product, so
    rounding never accumulates.  ``converged`` in the result says whether
    ``stop`` fired.
    """
    def loss(scores: np.ndarray) -> float:
        return loss_from_margins(margins_from_scores(scores, labels, kind), kind)

    if tau is None:
        tau = 0.1 * labels.size * kind.C
    s = M @ x
    f_curr = loss(s) + penalty
    if not np.isfinite(f_curr):
        raise NumericalError("non-finite objective at the starting point", iteration=0)
    x_prev, s_prev = x, s
    rho_prev = rho = 1.0
    max_tau = 0.0
    objectives = [f_curr]
    for k in range(max_iter):
        while True:
            momentum = (rho_prev - 1.0) / rho
            v = x + momentum * (x - x_prev)
            xi_v = margins_from_scores(s + momentum * (s - s_prev), labels, kind)
            p_v = loss_from_margins(xi_v, kind)
            grad = gradient_from_margins(M, xi_v, labels, kind)
            trial = _ETA * tau
            for _ in range(500):
                x_new, penalty = prox(v - grad / trial, trial)
                s_new = M @ x_new
                f_new = loss(s_new) + penalty
                diff = x_new - v
                q_val = p_v + float(grad @ diff) + penalty + 0.5 * trial * float(diff @ diff)
                if not np.isfinite(f_new):
                    raise NumericalError("non-finite objective during line search", iteration=k)
                if f_new <= q_val + 1e-12:
                    break
                trial /= _ETA
            else:
                raise NumericalError("line search failed to terminate", iteration=k)
            tau = trial
            if f_new > f_curr + 1e-12 and momentum > 0:
                # extrapolation overshot: restart from the current point, where
                # acceptance guarantees no increase; the momentum is then 0
                rho_prev = rho = 1.0
                x_prev, s_prev = x, s
                continue
            break
        max_tau = max(max_tau, tau)
        x_prev, x = x, x_new
        s_prev, s = s, s_new
        rho_prev, rho = rho, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * rho * rho))
        f_prev, f_curr = f_curr, f_new
        objectives.append(f_curr)
        if stop(x, s, f_prev, f_curr):
            return ApgResult(x, s, tau, max_tau, objectives, True)
    return ApgResult(x, s, tau, max_tau, objectives, False)


def apg_solve(cache: ColumnCache, labels: np.ndarray, kind: LossKind,
              warm: np.ndarray | None = None, L_init: float | None = None,
              eps: float = 1e-4, max_inner: int = 1000) -> ApgResult:
    """Accelerated proximal gradient for the cached-column subproblem.

    Parameters
    ----------
    cache : ColumnCache
        Selected (already scaled) columns, one block per selection round;
        the products are the cache's own (``cache @ w``, ``cache.T @ z``),
        which read each distinct column once.
    labels : ndarray
        -1/+1 labels, one per instance.
    kind : LossKind
        Loss family and weight ``C``.
    warm : ndarray, optional
        Flat starting point in the cache's layout (the previous round's
        weights with zeros appended for the new block); defaults to 0.
    L_init : float, optional
        Initial inverse step size; defaults to ``0.1 * n * C``.  Each
        iteration first tries the more optimistic ``0.8 * tau`` and only
        grows the step denominator when the sufficient-decrease test fails.
    eps : float
        Stop when the relative objective change drops to ``eps``.
    max_inner : int
        Iteration cap.

    Returns
    -------
    ApgResult
        Final flat weights in the cache's layout and their scores
        ``cache @ w``, last accepted ``tau`` (fed forward as
        ``0.8^2 * tau`` when the cache grows), the accepted objective
        trace, which is non-increasing by construction (extrapolation is
        reset whenever it would raise the objective), and whether the
        ``eps`` rule stopped the solve before ``max_inner``.
    """
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (cache.n_instances,):
        raise ValueError("labels length does not match the cache")
    if L_init is not None and not L_init > 0:
        raise ValueError("L_init must be positive")
    w = np.zeros(cache.offsets[-1]) if warm is None else np.array(warm, dtype=float)
    if w.shape != (cache.offsets[-1],):
        raise ValueError("warm start does not match the cache layout")
    return _accelerated(
        cache, labels, kind, w, regularizer(w, cache),
        lambda g, tau: moreau_projection(g, cache, 1.0 / tau),
        lambda x, s, f_prev, f_curr: _relative_change(f_prev, f_curr) <= eps,
        max_inner, L_init)
