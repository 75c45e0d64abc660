"""Subproblem solver: squared-sum-of-norms prox and accelerated descent.

The learning subproblem over the cached columns is

    min_w  0.5 * (sum_t ||w_t||)^2  +  p(w)

with ``p`` a smooth classification loss.  It is solved by an accelerated
proximal gradient method whose key ingredient is the exact proximal
operator of the squared sum of block norms (a sort-and-threshold rule in
the block-norm domain).  The line search backtracks upward from an
optimistic step, with a growing ceiling that guarantees termination, and a
function-value restart keeps the accepted objective sequence non-increasing.
The same loop also drives the dense l1 and l2 baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockWeights, ColumnCache
from .loss import LossKind, loss_from_margins, margins_from_scores, recover_duals  # noqa: F401
from .loss import _instance_weights


class NumericalError(RuntimeError):
    """Raised when the solver produces a non-finite value."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


def regularizer(w: BlockWeights) -> float:
    """Half the squared sum of block norms, ``0.5 * (sum_t ||w_t||)^2``."""
    return 0.5 * float(w.norms().sum()) ** 2


def _moreau_coefficients(u: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Per-block shrink factors for the prox of ``(s/2)(sum_t ||w_t||)^2``.

    Given block norms ``u`` of the prox argument, returns factors ``c`` so
    the minimizer's block ``t`` is ``c_t`` times the input block, plus the
    common threshold subtracted from the surviving norms.  Blocks are
    sorted by norm; the active count is the largest ``j`` whose norm stays
    positive after subtracting ``s/(1+js)`` times the running norm sum.
    """
    if s <= 0:
        raise ValueError("prox scale s must be positive")
    order = np.argsort(-u, kind="stable")
    u_sorted = u[order]
    csum = np.cumsum(u_sorted)
    j = np.arange(1, u.size + 1)
    keep = u_sorted - (s / (1.0 + j * s)) * csum > 0
    if not keep.any():
        return np.zeros_like(u), 0.0
    rho = int(j[keep].max())
    threshold = (s / (1.0 + rho * s)) * float(csum[rho - 1])
    shrunk = np.maximum(u - threshold, 0.0)
    c = np.zeros_like(u)
    pos = shrunk > 0
    c[pos] = shrunk[pos] / u[pos]
    return c, threshold


def moreau_projection(g: BlockWeights, s: float) -> BlockWeights:
    """Minimizer of ``0.5 ||w - g||^2 + (s/2)(sum_t ||w_t||)^2``.

    Every output block is either zero or a positive multiple of the
    corresponding input block; surviving block norms are the input norms
    minus a common threshold.
    """
    c, _ = _moreau_coefficients(g.norms(), s)
    return BlockWeights(np.repeat(c, np.diff(g.offsets)) * g.flat, g.offsets)


@dataclass
class ApgResult:
    """Outcome of one subproblem solve."""

    weights: BlockWeights
    tau: float                 # last accepted inverse step size
    objectives: list[float]    # accepted objective values, index 0 = start
    max_tau: float             # largest accepted inverse step size
    scores: np.ndarray         # cache.matrix @ weights, per instance

    @property
    def n_iters(self) -> int:
        return len(self.objectives) - 1


def _relative_change(f_prev: float, f_curr: float) -> float:
    return abs(f_prev - f_curr) / max(abs(f_prev), 1e-12)


def _accelerated(x: np.ndarray, s: np.ndarray, f_curr: float, linearize, stop, tau: float,
                 eta: float, max_iter: int
                 ) -> tuple[np.ndarray, np.ndarray, float, list[float], float, bool]:
    """Accelerated proximal gradient loop shared by every solver in the package.

    ``s`` holds the scores ``X @ x`` of the start, all that a loss reads; the
    loop extrapolates them with the same momentum as the point.
    ``linearize(v, s_v)`` gives the smooth value and gradient at the
    extrapolated point and a trial ``step(tau)`` returning the prox point
    for inverse step size ``tau``, its scores (a fresh product, so rounding
    never accumulates), its objective and its non-smooth penalty.
    ``stop(x, f_prev, f_curr)`` is asked after every accepted iteration.
    Returns ``(x, s, tau, objectives, max_tau, stopped)``: the final point
    and its scores, the last accepted ``tau``, the accepted objective trace
    (index 0 = start), the largest accepted ``tau`` and whether ``stop``
    fired.
    """
    if not np.isfinite(f_curr):
        raise NumericalError("non-finite objective at the starting point", iteration=0)
    x_prev, s_prev = x, s
    rho_prev = rho = 1.0
    cap = max(tau, 1e3 * tau)
    max_tau = 0.0
    objectives = [f_curr]
    for k in range(max_iter):
        while True:
            momentum = (rho_prev - 1.0) / rho
            v = x + momentum * (x - x_prev)
            p_v, grad, step = linearize(v, s + momentum * (s - s_prev))
            trial = eta * tau
            cap_hits = 0
            for _ in range(500):
                x_new, s_new, f_new, penalty = step(trial)
                diff = x_new - v
                q_val = p_v + float(grad @ diff) + penalty + 0.5 * trial * float(diff @ diff)
                if not np.isfinite(f_new):
                    raise NumericalError("non-finite objective during line search", iteration=k)
                if f_new <= q_val + 1e-12:
                    break
                if trial >= cap:
                    cap_hits += 1
                    if cap_hits >= 2:
                        cap *= 2.0
                        cap_hits = 0
                else:
                    cap_hits = 0
                trial = min(trial / eta, cap)
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
        if stop(x, f_prev, f_curr):
            return x, s, tau, objectives, max_tau, True
    return x, s, tau, objectives, max_tau, False


def apg_solve(cache: ColumnCache, labels: np.ndarray, kind: LossKind,
              warm: BlockWeights | None = None, L_init: float | None = None,
              eta: float = 0.8, eps: float = 1e-4, max_inner: int = 1000) -> ApgResult:
    """Accelerated proximal gradient for the cached-column subproblem.

    Parameters
    ----------
    cache : ColumnCache
        Selected (already scaled) columns, one block per selection round.
    labels : ndarray
        -1/+1 labels, one per instance.
    kind : LossKind
        Loss family and weight ``C``.
    warm : BlockWeights, optional
        Starting point (existing blocks extended with zeros); defaults to 0.
    L_init : float, optional
        Initial inverse step size; defaults to ``0.1 * n * C``.
    eta : float
        Backtracking factor in (0, 1); each iteration first tries the more
        optimistic ``eta * tau`` and only grows the step denominator when
        the sufficient-decrease test fails.
    eps : float
        Stop when the relative objective change drops to ``eps``.
    max_inner : int
        Iteration cap.

    Returns
    -------
    ApgResult
        Final weights and their scores ``cache.matrix @ w``, last accepted
        ``tau`` (fed forward as ``eta^2 * tau`` when the cache grows), and
        the accepted objective trace, which is non-increasing by
        construction (extrapolation is reset whenever it would raise the
        objective).

    Notes
    -----
    Each line-search trial takes the scores of its candidate in one
    product over the whole cache and each iteration one more for the
    gradient; the scores at the extrapolated point are extrapolated from
    those of the last two iterates.
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (cache.n_instances,):
        raise ValueError("labels length does not match the cache")
    if L_init is None:
        L_init = 0.1 * cache.n_instances * kind.C
    if not L_init > 0:
        raise ValueError("L_init must be positive")
    w = warm if warm is not None else BlockWeights.zeros(cache.offsets)
    if not np.array_equal(w.offsets, cache.offsets):
        raise ValueError("warm start does not match the cache layout")
    starts, sizes = cache.offsets[:-1], np.diff(cache.offsets)

    def loss(scores: np.ndarray) -> float:
        return loss_from_margins(margins_from_scores(scores, labels, kind), kind)

    def linearize(v: np.ndarray, s_v: np.ndarray):
        xi_v = margins_from_scores(s_v, labels, kind)
        grad = -(cache.matrix.T @ _instance_weights(xi_v, labels, kind))

        def step(tau: float):
            g = v - grad / tau
            norms = np.sqrt(np.add.reduceat(g * g, starts))
            c, _ = _moreau_coefficients(norms, 1.0 / tau)
            omega = 0.5 * float((c * norms).sum()) ** 2
            x = np.repeat(c, sizes) * g
            s_x = cache.matrix @ x
            return x, s_x, loss(s_x) + omega, omega

        return loss_from_margins(xi_v, kind), grad, step

    s_w = cache.scores(w)
    flat, scores, tau, objectives, max_tau, _ = _accelerated(
        w.flat.copy(), s_w, loss(s_w) + regularizer(w), linearize,
        lambda x, f_prev, f_curr: _relative_change(f_prev, f_curr) <= eps,
        float(L_init), eta, max_inner)
    return ApgResult(BlockWeights(flat, cache.offsets), tau, objectives, max_tau, scores)
