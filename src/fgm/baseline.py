"""Reference dense classifiers: l1-regularized, l2-regularized, and refits.

These baselines share the loss definitions with the selection engine but
optimize over all features at once:

* :func:`l1_prox_train` minimizes ``reg * ||w||_1 + loss`` by accelerated
  proximal gradient with a soft-threshold prox (the subproblem solver's
  driver), producing exact zeros;
* :func:`l2_full_train` minimizes ``0.5 ||w||^2 + loss``;
* :func:`retrain_unbiased` refits an l2 classifier on a fixed support with
  a large loss weight, removing the shrinkage bias of a sparse fit;
* :func:`sweep_to_support` walks a warm-started regularization path to hit
  requested support sizes within a tolerance, for matched-sparsity
  comparisons.

Every solve runs the subproblem solver's loop and returns its
:class:`~fgm.subsolver.ApgResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Model, ModelEntry
from .dataset import SparseDataset
from .loss import LossKind, gradient_from_margins, margins_from_scores
from .subsolver import ApgResult, _accelerated, _relative_change

# sweep_to_support's path: reg shrinks by _DECAY per point, for at most _MAX_POINTS points
_DECAY = 0.8
_MAX_POINTS = 120


def l1_prox_train(data: SparseDataset, kind: LossKind, reg: float,
                  eps: float = 1e-7, max_iter: int = 2000,
                  warm: np.ndarray | None = None) -> ApgResult:
    """Minimize ``reg * ||w||_1 + loss`` over all features.

    Runs the subproblem solver's accelerated loop, with its step rule,
    backtracking and restart, so the recorded objective sequence is
    non-increasing.  Zeros are exact because the soft-threshold prox
    produces them.
    """
    if reg < 0:
        raise ValueError("reg must be non-negative")
    w = np.zeros(data.m) if warm is None else np.asarray(warm, dtype=float).copy()
    if w.shape != (data.m,):
        raise ValueError("warm start has the wrong dimension")

    def soft_threshold(g: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
        x = np.sign(g) * np.maximum(np.abs(g) - reg / tau, 0.0)
        return x, reg * float(np.abs(x).sum())

    return _accelerated(
        data.design, data.y.astype(float), kind, w, reg * float(np.abs(w).sum()),
        soft_threshold, lambda x, s, f_prev, f_curr: _relative_change(f_prev, f_curr) <= eps,
        max_iter)


def _l2_solve(M, y: np.ndarray, dim: int, kind: LossKind, eps: float,
              max_iter: int, warm: np.ndarray | None = None) -> ApgResult:
    """Minimize ``0.5 ||w||^2 + loss`` for a given design matrix (the ridge is the prox)."""
    w = np.zeros(dim) if warm is None else np.asarray(warm, dtype=float).copy()

    def ridge_prox(g: np.ndarray, tau: float) -> tuple[np.ndarray, float]:
        x = g * (tau / (1.0 + tau))
        return x, 0.5 * float(x @ x)

    def stop(x: np.ndarray, s: np.ndarray, f_prev: float, f_curr: float) -> bool:
        grad = gradient_from_margins(M, margins_from_scores(s, y, kind), y, kind)
        grad_norm = float(np.linalg.norm(x + grad))
        return (grad_norm <= eps * (1.0 + float(np.linalg.norm(x)))
                or _relative_change(f_prev, f_curr) <= 1e-14)

    return _accelerated(M, y, kind, w, 0.5 * float(w @ w), ridge_prox, stop, max_iter)


def l2_full_train(data: SparseDataset, kind: LossKind, eps: float = 1e-6,
                  max_iter: int = 1000, warm: np.ndarray | None = None) -> ApgResult:
    """Minimize ``0.5 ||w||^2 + loss`` over all features.

    Stops, with ``converged=True``, when the gradient norm falls to
    ``eps * (1 + ||w||)`` or when an accepted step changes the objective by
    at most 1e-14 relative.  Near the optimum the second exit can fire
    first, leaving the gradient norm several times that bound.
    """
    return _l2_solve(data.design, data.y.astype(float), data.m, kind, eps,
                     max_iter, warm)


def retrain_unbiased(data: SparseDataset, support, kind: LossKind | None = None,
                     eps: float = 1e-6, max_iter: int = 1000) -> Model:
    """l2 refit on a fixed support with a large loss weight (default C=20).

    Returns a plain-feature model whose entries cover exactly ``support``;
    features outside it keep weight zero.  Used to remove the shrinkage
    bias of a sparse fit before measuring accuracy.  The solve stops on
    either exit of :func:`l2_full_train`; ``config["converged"]`` is False
    only at ``max_iter``.
    """
    support = np.unique(np.asarray(list(support), dtype=np.intp))
    if support.size == 0:
        raise ValueError("support must be non-empty")
    if support[0] < 0 or support[-1] >= data.m:
        raise ValueError("support index out of range")
    if kind is None:
        kind = LossKind(C=20.0)
    M = data.dense_columns(support)
    sol = _l2_solve(M, data.y.astype(float), support.size, kind, eps, max_iter)
    entries = [ModelEntry(int(j), float(sol.weights[i])) for i, j in enumerate(support)]
    return Model(
        mode="plain", stop_reason="retrain", m=data.m,
        units=tuple(int(j) for j in support), entries=entries,
        config={"C": kind.C, "loss": kind.kind, "support_size": int(support.size),
                "converged": bool(sol.converged)},
        mkl_weights=[1.0],
    )


@dataclass
class SweepResult:
    """One matched-sparsity solution from a regularization path."""

    reg: float
    weights: ApgResult


def sweep_to_support(data: SparseDataset, kind: LossKind, targets,
                     tol: float = 0.05, eps: float = 1e-7,
                     max_iter: int = 2000) -> dict[int, SweepResult]:
    """Find l1 weights whose support sizes match the targets within ``tol``.

    Walks ``reg`` down a geometric grid from the smallest value that zeroes
    every feature, warm-starting each solve, then bisects between
    bracketing grid points for any target still outside its window.
    Returns the closest solution found per target (within ``tol`` whenever
    the path crosses the window).
    """
    targets = sorted(set(int(t) for t in targets))
    if not targets or targets[0] < 1:
        raise ValueError("targets must be positive integers")
    y = data.y.astype(float)
    grad0 = gradient_from_margins(data.design, margins_from_scores(np.zeros(data.n), y, kind),
                                  y, kind)
    reg_max = float(np.max(np.abs(grad0)))
    if reg_max == 0:
        raise ValueError("zero gradient at the origin; nothing to sweep")

    path: list[tuple[float, ApgResult]] = []
    reg = reg_max
    warm = None
    top = max(targets)
    for _ in range(_MAX_POINTS):
        reg *= _DECAY
        sol = l1_prox_train(data, kind, reg, eps=eps, max_iter=max_iter, warm=warm)
        warm = sol.weights
        path.append((reg, sol))
        if sol.support_size >= top * (1.0 + tol):
            break

    def closest(t: int) -> tuple[float, ApgResult]:
        return min(path, key=lambda p: (abs(p[1].support_size - t), p[0]))

    out: dict[int, SweepResult] = {}
    for t in targets:
        reg_best, sol_best = closest(t)
        lo, hi = t * (1.0 - tol), t * (1.0 + tol)
        if not lo <= sol_best.support_size <= hi:
            # bracket the target between neighboring path points and bisect
            above = [p for p in path if p[1].support_size > t]
            below = [p for p in path if p[1].support_size < t]
            if above and below:
                # support shrinks as reg grows: overshooting points sit at
                # smaller regs than undershooting ones
                reg_lo = max(p[0] for p in above)
                reg_hi = min(p[0] for p in below)
                for _ in range(20):
                    mid = float(np.sqrt(reg_lo * reg_hi))
                    sol = l1_prox_train(data, kind, mid, eps=eps, max_iter=max_iter,
                                        warm=sol_best.weights)
                    path.append((mid, sol))
                    if abs(sol.support_size - t) < abs(sol_best.support_size - t):
                        reg_best, sol_best = mid, sol
                    if lo <= sol.support_size <= hi:
                        break
                    if sol.support_size > t:
                        reg_lo = mid
                    else:
                        reg_hi = mid
        out[t] = SweepResult(reg_best, sol_best)
    return out


def dense_to_model(sol: ApgResult, data: SparseDataset, kind: LossKind,
                   method: str = "l1") -> Model:
    """Wrap a dense baseline solution in the shared model container."""
    support = sol.support
    entries = [ModelEntry(int(j), float(sol.weights[j])) for j in support]
    return Model(
        mode="plain", stop_reason=method, m=data.m,
        units=tuple(int(j) for j in support), entries=entries,
        config={"C": kind.C, "loss": kind.kind, "method": method,
                "converged": bool(sol.converged)},
        mkl_weights=[1.0],
    )
