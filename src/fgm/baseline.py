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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import Model, ModelEntry
from .dataset import SparseDataset
from .loss import LossKind, _instance_weights, loss_from_margins, margins_from_scores
from .subsolver import _accelerated, _relative_change

_DENSIFY_THRESHOLD = 0.25


@dataclass
class DenseWeights:
    """Dense weight vector with the objective values of its solve.

    ``converged`` is False when the solver stopped at its iteration cap
    instead of on its stopping rule.
    """

    w: np.ndarray
    objectives: list[float]
    converged: bool = True

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.w)

    @property
    def support_size(self) -> int:
        return int(np.count_nonzero(self.w))


def _design(data: SparseDataset):
    """Dense matrix when the data is mostly dense, CSR otherwise."""
    density = data.X.nnz / max(1, data.n * data.m)
    if density >= _DENSIFY_THRESHOLD:
        return np.asarray(data.X.todense())
    return data.X


def _loss_and_coef(scores: np.ndarray, y: np.ndarray, kind: LossKind):
    xi = margins_from_scores(scores, y, kind)
    return loss_from_margins(xi, kind), _instance_weights(xi, y, kind)


def l1_prox_train(data: SparseDataset, kind: LossKind, reg: float,
                  eps: float = 1e-7, max_iter: int = 2000,
                  warm: np.ndarray | None = None) -> DenseWeights:
    """Minimize ``reg * ||w||_1 + loss`` over all features.

    Accelerated proximal gradient with backtracking: each iteration first
    tries a more optimistic step, grows the denominator only while the
    sufficient-decrease test fails (ceiling doubled if hit repeatedly),
    and resets extrapolation whenever the objective would rise, so the
    recorded objective sequence is non-increasing.  Zeros are exact
    because the soft-threshold prox produces them.
    """
    if reg < 0:
        raise ValueError("reg must be non-negative")
    M = _design(data)
    y = data.y.astype(float)
    w = np.zeros(data.m) if warm is None else np.asarray(warm, dtype=float).copy()
    if w.shape != (data.m,):
        raise ValueError("warm start has the wrong dimension")

    def penalty(x: np.ndarray) -> float:
        return reg * float(np.abs(x).sum())

    def linearize(v: np.ndarray, s_v: np.ndarray):
        p_v, coef = _loss_and_coef(s_v, y, kind)
        grad = -np.asarray(M.T @ coef).ravel()

        def step(tau: float):
            g = v - grad / tau
            x = np.sign(g) * np.maximum(np.abs(g) - reg / tau, 0.0)   # soft threshold
            s_x = M @ x
            pen = penalty(x)
            return x, s_x, _loss_and_coef(s_x, y, kind)[0] + pen, pen

        return p_v, grad, step

    s_w = M @ w
    w, _, _, objectives, _, converged = _accelerated(
        w, s_w, _loss_and_coef(s_w, y, kind)[0] + penalty(w), linearize,
        lambda x, f_prev, f_curr: _relative_change(f_prev, f_curr) <= eps,
        0.1 * data.n * kind.C, 0.8, max_iter)
    return DenseWeights(w, objectives, converged)


def _l2_solve(M, y: np.ndarray, dim: int, kind: LossKind, eps: float,
              max_iter: int, warm: np.ndarray | None = None) -> DenseWeights:
    """Minimize ``0.5 ||w||^2 + loss`` for a given design matrix (ridge in the smooth part)."""
    w = np.zeros(dim) if warm is None else np.asarray(warm, dtype=float).copy()
    coef_last = None        # loss coefficients at the last point whose objective was taken

    def objective(x: np.ndarray, s_x: np.ndarray) -> float:
        nonlocal coef_last
        loss, coef_last = _loss_and_coef(s_x, y, kind)
        return 0.5 * float(x @ x) + loss

    def gradient(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
        return x - np.asarray(M.T @ coef).ravel()

    def linearize(v: np.ndarray, s_v: np.ndarray):
        p_v, coef = _loss_and_coef(s_v, y, kind)
        grad = gradient(v, coef)

        def step(tau: float):
            x = v - grad / tau
            s_x = M @ x
            return x, s_x, objective(x, s_x), 0.0

        return 0.5 * float(v @ v) + p_v, grad, step

    def stop(x: np.ndarray, f_prev: float, f_curr: float) -> bool:
        # x is the accepted trial step, the last point passed to objective
        grad_norm = float(np.linalg.norm(gradient(x, coef_last)))
        return (grad_norm <= eps * (1.0 + float(np.linalg.norm(x)))
                or _relative_change(f_prev, f_curr) <= 1e-14)

    s_w = M @ w
    w, _, _, objectives, _, converged = _accelerated(
        w, s_w, objective(w, s_w), linearize, stop, 0.1 * y.size * kind.C, 0.8, max_iter)
    return DenseWeights(w, objectives, converged)


def l2_full_train(data: SparseDataset, kind: LossKind, eps: float = 1e-6,
                  max_iter: int = 1000, warm: np.ndarray | None = None) -> DenseWeights:
    """Minimize ``0.5 ||w||^2 + loss`` over all features.

    Stops when the gradient norm falls to ``eps * (1 + ||w||)``.
    """
    return _l2_solve(_design(data), data.y.astype(float), data.m, kind, eps, max_iter, warm)


def retrain_unbiased(data: SparseDataset, support, kind: LossKind | None = None,
                     eps: float = 1e-6, max_iter: int = 1000) -> Model:
    """l2 refit on a fixed support with a large loss weight (default C=20).

    Returns a plain-feature model whose entries cover exactly ``support``;
    features outside it keep weight zero.  Used to remove the shrinkage
    bias of a sparse fit before measuring accuracy.
    """
    support = np.unique(np.asarray(list(support), dtype=np.intp))
    if support.size == 0:
        raise ValueError("support must be non-empty")
    if support[0] < 0 or support[-1] >= data.m:
        raise ValueError("support index out of range")
    if kind is None:
        kind = LossKind("squared_hinge", 20.0)
    M = data.dense_columns(support)
    sol = _l2_solve(M, data.y.astype(float), support.size, kind, eps, max_iter)
    entries = [ModelEntry(int(j), float(sol.w[i]), 1.0) for i, j in enumerate(support)]
    return Model(
        mode="plain", budget=support.size, n_outer=1, stop_reason="retrain",
        loss=kind, lambda_policy="ones", m=data.m,
        units=tuple(int(j) for j in support), entries=entries,
        config={"C": kind.C, "loss": kind.kind, "support_size": int(support.size),
                "converged": bool(sol.converged)},
        mkl_weights=[1.0],
    )


@dataclass
class SweepResult:
    """One matched-sparsity solution from a regularization path."""

    reg: float
    weights: DenseWeights
    support_size: int


def sweep_to_support(data: SparseDataset, kind: LossKind, targets,
                     tol: float = 0.05, decay: float = 0.8, eps: float = 1e-7,
                     max_iter: int = 2000, max_points: int = 120) -> dict[int, SweepResult]:
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
    M = _design(data)
    y = data.y.astype(float)
    _, coef0 = _loss_and_coef(np.zeros(data.n), y, kind)
    reg_max = float(np.max(np.abs(np.asarray(M.T @ coef0).ravel())))
    if reg_max == 0:
        raise ValueError("zero gradient at the origin; nothing to sweep")

    path: list[tuple[float, DenseWeights]] = []
    reg = reg_max
    warm = None
    top = max(targets)
    for _ in range(max_points):
        reg *= decay
        sol = l1_prox_train(data, kind, reg, eps=eps, max_iter=max_iter, warm=warm)
        warm = sol.w
        path.append((reg, sol))
        if sol.support_size >= top * (1.0 + tol):
            break

    def closest(t: int) -> tuple[float, DenseWeights]:
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
                                        warm=sol_best.w)
                    path.append((mid, sol))
                    if abs(sol.support_size - t) < abs(sol_best.support_size - t):
                        reg_best, sol_best = mid, sol
                    if lo <= sol.support_size <= hi:
                        break
                    if sol.support_size > t:
                        reg_lo = mid
                    else:
                        reg_hi = mid
        out[t] = SweepResult(reg_best, sol_best, sol_best.support_size)
    return out


def dense_to_model(sol: DenseWeights, data: SparseDataset, kind: LossKind,
                   method: str = "l1") -> Model:
    """Wrap a dense baseline solution in the shared model container."""
    support = sol.support
    entries = [ModelEntry(int(j), float(sol.w[j]), 1.0) for j in support]
    return Model(
        mode="plain", budget=max(1, support.size), n_outer=1, stop_reason=method,
        loss=kind, lambda_policy="ones", m=data.m,
        units=tuple(int(j) for j in support), entries=entries,
        config={"C": kind.C, "loss": kind.kind, "method": method,
                "converged": bool(sol.converged)},
        mkl_weights=[1.0],
    )
