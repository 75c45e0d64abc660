"""Independent reference implementations used to validate the package.

Each oracle takes a deliberately different algorithmic route from the code
under test: exact cyclic block minimization for the squared-sum prox,
projected gradient on a cone reformulation for the subproblem, quasi-Newton
on split smooth reformulations for the dense baselines, and exhaustive
enumeration (sort- or subset-based) for the selection searches.  The
sparse text reader and writer are written token by token, and the prox
coefficients in whole-array form.
"""

from __future__ import annotations

import itertools
import warnings

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.special

from fgm.blocks import ColumnCache
from fgm.dataset import FormatError

# ---------------------------------------------------------------------------
# loss formulas, written directly (no imports from fgm.loss)


def loss_value_direct(u: np.ndarray, y: np.ndarray, kind) -> float:
    if kind.kind == "squared_hinge":
        xi = np.maximum(1.0 - y * u, 0.0)
        return 0.5 * kind.C * float(xi @ xi)
    return kind.C * float(np.sum(np.logaddexp(0.0, -y * u)))


def loss_grad_coef_direct(u: np.ndarray, y: np.ndarray, kind) -> np.ndarray:
    """Coefficients c with gradient -M'c, matching the loss above."""
    if kind.kind == "squared_hinge":
        return kind.C * y * np.maximum(1.0 - y * u, 0.0)
    return kind.C * y * scipy.special.expit(-y * u)


# ---------------------------------------------------------------------------
# prox of 0.5||w - g||^2 + (s/2)(sum_t ||w_t||)^2 by exact cyclic updates


def moreau_bcd(g_blocks: list[np.ndarray], s: float, sweeps: int = 500,
               tol: float = 1e-15) -> list[np.ndarray]:
    """Cyclic exact block minimization.

    The block update has a closed one-dimensional form: with the other
    block norms summing to R, the new norm is
    ``max(0, (||g_t|| - s R) / (1 + s))`` along the direction of ``g_t``.
    Directional derivatives of the objective are additive across blocks,
    so blockwise optimality implies global optimality and the iteration
    converges to the unique minimizer of this strictly convex objective.
    """
    norms_g = np.array([float(np.linalg.norm(b)) for b in g_blocks])
    nu = norms_g.copy()
    for _ in range(sweeps):
        shift = 0.0
        for t in range(len(g_blocks)):
            rest = float(nu.sum() - nu[t])
            new = max(0.0, (norms_g[t] - s * rest) / (1.0 + s))
            shift = max(shift, abs(new - nu[t]))
            nu[t] = new
        if shift <= tol:
            break
    out = []
    for t, b in enumerate(g_blocks):
        if norms_g[t] > 0 and nu[t] > 0:
            out.append(b * (nu[t] / norms_g[t]))
        else:
            out.append(np.zeros_like(np.asarray(b, dtype=float)))
    return out


def moreau_coefficients_array(u: np.ndarray, s: float) -> tuple[np.ndarray, float]:
    """Shrink factors and threshold of the squared-sum prox, all in array operations."""
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


def prox_objective(w_blocks, g_blocks, s: float) -> float:
    diff = sum(float(np.sum((np.asarray(w) - np.asarray(g)) ** 2))
               for w, g in zip(w_blocks, g_blocks))
    total = sum(float(np.linalg.norm(w)) for w in w_blocks)
    return 0.5 * diff + 0.5 * s * total ** 2


# ---------------------------------------------------------------------------
# subproblem oracle: projected gradient on a second-order-cone lift
#
#   min_{w, z}  p(w) + 0.5 (sum_t z_t)^2   s.t.  ||w_t|| <= z_t
#
# At the optimum z_t = ||w_t||, so the value equals the subproblem's.


def _cone_project(x: np.ndarray, t: float) -> tuple[np.ndarray, float]:
    nx = float(np.linalg.norm(x))
    if nx <= t:
        return x, t
    if nx <= -t:
        return np.zeros_like(x), 0.0
    a = 0.5 * (nx + t)
    return (a / nx) * x, a


def soc_projected_gradient(cache: ColumnCache, labels: np.ndarray, kind,
                           iters: int = 6000) -> tuple[np.ndarray, float]:
    offsets = cache.offsets
    T = offsets.size - 1
    w = np.zeros(int(offsets[-1]))
    z = np.zeros(T)

    def value(wv, zv):
        u = cache.matrix @ wv
        return loss_value_direct(u, labels, kind) + 0.5 * float(zv.sum()) ** 2

    def project(wv, zv):
        w_out = np.empty_like(wv)
        z_out = np.empty_like(zv)
        for t in range(T):
            sl = slice(offsets[t], offsets[t + 1])
            w_out[sl], z_out[t] = _cone_project(wv[sl], zv[t])
        return w_out, z_out

    step = 1.0 / max(1.0, float(np.linalg.norm(cache.matrix, ord="fro")) ** 2 * kind.C)
    f = value(w, z)
    for _ in range(iters):
        u = cache.matrix @ w
        coef = loss_grad_coef_direct(u, labels, kind)
        gw = -(cache.matrix.T @ coef)
        gz = np.full(T, float(z.sum()))
        while True:
            w_new, z_new = project(w - step * gw, z - step * gz)
            f_new = value(w_new, z_new)
            if f_new <= f + 1e-15:
                break
            step *= 0.5
            if step < 1e-18:
                w_new, z_new, f_new = w, z, f
                break
        move = float(np.sum((w_new - w) ** 2) + np.sum((z_new - z) ** 2))
        done = f - f_new <= 1e-15 * max(1.0, abs(f)) and move <= 1e-24
        w, z, f = w_new, z_new, f_new
        step *= 1.05
        if done:
            break
    return w, f


# ---------------------------------------------------------------------------
# dense baseline oracles via L-BFGS-B on smooth reformulations


def l1_split_lbfgs(M: np.ndarray, y: np.ndarray, kind, reg: float) -> tuple[np.ndarray, float]:
    """l1-penalized loss via the split w = a - b with a, b >= 0 (smooth)."""
    m = M.shape[1]

    def fun(ab):
        a, b = ab[:m], ab[m:]
        w = a - b
        u = M @ w
        val = reg * float((a + b).sum()) + loss_value_direct(u, y, kind)
        coef = loss_grad_coef_direct(u, y, kind)
        gw = -(M.T @ coef)
        return val, np.concatenate([reg + gw, reg - gw])

    res = scipy.optimize.minimize(
        fun, np.zeros(2 * m), jac=True, method="L-BFGS-B",
        bounds=[(0.0, None)] * (2 * m),
        options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-12},
    )
    w = res.x[:m] - res.x[m:]
    return w, reg * float(np.abs(w).sum()) + loss_value_direct(M @ w, y, kind)


def l2_lbfgs(M: np.ndarray, y: np.ndarray, kind) -> tuple[np.ndarray, float]:
    """0.5||w||^2 + loss via plain L-BFGS."""
    m = M.shape[1]

    def fun(w):
        u = M @ w
        val = 0.5 * float(w @ w) + loss_value_direct(u, y, kind)
        coef = loss_grad_coef_direct(u, y, kind)
        return val, w - (M.T @ coef)

    res = scipy.optimize.minimize(fun, np.zeros(m), jac=True, method="L-BFGS-B",
                                  options={"maxiter": 2000, "ftol": 1e-15, "gtol": 1e-10})
    return res.x, float(res.fun)


# ---------------------------------------------------------------------------
# finite differences


def central_fd_gradient(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# exhaustive selection references


def best_subset_lex(scores: np.ndarray, budget: int) -> tuple[int, ...]:
    """Max-total-score subset of the given size; ties to lexicographic order.

    Enumerates every subset, so only use for small score vectors.
    """
    p = len(scores)
    b = min(budget, p)
    best_ids = None
    best_total = -np.inf
    for combo in itertools.combinations(range(p), b):
        total = sum(float(scores[j]) for j in combo)
        if total > best_total:
            best_total, best_ids = total, combo
    return best_ids


def sort_top_b(scores, budget: int) -> tuple[int, ...]:
    """Top-B ids by (score desc, index asc), returned sorted by id."""
    order = sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))
    return tuple(sorted(order[:min(budget, len(scores))]))


def tree_scores_exhaustive(omega_sq: np.ndarray, tree) -> np.ndarray:
    return np.array([tree.lambdas[i] ** 2 * float(omega_sq[tree.sets[i]].sum())
                     for i in range(tree.n_nodes)])


def poly_full_matrix(X: np.ndarray, gamma: float, r: float) -> np.ndarray:
    """All degree-2 virtual feature columns in flat-id order, built by loops."""
    n, m = X.shape
    cols = [np.full(n, float(r))]
    for a in range(m):
        cols.append(np.sqrt(2.0 * gamma * r) * X[:, a])
    for a in range(m):
        cols.append(gamma * X[:, a] ** 2)
    for a in range(m):
        for b in range(a + 1, m):
            cols.append(np.sqrt(2.0) * gamma * X[:, a] * X[:, b])
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# sparse text format, one token at a time


def libsvm_per_token(path, dim: int | None = None) -> tuple[sp.csr_matrix, np.ndarray]:
    """Read a sparse text file pair by pair: ``(X, y)`` or the reader's ``FormatError``."""
    labels, indptr, indices, values = [], [0], [], []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise FormatError(f"{path}:{line_no}: invalid label {parts[0]!r}") from None
            if label not in (-1.0, 1.0, 0.0):
                raise FormatError(f"{path}:{line_no}: label {parts[0]!r} not in -1/+1 (or 0/1)")
            labels.append(label)
            prev = -1
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise FormatError(f"{path}:{line_no}: invalid pair {tok!r}") from None
                if idx < 1:
                    raise FormatError(f"{path}:{line_no}: index {idx} must be >= 1")
                if idx > np.iinfo(np.intp).max:
                    raise FormatError(f"{path}:{line_no}: index {idx} is too large")
                if idx - 1 <= prev:
                    raise FormatError(f"{path}:{line_no}: indices must be strictly increasing")
                prev = idx - 1
                indices.append(idx - 1)
                values.append(val)
            indptr.append(len(indices))
    if not labels:
        raise FormatError(f"{path}: no instances found")
    y = np.asarray(labels)
    if np.any(y == 0.0):
        if np.any(y == -1.0):
            raise FormatError(f"{path}: labels mix 0/1 and -1/+1 conventions")
        warnings.warn(f"{path}: remapping 0/1 labels to -1/+1", stacklevel=2)
        y = np.where(y == 0.0, -1.0, 1.0)
    top = max(indices, default=-1)
    if dim is None:
        dim = top + 1
    elif top >= dim:
        raise FormatError(f"{path}: feature index {top + 1} exceeds dim={dim}")
    X = sp.csr_matrix(
        (np.asarray(values), np.asarray(indices, dtype=np.intp), np.asarray(indptr, dtype=np.intp)),
        shape=(len(labels), dim))
    return X, y.astype(int)


def libsvm_text_per_value(X: sp.csr_matrix, y: np.ndarray) -> str:
    """The sparse text of ``(X, y)``, formatted one value at a time."""
    lines = []
    for i, label in enumerate(y.tolist()):
        row = X[i]
        pairs = [f"{j + 1}:{v:.17g}" for j, v in zip(row.indices.tolist(), row.data.tolist())]
        lines.append(" ".join([f"{label:+d}", *pairs]) + "\n")
    return "".join(lines)
