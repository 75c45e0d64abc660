"""
Finding pairwise interactions without building the quadratic design
===================================================================

Labels driven by a product of two features defeat every linear model.
Switching the selection units to implicit degree-2 polynomial features
(constant, linear, squared, and all pairwise-product terms) fixes this —
and the worst-case search scores those O(m^2) virtual features in
streamed blocks, so the quadratic design matrix is never materialized.
"""

import numpy as np

from fgm import (PolyMap, SolverConfig, SparseDataset, fgm_train, poly_dim,
                 poly_variant, predict)

# Labels are the sign of x2 * x5: a pure interaction, zero linear signal.
rng = np.random.default_rng(3)
n, m = 500, 12
X = rng.standard_normal((n, m))
y = np.where(X[:, 2] * X[:, 5] >= 0, 1.0, -1.0)
train = SparseDataset(X, y)

X_test = rng.standard_normal((2000, m))
y_test = np.where(X_test[:, 2] * X_test[:, 5] >= 0, 1.0, -1.0)
test = SparseDataset(X_test, y_test)

# ---------------------------------------------------------------------------
# A budgeted linear model can only guess.
cfg = SolverConfig(budget=2, C=10.0, eps_apg=1e-6, max_outer=5)
linear = fgm_train(train, cfg)
_, acc = predict(linear, test)
print(f"linear selection: {linear.support_size} features, "
      f"test accuracy {acc:.3f}")

# ---------------------------------------------------------------------------
# Same budget, but the units are now the poly_dim(m) virtual degree-2
# features, scored blockwise from the original columns.
pmap = PolyMap(gamma=1.0, r=1.0, block=32)
poly = fgm_train(train, cfg, structure=pmap)
_, acc = predict(poly, test)
print(f"\ndegree-2 selection over {poly_dim(m)} virtual features:")
print(f"  {poly.support_size} selected, test accuracy {acc:.3f}")

# Decode what was picked: the planted x2*x5 product should lead.
for entry in sorted(poly.entries, key=lambda e: -abs(e.weight)):
    kind, *idx = poly_variant(entry.id, m)
    print(f"  weight {entry.weight:+.3f} on {kind}{tuple(idx)}")
