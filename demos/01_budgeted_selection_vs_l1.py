"""
Budgeted feature selection versus an l1-penalized dense path
============================================================

Train a linear classifier that is allowed to grow its support by at most
``budget`` features per round, and compare it against the usual way of
getting sparse linear models: sweeping an l1 penalty until the support
has the size we want.  Both models end up with a comparable number of
active features; we check which one finds more of the planted ones and
how they fare on held-out data.
"""

import numpy as np

from fgm import (SolverConfig, dense_to_model, evaluate_recovery, fgm_train,
                 generate_synthetic, generate_test_set, predict, sweep_to_support)

# A synthetic problem: 400 training points in 1000 dimensions, labels
# produced by a planted weight vector with 30 non-zero coordinates.
train, truth = generate_synthetic(n=400, m=1000, k=30, weighting=1, seed=7)
test = generate_test_set(truth, n=2000, seed=7)
print(f"training set: {train.n} x {train.m}, planted support {truth.support.size}")

# ---------------------------------------------------------------------------
# Budget-constrained training.  Each round scores every feature under the
# current per-instance weights, keeps the ten best, and re-solves the
# restricted problem over everything selected so far.
cfg = SolverConfig(budget=10, C=10.0, eps_apg=1e-6, max_outer=6)
model = fgm_train(train, cfg)
print(f"\nbudgeted model: {model.support_size} features after "
      f"{model.n_outer} rounds (stop: {model.stop_reason})")

# ---------------------------------------------------------------------------
# The l1 path baseline: decrease the penalty until the support size lands
# within 5 percent of the budgeted model's, so the comparison is fair.
target = model.support_size
sweep = sweep_to_support(train, cfg.loss_kind(), targets=[target], tol=0.05)
dense = sweep[target]
print(f"l1 baseline:    {dense.weights.support_size} features at penalty "
      f"{dense.reg:.3g}")

# ---------------------------------------------------------------------------
# Score both: how many planted features were recovered, and accuracy on
# fresh data drawn from the same distribution.
l1_model = dense_to_model(dense.weights, train, cfg.loss_kind())
for name, mdl in [("budgeted", model), ("l1 path ", l1_model)]:
    recovered = evaluate_recovery(mdl, truth)
    _, acc = predict(mdl, test)
    print(f"{name}: recovered {recovered}/{truth.support.size} planted "
          f"features, test accuracy {acc:.3f}")
