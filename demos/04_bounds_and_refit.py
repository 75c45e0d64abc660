"""
Watching the certified bounds, then refitting without the l1 penalty
====================================================================

Every training round records two certified bounds that bracket the
negated optimum of the budgeted selection problem at any solver
tolerance: the lower certificate beta is minus the round's objective,
which rises as the objective falls, and the upper bound phi is the least
full dual value seen so far, which only falls.  The gap between them says
how far the current answer can still be from optimal.

The second half looks at shrinkage bias.  Refitting a large-C l2
classifier (no l1 penalty) on a frozen support helps exactly when the
penalty squeezed the kept weights hard: the l1 baseline at matched
sparsity is heavily shrunk and gains real accuracy from the refit, while
the budgeted model's weights are barely shrunk and the refit changes
nothing.
"""

import numpy as np

from fgm import (LossKind, SolverConfig, dense_to_model, fgm_train,
                 generate_synthetic, generate_test_set, predict,
                 retrain_unbiased, sweep_to_support)

train, truth = generate_synthetic(n=1024, m=2048, k=100, weighting=1, seed=3)
test = generate_test_set(truth, n=4000, seed=3)

# ---------------------------------------------------------------------------
# Train with ten features added per round and print the bound trace
# (lower = -objective, upper = phi).
cfg = SolverConfig(budget=10, C=10.0, eps_apg=1e-7, max_inner=2000,
                   max_outer=8, eps_outer=0.0)
model = fgm_train(train, cfg)

print("round  objective      lower       upper")
for rec in model.trace:
    print(f"{rec.iteration:5d}  {rec.objective:9.4f}  {rec.beta:9.4f}  "
          f"{rec.phi:9.4f}")
betas = np.array([rec.beta for rec in model.trace])
phis = np.array([rec.phi for rec in model.trace])
assert np.all(np.diff(betas) >= -1e-9), "lower certificates must rise"
assert np.all(np.diff(phis) <= 1e-9), "upper bounds must fall"
print("lower bounds rose monotonically, upper bounds fell monotonically")

# ---------------------------------------------------------------------------
# An l1 model matched to the same support size is visibly shrunk ...
kind = cfg.loss_kind()
res = sweep_to_support(train, kind, targets=[model.support_size], tol=0.05)
l1 = dense_to_model(res[model.support_size].weights, train, kind)
refit_kind = LossKind("squared_hinge", 20.0)

print(f"\nmax |weight|: l1 {max(abs(e.weight) for e in l1.entries):.3f}, "
      f"budgeted {max(abs(e.weight) for e in model.entries):.3f}")

# ... and refitting on the frozen supports shows who was biased.
for name, mdl in [("l1 path ", l1), ("budgeted", model)]:
    _, acc = predict(mdl, test)
    refit = retrain_unbiased(train, mdl.units, kind=refit_kind)
    _, acc_refit = predict(refit, test)
    print(f"{name}: {mdl.support_size} features, test accuracy "
          f"{acc:.4f} -> {acc_refit:.4f} after refit ({acc_refit - acc:+.4f})")
