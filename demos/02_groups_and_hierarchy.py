"""
Selecting whole groups of features, flat or nested
==================================================

When features come in natural bundles (one-hot blocks, gene sets, sensor
channels), selection should operate on the bundles.  The training loop
accepts a flat partition of the feature space into disjoint groups, or a
hierarchy whose node sets are nested, and then proposes whole units per
round instead of single features.
"""

import numpy as np

from fgm import (GroupStructure, SolverConfig, SparseDataset, TreeStructure,
                 fgm_train, predict)

rng = np.random.default_rng(42)

# ---------------------------------------------------------------------------
# Flat groups: 100 features in 20 disjoint groups of five.  Only groups
# "g02" and "g07" carry signal; everything else is noise.
m, group_size = 100, 5
groups = [np.arange(g * group_size, (g + 1) * group_size) for g in range(20)]
names = [f"g{g:02d}" for g in range(20)]
structure = GroupStructure(groups=groups, names=names)

w = np.zeros(m)
w[groups[2]] = rng.uniform(0.5, 1.5, group_size)
w[groups[7]] = -rng.uniform(0.5, 1.5, group_size)
X = rng.standard_normal((300, m))
y = np.where(X @ w >= 0, 1.0, -1.0)
train = SparseDataset(X, y)

# One group per round, a handful of rounds.  The signal groups are
# proposed first; later rounds only mop up noise.
cfg = SolverConfig(budget=1, C=10.0, eps_apg=1e-6, max_outer=6)
model = fgm_train(train, cfg, structure=structure)
order = [names[rec.selected[0]] for rec in model.trace]
print(f"flat groups picked, in round order: {order}")
_, acc = predict(model, train)
print(f"training accuracy with {model.support_size} groups: {acc:.3f}")

# ---------------------------------------------------------------------------
# A two-level hierarchy over 24 features: two root sets of twelve, each
# split into two children of six.  Signal lives entirely in the first
# child of the left root.
sets = [
    np.arange(0, 12),    # left root
    np.arange(12, 24),   # right root
    np.arange(0, 6),     # left child of left root
    np.arange(6, 12),    # right child of left root
    np.arange(12, 18),   # left child of right root
    np.arange(18, 24),   # right child of right root
]
parents = np.array([-1, -1, 0, 0, 1, 1])
node_names = ["left", "right", "left/a", "left/b", "right/a", "right/b"]

w = np.zeros(24)
w[:6] = rng.uniform(0.8, 1.8, 6)
X = rng.standard_normal((300, 24))
y = np.where(X @ w >= 0, 1.0, -1.0)
train = SparseDataset(X, y)

# With uniform node scales a parent set always scores at least as high as
# any of its children (it contains them), so the coarse roots win.
tree = TreeStructure(sets=sets, parents=parents, names=node_names)
model = fgm_train(train, SolverConfig(budget=1, C=10.0, eps_apg=1e-6,
                                      max_outer=4), structure=tree)
picked = [node_names[u] for u in model.units]
print(f"\nuniform node scales pick: {picked} (stop: {model.stop_reason})")

# Normalizing each node's scale by the square root of its size removes
# that bias, and the specific signal-bearing child wins instead.
sizes = np.array([len(s) for s in sets], dtype=float)
tree = TreeStructure(sets=sets, parents=parents, names=node_names,
                     lambdas=1.0 / np.sqrt(sizes))
model = fgm_train(train, SolverConfig(budget=1, C=10.0, eps_apg=1e-6,
                                      max_outer=4), structure=tree)
order = [node_names[rec.selected[0]] for rec in model.trace]
print(f"size-normalized scales pick, in round order: {order}")
first = model.trace[0].selected[0]
feats = model.unit_features[first]
print(f"  first pick {node_names[first]!r} covers features "
      f"{min(feats)}..{max(feats)} — exactly where the signal lives")
