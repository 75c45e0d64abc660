"""Release gate: ten numbered end-to-end checks.

Each test covers one acceptance criterion: closed-form projection and
gradient correctness against independent oracles, exact worst-case
search, certified-bound behavior, support-size bounds, the accelerated
solver's convergence rate, recovery and de-bias comparisons against l1
baselines on a fixed synthetic replica, duplicate-proposal termination,
and bit-identical reruns.  `pytest -v` prints one PASSED/FAILED line per
criterion.
"""

import csv
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from fgm.baseline import dense_to_model, retrain_unbiased, sweep_to_support
from fgm.bench import fgm_target_support
from fgm.blocks import ColumnCache
from fgm.dataset import SparseDataset, generate_synthetic, generate_test_set
from fgm.engine import SolverConfig, evaluate_recovery, fgm_train, predict
from fgm.loss import (LossKind, eval_loss, gradient_from_margins, margins_from_scores,
                      recover_duals)
from fgm.subsolver import apg_solve, moreau_projection
from fgm.worstcase import (PolyMap, score_features, score_polynomial_streamed,
                           score_tree_pruned, select_top_b)

from oracles import (best_subset_lex, central_fd_gradient, moreau_bcd, poly_full_matrix,
                     prox_objective, sort_top_b, tree_scores_exhaustive)
from test_worstcase import _dataset_with_omega, _random_laminar_tree


# ---------------------------------------------------------------------------
# shared fixtures

BENCH_CONFIG = {
    "data": {"synthetic": {"n": 512, "m": 2048, "k": 100, "type": 1}},
    "seeds": [0, 1, 2, 3, 4],
    "methods": [
        {"name": "fgm", "budget": 10, "eps_apg": 1e-9, "max_inner": 1000},
        {"name": "fgm", "budget": 50, "eps_apg": 1e-9, "max_inner": 1000},
        {"name": "l1", "reg": 30.0},
        {"name": "l1-debias", "base": "l1-r30"},
    ],
}

REPLICA_SEEDS = (0, 1, 2, 3, 4)
REPLICA_TARGETS = (100, 150, 200)


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """The full benchmark config executed twice through the command line."""
    base = tmp_path_factory.mktemp("acceptance-bench")
    cfg = base / "config.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    runs = {}
    for tag in ("first", "second"):
        out = base / f"{tag}.csv"
        models = base / f"{tag}-models"
        r = subprocess.run(
            [sys.executable, "-m", "fgm", "bench", "--config", str(cfg),
             "--out", str(out), "--models-dir", str(models), "--threads", "2"],
            capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        runs[tag] = (out, models)
    return runs


def _fgm_payloads(models_dir):
    out = []
    for path in sorted(models_dir.glob("fgm-B*.model.json")):
        out.append((path.name, json.loads(path.read_text())))
    return out


@pytest.fixture(scope="module")
def replica():
    """Matched-sparsity comparison grid: 5 seeds x supports {100, 150, 200}.

    For every cell: an l1 model swept to the target support, a selection
    model steered to the same size, and large-C refits of both supports,
    all scored on a fresh 2048-point test draw.
    """
    started = time.perf_counter()
    records = []
    kind = LossKind("squared_hinge", 1.0)
    for seed in REPLICA_SEEDS:
        train, truth = generate_synthetic(n=1024, m=4096, k=100, weighting=1, seed=seed)
        test = generate_test_set(truth, 2048, seed=seed)
        true_set = set(truth.support.tolist())
        swept = sweep_to_support(train, kind, REPLICA_TARGETS, tol=0.05,
                                 eps=1e-6, max_iter=800)
        for target in REPLICA_TARGETS:
            sol = swept[target].weights
            _, acc_l1 = predict(dense_to_model(sol, train, kind), test)
            _, acc_l1_db = predict(retrain_unbiased(train, sol.support), test)
            budget = max(5, target // 20)
            cfg = SolverConfig(budget=budget, max_outer=60, eps_outer=0.0)
            model = fgm_target_support(train, cfg, target)
            _, acc_fgm = predict(model, test)
            _, acc_fgm_db = predict(retrain_unbiased(train, model.feature_ids()), test)
            records.append({
                "seed": seed, "target": target,
                "support_l1": swept[target].weights.support_size,
                "support_fgm": model.support_size,
                "recovered_l1": len(set(sol.support.tolist()) & true_set),
                "recovered_fgm": evaluate_recovery(model, truth),
                "acc_l1": acc_l1, "acc_l1_db": acc_l1_db,
                "acc_fgm": acc_fgm, "acc_fgm_db": acc_fgm_db,
            })
    return records, time.perf_counter() - started


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_projection_matches_numeric_minimizer():
    rng = np.random.default_rng(7)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        blocks = [rng.standard_normal(int(rng.integers(1, 21)))
                  for _ in range(int(rng.integers(1, 11)))]
        s = float(10.0 ** rng.uniform(-3, 3))
        offsets = np.concatenate([[0], np.cumsum([b.size for b in blocks])])
        layout = ColumnCache(np.zeros((0, int(offsets[-1]))), offsets)
        ours = np.split(moreau_projection(np.concatenate(blocks), layout, s)[0], offsets[1:-1])
        ref = moreau_bcd(blocks, s, tol=1e-9)
        diff = abs(prox_objective(ours, blocks, s) - prox_objective(ref, blocks, s))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-6, worst
    assert elapsed < 10.0, elapsed
    print(f"[PASS] criterion 1: projection objective within {worst:.2e} of the "
          f"numeric minimizer on 100 instances in {elapsed:.2f}s")


def test_criterion_02_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    for i in range(50):
        kind = LossKind("squared_hinge" if i % 2 else "logistic",
                        float(rng.uniform(0.5, 5.0)))
        n = int(rng.integers(8, 16))
        widths = [int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4)))]
        offsets = np.concatenate([[0], np.cumsum(widths)])
        cache = ColumnCache(rng.standard_normal((n, int(offsets[-1]))), offsets)
        labels = rng.choice([-1.0, 1.0], size=n)
        while True:
            w = 0.7 * rng.standard_normal(int(offsets[-1]))
            if kind.kind != "squared_hinge":
                break
            if np.all(np.abs(1.0 - labels * (cache.matrix @ w)) > 1e-3):
                break  # keep the probe away from the hinge corner
        _, xi = eval_loss(w, cache, labels, kind)
        grad = gradient_from_margins(cache.matrix, xi, labels, kind)
        fd = central_fd_gradient(lambda flat: eval_loss(flat, cache, labels, kind)[0], w)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert worst <= 1e-4, worst
    assert elapsed < 5.0, elapsed
    print(f"[PASS] criterion 2: gradients within relative {worst:.2e} of central "
          f"differences on 50 instances in {elapsed:.2f}s")


def test_criterion_03_worst_case_search_is_exact():
    rng = np.random.default_rng(23)
    started = time.perf_counter()

    for i in range(100):  # flat scores: every budget against subset enumeration
        p = int(rng.integers(1, 13))
        if i % 2:
            scores = rng.integers(0, 5, size=p).astype(float)  # exact ties
        else:
            scores = rng.standard_normal(p) ** 2
        for budget in range(1, p + 1):
            assert select_top_b(scores, budget) == best_subset_lex(scores, budget)

    for _ in range(200):  # pruned hierarchy search against exhaustive scoring
        m = int(rng.integers(30, 700))
        tree = _random_laminar_tree(rng, max_nodes=1000, m=m)
        assert tree.n_nodes <= 1000
        omega = rng.standard_normal(m) * (rng.random(m) < 0.7)
        data, alpha = _dataset_with_omega(omega)
        expected = tree_scores_exhaustive(omega ** 2, tree)
        budget = int(rng.integers(1, 21))
        assert score_tree_pruned(alpha, data, tree, budget) == \
            sort_top_b(expected, budget)

    for m in (5, 17, 40):  # streamed degree-2 scan against the materialized map
        n = 30
        X = rng.standard_normal((n, m)) * (rng.random((n, m)) < 0.5)
        y = rng.choice([-1, 1], size=n)
        data = SparseDataset(X, y)
        alpha = rng.uniform(0.0, 2.0, size=n)
        z = alpha * y
        for gamma, r in ((0.7, 1.3), (1.0, 0.0)):
            full = poly_full_matrix(X, gamma, r)
            expected = (full.T @ z) ** 2
            for budget in (1, 10, 37):
                got = score_polynomial_streamed(alpha, data, PolyMap(gamma, r, block=7), budget)
                assert got == sort_top_b(expected, budget)

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, elapsed
    print(f"[PASS] criterion 3: top-B, pruned-tree, and streamed degree-2 searches "
          f"exact on all cases in {elapsed:.2f}s")


def test_criterion_04_bound_sandwich(bench_runs):
    _, models = bench_runs["first"]
    payloads = _fgm_payloads(models)
    assert len(payloads) == 10  # 2 budgets x 5 seeds
    for name, payload in payloads:
        beta = np.array([rec["beta"] for rec in payload["trace"]])
        phi = np.array([rec["phi"] for rec in payload["trace"]])
        slack_b = 1e-6 * np.maximum(1.0, np.abs(beta[:-1]))
        slack_p = 1e-6 * np.maximum(1.0, np.abs(phi[:-1]))
        assert np.all(np.diff(beta) >= -slack_b), name
        assert np.all(np.diff(phi) <= slack_p), name
        assert np.all(beta <= phi + 1e-6 * np.abs(phi)), name
    print("[PASS] criterion 4: lower bound non-decreasing, upper bound "
          "non-increasing, lower <= upper on all 10 runs")


def test_criterion_05_support_size_within_budget_bounds(bench_runs):
    checked = 0
    for tag in ("first", "second"):
        _, models = bench_runs[tag]
        for name, payload in _fgm_payloads(models):
            support = len(payload["units"])
            budget = payload["config"]["budget"]
            rounds = len(payload["trace"])
            assert budget <= support <= rounds * budget, name
            checked += 1
    assert checked == 20
    print(f"[PASS] criterion 5: budget <= support <= rounds * budget on "
          f"{checked} benchmark models")


def test_criterion_06_accelerated_rate_bound():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = -np.inf
    for i in range(20):
        n = int(rng.integers(20, 80))
        widths = [int(rng.integers(1, 9)) for _ in range(int(rng.integers(1, 6)))]
        offsets = np.concatenate([[0], np.cumsum(widths)])
        cache = ColumnCache(rng.uniform(0.5, 2.0) * rng.standard_normal((n, int(offsets[-1]))),
                            offsets)
        labels = rng.choice([-1.0, 1.0], size=n)
        kind = LossKind("squared_hinge" if i % 2 else "logistic",
                        float(rng.uniform(0.5, 10.0)))
        run = apg_solve(cache, labels, kind, eps=0.0, max_inner=250)
        ref = apg_solve(cache, labels, kind, eps=0.0, max_inner=2500)
        f_star = ref.objectives[-1]
        dist_sq = float(ref.weights @ ref.weights)  # start is the origin
        scale = max(1.0, abs(f_star))
        for k, fk in enumerate(run.objectives):
            bound = 2.0 * run.max_tau * dist_sq / (0.8 * (k + 1) ** 2)
            worst = max(worst, (fk - f_star - bound) / scale)
            assert fk - f_star <= bound + 1e-9 * scale, (i, k)
    elapsed = time.perf_counter() - started
    print(f"[PASS] criterion 6: objective gap within the 1/(k+1)^2 envelope at "
          f"every step of 20 solves (worst margin {worst:.2e}) in {elapsed:.1f}s")


def test_criterion_07_recovery_at_matched_sparsity(replica):
    records, elapsed = replica
    assert elapsed < 600.0, elapsed
    for rec in records:
        window = 0.05 * rec["target"]
        assert abs(rec["support_l1"] - rec["target"]) <= window, rec
        assert abs(rec["support_fgm"] - rec["target"]) <= window, rec
    lines = []
    for target in REPLICA_TARGETS:
        sub = [r for r in records if r["target"] == target]
        med_fgm = float(np.median([r["recovered_fgm"] for r in sub]))
        med_l1 = float(np.median([r["recovered_l1"] for r in sub]))
        assert med_fgm >= med_l1 - 2.0, (target, med_fgm, med_l1)
        lines.append(f"{target}: {med_fgm:g} vs {med_l1:g}")
    print(f"[PASS] criterion 7: median true features recovered (selection vs l1) "
          f"{'; '.join(lines)} in {elapsed:.0f}s")


def test_criterion_08_debias_comparison(replica):
    records, _ = replica
    acc_fgm = float(np.median([r["acc_fgm"] for r in records]))
    acc_fgm_db = float(np.median([r["acc_fgm_db"] for r in records]))
    assert acc_fgm >= acc_fgm_db - 0.01, (acc_fgm, acc_fgm_db)
    acc_l1 = float(np.median([r["acc_l1"] for r in records]))
    acc_l1_db = float(np.median([r["acc_l1_db"] for r in records]))
    assert acc_l1_db >= acc_l1, \
        (f"l1 refit median accuracy {acc_l1_db:.4f} below plain l1 {acc_l1:.4f}: "
         f"with 1024 training points the C=20 refit overfits supports >= 150")
    print(f"[PASS] criterion 8: medians selection {acc_fgm:.4f} >= refit "
          f"{acc_fgm_db:.4f} - 1pp and l1 refit {acc_l1_db:.4f} >= l1 {acc_l1:.4f}")


def test_criterion_09_duplicate_proposal_termination():
    rng = np.random.default_rng(5)
    n, m = 200, 15
    X = rng.standard_normal((n, m))
    w = np.zeros(m)
    w[:5] = [2.2, 1.9, 1.6, 1.3, 1.0]
    y = np.where(X @ w >= 0, 1, -1)
    data = SparseDataset(X, y)
    cfg = SolverConfig(budget=5, max_outer=40, eps_outer=0.0,
                       eps_apg=1e-10, max_inner=3000)
    model = fgm_train(data, cfg)
    assert model.stop_reason == "duplicate"
    assert model.n_outer < cfg.max_outer

    # re-run the search at the returned weights: it must propose a
    # selection that is already stored
    v = np.zeros(m)
    for e in model.entries:
        v[e.id] += e.weight
    xi = margins_from_scores(X @ v, y.astype(float), cfg.loss_kind())
    alpha = recover_duals(xi, cfg.loss_kind())
    proposal = select_top_b(score_features(alpha, data, np.ones(m)), cfg.budget)
    stored = {rec.selected for rec in model.trace}
    assert proposal in stored, (proposal, stored)
    print(f"[PASS] criterion 9: stopped by duplicate proposal after "
          f"{model.n_outer} rounds; fresh search re-proposes a stored selection")


def test_criterion_10_bitwise_identical_reruns(bench_runs):
    _, models_a = bench_runs["first"]
    _, models_b = bench_runs["second"]
    names_a = sorted(p.name for p in models_a.glob("*.model.json"))
    names_b = sorted(p.name for p in models_b.glob("*.model.json"))
    assert names_a == names_b
    assert len(names_a) == 20  # 4 settings x 5 seeds
    for name in names_a:
        assert (models_a / name).read_bytes() == (models_b / name).read_bytes(), name

    def rows(path):
        with open(path, newline="") as fh:
            return [{k: v for k, v in row.items() if k != "seconds"}
                    for row in csv.DictReader(fh)]

    csv_a, _ = bench_runs["first"]
    csv_b, _ = bench_runs["second"]
    assert rows(csv_a) == rows(csv_b)
    print(f"[PASS] criterion 10: {len(names_a)} model files bit-identical across "
          f"reruns; result rows identical")
