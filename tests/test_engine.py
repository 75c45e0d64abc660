"""Training loop, bounds, model container, prediction, and model files."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

import fgm.dataset as dataset
import fgm.engine as engine
import fgm.worstcase as worstcase
from fgm.blocks import ColumnCache
from fgm.dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset,
                         TreeStructure, compute_scaling_prior, generate_synthetic,
                         generate_test_set)
from fgm.engine import (Model, ModelEntry, PolyMap, SolverConfig, eval_bounds, evaluate_recovery,
                        fgm_train, load_model, model_from_dict, model_to_dict, predict,
                        save_model)
from fgm.loss import LossKind
from fgm.subsolver import NumericalError
from fgm.worstcase import poly_columns, score_features, select_top_b


def _small_problem(seed=0, n=60, m=40, k=5):
    return generate_synthetic(n=n, m=m, k=k, weighting=1, seed=seed)


def _entry_scores(model, data):
    v = np.zeros(data.m)
    for e in model.entries:
        v[e.id] += e.weight
    return data.X @ v


def _train_keeping_flat_weights(monkeypatch, data, cfg, structure=None):
    """The model of ``fgm_train`` and the flat weights of its last inner solve."""
    solves = []
    original = engine.apg_solve

    def recorded(*args, **kwargs):
        solves.append(original(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(engine, "apg_solve", recorded)
    return fgm_train(data, cfg, structure), solves[-1].weights


def _scaled_weight_sums(model, w, sets, lambdas):
    """Each feature's sum of ``w_c * lambda_c`` over its cached columns, in column order."""
    columns = [(int(f), float(lambdas[u])) for t in model.trace for u in t.selected
               for f in sets[u]]
    assert len(columns) == w.size
    sums: dict[int, float] = {}
    for (fid, lam), wc in zip(columns, w.tolist()):
        sums[fid] = sums[fid] + wc * lam if fid in sums else wc * lam
    return sums


def _as_bytes(weights: dict) -> dict:
    """Weights keyed by id as their float64 bytes: unlike ``==``, these tell -0.0 from 0.0."""
    return {fid: np.float64(w).tobytes() for fid, w in weights.items()}


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(budget=0)
    with pytest.raises(ValueError):
        SolverConfig(C=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_outer=-0.1)
    # rejected when built, not once training starts
    for bad in ({"loss": "hinge"}, {"C": float("nan")}, {"eps_apg": float("nan")},
                {"eps_outer": float("nan")}, {"budget": 2.5}, {"budget": True},
                {"max_outer": 2.0}, {"max_inner": False}, {"C": True}):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    assert SolverConfig(budget=np.int64(3), max_outer=np.int32(2)).budget == 3
    kind = SolverConfig(loss="logistic", C=3.0).loss_kind()
    assert kind.kind == "logistic" and kind.C == 3.0


def test_poly_map_validation():
    with pytest.raises(ValueError):
        PolyMap(gamma=0.0)
    with pytest.raises(ValueError):
        PolyMap(r=-1.0)
    for block in (0, 2.5, True):
        with pytest.raises(ValueError, match="block"):
            PolyMap(block=block)
    assert PolyMap(block=np.int64(3)).block == 3
    for bad in ({"gamma": float("nan")}, {"r": float("nan")}, {"gamma": np.inf}, {"r": np.inf}):
        with pytest.raises(ValueError, match="finite gamma > 0 and r >= 0"):
            PolyMap(**bad)


# ---------------------------------------------------------------------------
# training invariants


def test_support_size_between_budget_and_rounds_times_budget():
    data, _ = _small_problem()
    for budget in (2, 5):
        model = fgm_train(data, SolverConfig(budget=budget, max_outer=6, eps_outer=0.0))
        assert budget <= model.support_size <= model.n_outer * budget
        for rec in model.trace:
            assert len(rec.selected) == budget


def test_objective_trace_non_increasing():
    data, _ = _small_problem(seed=2)
    model = fgm_train(data, SolverConfig(budget=4, max_outer=8, eps_outer=0.0))
    objectives = [rec.objective for rec in model.trace]
    assert np.all(np.diff(objectives) <= 1e-9)


def test_bounds_sandwich_on_tight_solve():
    data, _ = _small_problem(seed=3)
    cfg = SolverConfig(budget=4, max_outer=8, eps_outer=0.0, eps_apg=1e-11, max_inner=4000)
    model = fgm_train(data, cfg)
    beta = np.array([rec.beta for rec in model.trace])
    phi = np.array([rec.phi for rec in model.trace])
    F = np.array([rec.objective for rec in model.trace])
    scale = max(1.0, abs(F[-1]))
    assert np.all(np.diff(beta) >= -1e-7 * scale)   # rises (near-exact solves)
    assert np.all(np.diff(phi) <= 0.0)              # running minimum
    assert np.all(beta <= phi + 1e-7 * scale)
    # each round's lower certificate is the negated objective of its restricted iterate
    assert np.array_equal(beta, -F)
    assert np.all(phi >= -F[-1] - 1e-7 * scale)


_ORACLE_GROUPS = GroupStructure([np.arange(4 * g, 4 * g + 4) for g in range(24)],
                                [f"g{g}" for g in range(24)])


@pytest.mark.parametrize("structure", [None, _ORACLE_GROUPS], ids=["plain", "groups"])
@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_bounds_certify_the_optimum_at_the_default_solve_tolerance(loss, structure):
    # a tight run to a duplicate proposal pins the optimum F* between -phi_T
    # and F_T; every round of a run at the default eps_apg must keep its
    # bounds on the right side of it: beta_t <= -F* <= phi_T and phi_t >= -F* >= -F_T
    data, _ = generate_synthetic(64, 96, 6, seed=0)
    cfg = SolverConfig(budget=5, C=1.0, loss=loss, eps_outer=0.0, max_outer=400)
    tight = fgm_train(data, replace(cfg, eps_apg=1e-12, max_inner=100000), structure)
    assert tight.stop_reason == "duplicate"
    F_T, phi_T = tight.trace[-1].objective, tight.trace[-1].phi
    assert (phi_T + F_T) / abs(F_T) <= 1e-4
    model = fgm_train(data, cfg, structure)
    for rec in model.trace:
        assert rec.beta == -rec.objective
        assert rec.beta <= phi_T, rec.iteration
        assert rec.phi >= -F_T, rec.iteration


def test_duplicate_proposal_stops_training():
    # labels decided by a handful of strong features: once they are all
    # selected, the search re-proposes a stored set and training stops
    rng = np.random.default_rng(17)
    n, m = 150, 30
    X = rng.standard_normal((n, m))
    w = np.zeros(m)
    w[[3, 11, 19]] = [2.0, 1.5, 1.0]
    y = np.where(X @ w >= 0, 1, -1)
    data = SparseDataset(X, y)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=40, eps_outer=0.0))
    assert model.stop_reason == "duplicate"
    assert model.n_outer < 40
    assert {3, 11, 19}.issubset(model.units)


def test_outer_tolerance_stop():
    data, _ = _small_problem(seed=4)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=50, eps_outer=0.5))
    assert model.stop_reason == "outer_tol"
    assert model.n_outer < 50


def test_training_is_deterministic():
    data, _ = _small_problem(seed=6)
    cfg = SolverConfig(budget=3, max_outer=5)
    d1 = model_to_dict(fgm_train(data, cfg))
    d2 = model_to_dict(fgm_train(data, cfg))
    assert d1 == d2


def test_first_round_selection_uses_all_ones_duals():
    data, _ = _small_problem(seed=7)
    cfg = SolverConfig(budget=4, max_outer=1)
    model = fgm_train(data, cfg)
    expected = select_top_b(score_features(np.ones(data.n), data, np.ones(data.m)), 4)
    assert model.trace[0].selected == expected


def test_numerical_error_carries_outer_context():
    X = np.array([[np.nan, 1.0], [1.0, 2.0]])
    data = SparseDataset.__new__(SparseDataset)  # bypass validation to inject nan
    data.X = sp.csr_matrix(X)
    data.y = np.array([1, -1])
    with pytest.raises(NumericalError, match="outer iteration 1"):
        fgm_train(data, SolverConfig(budget=1, max_outer=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("unit", ["plain", "group", "tree", "poly", "plain inverse_norm",
                                  "group inverse_norm", "tree inverse_norm"])
def test_non_finite_data_fails_before_any_search(unit, bad):
    # an inverse-norm fit finds the value through its column's sum of squares,
    # and must raise what a fit under ones scales raises
    X = np.array([[1.0, bad, 0.5, 0.0], [2.0, 0.0, 1.0, 1.0],
                  [0.5, 1.0, 2.0, 0.0], [0.0, 3.0, 1.0, 2.0]])
    data = SparseDataset(X, np.array([1, -1, 1, -1]))
    kind, *policy = unit.split()
    structure = {
        "plain": None,
        "group": GroupStructure([np.array([0, 1]), np.array([2, 3])], ["a", "b"]),
        "tree": TreeStructure([np.arange(4), np.array([0, 1]), np.array([2, 3])],
                              np.array([-1, 0, 0]), ["r", "a", "b"]),
        "poly": PolyMap(),
    }[kind]
    cfg = SolverConfig(budget=1, max_outer=3, lambda_policy=(policy or ["ones"])[0])
    with pytest.raises(NumericalError,
                       match="^outer iteration 1: training data holds non-finite values$") as caught:
        fgm_train(data, cfg, structure)
    assert caught.value.iteration == 0


@pytest.mark.parametrize("policy", ["ones", "inverse_norm"])
def test_non_finite_data_fails_before_a_structure_wider_than_the_data(policy):
    X = np.array([[1.0, np.nan, 0.5], [2.0, 0.0, 1.0], [0.5, 1.0, 2.0]])
    data = SparseDataset(X, np.array([1, -1, 1]))
    groups = GroupStructure([np.array([0, 1]), np.array([2, 3])], ["a", "b"])
    with pytest.raises(NumericalError, match="^outer iteration 1: training data holds non-finite"):
        fgm_train(data, SolverConfig(budget=1, max_outer=2, lambda_policy=policy), groups)


def test_a_column_whose_squares_overflow_trains_under_inverse_norm_at_scale_0(monkeypatch):
    # its sum of squares is infinite, so X is scanned, found finite and the column scaled by 0
    data, _ = _small_problem(seed=3)
    X = data.X.toarray()
    X[3, 7] = 1e200
    data = SparseDataset(X, data.y)
    scales = []
    search = engine.score_features
    monkeypatch.setattr(engine, "score_features",
                        lambda alpha, d, lam: scales.append(lam) or search(alpha, d, lam))
    model = fgm_train(data, SolverConfig(budget=3, max_outer=4, lambda_policy="inverse_norm"))
    assert model.n_outer >= 1 and scales and all(lam[7] == 0.0 for lam in scales)
    assert scales[0].tobytes() == compute_scaling_prior(data, "inverse_norm").tobytes()
    assert np.isfinite(scales[0]).all() and (scales[0][np.arange(data.m) != 7] > 0).all()


@pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
@pytest.mark.parametrize("kind", ["group", "tree"])
def test_a_set_whose_squares_overflow_trains_under_inverse_norm_and_scores_0(monkeypatch, kind):
    # every set holding column 7 has an infinite sum of squares, so scale 0, and scores 0
    data, _ = _small_problem(seed=3)
    X = data.X.toarray()
    X[3, 7] = 1e200
    data = SparseDataset(X, data.y)
    leaves = [np.arange(4 * g, 4 * g + 4) for g in range(10)]
    structure = (GroupStructure(leaves, [f"g{g}" for g in range(10)]) if kind == "group" else
                 TreeStructure([np.arange(20), np.arange(20, 40), *leaves],
                               np.array([-1, -1] + [g // 5 for g in range(10)]),
                               ["r0", "r1"] + [f"g{g}" for g in range(10)]))
    holds_7 = np.array([7 in s for s in structure.sets])
    seen = []
    set_scores = worstcase._set_scores

    def recording(alpha, d, tree):
        seen.append((tree.lambdas, set_scores(alpha, d, tree)))
        return seen[-1][1]

    monkeypatch.setattr(worstcase, "_set_scores", recording)
    model = fgm_train(data, SolverConfig(budget=2, max_outer=4, lambda_policy="inverse_norm"),
                      structure)
    assert model.n_outer >= 1 and seen
    for lam, scores in seen:
        assert (lam[holds_7] == 0.0).all() and (lam[~holds_7] > 0).all()
        assert (scores[holds_7] == 0.0).all() and np.isfinite(scores).all()


@pytest.mark.parametrize("structure", [None, PolyMap()], ids=["plain", "poly"])
def test_data_without_features_is_a_format_error(structure):
    data = SparseDataset(sp.csr_matrix((4, 0)), np.array([1, -1, 1, -1]))
    with pytest.raises(FormatError, match=r"^training data has no features \(m=0\)$"):
        fgm_train(data, SolverConfig(budget=1, max_outer=3), structure)


def test_fit_on_fully_stored_data_reads_x_in_place_and_leaves_it_alone():
    data, _ = _small_problem(seed=4)
    assert np.shares_memory(data.design, data.X.data)
    before = [a.copy() for a in (data.X.data, data.X.indices, data.X.indptr)]
    groups = GroupStructure([np.arange(4 * g, 4 * g + 4) for g in range(10)],
                            [f"g{g}" for g in range(10)])
    for structure in (None, groups):
        fgm_train(data, SolverConfig(budget=2, max_outer=3, lambda_policy="inverse_norm"),
                  structure)
    for old, new in zip(before, (data.X.data, data.X.indices, data.X.indptr)):
        assert old.dtype == new.dtype and old.tobytes() == new.tobytes()


def test_fit_on_fully_stored_data_allocates_no_copy_of_x():
    data, _ = generate_synthetic(512, 2048, 20, seed=1)
    groups = GroupStructure([np.arange(8 * g, 8 * g + 8) for g in range(256)],
                            [f"g{g}" for g in range(256)])
    cfg = SolverConfig(budget=5, max_outer=3, eps_outer=0.0, lambda_policy="inverse_norm")
    for structure in (None, groups):
        tracemalloc.start()
        try:
            fgm_train(data, cfg, structure)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < data.X.data.nbytes / 2


THREADED_FITS = """
import sys
import numpy as np
from fgm.baseline import l1_prox_train
from fgm.dataset import TreeStructure, generate_synthetic
from fgm.engine import PolyMap, SolverConfig, fgm_train, save_model
from fgm.loss import LossKind

plain, _ = generate_synthetic(1024, 4096, 100, seed=0)
save_model(fgm_train(plain, SolverConfig(budget=10, max_outer=5, eps_outer=0.0)),
           sys.argv[1] + "/plain.json")
tree = TreeStructure([np.arange(64 * r, 64 * r + 64) for r in range(64)]
                     + [np.arange(16 * c, 16 * c + 16) for c in range(256)],
                     np.array([-1] * 64 + [c // 4 for c in range(256)]),
                     [f"n{i}" for i in range(320)])
save_model(fgm_train(plain, SolverConfig(budget=2, max_outer=3, eps_outer=0.0, loss="logistic",
                                         lambda_policy="inverse_norm"), tree),
           sys.argv[1] + "/tree.json")
poly, _ = generate_synthetic(512, 800, 20, seed=0)
save_model(fgm_train(poly, SolverConfig(budget=10, max_outer=1), PolyMap()),
           sys.argv[1] + "/poly.json")
reg = 0.1 * float(np.abs(poly.X.T @ poly.y).max())
sol = l1_prox_train(poly, LossKind("squared_hinge", 1.0), reg, max_iter=50)
open(sys.argv[1] + "/l1.bin", "wb").write(sol.weights.tobytes())
"""


def test_model_bytes_do_not_depend_on_blas_threads(tmp_path):
    # dense W1-shaped plain and logistic tree fits, a degree-2 round and an
    # l1 solve, all through the BLAS kernels; the thread count must be set
    # before numpy loads its BLAS
    models = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
        r = subprocess.run([sys.executable, "-c", THREADED_FITS, str(out)], env=env,
                           capture_output=True, text=True, timeout=600)
        assert r.returncode == 0, r.stderr
        names = ("plain.json", "tree.json", "poly.json", "l1.bin")
        models[threads] = [(out / name).read_bytes() for name in names]
    assert models["1"] == models["2"]


def test_grouped_units_extract_columns_in_one_pass(monkeypatch):
    data, _ = _small_problem(seed=9, m=32)
    tree = TreeStructure([np.arange(i, i + 8) for i in range(0, 32, 8)]
                         + [np.arange(i, i + 4) for i in range(0, 32, 4)],
                         np.array([-1] * 4 + [i // 2 for i in range(8)]),
                         [f"n{i}" for i in range(12)])
    calls = []
    original = SparseDataset.dense_columns

    def counted(self, ids):
        calls.append(np.asarray(ids).copy())
        return original(self, ids)

    monkeypatch.setattr(SparseDataset, "dense_columns", counted)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=4, eps_outer=0.0), tree)
    assert len(calls) == model.n_outer
    assert set(np.concatenate(calls).tolist()) == set(model.feature_ids())

    calls.clear()
    poly = fgm_train(data, SolverConfig(budget=3, max_outer=2, eps_outer=0.0), PolyMap())
    predict(poly, data)
    assert calls == []


def test_unsupported_structure_type():
    data, _ = _small_problem()
    with pytest.raises(ValueError, match="unsupported structure"):
        fgm_train(data, SolverConfig(), structure=object())


@pytest.mark.parametrize("policy", ["bogus", "inverse-norm"])
@pytest.mark.parametrize("unit", ["plain", "group", "tree", "poly"])
def test_unknown_lambda_policy_rejected_for_every_unit_type(unit, policy):
    data, _ = _small_problem(m=12)
    structure = {
        "plain": None,
        "group": GroupStructure([np.arange(0, 6), np.arange(6, 12)], ["a", "b"], [2.0, 0.5]),
        "tree": TreeStructure([np.arange(12), np.arange(0, 6), np.arange(6, 12)],
                              np.array([-1, 0, 0]), ["r", "a", "b"]),
        "poly": PolyMap(),
    }[unit]
    with pytest.raises(ValueError, match="unknown scaling policy"):
        fgm_train(data, SolverConfig(budget=1, max_outer=2, lambda_policy=policy), structure)


def test_poly_units_reject_inverse_norm_policy():
    data, _ = _small_problem(m=6)
    cfg = SolverConfig(budget=1, max_outer=2, lambda_policy="inverse_norm")
    with pytest.raises(ValueError, match="degree-2 features carry no scale"):
        fgm_train(data, cfg, PolyMap())


# ---------------------------------------------------------------------------
# structured modes


def test_group_mode_entries_and_consistency():
    data, _ = _small_problem(seed=8, m=30)
    groups = GroupStructure([np.arange(i, i + 5) for i in range(0, 30, 5)],
                            [f"g{i}" for i in range(6)])
    model = fgm_train(data, SolverConfig(budget=2, max_outer=4, eps_outer=0.0), groups)
    assert model.mode == "group"
    assert model.unit_features is not None
    for unit in model.units:
        assert model.unit_features[unit] == tuple(range(unit * 5, unit * 5 + 5))
    labels, _ = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(_entry_scores(model, data) >= 0, 1, -1))


def test_group_mode_folds_explicit_lambdas_into_weights(monkeypatch):
    data, _ = _small_problem(seed=9, m=10)
    groups = GroupStructure([np.array([0, 1]), np.array([2, 3])], ["a", "b"], [2.0, 0.5])
    model, w = _train_keeping_flat_weights(
        monkeypatch, data, SolverConfig(budget=1, max_outer=3, eps_outer=0.0), groups)
    assert model.mode == "group"
    expected = _scaled_weight_sums(model, w, groups.sets, [2.0, 0.5])
    assert _as_bytes({e.id: e.weight for e in model.entries}) == _as_bytes(expected)


def test_tree_mode_folds_scale_into_weights(monkeypatch):
    data, _ = _small_problem(seed=10, m=12)
    sets = [np.arange(0, 12), np.arange(0, 6), np.arange(6, 12), np.arange(0, 3)]
    tree = TreeStructure(sets, np.array([-1, 0, 0, 1]), list("rabc"), [1.0, 2.0, 0.5, 4.0])
    model, w = _train_keeping_flat_weights(
        monkeypatch, data, SolverConfig(budget=2, max_outer=4, eps_outer=0.0), tree)
    assert model.mode == "tree"
    expected = _scaled_weight_sums(model, w, sets, [1.0, 2.0, 0.5, 4.0])
    assert _as_bytes({e.id: e.weight for e in model.entries}) == _as_bytes(expected)
    # nested nodes may reselect features; aggregated scores must match a
    # direct prediction pass
    labels, acc = predict(model, data)
    scores = _entry_scores(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))
    assert 0.0 <= acc <= 1.0


def test_tree_round_with_nested_nodes_stores_their_shared_columns_once(monkeypatch):
    data, _ = _small_problem(seed=10, m=12)
    tree = TreeStructure([np.arange(0, 12), np.arange(0, 6), np.arange(6, 12), np.arange(0, 3)],
                         np.array([-1, 0, 0, 1]), list("rabc"))
    caches = []
    original = ColumnCache.extend

    def recorded(self, columns, features, scales):
        caches.append(original(self, columns, features, scales))
        return caches[-1]

    monkeypatch.setattr(ColumnCache, "extend", recorded)
    model = fgm_train(data, SolverConfig(budget=2, max_outer=3, eps_outer=0.0), tree)
    first = caches[0]
    feats = np.concatenate([tree.sets[u] for u in model.trace[0].selected])
    # under ``ones`` a parent and its child scale a shared feature alike: one column
    assert 0 in model.trace[0].selected and feats.size > np.unique(feats).size
    assert first.matrix.shape[1] == np.unique(feats).size < first.offsets[-1]
    explicit = data.dense_columns(feats)
    np.testing.assert_array_equal(first.matrix[:, first.index], explicit)
    w = np.random.default_rng(0).standard_normal(feats.size)
    np.testing.assert_allclose(first @ w, explicit @ w, rtol=1e-12)


def test_tree_mode_inverse_norm_policy_runs():
    data, _ = _small_problem(seed=11, m=12)
    sets = [np.arange(0, 12), np.arange(0, 6), np.arange(6, 12)]
    tree = TreeStructure(sets, np.array([-1, 0, 0]), list("rab"))
    cfg = SolverConfig(budget=1, max_outer=3, eps_outer=0.0, lambda_policy="inverse_norm")
    model = fgm_train(data, cfg, tree)
    assert model.mode == "tree" and model.support_size >= 1


@pytest.mark.parametrize("policy", ["ones", "inverse_norm"])
@pytest.mark.parametrize("structure", [
    GroupStructure([np.arange(0, 6), np.array([6, 7, 12])], ["a", "b"]),
    TreeStructure([np.arange(0, 13), np.arange(0, 6), np.arange(6, 13)], [-1, 0, 0], list("rab")),
], ids=["groups", "tree"])
def test_structure_wider_than_the_data_is_a_format_error(structure, policy):
    # the scales are computed after the check, so inverse_norm cannot fail first
    data, _ = _small_problem(seed=11, m=12)
    cfg = SolverConfig(budget=1, max_outer=2, lambda_policy=policy)
    with pytest.raises(FormatError, match="^structure references feature 12, but data has m=12$"):
        fgm_train(data, cfg, structure)


def test_poly_mode_trains_and_predicts_consistently():
    data, _ = _small_problem(seed=12, n=50, m=10)
    pm = PolyMap(gamma=0.5, r=1.0)
    model = fgm_train(data, SolverConfig(budget=5, max_outer=4, eps_outer=0.0), pm)
    assert model.mode == "poly" and model.gamma == 0.5 and model.r == 1.0
    ids = np.array([e.id for e in model.entries])
    weights = np.array([e.weight for e in model.entries])
    scores = poly_columns(data, ids, pm) @ weights
    labels, _ = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))


def test_inverse_norm_policy_plain_mode(monkeypatch):
    data, _ = _small_problem(seed=13)
    cfg = SolverConfig(budget=3, max_outer=3, eps_outer=0.0, lambda_policy="inverse_norm")
    model, w = _train_keeping_flat_weights(monkeypatch, data, cfg)
    lam = compute_scaling_prior(data, "inverse_norm")
    np.testing.assert_allclose(lam, 1.0 / np.sqrt(dataset._column_sq_sums(data)), rtol=1e-12)
    singletons = [np.array([j]) for j in range(data.m)]
    assert _as_bytes({e.id: e.weight for e in model.entries}) == _as_bytes(
        _scaled_weight_sums(model, w, singletons, lam))


def test_a_feature_whose_only_weights_are_negative_zero_keeps_the_sign(monkeypatch):
    # at this C the solve zeroes whole blocks, and feature 11 sits only in a zeroed one
    data, _ = generate_synthetic(60, 40, 4, seed=4)
    cfg = SolverConfig(budget=3, C=0.05, max_outer=8, eps_outer=0.0)
    model, w = _train_keeping_flat_weights(monkeypatch, data, cfg)
    weights = {e.id: e.weight for e in model.entries}
    assert [fid for fid, wt in weights.items() if wt == 0] == [11]
    assert np.signbit(weights[11])
    singletons = [np.array([j]) for j in range(data.m)]
    assert _as_bytes(weights) == _as_bytes(_scaled_weight_sums(model, w, singletons,
                                                               np.ones(data.m)))


def test_mkl_weights_sum_to_one():
    data, _ = _small_problem(seed=14)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=5, eps_outer=0.0))
    assert len(model.mkl_weights) == model.n_outer
    assert sum(model.mkl_weights) == pytest.approx(1.0)
    assert all(s >= 0 for s in model.mkl_weights)


# ---------------------------------------------------------------------------
# prediction and recovery


def test_predict_hand_model():
    data = SparseDataset(np.array([[1.0, 2.0], [0.0, -1.0]]), np.array([1, -1]))
    model = Model(mode="plain", stop_reason="max_outer", m=2, units=(1,),
                  entries=[ModelEntry(1, 1.0)])
    labels, acc = predict(model, data)
    # scores are [2.0, -1.0]
    np.testing.assert_array_equal(labels, [1, -1])
    assert acc == 1.0


def test_predict_sign_zero_is_positive():
    data = SparseDataset(np.array([[1.0], [2.0]]), np.array([1, -1]))
    model = Model(mode="plain", stop_reason="max_outer", m=1, units=(0,),
                  entries=[ModelEntry(0, 0.0)])
    labels, acc = predict(model, data)
    np.testing.assert_array_equal(labels, [1, 1])
    assert acc == 0.5
    # so does an empty degree-2 model, whose virtual-feature block has no column
    empty = Model(mode="poly", stop_reason="max_outer", m=1, units=(), entries=[],
                  gamma=1.0, r=1.0)
    np.testing.assert_array_equal(predict(empty, data)[0], [1, 1])


def test_predict_out_of_range_entry():
    data = SparseDataset(np.eye(2), np.array([1, -1]))
    model = Model(mode="plain", stop_reason="max_outer", m=5, units=(4,),
                  entries=[ModelEntry(4, 1.0)])
    with pytest.raises(FormatError, match="out of range"):
        predict(model, data)
    # the first bad entry in entry order is named, whatever its size
    for ids, first in (([1, 7, -1, 10 ** 30], 7), ([0, 10 ** 30, -1], 10 ** 30),
                       ([-1, 5], -1)):
        model.entries = [ModelEntry(i, 1.0) for i in ids]
        with pytest.raises(FormatError, match=f"^model feature {first} out of range for m=2$"):
            predict(model, data)


def _every_cell_stored(values: np.ndarray) -> sp.csr_matrix:
    """CSR of ``values`` that stores every cell, zeros included, in row-major order."""
    n, m = values.shape
    return sp.csr_matrix((values.ravel(), np.tile(np.arange(m), n), np.arange(n + 1) * m),
                         shape=(n, m))


@pytest.mark.parametrize("layout", ["every-cell", "sparse", "every-cell-with-zeros"])
def test_predict_scores_every_layout_like_the_sparse_product(layout):
    rng = np.random.default_rng(23)
    values = rng.standard_normal((80, 24))
    if layout == "sparse":
        values[rng.random(values.shape) < 0.5] = 0.0
        X = sp.csr_matrix(values)
    else:
        if layout == "every-cell-with-zeros":
            values[3, :4] = [0.0, -0.0, 0.0, -0.0]
        X = _every_cell_stored(values)
    data = SparseDataset(X, np.where(values[:, :6].sum(axis=1) >= 0, 1, -1))
    assert data.X is X and (dataset._full_array(X) is None) == (layout == "sparse")
    cfg = SolverConfig(budget=2, max_outer=3, eps_outer=0.0)
    groups = GroupStructure([np.arange(i, i + 4) for i in range(0, 24, 4)],
                            [f"g{i}" for i in range(6)])
    tree = TreeStructure([np.arange(0, 12), np.arange(12, 24)]
                         + [np.arange(i, i + 4) for i in range(0, 24, 4)],
                         np.array([-1, -1, 0, 0, 0, 1, 1, 1]), [f"n{i}" for i in range(8)])
    empty = Model(mode="plain", stop_reason="max_outer", m=24, units=(), entries=[])
    for model in (fgm_train(data, cfg), fgm_train(data, cfg, groups),
                  fgm_train(data, cfg, tree), empty):
        want = _entry_scores(model, data)
        np.testing.assert_allclose(engine._scores(model, data), want, rtol=1e-12, atol=0)
        labels, _ = predict(model, data)
        np.testing.assert_array_equal(labels, np.where(want >= 0, 1, -1))


@pytest.mark.parametrize("unit", ["plain", "plain inverse_norm", "groups", "tree inverse_norm",
                                  "poly"])
def test_fit_and_predict_on_generated_sets_build_no_csr(unit):
    train, truth = generate_synthetic(60, 24, 4, seed=2)
    test = generate_test_set(truth, 40, seed=2)
    cfg = SolverConfig(budget=2, max_outer=3, eps_outer=0.0)
    if unit.endswith("inverse_norm"):
        cfg = replace(cfg, lambda_policy="inverse_norm")
    structure = {
        "groups": GroupStructure([np.arange(i, i + 4) for i in range(0, 24, 4)],
                                 [f"g{i}" for i in range(6)]),
        "tree inverse_norm": TreeStructure([np.arange(0, 12), np.arange(12, 24)]
                                           + [np.arange(i, i + 4) for i in range(0, 24, 4)],
                                           np.array([-1, -1, 0, 0, 0, 1, 1, 1]),
                                           [f"n{i}" for i in range(8)]),
        "poly": PolyMap(),
    }.get(unit)
    with mock.patch.object(dataset, "_every_cell_csr", side_effect=AssertionError("CSR built")):
        model = fgm_train(train, cfg, structure)
        labels, accuracy = predict(model, test)
    assert model.support_size > 0 and labels.size == 40 and accuracy > 0.5


def test_predict_on_every_cell_stored_still_fails_on_a_non_finite_value():
    values = np.ones((3, 4))
    values[1, 2] = np.nan       # under a zero weight: nan * 0 is still nan
    data = SparseDataset(_every_cell_stored(values), np.array([1, -1, 1]))
    model = Model(mode="plain", stop_reason="max_outer", m=4, units=(0,),
                  entries=[ModelEntry(0, 1.0)])
    with pytest.raises(NumericalError, match="non-finite score"):
        predict(model, data)


def test_predict_poly_model_needs_the_trained_raw_width():
    data, _ = _small_problem(seed=12, n=40, m=8)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=2, eps_outer=0.0), PolyMap())
    for m in (5, 12):
        other, _ = _small_problem(seed=12, n=40, m=m)
        with pytest.raises(FormatError, match=f"data has {m} raw features but the model's "
                                              "virtual map expects 8"):
            predict(model, other)


def test_evaluate_recovery_counts_intersection():
    truth = GroundTruth(np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    model = Model(mode="plain", stop_reason="max_outer", m=5, units=(1, 2, 4), entries=[])
    assert evaluate_recovery(model, truth) == 2
    model.mode = "group"
    with pytest.raises(ValueError, match="plain"):
        evaluate_recovery(model, truth)


# ---------------------------------------------------------------------------
# model files


@pytest.mark.parametrize("structure", [
    None,
    GroupStructure([np.arange(i, i + 5) for i in range(0, 40, 5)], [f"g{i}" for i in range(8)]),
    TreeStructure([np.arange(0, 20), np.arange(0, 10), np.arange(10, 20), np.arange(20, 40)],
                  [-1, 0, 0, -1], list("rabs")),
    PolyMap(gamma=0.5, r=2.0),
], ids=["plain", "group", "tree", "poly"])
def test_model_round_trip_preserves_everything_but_seconds(tmp_path, structure):
    data, _ = _small_problem(seed=15)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=4), structure)
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    d1, d2 = model_to_dict(model), model_to_dict(back)
    assert d1 == d2
    assert all(rec.seconds == 0.0 for rec in back.trace)
    labels1, _ = predict(model, data)
    labels2, _ = predict(back, data)
    np.testing.assert_array_equal(labels1, labels2)


def test_model_file_content_has_no_timing(tmp_path):
    data, _ = _small_problem(seed=16)
    model = fgm_train(data, SolverConfig(budget=2, max_outer=3))
    path = tmp_path / "model.json"
    save_model(model, path)
    payload = json.loads(path.read_text())
    assert "seconds" not in json.dumps(payload)
    assert payload["format_version"] == 2


def test_version_1_model_loads_with_its_scales_folded_in():
    rng = np.random.default_rng(5)
    data = SparseDataset(rng.standard_normal((40, 8)), np.where(rng.random(40) < 0.5, 1, -1))
    ids, weights, lambdas = [1, 4, 6], [0.3, -1.7, 2.1], [0.5, 3.0, 1.0 / 3.0]
    payload = {"format_version": 1, "mode": "group", "budget": 1, "n_outer": 1,
               "stop_reason": "max_outer", "loss": {"kind": "squared_hinge", "C": 10.0},
               "lambda_policy": "inverse_norm", "m": 8, "units": [0, 1],
               "entries": [{"id": i, "weight": w, "lambda": lam}
                           for i, w, lam in zip(ids, weights, lambdas)],
               "unit_features": {"0": [1, 4], "1": [6]}, "gamma": None, "r": None,
               "config": {}, "trace": [], "mkl_weights": [1.0]}
    model = model_from_dict(payload)
    folded = [w * lam for w, lam in zip(weights, lambdas)]
    assert [(e.id, e.weight) for e in model.entries] == list(zip(ids, folded))
    v = np.zeros(data.m)
    v[ids] = folded
    labels, _ = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(data.X @ v >= 0, 1, -1))
    # it saves as format 2, which has no scales and no repeated settings
    saved = model_to_dict(model)
    assert saved["format_version"] == 2
    assert saved["entries"] == [{"id": i, "weight": w} for i, w in zip(ids, folded)]
    assert not {"budget", "n_outer", "loss", "lambda_policy"} & set(saved)


def test_model_file_determinism(tmp_path):
    data, _ = _small_problem(seed=17)
    cfg = SolverConfig(budget=2, max_outer=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(fgm_train(data, cfg), p1)
    save_model(fgm_train(data, cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_model_rejects_bad_payloads(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("not json")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_model(path)
    for version in (99, 3, True, 2.0, "2"):
        message = f"unsupported model format version {version!r}"
        with pytest.raises(FormatError, match=re.escape(message)):
            model_from_dict({"format_version": version})
    with pytest.raises(FormatError, match="invalid model"):
        model_from_dict({"format_version": 1})


@pytest.mark.parametrize("edit", [
    lambda p: p["entries"][0].update(id=10 ** 6),
    lambda p: p.update(gamma=None),
    lambda p: p.update(gamma=-1),
    lambda p: p.update(gamma=float("nan")),
    lambda p: p.update(r=float("nan")),
], ids=["entry-id-out-of-range", "gamma-null", "gamma-negative", "gamma-nan", "r-nan"])
def test_load_model_rejects_a_corrupt_poly_model(edit):
    data, _ = _small_problem(seed=12, n=30, m=6)
    payload = model_to_dict(fgm_train(data, SolverConfig(budget=3, max_outer=2), PolyMap()))
    model_from_dict(payload)
    edit(payload)
    with pytest.raises(FormatError):
        model_from_dict(payload)


@pytest.mark.parametrize("edit,message", [
    (lambda p: p["entries"][0].update(id=p["entries"][0]["id"] + 0.7), "entry id"),
    (lambda p: p.update(m=p["m"] + 0.9), "m"),
    (lambda p: p.update(m=True), "m"),
    (lambda p: p.update(m=str(p["m"])), "m"),
    (lambda p: p["units"].append(1.0), "unit"),
    (lambda p: next(iter(p["unit_features"].values())).append(True), "unit feature"),
    (lambda p: p["trace"][0].update(iteration=1.0), "trace iteration"),
    (lambda p: p["trace"][0].update(inner_iters="3"), "trace inner_iters"),
    (lambda p: p["trace"][0]["selected"].append(2.5), "trace selection"),
], ids=["entry-id-float", "m-float", "m-true", "m-string", "units-float",
        "unit-features-true", "trace-iteration-float", "trace-inner-iters-string",
        "trace-selected-float"])
def test_load_model_rejects_integer_fields_that_are_not_json_integers(edit, message):
    # int() would truncate 2.7 to 2 and read true as 1 and "7" as 7
    data, _ = _small_problem(seed=8, m=30)
    groups = GroupStructure([np.arange(i, i + 5) for i in range(0, 30, 5)],
                            [f"g{i}" for i in range(6)])
    payload = model_to_dict(fgm_train(data, SolverConfig(budget=2, max_outer=2), groups))
    model_from_dict(payload)
    edit(payload)
    with pytest.raises(FormatError, match=f"^model {message} .* is not an integer$"):
        model_from_dict(payload)


def _payload_of(mode):
    """A trained model's dict: version 2 of ``mode``, or a hand-made version-1 group model."""
    if mode == "version 1":
        return {"format_version": 1, "mode": "group", "stop_reason": "max_outer", "m": 8,
                "units": [0], "entries": [{"id": 1, "weight": 0.3, "lambda": 0.5}],
                "unit_features": {"0": [1]}, "gamma": None, "r": None, "trace": []}
    data, _ = _small_problem(seed=8, m=30)
    structure = PolyMap() if mode == "poly" else GroupStructure(
        [np.arange(i, i + 5) for i in range(0, 30, 5)], [f"g{i}" for i in range(6)])
    return model_to_dict(fgm_train(data, SolverConfig(budget=2, max_outer=2), structure))


@pytest.mark.parametrize("mode,edit,message", [
    ("group", lambda p: p["entries"][0].update(weight=True), "entry weight True"),
    ("group", lambda p: p["entries"][0].update(weight="2.5"), "entry weight '2.5'"),
    ("version 1", lambda p: p["entries"][0].update(**{"lambda": "0.5"}), "entry lambda '0.5'"),
    ("group", lambda p: p["trace"][0].update(objective="1.0"), "trace objective '1.0'"),
    ("group", lambda p: p["trace"][0].update(beta=False), "trace beta False"),
    ("group", lambda p: p["trace"][0].update(phi=True), "trace phi True"),
    ("group", lambda p: p.update(mkl_weights=["0.5", 0.5]), "mkl weight '0.5'"),
    ("poly", lambda p: p.update(gamma="1.0"), "gamma '1.0'"),
    ("poly", lambda p: p.update(r=True), "r True"),
], ids=["weight-true", "weight-string", "v1-lambda-string", "objective-string", "beta-false",
        "phi-true", "mkl-weight-string", "gamma-string", "r-true"])
def test_load_model_rejects_float_fields_that_are_not_json_numbers(mode, edit, message):
    # float() would read true as 1.0 and "2.5" as 2.5
    payload = _payload_of(mode)
    model_from_dict(payload)
    edit(payload)
    with pytest.raises(FormatError) as exc:
        model_from_dict(payload)
    assert str(exc.value) == f"model {message} is not a number"


@pytest.mark.parametrize("key", ["1_1", " 1", "1.0", "0x1", ""])
def test_load_model_rejects_unit_feature_keys_that_are_not_integers(key):
    # int() would read "1_1" as unit 11 and " 1" as unit 1
    payload = _payload_of("group")
    payload["unit_features"] = {key: next(iter(payload["unit_features"].values()))}
    with pytest.raises(FormatError) as exc:
        model_from_dict(payload)
    assert str(exc.value) == f"model unit_features key {key!r} is not an integer"


def test_load_model_stores_the_checked_floats():
    payload = _payload_of("poly")
    payload.update(gamma=2, r=1)
    payload["trace"][0].update(objective=3)
    model = model_from_dict(payload)
    assert type(model.gamma) is type(model.r) is type(model.trace[0].objective) is float
    assert (model.gamma, model.r) == (2.0, 1.0)
    assert type(model_from_dict(_payload_of("version 1")).entries[0].weight) is float


@pytest.mark.parametrize("key,value", [("gamma", "x"), ("r", [1]), ("gamma", 1.0), ("r", 0.0)],
                         ids=["gamma-string", "r-list", "gamma-number", "r-zero"])
@pytest.mark.parametrize("mode", ["plain", "group", "tree"])
def test_load_model_requires_a_null_map_outside_poly(mode, key, value):
    # only the degree-2 map reads gamma and r; any other model writes null there
    data, _ = _small_problem(seed=8, m=30)
    structure = {"plain": None,
                 "group": GroupStructure([np.arange(i, i + 5) for i in range(0, 30, 5)],
                                         [f"g{i}" for i in range(6)]),
                 "tree": TreeStructure([np.arange(30), np.arange(10), np.arange(10, 20)],
                                       [-1, 0, 0], ["root", "a", "b"])}[mode]
    payload = model_to_dict(fgm_train(data, SolverConfig(budget=2, max_outer=2), structure))
    assert payload["mode"] == mode and payload["gamma"] is payload["r"] is None
    model_from_dict(payload)
    payload[key] = value
    with pytest.raises(FormatError) as exc:
        model_from_dict(payload)
    assert str(exc.value) == f"a {mode} model's {key} must be null, got {value!r}"


@pytest.mark.parametrize("mode", ["Poly", "", "l1", None, ["poly"]])
def test_load_model_rejects_an_unknown_mode(mode):
    # predict would score a poly model of any other mode as raw features
    data, _ = _small_problem(seed=12, n=30, m=6)
    payload = model_to_dict(fgm_train(data, SolverConfig(budget=3, max_outer=2), PolyMap()))
    assert max(e["id"] for e in payload["entries"]) >= data.m
    payload["mode"] = mode
    with pytest.raises(FormatError) as exc:
        model_from_dict(payload)
    assert str(exc.value) == f"unknown model mode {mode!r}"


def test_eval_bounds_requires_constraints():
    with pytest.raises(ValueError, match="no stored constraints"):
        eval_bounds(np.ones(3), ColumnCache.empty(3), np.ones(3), LossKind())


@pytest.mark.parametrize("kind", [LossKind("squared_hinge", 2.0), LossKind("logistic", 2.0)])
def test_eval_bounds_on_repeated_columns_matches_the_position_wise_cache(kind):
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((20, 5))
    cache = ColumnCache.empty(20)
    for feats in ([0, 1, 0], [1, 2], [3]):
        feats = np.asarray(feats)
        cache = cache.extend(raw[:, feats], feats, np.ones(feats.size))
    explicit = ColumnCache(raw[:, [0, 1, 0, 1, 2, 3]], cache.offsets)
    alpha, labels = rng.uniform(0.1, 1.5, 20), rng.choice([-1.0, 1.0], 20)
    assert cache.matrix.shape[1] == 4
    assert eval_bounds(alpha, cache, labels, kind) == pytest.approx(
        eval_bounds(alpha, explicit, labels, kind), rel=1e-12)
