"""Training loop, bounds, model container, prediction, and model files."""

import json

import numpy as np
import pytest

from fgm.dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset,
                         TreeStructure, generate_synthetic)
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
        v[e.id] += e.weight * e.lam
    return data.X @ v


# ---------------------------------------------------------------------------
# configuration


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(budget=0)
    with pytest.raises(ValueError):
        SolverConfig(C=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(eta=1.0)
    with pytest.raises(ValueError):
        SolverConfig(eps_outer=-0.1)
    kind = SolverConfig(loss="logistic", C=3.0).loss_kind()
    assert kind.kind == "logistic" and kind.C == 3.0


def test_poly_map_validation():
    with pytest.raises(ValueError):
        PolyMap(gamma=0.0)
    with pytest.raises(ValueError):
        PolyMap(r=-1.0)
    with pytest.raises(ValueError):
        PolyMap(block=0)


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
    # each round's certificate sits at or barely above the negated restricted
    # optimum: the difference is the remaining inner-solve duality gap, which
    # stays one-sided and small at this solve tolerance
    gap = beta + F
    assert np.all(gap >= -1e-9 * scale)
    assert np.all(gap <= 2e-4 * scale)
    assert np.all(phi >= -F[-1] - 1e-7 * scale)


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
    assert model.trace[0].selected == expected.ids


def test_numerical_error_carries_outer_context():
    X = np.array([[np.nan, 1.0], [1.0, 2.0]])
    data = SparseDataset.__new__(SparseDataset)  # bypass validation to inject nan
    import scipy.sparse as sp
    data.X = sp.csr_matrix(X)
    data.y = np.array([1, -1])
    with pytest.raises(NumericalError, match="outer iteration 1"):
        fgm_train(data, SolverConfig(budget=1, max_outer=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("unit", ["plain", "group", "tree", "poly"])
def test_non_finite_data_fails_before_any_search(unit, bad):
    X = np.array([[1.0, bad, 0.5, 0.0], [2.0, 0.0, 1.0, 1.0],
                  [0.5, 1.0, 2.0, 0.0], [0.0, 3.0, 1.0, 2.0]])
    data = SparseDataset(X, np.array([1, -1, 1, -1]))
    structure = {
        "plain": None,
        "group": GroupStructure([np.array([0, 1]), np.array([2, 3])], ["a", "b"]),
        "tree": TreeStructure([np.arange(4), np.array([0, 1]), np.array([2, 3])],
                              np.array([-1, 0, 0]), ["r", "a", "b"]),
        "poly": PolyMap(),
    }[unit]
    with pytest.raises(NumericalError, match="outer iteration 1: .*non-finite"):
        fgm_train(data, SolverConfig(budget=1, max_outer=3), structure)


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


def test_group_mode_explicit_lambdas_kept_in_entries():
    data, _ = _small_problem(seed=9, m=10)
    groups = GroupStructure([np.array([0, 1]), np.array([2, 3])], ["a", "b"], [2.0, 0.5])
    model = fgm_train(data, SolverConfig(budget=1, max_outer=3, eps_outer=0.0), groups)
    lams = {e.id: e.lam for e in model.entries}
    for fid, lam in lams.items():
        assert lam == (2.0 if fid in (0, 1) else 0.5)


def test_tree_mode_folds_scale_into_weights():
    data, _ = _small_problem(seed=10, m=12)
    sets = [np.arange(0, 12), np.arange(0, 6), np.arange(6, 12), np.arange(0, 3)]
    tree = TreeStructure(sets, np.array([-1, 0, 0, 1]), list("rabc"), [1.0, 2.0, 0.5, 4.0])
    model = fgm_train(data, SolverConfig(budget=2, max_outer=4, eps_outer=0.0), tree)
    assert model.mode == "tree"
    assert all(e.lam == 1.0 for e in model.entries)
    # nested nodes may reselect features; aggregated scores must match a
    # direct prediction pass
    labels, acc = predict(model, data)
    scores = _entry_scores(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))
    assert 0.0 <= acc <= 1.0


def test_tree_mode_inverse_norm_policy_runs():
    data, _ = _small_problem(seed=11, m=12)
    sets = [np.arange(0, 12), np.arange(0, 6), np.arange(6, 12)]
    tree = TreeStructure(sets, np.array([-1, 0, 0]), list("rab"))
    cfg = SolverConfig(budget=1, max_outer=3, eps_outer=0.0, lambda_policy="inverse_norm")
    model = fgm_train(data, cfg, tree)
    assert model.mode == "tree" and model.support_size >= 1


def test_poly_mode_trains_and_predicts_consistently():
    data, _ = _small_problem(seed=12, n=50, m=10)
    pm = PolyMap(gamma=0.5, r=1.0)
    model = fgm_train(data, SolverConfig(budget=5, max_outer=4, eps_outer=0.0), pm)
    assert model.mode == "poly" and model.gamma == 0.5 and model.r == 1.0
    ids = np.array([e.id for e in model.entries])
    weights = np.array([e.weight for e in model.entries])
    scores = poly_columns(data, ids, 0.5, 1.0) @ weights
    labels, _ = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))


def test_inverse_norm_policy_plain_mode():
    data, _ = _small_problem(seed=13)
    cfg = SolverConfig(budget=3, max_outer=3, eps_outer=0.0, lambda_policy="inverse_norm")
    model = fgm_train(data, cfg)
    norms = data.column_norms()
    for e in model.entries:
        assert e.lam == pytest.approx(1.0 / norms[e.id])


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
    model = Model(mode="plain", budget=1, n_outer=1, stop_reason="max_outer",
                  loss=LossKind(), lambda_policy="ones", m=2, units=(1,),
                  entries=[ModelEntry(1, 0.5, 2.0)])
    labels, acc = predict(model, data)
    # scores are [2.0, -1.0]
    np.testing.assert_array_equal(labels, [1, -1])
    assert acc == 1.0


def test_predict_sign_zero_is_positive():
    data = SparseDataset(np.array([[1.0], [2.0]]), np.array([1, -1]))
    model = Model(mode="plain", budget=1, n_outer=1, stop_reason="max_outer",
                  loss=LossKind(), lambda_policy="ones", m=1, units=(0,),
                  entries=[ModelEntry(0, 0.0, 1.0)])
    labels, acc = predict(model, data)
    np.testing.assert_array_equal(labels, [1, 1])
    assert acc == 0.5


def test_predict_out_of_range_entry():
    data = SparseDataset(np.eye(2), np.array([1, -1]))
    model = Model(mode="plain", budget=1, n_outer=1, stop_reason="max_outer",
                  loss=LossKind(), lambda_policy="ones", m=5, units=(4,),
                  entries=[ModelEntry(4, 1.0, 1.0)])
    with pytest.raises(FormatError, match="out of range"):
        predict(model, data)


def test_evaluate_recovery_counts_intersection():
    truth = GroundTruth(np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    model = Model(mode="plain", budget=2, n_outer=1, stop_reason="max_outer",
                  loss=LossKind(), lambda_policy="ones", m=5, units=(1, 2, 4),
                  entries=[])
    assert evaluate_recovery(model, truth) == 2
    model.mode = "group"
    with pytest.raises(ValueError, match="plain"):
        evaluate_recovery(model, truth)


# ---------------------------------------------------------------------------
# model files


def test_model_round_trip_preserves_everything_but_seconds(tmp_path):
    data, _ = _small_problem(seed=15)
    model = fgm_train(data, SolverConfig(budget=3, max_outer=4))
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
    assert payload["format_version"] == 1


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
    with pytest.raises(FormatError, match="version"):
        model_from_dict({"format_version": 99})
    with pytest.raises(FormatError, match="invalid model"):
        model_from_dict({"format_version": 1})


def test_eval_bounds_requires_constraints():
    from fgm.engine import ActiveSet
    from fgm.blocks import ColumnCache
    active = ActiveSet(ColumnCache.empty(3))
    with pytest.raises(ValueError, match="no stored constraints"):
        eval_bounds(np.ones(3), active, np.ones(3), LossKind())
