"""Dense l1 / l2 reference trainers, de-bias refit, and the sparsity sweep."""

import numpy as np
import pytest
import scipy.sparse as sp

from fgm.baseline import (DenseWeights, dense_to_model, l1_prox_train, l2_full_train,
                          retrain_unbiased, sweep_to_support)
from fgm.dataset import SparseDataset, generate_synthetic
from fgm.engine import predict
from fgm.loss import LossKind
from fgm.subsolver import NumericalError

from oracles import l1_split_lbfgs, l2_lbfgs


def _dense_problem(seed, n=40, m=25):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, m))
    w = np.zeros(m)
    w[rng.choice(m, size=5, replace=False)] = rng.uniform(0.5, 1.5, size=5)
    y = np.where(X @ w + 0.1 * rng.standard_normal(n) >= 0, 1, -1)
    return SparseDataset(X, y), X, y.astype(float)


# ---------------------------------------------------------------------------
# l1 trainer


@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
@pytest.mark.parametrize("seed,reg_scale", [(0, 0.05), (1, 0.2), (2, 0.5)])
def test_l1_objective_matches_split_variable_oracle(loss, seed, reg_scale):
    data, X, y = _dense_problem(seed)
    kind = LossKind(loss, 1.0)
    # place reg relative to the threshold that zeroes everything
    coef_scale = kind.C if loss == "squared_hinge" else kind.C / 2.0
    reg = reg_scale * coef_scale * np.max(np.abs(X.T @ y))
    sol = l1_prox_train(data, kind, reg, eps=1e-12, max_iter=6000)
    _, f_ref = l1_split_lbfgs(X, y, kind, reg)
    f_got = sol.objectives[-1]
    assert f_got <= f_ref + 1e-6 * max(1.0, abs(f_ref)) \
        and abs(f_got - f_ref) <= 1e-6 * max(1.0, abs(f_ref))


def test_l1_zero_solution_above_critical_reg():
    data, X, y = _dense_problem(5)
    # at the origin every squared-hinge margin is 1, so the gradient there
    # is -C * X'y and any reg above its sup-norm keeps the origin optimal
    reg_max = 1.0 * np.max(np.abs(X.T @ y))
    sol = l1_prox_train(data, LossKind("squared_hinge", 1.0), 1.01 * reg_max)
    assert sol.support_size == 0
    assert np.all(sol.w == 0.0)


def test_l1_zeros_are_exact_and_trace_monotone():
    data, X, y = _dense_problem(6)
    reg = 0.3 * np.max(np.abs(X.T @ y))
    sol = l1_prox_train(data, LossKind("squared_hinge", 1.0), reg, eps=1e-10)
    assert 0 < sol.support_size < data.m
    zero_part = sol.w[np.setdiff1d(np.arange(data.m), sol.support)]
    assert np.all(zero_part == 0.0)  # prox produces literal zeros
    assert np.all(np.diff(sol.objectives) <= 1e-12)


def test_l1_warm_start_and_validation():
    data, X, y = _dense_problem(7)
    kind = LossKind("squared_hinge", 1.0)
    reg = 0.2 * np.max(np.abs(X.T @ y))
    cold = l1_prox_train(data, kind, reg, eps=1e-10)
    warm = l1_prox_train(data, kind, reg, eps=1e-10, warm=cold.w)
    assert len(warm.objectives) <= 3
    assert abs(warm.objectives[-1] - cold.objectives[-1]) <= 1e-8 * max(1.0, cold.objectives[-1])
    with pytest.raises(ValueError):
        l1_prox_train(data, kind, -1.0)
    with pytest.raises(ValueError):
        l1_prox_train(data, kind, reg, warm=np.zeros(data.m + 1))


# ---------------------------------------------------------------------------
# l2 trainer and de-bias refit


@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_l2_matches_lbfgs_oracle(loss):
    data, X, y = _dense_problem(8)
    kind = LossKind(loss, 2.0)
    sol = l2_full_train(data, kind, eps=1e-9, max_iter=4000)
    w_ref, f_ref = l2_lbfgs(X, y, kind)
    assert abs(sol.objectives[-1] - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
    np.testing.assert_allclose(sol.w, w_ref, atol=1e-4)


@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_l2_objective_trace_non_increasing(loss):
    data, _, _ = _dense_problem(13)
    sol = l2_full_train(data, LossKind(loss, 2.0), eps=1e-10)
    assert len(sol.objectives) > 2
    assert np.all(np.diff(sol.objectives) <= 1e-12)


@pytest.mark.parametrize("solve", [
    lambda data, kind: l1_prox_train(data, kind, 0.1),
    lambda data, kind: l2_full_train(data, kind),
    lambda data, kind: retrain_unbiased(data, [0, 1], kind),
], ids=["l1", "l2", "refit"])
def test_non_finite_data_raises_numerical_error(solve):
    data = SparseDataset.__new__(SparseDataset)  # bypass validation to inject nan
    data.X = sp.csr_matrix(np.array([[np.nan, 1.0], [1.0, 2.0], [0.5, -1.0]]))
    data.y = np.array([1, -1, 1])
    with pytest.raises(NumericalError):
        solve(data, LossKind("squared_hinge", 1.0))


def test_retrain_unbiased_support_and_defaults():
    data, X, y = _dense_problem(9)
    support = [2, 5, 7]
    model = retrain_unbiased(data, support)
    assert model.stop_reason == "retrain"
    assert model.mode == "plain"
    assert model.units == (2, 5, 7)
    assert sorted(e.id for e in model.entries) == support
    assert all(e.lam == 1.0 for e in model.entries)
    assert model.loss.kind == "squared_hinge" and model.loss.C == 20.0
    # refit agrees with an independent solver on the restricted design
    w_ref, _ = l2_lbfgs(X[:, support], y, model.loss)
    got = np.array([e.weight for e in sorted(model.entries, key=lambda e: e.id)])
    np.testing.assert_allclose(got, w_ref, atol=1e-3)
    # and its predictions come from those columns only
    scores = X[:, support] @ got
    labels, _ = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))


def test_retrain_unbiased_validation():
    data, _, _ = _dense_problem(10)
    with pytest.raises(ValueError):
        retrain_unbiased(data, [])
    with pytest.raises(ValueError):
        retrain_unbiased(data, [data.m])
    with pytest.raises(ValueError):
        retrain_unbiased(data, [-1])


def test_retrain_unbiased_custom_loss():
    data, _, _ = _dense_problem(11)
    model = retrain_unbiased(data, [0, 3], kind=LossKind("logistic", 5.0))
    assert model.loss.kind == "logistic" and model.loss.C == 5.0


# ---------------------------------------------------------------------------
# matched-sparsity sweep


def test_sweep_hits_targets_within_window():
    data, _ = generate_synthetic(n=150, m=300, k=20, weighting=1, seed=4)
    kind = LossKind("squared_hinge", 1.0)
    targets = [10, 25, 50]
    out = sweep_to_support(data, kind, targets, tol=0.1)
    assert sorted(out) == targets
    for t, res in out.items():
        window = max(1.0, 0.1 * t)
        assert abs(res.support_size - t) <= window, (t, res.support_size)
        assert res.support_size == res.weights.support_size
        assert res.reg > 0


def test_sweep_validation():
    data, _ = generate_synthetic(n=30, m=20, k=3, weighting=1, seed=0)
    kind = LossKind("squared_hinge", 1.0)
    with pytest.raises(ValueError):
        sweep_to_support(data, kind, [])
    with pytest.raises(ValueError):
        sweep_to_support(data, kind, [0, 5])
    zero = SparseDataset(np.zeros((8, 4)), np.array([1, -1] * 4))
    with pytest.raises(ValueError):
        sweep_to_support(zero, kind, [2])


# ---------------------------------------------------------------------------
# container bridge


def test_dense_to_model_predicts_like_the_weight_vector():
    data, X, y = _dense_problem(12)
    kind = LossKind("squared_hinge", 1.0)
    reg = 0.2 * np.max(np.abs(X.T @ y))
    sol = l1_prox_train(data, kind, reg, eps=1e-10)
    model = dense_to_model(sol, data, kind, method="l1")
    assert model.stop_reason == "l1"
    assert model.units == tuple(int(j) for j in sol.support)
    scores = X @ sol.w
    labels, accuracy = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))
    assert accuracy == np.mean(labels == data.y)


def test_dense_weights_support_properties():
    sol = DenseWeights(np.array([0.0, 1.5, 0.0, -2.0]), [3.0, 1.0])
    np.testing.assert_array_equal(sol.support, [1, 3])
    assert sol.support_size == 2


def test_solvers_report_whether_they_converged():
    data, _, _ = _dense_problem(3, n=30, m=10)
    kind = LossKind("squared_hinge", 1.0)
    assert not l2_full_train(data, kind, max_iter=3).converged
    assert not l1_prox_train(data, kind, 0.1, max_iter=3).converged
    assert l2_full_train(data, kind).converged
    assert l1_prox_train(data, kind, 0.1).converged


def test_baseline_models_record_whether_the_solve_converged():
    data, _, _ = _dense_problem(3, n=30, m=10)
    kind = LossKind("squared_hinge", 1.0)
    capped = dense_to_model(l2_full_train(data, kind, max_iter=3), data, kind, "l2-full")
    assert capped.config["converged"] is False
    assert retrain_unbiased(data, [0, 1, 2], kind, max_iter=3).config["converged"] is False
    solved = dense_to_model(l2_full_train(data, kind), data, kind, "l2-full")
    assert solved.config["converged"] is True
    assert retrain_unbiased(data, [0, 1, 2], kind).config["converged"] is True
