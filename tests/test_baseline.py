"""Dense l1 / l2 reference trainers, de-bias refit, and the sparsity sweep."""

import numpy as np
import pytest
import scipy.sparse as sp

from fgm.baseline import (dense_to_model, l1_prox_train, l2_full_train, retrain_unbiased,
                          sweep_to_support)
from fgm.dataset import SparseDataset, generate_synthetic
from fgm.engine import predict
from fgm.loss import LossKind, loss_from_margins, margins_from_scores, recover_duals
from fgm.subsolver import ApgResult, NumericalError

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
    assert np.all(sol.weights == 0.0)


def test_l1_zeros_are_exact_and_trace_monotone():
    data, X, y = _dense_problem(6)
    reg = 0.3 * np.max(np.abs(X.T @ y))
    sol = l1_prox_train(data, LossKind("squared_hinge", 1.0), reg, eps=1e-10)
    assert 0 < sol.support_size < data.m
    zero_part = sol.weights[np.setdiff1d(np.arange(data.m), sol.support)]
    assert np.all(zero_part == 0.0)  # prox produces literal zeros
    assert np.all(np.diff(sol.objectives) <= 1e-12)


def test_l1_warm_start_and_validation():
    data, X, y = _dense_problem(7)
    kind = LossKind("squared_hinge", 1.0)
    reg = 0.2 * np.max(np.abs(X.T @ y))
    cold = l1_prox_train(data, kind, reg, eps=1e-10)
    warm = l1_prox_train(data, kind, reg, eps=1e-10, warm=cold.weights)
    assert len(warm.objectives) <= 3
    assert abs(warm.objectives[-1] - cold.objectives[-1]) <= 1e-8 * max(1.0, cold.objectives[-1])
    with pytest.raises(ValueError):
        l1_prox_train(data, kind, -1.0)
    with pytest.raises(ValueError):
        l1_prox_train(data, kind, reg, warm=np.zeros(data.m + 1))


@pytest.mark.parametrize("density", [1.0, 0.2], ids=["dense", "sparse"])
@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_reported_objectives_match_direct_evaluation_at_every_cap(loss, density):
    # both solvers extrapolate scores instead of recomputing them; the
    # objective they report must still be the one of the weights they return
    data, X, y = _dense_problem(14)
    X = X * (np.random.default_rng(15).random(X.shape) < density)
    data = SparseDataset(X, data.y)
    kind = LossKind(loss, 1.0)
    reg = 0.2 * np.max(np.abs(X.T @ y))

    def loss_at(w):
        return loss_from_margins(margins_from_scores(X @ w, y, kind), kind)

    for cap in range(1, 16):
        l1 = l1_prox_train(data, kind, reg, eps=0.0, max_iter=cap)
        assert len(l1.objectives) == cap + 1
        assert l1.objectives[-1] == pytest.approx(
            reg * np.abs(l1.weights).sum() + loss_at(l1.weights), rel=1e-12)
        l2 = l2_full_train(data, kind, eps=0.0, max_iter=cap)
        assert l2.objectives[-1] == pytest.approx(
            0.5 * l2.weights @ l2.weights + loss_at(l2.weights), rel=1e-12)


# ---------------------------------------------------------------------------
# l2 trainer and de-bias refit


@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_l2_matches_lbfgs_oracle(loss):
    data, X, y = _dense_problem(8)
    kind = LossKind(loss, 2.0)
    sol = l2_full_train(data, kind, eps=1e-9, max_iter=4000)
    w_ref, f_ref = l2_lbfgs(X, y, kind)
    assert abs(sol.objectives[-1] - f_ref) <= 1e-6 * max(1.0, abs(f_ref))
    np.testing.assert_allclose(sol.weights, w_ref, atol=1e-4)


@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_l2_objective_trace_non_increasing(loss):
    data, _, _ = _dense_problem(13)
    sol = l2_full_train(data, LossKind(loss, 2.0), eps=1e-10)
    assert len(sol.objectives) > 2
    assert np.all(np.diff(sol.objectives) <= 1e-12)


def test_ridge_prox_step_hand_values():
    # the ridge is the prox: one iteration from w0 (no momentum yet) at the
    # first trial tau = 0.8 * 0.1 * n * C = 0.32 lands on g * tau / (1 + tau)
    # with g = w0 - grad / tau; X'X's largest eigenvalue, 0.140625, is below tau,
    # so that trial is accepted
    X = np.array([[0.25, 0.0], [0.0, 0.125], [0.125, 0.25], [-0.25, 0.125]])
    data = SparseDataset(X, [1, -1, 1, -1])
    w0 = np.array([1.0, -1.0])
    sol = l2_full_train(data, LossKind("squared_hinge", 1.0), max_iter=1, warm=w0)
    # scores (0.25, -0.125, -0.125, -0.375), margins (0.75, 0.875, 1.125, 0.625),
    # loss gradient -X'c = -(0.484375, 0.09375), g = (2.513671875, -0.70703125)
    np.testing.assert_allclose(sol.weights, [0.804375 / 1.32, -0.22625 / 1.32], rtol=1e-14)
    assert sol.objectives[1] < sol.objectives[0]


def _meets_l2_stop_rule(X, y, kind, w, eps):
    coef = y * recover_duals(margins_from_scores(X @ w, y, kind), kind)
    return np.linalg.norm(w - X.T @ coef) <= eps * (1.0 + np.linalg.norm(w))


@pytest.mark.parametrize("density", [1.0, 0.1], ids=["dense-view", "csr-only"])
@pytest.mark.parametrize("loss", ["squared_hinge", "logistic"])
def test_converged_l2_solves_meet_their_stop_rule_recomputed_from_x(loss, density):
    # the solver reads its gradient off the scores of the accepted point;
    # recomputed from X, the gradient must pass the same test.  At eps=1e-4 the
    # gradient test is what stops these solves; at the default 1e-6 the
    # solver's other exit, a relative objective change of at most 1e-14, often
    # comes first with the gradient still above the bound.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((60, 40)) * (rng.random((60, 40)) < density)
    y = np.where(X[:, :5].sum(axis=1) + 0.3 * rng.standard_normal(60) >= 0, 1, -1)
    data = SparseDataset(X, y)
    assert sp.issparse(data.design) == (density < 1)
    eps = 1e-4
    kind = LossKind(loss, 1.0)
    full = l2_full_train(data, kind, eps=eps)
    assert full.converged and _meets_l2_stop_rule(X, y, kind, full.weights, eps)
    support = np.arange(0, 40, 3)
    kind = LossKind(loss, 20.0)
    refit = retrain_unbiased(data, support, kind, eps=eps)
    w = np.array([e.weight for e in refit.entries])
    assert [e.id for e in refit.entries] == support.tolist()
    assert refit.config["converged"] and _meets_l2_stop_rule(X[:, support], y, kind, w, eps)


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
    assert model.config["loss"] == "squared_hinge" and model.config["C"] == 20.0
    # refit agrees with an independent solver on the restricted design
    w_ref, _ = l2_lbfgs(X[:, support], y, LossKind("squared_hinge", 20.0))
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
    assert model.config["loss"] == "logistic" and model.config["C"] == 5.0


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
        assert abs(res.weights.support_size - t) <= window, (t, res.weights.support_size)
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
    scores = X @ sol.weights
    labels, accuracy = predict(model, data)
    np.testing.assert_array_equal(labels, np.where(scores >= 0, 1, -1))
    assert accuracy == np.mean(labels == data.y)


def test_dense_weights_support_properties():
    sol = ApgResult(np.array([0.0, 1.5, 0.0, -2.0]), np.zeros(2), 1.0, 1.0, [3.0, 1.0], True)
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
