"""Squared-sum-of-norms prox and the accelerated subproblem solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgm.blocks import BlockWeights, ColumnCache
from fgm.loss import LOGISTIC, SQUARED_HINGE, LossKind, eval_loss
from fgm.subsolver import (ApgResult, NumericalError, apg_solve, moreau_projection,
                           regularizer, _moreau_coefficients)

from oracles import moreau_bcd, prox_objective, soc_projected_gradient

SQ = LossKind(SQUARED_HINGE, 10.0)
LG = LossKind(LOGISTIC, 10.0)


def _bw(blocks):
    return BlockWeights.from_blocks([np.asarray(b, dtype=float) for b in blocks])


# ---------------------------------------------------------------------------
# prox: hand values


def test_prox_single_block_hand_value():
    g = _bw([[3.0, 4.0]])
    w = moreau_projection(g, 1.0)
    np.testing.assert_allclose(w.flat, [1.5, 2.0], rtol=1e-15)


def test_prox_two_symmetric_unit_blocks():
    g = _bw([[1.0, 0.0], [0.0, 1.0]])
    w = moreau_projection(g, 1.0)
    np.testing.assert_allclose(w.block(0), [1.0 / 3.0, 0.0], rtol=1e-14)
    np.testing.assert_allclose(w.block(1), [0.0, 1.0 / 3.0], rtol=1e-14)


def test_prox_drops_dominated_block():
    # a tiny block next to a huge one is zeroed by the common threshold
    g = _bw([[100.0], [1e-4]])
    w = moreau_projection(g, 1.0)
    assert np.linalg.norm(w.block(1)) == 0.0
    assert np.linalg.norm(w.block(0)) > 0.0


def test_prox_zero_input_stays_zero():
    g = _bw([[0.0, 0.0], [0.0]])
    w = moreau_projection(g, 2.5)
    np.testing.assert_array_equal(w.flat, np.zeros(3))


def test_prox_scale_validation():
    with pytest.raises(ValueError, match="positive"):
        moreau_projection(_bw([[1.0]]), 0.0)


# ---------------------------------------------------------------------------
# prox: oracle and properties


def _random_prox_instance(rng):
    n_blocks = int(rng.integers(1, 7))
    sizes = rng.integers(1, 6, size=n_blocks)
    blocks = [rng.standard_normal(int(sz)) * 10.0 ** rng.uniform(-2, 2) for sz in sizes]
    if rng.random() < 0.3 and n_blocks >= 2:
        blocks[1] = blocks[0].copy() if sizes[1] == sizes[0] else blocks[1]
    if rng.random() < 0.2:
        blocks[0] = np.zeros_like(blocks[0])
    s = float(10.0 ** rng.uniform(-2, 2))
    return blocks, s


def test_prox_matches_cyclic_minimization_oracle():
    rng = np.random.default_rng(123)
    for _ in range(40):
        blocks, s = _random_prox_instance(rng)
        w = moreau_projection(_bw(blocks), s)
        ref = moreau_bcd(blocks, s)
        got = prox_objective(w.blocks(), blocks, s)
        want = prox_objective(ref, blocks, s)
        assert got <= want + 1e-9
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(1e-3, 1e3))
def test_prox_structure_properties(seed, s):
    rng = np.random.default_rng(seed)
    blocks, _ = _random_prox_instance(rng)
    g = _bw(blocks)
    w = moreau_projection(g, s)
    u = g.norms()
    _, threshold = _moreau_coefficients(u, s)
    # every surviving block norm is the input norm minus a common threshold
    np.testing.assert_allclose(w.norms(), np.maximum(u - threshold, 0.0),
                               rtol=1e-10, atol=1e-12)
    # blocks stay parallel to the input: w_t' g_t == ||w_t|| ||g_t||
    for t in range(g.n_blocks):
        wt, gt = w.block(t), g.block(t)
        lhs = float(wt @ gt)
        rhs = float(np.linalg.norm(wt) * np.linalg.norm(gt))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # objective at the prox point beats the input and the origin
    val = prox_objective(w.blocks(), blocks, s)
    assert val <= prox_objective(blocks, blocks, s) + 1e-12
    assert val <= prox_objective([np.zeros_like(b) for b in blocks], blocks, s) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prox_beats_random_perturbations(seed):
    rng = np.random.default_rng(seed)
    blocks, s = _random_prox_instance(rng)
    g = _bw(blocks)
    w = moreau_projection(g, s)
    val = prox_objective(w.blocks(), blocks, s)
    for _ in range(10):
        delta = rng.standard_normal(w.flat.size) * 10.0 ** rng.uniform(-6, 0)
        cand = BlockWeights(w.flat + delta, w.offsets)
        assert val <= prox_objective(cand.blocks(), blocks, s) + 1e-12


# ---------------------------------------------------------------------------
# accelerated solver


def _random_subproblem(rng, n=24, blocks=(3, 4, 2), scale=1.0):
    offsets = np.concatenate([[0], np.cumsum(blocks)])
    cache = ColumnCache(scale * rng.standard_normal((n, int(offsets[-1]))), offsets)
    labels = rng.choice([-1.0, 1.0], size=n)
    return cache, labels


def _objective(cache, labels, kind, w):
    return eval_loss(w, cache, labels, kind)[0] + regularizer(w)


@pytest.mark.parametrize("kind", [SQ, LG, LossKind(SQUARED_HINGE, 1.0)])
def test_apg_matches_cone_oracle(kind):
    rng = np.random.default_rng(11)
    for _ in range(4):
        cache, labels = _random_subproblem(rng)
        result = apg_solve(cache, labels, kind, eps=1e-12, max_inner=3000)
        f_apg = result.objectives[-1]
        _, f_pg = soc_projected_gradient(cache, labels, kind, iters=8000)
        assert f_apg <= f_pg + 1e-6 * max(1.0, abs(f_pg))
        assert abs(f_apg - f_pg) <= 1e-4 * max(1.0, abs(f_pg))


def test_apg_objective_trace_monotone():
    rng = np.random.default_rng(5)
    for kind in (SQ, LG):
        cache, labels = _random_subproblem(rng, n=40, blocks=(5, 3, 6, 2))
        result = apg_solve(cache, labels, kind, eps=0.0, max_inner=200)
        diffs = np.diff(result.objectives)
        assert np.all(diffs <= 1e-10)


def test_apg_warm_start_resumes_quickly():
    rng = np.random.default_rng(9)
    cache, labels = _random_subproblem(rng)
    first = apg_solve(cache, labels, SQ, eps=1e-10, max_inner=2000)
    again = apg_solve(cache, labels, SQ, warm=first.weights,
                      L_init=first.tau, eps=1e-8, max_inner=2000)
    assert again.n_iters <= 5
    assert again.objectives[-1] <= first.objectives[-1] + 1e-9


def test_apg_result_bookkeeping():
    rng = np.random.default_rng(2)
    cache, labels = _random_subproblem(rng)
    result = apg_solve(cache, labels, SQ, eps=1e-6, max_inner=50)
    assert isinstance(result, ApgResult)
    assert result.n_iters == len(result.objectives) - 1
    assert result.n_iters <= 50
    assert result.max_tau >= result.tau
    assert result.max_tau > 0
    # the scores of the final point are the product the recovered duals need
    assert result.scores.tobytes() == cache.scores(result.weights).tobytes()
    # final objective consistent with direct evaluation of the weights
    assert result.objectives[-1] == pytest.approx(
        _objective(cache, labels, SQ, result.weights), rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("kind", [SQ, LG], ids=["squared_hinge", "logistic"])
def test_apg_objectives_match_direct_evaluation_at_every_cap(kind):
    # the solver extrapolates scores instead of recomputing them; the
    # objective it reports must still be the one of the weights it returns
    rng = np.random.default_rng(21)
    cache, labels = _random_subproblem(rng, n=40, blocks=(5, 1, 7, 2, 3))
    for cap in range(1, 16):
        result = apg_solve(cache, labels, kind, eps=0.0, max_inner=cap)
        assert result.n_iters == cap
        assert result.objectives[-1] == pytest.approx(
            _objective(cache, labels, kind, result.weights), rel=1e-12)


def test_apg_zero_tolerance_runs_to_cap():
    rng = np.random.default_rng(4)
    cache, labels = _random_subproblem(rng, n=10, blocks=(2, 2))
    result = apg_solve(cache, labels, SQ, eps=0.0, max_inner=37)
    assert result.n_iters == 37


def test_apg_rejects_bad_arguments():
    rng = np.random.default_rng(6)
    cache, labels = _random_subproblem(rng)
    with pytest.raises(ValueError, match="eta"):
        apg_solve(cache, labels, SQ, eta=1.5)
    with pytest.raises(ValueError, match="L_init"):
        apg_solve(cache, labels, SQ, L_init=-1.0)
    bad_warm = BlockWeights.zeros(np.array([0, 3]))
    with pytest.raises(ValueError, match="warm start"):
        apg_solve(cache, labels, SQ, warm=bad_warm)


def test_apg_non_finite_data_raises_numerical_error():
    cache = ColumnCache(np.array([[np.nan, 1.0]]), np.array([0, 2]))
    labels = np.array([1.0])
    with pytest.raises(NumericalError):
        apg_solve(cache, labels, SQ)


def test_apg_rate_bound_single_instance():
    """Accelerated decrease: F(w_k) - F* <= 2 tau_max ||w0 - w*||^2 / (eta (k+1)^2)."""
    rng = np.random.default_rng(8)
    cache, labels = _random_subproblem(rng, n=30, blocks=(4, 4, 4))
    short = apg_solve(cache, labels, SQ, eps=0.0, max_inner=120)
    long = apg_solve(cache, labels, SQ, eps=1e-15, max_inner=1200)
    f_star = long.objectives[-1]
    dist_sq = float(np.sum((long.weights.flat - 0.0) ** 2))
    eta = 0.8
    for k in range(1, short.n_iters + 1):
        bound = 2.0 * short.max_tau * dist_sq / (eta * (k + 1) ** 2)
        assert short.objectives[k] - f_star <= bound + 1e-9
