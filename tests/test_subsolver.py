"""Squared-sum-of-norms prox and the accelerated subproblem solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fgm.baseline import l1_prox_train, l2_full_train
from fgm.blocks import ColumnCache
from fgm.dataset import SparseDataset
from fgm.loss import LOGISTIC, SQUARED_HINGE, LossKind, eval_loss
from fgm.subsolver import (ApgResult, NumericalError, apg_solve, moreau_projection,
                           regularizer, _moreau_coefficients)

from oracles import moreau_bcd, moreau_coefficients_array, prox_objective, soc_projected_gradient

SQ = LossKind(SQUARED_HINGE, 10.0)
LG = LossKind(LOGISTIC, 10.0)


def _layout(blocks):
    """The concatenated ``blocks`` and a cache without rows that carries their layout."""
    offsets = np.concatenate([[0], np.cumsum([len(b) for b in blocks])])
    flat = np.concatenate([np.asarray(b, dtype=float) for b in blocks])
    return flat, ColumnCache(np.zeros((0, int(offsets[-1]))), offsets)


def _split(w, cache):
    return np.split(w, cache.offsets[1:-1])


# ---------------------------------------------------------------------------
# prox: hand values


def test_prox_single_block_hand_value():
    g, cache = _layout([[3.0, 4.0]])
    w = moreau_projection(g, cache, 1.0)[0]
    np.testing.assert_allclose(w, [1.5, 2.0], rtol=1e-15)


def test_prox_two_symmetric_unit_blocks():
    g, cache = _layout([[1.0, 0.0], [0.0, 1.0]])
    w0, w1 = _split(moreau_projection(g, cache, 1.0)[0], cache)
    np.testing.assert_allclose(w0, [1.0 / 3.0, 0.0], rtol=1e-14)
    np.testing.assert_allclose(w1, [0.0, 1.0 / 3.0], rtol=1e-14)


def test_prox_drops_dominated_block():
    # a tiny block next to a huge one is zeroed by the common threshold
    g, cache = _layout([[100.0], [1e-4]])
    w0, w1 = _split(moreau_projection(g, cache, 1.0)[0], cache)
    assert np.linalg.norm(w1) == 0.0
    assert np.linalg.norm(w0) > 0.0


def test_prox_zero_input_stays_zero():
    g, cache = _layout([[0.0, 0.0], [0.0]])
    w = moreau_projection(g, cache, 2.5)[0]
    np.testing.assert_array_equal(w, np.zeros(3))


def test_prox_scale_validation():
    with pytest.raises(ValueError, match="positive"):
        moreau_projection(*_layout([[1.0]]), 0.0)


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
        g, cache = _layout(blocks)
        w = moreau_projection(g, cache, s)[0]
        ref = moreau_bcd(blocks, s)
        got = prox_objective(_split(w, cache), blocks, s)
        want = prox_objective(ref, blocks, s)
        assert got <= want + 1e-9
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), s=st.floats(1e-3, 1e3))
def test_prox_structure_properties(seed, s):
    rng = np.random.default_rng(seed)
    blocks, _ = _random_prox_instance(rng)
    g, cache = _layout(blocks)
    w, penalty = moreau_projection(g, cache, s)
    assert penalty == pytest.approx(regularizer(w, cache), rel=1e-12, abs=1e-300)
    u = cache.block_norms(g)
    _, threshold = _moreau_coefficients(u, s)
    # every surviving block norm is the input norm minus a common threshold
    np.testing.assert_allclose(cache.block_norms(w), np.maximum(u - threshold, 0.0),
                               rtol=1e-10, atol=1e-12)
    # blocks stay parallel to the input: w_t' g_t == ||w_t|| ||g_t||
    for wt, gt in zip(_split(w, cache), _split(g, cache)):
        lhs = float(wt @ gt)
        rhs = float(np.linalg.norm(wt) * np.linalg.norm(gt))
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)
    # objective at the prox point beats the input and the origin
    val = prox_objective(_split(w, cache), blocks, s)
    assert val <= prox_objective(blocks, blocks, s) + 1e-12
    assert val <= prox_objective([np.zeros_like(b) for b in blocks], blocks, s) + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_prox_beats_random_perturbations(seed):
    rng = np.random.default_rng(seed)
    blocks, s = _random_prox_instance(rng)
    g, cache = _layout(blocks)
    w = moreau_projection(g, cache, s)[0]
    val = prox_objective(_split(w, cache), blocks, s)
    for _ in range(10):
        delta = rng.standard_normal(w.size) * 10.0 ** rng.uniform(-6, 0)
        assert val <= prox_objective(_split(w + delta, cache), blocks, s) + 1e-12


def _norm_vectors(rng):
    """Block-norm vectors with ties, zeros, one block, every block shrunk, and wide ranges."""
    yield np.array([0.0])
    yield np.array([2.5])
    yield np.zeros(5)
    yield np.full(6, 3.0)
    for _ in range(400):
        u = np.abs(rng.standard_normal(int(rng.integers(1, 40)))) * 10.0 ** rng.uniform(-8, 8)
        if rng.random() < 0.3:
            u = np.round(u / u.max(), 1) * u.max()                  # ties
        if rng.random() < 0.3:
            u[rng.random(u.size) < 0.4] = 0.0
        if rng.random() < 0.2:
            u *= 10.0 ** rng.uniform(-250, 250)
        yield u


def test_prox_coefficients_bitwise_equal_to_the_array_formula():
    rng = np.random.default_rng(2024)
    seen = {"every block shrunk": 0, "all kept": 0, "some shrunk": 0}
    for u in _norm_vectors(rng):
        for s in 10.0 ** np.linspace(-8, 8, 9):
            c, threshold = _moreau_coefficients(u, float(s))
            c_ref, threshold_ref = moreau_coefficients_array(u, float(s))
            assert c.tobytes() == c_ref.tobytes() and c.dtype == c_ref.dtype
            assert np.float64(threshold).tobytes() == np.float64(threshold_ref).tobytes()
            kept = int(np.count_nonzero(c))
            seen["every block shrunk" if kept == 0 else
                 "all kept" if kept == u.size else "some shrunk"] += 1
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# the cache owns the block layout


def test_column_cache_rejects_a_bad_layout():
    with pytest.raises(ValueError, match="starting at 0"):
        ColumnCache(np.zeros((2, 3)), np.array([1, 3]))
    for offsets in ([0, 2, 2, 3], [0, 3, 2, 3]):
        with pytest.raises(ValueError, match="non-empty"):
            ColumnCache(np.zeros((2, 3)), np.array(offsets))
    with pytest.raises(ValueError, match="width"):
        ColumnCache(np.zeros((2, 4)), np.array([0, 1, 3]))


def test_block_norms_hand_values():
    cache = ColumnCache(np.zeros((0, 3)), np.array([0, 2, 3]))
    np.testing.assert_array_equal(cache.block_norms(np.array([3.0, 4.0, -2.0])), [5.0, 2.0])


def _keyed(rng, rounds, n=9, m=6):
    """A cache extended by ``rounds`` of (features, scales), and its position-wise matrix."""
    raw = rng.standard_normal((n, m))
    cache = ColumnCache.empty(n)
    for feats, scales in rounds:
        feats, scales = np.asarray(feats), np.asarray(scales, dtype=float)
        cache = cache.extend(raw[:, feats] * scales, feats, scales)
    explicit = np.column_stack([raw[:, f] * s for feats, scales in rounds
                                for f, s in zip(feats, scales)])
    return cache, explicit


REPEATS = [([0, 1, 0], [1.0, 1.0, 1.0]), ([1, 2], [1.0, 1.0]), ([2, 2, 3], [0.5, 1.0, 0.5])]


def test_column_cache_stores_a_repeated_key_once():
    cache, explicit = _keyed(np.random.default_rng(0), REPEATS)
    # keys (0,1) (1,1) (2,1) (2,.5) (3,.5): a position maps to its key's first column
    assert cache.matrix.shape[1] == 5 and cache.offsets.tolist() == [0, 3, 5, 8]
    assert cache.index.tolist() == [0, 1, 0, 1, 2, 3, 2, 4]
    np.testing.assert_array_equal(cache.matrix[:, cache.index], explicit)
    assert cache.matrix.flags.c_contiguous
    # a key is the scale's bits: -0.0 and 0.0 scale a column to different bits
    signed, _ = _keyed(np.random.default_rng(0), [([4, 4, 4], [0.0, -0.0, 0.0])])
    assert signed.matrix.shape[1] == 2 and signed.index.tolist() == [0, 1, 0]


def test_column_cache_products_match_the_position_wise_matrix():
    rng = np.random.default_rng(1)
    cache, explicit = _keyed(rng, REPEATS)
    for _ in range(5):
        w, z = rng.standard_normal(explicit.shape[1]), rng.standard_normal(explicit.shape[0])
        np.testing.assert_allclose(cache @ w, explicit @ w, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cache.T @ z, explicit.T @ z, rtol=1e-12, atol=0)


def test_column_cache_without_repeats_uses_its_matrix_products():
    rng = np.random.default_rng(2)
    cache, explicit = _keyed(rng, [([0, 1], [1.0, 2.0]), ([1, 2], [1.0, 1.0])])
    assert cache.index.tolist() == list(range(4)) and cache.matrix.tobytes() == explicit.tobytes()
    z = rng.standard_normal(9)
    # bincount sums into +0.0, so -0.0 weights and an all-zero w are where its bits could differ
    for w in (rng.standard_normal(4), np.array([-0.0, 1.5, -0.0, -2.0]),
              np.full(4, -0.0), np.zeros(4)):
        assert (cache @ w).tobytes() == (cache.matrix @ w).tobytes()
    assert (cache.T @ z).tobytes() == (cache.matrix.T @ z).tobytes()


def test_column_cache_extend_leaves_the_earlier_cache_as_it_was():
    rng = np.random.default_rng(3)
    raw = rng.standard_normal((9, 6))

    def extend(cache, feats):
        feats = np.asarray(feats)
        return cache.extend(raw[:, feats], feats, np.ones(feats.size))

    for start in ([0, 1], [0, 0]):      # without and with a repeat
        first = extend(ColumnCache.empty(9), start)
        w, z = rng.standard_normal(2), rng.standard_normal(9)
        scores, grads = first @ w, first.T @ z
        extend(first, [1, 3])           # a branch that the next extends must not see
        later = extend(extend(first, [4]), [3])
        assert (first @ w).tobytes() == scores.tobytes()
        assert (first.T @ z).tobytes() == grads.tobytes()
        assert first.offsets.tolist() == [0, 2] and first.matrix.shape[1] == len(set(start))
        v = rng.standard_normal(4)
        np.testing.assert_allclose(later @ v, raw[:, start + [4, 3]] @ v, rtol=1e-12)


def test_column_cache_rejects_a_bad_index_or_key_count():
    with pytest.raises(ValueError, match="index must map"):
        ColumnCache(np.zeros((2, 2)), np.array([0, 3]), index=np.array([0, 1]))
    with pytest.raises(ValueError, match="outside matrix"):
        ColumnCache(np.zeros((2, 2)), np.array([0, 3]), index=np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="one feature and one scale"):
        ColumnCache.empty(2).extend(np.zeros((2, 2)), np.array([0]), np.ones(2))


@pytest.mark.parametrize("kind", [SQ, LG])
def test_apg_on_repeated_columns_matches_the_position_wise_cache(kind):
    rng = np.random.default_rng(4)
    cache, explicit = _keyed(rng, REPEATS, n=30)
    labels = rng.choice([-1.0, 1.0], size=30)
    got = apg_solve(cache, labels, kind, eps=1e-8)
    want = apg_solve(ColumnCache(explicit, cache.offsets), labels, kind, eps=1e-8)
    assert got.n_iters == want.n_iters
    np.testing.assert_allclose(got.objectives, want.objectives, rtol=1e-12)
    np.testing.assert_allclose(got.weights, want.weights, rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose(got.scores, explicit @ got.weights, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# accelerated solver


def _random_subproblem(rng, n=24, blocks=(3, 4, 2), scale=1.0):
    offsets = np.concatenate([[0], np.cumsum(blocks)])
    cache = ColumnCache(scale * rng.standard_normal((n, int(offsets[-1]))), offsets)
    labels = rng.choice([-1.0, 1.0], size=n)
    return cache, labels


def _objective(cache, labels, kind, w):
    return eval_loss(w, cache, labels, kind)[0] + regularizer(w, cache)


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


@pytest.mark.parametrize("kind", [SQ, LG], ids=["squared_hinge", "logistic"])
def test_apg_tiny_initial_step_grows_to_the_default_start_optimum(kind):
    # the first line search must raise the inverse step by about eleven
    # orders of magnitude; each rejected trial divides the step by 0.8
    rng = np.random.default_rng(13)
    cache, labels = _random_subproblem(rng)
    tiny = apg_solve(cache, labels, kind, L_init=1e-9, eps=1e-12, max_inner=3000)
    default = apg_solve(cache, labels, kind, eps=1e-12, max_inner=3000)
    assert np.all(np.diff(tiny.objectives) <= 1e-10)
    assert tiny.objectives[-1] == pytest.approx(default.objectives[-1], rel=1e-9)


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
    assert result.scores.tobytes() == (cache.matrix @ result.weights).tobytes()
    # final objective consistent with direct evaluation of the weights
    assert result.objectives[-1] == pytest.approx(
        _objective(cache, labels, SQ, result.weights), rel=1e-9, abs=1e-9)
    # the dense baselines return the same record from the same loop
    data = SparseDataset(rng.standard_normal((30, 12)), rng.choice([-1, 1], size=30))
    design = data.design
    for dense in (l1_prox_train(data, SQ, 0.5), l2_full_train(data, SQ)):
        assert isinstance(dense, ApgResult)
        assert dense.scores.tobytes() == (design @ dense.weights).tobytes()


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
    with pytest.raises(ValueError, match="L_init"):
        apg_solve(cache, labels, SQ, L_init=-1.0)
    with pytest.raises(ValueError, match="warm start"):
        apg_solve(cache, labels, SQ, warm=np.zeros(3))   # the cache holds 9 columns


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
    dist_sq = float(np.sum((long.weights - 0.0) ** 2))
    eta = 0.8
    for k in range(1, short.n_iters + 1):
        bound = 2.0 * short.max_tau * dist_sq / (eta * (k + 1) ** 2)
        assert short.objectives[k] - f_star <= bound + 1e-9
