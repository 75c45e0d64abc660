"""Exact worst-case selection: scoring, ties, pruning, and the virtual map."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fgm.dataset import GroupStructure, SparseDataset, TreeStructure, compute_scaling_prior
from fgm.worstcase import (_set_scores, poly_columns, poly_dim, poly_flat, poly_variant,
                           score_features, score_polynomial_streamed, score_tree_pruned,
                           select_top_b)

from oracles import best_subset_lex, poly_full_matrix, sort_top_b, tree_scores_exhaustive


def _dataset_with_omega(omega, y=None):
    """Identity design so that omega = alpha * y exactly equals ``omega``."""
    omega = np.asarray(omega, dtype=float)
    n = omega.size
    if y is None:
        y = np.where(omega >= 0, 1, -1)
    alpha = omega * y
    assert np.all(alpha >= 0)
    return SparseDataset(np.eye(n), y), np.asarray(alpha, dtype=float)


def _layouts(data):
    """``data`` itself (CSR kernels) and a per-fit view carrying X as an array.

    The array is set here whatever the density, so the BLAS kernels also run
    on the sparse identity designs of the tie tests.
    """
    view = data.fit_view()
    view.dense = data.X.toarray()
    return data, view


# ---------------------------------------------------------------------------
# plain feature scores


def test_score_features_hand_value():
    data, alpha = _dataset_with_omega([-2.0, 3.0])
    scores = score_features(alpha, data, np.ones(2))
    np.testing.assert_allclose(scores, [4.0, 9.0])


def test_score_features_lambda_scaling():
    data, alpha = _dataset_with_omega([-2.0, 3.0])
    scores = score_features(alpha, data, np.array([0.5, 2.0]))
    np.testing.assert_allclose(scores, [1.0, 36.0])


def test_score_features_validation():
    data, alpha = _dataset_with_omega([1.0, 1.0])
    with pytest.raises(ValueError, match="non-negative"):
        score_features(-alpha - 1.0, data, np.ones(2))
    with pytest.raises(ValueError, match="length"):
        score_features(alpha[:1], data, np.ones(2))
    with pytest.raises(ValueError, match="lambda length"):
        score_features(alpha, data, np.ones(3))


# ---------------------------------------------------------------------------
# top-B selection


def test_select_top_b_hand_ties():
    assert select_top_b(np.array([1.0, 3.0, 3.0, 2.0]), 2) == (1, 2)
    assert select_top_b(np.array([3.0, 3.0, 3.0]), 2) == (0, 1)
    assert select_top_b(np.zeros(3), 2) == (0, 1)
    assert select_top_b(np.array([5.0, 1.0]), 4) == (0, 1)


def test_select_top_b_budget_at_or_above_size_keeps_everything():
    scores = np.array([0.0, 2.0, 2.0, 1.0])
    for budget in (4, 5, 100):
        got = select_top_b(scores, budget)
        assert got == (0, 1, 2, 3) == sort_top_b(scores, budget)
        assert type(got) is tuple and all(type(i) is int for i in got)


@pytest.mark.parametrize("budget", [0, -1])
def test_select_top_b_rejects_budget_below_one(budget):
    with pytest.raises(ValueError, match="budget"):
        select_top_b(np.array([1.0, 2.0]), budget)


@pytest.mark.parametrize("budget", [1, 2, 3])
def test_select_top_b_rejects_nan_scores(budget):
    # a NaN must never yield a short or arbitrary selection
    with pytest.raises(ValueError, match="NaN"):
        select_top_b(np.array([1.0, np.nan, 0.5]), budget)


@settings(max_examples=120, deadline=None)
@given(
    scores=st.lists(st.integers(0, 6), min_size=1, max_size=9),
    budget=st.integers(1, 9),
)
def test_select_top_b_matches_subset_enumeration(scores, budget):
    scores = np.asarray(scores, dtype=float)
    got = select_top_b(scores, budget)
    assert got == best_subset_lex(scores, budget)
    assert got == sort_top_b(scores, budget)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), p=st.integers(1, 30), budget=st.integers(1, 30))
def test_select_top_b_random_continuous(seed, p, budget):
    scores = np.random.default_rng(seed).random(p)
    got = select_top_b(scores, budget)
    assert got == sort_top_b(scores, budget)
    assert len(got) == min(budget, p)


# ---------------------------------------------------------------------------
# groups


def test_score_groups_hand_value():
    data, alpha = _dataset_with_omega([-2.0, 3.0, 1.0])
    groups = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"])
    scores = _set_scores(alpha, data, groups.with_lambdas(np.ones(2)))
    np.testing.assert_allclose(scores, [13.0, 1.0])
    scaled = _set_scores(alpha, data, groups.with_lambdas(np.array([1.0, 3.0])))
    np.testing.assert_allclose(scaled, [13.0, 9.0])


def test_score_groups_out_of_range():
    data, alpha = _dataset_with_omega([1.0, 1.0])
    groups = GroupStructure([np.array([0, 5])], ["a"])
    with pytest.raises(ValueError, match="out of range"):
        score_tree_pruned(alpha, data, groups, 1)


def _random_groups(rng, p):
    """``p`` disjoint groups of 1-11 features; a few features stay uncovered."""
    sizes = rng.integers(1, 12, size=p)
    perm = rng.permutation(int(sizes.sum()) + int(rng.integers(0, 4)))
    return np.split(perm[:sizes.sum()], np.cumsum(sizes)[:-1]), perm.size


@pytest.mark.parametrize("seed", range(30))
def test_group_top_b_matches_oracles_with_ties(seed):
    # integer omega and three exact lambda values make equal scores common
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 21))
    sets, m = _random_groups(rng, p)
    omega = rng.integers(-3, 4, size=m).astype(float)
    data, alpha = _dataset_with_omega(omega)
    lam = rng.choice([0.5, 1.0, 2.0], size=p)
    groups = GroupStructure(sets, [f"g{j}" for j in range(p)], lam)
    expected = np.array([lam[j] ** 2 * (omega ** 2)[g].sum() for j, g in enumerate(sets)])
    for view, budget in itertools.product(_layouts(data), range(1, p + 1)):
        got = score_tree_pruned(alpha, view, groups, budget)
        assert got == sort_top_b(expected, budget)
        if p <= 15:
            assert got == best_subset_lex(expected, budget)


# ---------------------------------------------------------------------------
# tree search with pruning


def _random_laminar_tree(rng, max_nodes, m):
    """Random hierarchy over feature intervals inside [0, m)."""
    sets, parents = [], []
    stack = [(-1, 0, m)]
    while stack and len(sets) < max_nodes:
        parent, lo, hi = stack.pop()
        node = len(sets)
        sets.append(np.arange(lo, hi))
        parents.append(parent)
        width = hi - lo
        if width >= 2 and rng.random() < 0.75:
            n_child = int(rng.integers(1, min(4, width) + 1))
            cuts = np.sort(rng.choice(np.arange(lo + 1, hi), size=n_child - 1, replace=False)) \
                if n_child > 1 else np.array([], dtype=int)
            edges = np.concatenate([[lo], cuts, [hi]])
            for a, b in zip(edges[:-1], edges[1:]):
                if b > a and rng.random() < 0.9:
                    stack.append((node, int(a), int(b)))
    lambdas = rng.uniform(0.0, 2.0, size=len(sets))
    names = [f"n{i}" for i in range(len(sets))]
    return TreeStructure(sets, np.array(parents), names, lambdas)


def test_tree_pruned_equals_exhaustive_small_hand_case():
    sets = [np.arange(0, 6), np.arange(0, 3), np.arange(3, 6), np.arange(0, 1)]
    tree = TreeStructure(sets, np.array([-1, 0, 0, 1]), list("rabc"), [1.0, 0.5, 2.0, 3.0])
    data, alpha = _dataset_with_omega([1.0, -2.0, 0.5, 1.0, 1.0, -1.0])
    omega_sq = np.array([1.0, 4.0, 0.25, 1.0, 1.0, 1.0])
    expected = np.array([
        1.0 * omega_sq.sum(),
        0.25 * omega_sq[:3].sum(),
        4.0 * omega_sq[3:].sum(),
        9.0 * omega_sq[0],
    ])
    got = score_tree_pruned(alpha, data, tree, 2)
    assert got == sort_top_b(expected, 2)


def test_tree_low_lambda_parent_does_not_hide_strong_leaf():
    # parent scale ~0 but a child scale is huge: pruning must still descend
    sets = [np.arange(0, 4), np.arange(0, 2), np.arange(2, 4)]
    tree = TreeStructure(sets, np.array([-1, 0, 0]), ["r", "a", "b"], [1e-6, 50.0, 1e-6])
    data, alpha = _dataset_with_omega([1.0, 1.0, 5.0, 5.0])
    got = score_tree_pruned(alpha, data, tree, 1)
    assert got == (1,)
    assert type(got) is tuple and all(type(i) is int for i in got)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), budget=st.integers(1, 12))
def test_tree_pruned_equals_exhaustive_random(seed, budget):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(4, 40))
    tree = _random_laminar_tree(rng, max_nodes=60, m=m)
    omega = rng.standard_normal(m) * (rng.random(m) < 0.8)
    data, alpha = _dataset_with_omega(omega)
    omega_sq = omega ** 2
    expected = np.array([tree.lambdas[i] ** 2 * omega_sq[tree.sets[i]].sum()
                         for i in range(tree.n_nodes)])
    got = score_tree_pruned(alpha, data, tree, budget)
    assert got == sort_top_b(expected, budget)


def _three_node_tree():
    return TreeStructure([np.arange(3), np.array([0]), np.array([1, 2])],
                         np.array([-1, 0, 0]), ["r", "a", "b"])


def test_tree_pruned_rejects_nan_scores():
    X = np.eye(3)
    X[1, 1] = np.nan
    data = SparseDataset(X, np.array([1, -1, 1]))
    with pytest.raises(ValueError, match="NaN"):
        score_tree_pruned(np.ones(3), data, _three_node_tree(), 1)


def test_tree_pruned_rejects_budget_below_one():
    data, alpha = _dataset_with_omega([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="budget"):
        score_tree_pruned(alpha, data, _three_node_tree(), 0)


def test_tree_pruned_ties_on_duplicate_columns():
    # columns 2..7 repeat columns 0 and 1, so sibling pairs score the same,
    # and so do the leaves over equal columns
    rng = np.random.default_rng(5)
    data = SparseDataset(np.tile(rng.standard_normal((9, 2)), 4),
                         np.where(rng.random(9) < 0.5, 1, -1))
    sets = ([np.arange(8)] + [np.arange(i, i + 2) for i in range(0, 8, 2)]
            + [np.array([i]) for i in range(8)])
    parents = np.array([-1] + [0] * 4 + [1 + i // 2 for i in range(8)])
    tree = TreeStructure(sets, parents, [f"n{i}" for i in range(13)])
    alpha = rng.random(9)
    scores = tree_scores_exhaustive((data.X.T @ (alpha * data.y)) ** 2, tree)
    assert len(set(scores[1:5])) == 1 and len(set(scores[5:])) == 2
    for view, budget in itertools.product(_layouts(data), range(1, tree.n_nodes + 1)):
        assert score_tree_pruned(alpha, view, tree, budget) == sort_top_b(scores, budget)


def test_tree_rejects_feature_out_of_range():
    data, alpha = _dataset_with_omega([1.0, 2.0, 3.0])
    tree = TreeStructure([np.array([0, 1, 3]), np.array([3])], np.array([-1, 0]), ["r", "c"])
    with pytest.raises(ValueError, match="out of range"):
        score_tree_pruned(alpha, data, tree, 1)


@pytest.mark.parametrize("seed", range(10))
def test_tree_of_roots_selects_like_groups(seed):
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, 21))
    sets, m = _random_groups(rng, p)
    omega = rng.standard_normal(m)
    data, alpha = _dataset_with_omega(omega)
    lam = rng.uniform(0.0, 2.0, size=p)
    names = [f"n{j}" for j in range(p)]
    tree = TreeStructure(sets, np.full(p, -1), names, lam)
    groups = GroupStructure(sets, names, lam)
    scores = tree_scores_exhaustive(omega ** 2, tree)
    for budget in range(1, p + 1):
        expected = sort_top_b(scores, budget)
        assert score_tree_pruned(alpha, data, tree, budget) == expected
        assert score_tree_pruned(alpha, data, groups, budget) == expected


# ---------------------------------------------------------------------------
# degree-2 polynomial map


def test_poly_dim_values():
    assert poly_dim(1) == 3
    assert poly_dim(2) == 6
    assert poly_dim(3) == 10
    assert poly_dim(40) == 861


@pytest.mark.parametrize("m", [1, 2, 3, 7, 13])
def test_poly_codec_bijection(m):
    seen = set()
    for flat in range(poly_dim(m)):
        variant = poly_variant(flat, m)
        assert poly_flat(variant, m) == flat
        seen.add(variant)
    assert len(seen) == poly_dim(m)


def test_poly_codec_round_trip_at_row_boundaries():
    # the first and last pair of a row and their neighbours, at a width
    # where walking the rows one by one would take a second per id
    m = 10**6
    for a in (0, 1, 2, m // 2, m - 3, m - 2):
        for b in sorted({a + 1, a + 2, m - 2, m - 1} & set(range(a + 1, m))):
            flat = poly_flat(("cross", a, b), m)
            assert poly_variant(flat, m) == ("cross", a, b)
    first_cross = poly_flat(("cross", 0, 1), m)
    assert poly_variant(first_cross - 1, m) == ("square", m - 1)
    assert poly_variant(poly_dim(m) - 1, m) == ("cross", m - 2, m - 1)


def test_poly_layout_hand_values():
    # m=3: const, linears 1-3, squares 4-6, crosses (0,1)=7 (0,2)=8 (1,2)=9
    assert poly_variant(0, 3) == ("const",)
    assert poly_variant(2, 3) == ("linear", 1)
    assert poly_variant(5, 3) == ("square", 1)
    assert poly_variant(7, 3) == ("cross", 0, 1)
    assert poly_variant(9, 3) == ("cross", 1, 2)
    assert poly_flat(("cross", 1, 2), 3) == 9


def test_poly_codec_bounds():
    with pytest.raises(ValueError):
        poly_variant(10, 3)
    with pytest.raises(ValueError):
        poly_flat(("cross", 2, 2), 3)
    with pytest.raises(ValueError):
        poly_flat(("linear", 3), 3)


def test_poly_columns_kernel_identity():
    """phi(x)'phi(x') must equal (gamma x'x' + r)^2 for the degree-2 kernel."""
    rng = np.random.default_rng(21)
    for gamma, r in [(1.0, 1.0), (0.3, 2.0), (2.0, 0.0)]:
        X = rng.standard_normal((2, 5))
        data = SparseDataset(X, np.array([1, -1]))
        phi = poly_columns(data, np.arange(poly_dim(5)), gamma, r)
        got = float(phi[0] @ phi[1])
        want = (gamma * float(X[0] @ X[1]) + r) ** 2
        assert got == pytest.approx(want, rel=1e-12)


def test_poly_columns_match_loop_construction():
    rng = np.random.default_rng(22)
    X = rng.standard_normal((6, 4))
    data = SparseDataset(X, rng.choice([-1, 1], size=6))
    full = poly_full_matrix(X, 0.7, 1.3)
    got = poly_columns(data, np.arange(poly_dim(4)), 0.7, 1.3)
    np.testing.assert_allclose(got, full, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dropped", [0.0, -0.0])
def test_poly_columns_read_every_layout_alike(dropped):
    rng = np.random.default_rng(24)
    values = rng.standard_normal((7, 5))
    values[2, 3] = dropped
    y = rng.choice([-1, 1], size=7)
    every = SparseDataset(sp.csr_matrix((values.ravel(), np.tile(np.arange(5), 7),
                                         np.arange(8) * 5), shape=(7, 5)), y)
    view = every.fit_view()             # X's own view, the stored zero included
    dropped_cell = SparseDataset(values, y)
    assert every.X.nnz == 35 and view.dense is not None and dropped_cell.X.nnz == 34
    ids = np.arange(poly_dim(5))
    want = poly_columns(dropped_cell, ids, 0.7, 1.3)
    for data in (every, view):
        np.testing.assert_array_equal(poly_columns(data, ids, 0.7, 1.3), want)


@pytest.mark.parametrize("zeros", ["none", "signed-zeros"])
def test_fully_stored_data_reads_the_same_bytes_with_and_without_a_fit_view(zeros):
    rng = np.random.default_rng(25)
    values = rng.standard_normal((30, 12))
    if zeros == "signed-zeros":
        cells = rng.random(values.shape) < 0.1
        values[cells] = np.where(rng.random(int(cells.sum())) < 0.5, 0.0, -0.0)
        values[:, 7] = -0.0
    n, m = values.shape
    X = sp.csr_matrix((values.ravel(), np.tile(np.arange(m), n), np.arange(n + 1) * m),
                      shape=(n, m))
    data = SparseDataset(X, np.where(values[:, :3].sum(axis=1) >= 0, 1, -1))
    view = data.fit_view()
    assert data.X.nnz == n * m and data.dense is None and view.dense is not None
    alpha, lam = rng.random(n), rng.random(m)
    ids, flat = np.array([7, 0, 3, 3, 11, 7]), np.arange(poly_dim(m))
    for got, want in (
            (view.dense_columns(ids), data.dense_columns(ids)),
            (poly_columns(view, flat, 0.7, 1.3), poly_columns(data, flat, 0.7, 1.3)),
            (score_features(alpha, view, lam), score_features(alpha, data, lam)),
            (compute_scaling_prior(view, "inverse_norm"),
             compute_scaling_prior(data, "inverse_norm"))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    for block in (1, 5, 64):
        assert (score_polynomial_streamed(alpha, view, 0.7, 1.3, 9, block)
                == score_polynomial_streamed(alpha, data, 0.7, 1.3, 9, block))


@pytest.mark.parametrize("gamma,r,budget,block", [
    (1.0, 1.0, 3, 64),
    (0.5, 2.0, 7, 2),
    (2.0, 0.0, 5, 1),
    (1.0, 1.0, 12, 3),
])
def test_poly_streamed_equals_materialized(gamma, r, budget, block):
    rng = np.random.default_rng(int(budget * 100 + block))
    n, m = 20, 9
    X = rng.standard_normal((n, m))
    y = rng.choice([-1, 1], size=n)
    alpha = rng.random(n)
    z = alpha * y
    scores = (poly_full_matrix(X, gamma, r).T @ z) ** 2
    for view in _layouts(SparseDataset(X, y)):
        got = score_polynomial_streamed(alpha, view, gamma, r, budget, block)
        assert got == sort_top_b(scores, budget)
        assert type(got) is tuple and all(type(i) is int for i in got)


def test_poly_streamed_tie_on_duplicate_columns():
    # two identical raw features produce exactly tied virtual columns;
    # selection must prefer the smaller flat ids
    X = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0]])
    data = SparseDataset(X, np.array([1, 1, -1]))
    alpha = np.array([1.0, 0.5, 1.0])
    z = alpha * data.y
    scores = (poly_full_matrix(X, 1.0, 1.0).T @ z) ** 2
    for view in _layouts(data):
        assert score_polynomial_streamed(alpha, view, 1.0, 1.0, 2, 64) == sort_top_b(scores, 2)


def _poly_scores_exact(X, alpha, y, gamma, r):
    """Oracle scores ``(factor * sum_i z_i raw_i)^2``, one virtual feature at a time.

    The raw sums are exact for small integer data, so features whose raw
    sums and factors agree tie exactly, whatever their kind.
    """
    m = X.shape[1]
    z = alpha * y
    factor = {"const": r, "linear": np.sqrt(2.0 * gamma * r), "square": gamma,
              "cross": np.sqrt(2.0) * gamma}
    scores = []
    for flat in range(poly_dim(m)):
        kind, *idx = poly_variant(flat, m)
        raw = np.prod(X[:, idx * 2 if kind == "square" else idx], axis=1)
        scores.append(float(factor[kind] * float(raw @ z)) ** 2)
    return np.array(scores)


def _check_every_budget(X, alpha, y, gamma, r, blocks):
    data = SparseDataset(X, y)
    scores = _poly_scores_exact(X, alpha, y, gamma, r)
    for budget in range(1, scores.size + 1):
        want = sort_top_b(scores, budget)
        if scores.size <= 15:
            assert best_subset_lex(scores, budget) == want
        for view, block in itertools.product(_layouts(data), blocks):
            got = score_polynomial_streamed(alpha, view, gamma, r, budget, block)
            assert got == want, (budget, block, view.dense is None)
    return scores


def test_poly_streamed_ties_across_anchor_blocks():
    # raw feature 4 duplicates feature 0, so cross (0, b) ties cross (4, b)
    # and cross (0, a) ties cross (a, 4), in different anchor blocks for
    # block sizes 1, 2 and 3; small integer data keeps every sum exact
    rng = np.random.default_rng(31)
    m = 6
    X = rng.integers(-2, 3, size=(8, m)).astype(float)
    X[:, 4] = X[:, 0]
    y = np.array([1, -1, 1, 1, -1, 1, -1, -1])
    alpha = rng.integers(1, 8, size=8) / 4.0
    scores = _check_every_budget(X, alpha, y, 1.0, 1.0, blocks=(1, 2, 3, m))
    flat = lambda a, b: poly_flat(("cross", a, b), m)
    assert scores[flat(0, 5)] == scores[flat(4, 5)] > 0
    assert scores[flat(0, 1)] == scores[flat(1, 4)] > 0
    # some budget puts such a tie across the B-th place
    order = sorted(range(scores.size), key=lambda i: (-scores[i], i))
    tied_pairs = {(flat(0, 5), flat(4, 5)), (flat(0, 1), flat(1, 4)),
                  (flat(0, 2), flat(2, 4)), (flat(0, 3), flat(3, 4))}
    assert any((order[b - 1], order[b]) in tied_pairs for b in range(1, scores.size))


def test_poly_streamed_linear_and_square_tie_cross():
    # gamma = r = 1: linear a and cross (a, 3) share the factor sqrt(2), and
    # column 3 is all ones on the rows where features 0..2 live, so they tie;
    # square 0 ties cross (1, 2) at fl(sqrt(2))^2
    X = np.array([[1.0, 0.0, 0.0, 1.0],
                  [0.0, 1.0, 1.0, 1.0],
                  [0.0, 2.0, 0.0, 1.0]])
    y = np.array([1, 1, -1])
    alpha = np.array([np.sqrt(2.0), 1.0, 0.5])
    scores = _check_every_budget(X, alpha, y, 1.0, 1.0, blocks=(1, 2, 3, 4))
    m = 4
    assert scores[poly_flat(("linear", 0), m)] == scores[poly_flat(("cross", 0, 3), m)] > 0
    assert scores[poly_flat(("linear", 2), m)] == scores[poly_flat(("cross", 2, 3), m)] > 0
    assert scores[poly_flat(("square", 0), m)] == scores[poly_flat(("cross", 1, 2), m)] > 0


def test_poly_streamed_rejects_nan_data():
    X = np.array([[1.0, np.nan, 0.5], [2.0, 1.0, 1.0]])
    data = SparseDataset(X, np.array([1, -1]))
    for budget in (1, 3, 20):
        with pytest.raises(ValueError, match="NaN"):
            score_polynomial_streamed(np.ones(2), data, 1.0, 1.0, budget, 1)


def test_poly_argument_validation():
    data = SparseDataset(np.eye(2), np.array([1, -1]))
    with pytest.raises(ValueError, match="gamma"):
        score_polynomial_streamed(np.ones(2), data, 0.0, 1.0, 2)
    with pytest.raises(ValueError, match="block"):
        score_polynomial_streamed(np.ones(2), data, 1.0, 1.0, 2, block=0)
    with pytest.raises(ValueError, match="budget"):
        score_polynomial_streamed(np.ones(2), data, 1.0, 1.0, 0)
    with pytest.raises(ValueError, match="gamma"):
        poly_columns(data, np.array([0]), -1.0, 1.0)


@pytest.mark.parametrize("gamma,r", [(np.nan, 1.0), (1.0, np.nan), (np.nan, np.nan)])
def test_poly_kernels_reject_nan_parameters(gamma, r):
    # NaN passes "gamma <= 0 or r < 0" but fails "gamma > 0 and r >= 0"
    data = SparseDataset(np.eye(3), np.array([1, -1, 1]))
    with pytest.raises(ValueError, match=r"^need gamma > 0 and r >= 0$"):
        poly_columns(data, np.arange(poly_dim(3)), gamma, r)
    with pytest.raises(ValueError, match=r"^need gamma > 0 and r >= 0$"):
        score_polynomial_streamed(np.ones(3), data, gamma, r, 2)
