"""Data containers, file formats, scaling priors, and the synthetic generator."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fgm.dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset, TreeStructure,
                         _truth_from_rng, compute_scaling_prior, generate_synthetic,
                         generate_test_set, group_scaling_prior, load_ground_truth, load_groups,
                         load_libsvm, load_tree, write_ground_truth, write_libsvm)


# ---------------------------------------------------------------------------
# containers


def test_dataset_basic_properties():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    data = SparseDataset(X, np.array([1, -1]))
    assert data.n == 2 and data.m == 3
    np.testing.assert_allclose(data.column_norms(), [1.0, 3.0, 2.0])
    cols = data.dense_columns(np.array([2, 0]))
    np.testing.assert_allclose(cols, [[2.0, 1.0], [0.0, 0.0]])


def test_dataset_rejects_bad_labels():
    X = np.eye(2)
    with pytest.raises(ValueError, match="-1/\\+1"):
        SparseDataset(X, np.array([1, 2]))
    with pytest.raises(ValueError, match="one entry per row"):
        SparseDataset(X, np.array([1, -1, 1]))


def test_dataset_canonicalizes_a_copy_and_shares_a_canonical_csr():
    # row 0 holds column 2 before column 0, and column 0 twice in row 1
    X = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0]), np.array([2, 0, 0, 0]),
                       np.array([0, 2, 4])), shape=(2, 3))
    before = [a.copy() for a in (X.data, X.indices, X.indptr)]
    data = SparseDataset(X, np.array([1, -1]))
    for a, b in zip(before, (X.data, X.indices, X.indptr)):
        np.testing.assert_array_equal(a, b)
    assert data.X.has_canonical_format
    np.testing.assert_array_equal(data.X.toarray(), [[2.0, 0.0, 1.0], [7.0, 0.0, 0.0]])

    canonical = sp.random(6, 5, density=0.5, format="csr", random_state=0)
    data = SparseDataset(canonical, np.ones(6, dtype=int))
    assert np.shares_memory(data.X.data, canonical.data)
    assert np.shares_memory(data.X.indices, canonical.indices)


def _assert_same_csr(got, want):
    """Bit-for-bit equal CSR arrays, dtypes, shape and canonical flag."""
    assert got.shape == want.shape
    for a, b in ((got.data, want.data), (got.indices, want.indices), (got.indptr, want.indptr)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert got.has_canonical_format and want.has_canonical_format


def _arrays_to_convert():
    rng = np.random.default_rng(5)
    sparse_ish = rng.standard_normal((7, 9))
    sparse_ish[rng.random(sparse_ish.shape) < 0.4] = 0.0
    empty_lines = rng.standard_normal((5, 6))
    empty_lines[2] = 0.0
    empty_lines[:, 4] = 0.0
    return {
        "random": sparse_ish,
        "fortran_order": np.asfortranarray(sparse_ish),
        "strided": sparse_ish[::2, ::3],
        "zero_rows_and_columns": empty_lines,
        "all_zero": np.zeros((3, 4)),
        "signed_zero_nan_inf": np.array([[-0.0, np.nan, 1.0], [np.inf, 0.0, -np.inf]]),
        "no_rows": np.zeros((0, 3)),
        "no_columns": np.zeros((2, 0)),
        "scalar": np.float64(2.5),
        "zero_scalar": np.array(0.0),
        "vector": np.array([0.0, 1.5, 0.0, -2.0]),
        "int": np.array([[0, 3, 0], [-2, 0, 7]]),
        "bool": np.array([[True, False], [False, True]]),
    }


@pytest.mark.parametrize("name", list(_arrays_to_convert()))
def test_array_converts_to_scipy_csr_bit_for_bit(name):
    X = _arrays_to_convert()[name]
    want = sp.csr_matrix(np.asarray(X, dtype=float))
    data = SparseDataset(X, np.ones(want.shape[0], dtype=int))
    _assert_same_csr(data.X, want)


def test_array_conversion_leaves_the_array_unchanged_and_unshared():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 5))
    X[X < -0.5] = 0.0
    before = X.copy()
    data = SparseDataset(X, np.ones(6, dtype=int))
    assert X.tobytes() == before.tobytes()
    for a in (data.X.data, data.X.indices, data.X.indptr):
        assert not np.shares_memory(a, X)


def test_array_of_three_dimensions_rejected():
    with pytest.raises(ValueError):
        SparseDataset(np.zeros((2, 2, 2)), np.ones(2, dtype=int))


def test_array_conversion_memory_peak_below_twice_the_array():
    # scipy's dense -> COO -> CSR route peaks at 4x the array's bytes
    X = np.random.default_rng(0).standard_normal((256, 1024))
    y = np.ones(256, dtype=int)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        SparseDataset(X, y)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2 * X.nbytes


def test_dense_columns_out_of_range():
    data = SparseDataset(np.eye(3), np.array([1, 1, -1]))
    with pytest.raises(ValueError, match="out of range"):
        data.dense_columns(np.array([3]))


def test_fit_view_is_built_exactly_at_the_memory_break_even():
    # 3 x 4 doubles take 96 bytes; the CSR keeps 12 bytes per stored value
    # with 32-bit indices, so 8 stored values break even and 7 do not
    for nnz, built in ((8, True), (7, False)):
        X = np.zeros(12)
        X[:nnz] = np.arange(1.0, nnz + 1)
        X = X.reshape(3, 4)
        data = SparseDataset(X, np.array([1, -1, 1]))
        assert data.X.indices.dtype == np.int32 and data.X.nnz == nnz
        view = data.fit_view()
        assert (view.dense is not None) == built
        assert data.dense is None and view.X is data.X and view.y is data.y
        if built:
            assert view.dense.flags.c_contiguous
            np.testing.assert_array_equal(view.dense, X)


def test_dense_columns_bit_identical_on_both_layouts():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 9))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[2, 3] = 5e-324                                    # subnormal
    data = SparseDataset(X, np.where(rng.random(7) < 0.5, 1, -1))
    view = data.fit_view()
    assert view.dense is not None
    for ids in (np.array([8, 0, 3, 3, 5]), np.arange(9), np.array([], dtype=np.intp)):
        want, got = data.dense_columns(ids), view.dense_columns(ids)
        assert want.shape == got.shape == (7, ids.size)
        assert got.flags.c_contiguous and want.tobytes() == got.tobytes()
    with pytest.raises(ValueError, match="out of range"):
        view.dense_columns(np.array([9]))


def test_ground_truth_support():
    t = GroundTruth(np.array([0.0, 0.5, 0.0, -2.0]))
    assert t.m == 4
    np.testing.assert_array_equal(t.support, [1, 3])


# ---------------------------------------------------------------------------
# sparse text format


def test_libsvm_one_based_to_zero_based(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 1:2.0 3:1.5\n-1 2:-4.0\n")
    data = load_libsvm(f)
    assert (data.n, data.m) == (2, 3)
    assert data.X[0, 0] == 2.0 and data.X[0, 2] == 1.5 and data.X[1, 1] == -4.0
    np.testing.assert_array_equal(data.y, [1, -1])


def test_libsvm_comments_blanks_and_dim(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("# header\n\n+1 1:1.0  # trailing\n-1 1:2.0\n")
    data = load_libsvm(f, dim=5)
    assert data.m == 5 and data.n == 2


def test_libsvm_zero_one_labels_remapped_with_warning(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("1 1:1.0\n0 1:2.0\n")
    with pytest.warns(UserWarning, match="remapping"):
        data = load_libsvm(f)
    np.testing.assert_array_equal(data.y, [1, -1])


def test_libsvm_mixed_label_conventions_rejected(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("-1 1:1.0\n0 1:2.0\n")
    with pytest.raises(FormatError, match="mix"):
        load_libsvm(f)


@pytest.mark.parametrize("line,fragment", [
    ("+1 2:1.0 2:2.0", "strictly increasing"),
    ("+1 3:1.0 2:2.0", "strictly increasing"),
    ("+1 0:1.0", ">= 1"),
    ("+1 a:1.0", "invalid pair"),
    ("+1 1:xyz", "invalid pair"),
    ("+2 1:1.0", "label"),
    ("hello 1:1.0", "invalid label"),
])
def test_libsvm_malformed_lines(tmp_path, line, fragment):
    f = tmp_path / "d.txt"
    f.write_text(line + "\n")
    with pytest.raises(FormatError, match=fragment) as exc:
        load_libsvm(f)
    assert f"{f}:1:" in str(exc.value)


def test_libsvm_index_beyond_dim(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 7:1.0\n")
    with pytest.raises(FormatError, match="exceeds dim"):
        load_libsvm(f, dim=5)


def test_libsvm_empty_file(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("# nothing\n")
    with pytest.raises(FormatError, match="no instances"):
        load_libsvm(f)


def test_write_libsvm_exact_bytes(tmp_path):
    X = np.array([[1.5, 0.0, -2.25e-300, 0.1],
                  [0.0, 0.0, 0.0, 0.0],
                  [-1e300, 5e-324, 0.0, -3.0],
                  [0.0, 1.7976931348623157e308, 1.2345678901234568e17, 0.0]])
    f = tmp_path / "d.txt"
    write_libsvm(SparseDataset(X, np.array([1, -1, 1, -1])), f)
    assert f.read_bytes() == (
        b"+1 1:1.5 3:-2.25e-300 4:0.10000000000000001\n"
        b"-1\n"
        b"+1 1:-1.0000000000000001e+300 2:4.9406564584124654e-324 4:-3\n"
        b"-1 2:1.7976931348623157e+308 3:1.2345678901234568e+17\n")


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 8),
    seed=st.integers(0, 10_000),
    density=st.floats(0.1, 1.0),
)
def test_libsvm_round_trip(tmp_path_factory, n, m, seed, density):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, m)) < density
    vals = np.where(mask, rng.standard_normal((n, m)) * 10.0 ** rng.integers(-8, 8), 0.0)
    y = rng.choice([-1, 1], size=n)
    original = SparseDataset(sp.csr_matrix(vals), y)
    path = tmp_path_factory.mktemp("rt") / "d.txt"
    write_libsvm(original, path)
    loaded = load_libsvm(path, dim=m)
    assert (loaded.X != original.X).nnz == 0
    np.testing.assert_array_equal(loaded.y, original.y)


# ---------------------------------------------------------------------------
# groups and trees


def test_load_groups_with_lambda(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("a: 0 1 2\nb: 3 4 | lambda=0.5\n# comment\n")
    g = load_groups(f)
    assert g.n_groups == 2
    np.testing.assert_array_equal(g.groups[0], [0, 1, 2])
    np.testing.assert_allclose(g.lambdas, [1.0, 0.5])


def test_load_groups_without_lambda_has_none(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("a: 0 1\nb: 2\n")
    assert load_groups(f).lambdas is None


@pytest.mark.parametrize("content,fragment", [
    ("a: 0 1\na: 2\n", "duplicate group name"),
    ("a: 0 1\nb: 1 2\n", "overlaps"),
    ("a:\n", "empty feature list"),
    ("a: -1\n", "negative"),
    ("a 0 1\n", "expected"),
    ("a: 0 | lam=2\n", "lambda="),
    ("a: 0 | lambda=-1\n", "non-negative"),
    ("", "no groups"),
])
def test_load_groups_errors(tmp_path, content, fragment):
    f = tmp_path / "g.txt"
    f.write_text(content)
    with pytest.raises(FormatError, match=fragment):
        load_groups(f)


def test_load_tree_structure(tmp_path):
    f = tmp_path / "t.txt"
    f.write_text(
        "root ROOT: 0 1 2 3 4\n"
        "left root: 0 1 | lambda=2.0\n"
        "right root: 2 3\n"
        "leaf left: 1 | lambda=5.0\n"
    )
    t = load_tree(f)
    assert t.n_nodes == 4
    assert t.roots == [0]
    assert t.children[0] == [1, 2] and t.children[1] == [3]
    np.testing.assert_allclose(t.lambdas, [1.0, 2.0, 1.0, 5.0])
    assert t.lambdas_given


@pytest.mark.parametrize("content,fragment", [
    ("a ROOT: 0 1\nb nowhere: 0\n", "unknown parent"),
    ("a ROOT: 0 1\nb a: 2\n", "not contained"),
    ("a ROOT: 0 1 2\nb a: 0 1\nc a: 1 2\n", "overlaps a sibling"),
    ("a ROOT: 0 1 1\n", "repeats a feature"),
    ("a ROOT: 0\na ROOT: 1\n", "duplicate node"),
    ("a: 0 1\n", "expected 'name parent'"),
    ("", "no nodes"),
])
def test_load_tree_errors(tmp_path, content, fragment):
    f = tmp_path / "t.txt"
    f.write_text(content)
    with pytest.raises(FormatError, match=fragment):
        load_tree(f)


@pytest.mark.parametrize("sets,parents,message", [
    # a node that repeats a feature would score it twice and cache its column twice
    ([[0, 0, 1], [2]], [-1, -1], "node 'a' repeats a feature"),
    ([[0, 1, 2], [0, 1], [2, 2]], [-1, 0, 0], "node 'c' repeats a feature"),
    ([[0, 1], [0]], [-1, 1], "node 'b' has an invalid parent"),
    ([[0, 1], [0]], [-1, 2], "node 'b' has an invalid parent"),
    ([[0, 1], [0]], [-2, 0], "node 'a' has an invalid parent"),
    ([[0, 1], []], [-1, 0], "node 'b' is empty"),
    ([[0, 1], [-1]], [-1, 0], "node 'b' has a negative feature index"),
    ([[0, 1], [0]], [1, 0], "tree has no root node"),
    ([[0, 1], [1, 2]], [-1, -1], "node 'b' overlaps a sibling"),
    ([[0, 1, 2], [0], [0, 1]], [-1, 0, 0], "node 'c' overlaps a sibling"),
    ([[0, 1, 2], [0], [3]], [-1, 0, 0], "node 'c' is not contained in its parent 'a'"),
    ([[5], [0, 1], [0, 1]], [-1, 2, 1], "parent links contain a cycle"),
])
def test_tree_structure_validation(sets, parents, message):
    with pytest.raises(ValueError, match=message):
        TreeStructure(sets, parents, list("abcd")[:len(sets)])


def test_tree_accepts_feature_ids_beyond_the_pair_key_range():
    # with ids near 2^62, (parent + 1) * (max id + 1) + id wraps around in
    # int64 and makes the children of roots 0 and 4 look like siblings
    sets = [[4, 2 ** 62], [100], [101], [102], [0], [4], [0]]
    tree = TreeStructure(sets, [-1, -1, -1, -1, -1, 0, 4], list("abcdefg"))
    assert tree.children[0] == [5] and tree.children[4] == [6]
    with pytest.raises(ValueError, match="node 'g' is not contained in its parent 'e'"):
        TreeStructure(sets[:6] + [[2 ** 62 - 1]], [-1, -1, -1, -1, -1, 0, 4], list("abcdefg"))


def test_tree_with_lambdas_copy():
    t = TreeStructure([np.array([0, 1]), np.array([0])], np.array([-1, 0]), ["r", "c"])
    assert not t.lambdas_given
    t2 = t.with_lambdas([3.0, 7.0])
    assert t2.lambdas_given
    np.testing.assert_allclose(t.lambdas, [1.0, 1.0])  # original untouched


@pytest.mark.parametrize("lambdas", [[1.0, -0.5], [1.0], [1.0, 2.0, 3.0]])
def test_tree_with_lambdas_rejects_bad_scales(lambdas):
    t = TreeStructure([np.array([0, 1]), np.array([0])], np.array([-1, 0]), ["r", "c"])
    with pytest.raises(ValueError, match="per-node lambdas"):
        t.with_lambdas(lambdas)


def test_group_structure_validation():
    with pytest.raises(ValueError, match="overlaps"):
        GroupStructure([np.array([0, 1]), np.array([1, 2])], ["a", "b"])
    with pytest.raises(ValueError, match="empty"):
        GroupStructure([np.array([], dtype=int)], ["a"])


def test_group_structure_rejects_unequal_lengths_and_no_groups():
    # a short name list must not hide the overlap of the second group
    with pytest.raises(ValueError, match="equal length"):
        GroupStructure([np.array([0, 1]), np.array([1, 2])], ["a"], [1.0, 3.0])
    with pytest.raises(ValueError, match="equal length"):
        GroupStructure([np.array([0])], ["a", "b"])
    with pytest.raises(ValueError, match="at least one group"):
        GroupStructure([], [])


# ---------------------------------------------------------------------------
# ground truth files


def test_ground_truth_round_trip(tmp_path):
    truth = GroundTruth(np.array([0.0, 0.25, 0.0, 0.75, 1e-17]))
    path = tmp_path / "truth.txt"
    write_ground_truth(truth, path)
    back = load_ground_truth(path, 5)
    np.testing.assert_array_equal(back.weights, truth.weights)


def test_ground_truth_out_of_range(tmp_path):
    f = tmp_path / "truth.txt"
    f.write_text("9 0.5\n")
    with pytest.raises(FormatError, match="outside"):
        load_ground_truth(f, 5)


# ---------------------------------------------------------------------------
# scaling priors


def test_scaling_prior_ones_and_inverse_norm():
    X = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
    data = SparseDataset(X, np.array([1, -1]))
    np.testing.assert_allclose(compute_scaling_prior(data, "ones"), np.ones(3))
    inv = compute_scaling_prior(data, "inverse_norm")
    np.testing.assert_allclose(inv, [0.2, 0.0, 1.0])
    with pytest.raises(ValueError, match="unknown scaling"):
        compute_scaling_prior(data, "nope")


def test_group_scaling_prior_frobenius_and_precedence():
    X = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
    data = SparseDataset(X, np.array([1, -1]))
    g = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"])
    inv = group_scaling_prior(data, g, "inverse_norm")
    np.testing.assert_allclose(inv, [0.2, 1.0])
    g_fixed = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"], [7.0, 8.0])
    np.testing.assert_allclose(group_scaling_prior(data, g_fixed, "inverse_norm"), [7.0, 8.0])


# ---------------------------------------------------------------------------
# synthetic generator


def test_synthetic_shapes_support_and_labels():
    data, truth = generate_synthetic(n=50, m=30, k=7, weighting=1, seed=11)
    assert (data.n, data.m) == (50, 30)
    assert truth.support.size == 7
    vals = truth.weights[truth.support]
    assert np.all((vals > 0) & (vals <= 1))
    scores = np.asarray(data.X.todense()) @ truth.weights
    np.testing.assert_array_equal(data.y, np.where(scores >= 0, 1, -1))


def test_synthetic_weightings_share_base_draw():
    _, t1 = generate_synthetic(40, 25, 6, weighting=1, seed=5)
    _, t2 = generate_synthetic(40, 25, 6, weighting=2, seed=5)
    _, t3 = generate_synthetic(40, 25, 6, weighting=3, seed=5)
    np.testing.assert_array_equal(t1.support, t2.support)
    base = t1.weights[t1.support]
    np.testing.assert_allclose(t2.weights[t2.support], base ** 0.3, rtol=1e-12)
    np.testing.assert_allclose(t3.weights[t3.support], base ** 3, rtol=1e-12)


def test_synthetic_reproducible_and_seed_sensitive():
    a1, t1 = generate_synthetic(20, 15, 4, seed=9)
    a2, t2 = generate_synthetic(20, 15, 4, seed=9)
    b, _ = generate_synthetic(20, 15, 4, seed=10)
    assert (a1.X != a2.X).nnz == 0
    np.testing.assert_array_equal(t1.weights, t2.weights)
    assert (a1.X != b.X).nnz > 0


def test_test_set_is_independent_stream():
    data, truth = generate_synthetic(30, 20, 5, seed=3)
    test1 = generate_test_set(truth, 30, seed=3)
    test2 = generate_test_set(truth, 30, seed=3)
    assert (test1.X != test2.X).nnz == 0
    assert (test1.X != data.X).nnz > 0
    scores = np.asarray(test1.X.todense()) @ truth.weights
    np.testing.assert_array_equal(test1.y, np.where(scores >= 0, 1, -1))


@pytest.mark.parametrize("seed", [0, 4])
def test_generators_give_scipy_csr_of_their_pcg64_draws(seed):
    n, m, k = 33, 47, 6
    data, truth = generate_synthetic(n, m, k, weighting=2, seed=seed)
    rng = np.random.default_rng([seed, 0])
    _truth_from_rng(rng, m, k, 2)
    _assert_same_csr(data.X, sp.csr_matrix(rng.standard_normal((n, m))))
    test = generate_test_set(truth, 21, seed=seed)
    _assert_same_csr(test.X, sp.csr_matrix(np.random.default_rng([seed, 1]).standard_normal((21, m))))


def test_synthetic_argument_validation():
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 6)
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 2)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 2, weighting=4)
