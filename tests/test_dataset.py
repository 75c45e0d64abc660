"""Data containers, file formats, scaling priors, and the synthetic generator."""

import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from fgm import dataset
from fgm.dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset, TreeStructure,
                         _column_sq_sums, _dense_to_csr, _draw_dataset,
                         _inverse_set_norms, _truth_from_rng,
                         compute_scaling_prior, generate_synthetic,
                         generate_test_set, load_ground_truth, load_groups,
                         load_libsvm, load_tree, write_ground_truth, write_libsvm)

from oracles import libsvm_per_token, libsvm_text_per_value


# ---------------------------------------------------------------------------
# containers


def test_dataset_basic_properties():
    X = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    data = SparseDataset(X, np.array([1, -1]))
    assert data.n == 2 and data.m == 3
    np.testing.assert_allclose(np.sqrt(_column_sq_sums(data)), [1.0, 3.0, 2.0])
    cols = data.dense_columns(np.array([2, 0]))
    np.testing.assert_allclose(cols, [[2.0, 1.0], [0.0, 0.0]])


def test_dataset_rejects_bad_labels():
    X = np.eye(2)
    with pytest.raises(ValueError, match="-1/\\+1"):
        SparseDataset(X, np.array([1, 2]))
    with pytest.raises(ValueError, match="one entry per row"):
        SparseDataset(X, np.array([1, -1, 1]))


@pytest.mark.parametrize("labels, found", [([1.5, -1.0], "[1.5]"), ([0.9, -1.0], "[0.9]"),
                                           ([1.0, np.nan], "[nan]"), ([-1.0, 1.0], None)])
def test_dataset_checks_labels_as_given_before_storing_them_as_integers(labels, found):
    if found is None:
        assert SparseDataset(np.eye(2), labels).y.tolist() == [-1, 1]
        return
    with pytest.raises(ValueError) as exc:
        SparseDataset(np.eye(2), labels)
    assert str(exc.value) == f"labels must be -1/+1, found {found}"


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


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_zero_free_array_converts_to_scipy_csr_bit_for_bit_and_unshared(layout):
    full = np.random.default_rng(6).standard_normal((10, 14))
    X = {"C": full, "F": np.asfortranarray(full), "strided": full[::2, ::3]}[layout]
    before = X.copy()
    got = _dense_to_csr(X)
    assert got.nnz == X.size
    _assert_same_csr(got, sp.csr_matrix(X))
    assert X.tobytes() == before.tobytes()
    for a in (got.data, got.indices, got.indptr):
        assert not np.shares_memory(a, X) and not np.shares_memory(a, full)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_zero_free_array_is_stored_as_a_c_ordered_copy(layout):
    full = np.random.default_rng(6).standard_normal((10, 14))
    X = {"C": full, "F": np.asfortranarray(full), "strided": full[::2, ::3]}[layout]
    data = SparseDataset(X, np.ones(X.shape[0], dtype=int))
    design = data.design
    assert not sp.issparse(design) and design.flags.c_contiguous and not design.flags.writeable
    assert design.tobytes() == np.ascontiguousarray(X).tobytes()
    assert not np.shares_memory(design, full)
    _assert_same_csr(data.X, _dense_to_csr(X))
    assert np.shares_memory(data.X.data, design)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_array_with_one_zero_cell_is_stored_as_the_dense_to_csr_csr(zero):
    X = np.random.default_rng(7).standard_normal((6, 5))
    X[2, 3] = zero
    data = SparseDataset(X, np.ones(6, dtype=int))
    assert sp.issparse(data.design) and data.X.nnz == X.size - 1
    _assert_same_csr(data.X, _dense_to_csr(X))


def test_dense_columns_out_of_range():
    data = SparseDataset(np.eye(3), np.array([1, 1, -1]))
    with pytest.raises(ValueError, match="out of range"):
        data.dense_columns(np.array([3]))


def test_dense_columns_bit_identical_on_both_layouts():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((7, 9))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[2, 3] = 5e-324                                    # subnormal
    data = SparseDataset(X, np.where(rng.random(7) < 0.5, 1, -1))
    full = SparseDataset(_fully_stored(X), data.y)      # the same values, every cell stored
    assert sp.issparse(data.design) and not sp.issparse(full.design)
    for ids in (np.array([8, 0, 3, 3, 5]), np.arange(9), np.array([], dtype=np.intp)):
        want, got = data.dense_columns(ids), full.dense_columns(ids)
        assert want.shape == got.shape == (7, ids.size)
        assert want.flags.c_contiguous and got.flags.c_contiguous
        assert want.tobytes() == got.tobytes()
    with pytest.raises(ValueError, match="out of range"):
        full.dense_columns(np.array([9]))


def test_csr_column_gather_reads_only_the_asked_columns():
    rng = np.random.default_rng(12)
    n, m, per_row = 200, 10 ** 8, 10
    cols = np.sort(rng.choice(m, (n, per_row)), axis=1)
    assert (np.diff(cols, axis=1) > 0).all()
    values = rng.standard_normal(n * per_row)
    values[0] = -0.0
    X = sp.csr_matrix((values, cols.ravel().astype(np.int32), np.arange(0, n * per_row + 1,
                                                                         per_row)), shape=(n, m))
    data = SparseDataset(X, np.ones(n, dtype=int))
    asked = np.array([cols[0, 0], cols[5, 3], 7, cols[5, 3], cols[9, 9], cols[199, 0],
                      m - 1, cols[0, 0], 0, cols[42, 4]])
    got, peak = _traced_peak(lambda: data.dense_columns(asked))
    assert peak < 1 << 20
    want = np.zeros((n, asked.size))
    for j, col in enumerate(asked):
        rows, at = np.nonzero(cols == col)
        want[rows, j] = values.reshape(n, per_row)[rows, at]
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
    assert np.signbit(got[0, [0, 7]]).all()


@pytest.mark.parametrize("ids", [[3, 998, 3, 0, 500, 41], list(range(0, 1000, 7)), []])
def test_csr_column_gather_gives_the_stored_bits_on_either_side_of_m_values(ids):
    rng = np.random.default_rng(13)
    for m in (1000, 40):        # more columns than stored values, then fewer
        dense = np.where(rng.random((30, m)) < 400 / (30 * m), rng.standard_normal((30, m)), 0.0)
        X = sp.csr_matrix(dense)
        assert (m > X.nnz) == (m == 1000)
        X.data[:3] = -0.0           # stored -0.0 values
        dense[np.repeat(np.arange(30), np.diff(X.indptr))[:3], X.indices[:3]] = -0.0
        asked = np.asarray(ids, dtype=np.intp) % m
        got = SparseDataset(X, np.ones(30, dtype=int)).dense_columns(asked)
        assert got.flags.c_contiguous and got.tobytes() == np.take(dense, asked, axis=1).tobytes()


def _fully_stored(values, indices_dtype=np.int32):
    """Canonical CSR that stores every entry of ``values``, zeros included."""
    n, m = values.shape
    indices = np.tile(np.arange(m, dtype=indices_dtype), n)
    indptr = np.arange(0, n * m + 1, m, dtype=indices_dtype)
    return sp.csr_matrix((values.ravel(), indices, indptr), shape=(n, m))


def _assert_design_is_a_read_only_view_of(values):
    data = SparseDataset(_fully_stored(values), np.array([1, -1, 1, 1, -1]))
    assert data.X.nnz == 30 and data.X.has_canonical_format
    full = data.design
    assert np.shares_memory(full, data.X.data)
    assert full.tobytes() == values.tobytes()
    np.testing.assert_array_equal(full, data.X.toarray())
    assert full.shape == (5, 6) and full.flags.c_contiguous
    assert not full.flags.writeable and data.X.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        full[0, 0] = 1.0
    return full


def test_design_of_a_fully_stored_csr_is_a_read_only_view_of_its_values():
    _assert_design_is_a_read_only_view_of(np.random.default_rng(4).standard_normal((5, 6)))


@pytest.mark.parametrize("zero", [-0.0, 0.0])
def test_design_reads_the_stored_zeros_of_a_fully_stored_csr_as_stored(zero):
    # the view is not copied, so it keeps the sign of each stored zero (toarray() would not)
    values = np.random.default_rng(4).standard_normal((5, 6))
    values[1, 2] = zero
    values[3, 1:4] = (-zero, zero, -zero)
    full = _assert_design_is_a_read_only_view_of(values)
    assert np.signbit(full[1, 2]) == np.signbit(zero)
    assert np.signbit(full[3, 1:4]).tolist() == np.signbit([-zero, zero, -zero]).tolist()


def _sq_sums_inputs():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((9, 7)) * 2.0 ** rng.integers(-200, 200, (9, 7))
    X[0, 1] = 5e-324                                     # subnormal; its square underflows
    X[3, 1] = 2.0 ** -537
    X[4, 2] = 1e300                                      # its square overflows
    X[:, 5] = 0.0                                        # empty column
    X[rng.random(X.shape) < 0.2] = 0.0
    yield X
    stored = _fully_stored(X)                            # zeros stored as values
    stored.data[stored.data == 0] = np.where(np.arange((stored.data == 0).sum()) % 2, 0.0, -0.0)
    yield stored
    yield _fully_stored(rng.standard_normal((6, 4)), np.int64)
    wide = sp.csr_matrix(X)
    yield sp.csr_matrix((wide.data, wide.indices.astype(np.int64),
                         wide.indptr.astype(np.int64)), shape=X.shape)


def test_column_sq_sums_bit_identical_on_every_route():
    for X in _sq_sums_inputs():
        data = SparseDataset(X, np.where(np.arange(X.shape[0]) % 2, 1, -1))
        want = np.asarray(data.X.multiply(data.X).sum(axis=0)).ravel()
        # the array route, whatever the density
        forced = SparseDataset(_fully_stored(data.X.toarray()), data.y)
        for d in (data, forced):
            got = _column_sq_sums(d)
            assert got.shape == (data.m,) and got.tobytes() == want.tobytes()
        assert np.sqrt(_column_sq_sums(data)).tobytes() == np.sqrt(want).tobytes()


def _many_valued_dataset(index_dtype):
    """1,000 rows of 1,000 values over 100,000 columns; ten rows share each column."""
    rng = np.random.default_rng(12)
    n, per_row, m = 1000, 1000, 100_000
    indices = (np.arange(per_row) * 100 + (np.arange(n) % 100)[:, None]).ravel()
    values = rng.standard_normal(n * per_row) * 2.0 ** rng.integers(-60, 60, n * per_row)
    X = sp.csr_matrix((values, indices, np.arange(0, n * per_row + 1, per_row)), shape=(n, m))
    data = SparseDataset(X, np.where(np.arange(n) % 2, 1, -1))
    data.X.indices = data.X.indices.astype(index_dtype)
    data.X.indptr = data.X.indptr.astype(index_dtype)
    return data


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_column_sq_sums_csr_route_equals_bincount_to_the_bit(index_dtype):
    data = _many_valued_dataset(index_dtype)
    want = np.bincount(data.X.indices, data.X.data ** 2, data.m)
    assert _column_sq_sums(data).tobytes() == want.tobytes()


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_column_sq_sums_csr_route_holds_one_chunk_of_squares(index_dtype):
    # besides the result, one chunk of 65,536 squares: no squared copy of
    # the million values and no cast of their indices
    data = _many_valued_dataset(index_dtype)
    tracemalloc.start()
    try:
        _column_sq_sums(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * data.m * 8 + 65536 * 8


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


_LABELS = ["+1", "-1", "1", "0", "-1.0", "1e0", "+1.", "0.0"]
_BAD_LABELS = ["2", "abc", "1:1", "+", "nan"]
_VALUES = ["nan", "-inf", "inf", "1_0.5", "1e5", "-0", ".5", "5.", "0", "00.25", "-1E-320"]
_FAULTS = ["no colon", "two colons", "moved colon", "empty value", "empty index", "index 0",
           "negative", "repeat", "decrease", "overflow", "bad value", "bad label"]


@st.composite
def _index_text(draw, idx: int) -> str:
    text = str(idx)
    form = draw(st.sampled_from(["plain", "plain", "zeros", "plus", "underscore"]))
    if form == "zeros":
        return "0" * draw(st.integers(1, 3)) + text
    if form == "plus":
        return "+" + text
    if form == "underscore" and len(text) > 1:
        return text[0] + "_" + text[1:]
    return text


@st.composite
def _value_text(draw) -> str:
    if draw(st.booleans()):
        return draw(st.sampled_from(_VALUES))
    v = draw(st.floats(allow_nan=True, allow_infinity=True))
    return draw(st.sampled_from([repr(v), f"{v:.17g}", f"{v:.3e}"]))


@st.composite
def _libsvm_file(draw) -> tuple[str, int | None]:
    """Text of a sparse data file whose rows may carry planted faults, and a ``dim``."""
    lines = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", "   ", "\t"])))
            continue
        if kind == "comment":
            lines.append(draw(st.sampled_from(["# header", "  #", "#1 2:3"])))
            continue
        label = draw(st.sampled_from(_LABELS))
        ids = sorted(draw(st.sets(st.integers(1, 40), max_size=6)))
        tokens = [f"{draw(_index_text(i))}:{draw(_value_text())}" for i in ids]
        fault = draw(st.sampled_from([None] * 20 + _FAULTS))
        at = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if fault == "bad label":
            label = draw(st.sampled_from(_BAD_LABELS))
        elif fault == "decrease" and len(tokens) >= 2:
            tokens[at], tokens[at - 1] = tokens[at - 1], tokens[at]
        elif fault == "moved colon" and len(tokens) >= 2:
            # "a:b c:d" -> "a b:c:d": as many colons as tokens, but misplaced
            at = max(at, 1)
            idx, val = tokens[at - 1].split(":")
            tokens[at - 1:at + 1] = [idx, f"{val}:{tokens[at]}"]
        elif fault == "repeat" and tokens:
            tokens.insert(at, tokens[at])
        elif fault in ("no colon", "two colons", "empty value", "empty index", "bad value"):
            idx, val = (tokens[at].split(":") if tokens else ("3", "1.5"))
            bad = {"no colon": idx, "two colons": f"{idx}:{val}:{val}",
                   "empty value": f"{idx}:", "empty index": f":{val}",
                   "bad value": f"{idx}:{draw(st.sampled_from(['x', '1.2.3', '0x1p3', '--1']))}"}
            tokens[at:at + 1] = [bad[fault]]
        elif fault in ("index 0", "negative", "overflow"):
            idx = {"index 0": "0", "negative": "-3",
                   "overflow": draw(st.sampled_from(["9223372036854775808",
                                                     "99999999999999999999",
                                                     "-99999999999999999999"]))}[fault]
            tokens.insert(at, f"{idx}:1.0")
        sep = draw(st.sampled_from([" ", "  ", "\t", " \t "]))
        line = sep.join([label, *tokens])
        if draw(st.booleans()):
            line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(
                st.sampled_from(["", "  # note", "\t#x:y", " "]))
        lines.append(line)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, draw(st.one_of(st.none(), st.integers(1, 50)))


def _read_outcome(reader, path, dim):
    """Everything a read gives, as bytes: the arrays and their dtypes, or the error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            X, y = reader(path, dim)
        except FormatError as exc:
            return ("error", str(exc))
    return ("ok", X.shape, [(a.dtype.str, a.tobytes()) for a in (X.data, X.indices, X.indptr, y)],
            [str(w.message) for w in caught])


def _load_pair(path, dim):
    data = load_libsvm(path, dim)
    return data.X, data.y


@settings(max_examples=300, deadline=None)
@given(case=_libsvm_file(), chunk=st.sampled_from([1, 7, 64, dataset._CHUNK_BYTES]))
def test_load_libsvm_matches_the_per_token_reader(tmp_path_factory, case, chunk):
    text, dim = case
    path = tmp_path_factory.mktemp("diff") / "d.libsvm"
    with open(path, "w", newline="") as fh:
        fh.write(text)
    with mock.patch.object(dataset, "_CHUNK_BYTES", chunk):     # also convert mid-file
        got = _read_outcome(_load_pair, path, dim)
    assert got == _read_outcome(libsvm_per_token, path, dim)


@pytest.mark.parametrize("dim", [0, -5, 2.0, True])
def test_load_libsvm_refuses_a_dim_below_one_or_not_an_integer(tmp_path, dim):
    f = tmp_path / "d.txt"
    f.write_text("+1\n-1\n")
    with pytest.raises(ValueError, match=r"^dim must be an integer >= 1$"):
        load_libsvm(f, dim)


@pytest.mark.parametrize("line,message", [
    ("+1 2 3:4:5", "invalid pair '2'"),                     # colon count matches the token count
    ("+1 1:1 2:3:4", "invalid pair '2:3:4'"),
    ("+1 1:", "invalid pair '1:'"),
    ("+1 :1", "invalid pair ':1'"),
    ("+1 99999999999999999999:1.0", "index 99999999999999999999 is too large"),
    ("+1 2:1 -99999999999999999999:1.0", "index -99999999999999999999 must be >= 1"),
    ("+1 5:1 99999999999999999999:1.0 3:1", "index 99999999999999999999 is too large"),
])
def test_libsvm_line_faults_name_the_first_bad_token(tmp_path, line, message):
    f = tmp_path / "d.txt"
    f.write_text("-1 1:0.5\n" + line + "\n")
    with pytest.raises(FormatError) as exc:
        load_libsvm(f)
    assert str(exc.value) == f"{f}:2: {message}"


def _conversion(convert, tokens):
    """An index conversion's dtype and bytes, or its exception's type and message."""
    try:
        idx = convert(tokens)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return idx.dtype.str, idx.tobytes()


def _by_int(tokens):
    return np.fromiter(map(int, tokens), np.intp, len(tokens))


_SPELLED_INDICES = [
    "+3", "0012", "1_5", "\u0663", "-0", "1e3", "1.0", "2x", "1+3", "999999999999999999",
    "00000000000000000000012", "9223372036854775807", "9223372036854775808",
    "-99999999999999999999", "-9223372036854775808", "", "+"]


@pytest.mark.parametrize("token", _SPELLED_INDICES)
def test_index_tokens_convert_as_int_does(tmp_path, token):
    for tokens in ([token], ["7", token, "12"], [token, "+", "5"], ["1", token, "", "5"]):
        assert _conversion(dataset._libsvm_indices, tokens) == _conversion(_by_int, tokens)
    f = tmp_path / "d.txt"
    f.write_text(f"+1 {token}:1.5\n-1 1:2 {token}:0.5\n", encoding="utf-8")
    assert _read_outcome(_load_pair, f, None) == _read_outcome(libsvm_per_token, f, None)


def _fromstring_reading_a_prefix(text, dtype, sep):
    """``np.fromstring`` as numpy releases before 2.3 read integers with ``sep=" "``.

    They return the numbers read before the first text they cannot match,
    each saturated to ``dtype``, with only a ``DeprecationWarning``.
    """
    info, out = np.iinfo(dtype), []
    for tok in text.split(sep):
        read = re.match(r"[+-]?[0-9]+", tok)
        if read:
            out.append(min(max(int(read.group()), info.min), info.max))
        if not read or read.end() < len(tok):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            break
    return np.array(out, dtype)


@pytest.mark.parametrize("token", _SPELLED_INDICES)
def test_index_tokens_convert_as_int_does_under_a_lenient_numpy(monkeypatch, token):
    monkeypatch.setattr(np, "fromstring", _fromstring_reading_a_prefix)
    for tokens in ([token], ["7", token], ["7", token, "12"], ["1", token, "", "5"]):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            assert _conversion(dataset._libsvm_indices, tokens) == _conversion(_by_int, tokens)


_INDEX_CHARS = st.one_of(st.sampled_from("0123456789+-_.eE"),
                         st.characters(exclude_categories=("Zs", "Zl", "Zp", "Cc")))


@st.composite
def _index_token(draw) -> str:
    """A token as ``str.split`` leaves it, without whitespace; often an integer in some spelling."""
    if draw(st.booleans()):
        return draw(st.text(_INDEX_CHARS, max_size=24).filter(
            lambda t: not any(map(str.isspace, t))))
    i = draw(st.integers(-2**70, 2**70))
    return ("-" if i < 0 else "") + draw(_index_text(abs(i)))


@settings(max_examples=300, deadline=None)
@given(tokens=st.lists(_index_token(), max_size=8))
def test_drawn_index_tokens_convert_as_int_does(tokens):
    assert _conversion(dataset._libsvm_indices, tokens) == _conversion(_by_int, tokens)


def test_libsvm_accepts_python_number_spellings_and_empty_rows(tmp_path):
    f = tmp_path / "d.txt"
    f.write_text("+1 +3:1_0.5 0012:1e2 1_5:nan\r\n-1\n+1\t1:-inf\n")
    data = load_libsvm(f)
    assert data.X.indptr.tolist() == [0, 3, 3, 4]
    assert data.X.indices.tolist() == [2, 11, 14, 0]
    np.testing.assert_array_equal(data.X.data, [10.5, 100.0, np.nan, -np.inf])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), m=st.integers(1, 3_000_000), seed=st.integers(0, 10_000))
def test_write_libsvm_matches_the_per_value_writer(tmp_path_factory, n, m, seed):
    rng = np.random.default_rng(seed)
    nnz = int(rng.integers(0, 3 * n + 1))
    specials = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308])
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-300, 300, nnz)
    vals = np.where(rng.random(nnz) < 0.2, rng.choice(specials, nnz), vals)
    X = sp.csr_matrix((vals, (rng.integers(0, n, nnz), rng.integers(0, m, nnz))), shape=(n, m))
    X.sum_duplicates()
    data = SparseDataset(X, rng.choice([-1, 1], size=n))
    path = tmp_path_factory.mktemp("w") / "d.libsvm"
    write_libsvm(data, path)
    assert path.read_text() == libsvm_text_per_value(data.X, data.y)


def _every_cell_values():
    rng = np.random.default_rng(14)
    values = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5))
    values[1, :4] = [np.nan, np.inf, -np.inf, 5e-324]
    return values


@pytest.mark.parametrize("source", ["generated", "array", "every-cell CSR with zeros"])
def test_write_libsvm_writes_an_array_design_without_a_csr(tmp_path, source):
    y = np.array([1, -1, 1, 1, -1, -1, 1])
    if source == "generated":
        data = generate_synthetic(7, 5, 2, seed=3)[0]
    elif source == "array":
        data = SparseDataset(_every_cell_values(), y)
    else:
        values = _every_cell_values()
        values[2, 1:3] = [0.0, -0.0]
        data = SparseDataset(_fully_stored(values), y)
    assert not sp.issparse(data.design)
    path = tmp_path / "d.libsvm"
    with mock.patch.object(dataset, "_every_cell_csr", side_effect=AssertionError("CSR built")):
        write_libsvm(data, path)
    assert path.read_text() == libsvm_text_per_value(data.X, data.y)


# ---------------------------------------------------------------------------
# groups and trees


def test_load_groups_with_lambda(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("a: 0 1 2\nb: 3 4 | lambda=0.5\n# comment\n")
    g = load_groups(f)
    assert g.n_nodes == 2
    np.testing.assert_array_equal(g.sets[0], [0, 1, 2])
    np.testing.assert_allclose(g.lambdas, [1.0, 0.5])


def test_load_groups_without_lambda_has_none(tmp_path):
    f = tmp_path / "g.txt"
    f.write_text("a: 0 1\nb: 2\n")
    assert not load_groups(f).lambdas_given


@pytest.mark.parametrize("content,fragment", [
    ("a: 0 1\na: 2\n", "duplicate group name"),
    ("a: 0 1\nb: 1 2\n", "overlaps"),
    ("a:\n", "empty feature list"),
    ("a: -1\n", "negative"),
    ("a 0 1\n", "expected"),
    ("a: 0 | lam=2\n", "lambda="),
    ("a: 0 | lambda=-1\n", "non-negative"),
    ("a: 0 1 2 | lambda=nan\n", r"g\.txt:1: lambda must be a finite non-negative"),
    ("a: 0\nb: 1 | lambda=inf\n", r"g\.txt:2: lambda must be a finite non-negative"),
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


def _three_level_tree(m):
    """Roots of 64 contiguous features, each split into 4 x 16, each into 4 x 4."""
    sets, parents = [], []
    for lo in range(0, m, 64):
        root = len(sets)
        sets.append(np.arange(lo, lo + 64))
        parents.append(-1)
        for mid_lo in range(lo, lo + 64, 16):
            mid = len(sets)
            sets.append(np.arange(mid_lo, mid_lo + 16))
            parents.append(root)
            sets += [np.arange(g, g + 4) for g in range(mid_lo, mid_lo + 16, 4)]
            parents += [mid] * 4
    return TreeStructure(sets, parents, [f"n{h}" for h in range(len(sets))])


@pytest.mark.parametrize("structure", [
    GroupStructure([np.array([7, 2]), np.array([0]), np.array([5, 3, 9])], ["a", "b", "c"]),
    _three_level_tree(4096),
], ids=["groups", "three-level-tree"])
def test_members_and_starts_are_the_flat_sets(structure):
    sizes = [s.size for s in structure.sets]
    for tree in (structure, structure.with_lambdas(np.full(structure.n_nodes, 2.0))):
        assert tree.members.dtype == tree.starts.dtype == np.intp
        np.testing.assert_array_equal(tree.members, np.concatenate(structure.sets))
        np.testing.assert_array_equal(tree.starts, np.cumsum(sizes) - sizes)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_given_lambdas_must_be_finite(bad):
    with pytest.raises(ValueError, match="per-group lambdas must be finite"):
        GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"], [1.0, bad])
    with pytest.raises(ValueError, match="per-node lambdas must be finite"):
        TreeStructure([np.array([0, 1]), np.array([0])], np.array([-1, 0]), ["r", "c"],
                      [bad, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_with_lambdas_refuses_non_finite_scales(bad):
    groups = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"])
    tree = TreeStructure([np.array([0, 1]), np.array([0])], np.array([-1, 0]), ["r", "c"])
    with pytest.raises(ValueError, match="per-group lambdas must be finite"):
        groups.with_lambdas([1.0, bad])
    with pytest.raises(ValueError, match="per-node lambdas must be finite"):
        tree.with_lambdas([bad, 1.0])


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


@pytest.mark.parametrize("density", [1.0, 0.8])
def test_inverse_norm_scales_equal_on_a_view_and_the_raw_dataset(density):
    # the same values with every cell stored are read through X's own view;
    # the raw dataset stores every cell at density 1 and is read as a CSR below it
    rng = np.random.default_rng(6)
    X = rng.standard_normal((40, 48)) * 2.0 ** rng.integers(-30, 30, (40, 48))
    X[rng.random(X.shape) >= density] = 0.0
    data = SparseDataset(X, np.where(rng.random(40) < 0.5, 1, -1))
    view = SparseDataset(_fully_stored(X), data.y)
    assert np.shares_memory(view.design, view.X.data)
    assert sp.issparse(data.design) == (density < 1.0)
    groups = GroupStructure([np.arange(6 * g, 6 * g + 6) for g in range(8)],
                            [f"g{g}" for g in range(8)])
    tree = TreeStructure([np.arange(16 * r, 16 * r + 16) for r in range(3)]
                         + [np.arange(4 * c, 4 * c + 4) for c in range(12)],
                         np.array([-1] * 3 + [c // 4 for c in range(12)]),
                         [f"n{i}" for i in range(15)])
    pairs = [(_inverse_set_norms(_column_sq_sums(d), groups),
              _inverse_set_norms(_column_sq_sums(d), tree),
              compute_scaling_prior(d, "inverse_norm")) for d in (data, view)]
    for raw, viewed in zip(*pairs):
        assert raw.tobytes() == viewed.tobytes()


@pytest.mark.parametrize("layout", ["array", "csr"])
def test_grouped_set_norms_equal_each_sets_own_sum_to_the_bit(layout):
    # two sets of every size 1-300, in shuffled order over shuffled features:
    # summed per size they must keep the bits of one pairwise sum per set
    rng = np.random.default_rng(8)
    sizes = rng.permutation(np.repeat(np.arange(1, 301), 2))
    features = rng.permutation(int(sizes.sum()))
    groups = GroupStructure(np.split(features, np.cumsum(sizes)[:-1]),
                            [f"g{g}" for g in range(sizes.size)])
    X = rng.standard_normal((3, features.size)) * 2.0 ** rng.integers(-30, 30, (3, features.size))
    if layout == "csr":
        X[rng.random(X.shape) < 0.3] = 0.0
        data = SparseDataset(X, np.array([1, -1, 1]))
    else:
        data = SparseDataset(_fully_stored(X), np.array([1, -1, 1]))
    assert sp.issparse(data.design) == (layout == "csr")
    col_sq = _column_sq_sums(data)
    norms = np.sqrt([col_sq[s].sum() for s in groups.sets])
    want = np.divide(1.0, norms, out=np.zeros(sizes.size), where=norms > 0)
    assert _inverse_set_norms(col_sq, groups).tobytes() == want.tobytes()


def test_group_scaling_prior_frobenius_and_precedence():
    X = np.array([[3.0, 0.0, 1.0], [4.0, 0.0, 0.0]])
    data = SparseDataset(X, np.array([1, -1]))
    g = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"])
    inv = _inverse_set_norms(_column_sq_sums(data), g)
    np.testing.assert_allclose(inv, [0.2, 1.0])
    # training's scale rule: explicit lambdas win over the policy
    from fgm.engine import SolverConfig, _scale_sums, _units
    cfg = SolverConfig(lambda_policy="inverse_norm")
    units = _units(data, cfg, g, _scale_sums(data, cfg, g))
    np.testing.assert_allclose(units.members(np.array([0, 1]))[1], [0.2, 0.2, 1.0])
    g_fixed = GroupStructure([np.array([0, 1]), np.array([2])], ["a", "b"], [7.0, 8.0])
    assert _scale_sums(data, cfg, g_fixed) is None
    np.testing.assert_allclose(_units(data, cfg, g_fixed, None).members(np.array([0, 1]))[1],
                               [7.0, 7.0, 8.0])


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


def _traced_peak(make):
    """``make()`` and the tracemalloc peak it reached above the memory held before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _csr_bytes(X):
    return X.data.nbytes + X.indices.nbytes + X.indptr.nbytes


def test_generators_memory_peak_within_a_tenth_of_the_csr():
    # a dense draw converted to CSR peaks at 1.75x the CSR's bytes
    (train, truth), peak = _traced_peak(lambda: generate_synthetic(256, 1024, 10))
    assert peak <= 1.1 * _csr_bytes(train.X)
    test, peak = _traced_peak(lambda: generate_test_set(truth, 256))
    assert peak <= 1.1 * _csr_bytes(test.X)


def test_generated_sets_store_only_their_draws():
    n, m = 256, 1024
    (train, truth), peak = _traced_peak(lambda: generate_synthetic(n, m, 10))
    assert peak <= 1.1 * n * m * 8
    test, peak = _traced_peak(lambda: generate_test_set(truth, n))
    assert peak <= 1.1 * n * m * 8
    assert not sp.issparse(train.design) and not sp.issparse(test.design)


@pytest.mark.parametrize("seed", [0, 4])
def test_generated_x_is_the_every_cell_csr_around_the_draws(seed):
    data, _ = generate_synthetic(33, 47, 6, seed=seed)
    draws = data.design
    assert draws.shape == (33, 47) and draws.flags.c_contiguous and not draws.flags.writeable
    X = data.X
    _assert_same_csr(X, _fully_stored(draws.copy()))
    assert data.X is X and X.data.flags.writeable
    assert np.shares_memory(X.data, draws) and np.shares_memory(data.design, X.data)


class _NormalWithZeros:
    """Generator stub: PCG64 normal draws with some cells set to ``0.0`` and ``-0.0``."""

    def standard_normal(self, out):
        np.random.default_rng(2).standard_normal(out=out)
        out[::3, 1] = 0.0
        out[1::4, ::5] = -0.0


def test_draws_holding_zeros_give_scipy_csr_of_the_draws():
    w = np.linspace(-1.0, 1.0, 11)
    data = _draw_dataset(_NormalWithZeros(), 9, w)
    draws = np.empty((9, 11))
    _NormalWithZeros().standard_normal(out=draws)
    assert data.X.nnz < draws.size
    _assert_same_csr(data.X, sp.csr_matrix(draws))
    np.testing.assert_array_equal(data.y, np.where(draws @ w >= 0, 1, -1))


def test_synthetic_argument_validation():
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 6)
    with pytest.raises(ValueError):
        generate_synthetic(0, 5, 2)
    with pytest.raises(ValueError):
        generate_synthetic(10, 5, 2, weighting=4)
