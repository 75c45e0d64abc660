"""Datasets, file formats, and synthetic data generation.

Provides the sparse binary-classification dataset container, readers and
writers for the plain-text sparse ("index:value") format, disjoint feature
groups, hierarchical (tree) groups, ground-truth supports, per-feature
scaling priors, and the reproducible Gaussian synthetic generator used by
the benchmarks.

Feature indices are 1-based on disk and 0-based in memory.  Values are
written with 17 significant digits so a write/load round trip is exact.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import numbers
import operator
import re
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class FormatError(ValueError):
    """Raised for malformed data, group, tree, or ground-truth files."""


@contextlib.contextmanager
def _decoding(path: Path):
    """Raise a ``UnicodeDecodeError`` met reading ``path`` as a :class:`FormatError` naming it."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# core containers


class SparseDataset:
    """Binary classification data: ``X`` (rows are instances) and labels ``y`` in {-1,+1}.

    X is stored in one of two forms, picked from the input.  A float64
    array, C-ordered, when every cell is nonzero: the generators' draws as
    drawn, and an array input with no ``0.0`` or ``-0.0`` cell, copied so
    that it shares no memory with the caller's.  Otherwise a CSR in
    canonical form (sorted, duplicate-free indices per row): a canonical
    float64 CSR is kept as given, sharing memory with the caller's; any
    other sparse input is converted or copied, never changed; an array
    holding a zero (0-D and 1-D ones become one row) is converted in one
    pass into a new CSR.  Every kernel reads X through :attr:`design`.
    """

    def __init__(self, X, y):
        if sp.issparse(X):
            X = X.tocsr().astype(float, copy=False)
            if not X.has_canonical_format:
                X = X.copy()
                X.sum_duplicates()    # also sorts the indices
        else:
            # a copy when no cell is 0.0 or -0.0 (NaN counts as nonzero), else the CSR
            X = np.atleast_2d(np.asarray(X, dtype=float))
            X = (np.array(X, order="C") if X.ndim == 2 and np.count_nonzero(X) == X.size
                 else _dense_to_csr(X))
        y = np.asarray(y)
        if y.ndim != 1 or y.size != X.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        bad = np.setdiff1d(np.unique(y), [-1, 1])
        if bad.size:
            raise ValueError(f"labels must be -1/+1, found {bad.tolist()}")
        self._X, self.y = X, np.asarray(y, dtype=int)

    @classmethod
    def _of_draws(cls, full: np.ndarray, y: np.ndarray) -> "SparseDataset":
        """A set storing ``full`` as given: C-ordered float64 without a zero cell, ``y`` valid."""
        data = cls.__new__(cls)
        data._X, data.y = full, y
        return data

    @property
    def X(self) -> sp.csr_matrix:
        """X as a canonical CSR.

        A stored array gets its CSR on first read: every cell stored, the
        array's buffer as the values, column ids repeating ``0..m-1`` per
        row in the index dtype scipy picks for ``n * m`` entries.  From then
        on that CSR is what :attr:`design` reads (as the same view).
        """
        if not sp.issparse(self._X):
            self._X = _every_cell_csr(self._X)
        return self._X

    @X.setter
    def X(self, X: sp.csr_matrix) -> None:
        self._X = X

    @property
    def n(self) -> int:
        return self._X.shape[0]

    @property
    def m(self) -> int:
        return self._X.shape[1]

    @property
    def design(self):
        """X as the kernels read it: a read-only ``(n, m)`` view if X has every cell, else the CSR.

        The view is of the stored array, or :func:`_full_array`'s of a CSR
        that stores every cell; the stored array stays writeable.  Both read
        stored values as stored: a stored ``-0.0`` stays ``-0.0``.
        """
        if sp.issparse(self._X):
            full = _full_array(self._X)
            return self._X if full is None else full
        full = self._X.view()
        full.flags.writeable = False
        return full

    def dense_columns(self, ids: np.ndarray) -> np.ndarray:
        """Extract columns ``ids`` (repeats allowed) as a dense ``(n, len(ids))`` matrix.

        Reads :attr:`design` and copies the stored values, so both layouts
        give the same bits and a stored ``-0.0`` stays ``-0.0``.
        """
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.m):
            raise ValueError("feature index out of range")
        return _columns(self.design, ids)


def _columns(design, ids: np.ndarray) -> np.ndarray:
    """Columns ``ids`` of a :attr:`SparseDataset.design` as a C-ordered array, values copied.

    On a CSR only the stored values of the asked columns are found (one
    ``searchsorted`` of the stored column ids in the distinct ids asked, the
    rows from ``indptr``), so nothing the size of ``m`` is allocated.  They
    are assigned into zeros, not added (as ``todense`` does), so a stored
    ``-0.0`` keeps its sign.
    """
    if not sp.issparse(design):
        return np.take(design, ids, axis=1)
    wanted, slot = np.unique(ids, return_inverse=True)
    out = np.zeros((design.shape[0], wanted.size))
    if wanted.size:
        pos = np.searchsorted(wanted, design.indices)
        at = np.flatnonzero(wanted[np.minimum(pos, wanted.size - 1)] == design.indices)
        rows = np.searchsorted(design.indptr, at, side="right") - 1
        out[rows, pos[at]] = design.data[at]
    return np.take(out, slot, axis=1)


def _full_array(X: sp.csr_matrix) -> np.ndarray | None:
    """A read-only view of ``X.data`` as X's ``(n, m)`` C-ordered array when X stores every cell.

    In a canonical CSR (sorted, duplicate-free indices per row) ``n * m``
    stored values mean every row holds columns ``0..m-1`` in order, so the
    values in row-major order are X itself.  The test reads ``nnz`` alone:
    no scan and no copy.  The view keeps stored zeros as stored (a ``-0.0``
    stays ``-0.0``); otherwise None.
    """
    if X.nnz != X.shape[0] * X.shape[1]:
        return None
    full = X.data.reshape(X.shape)
    full.flags.writeable = False
    return full


def _every_cell_csr(full: np.ndarray) -> sp.csr_matrix:
    """The CSR storing every cell of a C-ordered float array, the array's buffer as its values."""
    n, m = full.shape
    index = sp.get_index_dtype(maxval=max(n, m, n * m))
    indices = np.tile(np.arange(m, dtype=index), n)
    indptr = np.arange(n + 1, dtype=index) * index(m)
    return sp.csr_matrix((full.reshape(-1), indices, indptr), shape=(n, m))


_SQ_CHUNK = 1 << 16     # CSR values squared at a time by _column_sq_sums


def _column_sq_sums(data: SparseDataset) -> np.ndarray:
    """Column sums of squares of X, added in row order (as scipy's are) without a squared X.

    The CSR route squares and adds ``_SQ_CHUNK`` values at a time, so besides
    the result it holds one chunk of squares, not a copy of every value.
    """
    if not sp.issparse(X := data.design):
        return np.einsum("ij,ij->j", X, X)
    out = np.zeros(data.m)
    for lo in range(0, X.nnz, _SQ_CHUNK):
        values = X.data[lo:lo + _SQ_CHUNK]
        np.add.at(out, X.indices[lo:lo + _SQ_CHUNK], values * values)
    return out


def _dense_to_csr(X: np.ndarray) -> sp.csr_matrix:
    """Canonical CSR of a float array, equal to ``sp.csr_matrix(X)`` to the bit.

    One mask of the nonzeros (``-0.0`` counts as zero, NaN as nonzero)
    gives the row counts and gathers values and column ids in row order,
    in the index dtype scipy picks, without scipy's COO detour.
    """
    X = np.atleast_2d(X)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-D array, got {X.ndim}-D")
    nonzero = X != 0
    counts = np.count_nonzero(nonzero, axis=1)
    index = sp.get_index_dtype(maxval=max(*X.shape, int(counts.sum())))
    indptr = np.zeros(X.shape[0] + 1, dtype=index)
    np.cumsum(counts, out=indptr[1:])
    indices = np.broadcast_to(np.arange(X.shape[1], dtype=index), X.shape)[nonzero]
    return sp.csr_matrix((X[nonzero], indices, indptr), shape=X.shape)


@dataclass
class GroundTruth:
    """True weight vector of a synthetic problem, with its support."""

    weights: np.ndarray
    support: np.ndarray = field(init=False)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.support = np.flatnonzero(self.weights)

    @property
    def m(self) -> int:
        return self.weights.size


@dataclass
class TreeStructure:
    """Hierarchical feature groups: each node's set contains its children's.

    Nodes are identified by their 0-based position in ``sets``.  ``parents``
    holds the parent node id, or -1 for roots.  Sibling sets are disjoint and
    every child set is contained in its parent's set, so any two node sets
    are either nested or disjoint.  ``lambdas`` holds one scale per node:
    all ones unless given (given scales must be finite and non-negative),
    with ``lambdas_given`` telling the two apart.  The checks keep the sets'
    flat form: ``members`` (every set's features, sets in node order) and
    ``starts`` (each set's first position in ``members``).
    """

    sets: list[np.ndarray]
    parents: np.ndarray
    names: list[str]
    lambdas: np.ndarray | None = None
    _noun = "node"              # names a unit in error messages

    def __post_init__(self):
        self.sets = [np.sort(np.asarray(s, dtype=np.intp)) for s in self.sets]
        self.parents = np.asarray(self.parents, dtype=np.intp)
        n = len(self.sets)
        if self.parents.size != n or len(self.names) != n:
            raise ValueError("sets, parents, and names must have equal length")
        sizes = np.fromiter(map(len, self.sets), dtype=np.intp, count=n)
        node = np.repeat(np.arange(n), sizes)               # owner of each member
        feat = np.concatenate([np.zeros(0, dtype=np.intp), *self.sets])
        self.members, self.starts = feat, np.cumsum(sizes) - sizes
        bad_parent = ((self.parents == np.arange(n)) | (self.parents >= n)
                      | (self.parents < -1))
        negative = np.zeros(n, dtype=bool)
        negative[node[feat < 0]] = True
        repeated = np.zeros(n, dtype=bool)
        repeated[node[1:][(node[1:] == node[:-1]) & (feat[1:] == feat[:-1])]] = True
        faulty = np.flatnonzero(bad_parent | (sizes == 0) | negative | repeated)
        if faulty.size:
            i = faulty[0]
            unit = f"{self._noun} {self.names[i]!r}"
            if bad_parent[i]:
                raise ValueError(f"{unit} has an invalid parent")
            if sizes[i] == 0:
                raise ValueError(f"{unit} is empty")
            if negative[i]:
                raise ValueError(f"{unit} has a negative feature index")
            raise ValueError(f"{unit} repeats a feature")
        if not (self.parents == -1).any():
            raise ValueError("tree has no root node")
        self._check_laminar(node, feat)
        self._assert_acyclic()
        self._set_lambdas(self.lambdas)

    def _check_laminar(self, node: np.ndarray, feat: np.ndarray) -> None:
        """Every child set lies in its parent's; sibling sets (roots too) are disjoint.

        ``(node, feat)`` lists every member in node order, each set sorted
        and repeat-free, so ``node * width + feat`` is a sorted key of the
        memberships.  A child member is contained when the key of its
        parent and feature occurs; two members clash when they share a
        parent and a feature.  Faults are reported in the order of a walk
        over the parents by id, children first checked for containment,
        then for overlap; clashing roots are reported last.
        """
        width = int(feat.max()) + 1
        if (self.n_nodes + 1) * width >= 2 ** 63:           # pair keys would overflow
            feat = np.unique(feat, return_inverse=True)[1]
            width = int(feat.max()) + 1
        up = self.parents[node]
        key = node * width + feat
        inner = up >= 0
        want = up[inner] * width + feat[inner]
        found = key[np.minimum(np.searchsorted(key, want), key.size - 1)] == want
        outside = np.zeros(self.n_nodes, dtype=bool)
        outside[node[inner][~found]] = True
        sibling_key = (up + 1) * width + feat
        order = np.argsort(sibling_key, kind="stable")      # ties stay in node order
        ranked = sibling_key[order]
        overlap = np.zeros(self.n_nodes, dtype=bool)
        overlap[node[order[1:][ranked[1:] == ranked[:-1]]]] = True
        kids = np.flatnonzero((outside | overlap) & (self.parents >= 0))
        if kids.size:
            parent = self.parents[kids].min()
            kids = kids[self.parents[kids] == parent]
            if outside[kids].any():
                raise ValueError(f"node {self.names[kids[outside[kids]][0]]!r} is not "
                                 f"contained in its parent {self.names[parent]!r}")
            raise ValueError(f"node {self.names[kids[0]]!r} overlaps a sibling")
        roots = np.flatnonzero(overlap & (self.parents == -1))
        if roots.size:
            raise ValueError(f"{self._noun} {self.names[roots[0]]!r} overlaps a sibling")

    def _set_lambdas(self, lambdas: np.ndarray | None) -> None:
        self.lambdas_given = lambdas is not None
        if lambdas is None:
            self.lambdas = np.ones(self.n_nodes)
        else:
            self.lambdas = np.asarray(lambdas, dtype=float)
            if self.lambdas.size != self.n_nodes or np.any(self.lambdas < 0):
                raise ValueError(f"per-{self._noun} lambdas must be non-negative, "
                                 f"one per {self._noun}")
            if not np.isfinite(self.lambdas).all():
                raise ValueError(f"per-{self._noun} lambdas must be finite")

    def _assert_acyclic(self) -> None:
        # pointer doubling: after k steps ``up`` holds each node's 2^k-th
        # ancestor, which is -1 for every node once 2^k exceeds the depth
        up = self.parents
        for _ in range(self.n_nodes.bit_length()):
            up = np.where(up >= 0, up[up], -1)
        if np.any(up >= 0):
            raise ValueError("parent links contain a cycle")

    @property
    def n_nodes(self) -> int:
        return len(self.sets)

    def with_lambdas(self, lambdas: np.ndarray) -> "TreeStructure":
        """Copy with explicit per-node scales, sharing the sets and their flat form."""
        tree = copy.copy(self)
        tree._set_lambdas(np.asarray(lambdas, dtype=float))
        return tree


class GroupStructure(TreeStructure):
    """Disjoint, non-empty feature groups: a tree whose nodes are all roots.

    The groups are ``sets`` and their count is ``n_nodes``; the tree's
    checks and scale rule apply unchanged.
    """

    _noun = "group"

    def __init__(self, groups: list[np.ndarray], names: list[str],
                 lambdas: np.ndarray | None = None):
        groups = list(groups)
        if not groups:
            raise ValueError("need at least one group")
        super().__init__(groups, np.full(len(groups), -1), names, lambdas)


# ---------------------------------------------------------------------------
# sparse text format ("label index:value ...", 1-based on disk)


_CHUNK_BYTES = 1 << 17  # text read at a time by load_libsvm, in whole lines
_INTP = np.iinfo(np.intp)
# index tokens that every numpy release parses exactly as int() does: ASCII
# digits, one space apart, each with fewer digits than intp's largest value
_PLAIN_INDICES = re.compile(
    "[0-9]{{1,{0}}}(?: [0-9]{{1,{0}}})*".format(len(str(_INTP.max)) - 1))


def _libsvm_indices(tokens: list[str]) -> np.ndarray:
    """``tokens`` as ``intp`` by ``int()``'s rule, converted in C when they are plain digits.

    numpy's integer parser is handed only text that :data:`_PLAIN_INDICES`
    matches in full, on which it cannot overflow and has no spelling to
    read differently.  Any other list (one with a sign, an underscore,
    non-ASCII digits, an empty or overlong token, or a bad one) is
    converted by ``int()``, with its own values and its own ``ValueError``
    or ``OverflowError``.
    """
    text = " ".join(tokens)
    if _PLAIN_INDICES.fullmatch(text):
        return np.fromstring(text, np.intp, sep=" ")
    return np.fromiter(map(int, tokens), np.intp, len(tokens))


def _is_count(v) -> bool:
    """True for an integer >= 1 that is not a ``bool``."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1


def load_libsvm(path: str | Path, dim: int | None = None) -> SparseDataset:
    """Load a sparse text file into a :class:`SparseDataset`.

    Parameters
    ----------
    path : path-like
        File with one instance per line: a -1/+1 label (0/1 files are
        remapped to -1/+1 with a warning) followed by 1-based
        ``index:value`` pairs.
    dim : int, optional
        Force the feature dimension, an integer >= 1 (else ``ValueError``).
        By default the largest index seen determines it.  An index beyond
        an explicit ``dim`` is an error.

    Returns
    -------
    SparseDataset
        Rows hold 0-based, strictly increasing feature indices.

    Notes
    -----
    The file is read ``_CHUNK_BYTES`` of whole lines at a time.  A chunk's
    labels, indices and values are converted with one call each and
    checked as arrays, so a line costs little whether it holds one pair or
    thousands.  Labels and values go through Python's ``float``.  Indices
    go through numpy's integer parser in C when they are plain ASCII
    digits, and through ``int()`` otherwise (:func:`_libsvm_indices`), so
    ``int()``'s spellings, values and errors hold.  A chunk without a ``#``
    skips the comment split.  A chunk that fails a check is scanned line by
    line by :func:`_first_fault`, so faults come in file order, each naming
    its line and its label or first bad pair, exactly as a token-by-token
    reader would.
    """
    if dim is not None and not _is_count(dim):
        raise ValueError("dim must be an integer >= 1")
    path = Path(path)
    labels, counts, indices, values = [np.empty(0)], [], [np.empty(0, np.intp)], [np.empty(0)]
    line_no = 1
    with path.open() as fh, _decoding(path):
        while lines := fh.readlines(_CHUNK_BYTES):
            text = ([line.split("#", 1)[0] for line in lines]
                    if any(map(operator.contains, lines, itertools.repeat("#"))) else lines)
            rows = list(filter(None, map(str.split, text)))
            heads = list(map(list.pop, rows, itertools.repeat(0)))     # rows keep their pairs
            tokens = list(itertools.chain.from_iterable(rows))
            k = len(tokens)
            flat = ":".join(tokens).split(":") if k else []
            count = np.fromiter(map(len, rows), np.intp, len(rows))
            first = np.zeros(k + 1, dtype=bool)                         # a row's first pair
            first[np.cumsum(count) - count] = True
            try:
                label = np.fromiter(map(float, heads), float, len(heads))
                idx = _libsvm_indices(flat[0::2])
                val = np.fromiter(map(float, flat[1::2]), float, k)
            except (ValueError, OverflowError):
                good = False
            else:
                # with as many colons as tokens and one in each, the split
                # keeps every index next to its value
                good = (len(flat) == 2 * k
                        and all(map(operator.contains, tokens, itertools.repeat(":")))
                        and np.isin(label, (-1.0, 0.0, 1.0)).all()
                        and ((idx[1:] > idx[:-1]) | first[1:-1]).all()
                        and (idx[first[:-1]] >= 1).all())
            if not good:
                raise FormatError(_first_fault(path, line_no, lines))
            labels.append(label)
            counts.append(count)
            indices.append(idx)
            values.append(val)
            line_no += len(lines)
    y = np.concatenate(labels)
    if not y.size:
        raise FormatError(f"{path}: no instances found")
    if np.any(y == 0.0):
        if np.any(y == -1.0):
            raise FormatError(f"{path}: labels mix 0/1 and -1/+1 conventions")
        warnings.warn(f"{path}: remapping 0/1 labels to -1/+1", stacklevel=2)
        y = np.where(y == 0.0, -1.0, 1.0)
    indices = np.concatenate(indices)
    indices -= 1
    max_idx = int(indices.max(initial=-1))
    if dim is None:
        dim = max_idx + 1
    elif max_idx >= dim:
        raise FormatError(f"{path}: feature index {max_idx + 1} exceeds dim={dim}")
    indptr = np.zeros(y.size + 1, dtype=np.intp)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    X = sp.csr_matrix((np.concatenate(values), indices, indptr), shape=(y.size, dim))
    return SparseDataset(X, y.astype(int))


def _first_fault(path: Path, first_line_no: int, lines: list[str]) -> str:
    """Message for the first bad line of ``lines``: its label, else its first bad pair."""
    for line_no, line in enumerate(lines, start=first_line_no):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        label_s, *tokens = fields
        where = f"{path}:{line_no}"
        try:
            label = float(label_s)
        except ValueError:
            return f"{where}: invalid label {label_s!r}"
        if label not in (-1.0, 1.0, 0.0):
            return f"{where}: label {label_s!r} not in -1/+1 (or 0/1)"
        prev = 0
        for tok in tokens:
            try:
                idx_s, val_s = tok.split(":", 1)
                idx = int(idx_s)
                float(val_s)
            except ValueError:
                return f"{where}: invalid pair {tok!r}"
            if idx < 1:
                return f"{where}: index {idx} must be >= 1"
            if idx > _INTP.max:
                return f"{where}: index {idx} is too large"
            if idx <= prev:
                return f"{where}: indices must be strictly increasing"
            prev = idx
    raise AssertionError("a refused chunk holds no bad line")


def write_libsvm(data: SparseDataset, path: str | Path) -> None:
    """Write ``data`` in the sparse text format (1-based, 17 significant digits).

    X is read through :attr:`SparseDataset.design`.  An array has one row
    format, built once with the 1-based column ids written in; a CSR's rows
    are formatted from their stored column ids.
    """
    path = Path(path)
    X = data.design
    with path.open("w") as fh:
        if not sp.issparse(X):
            row_format = "%+d" + "".join(f" {j}:%.17g" for j in range(1, data.m + 1)) + "\n"
            for label, row in zip(data.y.tolist(), X):
                fh.write(row_format % (label, *row.tolist()))
            return
        cols = X.indices + 1
        indptr = X.indptr.tolist()
        for i, label in enumerate(data.y.tolist()):
            lo, hi = indptr[i], indptr[i + 1]
            row = [label] * (2 * (hi - lo) + 1)
            row[1::2] = cols[lo:hi].tolist()
            row[2::2] = X.data[lo:hi].tolist()
            fh.write(("%+d" + " %d:%.17g" * (hi - lo) + "\n") % tuple(row))


# ---------------------------------------------------------------------------
# group / tree / ground-truth files


def _parse_lambda_suffix(body: str, where: str) -> tuple[str, float | None]:
    lam = None
    if "|" in body:
        body, _, suffix = body.partition("|")
        suffix = suffix.strip()
        if not suffix.startswith("lambda="):
            raise FormatError(f"{where}: expected 'lambda=<float>' after '|'")
        try:
            lam = float(suffix[len("lambda="):])
        except ValueError:
            raise FormatError(f"{where}: invalid lambda value") from None
        if not 0 <= lam < np.inf:
            raise FormatError(f"{where}: lambda must be a finite non-negative number")
    return body, lam


def _parse_indices(body: str, where: str) -> np.ndarray:
    try:
        ids = [int(t) for t in body.split()]
    except ValueError:
        raise FormatError(f"{where}: invalid feature index") from None
    if not ids:
        raise FormatError(f"{where}: empty feature list")
    if min(ids) < 0:
        raise FormatError(f"{where}: negative feature index")
    if (top := max(ids)) > _INTP.max:
        raise FormatError(f"{where}: index {top} is too large")
    return np.asarray(ids, dtype=np.intp)


def _load_sets(path: str | Path, head_form: str, kind: str, parse_head, build):
    """Read the ``<head>: i1 i2 ... [| lambda=<float>]`` lines of a group or tree file.

    ``parse_head(head, where)`` checks the text before ``:``.  ``build(heads,
    sets, lambdas)`` makes the structure; its ``ValueError`` becomes a
    :class:`FormatError`.  ``lambdas`` is None unless some line sets one, and
    a line without one gets 1.
    """
    path = Path(path)
    heads, sets, lambdas = [], [], []
    with path.open() as fh, _decoding(path):
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            if ":" not in line:
                raise FormatError(f"{where}: expected '{head_form}: i1 i2 ...'")
            head, _, body = line.partition(":")
            heads.append(parse_head(head, where))
            body, lam = _parse_lambda_suffix(body, where)
            sets.append(_parse_indices(body, where))
            lambdas.append(lam)
    if not sets:
        raise FormatError(f"{path}: no {kind} found")
    given = any(lam is not None for lam in lambdas)
    try:
        return build(heads, sets,
                     np.asarray([1.0 if lam is None else lam for lam in lambdas]) if given else None)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def load_groups(path: str | Path) -> GroupStructure:
    """Load disjoint groups from lines ``name: i1 i2 ... [| lambda=<float>]``.

    Feature indices are 0-based.  A missing lambda defaults to 1 for that
    group; the structure carries explicit lambdas only if any line sets one.
    """
    seen: set[str] = set()

    def parse_head(head: str, where: str) -> str:
        name = head.strip()
        if not name:
            raise FormatError(f"{where}: empty group name")
        if name in seen:
            raise FormatError(f"{where}: duplicate group name {name!r}")
        seen.add(name)
        return name

    return _load_sets(path, "name", "groups", parse_head,
                      lambda names, groups, lambdas: GroupStructure(groups, names, lambdas))


def load_tree(path: str | Path) -> TreeStructure:
    """Load a hierarchy from lines ``name parent: i1 i2 ... [| lambda=<float>]``.

    ``parent`` is the name of an earlier node or the literal ``ROOT``.
    Feature indices are 0-based; node ids follow file order.
    """
    by_name: dict[str, int] = {}

    def parse_head(head: str, where: str) -> tuple[str, int]:
        parts = head.split()
        if len(parts) != 2:
            raise FormatError(f"{where}: expected 'name parent' before ':'")
        name, parent = parts
        if name in by_name:
            raise FormatError(f"{where}: duplicate node name {name!r}")
        if parent != "ROOT" and parent not in by_name:
            raise FormatError(f"{where}: unknown parent {parent!r}")
        by_name[name] = len(by_name)
        return name, -1 if parent == "ROOT" else by_name[parent]

    return _load_sets(path, "name parent", "nodes", parse_head, lambda heads, sets, lambdas:
                      TreeStructure(sets, np.asarray([p for _, p in heads]),
                                    [name for name, _ in heads], lambdas))


def load_ground_truth(path: str | Path, m: int) -> GroundTruth:
    """Load 0-based ``index weight`` lines into a length-``m`` weight vector."""
    path = Path(path)
    w = np.zeros(m)
    with path.open() as fh, _decoding(path):
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise FormatError(f"{path}:{line_no}: expected 'index weight'")
            try:
                idx = int(parts[0])
                val = float(parts[1])
            except ValueError:
                raise FormatError(f"{path}:{line_no}: invalid index or weight") from None
            if not 0 <= idx < m:
                raise FormatError(f"{path}:{line_no}: index {idx} outside [0, {m})")
            w[idx] = val
    return GroundTruth(w)


def write_ground_truth(truth: GroundTruth, path: str | Path) -> None:
    path = Path(path)
    with path.open("w") as fh:
        for idx in truth.support:
            fh.write(f"{int(idx)} {truth.weights[idx]:.17g}\n")


# ---------------------------------------------------------------------------
# scaling priors


def compute_scaling_prior(data: SparseDataset, policy: str = "ones",
                          col_sq: np.ndarray | None = None) -> np.ndarray:
    """Per-feature scale vector.

    ``"ones"`` gives all ones.  ``"inverse_norm"`` gives the reciprocal
    Euclidean column norm so every scaled column has unit norm; all-zero
    columns map to scale 0.  The norms come from ``col_sq``, X's column
    sums of squares (:func:`_column_sq_sums`) when the caller holds them
    already, else from one read of X.
    """
    if policy == "ones":
        return np.ones(data.m)
    if policy == "inverse_norm":
        return _inverse_norms(_column_sq_sums(data) if col_sq is None else col_sq)
    raise ValueError(f"unknown scaling policy {policy!r}")


def _inverse_norms(sq_sums: np.ndarray) -> np.ndarray:
    """``1 / sqrt(sq_sums)``, and 0 where a sum is 0 (or, overflowed, infinite)."""
    norms = np.sqrt(sq_sums)
    return np.divide(1.0, norms, out=np.zeros(norms.size), where=norms > 0)


def _inverse_set_norms(col_sq: np.ndarray, tree: TreeStructure) -> np.ndarray:
    """Reciprocal Frobenius norm of each of ``tree``'s set blocks (0 for an all-zero block).

    ``col_sq`` holds X's column sums of squares.  The sets of each size
    ``k`` are gathered from the flat ``members`` as one ``(sets, k)`` array
    and summed along its rows: numpy adds a contiguous row pairwise, in the
    order ``col_sq[s].sum()`` adds set ``s``, so one gather and one sum per
    distinct size give each set's bits without a loop over the sets.
    ``np.add.reduceat`` would add each set in sequence and move the last bits.
    """
    sizes = np.diff(tree.starts, append=tree.members.size)
    order = np.argsort(sizes, kind="stable")
    sums = np.empty(sizes.size)
    for sets in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        rows = tree.starts[sets, None] + np.arange(sizes[sets[0]])
        sums[sets] = col_sq[tree.members[rows]].sum(axis=1)
    return _inverse_norms(sums)


# ---------------------------------------------------------------------------
# synthetic data (reproducible PCG64 streams)


def _truth_from_rng(rng: np.random.Generator, m: int, k: int, weighting: int) -> GroundTruth:
    support = rng.choice(m, size=k, replace=False)
    base = 1.0 - rng.random(k)              # uniform on (0, 1]
    if weighting == 1:
        vals = base
    elif weighting == 2:
        vals = base ** 0.3
    elif weighting == 3:
        vals = base ** 3
    else:
        raise ValueError("weighting must be 1, 2, or 3")
    w = np.zeros(m)
    w[support] = vals
    return GroundTruth(w)


def _draw_dataset(rng: np.random.Generator, n: int, w: np.ndarray) -> SparseDataset:
    """``n`` standard-normal rows from ``rng``, labeled ``sign(X w)`` with ``sign(0) = +1``.

    The draws, ``rng.standard_normal((n, w.size))``, are the stored array
    itself.  Draws holding a ``0.0`` or ``-0.0``, which a Gaussian stream
    does not give in practice, are stored as any array holding a zero is:
    as scipy's CSR of them.
    """
    full = np.empty((n, w.size))
    rng.standard_normal(out=full)
    y = np.where(full @ w >= 0, 1, -1)
    if np.count_nonzero(full) == full.size:
        return SparseDataset._of_draws(full, y)
    return SparseDataset(full, y)


def generate_synthetic(n: int, m: int, k: int, weighting: int = 1,
                       seed: int = 0) -> tuple[SparseDataset, GroundTruth]:
    """Gaussian design with a sparse ground-truth weight vector.

    ``X`` has iid standard-normal entries.  ``k`` support positions are
    drawn uniformly without replacement; their weights are uniform on
    (0, 1], raised elementwise to the power 0.3 (``weighting=2``) or 3
    (``weighting=3``).  Labels are ``sign(X w)`` with ``sign(0) = +1``.

    Reproducible via numpy's PCG64: the stream is seeded with
    ``[seed, 0]``, so the companion test stream ``[seed, 1]`` used by
    :func:`generate_test_set` is independent of it.

    Memory: the draws are stored as drawn, so a set (this one or
    :func:`generate_test_set`'s) costs 8 bytes per cell and no copy of
    ``X`` is made.  Reading ``.X`` adds the CSR's column ids, 4 bytes per
    cell with 32-bit indices; no fit or prediction reads it.
    """
    if not (0 < k <= m):
        raise ValueError("need 0 < k <= m")
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng([seed, 0])
    truth = _truth_from_rng(rng, m, k, weighting)
    return _draw_dataset(rng, n, truth.weights), truth


def generate_test_set(truth: GroundTruth, n: int, seed: int = 0) -> SparseDataset:
    """Fresh draw from the same distribution, labeled by ``truth``.

    Uses the PCG64 stream ``[seed, 1]``, independent of the training
    stream for the same seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _draw_dataset(np.random.default_rng([seed, 1]), n, truth.weights)
