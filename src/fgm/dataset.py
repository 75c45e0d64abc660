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

import copy
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp


class FormatError(ValueError):
    """Raised for malformed data, group, tree, or ground-truth files."""


# ---------------------------------------------------------------------------
# core containers


@dataclass
class SparseDataset:
    """Binary classification data: CSR matrix ``X`` and labels ``y`` in {-1,+1}.

    Rows are instances; column indices are 0-based features.  ``X`` is kept
    in canonical CSR form (sorted, duplicate-free indices per row).
    """

    X: sp.csr_matrix
    y: np.ndarray

    def __post_init__(self):
        if not sp.issparse(self.X):
            self.X = sp.csr_matrix(np.asarray(self.X, dtype=float))
        self.X = self.X.tocsr().astype(float)
        self.X.sum_duplicates()
        self.X.sort_indices()
        self.y = np.asarray(self.y, dtype=int)
        if self.y.ndim != 1 or self.y.size != self.X.shape[0]:
            raise ValueError("labels must be 1-D with one entry per row")
        bad = np.setdiff1d(np.unique(self.y), [-1, 1])
        if bad.size:
            raise ValueError(f"labels must be -1/+1, found {bad.tolist()}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def m(self) -> int:
        return self.X.shape[1]

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of every feature column, shape ``(m,)``."""
        sq = np.asarray(self.X.multiply(self.X).sum(axis=0)).ravel()
        return np.sqrt(sq)

    def dense_columns(self, ids: np.ndarray) -> np.ndarray:
        """Extract columns ``ids`` as a dense ``(n, len(ids))`` matrix."""
        ids = np.asarray(ids, dtype=np.intp)
        if ids.size and (ids.min() < 0 or ids.max() >= self.m):
            raise ValueError("feature index out of range")
        return np.asarray(self.X[:, ids].todense())


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
class GroupStructure:
    """Disjoint, non-empty feature groups with optional per-group scale."""

    groups: list[np.ndarray]
    names: list[str]
    lambdas: np.ndarray | None = None

    def __post_init__(self):
        self.groups = [np.sort(np.asarray(g, dtype=np.intp)) for g in self.groups]
        if len(self.names) != len(self.groups):
            raise ValueError("groups and names must have equal length")
        if not self.groups:
            raise ValueError("need at least one group")
        seen: set[int] = set()
        for name, g in zip(self.names, self.groups):
            if g.size == 0:
                raise ValueError(f"group {name!r} is empty")
            if np.any(g < 0):
                raise ValueError(f"group {name!r} has a negative feature index")
            if np.unique(g).size != g.size or seen.intersection(g.tolist()):
                raise ValueError(f"group {name!r} overlaps another group")
            seen.update(g.tolist())
        if self.lambdas is not None:
            self.lambdas = np.asarray(self.lambdas, dtype=float)
            if self.lambdas.size != len(self.groups) or np.any(self.lambdas < 0):
                raise ValueError("per-group lambdas must be non-negative, one per group")

    @property
    def n_groups(self) -> int:
        return len(self.groups)


@dataclass
class TreeStructure:
    """Hierarchical feature groups: each node's set contains its children's.

    Nodes are identified by their 0-based position in ``sets``.  ``parents``
    holds the parent node id, or -1 for roots.  Sibling sets are disjoint and
    every child set is contained in its parent's set, so any two node sets
    are either nested or disjoint.
    """

    sets: list[np.ndarray]
    parents: np.ndarray
    names: list[str]
    lambdas: np.ndarray | None = None

    def __post_init__(self):
        self.sets = [np.sort(np.asarray(s, dtype=np.intp)) for s in self.sets]
        self.parents = np.asarray(self.parents, dtype=np.intp)
        n = len(self.sets)
        if self.parents.size != n or len(self.names) != n:
            raise ValueError("sets, parents, and names must have equal length")
        self.children: list[list[int]] = [[] for _ in range(n)]
        for node, parent in enumerate(self.parents):
            if parent == node or parent >= n or parent < -1:
                raise ValueError(f"node {self.names[node]!r} has an invalid parent")
            if self.sets[node].size == 0:
                raise ValueError(f"node {self.names[node]!r} is empty")
            if np.any(self.sets[node] < 0):
                raise ValueError(f"node {self.names[node]!r} has a negative feature index")
            if parent >= 0:
                self.children[parent].append(node)
        self.roots = [i for i in range(n) if self.parents[i] == -1]
        if not self.roots:
            raise ValueError("tree has no root node")
        # local laminarity checks: child within parent, siblings disjoint.
        for node in range(n):
            kids = self.children[node]
            for c in kids:
                if np.setdiff1d(self.sets[c], self.sets[node]).size:
                    raise ValueError(
                        f"node {self.names[c]!r} is not contained in its parent {self.names[node]!r}"
                    )
            self._check_disjoint(kids)
        self._check_disjoint(self.roots)
        self._assert_acyclic()
        self._set_lambdas(self.lambdas)

    def _set_lambdas(self, lambdas: np.ndarray | None) -> None:
        self.lambdas_given = lambdas is not None
        if lambdas is None:
            self.lambdas = np.ones(self.n_nodes)
        else:
            self.lambdas = np.asarray(lambdas, dtype=float)
            if self.lambdas.size != self.n_nodes or np.any(self.lambdas < 0):
                raise ValueError("per-node lambdas must be non-negative, one per node")

    def _check_disjoint(self, nodes: list[int]) -> None:
        seen: set[int] = set()
        for node in nodes:
            vals = self.sets[node].tolist()
            if seen.intersection(vals):
                raise ValueError(f"node {self.names[node]!r} overlaps a sibling")
            seen.update(vals)

    def _assert_acyclic(self) -> None:
        for node in range(len(self.sets)):
            slow, steps = node, 0
            while self.parents[slow] != -1:
                slow = self.parents[slow]
                steps += 1
                if steps > len(self.sets):
                    raise ValueError("parent links contain a cycle")

    @property
    def n_nodes(self) -> int:
        return len(self.sets)

    def with_lambdas(self, lambdas: np.ndarray) -> "TreeStructure":
        """Copy of this tree with explicit per-node scales (structure not re-validated)."""
        tree = copy.copy(self)
        tree._set_lambdas(np.asarray(lambdas, dtype=float))
        return tree


# ---------------------------------------------------------------------------
# sparse text format ("label index:value ...", 1-based on disk)


def load_libsvm(path: str | Path, dim: int | None = None) -> SparseDataset:
    """Load a sparse text file into a :class:`SparseDataset`.

    Parameters
    ----------
    path : path-like
        File with one instance per line: a -1/+1 label (0/1 files are
        remapped to -1/+1 with a warning) followed by 1-based
        ``index:value`` pairs.
    dim : int, optional
        Force the feature dimension.  By default the largest index seen
        determines it.  An index beyond an explicit ``dim`` is an error.

    Returns
    -------
    SparseDataset
        Rows hold 0-based, strictly increasing feature indices.
    """
    path = Path(path)
    labels: list[float] = []
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    with path.open() as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise FormatError(f"{path}:{line_no}: invalid label {parts[0]!r}") from None
            if label not in (-1.0, 1.0, 0.0):
                raise FormatError(f"{path}:{line_no}: label {parts[0]!r} not in -1/+1 (or 0/1)")
            labels.append(label)
            prev = -1
            for tok in parts[1:]:
                try:
                    idx_s, val_s = tok.split(":", 1)
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise FormatError(f"{path}:{line_no}: invalid pair {tok!r}") from None
                if idx < 1:
                    raise FormatError(f"{path}:{line_no}: index {idx} must be >= 1")
                if idx - 1 <= prev:
                    raise FormatError(f"{path}:{line_no}: indices must be strictly increasing")
                prev = idx - 1
                indices.append(idx - 1)
                values.append(val)
            indptr.append(len(indices))
    if not labels:
        raise FormatError(f"{path}: no instances found")
    y = np.asarray(labels)
    if np.any(y == 0.0):
        if np.any(y == -1.0):
            raise FormatError(f"{path}: labels mix 0/1 and -1/+1 conventions")
        warnings.warn(f"{path}: remapping 0/1 labels to -1/+1", stacklevel=2)
        y = np.where(y == 0.0, -1.0, 1.0)
    max_idx = max(indices, default=-1)
    if dim is None:
        dim = max_idx + 1
    elif max_idx >= dim:
        raise FormatError(f"{path}: feature index {max_idx + 1} exceeds dim={dim}")
    X = sp.csr_matrix(
        (np.asarray(values), np.asarray(indices, dtype=np.intp), np.asarray(indptr, dtype=np.intp)),
        shape=(len(labels), dim),
    )
    return SparseDataset(X, y.astype(int))


def write_libsvm(data: SparseDataset, path: str | Path) -> None:
    """Write ``data`` in the sparse text format (1-based, 17 significant digits)."""
    path = Path(path)
    X = data.X
    with path.open("w") as fh:
        for i in range(data.n):
            row = [f"{int(data.y[i]):+d}"]
            for j, v in zip(
                X.indices[X.indptr[i]:X.indptr[i + 1]],
                X.data[X.indptr[i]:X.indptr[i + 1]],
            ):
                row.append(f"{j + 1}:{v:.17g}")
            fh.write(" ".join(row) + "\n")


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
        if lam < 0:
            raise FormatError(f"{where}: lambda must be non-negative")
    return body, lam


def _parse_indices(body: str, where: str) -> np.ndarray:
    try:
        ids = np.asarray([int(t) for t in body.split()], dtype=np.intp)
    except ValueError:
        raise FormatError(f"{where}: invalid feature index") from None
    if ids.size == 0:
        raise FormatError(f"{where}: empty feature list")
    if np.any(ids < 0):
        raise FormatError(f"{where}: negative feature index")
    return ids


def _load_sets(path: str | Path, head_form: str, kind: str, parse_head, build):
    """Read the ``<head>: i1 i2 ... [| lambda=<float>]`` lines of a group or tree file.

    ``parse_head(head, where)`` checks the text before ``:``.  ``build(heads,
    sets, lambdas)`` makes the structure; its ``ValueError`` becomes a
    :class:`FormatError`.  ``lambdas`` is None unless some line sets one, and
    a line without one gets 1.
    """
    path = Path(path)
    heads, sets, lambdas = [], [], []
    with path.open() as fh:
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
    with path.open() as fh:
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


def compute_scaling_prior(data: SparseDataset, policy: str = "ones") -> np.ndarray:
    """Per-feature scale vector.

    ``"ones"`` gives all ones.  ``"inverse_norm"`` gives the reciprocal
    Euclidean column norm so every scaled column has unit norm; all-zero
    columns map to scale 0.
    """
    if policy == "ones":
        return np.ones(data.m)
    if policy == "inverse_norm":
        norms = data.column_norms()
        out = np.zeros(data.m)
        nz = norms > 0
        out[nz] = 1.0 / norms[nz]
        return out
    raise ValueError(f"unknown scaling policy {policy!r}")


def group_scaling_prior(data: SparseDataset, groups: GroupStructure, policy: str = "ones") -> np.ndarray:
    """Per-group scale vector.

    Explicit per-group lambdas from the group file take precedence.  The
    ``"inverse_norm"`` policy uses the reciprocal Frobenius norm of the
    group's column block (0 for an all-zero block).
    """
    if groups.lambdas is not None:
        return groups.lambdas.copy()
    if policy == "ones":
        return np.ones(groups.n_groups)
    if policy == "inverse_norm":
        return _inverse_set_norms(data, groups.groups)
    raise ValueError(f"unknown scaling policy {policy!r}")


def _inverse_set_norms(data: SparseDataset, sets: list[np.ndarray]) -> np.ndarray:
    """Reciprocal Frobenius norm of each set's column block (0 for an all-zero block)."""
    col_sq = np.asarray(data.X.multiply(data.X).sum(axis=0)).ravel()
    out = np.zeros(len(sets))
    for j, s in enumerate(sets):
        norm = np.sqrt(col_sq[s].sum())
        out[j] = 1.0 / norm if norm > 0 else 0.0
    return out


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


def _labels(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    scores = X @ w
    return np.where(scores >= 0, 1, -1)


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
    """
    if not (0 < k <= m):
        raise ValueError("need 0 < k <= m")
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng([seed, 0])
    truth = _truth_from_rng(rng, m, k, weighting)
    X = rng.standard_normal((n, m))
    y = _labels(X, truth.weights)
    return SparseDataset(sp.csr_matrix(X), y), truth


def generate_test_set(truth: GroundTruth, n: int, seed: int = 0) -> SparseDataset:
    """Fresh draw from the same distribution, labeled by ``truth``.

    Uses the PCG64 stream ``[seed, 1]``, independent of the training
    stream for the same seed.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng([seed, 1])
    X = rng.standard_normal((n, truth.m))
    y = _labels(X, truth.weights)
    return SparseDataset(sp.csr_matrix(X), y)
