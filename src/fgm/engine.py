"""Cutting-plane training loop, trained-model container, and prediction.

Training alternates two stages until convergence: an exact worst-case
search proposes the budgeted unit set most violated by the current
per-instance weights, and an accelerated proximal solve over all cached
selections updates the weights.  The loop stops when the search re-proposes
a stored set (which certifies optimality only up to the accuracy of the
last inner solve, see :func:`fgm_train`), when the subproblem optimum stops
improving, or at the iteration cap.  Lower/upper bounds on the attainable
optimum are recorded every round.

Every unit type records its model alike: a feature's weight is the sum of
``w_c * scale_c`` over its cached columns, so the model predicts on raw features.
"""

from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .blocks import ColumnCache
from .dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset,
                      TreeStructure, _column_sq_sums, _inverse_set_norms, _is_count,
                      compute_scaling_prior)
# eval_loss stays importable from here: the benchmark's tracer wraps engine.eval_loss
from .loss import (LossKind, dual_value_terms, eval_loss, margins_from_scores,  # noqa: F401
                   recover_duals)
from .subsolver import _ETA, NumericalError, _relative_change, apg_solve
from .worstcase import (PolyMap, poly_columns, poly_dim, score_features,
                        score_polynomial_streamed, score_tree_pruned, select_top_b)

MODEL_FORMAT_VERSION = 2
# the widest X a fit or a model may have: a float array of length m fits in an address
_MAX_M = sys.maxsize // 8
_SCAN_CELLS = 1 << 16   # stored values fgm_train tests for finiteness at a time


@dataclass(frozen=True)
class SolverConfig:
    """Training configuration.

    ``budget`` is the number of units added per round; ``C`` weighs the
    loss.  ``eps_apg`` stops the inner solver on relative objective
    change, ``eps_outer`` stops the outer loop likewise, ``max_outer``
    caps the rounds.  The inner step size follows the solver's own rule
    (:mod:`fgm.subsolver`).  A value out of range, a NaN among them, or a
    count or ``C`` of the wrong type (a ``bool`` included) raises
    ``ValueError`` when the configuration is built.
    """

    budget: int = 10
    C: float = 10.0
    loss: str = "squared_hinge"
    lambda_policy: str = "ones"
    eps_apg: float = 1e-4
    eps_outer: float = 1e-2
    max_outer: int = 15
    max_inner: int = 1000

    def __post_init__(self):
        if not all(map(_is_count, (self.budget, self.max_outer, self.max_inner))):
            raise ValueError("budget, max_outer, and max_inner must be integers >= 1")
        if isinstance(self.C, bool):
            raise ValueError("C must be a number")
        self.loss_kind()    # checks the loss name and C > 0
        if not (self.eps_apg >= 0 and self.eps_outer >= 0):
            raise ValueError("tolerances must be non-negative numbers")
        if self.lambda_policy not in ("ones", "inverse_norm"):
            raise ValueError(f"unknown scaling policy {self.lambda_policy!r}")

    def loss_kind(self) -> LossKind:
        return LossKind(self.loss, self.C)


@dataclass
class TraceRecord:
    """One outer round: objective, bounds, effort, and the new selection.

    ``beta = -objective`` and ``phi``, the least full dual value so far, bracket ``-F*``.
    """

    iteration: int
    objective: float
    beta: float
    phi: float
    inner_iters: int
    selected: tuple[int, ...]
    seconds: float


@dataclass
class ModelEntry:
    """One feature's weight with its scale folded in: prediction adds ``weight * x_id``."""

    id: int
    weight: float


@dataclass
class Model:
    """Trained sparse model: scale-folded feature weights, provenance and per-round trace.

    The training settings are in ``config``; ``n_outer`` is the trace's length.
    """

    mode: str
    stop_reason: str
    m: int
    units: tuple[int, ...]
    entries: list[ModelEntry]
    unit_features: dict[int, tuple[int, ...]] | None = None
    gamma: float | None = None
    r: float | None = None
    config: dict = field(default_factory=dict)
    trace: list[TraceRecord] = field(default_factory=list)
    mkl_weights: list[float] = field(default_factory=list)

    @property
    def n_outer(self) -> int:
        return len(self.trace)

    @property
    def support_size(self) -> int:
        return len(self.units)

    def feature_ids(self) -> tuple[int, ...]:
        """Raw-feature ids behind the selection (flat ids in poly mode)."""
        if self.unit_features is not None:
            out: set[int] = set()
            for feats in self.unit_features.values():
                out.update(feats)
            return tuple(sorted(out))
        return self.units


# ---------------------------------------------------------------------------
# unit types


@dataclass(frozen=True)
class _Units:
    """How one unit type is searched, materialized and recorded in the model."""

    mode: str
    propose: Callable[[np.ndarray, int], tuple]         # (alpha, budget) -> worst set's sorted ids
    members: Callable[[np.ndarray], tuple]              # ids -> (feature, scale) per cached column
    gather: Callable[[np.ndarray], np.ndarray]          # features -> their unscaled columns
    sets: list[np.ndarray] | None = None    # each group's or node's features
    gamma: float | None = None              # the poly map's, recorded in the model
    r: float | None = None


def _scale_sums(data: SparseDataset, cfg: SolverConfig, structure) -> np.ndarray | None:
    """X's column sums of squares if ``structure``'s scales come from them, else None.

    They do under the ``inverse_norm`` policy for plain features and for
    groups and trees without explicit scales.
    """
    if cfg.lambda_policy == "ones" or not (
            structure is None
            or isinstance(structure, TreeStructure) and not structure.lambdas_given):
        return None
    return _column_sq_sums(data)


def _units(data: SparseDataset, cfg: SolverConfig, structure,
           col_sq: np.ndarray | None) -> _Units:
    """The unit type of ``structure``; its closures call this module's worstcase names.

    ``col_sq`` is :func:`_scale_sums`'s, the one read of X the scales take.
    """
    if structure is None:
        lam = compute_scaling_prior(data, cfg.lambda_policy, col_sq)
        return _Units(
            "plain", lambda alpha, budget: select_top_b(score_features(alpha, data, lam), budget),
            lambda ids: (ids, lam[ids]), data.dense_columns)
    if isinstance(structure, TreeStructure):    # groups too: a tree of roots
        if (top := int(structure.members.max())) >= data.m:
            raise FormatError(f"structure references feature {top}, but data has m={data.m}")
        if col_sq is not None:
            structure = structure.with_lambdas(_inverse_set_norms(col_sq, structure))
        sets, lams = structure.sets, structure.lambdas
        return _Units(
            "group" if isinstance(structure, GroupStructure) else "tree",
            lambda alpha, budget: score_tree_pruned(alpha, data, structure, budget),
            # one column per (unit, feature): nested units repeat features
            lambda ids: (np.concatenate([sets[u] for u in ids]),
                         lams[np.repeat(ids, [sets[u].size for u in ids])]),
            data.dense_columns, sets)
    if isinstance(structure, PolyMap):
        if cfg.lambda_policy != "ones":
            raise ValueError("degree-2 features carry no scale: lambda_policy must be 'ones'")
        return _Units(
            "poly", lambda alpha, budget: score_polynomial_streamed(alpha, data, structure, budget),
            lambda ids: (ids, np.ones(ids.size)), lambda ids: poly_columns(data, ids, structure),
            gamma=structure.gamma, r=structure.r)
    raise ValueError(f"unsupported structure {type(structure).__name__}")


# ---------------------------------------------------------------------------
# bounds


def eval_bounds(alpha: np.ndarray, cache: ColumnCache, labels: np.ndarray,
                kind: LossKind) -> float:
    """Dual value over the selections stored in ``cache``, one block each, at ``alpha``.

    Takes the largest stored-selection energy plus the alpha-only dual
    terms.  A selection's energy is half the squared norm of its cached
    columns' products with ``alpha * labels``, all taken in one product
    over the distinct stored columns (``cache.T``); as scales are folded into
    the columns, it is ``0.5 * sum_{j in d_t} lambda_j^2 omega_j^2`` for
    every unit type.  When the cache holds the worst-case set for
    ``alpha``, the returned value is the full dual value there, an upper
    bound on the negated optimum of the whole problem.
    """
    if cache.offsets.size == 1:
        raise ValueError("no stored constraints")
    u = cache.T @ (alpha * labels)
    energies = 0.5 * np.add.reduceat(u * u, cache.offsets[:-1])
    return float(energies.max()) + dual_value_terms(alpha, kind)


# ---------------------------------------------------------------------------
# training


def fgm_train(data: SparseDataset, cfg: SolverConfig, structure=None) -> Model:
    """Budget-constrained feature/group selection by constraint generation.

    Parameters
    ----------
    data : SparseDataset
        Training instances with -1/+1 labels.
    cfg : SolverConfig
        Budget, loss, tolerances, and iteration caps.
    structure : None | GroupStructure | TreeStructure | PolyMap
        Selection units: raw features (default), disjoint groups, tree
        nodes, or degree-2 virtual features.

    Returns
    -------
    Model
        Aggregated weights over the union of selected units, with the
        per-round trace (objective, bounds, selection, timing).

    Notes
    -----
    Per-instance weights start at all ones.  Each round scores all units
    under the current weights, keeps the top ``budget`` as a sorted id
    tuple, caches their columns as one more block, and re-solves the
    subproblem over every stored selection, warm-started from the previous
    blocks and from the solver's step-size carry-over (:mod:`fgm.subsolver`).
    The column cache and the trace are the loop's only records: a round's
    ids are its ``TraceRecord.selected``, and the feature and scale behind
    each of its cached columns are re-derived from those ids when the model
    sums ``w_c * scale_c`` per feature.  Re-proposing a stored selection
    (ids equal to an earlier round's) means no unit set scores higher under
    the current per-instance weights, so training stops.  That certifies
    optimality only up to the accuracy of the last inner solve, which set
    those weights: at the default ``eps_apg=1e-4``,
    ``generate_synthetic(128, 256, 10, seed=0)`` with budget 5, C=1 and
    ``eps_outer=0`` stops this way with its objective 1.6% above the optimum
    and an 11% certified gap ``(phi + F) / |F|`` (8e-5 at ``eps_apg=1e-10``).
    At any ``eps_apg``, ``beta = -F <= -F* <= phi``: a restricted iterate is
    feasible for the full problem, and ``phi`` keeps the least
    :func:`eval_bounds` value, taken once the new (worst-case) block is cached.
    Data with no feature raises :class:`FormatError`, and data holding a
    non-finite value :class:`NumericalError` for outer iteration 1, before
    any search; a structure that names a feature ``>= data.m`` raises FormatError.
    When the scales come from X's column sums of squares, finite sums vouch
    for every stored value (a NaN or an infinity makes its column's sum NaN
    or infinite), so X is scanned for non-finite values only when a sum is
    not finite; other fits scan X, ``_SCAN_CELLS`` stored values at a
    time, before any other read.
    Every kernel reads :attr:`SparseDataset.design`, as :func:`predict`
    does: a view of the stored array (stored values as stored) or the
    stored CSR.  No copy of X is made and ``data`` is unchanged.
    The union of selections has size between ``budget`` and
    ``n_outer * budget`` whenever enough units exist.
    """
    if not data.m:
        raise FormatError("training data has no features (m=0)")
    col_sq = _scale_sums(data, cfg, structure)
    vouched = col_sq is not None and np.isfinite(col_sq).all()
    design = data.design
    values = design.data if sp.issparse(design) else design.reshape(-1)
    if not vouched and not all(np.isfinite(values[lo:lo + _SCAN_CELLS]).all()
                               for lo in range(0, values.size, _SCAN_CELLS)):
        raise NumericalError("outer iteration 1: training data holds non-finite values",
                             iteration=0)
    kind = cfg.loss_kind()
    units = _units(data, cfg, structure, col_sq)

    alpha = np.ones(data.n)
    labels = data.y.astype(float)
    cache = ColumnCache.empty(data.n)
    phi = float("inf")          # certified upper bound: the least full dual value seen
    trace: list[TraceRecord] = []
    w = np.zeros(0)             # flat weights in the layout of cache
    tau_prev: float | None = None
    stop_reason = "max_outer"

    for it in range(1, cfg.max_outer + 1):
        started = time.perf_counter()
        proposal = units.propose(alpha, cfg.budget)
        if any(t.selected == proposal for t in trace):
            stop_reason = "duplicate"
            break
        feats, lams = units.members(np.asarray(proposal, dtype=np.intp))
        cache = cache.extend(units.gather(feats) * lams, feats, lams)
        # the new block is the worst case at alpha, so this is the full dual value there
        phi = min(phi, eval_bounds(alpha, cache, labels, kind))

        warm = np.concatenate([w, np.zeros(feats.size)])    # zeros for the new block
        L_init = None if tau_prev is None else _ETA ** 2 * tau_prev
        try:
            result = apg_solve(cache, labels, kind, warm=warm, L_init=L_init,
                               eps=cfg.eps_apg, max_inner=cfg.max_inner)
        except NumericalError as exc:
            raise NumericalError(f"outer iteration {it}: {exc}",
                                 iteration=exc.iteration) from exc
        w, tau_prev = result.weights, result.tau
        f_curr = result.objectives[-1]
        alpha = recover_duals(margins_from_scores(result.scores, labels, kind), kind)
        trace.append(TraceRecord(it, f_curr, -f_curr, phi, result.n_iters, proposal,
                                 time.perf_counter() - started))
        if len(trace) > 1 and _relative_change(trace[-2].objective, f_curr) <= cfg.eps_outer:
            stop_reason = "outer_tol"
            break

    return _assemble_model(data, cfg, units, cache, w, stop_reason, trace)


def _assemble_model(data: SparseDataset, cfg: SolverConfig, units: _Units, cache: ColumnCache,
                    w: np.ndarray, stop_reason: str, trace: list[TraceRecord]) -> Model:
    # w_c * scale_c summed per feature in column order, each round's columns re-derived
    # from its ids; the sums start at -0.0, so a lone -0.0 stays -0.0
    rounds = [units.members(np.asarray(t.selected, dtype=np.intp)) for t in trace]
    feats, scales = (np.concatenate(part) for part in zip(*rounds))
    ids, owner = np.unique(feats, return_inverse=True)
    sums = np.full(ids.size, -0.0)
    np.add.at(sums, owner, w * scales)
    entries = [ModelEntry(fid, s) for fid, s in zip(ids.tolist(), sums.tolist())]

    selected = tuple(sorted({u for t in trace for u in t.selected}))
    unit_features = None if units.sets is None else {
        u: tuple(int(f) for f in units.sets[u]) for u in selected}

    norms = cache.block_norms(w)
    total = float(norms.sum())
    shares = (norms / total).tolist() if total > 0 else [0.0] * norms.size

    return Model(units.mode, stop_reason, data.m, selected, entries, unit_features,
                 units.gamma, units.r, asdict(cfg), trace, [float(s) for s in shares])


# ---------------------------------------------------------------------------
# prediction and evaluation


def predict(model: Model, data: SparseDataset) -> tuple[np.ndarray, float]:
    """Predicted labels and accuracy on ``data``.

    Scores are ``sum over entries of weight * x_id`` (virtual-feature
    values in polynomial mode); ``sign(0)`` counts as +1.  An empty model
    predicts +1 everywhere.  The scores are ``data.design @ v``: one BLAS
    product over the stored array (stored values as stored), or the sparse
    product over the stored CSR; degree-2 models read their raw columns
    by the same rule (:func:`~fgm.worstcase.poly_columns`).  A non-finite
    score, from a non-finite value in ``data`` or in the model, raises
    :class:`NumericalError`; an entry outside ``data``'s features, or a
    polynomial model on data of a raw width other than ``model.m``,
    :class:`FormatError`.
    """
    labels = np.where(_scores(model, data) >= 0, 1, -1)
    accuracy = float(np.mean(labels == data.y))
    return labels, accuracy


def _scores(model: Model, data: SparseDataset) -> np.ndarray:
    """The scores that :func:`predict` labels, each checked finite."""
    # object ids compare as Python ints, so an id of any size is reported, not overflowed
    ids = np.array([e.id for e in model.entries], dtype=object)
    weights = np.array([e.weight for e in model.entries], dtype=float)
    if model.mode == "poly":
        if data.m != model.m:
            raise FormatError(
                f"data has {data.m} raw features but the model's virtual map expects {model.m}")
        scores = poly_columns(data, ids, PolyMap(model.gamma, model.r)) @ weights
    else:
        bad = np.flatnonzero((ids < 0) | (ids >= data.m))
        if bad.size:
            raise FormatError(f"model feature {ids[bad[0]]} out of range for m={data.m}")
        v = np.zeros(data.m)
        v[ids.astype(np.intp)] = weights
        scores = data.design @ v
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite score: the data or the model holds a non-finite value")
    return scores


def evaluate_recovery(model: Model, truth: GroundTruth) -> int:
    """Number of true-support features among the selected units (plain mode)."""
    if model.mode != "plain":
        raise ValueError("recovery evaluation requires a plain-feature model")
    return int(len(set(model.units).intersection(truth.support.tolist())))


# ---------------------------------------------------------------------------
# model file I/O (versioned JSON; deterministic content)


def model_to_dict(model: Model) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "mode": model.mode,
        "stop_reason": model.stop_reason,
        "m": model.m,
        "units": list(model.units),
        "entries": [{"id": e.id, "weight": e.weight} for e in model.entries],
        "unit_features": ({str(k): list(v) for k, v in model.unit_features.items()}
                          if model.unit_features is not None else None),
        "gamma": model.gamma,
        "r": model.r,
        "config": model.config,
        "trace": [{"iteration": t.iteration, "objective": t.objective, "beta": t.beta,
                   "phi": t.phi, "inner_iters": t.inner_iters,
                   "selected": list(t.selected)} for t in model.trace],
        "mkl_weights": model.mkl_weights,
    }


def _json_int(value, what: str) -> int:
    # int() would load 2.7 as 2, and true or "7" as an integer
    if type(value) is not int:
        raise FormatError(f"model {what} {value!r} is not an integer")
    return value


def _json_ints(values, what: str) -> tuple[int, ...]:
    return tuple(_json_int(v, what) for v in values)


def _json_float(value, what: str) -> float:
    # float() would load true as 1.0 and "2.5" as 2.5
    if type(value) not in (int, float):
        raise FormatError(f"model {what} {value!r} is not a number")
    return float(value)


def _json_key(key: str) -> int:
    # int() would load "1_1" as 11 and " 7" as 7
    if not re.fullmatch(r"-?[0-9]+", key):
        raise FormatError(f"model unit_features key {key!r} is not an integer")
    return int(key)


def model_from_dict(payload: dict) -> Model:
    try:
        version = payload["format_version"]
        if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
            raise FormatError(f"unsupported model format version {version!r}")
        if payload["mode"] not in ("plain", "group", "tree", "poly"):
            raise FormatError(f"unknown model mode {payload['mode']!r}")
        m = _json_int(payload["m"], "m")
        if not 1 <= m <= _MAX_M:
            raise FormatError(f"model m={m} outside [1, {_MAX_M}]")
        # a version-1 entry kept its scale apart, and prediction multiplied the two
        entries = [ModelEntry(_json_int(e["id"], "entry id"),
                              _json_float(e["weight"], "entry weight")
                              * (_json_float(e["lambda"], "entry lambda") if version == 1 else 1.0))
                   for e in payload["entries"]]
        gamma, r = payload.get("gamma"), payload.get("r")
        if payload["mode"] == "poly":
            gamma, r = _json_float(gamma, "gamma"), _json_float(r, "r")
            PolyMap(gamma, r)
            dim = poly_dim(m)
            for e in entries:
                if not 0 <= e.id < dim:
                    raise FormatError(f"model entry id {e.id} outside [0, {dim})")
        else:
            for key, value in (("gamma", gamma), ("r", r)):
                if value is not None:
                    raise FormatError(f"a {payload['mode']} model's {key} must be null, "
                                      f"got {value!r}")
        unit_features = payload.get("unit_features")
        if unit_features is not None:
            unit_features = {_json_key(k): _json_ints(v, "unit feature")
                             for k, v in unit_features.items()}
        trace = [TraceRecord(_json_int(t["iteration"], "trace iteration"),
                             *(_json_float(t[key], f"trace {key}")
                               for key in ("objective", "beta", "phi")),
                             _json_int(t["inner_iters"], "trace inner_iters"),
                             _json_ints(t["selected"], "trace selection"), 0.0)
                 for t in payload.get("trace", [])]
        return Model(
            payload["mode"], payload["stop_reason"], m,
            _json_ints(payload["units"], "unit"), entries, unit_features,
            gamma, r, payload.get("config", {}),
            trace, [_json_float(s, "mkl weight") for s in payload.get("mkl_weights", [])],
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"invalid model file: {exc}") from exc


def save_model(model: Model, path: str | Path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), sort_keys=True, indent=1) + "\n")


def load_model(path: str | Path) -> Model:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return model_from_dict(payload)
