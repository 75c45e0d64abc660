"""Cutting-plane training loop, trained-model container, and prediction.

Training alternates two stages until convergence: an exact worst-case
search proposes the budgeted unit set most violated by the current
per-instance weights, and an accelerated proximal solve over all cached
selections updates the weights.  The loop stops when the search re-proposes
a stored set (a certificate of global optimality for the selection
problem), when the subproblem optimum stops improving, or at the iteration
cap.  Certified lower/upper bounds on the attainable optimum are recorded
every round.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .blocks import BlockWeights, ColumnCache
from .dataset import (FormatError, GroundTruth, GroupStructure, SparseDataset,
                      TreeStructure, compute_scaling_prior, group_scaling_prior,
                      _inverse_set_norms)
# eval_loss stays importable from here: the benchmark's tracer wraps engine.eval_loss
from .loss import (LossKind, dual_value_terms, eval_loss, margins_from_scores,  # noqa: F401
                   recover_duals)
from .subsolver import NumericalError, _relative_change, apg_solve
from .worstcase import (Constraint, poly_columns, score_features, score_groups,
                        score_polynomial_streamed, score_tree_pruned, select_top_b)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class PolyMap:
    """Degree-2 polynomial feature map parameters."""

    gamma: float = 1.0
    r: float = 1.0
    block: int = 64

    def __post_init__(self):
        if self.gamma <= 0 or self.r < 0 or self.block < 1:
            raise ValueError("need gamma > 0, r >= 0, block >= 1")


@dataclass(frozen=True)
class SolverConfig:
    """Training configuration.

    ``budget`` is the number of units added per round; ``C`` weighs the
    loss.  ``eps_apg`` stops the inner solver on relative objective
    change, ``eps_outer`` stops the outer loop likewise, ``max_outer``
    caps the rounds.  ``L0`` overrides the initial inverse step size
    (default ``0.1 * n * C``).  ``seed`` is recorded for provenance;
    training itself is deterministic.
    """

    budget: int = 10
    C: float = 10.0
    loss: str = "squared_hinge"
    lambda_policy: str = "ones"
    eps_apg: float = 1e-4
    eps_outer: float = 1e-2
    max_outer: int = 15
    max_inner: int = 1000
    eta: float = 0.8
    L0: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.budget < 1 or self.max_outer < 1 or self.max_inner < 1:
            raise ValueError("budget, max_outer, and max_inner must be >= 1")
        if self.C <= 0 or not 0 < self.eta < 1:
            raise ValueError("need C > 0 and 0 < eta < 1")
        if self.eps_apg < 0 or self.eps_outer < 0:
            raise ValueError("tolerances must be non-negative")
        if self.lambda_policy not in ("ones", "inverse_norm"):
            raise ValueError(f"unknown scaling policy {self.lambda_policy!r}")

    def loss_kind(self) -> LossKind:
        return LossKind(self.loss, self.C)


@dataclass
class ActiveSet:
    """Stored selections and their cached, scale-applied dense columns.

    Per cached column, ``col_feature`` holds the underlying raw-feature id
    (the flat virtual id in polynomial mode) and ``col_lambda`` the scale
    folded into the column.  The cache is append-only; blocks are never
    mutated after creation.
    """

    cache: ColumnCache
    constraints: list[Constraint] = field(default_factory=list)
    col_feature: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    col_lambda: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def has(self, constraint: Constraint) -> bool:
        return any(c.ids == constraint.ids for c in self.constraints)

    def extend(self, constraint: Constraint, columns: np.ndarray, features: np.ndarray,
               lams: np.ndarray) -> "ActiveSet":
        return ActiveSet(
            self.cache.extend(columns),
            self.constraints + [constraint],
            np.concatenate([self.col_feature, features]),
            np.concatenate([self.col_lambda, lams]),
        )

    def units(self) -> tuple[int, ...]:
        """Sorted union of all selected unit ids."""
        out: set[int] = set()
        for c in self.constraints:
            out.update(c.ids)
        return tuple(sorted(out))


@dataclass
class TraceRecord:
    """One outer round: objective, bounds, effort, and the new selection."""

    iteration: int
    objective: float
    beta: float
    phi: float
    inner_iters: int
    selected: tuple[int, ...]
    seconds: float


@dataclass
class BoundsTrace:
    """Certified bound sequences: beta rises to the optimum, phi falls to it."""

    beta: list[float] = field(default_factory=list)
    phi: list[float] = field(default_factory=list)

    def record(self, beta: float, phi_candidate: float) -> None:
        phi = min(self.phi[-1], phi_candidate) if self.phi else phi_candidate
        self.beta.append(beta)
        self.phi.append(phi)


@dataclass
class ModelEntry:
    """Aggregated weight on one unit: prediction adds ``weight * lam * x_id``."""

    id: int
    weight: float
    lam: float


@dataclass
class Model:
    """Trained sparse model plus its provenance and per-round trace."""

    mode: str
    budget: int
    n_outer: int
    stop_reason: str
    loss: LossKind
    lambda_policy: str
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
    propose: Callable[[np.ndarray, int], Constraint]    # (alpha, budget) -> most violated set
    columns: Callable[[np.ndarray], tuple]              # ids -> (columns, features, scales)
    sets: list[np.ndarray] | None = None    # each group's or node's features
    fold_scale: bool = False                # fold node scales into the model's weights
    gamma: float | None = None              # the poly map's, recorded in the model
    r: float | None = None


def _set_columns(data: SparseDataset, sets: list[np.ndarray], lams: np.ndarray):
    def columns(ids: np.ndarray):
        feats = np.concatenate([sets[unit] for unit in ids])
        scales = lams[np.repeat(ids, [sets[unit].size for unit in ids])]
        distinct, where = np.unique(feats, return_inverse=True)
        # one pass over X; np.take keeps the columns C-ordered, which fixes the
        # summation order of the bound that fgm_train computes from them
        return np.take(data.dense_columns(distinct), where, axis=1) * scales, feats, scales
    return columns


def _units(data: SparseDataset, cfg: SolverConfig, structure) -> _Units:
    """The unit type of ``structure``; its closures call this module's worstcase names."""
    if structure is None:
        lam = compute_scaling_prior(data, cfg.lambda_policy)
        return _Units(
            "plain", lambda alpha, budget: select_top_b(score_features(alpha, data, lam), budget),
            lambda ids: (data.dense_columns(ids) * lam[ids], ids, lam[ids]))
    if isinstance(structure, GroupStructure):
        lam = group_scaling_prior(data, structure, cfg.lambda_policy)
        return _Units(
            "group",
            lambda alpha, budget: select_top_b(score_groups(alpha, data, structure, lam), budget),
            _set_columns(data, structure.groups, lam), structure.groups)
    if isinstance(structure, TreeStructure):
        if cfg.lambda_policy != "ones" and not structure.lambdas_given:
            structure = structure.with_lambdas(_inverse_set_norms(data, structure.sets))
        return _Units(
            "tree", lambda alpha, budget: score_tree_pruned(alpha, data, structure, budget),
            _set_columns(data, structure.sets, structure.lambdas), structure.sets, fold_scale=True)
    if isinstance(structure, PolyMap):
        if cfg.lambda_policy != "ones":
            raise ValueError("degree-2 features carry no scale: lambda_policy must be 'ones'")
        gamma, r = structure.gamma, structure.r
        return _Units(
            "poly",
            lambda alpha, budget: score_polynomial_streamed(alpha, data, gamma, r, budget,
                                                            structure.block),
            lambda ids: (poly_columns(data, ids, gamma, r), ids, np.ones(ids.size)),
            gamma=gamma, r=r)
    raise ValueError(f"unsupported structure {type(structure).__name__}")


# ---------------------------------------------------------------------------
# bounds


def eval_bounds(alpha: np.ndarray, active: ActiveSet, labels: np.ndarray,
                kind: LossKind) -> float:
    """Dual value over the stored selections at the given ``alpha``.

    Takes the largest stored-selection energy plus the alpha-only dual
    terms.  A selection's energy is half the squared norm of its cached
    columns' products with ``alpha * labels``; as scales are folded into
    the columns, it is ``0.5 * sum_{j in d_t} lambda_j^2 omega_j^2`` for
    every unit type.  Minimizing this over feasible ``alpha`` gives the
    negated subproblem optimum, so at a (near-)exact subproblem solve the
    returned value is a lower bound on the negated full optimum, rising
    toward it as selections accumulate; an inexact solve can overshoot by
    its remaining dual gap.
    """
    if not active.constraints:
        raise ValueError("no stored constraints")
    u = active.cache.matrix.T @ (alpha * labels)
    energies = 0.5 * np.add.reduceat(u * u, active.cache.offsets[:-1])
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
    under the current weights, keeps the top ``budget``, and re-solves the
    subproblem over every stored selection, warm-started from the previous
    blocks with the inverse step size carried over as ``eta^2 * tau``.
    Re-proposing a stored selection proves no unit set scores higher, so
    training stops with a global certificate for the selection problem.
    Data holding a non-finite value raises :class:`NumericalError` for
    outer iteration 1 before any search.  Data dense enough that an array
    of X takes no more memory than its CSR are trained on a per-fit array
    copy (:meth:`SparseDataset.fit_view`), so the search and the column
    extraction run through BLAS; the caller's ``data`` is not changed.
    The union of selections has size between ``budget`` and
    ``n_outer * budget`` whenever enough units exist.
    """
    if not np.isfinite(data.X.data).all():
        raise NumericalError("outer iteration 1: training data holds non-finite values",
                             iteration=0)
    data = data.fit_view()
    kind = cfg.loss_kind()
    units = _units(data, cfg, structure)

    alpha = np.ones(data.n)
    labels = data.y.astype(float)
    active = ActiveSet(ColumnCache.empty(data.n))
    bounds = BoundsTrace()
    trace: list[TraceRecord] = []
    w: BlockWeights | None = None
    tau_prev: float | None = None
    f_prev: float | None = None
    stop_reason = "max_outer"

    for it in range(1, cfg.max_outer + 1):
        started = time.perf_counter()
        proposal = units.propose(alpha, cfg.budget)
        if active.has(proposal):
            stop_reason = "duplicate"
            break
        cols, feats, scales = units.columns(np.asarray(proposal.ids, dtype=np.intp))
        z = alpha * labels
        new_energy = 0.5 * float(np.sum((cols.T @ z) ** 2))
        phi_candidate = new_energy + dual_value_terms(alpha, kind)
        active = active.extend(proposal, cols, feats, scales)

        warm = (w.zero_extend(active.cache.offsets) if w is not None
                else BlockWeights.zeros(active.cache.offsets))
        L_init = cfg.L0 if tau_prev is None else cfg.eta ** 2 * tau_prev
        try:
            result = apg_solve(active.cache, labels, kind, warm=warm, L_init=L_init,
                               eta=cfg.eta, eps=cfg.eps_apg, max_inner=cfg.max_inner)
        except NumericalError as exc:
            raise NumericalError(f"outer iteration {it}: {exc}",
                                 iteration=exc.iteration) from exc
        w, tau_prev = result.weights, result.tau
        f_curr = result.objectives[-1]
        alpha = recover_duals(margins_from_scores(result.scores, labels, kind), kind)
        bounds.record(eval_bounds(alpha, active, labels, kind), phi_candidate)
        trace.append(TraceRecord(it, f_curr, bounds.beta[-1], bounds.phi[-1],
                                 result.n_iters, proposal.ids,
                                 time.perf_counter() - started))
        if f_prev is not None and _relative_change(f_prev, f_curr) <= cfg.eps_outer:
            stop_reason = "outer_tol"
            break
        f_prev = f_curr

    if w is None:
        raise ValueError("training produced no selection")
    return _assemble_model(data, cfg, units, active, w, stop_reason, trace)


def _assemble_model(data: SparseDataset, cfg: SolverConfig, units: _Units,
                    active: ActiveSet, w: BlockWeights, stop_reason: str,
                    trace: list[TraceRecord]) -> Model:
    agg: dict[int, ModelEntry] = {}
    for col in range(w.flat.size):
        fid = int(active.col_feature[col])
        weight = float(w.flat[col])
        lam_col = float(active.col_lambda[col])
        if units.fold_scale:
            weight, lam_col = weight * lam_col, 1.0
        entry = agg.get(fid)
        if entry is None:
            agg[fid] = ModelEntry(fid, weight, lam_col)
        else:
            entry.weight += weight
    entries = [agg[fid] for fid in sorted(agg)]

    unit_features = None if units.sets is None else {
        int(u): tuple(int(f) for f in units.sets[u]) for u in active.units()}

    norms = w.norms()
    total = float(norms.sum())
    shares = (norms / total).tolist() if total > 0 else [0.0] * norms.size

    return Model(units.mode, cfg.budget, len(active.constraints), stop_reason,
                 cfg.loss_kind(), cfg.lambda_policy, data.m, active.units(),
                 entries, unit_features, units.gamma, units.r, asdict(cfg), trace,
                 [float(s) for s in shares])


# ---------------------------------------------------------------------------
# prediction and evaluation


def predict(model: Model, data: SparseDataset) -> tuple[np.ndarray, float]:
    """Predicted labels and accuracy on ``data``.

    Scores are ``sum over entries of weight * lam * x_id`` (virtual-feature
    values in polynomial mode); ``sign(0)`` counts as +1.  An empty model
    predicts +1 everywhere.  A non-finite score, from a non-finite value in
    ``data`` or in the model, raises :class:`NumericalError`.
    """
    if model.mode == "poly":
        ids = np.asarray([e.id for e in model.entries], dtype=np.intp)
        weights = np.asarray([e.weight for e in model.entries])
        if ids.size:
            cols = poly_columns(data, ids, model.gamma, model.r)
            scores = cols @ weights
        else:
            scores = np.zeros(data.n)
    else:
        v = np.zeros(data.m)
        for e in model.entries:
            if not 0 <= e.id < data.m:
                raise FormatError(f"model feature {e.id} out of range for m={data.m}")
            v[e.id] = e.weight * e.lam
        scores = data.X @ v
    if not np.isfinite(scores).all():
        raise NumericalError("non-finite score: the data or the model holds a non-finite value")
    labels = np.where(scores >= 0, 1, -1)
    accuracy = float(np.mean(labels == data.y))
    return labels, accuracy


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
        "budget": model.budget,
        "n_outer": model.n_outer,
        "stop_reason": model.stop_reason,
        "loss": {"kind": model.loss.kind, "C": model.loss.C},
        "lambda_policy": model.lambda_policy,
        "m": model.m,
        "units": list(model.units),
        "entries": [{"id": e.id, "weight": e.weight, "lambda": e.lam} for e in model.entries],
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


def model_from_dict(payload: dict) -> Model:
    try:
        version = payload["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise FormatError(f"unsupported model format version {version!r}")
        entries = [ModelEntry(int(e["id"]), float(e["weight"]), float(e["lambda"]))
                   for e in payload["entries"]]
        unit_features = payload.get("unit_features")
        if unit_features is not None:
            unit_features = {int(k): tuple(int(f) for f in v) for k, v in unit_features.items()}
        trace = [TraceRecord(int(t["iteration"]), float(t["objective"]), float(t["beta"]),
                             float(t["phi"]), int(t["inner_iters"]),
                             tuple(int(i) for i in t["selected"]), 0.0)
                 for t in payload.get("trace", [])]
        return Model(
            payload["mode"], int(payload["budget"]), int(payload["n_outer"]),
            payload["stop_reason"],
            LossKind(payload["loss"]["kind"], float(payload["loss"]["C"])),
            payload["lambda_policy"], int(payload["m"]),
            tuple(int(u) for u in payload["units"]), entries, unit_features,
            payload.get("gamma"), payload.get("r"), payload.get("config", {}),
            trace, [float(s) for s in payload.get("mkl_weights", [])],
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
    return model_from_dict(payload)
