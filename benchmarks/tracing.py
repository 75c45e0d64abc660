"""Outside-in tracing of fgm's layers for the traced benchmark run.

The tracer replaces each public name where its caller looks it up (for
example ``fgm.engine.apg_solve``, which ``fgm_train`` reads from its own
module, or ``SparseDataset.dense_columns``, a class attribute) with a
wrapper that records a span, and puts the originals back afterwards.  The
program itself is not edited, so an untraced operation runs exactly the
code a user runs.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _apg(args, kwargs, out) -> dict:
    cache = args[0]
    return {"iters": out.n_iters, "cache_bytes": cache.n_instances * int(cache.offsets[-1]) * 8}


def _extend(args, kwargs, out) -> dict:
    # extend copies the old matrix and the new block into a fresh array
    return {"cols": int(args[1].shape[1]), "bytes_copied": int(out.matrix.size) * 8}


def _columns(args, kwargs, out) -> dict:
    return {"cols": int(out.shape[1]), "ids": [int(i) for i in args[1]]}


def _poly_search(args, kwargs, out) -> dict:
    from fgm.worstcase import poly_dim
    return {"virtual": poly_dim(args[1].m)}


def _file_read(args, kwargs, out) -> dict:
    return {"bytes": os.path.getsize(args[0])}


def _file_written(args, kwargs, out) -> dict:
    return {"bytes": os.path.getsize(args[1])}


def _targets():
    """(owner, attribute, span name, per-call info) for every wrapped name."""
    import fgm.cli as cli
    import fgm.engine as engine
    from fgm.blocks import ColumnCache
    from fgm.dataset import SparseDataset

    return [
        (engine, "fgm_train", "engine.fgm_train", None),
        (engine, "predict", "engine.predict", None),
        (engine, "save_model", "engine.save_model", None),
        (engine, "load_model", "engine.load_model", None),
        (engine, "apg_solve", "subsolver.apg_solve", _apg),
        (engine, "eval_bounds", "engine.eval_bounds", None),
        (engine, "eval_loss", "loss.eval_loss", None),
        (engine, "recover_duals", "loss.recover_duals", None),
        (engine, "score_features", "worstcase.score_features", None),
        (engine, "select_top_b", "worstcase.select_top_b", None),
        (engine, "score_tree_pruned", "worstcase.score_tree_pruned", None),
        (engine, "score_polynomial_streamed", "worstcase.score_polynomial_streamed",
         _poly_search),
        (engine, "poly_columns", "worstcase.poly_columns", _columns),
        (cli, "fgm_train", "engine.fgm_train", None),
        (cli, "predict", "engine.predict", None),
        (cli, "save_model", "engine.save_model", None),
        (cli, "load_model", "engine.load_model", None),
        (cli, "load_libsvm", "dataset.load_libsvm", _file_read),
        (cli, "write_libsvm", "dataset.write_libsvm", _file_written),
        (cli, "generate_synthetic", "dataset.generate_synthetic", None),
        (cli, "generate_test_set", "dataset.generate_test_set", None),
        (SparseDataset, "dense_columns", "dataset.dense_columns", _columns),
        (ColumnCache, "extend", "blocks.ColumnCache.extend", _extend),
    ]


class Tracer:
    """Records nested spans while installed; does nothing otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = -1
        self._stack: list[int] = []
        self._active = False

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a call the benchmark makes itself (e.g. ``fgm.cli.main``)."""
        if not self._active:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrap(self, name: str, fn, info):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                idx = len(self.spans) - 1
                out = fn(*args, **kwargs)
            if info is not None:
                self.spans[idx].info = info(args, kwargs, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for one traced operation, then restore the originals."""
        saved = []
        for owner, attr, name, info in _targets():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, info))
        self.run += 1
        self._active = True
        try:
            yield
        finally:
            self._active = False
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **asdict(s)}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.seconds
    return own


def subtree(root: int, spans: list[Span]) -> list[int]:
    """Indices of ``root`` and of every span nested under it.

    Spans are stored in start order, so a parent always precedes its children.
    """
    members = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in members:
            members.add(i)
    return sorted(members)


# Spans that become per-layer metrics, each reported as ``<name>.s`` (inclusive
# seconds in one operation) and ``<name>.calls``.
LAYERS = (
    "engine.fgm_train", "subsolver.apg_solve", "dataset.dense_columns",
    "blocks.ColumnCache.extend", "worstcase.score_features", "worstcase.select_top_b",
    "worstcase.score_tree_pruned", "worstcase.score_polynomial_streamed",
    "worstcase.poly_columns", "loss.eval_loss", "loss.recover_duals", "engine.eval_bounds",
    "engine.predict", "engine.save_model", "engine.load_model", "dataset.load_libsvm",
    "dataset.write_libsvm", "dataset.generate_synthetic", "dataset.generate_test_set",
    "cli.generate", "cli.train", "cli.predict",
)
MB = 1e6


_UNITS = {"s": "s", "self_s": "s", "calls": "count", "iters": "count", "cols": "count",
          "rounds": "count", "ms_per_iter": "ms", "cache_mb": "MB", "mb_copied": "MB",
          "mvf_per_s": "Mvf/s", "mb_per_s": "MB/s", "unique_col_ratio": "ratio"}


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from the suffix of its name."""
    return _UNITS[metric.rsplit(".", 1)[1]]


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], run: int) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics, counters and failed checks for one traced operation."""
    own = self_times(spans)
    mine = [i for i, s in enumerate(spans) if s.run == run]
    total = {name: 0.0 for name in LAYERS}
    calls = {name: 0 for name in LAYERS}
    info: dict[str, list[dict]] = {name: [] for name in LAYERS}
    for i in mine:
        s = spans[i]
        total[s.name] += s.seconds
        calls[s.name] += 1
        info[s.name].append(s.info)

    problems = []
    fit_spans: set[int] = set()
    for root in (i for i in mine if spans[i].name == "engine.fgm_train"):
        members = subtree(root, spans)
        fit_spans.update(members)
        if abs(sum(own[i] for i in members) - spans[root].seconds) > 1e-6:
            problems.append("self times do not add up to the traced fit time")

    def summed(name: str, key: str) -> int:
        return sum(d[key] for d in info[name])

    extracted = set()
    for i in fit_spans:
        if spans[i].name in ("dataset.dense_columns", "worstcase.poly_columns"):
            extracted.update(spans[i].info["ids"])
    counters = {
        "rounds": calls["subsolver.apg_solve"],
        "inner_iters": summed("subsolver.apg_solve", "iters"),
        "cached_cols": summed("blocks.ColumnCache.extend", "cols"),
        "distinct_features": len(extracted),
        "virtual_features": summed("worstcase.score_polynomial_streamed", "virtual"),
        "bytes_read": summed("dataset.load_libsvm", "bytes"),
        "bytes_written": summed("dataset.write_libsvm", "bytes"),
    }

    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.s"] = total[name]
        metrics[f"{name}.calls"] = calls[name]
    apg = "subsolver.apg_solve"
    poly = "worstcase.score_polynomial_streamed"
    metrics.update({
        f"{apg}.iters": counters["inner_iters"],
        f"{apg}.ms_per_iter": 1000.0 * _ratio(total[apg], counters["inner_iters"]),
        f"{apg}.cache_mb": max((d["cache_bytes"] for d in info[apg]), default=0) / MB,
        "dataset.dense_columns.cols": summed("dataset.dense_columns", "cols"),
        "blocks.ColumnCache.extend.mb_copied":
            summed("blocks.ColumnCache.extend", "bytes_copied") / MB,
        f"{poly}.mvf_per_s": _ratio(counters["virtual_features"] / MB, total[poly]),
        "dataset.load_libsvm.mb_per_s":
            _ratio(counters["bytes_read"] / MB, total["dataset.load_libsvm"]),
        "dataset.write_libsvm.mb_per_s":
            _ratio(counters["bytes_written"] / MB, total["dataset.write_libsvm"]),
        "engine.fgm_train.self_s": sum(own[i] for i in mine if spans[i].name == "engine.fgm_train"),
        "engine.fgm_train.rounds": counters["rounds"],
        "engine.fgm_train.unique_col_ratio":
            _ratio(counters["distinct_features"], counters["cached_cols"]),
        "cli.self_s": sum(own[i] for i in mine if spans[i].name.startswith("cli.")),
    })
    return metrics, counters, problems
