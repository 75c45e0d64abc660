"""Benchmark harness: reproducible multi-method comparison runs.

A JSON config names a dataset (synthetic spec or file paths), a list of
seeds, and a list of method settings.  Every (method setting, seed) pair
produces one CSV row with accuracy, support size, recovered true features
(when a ground truth exists), and timing, plus a saved model file whose
content is bit-identical across reruns with the same seeds.

Methods: ``fgm`` (budgeted selection, optionally steered to a target
support size), ``l1`` (fixed ``reg`` or swept to a target support),
``l2-full``, and ``fgm-debias`` / ``l1-debias`` which refit an earlier
setting's support with a large-C l2 classifier.

Seeds are independent, so they may run in a process pool; the pool size
comes from the FGM_THREADS environment variable (default 1) and results
are identical for any pool size.
"""

from __future__ import annotations

import concurrent.futures
import csv
import json
import os
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .baseline import dense_to_model, l1_prox_train, retrain_unbiased, sweep_to_support, l2_full_train
from .dataset import (FormatError, GroundTruth, SparseDataset, generate_synthetic,
                      generate_test_set, load_ground_truth, load_libsvm)
from .engine import Model, SolverConfig, evaluate_recovery, fgm_train, predict, save_model
from .loss import LossKind

CSV_COLUMNS = ["method", "setting", "seed", "accuracy", "support", "recovered",
               "budget", "outer_iters", "seconds"]
_METHODS = ("fgm", "l1", "l2-full", "fgm-debias", "l1-debias")


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        config = json.loads(path.read_text())
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    if not isinstance(config, dict):
        raise ValueError("bench config must be a JSON object")
    data = config.get("data")
    if not isinstance(data, dict) or not ("synthetic" in data or "train" in data):
        raise ValueError("bench config needs data.synthetic or data.train")
    seeds = config.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(isinstance(s, int) for s in seeds):
        raise ValueError("bench config needs a non-empty integer list 'seeds'")
    methods = config.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ValueError("bench config needs a non-empty 'methods' list")
    ids = set()
    for spec in methods:
        name = spec.get("name")
        if name not in _METHODS:
            raise ValueError(f"unknown method name {name!r}; expected one of {_METHODS}")
        sid = setting_id(spec)
        if sid in ids:
            raise ValueError(f"duplicate setting id {sid!r}")
        ids.add(sid)
        if name.endswith("-debias"):
            base = spec.get("base")
            if base not in ids:
                raise ValueError(f"debias setting {sid!r} must name an earlier setting as 'base'")


def setting_id(spec: dict) -> str:
    if "id" in spec:
        return str(spec["id"])
    name = spec["name"]
    if name == "fgm":
        sid = f"fgm-B{spec.get('budget', 10)}"
        if "target_support" in spec:
            sid += f"-s{spec['target_support']}"
        return sid
    if name == "l1":
        if "target_support" in spec:
            return f"l1-s{spec['target_support']}"
        return f"l1-r{spec.get('reg', 1.0):g}"
    if name == "l2-full":
        return "l2-full"
    return f"{spec.get('base', 'base')}-debias"


def _data_for_seed(data_spec: dict, seed: int):
    if "synthetic" in data_spec:
        syn = data_spec["synthetic"]
        train, truth = generate_synthetic(int(syn["n"]), int(syn["m"]), int(syn["k"]),
                                          int(syn.get("type", 1)), seed)
        n_test = int(syn.get("n_test", 0))
        test = generate_test_set(truth, n_test, seed) if n_test > 0 else None
        return train, test, truth
    train = load_libsvm(data_spec["train"], data_spec.get("dim"))
    test = load_libsvm(data_spec["test"], train.m) if "test" in data_spec else None
    truth = load_ground_truth(data_spec["truth"], train.m) if "truth" in data_spec else None
    return train, test, truth


def _solver_config(spec: dict, seed: int) -> SolverConfig:
    base = SolverConfig(budget=int(spec.get("budget", 10)), seed=seed)
    overrides = {f.name: spec[f.name] for f in fields(SolverConfig)
                 if f.name in spec and f.name not in ("budget", "seed")}
    return replace(base, **overrides)


def fgm_target_support(train: SparseDataset, cfg: SolverConfig, target: int,
                       tol: float = 0.05) -> Model:
    """Steer the selection loop to a support size near ``target``.

    Runs the full loop once, finds the round whose cumulative selection
    size is closest to the target, and re-runs with that round as the
    iteration cap; determinism makes the re-run an exact prefix.  The
    budget bounds the per-round growth, so a budget at most a tenth of the
    target keeps the best round within a 5% window whenever the loop runs
    long enough to cross it.
    """
    probe = fgm_train(train, cfg)
    seen: set[int] = set()
    sizes: list[int] = []
    for rec in probe.trace:
        seen.update(rec.selected)
        sizes.append(len(seen))
    best = min(range(len(sizes)), key=lambda i: (abs(sizes[i] - target), i))
    if best + 1 == len(sizes):
        return probe
    return fgm_train(train, replace(cfg, max_outer=best + 1))


def _accuracy(model: Model, train: SparseDataset, test: SparseDataset | None) -> float:
    _, acc = predict(model, test if test is not None else train)
    return acc


def _recovered(model: Model, truth: GroundTruth | None) -> int | None:
    if truth is None or model.mode != "plain":
        return None
    return evaluate_recovery(model, truth)


def run_seed(config: dict, seed: int, models_dir: Path) -> list[dict]:
    """All method settings for one seed; returns CSV rows."""
    train, test, truth = _data_for_seed(config["data"], seed)
    rows: list[dict] = []
    base_models: dict[str, Model] = {}
    for spec in config["methods"]:
        name = spec["name"]
        sid = setting_id(spec)
        started = time.perf_counter()
        budget = ""
        outer = ""
        if name == "fgm":
            cfg = _solver_config(spec, seed)
            if "target_support" in spec:
                model = fgm_target_support(train, cfg, int(spec["target_support"]),
                                           float(spec.get("tol", 0.05)))
            else:
                model = fgm_train(train, cfg)
            budget, outer = model.budget, model.n_outer
        elif name == "l1":
            kind = LossKind(spec.get("loss", "squared_hinge"), float(spec.get("C", 1.0)))
            eps = float(spec.get("eps", 1e-7))
            max_iter = int(spec.get("max_iter", 2000))
            if "target_support" in spec:
                swept = sweep_to_support(train, kind, [int(spec["target_support"])],
                                         tol=float(spec.get("tol", 0.05)),
                                         eps=eps, max_iter=max_iter)
                sol = swept[int(spec["target_support"])].weights
            else:
                sol = l1_prox_train(train, kind, float(spec["reg"]), eps=eps, max_iter=max_iter)
            model = dense_to_model(sol, train, kind, "l1")
        elif name == "l2-full":
            kind = LossKind(spec.get("loss", "squared_hinge"), float(spec.get("C", 10.0)))
            sol = l2_full_train(train, kind, eps=float(spec.get("eps", 1e-6)),
                                max_iter=int(spec.get("max_iter", 1000)))
            model = dense_to_model(sol, train, kind, "l2-full")
        else:  # fgm-debias / l1-debias
            base = base_models[str(spec["base"])]
            kind = LossKind(spec.get("loss", "squared_hinge"), float(spec.get("C_debias", 20.0)))
            model = retrain_unbiased(train, base.feature_ids(), kind)
        seconds = time.perf_counter() - started
        base_models[sid] = model
        save_model(model, models_dir / f"{sid}-seed{seed}.model.json")
        recovered = _recovered(model, truth)
        rows.append({
            "method": name,
            "setting": sid,
            "seed": seed,
            "accuracy": f"{_accuracy(model, train, test):.6f}",
            "support": model.support_size,
            "recovered": "" if recovered is None else recovered,
            "budget": budget,
            "outer_iters": outer,
            "seconds": f"{seconds:.3f}",
        })
    return rows


def _run_seed_task(args: tuple) -> list[dict]:
    config, seed, models_dir = args
    return run_seed(config, seed, Path(models_dir))


def thread_count() -> int:
    raw = os.environ.get("FGM_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"FGM_THREADS must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("FGM_THREADS must be >= 1")
    return value


def run_config(config: dict, out_csv: str | Path, models_dir: str | Path | None = None,
               threads: int | None = None) -> list[dict]:
    """Run every (setting, seed) pair and write the results CSV.

    Returns the rows, sorted by (method, setting, seed).  Model files land
    in ``models_dir`` (default: ``<out stem>-models`` next to the CSV).
    """
    validate_config(config)
    out_csv = Path(out_csv)
    if models_dir is None:
        models_dir = out_csv.parent / (out_csv.stem + "-models")
    models_dir = Path(models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    if threads is None:
        threads = thread_count()
    seeds = config["seeds"]
    if threads > 1 and len(seeds) > 1:
        tasks = [(config, seed, str(models_dir)) for seed in seeds]
        with concurrent.futures.ProcessPoolExecutor(max_workers=min(threads, len(seeds))) as pool:
            chunks = list(pool.map(_run_seed_task, tasks))
    else:
        chunks = [run_seed(config, seed, models_dir) for seed in seeds]
    rows = [row for chunk in chunks for row in chunk]
    rows.sort(key=lambda r: (r["method"], r["setting"], r["seed"]))
    with out_csv.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    return rows
