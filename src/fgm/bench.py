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
from .dataset import (FormatError, GroundTruth, SparseDataset, _is_count, generate_synthetic,
                      generate_test_set, load_ground_truth, load_libsvm)
from .engine import Model, SolverConfig, evaluate_recovery, fgm_train, predict, save_model
from .loss import LossKind

CSV_COLUMNS = ["method", "setting", "seed", "accuracy", "support", "recovered",
               "budget", "outer_iters", "seconds"]
# the keys each method reads from its entry, besides "name" and "id"
_METHOD_KEYS = {
    "fgm": ("target_support", *(f.name for f in fields(SolverConfig))),
    "l1": ("reg", "target_support", "tol", "loss", "C", "eps", "max_iter"),
    "l2-full": ("loss", "C", "eps", "max_iter"),
    "fgm-debias": ("base", "loss", "C_debias"),
    "l1-debias": ("base", "loss", "C_debias"),
}
_METHODS = tuple(_METHOD_KEYS)
# the JSON type each method-entry value must have; a boolean is none of them
_VALUE_TYPES = {
    **dict.fromkeys(("budget", "max_outer", "max_inner", "max_iter", "target_support"),
                    (int, "an integer")),
    **dict.fromkeys(("C", "C_debias", "reg", "tol", "eps", "eps_apg", "eps_outer"),
                    ((int, float), "a number")),
    **dict.fromkeys(("loss", "lambda_policy", "base"), (str, "a string")),
}


def _check_outputs(*paths, directory=None) -> list[Path]:
    """Refuse outputs that no run could write; return the file paths given (None skipped).

    Outputs that resolve to one path (``directory`` included), an output
    under a file output, a file path that names an existing directory, a
    ``directory`` that names an existing file and a path under an existing
    file all fail here.  The CLI's commands and :func:`run_config` call it
    before any work, so a refused run leaves nothing behind and costs no fit.
    """
    files = [Path(p) for p in paths if p is not None]
    every = files + ([Path(directory)] if directory is not None else [])
    real = [Path(os.path.realpath(p)) for p in every]
    if len(set(real)) < len(real):
        raise ValueError("two of the outputs " + ", ".join(map(str, every)) + " are one file")
    real_files = set(real[:len(files)])
    for i, (path, resolved) in enumerate(zip(every, real)):
        if not real_files.isdisjoint(resolved.parents):
            raise ValueError(f"output path {path} lies under another output")
        if i < len(files) and path.is_dir():
            raise IsADirectoryError(f"output path {path} is a directory")
        if i == len(files) and path.exists() and not path.is_dir():
            raise ValueError(f"output directory {path} is an existing file")
        ancestor = next(parent for parent in path.parents if parent.exists())
        if not ancestor.is_dir():
            raise NotADirectoryError(f"output path {path} lies under {ancestor}, not a directory")
    return files


def load_config(path: str | Path) -> dict:
    path = Path(path)
    try:
        config = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
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
    synthetic = data.get("synthetic", {})
    if not isinstance(synthetic, dict):
        raise ValueError("bench config's data.synthetic must be an object")
    ints = [(f"synthetic.{key}", synthetic.get(key)) for key in ("n", "m", "k")
            if "synthetic" in data]
    ints += [(f"synthetic.{key}", synthetic[key]) for key in ("type", "n_test")
             if key in synthetic]
    ints += [("dim", data["dim"])] if data.get("dim") is not None else []
    for key, value in ints:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"bench config's data.{key} must be an integer")
    if synthetic.get("n_test", 0) < 0:
        raise ValueError("bench config's data.synthetic.n_test must be >= 0")
    for key in ("train", "test", "truth"):
        if key in data and not isinstance(data[key], str):
            raise ValueError(f"bench config's data.{key} must be a string")
    seeds = config.get("seeds")
    if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in seeds):
        raise ValueError("bench config needs a non-empty list 'seeds' of integers >= 0")
    methods = config.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ValueError("bench config needs a non-empty 'methods' list")
    ids = set()
    for spec in methods:
        if not isinstance(spec, dict):
            raise ValueError(f"bench config's method entry {spec!r} must be an object")
        name = spec.get("name")
        if name not in _METHODS:
            raise ValueError(f"unknown method name {name!r}; expected one of {_METHODS}")
        unread = sorted(set(spec) - {"name", "id", *_METHOD_KEYS[name]})
        if unread:
            raise ValueError(f"bench config's method entry {spec!r}: {name!r} does not read "
                             + ", ".join(map(repr, unread)))
        for key in _METHOD_KEYS[name]:
            types, what = _VALUE_TYPES[key]
            if key in spec and (isinstance(spec[key], bool) or not isinstance(spec[key], types)):
                raise ValueError(f"bench config's method entry {spec!r}: {key!r} must be {what}")
        if name == "l1" and (("reg" in spec) == ("target_support" in spec)
                             or "tol" in spec and "target_support" not in spec):
            raise ValueError(f"bench config's l1 entry {spec!r} needs 'reg' or 'target_support', "
                             "not both, and only a target_support sweep reads 'tol'")
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
        sid = f"fgm-B{spec.get('budget', SolverConfig.budget)}"
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
    test = load_libsvm(data_spec["test"], train.m or None) if "test" in data_spec else None
    truth = load_ground_truth(data_spec["truth"], train.m) if "truth" in data_spec else None
    return train, test, truth


def _solver_config(spec: dict) -> SolverConfig:
    return SolverConfig(**{f.name: spec[f.name] for f in fields(SolverConfig) if f.name in spec})


def _loss_kind(spec: dict, c_key: str = "C", **defaults) -> LossKind:
    """The loss an entry sets by its ``loss`` and ``c_key`` keys; the rest keep ``defaults``."""
    given = {"kind": spec["loss"]} if "loss" in spec else {}
    if c_key in spec:
        given["C"] = float(spec[c_key])
    return LossKind(**{**defaults, **given})


def fgm_target_support(train: SparseDataset, cfg: SolverConfig, target: int) -> Model:
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
        # the solver settings an entry sets; the rest keep the library's defaults
        solve = {key: spec[key] for key in ("eps", "max_iter") if key in spec}
        if name == "fgm":
            cfg = _solver_config(spec)
            if "target_support" in spec:
                model = fgm_target_support(train, cfg, int(spec["target_support"]))
            else:
                model = fgm_train(train, cfg)
            budget, outer = cfg.budget, model.n_outer
        elif name == "l1":
            kind = _loss_kind(spec, C=1.0)
            if "target_support" in spec:
                tol = {"tol": spec["tol"]} if "tol" in spec else {}
                swept = sweep_to_support(train, kind, [int(spec["target_support"])],
                                         **tol, **solve)
                sol = swept[int(spec["target_support"])].weights
            else:
                sol = l1_prox_train(train, kind, float(spec["reg"]), **solve)
            model = dense_to_model(sol, train, kind, "l1")
        elif name == "l2-full":
            kind = _loss_kind(spec)
            sol = l2_full_train(train, kind, **solve)
            model = dense_to_model(sol, train, kind, "l2-full")
        else:  # fgm-debias / l1-debias
            base = base_models[str(spec["base"])]
            kind = _loss_kind(spec, "C_debias", C=20.0)
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
    Seeds run in up to ``threads`` processes (default ``FGM_THREADS``), an
    integer >= 1 (else ``ValueError``).  Outputs that no run could write
    (:func:`_check_outputs`) raise before a directory is made or a seed runs.
    """
    validate_config(config)
    if threads is None:
        threads = thread_count()
    if not _is_count(threads):
        raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
    out_csv = Path(out_csv)
    if models_dir is None:
        models_dir = out_csv.parent / (out_csv.stem + "-models")
    models_dir = Path(models_dir)
    _check_outputs(out_csv, directory=models_dir)
    models_dir.mkdir(parents=True, exist_ok=True)
    out_csv.parent.mkdir(parents=True, exist_ok=True)
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
