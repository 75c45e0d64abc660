"""Command-line interface: generate, train, predict, eval, bench.

Every run writes its primary artifact plus a JSON manifest recording the
command, parameters, sha256 of each input file, output paths, and wall
time.  Exit codes: 0 success, 2 usage error, 3 data-format error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import scipy.sparse as sp

from . import __version__
from .bench import _check_outputs, load_config, run_config, thread_count
from .dataset import (FormatError, SparseDataset, generate_synthetic, generate_test_set,
                      load_ground_truth, load_groups, load_libsvm, load_tree,
                      write_ground_truth, write_libsvm)
from .engine import (_MAX_M, PolyMap, SolverConfig, TraceRecord, evaluate_recovery,
                     fgm_train, load_model, predict, save_model)
from .subsolver import NumericalError

_LOSS_NAMES = {"squared-hinge": "squared_hinge", "logistic": "logistic"}
_LAMBDA_NAMES = {"ones": "ones", "inverse-norm": "inverse_norm"}


# ---------------------------------------------------------------------------
# manifests and small writers


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, command: str, parameters: dict, inputs: list,
                    outputs: list, seconds: float) -> None:
    payload = {
        "command": command,
        "parameters": parameters,
        "inputs": [{"path": str(p), "sha256": _sha256(Path(p))} for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_seconds": round(seconds, 3),
        "tool": {"name": "fgm", "version": __version__},
    }
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _manifest_path(primary_output: Path) -> Path:
    return Path(str(primary_output) + ".manifest.json")


def _write_trace(path: Path, trace: list[TraceRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iter", "F", "beta", "phi", "inner_iters", "selected", "seconds"])
        for rec in trace:
            writer.writerow([rec.iteration, repr(rec.objective), repr(rec.beta),
                             repr(rec.phi), rec.inner_iters,
                             " ".join(str(i) for i in rec.selected),
                             f"{rec.seconds:.6f}"])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def _make_parents(*paths) -> None:
    """Check every output path given (None skipped), then make their directories.

    Called before a command's first write with all of its outputs, manifest
    included, so a refused output leaves nothing behind.
    """
    for path in _check_outputs(*paths):
        path.parent.mkdir(parents=True, exist_ok=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.n_test < 0:
        raise ValueError("n_test must be >= 0")
    prefix = Path(args.out_prefix)
    train_path = Path(f"{prefix}.train.libsvm")
    truth_path = Path(f"{prefix}.truth.txt")
    test_path = Path(f"{prefix}.test.libsvm") if args.n_test > 0 else None
    manifest = Path(f"{prefix}.manifest.json")
    _check_outputs(train_path, truth_path, test_path, manifest)
    train, truth = generate_synthetic(args.n, args.m, args.k, args.type, args.seed)
    _make_parents(train_path, truth_path, test_path, manifest)
    write_libsvm(train, train_path)
    write_ground_truth(truth, truth_path)
    outputs = [train_path, truth_path]
    if test_path is not None:
        write_libsvm(generate_test_set(truth, args.n_test, args.seed), test_path)
        outputs.append(test_path)
    params = {"n": args.n, "m": args.m, "k": args.k, "type": args.type,
              "n_test": args.n_test, "seed": args.seed}
    _write_manifest(manifest, "generate", params, [], outputs, time.perf_counter() - started)
    return 0


def _structure_from_args(args: argparse.Namespace):
    poly = {key: value for key, value in
            (("gamma", args.gamma), ("r", args.r), ("block", args.block)) if value is not None}
    if args.poly:
        return PolyMap(**poly)
    if poly:
        raise ValueError("only --poly reads " + ", ".join(f"--{key}" for key in poly))
    if not (args.groups or args.tree):
        return None
    return load_groups(args.groups) if args.groups else load_tree(args.tree)


def cmd_train(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    _check_outputs(out, args.trace, _manifest_path(out))
    data = load_libsvm(args.data, args.dim)
    structure = _structure_from_args(args)
    cfg = SolverConfig(
        budget=args.budget, C=args.C, loss=_LOSS_NAMES[args.loss],
        lambda_policy=_LAMBDA_NAMES[args.lambda_policy], eps_apg=args.eps_apg,
        eps_outer=args.eps_outer, max_outer=args.max_outer, max_inner=args.max_inner,
    )
    # training keeps a few float arrays of length m; an m whose byte size no
    # address can hold is a data error, and so is one the machine cannot hold
    if data.m > _MAX_M:
        raise FormatError(f"feature dimension m={data.m} is too large to train on")
    try:
        model = fgm_train(data, cfg, structure)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        raise FormatError(f"training on n={data.n} x m={data.m} data ran out of memory{detail}"
                          ) from exc
    _make_parents(out, args.trace, _manifest_path(out))
    save_model(model, out)
    outputs = [out]
    if args.trace:
        _write_trace(Path(args.trace), model.trace)
        outputs.append(Path(args.trace))
    inputs = [args.data] + [p for p in (args.groups, args.tree) if p]
    params = {**asdict(cfg), "mode": model.mode, "stop_reason": model.stop_reason}
    if args.poly:
        params.update(asdict(structure))
    _write_manifest(_manifest_path(out), "train", params, inputs, outputs,
                    time.perf_counter() - started)
    return 0


def _load_data_for_model(args: argparse.Namespace, model) -> SparseDataset:
    data = load_libsvm(args.data, args.dim)
    if data.m < model.m:
        # sparse test files often stop short of the model's last feature
        X = data.X
        data = SparseDataset(sp.csr_matrix((X.data, X.indices, X.indptr),
                                           shape=(data.n, model.m)), data.y)
    return data


def cmd_predict(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    data = _load_data_for_model(args, model)
    labels, accuracy = predict(model, data)
    metrics = {"accuracy": accuracy, "n_instances": data.n,
               "support": model.support_size, "mode": model.mode}
    out = Path(args.out)
    _make_parents(out, args.labels_out, _manifest_path(out))
    _write_json(out, metrics)
    outputs = [out]
    if args.labels_out:
        Path(args.labels_out).write_text("".join(f"{v:+d}\n" for v in labels))
        outputs.append(Path(args.labels_out))
    _write_manifest(_manifest_path(out), "predict", {"support": model.support_size},
                    [args.model, args.data], outputs, time.perf_counter() - started)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    data = _load_data_for_model(args, model)
    truth = load_ground_truth(args.truth, max(data.m, model.m))
    _, accuracy = predict(model, data)
    recovered = evaluate_recovery(model, truth)
    metrics = {"accuracy": accuracy, "n_instances": data.n,
               "support": model.support_size, "recovered": recovered,
               "truth_size": int(truth.support.size)}
    out = Path(args.out)
    _make_parents(out, _manifest_path(out))
    _write_json(out, metrics)
    _write_manifest(_manifest_path(out), "eval", {"support": model.support_size},
                    [args.model, args.data, args.truth], [out],
                    time.perf_counter() - started)
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    config = load_config(args.config)
    threads = args.threads if args.threads is not None else thread_count()
    out = Path(args.out)
    models_dir = Path(args.models_dir or out.parent / (out.stem + "-models"))
    _check_outputs(out, _manifest_path(out), directory=models_dir)
    run_config(config, out, models_dir, threads)
    _write_manifest(_manifest_path(out), "bench", {"threads": threads},
                    [args.config], [out, models_dir], time.perf_counter() - started)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgm",
        description="Budgeted sparse feature and group selection for linear classification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic sparse-truth dataset")
    gen.add_argument("--n", type=int, required=True, help="training instances")
    gen.add_argument("--m", type=int, required=True, help="features")
    gen.add_argument("--k", type=int, required=True, help="true support size")
    gen.add_argument("--type", type=int, choices=(1, 2, 3), default=1,
                     help="weight distribution: 1 uniform, 2 flattened, 3 peaked")
    gen.add_argument("--n-test", type=int, default=0, help="test instances (0: none)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out-prefix", required=True,
                     help="writes <prefix>.train.libsvm, .truth.txt, [.test.libsvm]")
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="train a budgeted selection model")
    tr.add_argument("--data", required=True, help="sparse text training file")
    tr.add_argument("--dim", type=int, default=None, help="force feature dimension")
    tr.add_argument("--out", required=True, help="model JSON path")
    tr.add_argument("--budget", type=int, default=SolverConfig.budget,
                    help="units added per round")
    tr.add_argument("--C", type=float, default=SolverConfig.C, help="loss weight")
    tr.add_argument("--loss", choices=sorted(_LOSS_NAMES),
                    default=SolverConfig.loss.replace("_", "-"))
    tr.add_argument("--lambda-policy", choices=sorted(_LAMBDA_NAMES),
                    default=SolverConfig.lambda_policy.replace("_", "-"))
    tr.add_argument("--eps-apg", type=float, default=SolverConfig.eps_apg,
                    help="inner relative-improvement tolerance")
    tr.add_argument("--eps-outer", type=float, default=SolverConfig.eps_outer,
                    help="outer relative-improvement tolerance")
    tr.add_argument("--max-outer", type=int, default=SolverConfig.max_outer)
    tr.add_argument("--max-inner", type=int, default=SolverConfig.max_inner)
    tr.add_argument("--trace", default=None, help="per-round CSV trace path")
    kind = tr.add_mutually_exclusive_group()
    kind.add_argument("--groups", default=None, help="disjoint group file")
    kind.add_argument("--tree", default=None, help="hierarchical group file")
    kind.add_argument("--poly", action="store_true",
                      help="select degree-2 virtual features")
    tr.add_argument("--gamma", type=float, default=None, help="poly map scale")
    tr.add_argument("--r", type=float, default=None, help="poly map offset")
    tr.add_argument("--block", type=int, default=None, help="poly streaming block size")
    tr.set_defaults(func=cmd_train)

    pr = sub.add_parser("predict", help="label a dataset with a trained model")
    pr.add_argument("--model", required=True)
    pr.add_argument("--data", required=True)
    pr.add_argument("--dim", type=int, default=None)
    pr.add_argument("--out", required=True, help="metrics JSON path")
    pr.add_argument("--labels-out", default=None, help="one predicted label per line")
    pr.set_defaults(func=cmd_predict)

    ev = sub.add_parser("eval", help="accuracy plus true-support recovery")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)
    ev.add_argument("--dim", type=int, default=None)
    ev.add_argument("--truth", required=True, help="0-based 'index weight' file")
    ev.add_argument("--out", required=True, help="metrics JSON path")
    ev.set_defaults(func=cmd_eval)

    be = sub.add_parser("bench", help="run a multi-method comparison config")
    be.add_argument("--config", required=True, help="bench JSON config")
    be.add_argument("--out", required=True, help="results CSV path")
    be.add_argument("--models-dir", default=None,
                    help="model output directory (default: <out stem>-models)")
    be.add_argument("--threads", type=int, default=None,
                    help="seed-level worker processes (default: FGM_THREADS or 1)")
    be.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"fgm: data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"fgm: numerical failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"fgm: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"fgm: usage error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # generate and bench size their data from arguments and the bench config,
        # the other commands from their input files
        kind, code = ("usage", 2) if args.command in ("generate", "bench") else ("data", 3)
        detail = f": {exc}" if str(exc) else ""
        print(f"fgm: {kind} error: {args.command} ran out of memory{detail}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
