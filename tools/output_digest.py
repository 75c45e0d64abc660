"""Print sha256 digests of fgm's deterministic outputs on the benchmark workloads.

    python3 tools/output_digest.py > digests.txt

Run it in two checkouts (say a commit and its parent) under the same thread
settings and ``diff`` the two outputs: a refactor that should not change what
the program computes must print the same lines.  Digested are:

* the train and test sets that ``generate_synthetic`` and
  ``generate_test_set`` give each in-memory workload at seeds 0, 1 and 2
  and the ``cli-files`` shape at seed 0: one line per set over the shape,
  and the dtypes and bytes of the CSR's ``data``, ``indices`` and
  ``indptr`` and of the labels;
* the saved model of each in-memory workload of ``benchmarks/workloads.py``
  at seeds 0, 1 and 2, trained at full size, and the labels that
  ``engine.predict`` gives with it on the workload's test set (lines
  labelled ``predicted labels``, over one signed byte per label);
* a degree-2 model under the logistic loss on the ``poly-d2`` data at
  seed 0, and the labels it predicts: every logistic dual is positive, so
  the degree-2 search reads every row, where the squared hinge leaves most
  duals at 0 after the first round;
* the scales an inverse-norm group fit searches with, taken from its
  first search, on a fully stored X read as an array and on a CSR that
  stores about 70% of its cells: set sizes from 1 to 1000 straddle the
  steps of numpy's pairwise sum (8-wide below 128 values, halved blocks
  above), so a change in the order the sets' squares are added shows;
* group models on the ``plain-w1`` data at seeds 0, 1 and 2: 512 groups of
  8 features under the ``ones`` and ``inverse_norm`` policies and under
  explicit group scales ``linspace(0.5, 2, 512)``, which no workload covers;
* models trained on a small X that stores every cell and holds stored
  ``0.0`` and ``-0.0`` cells (5% of the cells, and one column all ``-0.0``),
  the case where reading stored values as stored (X's own row-major view)
  could show: plain features under ``ones`` and ``inverse_norm``, 16 groups of 4
  and the degree-2 map, each with the labels it predicts on a test set
  that stores zeros alike;
* the sets that ``SparseDataset`` makes of two 200 x 64 arrays, one with no
  zero cell (stored as a copy of the array) and one with ``-0.0`` in 5% of
  its cells (stored as the CSR without them), which no workload passes:
  each set's line, then the plain model trained on it and the labels it
  predicts on it;
* models trained on a CSR that stores about 10% of its cells (400 x 256,
  labels from 16 true features), the case where every kernel reads the CSR
  itself: the set search, the degree-2 search, the column gather and the
  prediction.  Plain features, 64 groups of 4, the workload's three-level
  tree under ``inverse_norm`` and the degree-2 map, each with the labels it
  predicts on a test set drawn alike;
* models trained on a CSR drawn alike that stores about 90% of its cells,
  at seeds 0, 1 and 2: dense enough that it was once copied into an array
  for each fit, and now read as the CSR like the 10% one.  Plain features
  and the workload's three-level tree under ``inverse_norm``, each with
  the labels it predicts;
* plain models on ``generate_synthetic(60, 40, 4, seed=4)`` at budget 3,
  ``C=0.05`` and ``C=0.2``, 8 rounds and ``eps_outer=0``, whose group prox
  zeroes whole blocks: they hold lone ``-0.0`` weights and, at ``C=0.2``, a
  ``+0.0`` one, so they show the sign each feature's weight sum starts
  from (no workload model at seeds 0-2 has a zero weight); and a tree model
  at ``C=0.05`` on that data widened to 64 features under the workload's
  three-level tree, whose nested nodes repeat features in the sums;
* tree models on ``generate_synthetic(256, 256, 16)`` at seeds 0, 1 and
  2 under the workload's three-level tree (4 roots) and the ``ones``
  policy, budget 6: each round selects a node together with nodes nested
  in it, so the cache stores their shared scaled columns once within the
  round, a case no workload covers;
* for the ``cli-files`` workload at seed 0, the libsvm files and the truth
  file of ``fgm generate``, the datasets that ``load_libsvm`` reads back
  from the two libsvm files (lines labelled ``loaded``), the model of
  ``fgm train``, the labels of ``fgm predict``, and the ``--trace`` CSV
  without its ``seconds`` column; then the model of ``fgm train --poly
  --block 7`` on that train file and the labels ``fgm predict`` gives with
  it, which take the command line's degree-2 map at a block width other
  than the default 64;
* the dataset ``load_libsvm`` reads from a 20,000-row file with one pair
  per row that this tool writes, the shape of short text-mining rows;
* the dataset ``load_libsvm`` reads from a 6,000-row file whose first
  half spells some indices with ``+``, leading zeros, ``_`` or Arabic-Indic
  digits, which ``int()`` reads and numpy's integer parser does not, and
  whose second half spells them plainly, so chunks of both kinds are read;
* every model file of ``fgm bench`` on a small synthetic config at seeds 0
  and 1, covering ``fgm`` with and without ``target_support``, ``l1`` at a
  fixed ``reg`` and swept to a support size, ``l2-full``, ``fgm-debias``
  and ``l1-debias``.

Each model file gets three lines: the digest of the whole file; one
labelled ``without-config`` that covers the model JSON without its
``config`` block, re-dumped as ``save_model`` writes it; and one labelled
``without-bounds`` that also drops each trace record's ``beta`` and ``phi``.
The trace CSV likewise gets a second line, ``trace without-bounds``, without
its ``beta`` and ``phi`` columns.  A change that only adds, drops or renames
configuration fields moves the first line of each model and leaves the
second as it was; one that only changes how the bounds are recorded leaves
the ``without-bounds`` lines as they were.  Manifests, metrics files, the
bench CSV and the trace's ``seconds`` column hold wall times and paths, so
they are left out.  Set ``OPENBLAS_NUM_THREADS`` to compare at a given BLAS
thread count, and ``FGM_THREADS`` to run the bench seeds in that many
processes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import fgm.cli as cli  # noqa: E402
import fgm.engine as engine  # noqa: E402
from fgm import (GroupStructure, PolyMap, SolverConfig, SparseDataset,  # noqa: E402
                 generate_synthetic, generate_test_set, load_libsvm)
from workloads import WORKLOADS, CliFiles, three_level_tree  # noqa: E402

SEEDS = (0, 1, 2)
BENCH_CONFIG = {
    "data": {"synthetic": {"n": 200, "m": 400, "k": 20, "type": 1, "n_test": 200}},
    "seeds": [0, 1],
    "methods": [
        {"name": "fgm", "budget": 5},
        {"name": "fgm", "budget": 2, "target_support": 20},
        {"name": "l1", "reg": 5.0},
        {"name": "l1", "target_support": 20},
        {"name": "l2-full"},
        {"name": "fgm-debias", "base": "fgm-B5"},
        {"name": "l1-debias", "base": "l1-s20"},
    ],
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dump(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()


def _model_digests(label: str, path: Path):
    yield label, _digest(path.read_bytes())
    payload = json.loads(path.read_text())
    payload.pop("config")
    yield f"{label} without-config", _digest(_dump(payload))
    for record in payload["trace"]:
        del record["beta"], record["phi"]
    yield f"{label} without-bounds", _digest(_dump(payload))


def _dataset_digest(data) -> str:
    h = hashlib.sha256(repr(data.X.shape).encode())
    for a in (data.X.data, data.X.indices, data.X.indptr, data.y):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    return h.hexdigest()


def dataset_digests():
    for name, workload in WORKLOADS.items():
        for seed in (0,) if isinstance(workload, CliFiles) else SEEDS:
            train, truth = generate_synthetic(workload.n, workload.m, workload.k, seed=seed)
            test = generate_test_set(truth, workload.n_test, seed)
            yield f"{name} seed {seed} train set", _dataset_digest(train)
            yield f"{name} seed {seed} test set", _dataset_digest(test)


def _trace_without(path: Path, *columns: str) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    drop = {rows[0].index(c) for c in columns}
    out = io.StringIO()
    csv.writer(out).writerows([v for i, v in enumerate(row) if i not in drop] for row in rows)
    return out.getvalue().encode()


def model_digests(work: Path):
    for name, workload in WORKLOADS.items():
        if isinstance(workload, CliFiles):
            continue
        for seed in SEEDS:
            inputs = workload.setup(seed, work)
            model = engine.fgm_train(inputs["train"], workload.cfg, inputs["structure"])
            path = work / f"{name}-{seed}.json"
            engine.save_model(model, path)
            yield from _model_digests(f"{name} seed {seed} model", path)
            labels, _ = engine.predict(model, inputs["test"])
            yield f"{name} seed {seed} predicted labels", _digest(labels.astype(np.int8).tobytes())


def logistic_poly_digests(work: Path):
    workload = WORKLOADS["poly-d2"]
    inputs = workload.setup(0, work)
    settings = {"logistic": (inputs["structure"], replace(workload.cfg, loss="logistic"))}
    yield from _trained_digests(work, f"{workload.name} seed 0", inputs["train"],
                                inputs["test"], settings)


def group_digests(work: Path):
    workload = WORKLOADS["plain-w1"]
    groups = [np.arange(8 * g, 8 * g + 8) for g in range(512)]
    names = [f"g{g}" for g in range(512)]
    settings = {
        "ones": (GroupStructure(groups, names), workload.cfg),
        "inverse_norm": (GroupStructure(groups, names),
                         replace(workload.cfg, lambda_policy="inverse_norm")),
        "lambdas": (GroupStructure(groups, names, np.linspace(0.5, 2.0, 512)), workload.cfg),
    }
    for seed in SEEDS:
        train = workload.setup(seed, work)["train"]
        for setting, (structure, cfg) in settings.items():
            model = engine.fgm_train(train, cfg, structure)
            path = work / f"groups-{setting}-{seed}.json"
            engine.save_model(model, path)
            yield from _model_digests(f"{workload.name} groups {setting} seed {seed} model", path)


def inverse_norm_scale_digests():
    rng = np.random.default_rng(32)
    sizes = np.array([1, 2, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 300, 513, 1000])
    features = rng.permutation(int(sizes.sum()))
    groups = GroupStructure(np.split(features, np.cumsum(sizes)[:-1]),
                            [f"g{g}" for g in range(sizes.size)])
    shape = (64, features.size)
    values = rng.standard_normal(shape) * 2.0 ** rng.integers(-20, 20, shape)
    labels = np.where(rng.random(shape[0]) < 0.5, 1, -1)
    cfg = SolverConfig(budget=2, max_outer=1, lambda_policy="inverse_norm")
    search = engine.score_tree_pruned
    for layout, density in (("array", 1.0), ("csr", 0.7)):
        train = SparseDataset(values * (rng.random(shape) < density), labels)
        assert sp.issparse(train.design) == (layout == "csr")
        scales = []
        engine.score_tree_pruned = lambda alpha, data, tree, budget: (
            scales.append(tree.lambdas), search(alpha, data, tree, budget))[1]
        try:
            engine.fgm_train(train, cfg, groups)
        finally:
            engine.score_tree_pruned = search
        yield f"inverse_norm group scales on the {layout}", _digest(scales[0].tobytes())


def _trained_digests(work: Path, label: str, train, test, settings: dict):
    """Each setting's model trained on ``train``, and the labels it predicts on ``test``."""
    for setting, (structure, cfg) in settings.items():
        model = engine.fgm_train(train, cfg, structure)
        path = work / f"{label} {setting}.json".replace(" ", "-")
        engine.save_model(model, path)
        yield from _model_digests(f"{label} {setting} model", path)
        labels, _ = engine.predict(model, test)
        yield f"{label} {setting} predicted labels", _digest(labels.astype(np.int8).tobytes())


def _store_signed_zeros(data, rng):
    """Store ``0.0`` or ``-0.0`` in 5% of the cells of a fully stored X, and ``-0.0`` in column 5."""
    values = data.X.data.reshape(data.X.shape)
    cells = rng.random(values.shape) < 0.05
    values[cells] = np.where(rng.random(int(cells.sum())) < 0.5, 0.0, -0.0)
    values[:, 5] = -0.0
    assert data.X.nnz == values.size
    return data


def stored_zero_digests(work: Path):
    rng = np.random.default_rng(11)
    train, truth = generate_synthetic(200, 64, 8, seed=3)
    train = _store_signed_zeros(train, rng)
    test = _store_signed_zeros(generate_test_set(truth, 200, seed=3), rng)
    cfg = SolverConfig(budget=4, max_outer=6, eps_outer=0.0)
    groups = GroupStructure([np.arange(4 * g, 4 * g + 4) for g in range(16)],
                            [f"g{g}" for g in range(16)])
    settings = {
        "plain ones": (None, cfg),
        "plain inverse_norm": (None, replace(cfg, lambda_policy="inverse_norm")),
        "groups": (groups, cfg),
        "poly": (PolyMap(), cfg),
    }
    yield from _trained_digests(work, "stored zeros", train, test, settings)


def array_input_digests(work: Path):
    rng = np.random.default_rng(41)
    values = rng.standard_normal((200, 64))
    labels = np.where(values[:, :8].sum(axis=1) >= 0, 1, -1)
    signed = values.copy()
    signed[rng.random(values.shape) < 0.05] = -0.0
    cfg = SolverConfig(budget=4, max_outer=6, eps_outer=0.0)
    for label, array in (("array without zeros", values), ("array with -0.0", signed)):
        data = SparseDataset(array, labels)
        assert sp.issparse(data.design) == (label == "array with -0.0")
        yield from _trained_digests(work, label, data, data, {"plain": (None, cfg)})
        yield f"{label} set", _dataset_digest(data)


def _csr_set(rng, truth: np.ndarray, n: int, density: float):
    """``n`` rows that store about ``density`` of their cells, labelled by ``truth``'s sign."""
    values = rng.standard_normal((n, truth.size)) * (rng.random((n, truth.size)) < density)
    X = sp.csr_matrix(values)
    return SparseDataset(X, np.where(X @ truth >= 0, 1, -1))


def _csr_problem(rng, density: float):
    """400 train and 400 test rows of 256 features, labelled by 16 true features."""
    truth = np.zeros(256)
    truth[rng.choice(256, 16, replace=False)] = rng.standard_normal(16)
    train, test = _csr_set(rng, truth, 400, density), _csr_set(rng, truth, 400, density)
    assert train.X.nnz < 400 * 256 and sp.issparse(train.design)
    return train, test


def sparse_digests(work: Path):
    train, test = _csr_problem(np.random.default_rng(21), 0.1)
    assert train.X.nnz < 0.2 * 400 * 256
    cfg = SolverConfig(budget=4, max_outer=8, eps_outer=0.0)
    settings = {
        "plain": (None, cfg),
        "groups": (GroupStructure([np.arange(4 * g, 4 * g + 4) for g in range(64)],
                                  [f"g{g}" for g in range(64)]), cfg),
        "tree inverse_norm": (three_level_tree(256), replace(cfg, lambda_policy="inverse_norm")),
        "poly": (PolyMap(), cfg),
    }
    yield from _trained_digests(work, "sparse 10%", train, test, settings)


def dense_csr_digests(work: Path):
    cfg = SolverConfig(budget=4, max_outer=8, eps_outer=0.0)
    settings = {
        "plain": (None, cfg),
        "tree inverse_norm": (three_level_tree(256), replace(cfg, lambda_policy="inverse_norm")),
    }
    for seed in SEEDS:
        train, test = _csr_problem(np.random.default_rng([90, seed]), 0.9)
        assert train.X.nnz >= 2 / 3 * 400 * 256
        yield from _trained_digests(work, f"csr 90% seed {seed}", train, test, settings)


def zero_weight_digests(work: Path):
    cfg = SolverConfig(budget=3, max_outer=8, eps_outer=0.0)
    narrow = generate_synthetic(60, 40, 4, seed=4)[0]
    wide = generate_synthetic(60, 64, 4, seed=4)[0]
    settings = {
        "plain C=0.05": (narrow, None, replace(cfg, C=0.05)),
        "plain C=0.2": (narrow, None, replace(cfg, C=0.2)),
        "tree C=0.05": (wide, three_level_tree(64), replace(cfg, C=0.05)),
    }
    for setting, (train, structure, cfg) in settings.items():
        model = engine.fgm_train(train, cfg, structure)
        path = work / f"zero-weights-{setting.replace(' ', '-')}.json"
        engine.save_model(model, path)
        yield from _model_digests(f"zero weights {setting} model", path)


def nested_tree_digests(work: Path):
    tree = three_level_tree(256)
    cfg = SolverConfig(budget=6, max_outer=8, eps_outer=0.0)
    for seed in SEEDS:
        train, truth = generate_synthetic(256, 256, 16, seed=seed)
        model = engine.fgm_train(train, cfg, tree)
        assert any(len(set(f for u in t.selected for f in tree.sets[u].tolist()))
                   < sum(tree.sets[u].size for u in t.selected) for t in model.trace)
        path = work / f"nested-tree-{seed}.json"
        engine.save_model(model, path)
        label = f"nested tree ones seed {seed}"
        yield from _model_digests(f"{label} model", path)
        labels, _ = engine.predict(model, generate_test_set(truth, 256, seed))
        yield f"{label} predicted labels", _digest(labels.astype(np.int8).tobytes())


def cli_digests(work: Path, workload: CliFiles, seed: int = 0):
    prefix = work / "data"
    model, trace, labels = work / "model.json", work / "trace.csv", work / "labels.txt"
    poly_model, poly_labels = work / "poly-model.json", work / "poly-labels.txt"
    steps = [
        ["generate", "--n", str(workload.n), "--m", str(workload.m), "--k", str(workload.k),
         "--n-test", str(workload.n_test), "--seed", str(seed), "--out-prefix", str(prefix)],
        ["train", "--data", f"{prefix}.train.libsvm", "--out", str(model),
         "--trace", str(trace), *workload.train_args],
        ["predict", "--model", str(model), "--data", f"{prefix}.test.libsvm",
         "--out", str(work / "metrics.json"), "--labels-out", str(labels)],
        ["train", "--data", f"{prefix}.train.libsvm", "--out", str(poly_model),
         "--poly", "--block", "7", *workload.train_args],
        ["predict", "--model", str(poly_model), "--data", f"{prefix}.test.libsvm",
         "--out", str(work / "poly-metrics.json"), "--labels-out", str(poly_labels)],
    ]
    for argv in steps:
        code = cli.main(argv)
        if code != 0:
            raise SystemExit(f"fgm {argv[0]} exited with {code}")
    for suffix in ("train.libsvm", "test.libsvm", "truth.txt"):
        path = Path(f"{prefix}.{suffix}")
        yield f"{workload.name} seed {seed} {suffix}", _digest(path.read_bytes())
    for suffix in ("train.libsvm", "test.libsvm"):
        yield (f"{workload.name} seed {seed} {suffix} loaded",
               _dataset_digest(load_libsvm(f"{prefix}.{suffix}")))
    yield from _model_digests(f"{workload.name} seed {seed} model", model)
    yield f"{workload.name} seed {seed} labels", _digest(labels.read_bytes())
    yield f"{workload.name} seed {seed} trace", _digest(_trace_without(trace, "seconds"))
    yield (f"{workload.name} seed {seed} trace without-bounds",
           _digest(_trace_without(trace, "seconds", "beta", "phi")))
    yield from _model_digests(f"{workload.name} seed {seed} poly block 7 model", poly_model)
    yield f"{workload.name} seed {seed} poly block 7 labels", _digest(poly_labels.read_bytes())


def one_pair_digest(work: Path, rows: int = 20_000):
    rng = np.random.default_rng(0)
    labels = rng.choice(["-1", "+1"], rows)
    ids = rng.integers(1, 1000, rows)
    values = rng.standard_normal(rows)
    path = work / "one-pair.libsvm"
    path.write_text("".join(f"{y} {i}:{v!r}\n" for y, i, v in
                            zip(labels.tolist(), ids.tolist(), values.tolist())))
    yield f"one pair per row, {rows} rows, loaded", _dataset_digest(load_libsvm(path))


_SPELLINGS = (lambda i: f"+{i}", lambda i: f"00{i}", lambda i: f"{i // 10}_{i % 10}",
              lambda i: str(i).translate(str.maketrans("0123456789",
                                                       "".join(map(chr, range(0x660, 0x66a))))))


def index_spelling_digest(work: Path, rows: int = 6_000):
    rng = np.random.default_rng(1)
    lines = []
    for r in range(rows):
        ids = np.sort(rng.choice(np.arange(10, 400), 8, replace=False)).tolist()
        spelled = [_SPELLINGS[rng.integers(len(_SPELLINGS))](i)
                   if r < rows // 2 and rng.random() < 0.1 else str(i) for i in ids]
        values = rng.standard_normal(8).tolist()
        lines.append(" ".join(["+1" if r % 3 else "-1",
                               *(f"{i}:{v!r}" for i, v in zip(spelled, values))]) + "\n")
    path = work / "index-spellings.libsvm"
    path.write_text("".join(lines), encoding="utf-8")
    yield (f"indices spelled by int() rules, {rows} rows, loaded",
           _dataset_digest(load_libsvm(path)))


def bench_digests(work: Path):
    config, models = work / "bench.json", work / "bench-models"
    config.write_text(json.dumps(BENCH_CONFIG))
    argv = ["bench", "--config", str(config), "--out", str(work / "bench.csv"),
            "--models-dir", str(models)]
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"fgm bench exited with {code}")
    for path in sorted(models.iterdir()):
        yield from _model_digests(f"bench {path.name}", path)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        lines = list(dataset_digests())
        lines += model_digests(work)
        lines += logistic_poly_digests(work)
        lines += inverse_norm_scale_digests()
        lines += group_digests(work)
        lines += stored_zero_digests(work)
        lines += array_input_digests(work)
        lines += sparse_digests(work)
        lines += dense_csr_digests(work)
        lines += zero_weight_digests(work)
        lines += nested_tree_digests(work)
        lines += cli_digests(work, WORKLOADS["cli-files"])
        lines += one_pair_digest(work)
        lines += index_spelling_digest(work)
        lines += bench_digests(work)
    for label, digest in lines:
        print(f"{digest}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
