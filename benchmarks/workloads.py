"""The benchmark's workloads: inputs built from a seed, one operation, its checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  Every call into fgm goes through a
module attribute (``engine.fgm_train``, ``cli.main``) so that the traced
run can wrap it where it is looked up.
"""

from __future__ import annotations

import csv
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import fgm.cli as cli
import fgm.engine as engine
from fgm.dataset import TreeStructure, generate_synthetic, generate_test_set
from fgm.engine import PolyMap, SolverConfig
from fgm.worstcase import poly_dim

# Relative slack for the bound sequences, as in acceptance criterion 4.
SLACK = 1e-6

# Results at seed 0 and full size (1 BLAS thread).  ``inner_iters`` may move
# by 5% and ``objective`` by 1e-3 relative, because a different BLAS kernel or
# summation order can shift where the inner solver stops; ``test_accuracy``
# may move by 0.01.
REFERENCE = {
    "plain-w1": {"rounds": 30, "stop_reason": "max_outer", "inner_iters": 872,
                 "objective": 26.389191693277635, "test_accuracy": 0.8408203125},
    "poly-d2": {"rounds": 3, "stop_reason": "max_outer", "inner_iters": 62,
                "objective": 179.71997990504963, "test_accuracy": 0.813},
    "tree-logistic": {"rounds": 10, "stop_reason": "max_outer", "inner_iters": 41,
                      "objective": 6541.726128384498, "test_accuracy": 0.6923828125},
    "cli-files": {"rounds": 20, "stop_reason": "max_outer", "inner_iters": 980,
                  "objective": 5.2085712953833525, "test_accuracy": 0.84375},
}


@dataclass
class Outcome:
    """What one operation did: its timings, its results and its failed checks.

    Times are in nominal seconds (wall seconds scaled to the host's speed
    just before each step, see ``run.Calibration``); ``wall`` keeps the
    unscaled ones.
    """

    train_s: float
    predict_s: float
    pipeline_s: float
    wall: dict
    test_accuracy: float = 0.0
    objective: float = 0.0
    counters: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    predict_samples: list[float] = field(default_factory=list)  # one per predict


def model_checks(model, cfg: SolverConfig, structure, m: int, out: Outcome) -> None:
    """Support and bound checks, and the counters the model's trace implies."""
    rounds = model.n_outer
    if not cfg.budget <= model.support_size <= rounds * cfg.budget:
        out.problems.append(f"support {model.support_size} outside "
                            f"[{cfg.budget}, {rounds * cfg.budget}]")
    beta = np.array([t.beta for t in model.trace])
    phi = np.array([t.phi for t in model.trace])
    if np.any(np.diff(phi) > SLACK * np.maximum(1.0, np.abs(phi[:-1]))):
        out.problems.append("upper bound phi rose between rounds")
    # beta is a certificate only at a near-exact inner solve (see
    # engine.eval_bounds), so these two are counted, not failed.
    out.bounds = {
        "beta_drops": int(np.sum(np.diff(beta) < -SLACK * np.maximum(1.0, np.abs(beta[:-1])))),
        "beta_above_phi": int(np.sum(beta > phi + SLACK * np.abs(phi))),
    }
    out.objective = model.trace[-1].objective
    if isinstance(structure, TreeStructure):
        cols = sum(structure.sets[u].size for t in model.trace for u in t.selected)
    else:
        cols = sum(len(t.selected) for t in model.trace)
    searches = rounds + (model.stop_reason == "duplicate")
    out.counters.update({
        "rounds": rounds,
        "inner_iters": sum(t.inner_iters for t in model.trace),
        "cached_cols": cols,
        "distinct_features": len(model.feature_ids()),
        "virtual_features": searches * poly_dim(m) if isinstance(structure, PolyMap) else 0,
    })


def reference_checks(name: str, model, out: Outcome) -> None:
    ref = REFERENCE[name]
    got = {"rounds": model.n_outer, "stop_reason": model.stop_reason,
           "inner_iters": out.counters["inner_iters"], "objective": out.objective,
           "test_accuracy": out.test_accuracy}
    ok = (got["rounds"] == ref["rounds"] and got["stop_reason"] == ref["stop_reason"]
          and abs(got["inner_iters"] - ref["inner_iters"]) <= 0.05 * ref["inner_iters"]
          and abs(got["objective"] - ref["objective"]) <= 1e-3 * abs(ref["objective"])
          and abs(got["test_accuracy"] - ref["test_accuracy"]) <= 0.01)
    if not ok:
        out.problems.append(f"seed-0 reference mismatch: got {got}, expected {ref}")


def three_level_tree(m: int) -> TreeStructure:
    """Roots of 64 contiguous features, each split into 4 x 16, each into 4 x 4."""
    sets, parents, names = [], [], []
    for r in range(m // 64):
        root = len(sets)
        sets.append(np.arange(64 * r, 64 * r + 64))
        parents.append(-1)
        names.append(f"r{r}")
        for c in range(4):
            mid = len(sets)
            lo = 64 * r + 16 * c
            sets.append(np.arange(lo, lo + 16))
            parents.append(root)
            names.append(f"r{r}.{c}")
            for g in range(4):
                sets.append(np.arange(lo + 4 * g, lo + 4 * g + 4))
                parents.append(mid)
                names.append(f"r{r}.{c}.{g}")
    return TreeStructure(sets, np.asarray(parents), names)


@dataclass(frozen=True)
class InMemory:
    """Train on a synthetic set, predict a held-out set, round-trip the model."""

    name: str
    n: int
    m: int
    k: int
    n_test: int
    cfg: SolverConfig
    kind: str = "plain"           # "plain", "poly" or "tree"
    predict_repeats: int = 10     # predicts per operation, each one timing sample

    def setup(self, seed: int, work: Path) -> dict:
        train, truth = generate_synthetic(self.n, self.m, self.k, seed=seed)
        structure = None
        if self.kind == "poly":
            structure = PolyMap(gamma=1.0, r=1.0, block=64)
        elif self.kind == "tree":
            structure = three_level_tree(self.m)
        return {"train": train, "test": generate_test_set(truth, self.n_test, seed),
                "structure": structure, "work": work}

    def predicts(self, model, test) -> tuple[list[float], np.ndarray, float]:
        """Wall seconds of each of ``predict_repeats`` predicts, labels, accuracy."""
        walls = []
        for _ in range(self.predict_repeats):
            started = time.perf_counter()
            labels, accuracy = engine.predict(model, test)
            walls.append(time.perf_counter() - started)
        return walls, labels, accuracy

    def run(self, inputs: dict, span, calib) -> tuple[Outcome, dict]:
        calib.start()
        model, train_wall, speed = calib.timed(
            engine.fgm_train, inputs["train"], self.cfg, inputs["structure"])
        (walls, labels, accuracy), _, predict_speed = calib.timed(
            self.predicts, model, inputs["test"])
        path = inputs["work"] / "model.json"
        engine.save_model(model, path)
        reloaded, _ = engine.predict(engine.load_model(path), inputs["test"])
        train_s = train_wall * speed
        predict_wall = statistics.median(walls)
        predict_s = predict_wall * predict_speed
        out = Outcome(train_s, predict_s, train_s + predict_s,
                      {"train_s": train_wall, "predict_s": walls,
                       "pipeline_s": train_wall + predict_wall},
                      test_accuracy=accuracy,
                      predict_samples=[w * predict_speed for w in walls])
        return out, {"model": model, "labels": labels, "reloaded": reloaded}

    def check(self, out: Outcome, raw: dict, inputs: dict, reference: bool) -> None:
        model = raw["model"]
        model_checks(model, self.cfg, inputs["structure"], inputs["train"].m, out)
        out.counters.update({"bytes_read": 0, "bytes_written": 0})
        if not np.array_equal(raw["labels"], raw["reloaded"]):
            out.problems.append("reloaded model predicts different labels")
        if reference:
            reference_checks(self.name, model, out)

    def toy(self) -> "InMemory":
        sizes = {"plain": (64, 128, 8, 64), "poly": (48, 16, 4, 48), "tree": (64, 128, 8, 64)}
        n, m, k, n_test = sizes[self.kind]
        return replace(self, n=n, m=m, k=k, n_test=n_test,
                       cfg=replace(self.cfg, max_outer=min(self.cfg.max_outer, 4)))


@dataclass(frozen=True)
class CliFiles:
    """``fgm generate``, ``fgm train`` and ``fgm predict`` through files."""

    name: str
    n: int
    m: int
    k: int
    n_test: int
    train_args: tuple[str, ...]

    def setup(self, seed: int, work: Path) -> dict:
        return {"seed": seed, "work": work}

    def run(self, inputs: dict, span, calib) -> tuple[Outcome, dict]:
        d = Path(tempfile.mkdtemp(dir=inputs["work"]))
        prefix = d / "data"
        steps = [
            ("generate", ["--n", str(self.n), "--m", str(self.m), "--k", str(self.k),
                          "--n-test", str(self.n_test), "--seed", str(inputs["seed"]),
                          "--out-prefix", str(prefix)]),
            ("train", ["--data", f"{prefix}.train.libsvm", "--out", str(d / "model.json"),
                       "--trace", str(d / "trace.csv"), *self.train_args]),
            ("predict", ["--model", str(d / "model.json"), "--data", f"{prefix}.test.libsvm",
                         "--out", str(d / "metrics.json"), "--labels-out", str(d / "labels.txt")]),
        ]

        def command(name: str, args: list[str]) -> int:
            with span(f"cli.{name}"):
                return cli.main([name, *args])

        seconds, wall, codes = {}, {}, {}
        calib.start()
        for name, args in steps:
            codes[name], wall[name], speed = calib.timed(command, name, args)
            seconds[name] = wall[name] * speed
        out = Outcome(seconds["train"], seconds["predict"], sum(seconds.values()),
                      {"train_s": wall["train"], "predict_s": [wall["predict"]],
                       "pipeline_s": sum(wall.values())},
                      predict_samples=[seconds["predict"]])
        return out, {"dir": d, "prefix": prefix, "codes": codes}

    def check(self, out: Outcome, raw: dict, inputs: dict, reference: bool) -> None:
        d, prefix = raw["dir"], raw["prefix"]
        try:
            for command, code in raw["codes"].items():
                if code != 0:
                    out.problems.append(f"fgm {command} exited with {code}")
            manifests = [Path(f"{prefix}.manifest.json"), d / "model.json.manifest.json",
                         d / "metrics.json.manifest.json"]
            missing = [p.name for p in manifests if not p.is_file()]
            if missing:
                out.problems.append(f"missing manifests: {missing}")
            if out.problems:
                return
            model = engine.load_model(d / "model.json")
            cfg = SolverConfig(**model.config)
            model_checks(model, cfg, None, self.m, out)
            with open(d / "trace.csv") as fh:
                if sum(1 for _ in csv.reader(fh)) != model.n_outer + 1:
                    out.problems.append("trace CSV does not hold one row per round")
            out.test_accuracy = json.loads((d / "metrics.json").read_text())["accuracy"]
            generated = json.loads(manifests[0].read_text())["outputs"]
            read = [p for m in manifests[1:] for p in
                    (i["path"] for i in json.loads(m.read_text())["inputs"])]
            out.counters.update({
                "bytes_written": sum(Path(p).stat().st_size for p in generated
                                     if p.endswith(".libsvm")),
                "bytes_read": sum(Path(p).stat().st_size for p in read if p.endswith(".libsvm")),
            })
            if reference:
                reference_checks(self.name, model, out)
        finally:
            shutil.rmtree(d)

    def toy(self) -> "CliFiles":
        args = list(self.train_args)
        args[args.index("--max-outer") + 1] = "4"
        return replace(self, n=32, m=64, k=4, n_test=32, train_args=tuple(args))


# tree-logistic stops at 10 rounds: with 30, the duplicate-proposal stop came
# anywhere from round 11 to 28 across seeds, so its work depended on the seed.
WORKLOADS = {w.name: w for w in [
    InMemory("plain-w1", 1024, 4096, 100, 2048,
             SolverConfig(budget=10, max_outer=30, eps_outer=0.0)),
    InMemory("poly-d2", 512, 800, 20, 1000,
             SolverConfig(budget=10, max_outer=3, eps_outer=0.0), kind="poly",
             predict_repeats=4),
    InMemory("tree-logistic", 1024, 4096, 100, 2048,
             SolverConfig(budget=10, max_outer=10, eps_outer=0.0, loss="logistic",
                          lambda_policy="inverse_norm"), kind="tree"),
    CliFiles("cli-files", 256, 512, 16, 256,
             ("--budget", "10", "--max-outer", "20", "--eps-outer", "0")),
]}
