"""End-to-end command-line checks: artifacts, manifests, and exit codes."""

import csv
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import fgm.cli as cli
from fgm.dataset import generate_synthetic, load_ground_truth, load_libsvm, write_libsvm
from fgm.engine import SolverConfig, evaluate_recovery, load_model, predict

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(*args, env_extra=None, cwd=None):
    env = {k: v for k, v in os.environ.items() if k != "FGM_THREADS"}
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "fgm", *map(str, args)],
                          capture_output=True, text=True, env=env, cwd=cwd)


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with one generated dataset, shared read-only by the tests."""
    d = tmp_path_factory.mktemp("cli")
    r = run_cli("generate", "--n", 80, "--m", 60, "--k", 5, "--n-test", 40,
                "--seed", 1, "--out-prefix", d / "toy")
    assert r.returncode == 0, r.stderr
    return d


# ---------------------------------------------------------------------------
# happy paths


def test_generate_artifacts_and_manifest(ws):
    train = ws / "toy.train.libsvm"
    truth = ws / "toy.truth.txt"
    test = ws / "toy.test.libsvm"
    assert train.exists() and truth.exists() and test.exists()
    data = load_libsvm(train)
    assert data.n == 80 and data.m <= 60
    assert load_libsvm(test).n == 40
    manifest = json.loads((ws / "toy.manifest.json").read_text())
    assert manifest["command"] == "generate"
    assert manifest["parameters"]["k"] == 5
    assert manifest["inputs"] == []
    assert str(train) in manifest["outputs"]
    assert manifest["tool"]["name"] == "fgm"


def test_train_predict_eval_round_trip(ws):
    model_path = ws / "toy.model.json"
    trace_path = ws / "toy.trace.csv"
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--dim", 60,
                "--out", model_path, "--budget", 3, "--max-outer", 5,
                "--eps-outer", 0, "--trace", trace_path)
    assert r.returncode == 0, r.stderr
    payload = json.loads(model_path.read_text())
    assert payload["mode"] == "plain" and payload["config"]["budget"] == 3

    manifest = json.loads((ws / "toy.model.json.manifest.json").read_text())
    assert manifest["command"] == "train"
    (entry,) = manifest["inputs"]
    assert entry["sha256"] == sha256_of(ws / "toy.train.libsvm")
    assert manifest["parameters"]["stop_reason"] == payload["stop_reason"]

    with open(trace_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [c for c in rows[0]] == ["iter", "F", "beta", "phi",
                                    "inner_iters", "selected", "seconds"]
    assert len(rows) == len(payload["trace"])
    assert len(rows[0]["selected"].split()) == 3
    objectives = [float(row["F"]) for row in rows]
    assert objectives == sorted(objectives, reverse=True)

    metrics_path = ws / "toy.metrics.json"
    labels_path = ws / "toy.labels.txt"
    r = run_cli("predict", "--model", model_path, "--data", ws / "toy.test.libsvm",
                "--out", metrics_path, "--labels-out", labels_path)
    assert r.returncode == 0, r.stderr
    metrics = json.loads(metrics_path.read_text())
    assert set(metrics) == {"accuracy", "n_instances", "support", "mode"}
    assert metrics["n_instances"] == 40
    assert 0.0 <= metrics["accuracy"] <= 1.0
    lines = labels_path.read_text().splitlines()
    assert len(lines) == 40 and set(lines) <= {"+1", "-1"}

    eval_path = ws / "toy.eval.json"
    r = run_cli("eval", "--model", model_path, "--data", ws / "toy.test.libsvm",
                "--truth", ws / "toy.truth.txt", "--out", eval_path)
    assert r.returncode == 0, r.stderr
    ev = json.loads(eval_path.read_text())
    assert ev["truth_size"] == 5
    assert 0 <= ev["recovered"] <= 5
    assert len(json.loads((ws / "toy.eval.json.manifest.json").read_text())["inputs"]) == 3


def declared_console_scripts():
    """The ``[project.scripts]`` table of the source tree's ``pyproject.toml``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


def installed_fgm_script():
    """True where the ``fgm`` distribution is installed with its console script."""
    try:
        dist = importlib.metadata.distribution("fgm")
    except importlib.metadata.PackageNotFoundError:
        return False
    return any(ep.name == "fgm" for ep in dist.entry_points
               if ep.group == "console_scripts")


# Resolves an entry point the way a generated console-script launcher does:
# load the declared object, name the program after the script, exit with main().
LAUNCHER = """\
import sys
from importlib.metadata import EntryPoint
main = EntryPoint(name="fgm", value=sys.argv[1], group="console_scripts").load()
sys.argv = ["fgm", *sys.argv[2:]]
sys.exit(main())
"""


def test_console_script_available():
    spec = declared_console_scripts().get("fgm")
    assert spec == "fgm.cli:main", spec
    r = subprocess.run([sys.executable, "-c", LAUNCHER, spec, "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert "generate" in r.stdout and "bench" in r.stdout


@pytest.mark.skipif(not installed_fgm_script(),
                    reason="the 'fgm' distribution is not installed, "
                           "so no 'fgm' console script exists")
def test_installed_console_script_on_path():
    search = os.pathsep.join([os.environ.get("PATH", ""),
                              sysconfig.get_path("scripts")])
    exe = shutil.which("fgm", path=search)
    assert exe, "console script 'fgm' not on PATH or in the scripts directory"
    r = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "generate" in r.stdout and "bench" in r.stdout


def test_predict_remaps_zero_one_labels(ws, tmp_path):
    data01 = tmp_path / "zero-one.libsvm"
    data01.write_text("0 1:1.5\n1 2:-0.5\n1 1:2.0\n")
    r = run_cli("predict", "--model", ws / "toy.model.json", "--data", data01,
                "--out", tmp_path / "m.json")
    assert r.returncode == 0, r.stderr
    assert "remapping 0/1 labels" in r.stderr
    assert json.loads((tmp_path / "m.json").read_text())["n_instances"] == 3


# ---------------------------------------------------------------------------
# exit codes


def test_usage_errors_exit_2(ws, tmp_path):
    assert run_cli("frobnicate").returncode == 2           # unknown subcommand
    assert run_cli("train", "--data", ws / "toy.train.libsvm", "--out",
                   tmp_path / "m.json", "--loss", "hinge").returncode == 2
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out",
                tmp_path / "m.json", "--C", -1)
    assert r.returncode == 2 and "usage error" in r.stderr
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out",
                tmp_path / "m.json", "--eps-apg", "nan")
    assert r.returncode == 2 and "usage error" in r.stderr
    # the step rule belongs to the solver and the seed to the data: neither is a train flag
    for flag, value in (("--eta", 0.5), ("--L0", 1), ("--seed", 3)):
        assert run_cli("train", "--data", ws / "toy.train.libsvm", "--out",
                       tmp_path / "m.json", flag, value).returncode == 2
    # the poly map's flags need --poly, and a NaN among them names its check
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", tmp_path / "m.json",
                "--gamma", 3)
    assert r.returncode == 2 and "only --poly reads --gamma" in r.stderr
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", tmp_path / "m.json",
                "--poly", "--gamma", "nan")
    assert r.returncode == 2 and "gamma > 0" in r.stderr
    assert not (tmp_path / "m.json").exists()
    assert run_cli("generate", "--n", 10, "--m", 5, "--k", 2, "--type", 4,
                   "--out-prefix", tmp_path / "x").returncode == 2


def test_poly_with_inverse_norm_policy_exits_2(ws, tmp_path):
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", tmp_path / "m.json",
                "--poly", "--lambda-policy", "inverse-norm")
    assert r.returncode == 2 and "degree-2 features carry no scale" in r.stderr
    assert not (tmp_path / "m.json").exists()


def test_missing_and_malformed_data_exit_3(ws, tmp_path):
    r = run_cli("train", "--data", tmp_path / "absent.libsvm", "--out", tmp_path / "m.json")
    assert r.returncode == 3

    bad = tmp_path / "bad.libsvm"
    bad.write_text("+1 3:1.0 2:2.0\n")  # indices not increasing
    r = run_cli("train", "--data", bad, "--out", tmp_path / "m.json")
    assert r.returncode == 3
    assert "bad.libsvm:1" in r.stderr

    broken = tmp_path / "broken.model.json"
    broken.write_text("{not json")
    r = run_cli("predict", "--model", broken, "--data", ws / "toy.train.libsvm",
                "--out", tmp_path / "m.json")
    assert r.returncode == 3 and "not valid JSON" in r.stderr


def test_dim_below_one_exits_2(ws, tmp_path, capsys):
    empty = tmp_path / "empty.libsvm"
    empty.write_text("+1\n-1\n")
    model = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--out", str(model)]) == 0
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(dict(BENCH_CONFIG, data={"train": str(empty), "dim": 0})))
    capsys.readouterr()
    for argv in (["train", "--data", str(empty), "--out", str(tmp_path / "e.json"), "--dim", "-5"],
                 ["predict", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                  "--out", str(tmp_path / "p.json"), "--dim", "0"],
                 ["eval", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                  "--truth", str(ws / "toy.truth.txt"), "--out", str(tmp_path / "v.json"),
                  "--dim", "-1"],
                 ["bench", "--config", str(bench), "--out", str(tmp_path / "o.csv")]):
        assert cli.main(argv) == 2, argv
        assert capsys.readouterr().err == "fgm: usage error: dim must be an integer >= 1\n"
    assert not any((tmp_path / name).exists() for name in ("e.json", "p.json", "v.json", "o.csv"))


def test_training_data_without_features_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty.libsvm"
    empty.write_text("+1\n-1\n+1\n")
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps(dict(BENCH_CONFIG, data={"train": str(empty), "test": str(empty)})))
    for argv in (["train", "--data", str(empty), "--out", str(tmp_path / "m.json")],
                 ["train", "--data", str(empty), "--out", str(tmp_path / "m.json"), "--poly"],
                 ["bench", "--config", str(bench), "--out", str(tmp_path / "o.csv")]):
        assert cli.main(argv) == 3, argv
        assert capsys.readouterr().err == "fgm: data error: training data has no features (m=0)\n"
    assert not (tmp_path / "m.json").exists()


def test_non_utf8_data_and_groups_files_exit_3(ws, tmp_path):
    data = tmp_path / "latin1.libsvm"
    data.write_bytes(b"+1 1:0.5\n-1 2:1.5 # caf\xe9\n")
    r = run_cli("train", "--data", data, "--out", tmp_path / "m.json")
    assert r.returncode == 3 and "data error" in r.stderr and "decode byte 0xe9" in r.stderr
    assert f"data error: {data}: " in r.stderr
    groups = tmp_path / "groups.txt"
    groups.write_bytes(b"g0: 0 1\n\xff\n")
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--groups", groups,
                "--out", tmp_path / "m.json")
    assert r.returncode == 3 and "data error" in r.stderr and "decode byte 0xff" in r.stderr
    assert f"data error: {groups}: " in r.stderr
    assert "Traceback" not in r.stderr and not (tmp_path / "m.json").exists()


def test_predict_with_a_corrupt_poly_model_exits_3(tmp_path):
    data = tmp_path / "d.libsvm"
    write_libsvm(generate_synthetic(30, 6, 2, seed=0)[0], data)
    model = tmp_path / "poly.model.json"
    assert cli.main(["train", "--data", str(data), "--out", str(model), "--poly",
                     "--budget", "3", "--max-outer", "2"]) == 0
    payload = json.loads(model.read_text())
    payload["entries"][0]["id"] = 10 ** 6
    model.write_text(json.dumps(payload))
    r = run_cli("predict", "--model", model, "--data", data, "--out", tmp_path / "p.json")
    assert r.returncode == 3 and "model entry id 1000000 outside [0, 28)" in r.stderr


def test_predict_with_a_string_gamma_exits_3(tmp_path):
    # float() would pass "1.0" to the map check while the model kept the string
    data = tmp_path / "d.libsvm"
    write_libsvm(generate_synthetic(30, 6, 2, seed=0)[0], data)
    model = tmp_path / "poly.model.json"
    assert cli.main(["train", "--data", str(data), "--out", str(model), "--poly",
                     "--budget", "3", "--max-outer", "2"]) == 0
    payload = json.loads(model.read_text())
    payload["gamma"] = "1.0"
    model.write_text(json.dumps(payload))
    r = run_cli("predict", "--model", model, "--data", data, "--out", tmp_path / "p.json")
    assert r.returncode == 3 and "model gamma '1.0' is not a number" in r.stderr
    assert "Traceback" not in r.stderr


def test_predict_with_a_poly_model_on_wider_data_exits_3(tmp_path):
    train, wide = tmp_path / "d.libsvm", tmp_path / "wide.libsvm"
    write_libsvm(generate_synthetic(30, 6, 2, seed=0)[0], train)
    write_libsvm(generate_synthetic(30, 9, 2, seed=0)[0], wide)
    model = tmp_path / "poly.model.json"
    assert cli.main(["train", "--data", str(train), "--out", str(model), "--poly",
                     "--budget", "3", "--max-outer", "2"]) == 0
    r = run_cli("predict", "--model", model, "--data", wide, "--out", tmp_path / "p.json")
    assert r.returncode == 3
    assert "data has 9 raw features but the model's virtual map expects 6" in r.stderr


def test_poly_manifest_records_the_map_with_its_defaults(tmp_path):
    data = tmp_path / "d.libsvm"
    write_libsvm(generate_synthetic(30, 6, 2, seed=0)[0], data)
    model = tmp_path / "poly.model.json"
    assert cli.main(["train", "--data", str(data), "--out", str(model), "--poly",
                     "--gamma", "0.5", "--budget", "3", "--max-outer", "2"]) == 0
    parameters = json.loads(Path(f"{model}.manifest.json").read_text())["parameters"]
    assert (parameters["gamma"], parameters["r"], parameters["block"]) == (0.5, 1.0, 64)


def test_predict_with_a_plain_model_carrying_a_map_exits_3(ws, tmp_path):
    model = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--out", str(model),
                     "--budget", "3", "--max-outer", "2"]) == 0
    payload = json.loads(model.read_text())
    payload.update(gamma="x", r=[1])
    model.write_text(json.dumps(payload))
    r = run_cli("predict", "--model", model, "--data", ws / "toy.test.libsvm",
                "--out", tmp_path / "p.json")
    assert r.returncode == 3 and "a plain model's gamma must be null, got 'x'" in r.stderr
    assert not (tmp_path / "p.json").exists()


def test_predict_reads_a_version_1_model_and_refuses_version_3(ws, tmp_path):
    # format 1 kept each entry's scale apart; prediction used weight * lambda
    ids, weights, lambdas = [0, 3, 7], [0.3, -1.7, 2.1], [0.5, 3.0, 1.0 / 3.0]
    payload = {"format_version": 1, "mode": "group", "budget": 1, "n_outer": 1,
               "stop_reason": "max_outer", "loss": {"kind": "squared_hinge", "C": 10.0},
               "lambda_policy": "inverse_norm", "m": 60, "units": [0, 1],
               "entries": [{"id": i, "weight": w, "lambda": lam}
                           for i, w, lam in zip(ids, weights, lambdas)],
               "unit_features": {"0": [0, 3], "1": [7]}, "gamma": None, "r": None,
               "config": {}, "trace": [], "mkl_weights": [1.0]}
    model = tmp_path / "v1.model.json"
    model.write_text(json.dumps(payload))
    labels = tmp_path / "labels.txt"
    r = run_cli("predict", "--model", model, "--data", ws / "toy.test.libsvm",
                "--out", tmp_path / "p.json", "--labels-out", labels)
    assert r.returncode == 0, r.stderr
    X = load_libsvm(ws / "toy.test.libsvm", 60).X
    scores = X[:, ids] @ (np.array(weights) * np.array(lambdas))
    assert labels.read_text().split() == [f"{v:+d}" for v in np.where(scores >= 0, 1, -1)]

    # JSON true equals 1 in Python, but it names no format
    for version in (3, True):
        model.write_text(json.dumps({**payload, "format_version": version}))
        r = run_cli("predict", "--model", model, "--data", ws / "toy.test.libsvm",
                    "--out", tmp_path / "p.json")
        assert r.returncode == 3 and f"unsupported model format version {version}" in r.stderr


def test_predict_refuses_a_model_with_a_fractional_entry_id(ws, tmp_path):
    model = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--out", str(model),
                     "--budget", "3", "--max-outer", "2"]) == 0
    payload = json.loads(model.read_text())
    payload["entries"][0]["id"] += 0.7
    model.write_text(json.dumps(payload))
    r = run_cli("predict", "--model", model, "--data", ws / "toy.test.libsvm",
                "--out", tmp_path / "p.json")
    bad = payload["entries"][0]["id"]
    assert r.returncode == 3 and f"data error: model entry id {bad!r} is not an integer" in r.stderr


def test_predict_refuses_a_model_of_unknown_mode(tmp_path):
    data = tmp_path / "d.libsvm"
    write_libsvm(generate_synthetic(30, 8, 2, seed=0)[0], data)
    model = tmp_path / "poly.model.json"
    assert cli.main(["train", "--data", str(data), "--out", str(model), "--poly",
                     "--budget", "4", "--max-outer", "2"]) == 0
    payload = json.loads(model.read_text())
    model.write_text(json.dumps({**payload, "mode": "Poly"}))
    r = run_cli("predict", "--model", model, "--data", data, "--out", tmp_path / "p.json")
    assert r.returncode == 3 and "fgm: data error: unknown model mode 'Poly'" in r.stderr


def test_index_beyond_the_integer_range_exits_3(tmp_path):
    huge = tmp_path / "huge.libsvm"
    huge.write_text("-1 1:0.5\n+1 99999999999999999999:1.0\n")
    r = run_cli("train", "--data", huge, "--out", tmp_path / "m.json")
    assert r.returncode == 3, r.stderr
    assert f"{huge}:2: index 99999999999999999999 is too large" in r.stderr
    assert "Traceback" not in r.stderr


def test_dimension_beyond_any_array_exits_3(tmp_path, capsys):
    # m = 2^63 - 1 fits the index type, but no float array of that length can exist;
    # the check runs before training allocates anything
    huge = tmp_path / "huge.libsvm"
    huge.write_text("+1 9223372036854775807:1.0\n-1 1:1.0\n")
    assert cli.main(["train", "--data", str(huge), "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err == ("fgm: data error: feature dimension m=9223372036854775807 "
                   "is too large to train on\n")
    assert not (tmp_path / "m.json").exists()


def test_training_out_of_memory_exits_3(ws, tmp_path, monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError("Unable to allocate 29.8 GiB for an array with shape (4000000000,)")

    monkeypatch.setattr(cli, "fgm_train", exhausted)
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--dim", "60",
                     "--out", str(tmp_path / "m.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("fgm: data error: training on n=80 x m=60 data ran out of memory: ")
    assert "29.8 GiB" in err and err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("command,target,code", [
    ("generate", "generate_synthetic", 2), ("bench", "run_config", 2),
    ("predict", "predict", 3), ("eval", "predict", 3)])
def test_out_of_memory_outside_training_prints_one_line(ws, tmp_path, monkeypatch, capsys,
                                                         command, target, code):
    # generate and bench take their sizes from arguments and the bench config;
    # predict and eval, like train, from their input files
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 71.1 PiB for an array with shape (10**16,)")

    model, cfg = tmp_path / "m.json", tmp_path / "bench.json"
    assert _train_toy(ws, model) == 0
    cfg.write_text(json.dumps(BENCH_CONFIG))
    monkeypatch.setattr(cli, target, exhausted)
    out = str(tmp_path / "out.json")
    argv = {
        "generate": ["--n", "8", "--m", "6", "--k", "2", "--out-prefix", str(tmp_path / "d")],
        "bench": ["--config", str(cfg), "--out", str(tmp_path / "o.csv")],
        "predict": ["--model", str(model), "--data", str(ws / "toy.test.libsvm"), "--out", out],
        "eval": ["--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                 "--truth", str(ws / "toy.truth.txt"), "--out", out],
    }[command]
    capsys.readouterr()
    assert cli.main([command, *argv]) == code
    kind = "usage" if code == 2 else "data"
    assert capsys.readouterr().err == (f"fgm: {kind} error: {command} ran out of memory: "
                                       "Unable to allocate 71.1 PiB for an array with shape "
                                       "(10**16,)\n")


@pytest.mark.parametrize("m", [10**30, 2**62, 0])
def test_predict_with_a_model_width_outside_the_trainable_range_exits_3(ws, tmp_path, m):
    model = tmp_path / "m.json"
    assert _train_toy(ws, model) == 0
    model.write_text(json.dumps({**json.loads(model.read_text()), "m": m}))
    r = run_cli("predict", "--model", model, "--data", ws / "toy.test.libsvm",
                "--out", tmp_path / "p.json")
    assert r.returncode == 3, r.stderr
    assert r.stderr == f"fgm: data error: model m={m} outside [1, {sys.maxsize // 8}]\n"


@pytest.mark.parametrize("kind,text", [("--groups", "g1: 0 1\ng2: 99999999999999999999\n"),
                                       ("--tree", "a ROOT: 0 1\nb a: 99999999999999999999\n")])
def test_structure_index_beyond_the_integer_range_exits_3(ws, tmp_path, capsys, kind, text):
    structure = tmp_path / "structure.txt"
    structure.write_text(text)
    assert _train_toy(ws, tmp_path / "m.json", kind, structure) == 3
    assert capsys.readouterr().err == (f"fgm: data error: {structure}:2: "
                                       "index 99999999999999999999 is too large\n")
    assert not (tmp_path / "m.json").exists()


def test_predict_and_eval_read_a_short_test_file_once(ws, tmp_path, monkeypatch):
    model_path = tmp_path / "m.json"
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--dim", "60",
                     "--out", str(model_path), "--budget", "3", "--max-outer", "3"]) == 0
    model = load_model(model_path)
    short = tmp_path / "short.libsvm"
    full = load_libsvm(ws / "toy.test.libsvm", model.m)
    full.X.data[full.X.indices >= 30] = 0.0
    full.X.eliminate_zeros()
    write_libsvm(full, short)
    assert load_libsvm(short).m < model.m
    reference = load_libsvm(short, model.m)
    labels, accuracy = predict(model, reference)
    truth = load_ground_truth(ws / "toy.truth.txt", model.m)

    reads = []

    def spy(*args):
        reads.append(args)
        return load_libsvm(*args)

    monkeypatch.setattr(cli, "load_libsvm", spy)
    assert cli.main(["predict", "--model", str(model_path), "--data", str(short),
                     "--out", str(tmp_path / "p.json"),
                     "--labels-out", str(tmp_path / "labels.txt")]) == 0
    assert len(reads) == 1
    assert (tmp_path / "labels.txt").read_text() == "".join(f"{v:+d}\n" for v in labels)
    assert json.loads((tmp_path / "p.json").read_text())["accuracy"] == accuracy
    assert cli.main(["eval", "--model", str(model_path), "--data", str(short),
                     "--truth", str(ws / "toy.truth.txt"), "--out", str(tmp_path / "e.json")]) == 0
    assert len(reads) == 2
    ev = json.loads((tmp_path / "e.json").read_text())
    assert (ev["accuracy"], ev["recovered"]) == (accuracy, evaluate_recovery(model, truth))


def test_structure_beyond_dimension_exits_3(ws, tmp_path):
    groups = tmp_path / "wide.groups"
    groups.write_text("g0: 0 1 2\ng1: 3 400\n")
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--dim", 60,
                "--out", tmp_path / "m.json", "--groups", groups)
    assert r.returncode == 3 and "structure references feature 400" in r.stderr


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_group_lambda_exits_3(ws, tmp_path, value):
    groups = tmp_path / "g.groups"
    groups.write_text(f"a: 0 1 2 | lambda={value}\nb: 3 4\n")
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", tmp_path / "m.json",
                "--groups", groups)
    assert r.returncode == 3, r.stderr
    assert f"data error: {groups}:1: lambda must be a finite non-negative number" in r.stderr
    assert not (tmp_path / "m.json").exists()


def test_tree_node_repeating_a_feature_exits_3(ws, tmp_path):
    tree = tmp_path / "repeat.tree"
    tree.write_text("a ROOT: 0 0 1\nb ROOT: 2\n")
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", tmp_path / "m.json",
                "--tree", tree)
    assert r.returncode == 3 and "repeats a feature" in r.stderr


def test_non_finite_values_exit_4(tmp_path):
    sick = tmp_path / "sick.libsvm"
    rows = [f"{'+1' if i % 2 else '-1'} 1:{i % 7}.5 2:nan 3:1.0\n" for i in range(12)]
    sick.write_text("".join(rows))
    r = run_cli("train", "--data", sick, "--out", tmp_path / "m.json", "--budget", 2)
    assert r.returncode == 4
    assert "numerical failure" in r.stderr


def test_single_non_finite_entry_exits_4(tmp_path):
    # one nan that no search would ever select must still stop training
    sick = tmp_path / "sick.libsvm"
    sick.write_text("+1 1:1 2:nan 3:0.5\n-1 1:2 3:1\n+1 1:0.5 2:1 3:2\n-1 2:3 3:1\n")
    r = run_cli("train", "--data", sick, "--out", tmp_path / "m.json",
                "--budget", 1, "--max-outer", 3)
    assert r.returncode == 4
    assert "numerical failure" in r.stderr and "outer iteration 1" in r.stderr
    assert not (tmp_path / "m.json").exists()


def test_predict_on_non_finite_test_data_exits_4(tmp_path):
    clean = tmp_path / "clean.libsvm"
    clean.write_text("+1 1:1 2:2 3:0.5\n-1 1:2 2:-1 3:1\n+1 1:0.5 2:1 3:2\n-1 2:-3 3:1\n")
    model_path = tmp_path / "m.json"
    r = run_cli("train", "--data", clean, "--out", model_path, "--budget", 3, "--max-outer", 2)
    assert r.returncode == 0, r.stderr
    weights = {e["id"]: e["weight"] for e in json.loads(model_path.read_text())["entries"]}
    assert weights.get(1, 0.0) != 0.0  # the model uses feature 2 (0-based 1)
    sick = tmp_path / "sick.libsvm"
    sick.write_text("+1 1:1 2:nan 3:0.5\n")
    (tmp_path / "truth.txt").write_text("1 1.0\n")
    for command, extra in {"predict": (), "eval": ("--truth", tmp_path / "truth.txt")}.items():
        r = run_cli(command, "--model", model_path, "--data", sick,
                    "--out", tmp_path / f"{command}.json", *extra)
        assert r.returncode == 4, (command, r.stderr)
        assert "numerical failure" in r.stderr and "non-finite score" in r.stderr
        assert not (tmp_path / f"{command}.json").exists()


def test_model_and_manifest_record_every_solver_field(ws, tmp_path):
    model_path = tmp_path / "m.json"
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--out", model_path,
                "--budget", 2, "--max-outer", 2)
    assert r.returncode == 0, r.stderr
    config = json.loads(model_path.read_text())["config"]
    parameters = json.loads(Path(f"{model_path}.manifest.json").read_text())["parameters"]
    for f in dataclasses.fields(SolverConfig):
        assert f.name in config and f.name in parameters, f.name
        assert config[f.name] == parameters[f.name]


def test_eval_rejects_non_plain_model(ws, tmp_path):
    model_path = tmp_path / "poly.model.json"
    r = run_cli("train", "--data", ws / "toy.train.libsvm", "--dim", 60,
                "--out", model_path, "--budget", 3, "--max-outer", 2, "--poly")
    assert r.returncode == 0, r.stderr
    r = run_cli("eval", "--model", model_path, "--data", ws / "toy.train.libsvm",
                "--truth", ws / "toy.truth.txt", "--out", tmp_path / "e.json")
    assert r.returncode == 2 and "usage error" in r.stderr


# ---------------------------------------------------------------------------
# outputs in a directory that does not exist yet


def _train_toy(ws, out, *extra):
    return cli.main(["train", "--data", str(ws / "toy.train.libsvm"), "--dim", "60",
                     "--out", str(out), "--budget", "3", "--max-outer", "2", *map(str, extra)])


def test_train_makes_the_directory_of_its_trace(ws, tmp_path):
    model, trace = tmp_path / "m.json", tmp_path / "new" / "t.csv"
    assert _train_toy(ws, model, "--trace", trace) == 0
    assert trace.exists()
    assert json.loads(Path(f"{model}.manifest.json").read_text())["outputs"] == [
        str(model), str(trace)]


@pytest.mark.parametrize("new", ["out", "labels-out"])
def test_predict_makes_the_directories_of_its_outputs(ws, tmp_path, new):
    model = tmp_path / "m.json"
    assert _train_toy(ws, model) == 0
    out, labels = tmp_path / "p.json", tmp_path / "l.txt"
    out, labels = (tmp_path / "new" / "p.json", labels) if new == "out" else (
        out, tmp_path / "new" / "l.txt")
    assert cli.main(["predict", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                     "--out", str(out), "--labels-out", str(labels)]) == 0
    assert len(labels.read_text().splitlines()) == 40
    assert json.loads(Path(f"{out}.manifest.json").read_text())["outputs"] == [
        str(out), str(labels)]


def test_eval_makes_the_directory_of_its_output(ws, tmp_path):
    model, out = tmp_path / "m.json", tmp_path / "new" / "e.json"
    assert _train_toy(ws, model) == 0
    assert cli.main(["eval", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                     "--truth", str(ws / "toy.truth.txt"), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["truth_size"] == 5
    assert Path(f"{out}.manifest.json").exists()


# ---------------------------------------------------------------------------
# an output that names an existing directory: exit 3 before the first write


def _files_in(d):
    return sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())


@pytest.mark.parametrize("taken", ["trace", "manifest"])
def test_train_output_that_is_a_directory_leaves_no_file(ws, tmp_path, taken):
    model, trace = tmp_path / "m.json", tmp_path / "t.csv"
    (trace if taken == "trace" else Path(f"{model}.manifest.json")).mkdir()
    assert _train_toy(ws, model, "--trace", trace) == 3
    assert _files_in(tmp_path) == []


def test_train_output_under_a_file_leaves_no_directory(ws, tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    model, trace = tmp_path / "new" / "m.json", tmp_path / "afile" / "t.csv"
    assert _train_toy(ws, model, "--trace", trace) == 3
    assert "not a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("taken", ["labels-out", "manifest"])
def test_predict_output_that_is_a_directory_leaves_no_file(ws, tmp_path, taken):
    model = tmp_path / "m.json"
    assert _train_toy(ws, model) == 0
    before = _files_in(tmp_path)
    out, labels = tmp_path / "p.json", tmp_path / "l.txt"
    (labels if taken == "labels-out" else Path(f"{out}.manifest.json")).mkdir()
    assert cli.main(["predict", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                     "--out", str(out), "--labels-out", str(labels)]) == 3
    assert _files_in(tmp_path) == before


def test_eval_manifest_that_is_a_directory_leaves_no_file(ws, tmp_path):
    model, out = tmp_path / "m.json", tmp_path / "e.json"
    assert _train_toy(ws, model) == 0
    before = _files_in(tmp_path)
    Path(f"{out}.manifest.json").mkdir()
    assert cli.main(["eval", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                     "--truth", str(ws / "toy.truth.txt"), "--out", str(out)]) == 3
    assert _files_in(tmp_path) == before


@pytest.mark.parametrize("second", ["m.json", "sub/../m.json", "m.json.manifest.json"])
def test_outputs_that_are_one_file_are_a_usage_error(ws, tmp_path, capsys, second):
    # the trace would overwrite the model or its manifest, and labels the metrics
    model = tmp_path / "m.json"
    assert _train_toy(ws, model, "--trace", tmp_path / second) == 2
    assert "usage error: two of the outputs" in capsys.readouterr().err
    assert _files_in(tmp_path) == []
    assert _train_toy(ws, model) == 0
    before = _files_in(tmp_path)
    out = tmp_path / "p.json"
    assert cli.main(["predict", "--model", str(model), "--data", str(ws / "toy.test.libsvm"),
                     "--out", str(out), "--labels-out",
                     str(tmp_path / second.replace("m.json", "p.json"))]) == 2
    assert "usage error: two of the outputs" in capsys.readouterr().err
    assert _files_in(tmp_path) == before


def test_train_refuses_its_outputs_before_it_loads_or_fits(ws, tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("called before the outputs were checked")

    monkeypatch.setattr(cli, "load_libsvm", never)
    monkeypatch.setattr(cli, "fgm_train", never)
    model = tmp_path / "m.json"
    assert _train_toy(ws, model, "--trace", model) == 2
    assert "usage error: two of the outputs" in capsys.readouterr().err
    assert _train_toy(ws, model, "--trace", tmp_path / "m.json" / "t.csv") == 2
    assert "lies under another output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_generate_refuses_its_outputs_before_it_draws(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("called before the outputs were checked")

    monkeypatch.setattr(cli, "generate_synthetic", never)
    (tmp_path / "d.test.libsvm").mkdir()
    assert cli.main(["generate", "--n", "8", "--m", "6", "--k", "2", "--n-test", "4",
                     "--out-prefix", str(tmp_path / "d")]) == 3
    assert "is a directory" in capsys.readouterr().err
    (tmp_path / "taken").write_text("kept")
    assert cli.main(["generate", "--n", "8", "--m", "6", "--k", "2",
                     "--out-prefix", str(tmp_path / "taken" / "d")]) == 3
    assert "not a directory" in capsys.readouterr().err
    assert _files_in(tmp_path) == [Path("taken")]


def test_infinite_c_and_negative_n_test_are_usage_errors(ws, tmp_path, capsys):
    assert cli.main(["train", "--data", str(ws / "toy.train.libsvm"),
                     "--out", str(tmp_path / "m.json"), "--C", "inf"]) == 2
    assert "usage error: C must be positive and finite" in capsys.readouterr().err
    assert cli.main(["generate", "--n", "8", "--m", "6", "--k", "2", "--n-test", "-3",
                     "--out-prefix", str(tmp_path / "d")]) == 2
    assert "usage error: n_test must be >= 0" in capsys.readouterr().err
    assert _files_in(tmp_path) == []


def test_generate_output_that_is_a_directory_leaves_no_file(tmp_path, capsys):
    (tmp_path / "d.test.libsvm").mkdir()
    assert cli.main(["generate", "--n", "8", "--m", "6", "--k", "2", "--n-test", "4",
                     "--out-prefix", str(tmp_path / "d")]) == 3
    assert "is a directory" in capsys.readouterr().err
    assert _files_in(tmp_path) == []


# ---------------------------------------------------------------------------
# bench subcommand


BENCH_CONFIG = {
    "data": {"synthetic": {"n": 64, "m": 128, "k": 8, "type": 1, "n_test": 32}},
    "seeds": [0, 1],
    "methods": [
        {"name": "fgm", "budget": 4, "max_outer": 4, "eps_outer": 0.0},
        {"name": "l1", "target_support": 8, "tol": 0.25},
        {"name": "l1-debias", "base": "l1-s8"},
    ],
}


def rows_without_seconds(path):
    with open(path, newline="") as fh:
        return [{k: v for k, v in row.items() if k != "seconds"}
                for row in csv.DictReader(fh)]


def model_bytes(models_dir):
    return {p.name: p.read_bytes() for p in sorted(models_dir.glob("*.model.json"))}


def test_bench_runs_and_is_deterministic(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))

    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "a.csv",
                "--models-dir", tmp_path / "a-models")
    assert r.returncode == 0, r.stderr
    rows = rows_without_seconds(tmp_path / "a.csv")
    assert [row["setting"] for row in rows] == [
        "fgm-B4", "fgm-B4", "l1-s8", "l1-s8", "l1-s8-debias", "l1-s8-debias"]
    for row in rows:
        assert row["recovered"] != ""          # plain models report recovery
        if row["method"] == "fgm":
            assert row["budget"] == "4" and row["outer_iters"] != ""
        else:
            assert row["budget"] == ""
    manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
    assert manifest["parameters"]["threads"] == 1

    # serial rerun: identical rows, bit-identical models
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "b.csv",
                "--models-dir", tmp_path / "b-models")
    assert r.returncode == 0, r.stderr
    assert rows_without_seconds(tmp_path / "b.csv") == rows
    assert model_bytes(tmp_path / "b-models") == model_bytes(tmp_path / "a-models")

    # parallel rerun through the environment knob: same results
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "c.csv",
                "--models-dir", tmp_path / "c-models", env_extra={"FGM_THREADS": "2"})
    assert r.returncode == 0, r.stderr
    assert rows_without_seconds(tmp_path / "c.csv") == rows
    assert model_bytes(tmp_path / "c-models") == model_bytes(tmp_path / "a-models")
    assert json.loads((tmp_path / "c.csv.manifest.json").read_text())["parameters"]["threads"] == 2


def test_bench_config_errors(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{]")
    assert run_cli("bench", "--config", bad_json, "--out", tmp_path / "o.csv").returncode == 3

    unknown = dict(BENCH_CONFIG, methods=[{"name": "boosting"}])
    cfg = tmp_path / "unknown.json"
    cfg.write_text(json.dumps(unknown))
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "o.csv")
    assert r.returncode == 2 and "unknown method" in r.stderr

    orphan = dict(BENCH_CONFIG, methods=[{"name": "l1-debias", "base": "nope"}])
    cfg2 = tmp_path / "orphan.json"
    cfg2.write_text(json.dumps(orphan))
    assert run_cli("bench", "--config", cfg2, "--out", tmp_path / "o.csv").returncode == 2

    for data, fragment in [({"synthetic": {"m": 4, "k": 1}}, "data.synthetic.n"),
                           ({"train": 5}, "data.train")]:
        cfg3 = tmp_path / "data.json"
        cfg3.write_text(json.dumps(dict(BENCH_CONFIG, data=data)))
        r = run_cli("bench", "--config", cfg3, "--out", tmp_path / "o.csv")
        assert r.returncode == 2 and fragment in r.stderr and "Traceback" not in r.stderr


def test_bad_thread_environment_exits_2(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "o.csv",
                env_extra={"FGM_THREADS": "zero"})
    assert r.returncode == 2 and "FGM_THREADS" in r.stderr
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "o.csv",
                env_extra={"FGM_THREADS": "0"})
    assert r.returncode == 2


def test_bench_threads_flag_below_one_exits_2(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    r = run_cli("bench", "--config", cfg, "--out", tmp_path / "o.csv", "--threads", "0")
    assert r.returncode == 2 and "threads must be an integer >= 1, got 0" in r.stderr
    assert not (tmp_path / "o.csv").exists()


def test_bench_usage_error_leaves_no_directory(tmp_path):
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out, models = tmp_path / "new" / "o.csv", tmp_path / "models"
    argv = ["bench", "--config", str(cfg), "--out", str(out), "--models-dir", str(models)]
    assert cli.main([*argv, "--threads", "0"]) == 2
    assert not (tmp_path / "new").exists() and not models.exists()
    assert cli.main([*argv, "--threads", "1"]) == 0
    assert out.exists() and Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("case", ["same path", "existing file", "under the csv"])
def test_bench_refuses_its_outputs_before_the_first_fit(tmp_path, monkeypatch, capsys, case):
    def never(*args, **kwargs):
        raise AssertionError("ran before the outputs were checked")

    monkeypatch.setattr(cli, "run_config", never)
    cfg = tmp_path / "bench.json"
    cfg.write_text(json.dumps(BENCH_CONFIG))
    out = tmp_path / "r.csv"
    models = {"same path": out, "existing file": tmp_path / "taken",
              "under the csv": out / "models"}[case]
    if case == "existing file":
        models.write_text("kept")
    before = _files_in(tmp_path)
    assert cli.main(["bench", "--config", str(cfg), "--out", str(out),
                     "--models-dir", str(models)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fgm: usage error: ") and "Traceback" not in err
    assert _files_in(tmp_path) == before and not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in before)
