"""Benchmark harness: config validation, ids, target steering, run output."""

import csv
import json

import numpy as np
import pytest

from fgm.bench import (fgm_target_support, load_config, run_config, setting_id,
                       thread_count, validate_config)
from fgm.dataset import FormatError, generate_synthetic, generate_test_set, write_ground_truth, write_libsvm
from fgm.engine import SolverConfig, evaluate_recovery, fgm_train, load_model, predict


def test_setting_id_derivation():
    assert setting_id({"id": "custom", "name": "fgm"}) == "custom"
    assert setting_id({"name": "fgm"}) == "fgm-B10"
    assert setting_id({"name": "fgm", "budget": 5, "target_support": 40}) == "fgm-B5-s40"
    assert setting_id({"name": "l1", "reg": 0.25}) == "l1-r0.25"
    assert setting_id({"name": "l1", "target_support": 30}) == "l1-s30"
    assert setting_id({"name": "l2-full"}) == "l2-full"
    assert setting_id({"name": "fgm-debias", "base": "fgm-B5"}) == "fgm-B5-debias"


def _valid_config():
    return {
        "data": {"synthetic": {"n": 32, "m": 16, "k": 3}},
        "seeds": [0],
        "methods": [{"name": "fgm", "budget": 2}],
    }


def test_validate_config_accepts_valid():
    validate_config(_valid_config())


@pytest.mark.parametrize("mutate,fragment", [
    (lambda c: c.pop("data"), "data"),
    (lambda c: c.update(data={"other": 1}), "data"),
    (lambda c: c.update(data={"synthetic": 5}), "synthetic must be an object"),
    (lambda c: c.update(data={"synthetic": {"m": 4, "k": 1}}), "synthetic.n must be an integer"),
    (lambda c: c.update(data={"synthetic": {"n": 8, "m": 4, "k": 1, "type": 1.5}}),
     "synthetic.type must be an integer"),
    (lambda c: c.update(data={"train": 5}), "data.train must be a string"),
    (lambda c: c.update(data={"train": "a.libsvm", "dim": "40"}), "data.dim must be an integer"),
    (lambda c: c.update(seeds=[]), "seeds"),
    (lambda c: c.update(seeds=["a"]), "seeds"),
    (lambda c: c.update(seeds=[True]), "seeds"),
    (lambda c: c.update(seeds=[-1]), "seeds"),
    (lambda c: c.pop("methods"), "methods"),
    (lambda c: c.update(methods=[1]), "method entry 1 must be an object"),
    (lambda c: c.update(methods=[{"name": "mystery"}]), "unknown method"),
    (lambda c: c.update(methods=[{"name": "fgm"}, {"name": "fgm"}]), "duplicate"),
    (lambda c: c.update(methods=[{"name": "fgm-debias", "base": "fgm-B10"},
                                 {"name": "fgm"}]), "earlier"),
    (lambda c: c.update(methods=[{"name": "l1"}]), "needs 'reg' or 'target_support'"),
    (lambda c: c.update(methods=[{"name": "fgm", "budget_typo": 1}]),
     "does not read 'budget_typo'"),
    (lambda c: c.update(methods=[{"name": "fgm", "eta": 0.5, "L0": 1.0, "seed": 3}]),
     "does not read 'L0', 'eta', 'seed'"),
    (lambda c: c.update(methods=[{"name": "l2-full", "reg": 1.0}]), "does not read 'reg'"),
    (lambda c: c.update(methods=[{"name": "l1", "reg": 1.0},
                                 {"name": "l1-debias", "base": "l1-r1", "C": 5.0}]),
     "does not read 'C'"),
    (lambda c: c.update(methods=[{"name": "fgm", "budget": 2, "C": "3"}]), "'C' must be a number"),
    (lambda c: c.update(methods=[{"name": "fgm", "budget": 2, "max_outer": 2.0}]),
     "'max_outer' must be an integer"),
    (lambda c: c.update(methods=[{"name": "l1", "reg": "x"}]), "'reg' must be a number"),
    (lambda c: c.update(methods=[{"name": "fgm", "budget": True}]), "'budget' must be an integer"),
    (lambda c: c.update(methods=[{"name": "l2-full", "loss": 1}]), "'loss' must be a string"),
])
def test_validate_config_rejects(mutate, fragment):
    config = _valid_config()
    mutate(config)
    with pytest.raises(ValueError, match=fragment):
        validate_config(config)


def test_load_config_file_errors(tmp_path):
    with pytest.raises(FormatError):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("[1,")
    with pytest.raises(FormatError, match="not valid JSON"):
        load_config(bad)


def test_thread_count(monkeypatch):
    monkeypatch.delenv("FGM_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("FGM_THREADS", "7")
    assert thread_count() == 7
    monkeypatch.setenv("FGM_THREADS", "two")
    with pytest.raises(ValueError):
        thread_count()
    monkeypatch.setenv("FGM_THREADS", "-3")
    with pytest.raises(ValueError):
        thread_count()


@pytest.mark.parametrize("threads", [0, -1, True, 2.0])
def test_run_config_rejects_a_thread_count_below_one(tmp_path, threads):
    # a count below one, or one that is not an integer, must not fall back to a serial run
    out = tmp_path / "results.csv"
    with pytest.raises(ValueError, match="^threads must be an integer >= 1"):
        run_config(_valid_config(), out, threads=threads)
    assert not out.exists() and not (tmp_path / "results-models").exists()


def test_fgm_target_support_picks_closest_prefix():
    data, _ = generate_synthetic(n=100, m=80, k=10, weighting=1, seed=2)
    cfg = SolverConfig(budget=3, max_outer=8, eps_outer=0.0)
    probe = fgm_train(data, cfg)
    seen, sizes = set(), []
    for rec in probe.trace:
        seen.update(rec.selected)
        sizes.append(len(seen))
    target = 7
    model = fgm_target_support(data, cfg, target)
    best = min(abs(s - target) for s in sizes)
    assert abs(model.support_size - target) == best
    # the steered run is an exact prefix of the probe
    for rec, ref in zip(model.trace, probe.trace):
        assert rec.selected == ref.selected
    again = fgm_target_support(data, cfg, target)
    assert again.support_size == model.support_size


def test_run_config_with_file_data(tmp_path):
    train, truth = generate_synthetic(n=60, m=40, k=4, weighting=1, seed=5)
    test = generate_test_set(truth, 30, seed=5)
    write_libsvm(train, tmp_path / "train.libsvm")
    write_libsvm(test, tmp_path / "test.libsvm")
    write_ground_truth(truth, tmp_path / "truth.txt")
    config = {
        "data": {"train": str(tmp_path / "train.libsvm"), "dim": 40,
                 "test": str(tmp_path / "test.libsvm"),
                 "truth": str(tmp_path / "truth.txt")},
        "seeds": [3, 1],
        "methods": [
            {"name": "fgm", "budget": 2, "max_outer": 3, "eps_outer": 0.0},
            {"name": "fgm-debias", "base": "fgm-B2"},
        ],
    }
    out = tmp_path / "results.csv"
    rows = run_config(config, out, threads=1)
    assert [(r["setting"], r["seed"]) for r in rows] == [
        ("fgm-B2", 1), ("fgm-B2", 3), ("fgm-B2-debias", 1), ("fgm-B2-debias", 3)]

    models_dir = tmp_path / "results-models"
    for row in rows:
        model = load_model(models_dir / f"{row['setting']}-seed{row['seed']}.model.json")
        _, acc = predict(model, test)
        assert row["accuracy"] == f"{acc:.6f}"
        assert int(row["support"]) == model.support_size
        assert int(row["recovered"]) == evaluate_recovery(model, truth)

    with open(out, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert [r["setting"] for r in parsed] == [r["setting"] for r in rows]
