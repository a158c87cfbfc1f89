import json
import os
import subprocess
import sys

import numpy as np
import pytest

from scdh import model
from scdh.data import (Dataset, SyntheticConfig, gen_gaussian_clusters,
                       save_dataset, strip_labels)

RUN = [sys.executable, "-m", "scdh.cli"]


def run_cli(*args, expect=0):
    proc = subprocess.run([*RUN, *map(str, args)], capture_output=True, text=True)
    assert proc.returncode == expect, (proc.stdout, proc.stderr)
    return proc


def tiny_gen(out, seed=0, **overrides):
    args = ["gen", "--mode", "single", "--classes", 3, "--dim", 6,
            "--cluster-std", 0.4, "--center-spread", 2.0,
            "--train-per-class", 20, "--query-per-class", 5,
            "--db-per-class", 20, "--seed", seed, "--out", out]
    for key, val in overrides.items():
        args += [f"--{key}", val]
    return run_cli(*args)


def tiny_train(data_dir, out, seed=0, extra=()):
    return run_cli("train", "--data", os.path.join(data_dir, "train.scds"),
                   "--bits", 8, "--hidden", "8", "--epochs", 3,
                   "--batch-size", 16, "--lr", "0.002", "--seed", seed,
                   "--out", out, *extra)


class TestValidation:
    def test_missing_data_file(self, tmp_path):
        proc = run_cli("train", "--data", tmp_path / "nope.scds",
                       "--out", tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"classes": 3, "bogus-key": 1}))
        proc = run_cli("gen", "--config", cfg, "--out", tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert "bogus-key" in err["message"]

    def test_bad_preset(self, tmp_path):
        proc = run_cli("gen", "--preset", "nonsense", "--out", tmp_path, expect=1)
        assert json.loads(proc.stderr)["error"] == "validation"

    def test_invalid_hp_is_validation_error(self, tmp_path):
        tiny_gen(tmp_path / "d")
        proc = run_cli("train", "--data", tmp_path / "d" / "train.scds",
                       "--holder-p", 3, "--holder-q", 2, "--out",
                       tmp_path / "r", expect=1)
        assert json.loads(proc.stderr)["error"] == "validation"

    @pytest.mark.parametrize("command,unlabeled", [("train", 0), ("train-semi", 4)])
    def test_label_set_covering_every_class(self, tmp_path, command, unlabeled):
        # rejected while the label matrix is built, before any training step
        n = 12
        labels = [frozenset({i % 3, (i + 1) % 3}) for i in range(n)]
        labels[5] = frozenset({0, 1, 2})
        labels[n - unlabeled:] = [None] * unlabeled
        features = np.random.default_rng(0).normal(size=(n, 4))
        path = tmp_path / "ml.scds"
        save_dataset(Dataset(np.arange(n), features, tuple(labels), 3), path)
        proc = run_cli(command, "--data", path, "--bits", 4, "--hidden", "4",
                       "--epochs", 1, "--batch-size", 4, "--out", tmp_path / "r",
                       expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert "row 5" in err["message"] and "every class" in err["message"]
        assert not (tmp_path / "r" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "train-semi", "encode"])
    def test_non_finite_feature_rejected(self, tmp_path, command):
        cfg = SyntheticConfig(C=3, feature_dim=4, cluster_std=0.3,
                              center_spread=2.0, samples_per_class=6, seed=0)
        ds = strip_labels(gen_gaussian_clusters(cfg), 0.5, seed=1)
        ds.features[7, 2] = np.nan
        path = tmp_path / "nan.scds"
        save_dataset(ds, path)
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 4, 0),
                              model.Hyperparams())
        extra = {"train": ["--bits", 4, "--hidden", "4", "--epochs", 1],
                 "train-semi": ["--bits", 4, "--hidden", "4", "--epochs", 1],
                 "encode": ["--model", ckpt]}[command]
        proc = run_cli(command, "--data", path, *extra, "--out", tmp_path / "r",
                       expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert "row 7" in err["message"] and "non-finite" in err["message"]

    def test_help_exits_zero(self):
        proc = subprocess.run([*RUN, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verify-bounds" in proc.stdout


class TestConfigMerging:
    def test_config_file_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "single", "classes": 2, "dim": 4, "cluster-std": 0.3,
            "center-spread": 2.0, "train-per-class": 8, "query-per-class": 2,
            "db-per-class": 8,
        }))
        run_cli("gen", "--config", cfg, "--out", tmp_path / "o")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["classes"] == 2
        assert manifest["result"]["n_train"] == 16

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "single", "classes": 2, "dim": 4,
                                   "train-per-class": 8, "query-per-class": 2,
                                   "db-per-class": 8}))
        run_cli("gen", "--config", cfg, "--classes", 3, "--out", tmp_path / "o")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["classes"] == 3


class TestPipeline:
    def test_gen_train_encode_eval(self, tmp_path):
        d = tmp_path / "data"
        r = tmp_path / "run"
        tiny_gen(d)
        tiny_train(d, r)
        run_cli("encode", "--model", r / "model.ckpt", "--data",
                d / "query.scds", "--name", "q.scdh", "--out", r)
        run_cli("encode", "--model", r / "model.ckpt", "--data",
                d / "db.scds", "--name", "db.scdh", "--out", r)
        proc = run_cli("eval", "--queries", r / "q.scdh", "--database",
                       r / "db.scdh", "--query-data", d / "query.scds",
                       "--db-data", d / "db.scds", "--map-k", 10,
                       "--topk", "1,5", "--out", r)
        metrics = json.loads((r / "metrics.json").read_text())
        assert 0.0 <= metrics["map"] <= 1.0
        assert len(metrics["topk_curve"]) == 2
        manifest = json.loads((r / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"metrics.json", "metrics.csv",
                                            "topk_curve.csv"}

    def test_train_semi_pipeline(self, tmp_path):
        d = tmp_path / "data"
        r = tmp_path / "run"
        tiny_gen(d, **{"keep-labels": 0.4})
        run_cli("train-semi", "--data", d / "train.scds", "--bits", 8,
                "--hidden", "8", "--epochs", 2, "--batch-size", 16,
                "--lr", 0.001, "--w", 1.0, "--noise-std", 0.1,
                "--seed", 0, "--out", r)
        run_cli("encode", "--model", r / "model.ckpt", "--data",
                d / "query.scds", "--network", "teacher", "--name", "q.scdh",
                "--out", r)
        assert (r / "q.scdh").exists()

    def test_manifest_hashes_correct(self, tmp_path):
        import hashlib
        d = tmp_path / "data"
        tiny_gen(d)
        manifest = json.loads((d / "manifest.json").read_text())
        for name, digest in manifest["outputs"].items():
            actual = hashlib.sha256((d / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_preset_pipeline_hits_benchmark_numbers(self, tmp_path):
        # the preset run through the CLI reproduces the benchmark thresholds
        d = tmp_path / "data"
        r = tmp_path / "run"
        run_cli("gen", "--preset", "clusters8", "--seed", 0, "--out", d)
        run_cli("train", "--data", d / "train.scds", "--preset", "clusters8",
                "--seed", 0, "--out", r)
        run_cli("encode", "--model", r / "model.ckpt", "--data",
                d / "query.scds", "--name", "q.scdh", "--out", r)
        run_cli("encode", "--model", r / "model.ckpt", "--data",
                d / "db.scds", "--name", "db.scdh", "--out", r)
        run_cli("eval", "--queries", r / "q.scdh", "--database", r / "db.scdh",
                "--query-data", d / "query.scds", "--db-data", d / "db.scds",
                "--out", r)
        metrics = json.loads((r / "metrics.json").read_text())
        assert metrics["map"] >= 0.95
        assert metrics["precision_at_radius2"] >= 0.90


class TestVerifyAndToy:
    def test_verify_bounds_small(self, tmp_path):
        proc = run_cli("verify-bounds", "--instances", 25, "--ml-configs", 1,
                       "--trials", 1000, "--seed", 1, "--out", tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["result"]["violations"] == 0
        assert manifest["result"]["lambda_le_2"]
        rows = json.loads((tmp_path / "bounds.json").read_text())
        assert len(rows["unary"]) == 25
        assert all(r["holds"] for r in rows["unary"])

    def test_lambda_toy_small(self, tmp_path):
        run_cli("lambda-toy", "--sigma-grid", "0.3,0.8", "--d-grid", "2,6",
                "--samples-per-cluster", 40, "--triplet-samples", 20000,
                "--seed", 2, "--out", tmp_path)
        rows = json.loads((tmp_path / "lambda_grid.json").read_text())
        assert len(rows) == 4
        csv_text = (tmp_path / "lambda_grid.csv").read_text()
        assert csv_text.splitlines()[0].startswith("sigma,d,triplet_loss")


class TestDeterminism:
    def compare_dirs(self, a, b):
        names = sorted(os.listdir(a))
        assert names == sorted(os.listdir(b))
        for name in names:
            with open(os.path.join(a, name), "rb") as fa, \
                 open(os.path.join(b, name), "rb") as fb:
                assert fa.read() == fb.read(), f"{name} differs"

    def test_gen_byte_identical(self, tmp_path):
        tiny_gen(tmp_path / "a", seed=5)
        tiny_gen(tmp_path / "b", seed=5)
        self.compare_dirs(tmp_path / "a", tmp_path / "b")

    def test_train_byte_identical(self, tmp_path):
        d = tmp_path / "data"
        tiny_gen(d, seed=5)
        tiny_train(d, tmp_path / "a", seed=5)
        tiny_train(d, tmp_path / "b", seed=5)
        self.compare_dirs(tmp_path / "a", tmp_path / "b")
