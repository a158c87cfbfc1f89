import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from scdh import cli, model, retrieval
from scdh.data import (Dataset, SyntheticConfig, gen_gaussian_clusters,
                       labels_from_sets, load_dataset, save_dataset, strip_labels)

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
        save_dataset(Dataset(np.arange(n), features, labels_from_sets(labels, 3)), path)
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

    def test_encode_width_mismatch(self, tmp_path):
        # a 4-wide network and 5-wide rows: rejected before the forward pass
        path = tmp_path / "wide.scds"
        save_dataset(Dataset(np.arange(12), np.zeros((12, 5)), np.zeros((12, 3), bool)), path)
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 4, 0),
                              model.Hyperparams())
        proc = run_cli("encode", "--model", ckpt, "--data", path, "--out", tmp_path / "r",
                       expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert "5 features" in err["message"] and "takes 4" in err["message"]
        assert not (tmp_path / "r" / "codes.scdh").exists()

    def test_encode_non_finite_checkpoint(self, tmp_path):
        # one NaN weight would clear one bit in every code: the load rejects it
        net = model.init_model((4, 4), 3, 4, 0)
        net.hash_layer.W[0, 1] = np.nan
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, net, model.Hyperparams())
        path = tmp_path / "d.scds"
        save_dataset(Dataset(np.arange(12), np.ones((12, 4)), np.zeros((12, 3), bool)), path)
        proc = run_cli("encode", "--model", ckpt, "--data", path, "--out", tmp_path / "r",
                       expect=1)
        assert "student network's hash_layer.W block" in json.loads(proc.stderr)["message"]
        assert not (tmp_path / "r" / "codes.scdh").exists()

    def test_encode_teacher_of_student_only_checkpoint(self, tmp_path, capsys):
        # the value is checked before the load; a missing teacher is named,
        # and an unset --network records the network the codes come from
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 4, 0),
                              model.Hyperparams())
        path = tmp_path / "d.scds"
        save_dataset(Dataset(np.arange(12), np.ones((12, 4)), np.zeros((12, 3), bool)), path)
        out = tmp_path / "r"
        assert cli.main(["encode", "--model", str(tmp_path / "none.ckpt"), "--data",
                         str(path), "--network", "both", "--out", str(out)]) == 1
        assert "--network must be" in json.loads(capsys.readouterr().err)["message"]
        assert cli.main(["encode", "--model", str(ckpt), "--data", str(path),
                         "--network", "teacher", "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert str(ckpt) in err["message"] and "student-only" in err["message"]
        assert not list(out.glob("*.scdh"))
        assert cli.main(["encode", "--model", str(ckpt), "--data", str(path),
                         "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["network"] == "student"

    @pytest.mark.parametrize("damaged", ["query.scds", "query.scdh"])
    def test_damaged_input_file_exits_1(self, tmp_path, capsys, damaged):
        # a file cut a few bytes short is bad input, not a runtime failure
        r = tmp_path / "run"
        cfg = SyntheticConfig(C=3, feature_dim=4, cluster_std=0.3,
                              center_spread=2.0, samples_per_class=6, seed=0)
        save_dataset(gen_gaussian_clusters(cfg), tmp_path / "query.scds")
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 8, 0),
                              model.Hyperparams())
        assert cli.main(["encode", "--model", str(ckpt), "--data",
                         str(tmp_path / "query.scds"), "--name", "query.scdh",
                         "--out", str(tmp_path)]) == 0
        blob = (tmp_path / damaged).read_bytes()
        (tmp_path / damaged).write_bytes(blob[:-5])
        capsys.readouterr()
        if damaged.endswith(".scds"):
            argv = ["encode", "--model", str(ckpt), "--data", str(tmp_path / damaged)]
            written = "codes.scdh"
        else:
            argv = ["eval", "--queries", str(tmp_path / damaged), "--database",
                    str(tmp_path / damaged), "--query-data", str(tmp_path / "query.scds"),
                    "--db-data", str(tmp_path / "query.scds")]
            written = "metrics.json"
        assert cli.main([*argv, "--out", str(r)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert not (r / written).exists()

    @pytest.mark.parametrize("argv", [
        ["gen", "--classes", "0"],
        ["gen", "--dim", "0"],
        ["gen", "--cluster-std", "nan"],
        ["gen", "--keep-labels", "2"],
        ["train", "--bits", "0"],
        ["train", "--bits", "-3"],
        ["train", "--hidden", "0"],
        ["train-semi", "--bits", "0"],
        ["train-semi", "--bits", "-3"],
        ["train-semi", "--hidden", "0"],
    ])
    def test_bad_sizes_fail_before_any_work(self, tmp_path, capsys, monkeypatch, argv):
        # training never reads its data; no command writes a data file
        junk = tmp_path / "junk.scds"
        junk.write_bytes(b"not a dataset")
        loads = []
        monkeypatch.setattr(cli.data, "load_dataset", lambda *a: loads.append(a))
        extra = [] if argv[0] == "gen" else ["--data", str(junk)]
        out = tmp_path / "out"
        assert cli.main([*argv, *extra, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert not loads
        assert not [p for p in out.iterdir() if p.suffix in (".scds", ".ckpt")]

    def test_json_outputs_reject_nan(self, tmp_path):
        path = tmp_path / "x.json"
        with pytest.raises(ValueError):
            cli._write_json(str(path), {"lambda_max": float("nan")})
        assert list(tmp_path.iterdir()) == []

    def test_eval_looks_labels_up_by_id(self, tmp_path):
        d = tmp_path / "data"
        r = tmp_path / "run"
        tiny_gen(d)
        tiny_train(d, r)
        for split in ("query", "db"):
            run_cli("encode", "--model", r / "model.ckpt", "--data", d / f"{split}.scds",
                    "--name", f"{split}.scdh", "--out", r)
        query = load_dataset(d / "query.scds")
        # the query rows in reverse order, with the first row unlabeled, and
        # with a fourth label class
        rev = query.subset(np.arange(query.n)[::-1])
        save_dataset(rev, tmp_path / "reversed.scds")
        save_dataset(Dataset(query.ids, query.features,
                             np.vstack([query.labels[:1] & False, query.labels[1:]])),
                     tmp_path / "partial.scds")
        save_dataset(Dataset(query.ids, query.features,
                             np.pad(query.labels, ((0, 0), (0, 1)))),
                     tmp_path / "wide.scds")

        def evaluate(name, expect=0):
            return run_cli("eval", "--queries", r / "query.scdh", "--database", r / "db.scdh",
                           "--query-data", name, "--db-data", d / "db.scds",
                           "--topk", "1,5", "--out", tmp_path / name.stem, expect=expect)

        evaluate(d / "query.scds")
        evaluate(tmp_path / "reversed.scds")
        assert (tmp_path / "query" / "metrics.json").read_bytes() == \
            (tmp_path / "reversed" / "metrics.json").read_bytes()
        for name, words in (("partial", "unlabeled"), ("wide", "4 label classes")):
            err = json.loads(evaluate(tmp_path / f"{name}.scds", expect=1).stderr)
            assert err["error"] == "validation" and words in err["message"]
        assert "--db-data 3" in err["message"]

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

    def test_flags_override_preset(self, tmp_path):
        run_cli("gen", "--preset", "clusters8", "--train-per-class", 20,
                "--query-per-class", 2, "--db-per-class", 4, "--out", tmp_path / "d")
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["config"]["train-per-class"] == 20
        assert manifest["result"]["n_train"] == 160
        assert manifest["config"]["cluster-std"] == 1.05      # from the preset
        run_cli("train", "--data", tmp_path / "d" / "train.scds", "--preset", "clusters8",
                "--hp-preset", "nuswide-like", "--epochs", 1, "--lam", 0.002,
                "--out", tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1 and manifest["result"]["epochs"] == 1
        # the hp preset overrides the training preset, and a flag both
        assert manifest["config"]["alpha"] == 1.0 and manifest["config"]["lam"] == 0.002
        assert manifest["config"]["hidden"] == [64]

    def test_config_values_parse_like_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden": "16,8", "epochs": "2", "lr": 1,
                                   "lr-schedule": "1:0.5", "momentum": "0.5"}))
        got = cli.resolve("train", {}, str(cfg))
        assert got["hidden"] == (16, 8) and got["epochs"] == 2
        assert got["lr"] == 1.0 and isinstance(got["lr"], float)
        assert got["lr-schedule"] == ((1, 0.5),) and got["momentum"] == 0.5

    def test_config_overrides_preset(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"preset": "clusters8", "train-per-class": 3,
                                   "query-per-class": 1, "db-per-class": 2}))
        run_cli("gen", "--config", cfg, "--db-per-class", 4, "--out", tmp_path / "o")
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["result"] == {"n_train": 24, "n_query": 8, "n_db": 32,
                                      "labeled_train": 24}
        assert manifest["config"]["classes"] == 8

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
        # the database's code clusters, recomputed from its unpacked bits
        db = retrieval.load_codes(r / "db.scdh")
        bits = retrieval.unpack_bits(db.words, db.nbits)
        _, counts = np.unique(bits, axis=0, return_counts=True)
        want = {"distinct": len(counts), "largest_bucket": int(counts.max()),
                "constant_bits": np.flatnonzero((bits == bits[0]).all(axis=0)).tolist()}
        assert metrics["database_codes"] == want
        assert manifest["result"]["database_codes"] == want
        assert (r / "metrics.csv").read_text().startswith(
            "map,map_at_k,k,precision_at_radius2\n")

    def test_encode_reports_bit_balance(self, tmp_path):
        d = tmp_path / "data"
        r = tmp_path / "run"
        tiny_gen(d)
        tiny_train(d, r)
        run_cli("encode", "--model", r / "model.ckpt", "--data", d / "db.scds",
                "--name", "db.scdh", "--out", tmp_path / "enc")
        manifest = json.loads((tmp_path / "enc" / "manifest.json").read_text())
        codes = retrieval.load_codes(tmp_path / "enc" / "db.scdh")
        ones = retrieval.unpack_bits(codes.words, codes.nbits).mean(axis=0)
        assert manifest["result"] == {
            "n": codes.n, "bits": 8,
            "bit_ones": {"min": float(ones.min()), "max": float(ones.max())}}
        assert list(manifest["outputs"]) == ["db.scdh"]

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


    @pytest.mark.parametrize("args", [
        ["--kind", "foo"],
        ["--margin", "-1"],
        ["--trials", 999],
        ["--classes", "2", "--max-n", 200],
        ["--max-r", 1],
        ["--classes", "1,2"],
        ["--classes", "2,65"],
        ["--instances", -1],
        ["--instances", 0],
        ["--ml-configs", -1],
        ["--margin", "nan"],
    ])
    def test_verify_bounds_bad_input(self, tmp_path, args):
        proc = run_cli("verify-bounds", "--instances", 50, "--ml-configs", 1,
                       "--trials", 1000, *args, "--out", tmp_path, expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert args[-2] in err["message"]           # names the bad flag
        assert not (tmp_path / "bounds.json").exists()

    @pytest.mark.parametrize("command, config", [
        ("train", {"epochs": 2.5}),
        ("train", {"hidden": 4}),
        ("train", {"bits": True}),
        ("train-semi", {"lr": None}),
        ("train-semi", {"w": "abc"}),
        ("eval", {"radius": "x"}),
        ("gen", {"preset": ["clusters8"]}),
    ])
    def test_config_value_types(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        proc = run_cli(command, "--config", cfg, "--out", tmp_path / "o", expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert repr(next(iter(config))) in err["message"]     # names the key
        assert not (tmp_path / "o" / "manifest.json").exists()

    @pytest.mark.parametrize("args", [
        ["--ema-decay", "1.5"],
        ["--ema-decay", "nan"],
        ["--w", "-1"],
        ["--w", "nan"],
        ["--w", "inf"],
        ["--noise-std", "-0.5"],
        ["--noise-std", "nan"],
        ["--ramp-fraction", "nan"],
        ["--ramp-fraction", "-1"],
        ["--ramp-fraction", "1.5"],
    ])
    def test_train_semi_bad_settings(self, tmp_path, args):
        # rejected before the data is read: the unreadable file would also
        # exit 1, but with a message that names no flag
        junk = tmp_path / "junk.scds"
        junk.write_bytes(b"not a dataset")
        proc = run_cli("train-semi", "--data", junk, *args, "--out", tmp_path / "r",
                       expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "validation"
        assert args[0] in err["message"]            # names the bad flag
        assert not (tmp_path / "r" / "model.ckpt").exists()

    @pytest.mark.parametrize("command", ["train", "train-semi"])
    @pytest.mark.parametrize("args", [
        ["--lr", "nan"], ["--lr", "inf"], ["--lam", "nan"], ["--mu", "nan"],
        ["--alpha", "nan"], ["--lr-schedule", "2:nan"], ["--lr-schedule", "2:0"],
    ])
    def test_train_non_finite_hyperparams(self, tmp_path, command, args):
        junk = tmp_path / "junk.scds"
        junk.write_bytes(b"not a dataset")
        proc = run_cli(command, "--data", junk, *args, "--out", tmp_path / "r",
                       expect=1)
        err = json.loads(proc.stderr)
        # the hyperparameter check, not the unreadable file, is what failed
        assert err["error"] == "validation" and "finite" in err["message"]
        assert not (tmp_path / "r" / "model.ckpt").exists()

    @pytest.mark.parametrize("args", [
        ["--clusters", 1],
        ["--triplet-samples", 0],
        ["--samples-per-cluster", 1, "--clusters", 40],
        ["--bits", 2, "--clusters", 3],
        ["--sigma-grid", "-0.5"],
        ["--sigma-grid", "nan"],
        ["--sigma-grid", "inf"],
        ["--d-grid", "nan"],
        ["--d-grid", "inf"],
        ["--margin", "nan"],
    ])
    def test_lambda_toy_bad_input(self, tmp_path, args):
        proc = run_cli("lambda-toy", "--sigma-grid", "1.0", "--d-grid", "2.0",
                       "--triplet-samples", 1000, *args, "--out", tmp_path, expect=1)
        assert json.loads(proc.stderr)["error"] == "validation"
        assert not (tmp_path / "lambda_grid.csv").exists()

    def test_bound_summary_agrees_with_rows(self, tmp_path):
        run_cli("verify-bounds", "--instances", 60, "--ml-configs", 2,
                "--trials", 1000, "--seed", 4, "--out", tmp_path)
        report = json.loads((tmp_path / "bounds.json").read_text())
        summary = report["summary"]
        for family in ("unary", "multilabel"):
            rows = report[family]
            slack = [(r["bound_value"] - r["brute_force_loss"]) / r["bound_value"]
                     for r in rows if r["bound_value"] > 0]
            assert summary[family]["min_relative_slack"] == min(slack)
            row = rows[summary[family]["min_slack_row"]]
            assert (row["bound_value"] - row["brute_force_loss"]) / row["bound_value"] \
                == min(slack)
            assert summary[family]["zero_bound_checks"] == len(rows) - len(slack)
        hist = summary["lambda_histogram"]
        lams = [r["lambda_estimate"] for r in report["unary"] if not r["degenerate"]]
        edges = hist["edges"]
        assert hist["below"] == sum(l < edges[0] for l in lams)
        assert hist["above"] == sum(l > edges[-1] for l in lams)
        for b, count in enumerate(hist["counts"]):
            last = b == len(hist["counts"]) - 1
            assert count == sum(edges[b] <= l and (l < edges[b + 1] or last and l == edges[-1])
                                for l in lams)
        assert hist["degenerate"] == sum(r["degenerate"] for r in report["unary"])

    def test_outputs_match_frozen_digests(self, tmp_path):
        # sha256 of outputs written before the row-block, trial-batched and
        # table-lookup rewrite of scdh.bounds; bounds.json without "summary",
        # serialised as the CLI writes it
        frozen = {
            "unary_bounds.csv":
                "69de552153484210ec0c3767714f10f33bfa964e174b35fec8d1e36e758cfebf",
            "multilabel_bounds.csv":
                "8986d16c800a23a4ea3f1fac8b0fff828aa2cb8eacc40ee9cb092c4b03f6dadc",
            "bounds.json":
                "2fe020bd4583491be39ff4deac6fb345affb23acd06a566e957f09e90eeef00c",
            "lambda_grid.csv":
                "e440fdaee9127f0fc4527ccacb1de7d49cf2e15bacd8d2bf5887b9b11cc5b55d",
            "lambda_grid.json":
                "a436f28c218b2b1c572c4c5dc9e6cbd11b8120d45d09402acb943a131b3ea4bb",
        }
        run_cli("verify-bounds", "--instances", 50, "--ml-configs", 2,
                "--trials", 1000, "--seed", 0, "--out", tmp_path)
        run_cli("lambda-toy", "--sigma-grid", "0.5,1.5", "--d-grid", "4.0",
                "--seed", 0, "--out", tmp_path)
        report = json.loads((tmp_path / "bounds.json").read_text())
        del report["summary"]
        (tmp_path / "bounds.json").write_text(json.dumps(report, indent=2,
                                                         sort_keys=True) + "\n")
        for name, digest in frozen.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name


    def test_training_outputs_match_frozen_digests(self, tmp_path):
        # sha256 of training outputs written while supervised and
        # semi-supervised training were two separate loops.  The supervised
        # reports are left out: the one loop sums the epoch means row by row,
        # which moves their last bits.
        frozen = {
            "t/model.ckpt":
                "e4afdba2fd273aa44a42ac32773fa0a8465dad7fd4bb402ffe59bcbf00712efe",
            "s/model.ckpt":
                "454c545b30aedd99c1db33bb0cdac8b656cb39805de6c0a6de6921fec47d976d",
            "s/train_report.json":
                "444348d5ab2989cf5186aba800b77d894ac1ef4e6ab6a76844462dc8ed1f6215",
            "s/train_report.csv":
                "a3c2ad1a008ea0e2239421b4e4621a1cea19cd78a6e986350201fc42c02ec7b1",
        }
        schedule = ["--warmup-epochs", 1, "--lr-schedule", "2:0.5", "--seed", 0]
        tiny_gen(tmp_path / "d")
        tiny_train(tmp_path / "d", tmp_path / "t", extra=schedule)
        tiny_gen(tmp_path / "ds", **{"keep-labels": 0.4})
        run_cli("train-semi", "--data", tmp_path / "ds" / "train.scds", "--bits", 8,
                "--hidden", "8", "--epochs", 3, "--batch-size", 16, "--lr", 0.001,
                "--w", 1.0, "--noise-std", 0.1, *schedule, "--out", tmp_path / "s")
        for name, digest in frozen.items():
            got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert got == digest, name


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

    def test_encode_byte_identical_across_blas_threads(self, tmp_path):
        # a trunk wide enough for OpenBLAS to split each block's products
        # between threads, over more than four blocks of rows
        n, dims = 20_001, (32, 512, 256)
        ckpt, path = tmp_path / "m.ckpt", tmp_path / "d.scds"
        model.save_checkpoint(ckpt, model.init_model(dims, 6, 64, seed=1),
                              model.Hyperparams())
        features = np.random.default_rng(2).normal(size=(n, dims[0]))
        save_dataset(Dataset(np.arange(n), features, np.zeros((n, 6), bool)), path)
        digests = set()
        for threads in ("1", "2"):
            out = tmp_path / threads
            proc = subprocess.run(
                [*RUN, "encode", "--model", ckpt, "--data", path, "--out", out],
                capture_output=True, text=True,
                env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
            assert proc.returncode == 0, proc.stderr
            digests.add(hashlib.sha256((out / "codes.scdh").read_bytes()).hexdigest())
        assert len(digests) == 1

    def test_train_byte_identical(self, tmp_path):
        d = tmp_path / "data"
        tiny_gen(d, seed=5)
        tiny_train(d, tmp_path / "a", seed=5)
        tiny_train(d, tmp_path / "b", seed=5)
        self.compare_dirs(tmp_path / "a", tmp_path / "b")
