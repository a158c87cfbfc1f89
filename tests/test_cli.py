import argparse
import csv
import dataclasses
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scdh import bounds, cli, data, losses, model, retrieval
from scdh.data import Dataset, SyntheticConfig, load_dataset, save_dataset, strip_labels
from scdh.errors import PreconditionError

from conftest import gen_gaussian_clusters, labels_from_sets

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

    def test_invalid_hp_is_validation_error(self, tmp_path, capsys, monkeypatch):
        # p = 1 has no finite dual exponent; from 2**53 on, p / (p - 1) can
        # round to 1.  Refused while the config resolves, before any data is read
        loads = []
        monkeypatch.setattr(cli.data, "load_dataset", lambda *a: loads.append(a))
        path = training_file(tmp_path / "d.scds", [{0}, {1}])
        out = tmp_path / "out"
        for command in ("train", "train-semi"):
            for p in ("1", "0.5", "9007199254740992", "1e16"):
                assert cli.main([command, "--data", path, "--holder-p", p,
                                 "--out", str(out)]) == 1
                assert json.loads(capsys.readouterr().err) == {
                    "error": "validation", "message": "--holder-p must be a finite "
                    f"number in (1, 9007199254740992), got {p}"}
        assert not loads and not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-semi"])
    def test_checkpoint_holds_the_dual_exponent(self, tmp_path, command):
        path = training_file(tmp_path / "d.scds", [{0}, {1}, {2}, None] * 3)
        for p in ("1.5", "3", "4"):
            out = tmp_path / p
            assert cli.main([command, "--data", path, "--bits", "4", "--hidden", "4",
                             "--epochs", "1", "--holder-p", p, "--out", str(out)]) == 0
            _, hp, _, _ = model.load_checkpoint(out / "model.ckpt")
            assert hp.holder_p == float(p) and hp.holder_q == float(p) / (float(p) - 1.0)

    def test_holder_p_domain_ends_have_a_dual(self):
        # the domain's smallest and largest values give a q above 1 that
        # model.Hyperparams works out and the quantization penalty accepts
        for p in (float(np.nextafter(1.0, 2.0)), 2.0**53 - 1.0, 1.5, 3.0):
            hp = cli.hyperparams(cli.resolve("train", {"holder-p": repr(p)}))
            assert hp.holder_p == p and hp.holder_q == p / (p - 1.0) > 1.0
            assert losses.dual_exponent(p) == hp.holder_q
            losses.quantization_batch(np.ones((2, 3)), hp.holder_p)

    def test_large_holder_p_is_blamed_on_itself(self, tmp_path):
        # p = 1000 takes the p-norm of small embedding rows out of float64
        # range: the run names --holder-p, not the learning rate, in one line
        run_cli("gen", "--preset", "clusters8", "--seed", 1, "--out", tmp_path / "d")
        proc = run_cli("train", "--data", tmp_path / "d" / "train.scds",
                       "--preset", "clusters8", "--epochs", 2, "--holder-p", 1000,
                       "--out", tmp_path / "m", expect=2)
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        err = json.loads(lines[0])
        assert err["error"] == "runtime" and "--holder-p" in err["message"]

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

    @pytest.mark.parametrize("holder_q", [2.0, np.nan])
    def test_encode_checkpoint_with_a_non_dual_holder_q(self, tmp_path, capsys, holder_q):
        # the stored dual exponent is checked, not read: one that disagrees
        # with holder_p marks a damaged file
        hp = model.Hyperparams()
        hp.holder_q = holder_q           # bypasses __post_init__
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 4, 0), hp)
        path = tmp_path / "d.scds"
        save_dataset(Dataset(np.arange(12), np.ones((12, 4)), np.zeros((12, 3), bool)), path)
        out = tmp_path / "r"
        assert cli.main(["encode", "--model", str(ckpt), "--data", str(path),
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "holder_q" in err["message"]
        assert not (out / "codes.scdh").exists()

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

    def test_scds_label_past_label_count_exits_1(self, tmp_path, capsys):
        # a 3-class dataset whose header is rewritten to C = 2 holds labels at C
        path = tmp_path / "d.scds"
        save_dataset(gen_gaussian_clusters(SyntheticConfig(
            C=3, feature_dim=4, cluster_std=0.3, center_spread=2.0,
            samples_per_class=6, seed=0)), path)
        blob = bytearray(path.read_bytes())
        data._DS_HEADER.pack_into(blob, 0, *data._DS_HEADER.unpack_from(blob, 0)[:-1], 2)
        path.write_bytes(bytes(blob))
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 2, 8, 0), model.Hyperparams())
        out = tmp_path / "r"
        assert cli.main(["encode", "--model", str(ckpt), "--data", str(path),
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "out of range for C=2" in err["message"]
        assert not (out / "codes.scdh").exists()

    @pytest.mark.parametrize("flags", [["--map-k", "-3"], ["--map-k", "1.5"],
                                       ["--topk", "0"], ["--topk", "5,3"],
                                       ["--topk", "19"]])
    def test_eval_bad_flags_exit_1(self, tmp_path, capsys, monkeypatch, flags):
        # each value but the last is rejected before any file is read; the
        # last exceeds the 18 database codes, and is rejected before ranking
        ds = tmp_path / "d.scds"
        save_dataset(gen_gaussian_clusters(SyntheticConfig(
            C=3, feature_dim=4, cluster_std=0.3, center_spread=2.0,
            samples_per_class=6, seed=0)), ds)
        ckpt = tmp_path / "m.ckpt"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 8, 0), model.Hyperparams())
        assert cli.main(["encode", "--model", str(ckpt), "--data", str(ds),
                         "--out", str(tmp_path)]) == 0
        codes = str(tmp_path / "codes.scdh")
        argv = ["eval", "--queries", codes, "--database", codes,
                "--query-data", str(ds), "--db-data", str(ds)]
        assert cli.main([*argv, "--topk", "18", "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        if flags[1] != "19":
            monkeypatch.setattr(cli.data, "open_dataset",
                                lambda *a: pytest.fail("data read"))
        out = tmp_path / "bad"
        assert cli.main([*argv, *flags, "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and flags[0] in err["message"]
        assert not (out / "metrics.json").exists()

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
        # refused while the config resolves: no data is read, and no --out
        # directory is made
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
        assert not out.exists()

    @pytest.mark.parametrize("argv, named", [
        (["gen", "--db-per-class", "-2"], "--db-per-class"),
        (["gen", "--query-per-class", "0"], "--query-per-class"),
        (["gen", "--mode", "multi", "--n-query", "-1"], "--n-query"),
        (["gen", "--mode", "multi", "--n-db", "0"], "--n-db"),
        (["gen", "--train-per-class", "0"], "--train-per-class"),
        (["train", "--holder-p", "1"], "--holder-p"),
        *(([command, "--seed", "-1"], "--seed") for command in cli.COMMANDS),
        (["lambda-toy", "--sigma-grid", ""], "grid"),
        (["lambda-toy", "--d-grid", ""], "grid"),
    ])
    def test_bad_input_exits_1_with_one_message(self, tmp_path, capsys, argv, named):
        # sizes below 1, a Hoelder exponent with no finite dual, a negative
        # seed and an empty toy grid are refused before any file is read or
        # written
        out = tmp_path / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation" and named in err["message"]
        assert "Error:" not in err["message"]           # no raw exception text
        assert not out.exists() or not any(out.iterdir())

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


B = model.EMBED_BLOCK_ROWS


def encode_argv(d, data_name, out, name="codes.scdh"):
    return ["encode", "--model", str(d / "m.ckpt"), "--data", str(d / data_name),
            "--name", name, "--out", str(out)]


def eval_argv(d, queries, database, db_data, out):
    return ["eval", "--queries", str(queries), "--database", str(database),
            "--query-data", str(d / "q.scds"), "--db-data", str(d / db_data),
            "--out", str(out)]


class TestStreamedEncodeEval:
    """encode works a row block at a time and eval reads ids and labels only."""

    n = 3 * B + 5

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("stream")
        rng = np.random.default_rng(4)
        net = model.init_model((5, 7), 3, 70, seed=2)   # 70 bits: two code words
        model.save_checkpoint(d / "m.ckpt", net, model.Hyperparams())
        X = rng.normal(size=(self.n, 5)).astype(np.float32)
        labels = np.eye(3, dtype=bool)[rng.integers(3, size=self.n)]
        save_dataset(Dataset(np.arange(self.n) * 3 + 1, X, labels), d / "db.scds")
        save_dataset(Dataset(np.arange(9), X[:9], labels[:9]), d / "q.scds")
        return d, net, X

    def test_encode_equals_the_whole_forward_pass(self, files, tmp_path, monkeypatch):
        d, net, X = files
        calls = []
        embed = model.extract_embeddings
        monkeypatch.setattr(cli.model, "extract_embeddings",
                            lambda net, rows: calls.append(len(rows)) or embed(net, rows))
        assert cli.main(encode_argv(d, "db.scds", tmp_path)) == 0
        # one call per block, none short: F keeps its bits
        assert calls == [B, B, B + 5]
        F = model.forward_batch(net, X)[0]
        codes = retrieval.load_codes(tmp_path / "codes.scdh")
        assert np.array_equal(codes.words, retrieval.binarize_batch(F))
        assert np.array_equal(codes.ids, np.arange(self.n) * 3 + 1)
        ones = np.count_nonzero(F >= 0.0, axis=0) / self.n
        result = json.loads((tmp_path / "manifest.json").read_text())["result"]
        assert result == {"n": self.n, "bits": 70,
                          "bit_ones": {"min": float(ones.min()), "max": float(ones.max())}}

    def test_nan_in_the_last_block_exits_1(self, files, tmp_path, capsys):
        d, _, X = files
        ds = load_dataset(d / "db.scds")
        row = self.n - 2                                # in the last block
        ds.features[row, 3] = np.nan
        save_dataset(ds, tmp_path / "nan.scds")
        (tmp_path / "m.ckpt").write_bytes((d / "m.ckpt").read_bytes())
        out = tmp_path / "r"
        assert cli.main(encode_argv(tmp_path, "nan.scds", out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"] == (f"--data: row {row} (id {row * 3 + 1}) has a "
                                  "non-finite feature value")
        assert not (out / "codes.scdh").exists()

    def test_eval_reads_no_feature_row(self, files, tmp_path, monkeypatch):
        d, _, _ = files
        assert cli.main(encode_argv(d, "q.scds", tmp_path, "q.scdh")) == 0
        assert cli.main(encode_argv(d, "db.scds", tmp_path, "db.scdh")) == 0
        reads = []
        monkeypatch.setattr(data.DatasetFile, "rows", lambda *a: reads.append(a))
        assert cli.main(eval_argv(d, tmp_path / "q.scdh", tmp_path / "db.scdh",
                                  "db.scds", tmp_path / "eval")) == 0
        assert reads == []

    def test_eval_packs_each_label_block_once(self, files, tmp_path, monkeypatch):
        # the unlabeled-row check and the ranking share one packing per side
        d, _, _ = files
        assert cli.main(encode_argv(d, "q.scds", tmp_path, "q.scdh")) == 0
        assert cli.main(encode_argv(d, "db.scds", tmp_path, "db.scdh")) == 0
        packed = []
        real = retrieval.pack_bits
        monkeypatch.setattr(retrieval, "pack_bits",
                            lambda bits: packed.append(bits.shape) or real(bits))
        assert cli.main(eval_argv(d, tmp_path / "q.scdh", tmp_path / "db.scdh",
                                  "db.scds", tmp_path / "eval")) == 0
        assert sorted(packed) == sorted([load_dataset(d / "q.scds").labels.shape,
                                         load_dataset(d / "db.scds").labels.shape])

    def test_eval_refuses_an_unlabeled_database_row(self, files, tmp_path, capsys):
        d, _, _ = files
        assert cli.main(encode_argv(d, "q.scds", tmp_path, "q.scdh")) == 0
        assert cli.main(encode_argv(d, "db.scds", tmp_path, "db.scdh")) == 0
        ds = load_dataset(d / "db.scds")
        ds.labels[self.n - 4] = False
        save_dataset(ds, tmp_path / "db.scds")
        (tmp_path / "q.scds").write_bytes((d / "q.scds").read_bytes())
        capsys.readouterr()
        out = tmp_path / "eval"
        assert cli.main(eval_argv(tmp_path, tmp_path / "q.scdh", tmp_path / "db.scdh",
                                  "db.scds", out)) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation",
                       "message": "database: unlabeled samples cannot be evaluated"}
        assert not (out / "metrics.json").exists()

    def test_eval_rejects_a_cut_feature_block(self, files, tmp_path, capsys):
        # eval reads no feature row, but checks the whole layout
        d, _, _ = files
        assert cli.main(encode_argv(d, "q.scds", tmp_path, "q.scdh")) == 0
        blob = (d / "q.scds").read_bytes()
        features_at = data._DS_HEADER.size + 9 * 8
        (tmp_path / "cut.scds").write_bytes(blob[:features_at + 4 * 5 * 4 + 3])
        capsys.readouterr()
        out = tmp_path / "eval"
        argv = eval_argv(d, tmp_path / "q.scdh", tmp_path / "q.scdh", "q.scds", out)
        argv[argv.index("--db-data") + 1] = str(tmp_path / "cut.scds")
        assert cli.main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith(f"truncated feature block at byte {features_at}")
        assert not (out / "metrics.json").exists()


class TestStreamedMemory:
    """encode and eval hold no whole feature matrix and no whole F.

    Between n and 4n database rows, a command's tracemalloc peak may grow
    only by the bytes of each extra row that stay whole, plus 1 MiB.  A
    feature row here is 512 bytes and an F row 512 bytes, so either one kept
    whole would add over 3 MB (n = 2,048 rows at 1,024-row blocks).
    """

    n, dim, C, r = 2 * B, 128, 6, 64
    # encode: the row's id (8), label row (C) and code words (8 W)
    ENCODE_ROW = 8 + C + 8 * ((r + 63) // 64)
    # eval ranks the whole database: the row's code record (8 + 8 W), its
    # dataset id and label row (8 + C), the index's label row and masks
    # (C + 8), the id-ordered copies (8 + 8 W + 8 + 8) and one query's
    # distances, order, hits and precisions (4 x 8), about 120 bytes
    EVAL_ROW = 128

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("mem")
        model.save_checkpoint(d / "m.ckpt", model.init_model((self.dim, 32), self.C,
                                                             self.r, seed=0),
                              model.Hyperparams())
        rng = np.random.default_rng(0)
        for name, n in (("q", 20), ("n", self.n), ("4n", 4 * self.n)):
            labels = np.eye(self.C, dtype=bool)[rng.integers(self.C, size=n)]
            save_dataset(Dataset(np.arange(n), rng.normal(size=(n, self.dim)), labels),
                         d / f"{name}.scds")
            assert cli.main(encode_argv(d, f"{name}.scds", d, f"{name}.scdh")) == 0
        return d

    @staticmethod
    def peak(argv) -> int:
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_encode_grows_by_the_whole_row_bytes_alone(self, files, tmp_path):
        small, large = (self.peak(encode_argv(files, f"{name}.scds", tmp_path / name))
                        for name in ("n", "4n"))
        assert large <= small + 3 * self.n * self.ENCODE_ROW + 2**20

    def test_eval_grows_by_the_whole_row_bytes_alone(self, files, tmp_path):
        small, large = (self.peak(eval_argv(files, files / "q.scdh", files / f"{name}.scdh",
                                            f"{name}.scds", tmp_path / name))
                        for name in ("n", "4n"))
        assert large <= small + 3 * self.n * self.EVAL_ROW + 2**20


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
                "--epochs", 1, "--lam", 0.002, "--out", tmp_path / "r")
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 1 and manifest["result"]["epochs"] == 1
        # a flag overrides the training preset's lam 0.01, and the preset's
        # lr-schedule overrides the default, no steps
        assert manifest["config"]["lam"] == 0.002
        assert manifest["config"]["lr-schedule"] == [[20, 0.2]]
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

    def test_kind_and_margin_reach_the_multilabel_rows(self, tmp_path):
        # --kind and --margin set the comparator of both suites
        rows = {}
        for name, argv in (("default", []), ("softmax", ["--kind", "softmax"]),
                           ("margin2", ["--margin", "2"])):
            out = tmp_path / name
            assert cli.main(["verify-bounds", "--instances", "5", "--ml-configs", "2",
                             "--trials", "1000", "--seed", "1", *argv,
                             "--out", str(out)]) == 0
            rows[name] = json.loads((out / "bounds.json").read_text())["multilabel"]
            with open(out / "multilabel_bounds.csv") as fh:
                assert [r["kind"] for r in csv.DictReader(fh)] == \
                    [r["kind"] for r in rows[name]]
        assert [r["kind"] for r in rows["softmax"]] == ["softmax", "softmax"]
        want = bounds.run_multilabel_suite(2, 1000, losses.margin_loss(2.0), seed=1)
        assert rows["margin2"] == [r.to_dict() for r in want]
        assert [r["brute_force_loss"] for r in rows["margin2"]] != \
            [r["brute_force_loss"] for r in rows["default"]]

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
        ("eval", {"map-k": "x"}),
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


    @pytest.mark.parametrize("argv, frozen", [
        (["--preset", "multilabel6"], {
            "train.scds": "5ddede44329202610afd6fd120ffed9eaf72985a75dee9127c7c1bd96ddaa37d",
            "query.scds": "8d7a9f9283921ffe75538a97c06b623a7a79811f7ddfaf8692b861510cf18bca",
            "db.scds": "5547a2bfa0600168a1628a8515bf571c670448de678e7022702576155a6ebe74",
        }),
        # about 25 draws per kept row: the database takes about 200 redraw rounds
        (["--mode", "multi", "--classes", 2, "--multilabel-p", 0.02], {
            "train.scds": "c9dc194026abe668b839e03e9da438ada64d7527550445203bcb77ef43e0ab5e",
            "query.scds": "ab28521d88d4d10278a16b86b0b31e9f11915d65514fbf40e762b6d9a45d0afb",
            "db.scds": "58fea85b478c611ffae8ac82a2adeeca8591582be18c7ef2f0c2857d105acb95",
        }),
    ], ids=["multilabel6", "many-rounds"])
    def test_multilabel_gen_matches_frozen_digests(self, tmp_path, argv, frozen):
        # sha256 of files written while every redraw round of the label
        # sampler rescanned all n rows
        run_cli("gen", *argv, "--seed", 0, "--out", tmp_path)
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

        def run_both(command, *argv):
            for threads in ("1", "2"):
                proc = subprocess.run(
                    [*RUN, command, *map(str, argv), "--out", tmp_path / command / threads],
                    capture_output=True, text=True,
                    env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
                assert proc.returncode == 0, proc.stderr
            self.compare_dirs(tmp_path / command / "1", tmp_path / command / "2")

        run_both("encode", "--model", ckpt, "--data", path)
        # training: batches of 256 through the same wide trunk, so that each
        # step's products split too, supervised and mean-teacher
        g, gs = tmp_path / "g", tmp_path / "gs"
        tiny_gen(g, **{"train-per-class": 200, "dim": 32})
        tiny_gen(gs, **{"train-per-class": 200, "dim": 32, "keep-labels": 0.3})
        common = ["--bits", 64, "--hidden", "512,256", "--epochs", 2,
                  "--batch-size", 256, "--lr", 0.002]
        run_both("train", "--data", g / "train.scds", *common)
        run_both("train-semi", "--data", gs / "train.scds", *common, "--w", 1.0,
                 "--noise-std", 0.1)
        # eval: the trained model's query and database codes, every metric file
        for split in ("query", "db"):
            run_cli("encode", "--model", tmp_path / "train" / "1" / "model.ckpt",
                    "--data", g / f"{split}.scds", "--out", tmp_path / split)
        run_both("eval", "--queries", tmp_path / "query" / "codes.scdh",
                 "--database", tmp_path / "db" / "codes.scdh",
                 "--query-data", g / "query.scds", "--db-data", g / "db.scds",
                 "--map-k", 10, "--topk", "1,10,40")

    def test_train_byte_identical(self, tmp_path):
        d = tmp_path / "data"
        tiny_gen(d, seed=5)
        tiny_train(d, tmp_path / "a", seed=5)
        tiny_train(d, tmp_path / "b", seed=5)
        self.compare_dirs(tmp_path / "a", tmp_path / "b")


def ref_labels_for(codes, ds, what):
    """eval's label lookup before the direct path: every code file's ids are
    looked up in the dataset's sorted ids."""
    order = np.argsort(ds.ids, kind="stable")
    pos = np.searchsorted(ds.ids, codes.ids, sorter=order)
    found = pos < ds.n
    found[found] = ds.ids[order[pos[found]]] == codes.ids[found]
    if not found.all():
        raise cli.ValidationError(f"{what}: id {int(codes.ids[np.argmin(found)])} "
                                  "missing from dataset")
    labels = ds.labels[order[pos]]
    if not labels.any(axis=1).all():
        raise cli.ValidationError(f"{what}: unlabeled samples cannot be evaluated")
    return retrieval.CodeIndex._adopt(codes.words, codes.ids, codes.nbits, labels)


def ref_require_finite(features, ids, what, first_row=0):
    """The row-wise finite check before the one-pass block check."""
    bad = ~np.isfinite(features).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise cli.ValidationError(f"{what}: row {first_row + i} (id {int(ids[i])}) has a "
                                  "non-finite feature value")


def outcome_of(fn, *args):
    try:
        return fn(*args)
    except cli.ValidationError as exc:
        return str(exc)


class TestDatabasePasses:
    """The one-pass helpers of encode and eval against the code they replaced."""

    @pytest.fixture
    def dataset_file(self, tmp_path):
        rng = np.random.default_rng(6)
        n = 50
        labels = np.eye(4, dtype=bool)[rng.integers(4, size=n)]
        labels[rng.integers(n, size=10), rng.integers(4, size=10)] = True
        save_dataset(Dataset(rng.permutation(3 * n)[:n], rng.normal(size=(n, 3)), labels),
                     tmp_path / "d.scds")
        return data.open_dataset(tmp_path / "d.scds")

    def test_labels_for_takes_the_rows_directly_in_id_order(self, dataset_file, rng):
        ds = dataset_file
        words = rng.integers(0, 2**20, size=(ds.n, 1)).astype(np.uint64)
        codes = retrieval.CodeIndex(words, ds.ids, 20)
        want = ref_labels_for(codes, ds, "database")
        got = cli._labels_for(codes, ds, "database")
        assert got.labels is ds.labels                 # no gather
        assert np.array_equal(got.labels, want.labels)
        assert got.words is codes.words and got.ids is codes.ids

    @pytest.mark.parametrize("rows", ["reversed", "subset", "shuffled", "repeated"])
    def test_other_id_orders_take_the_lookup(self, dataset_file, rng, rows):
        ds = dataset_file
        take = {"reversed": np.arange(ds.n)[::-1], "subset": np.arange(0, ds.n, 3),
                "shuffled": rng.permutation(ds.n),
                "repeated": np.arange(ds.n).repeat(2)}[rows]
        words = rng.integers(0, 2**20, size=(len(take), 1)).astype(np.uint64)
        codes = retrieval.CodeIndex(words, ds.ids[take], 20)
        got = cli._labels_for(codes, ds, "queries")
        assert got.labels is not ds.labels
        assert np.array_equal(got.labels, ref_labels_for(codes, ds, "queries").labels)
        assert np.array_equal(got.labels, ds.labels[take])

    def test_labels_for_failures_match_the_lookup(self, dataset_file):
        ds = dataset_file
        words = np.zeros((ds.n, 1), dtype=np.uint64)
        missing = ds.ids.copy()
        missing[7] = 10**6
        ds.labels[3] = False                           # an unlabeled row
        for ids, message in ((missing, "id 1000000 missing"), (ds.ids, "unlabeled")):
            codes = retrieval.CodeIndex(words, ids, 20)
            got = outcome_of(cli._labels_for, codes, ds, "database")
            assert got == outcome_of(ref_labels_for, codes, ds, "database")
            assert message in got

    @pytest.mark.parametrize("C", [3, 64, 65, 70])
    def test_labels_for_refuses_only_unlabeled_rows(self, rng, C):
        # the check runs over packed label rows: a row labeled in one word
        # only is labeled at any width
        labels = np.zeros((30, C), dtype=bool)
        labels[np.arange(30), rng.integers(C, size=30)] = True
        labels[rng.integers(30, size=20), rng.integers(C, size=20)] = True
        ds = Dataset(np.arange(30), np.zeros((30, 2), np.float32), labels)
        codes = retrieval.CodeIndex(np.zeros((30, 1), dtype=np.uint64), ds.ids, 20)
        assert cli._labels_for(codes, ds, "database").labels is ds.labels
        for row in (0, 17, 29):
            unlabeled = labels.copy()
            unlabeled[row] = False
            ds = Dataset(np.arange(30), np.zeros((30, 2), np.float32), unlabeled)
            got = outcome_of(cli._labels_for, codes, ds, "database")
            assert got == "database: unlabeled samples cannot be evaluated"
            assert got == outcome_of(ref_labels_for, codes, ds, "database")

    @pytest.mark.parametrize("bad_rows", [[], [9], [40, 3, 17], [0, 63]])
    def test_require_finite_names_the_first_bad_row(self, bad_rows):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(64, 32)).astype(np.float32)
        for j, row in enumerate(bad_rows):
            X[row, (5 * j) % 32] = (np.nan, np.inf, -np.inf)[j % 3]
        ids = rng.permutation(640)[:64]
        args = (X, ids, "--data", 2048)
        assert outcome_of(cli._require_finite, *args) == outcome_of(ref_require_finite, *args)
        if bad_rows:
            first = min(bad_rows)
            assert outcome_of(cli._require_finite, *args) == (
                f"--data: row {2048 + first} (id {ids[first]}) has a non-finite "
                "feature value")


def spec_argv(spec: dict) -> list[str]:
    """A flag for every key of a command's spec, each with its default's
    text, or x where the flag is unset by default."""
    argv = []
    for key, (_domain, default, _help) in spec.items():
        argv += [f"--{key}", "x" if default is None else str(default)]
    return argv


class TestOneCommandParser:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_one_command_parser_parses_alike(self, command):
        spec = cli.COMMANDS[command][0]
        full, one = cli.build_parser(), cli.build_parser(command)
        for argv in ([command], [command, "--config", "c.json", "--out", "o",
                                 *spec_argv(spec)]):
            assert vars(one.parse_args(argv)) == vars(full.parse_args(argv))
        sub = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub[0].choices) == [command]

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_unknown_flag_exits_2_on_both_parsers(self, command, capsys):
        for parser in (cli.build_parser(), cli.build_parser(command)):
            with pytest.raises(SystemExit) as exc:
                parser.parse_args([command, "--no-such-flag", "1"])
            assert exc.value.code == 2
        assert "--no-such-flag" in capsys.readouterr().err

    def test_main_builds_the_invoked_commands_parser(self, monkeypatch, tmp_path, capsys):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda *a: built.append(a) or build(*a))
        assert cli.main(["lambda-toy", "--threads", "0", "--out", str(tmp_path)]) == 1
        assert cli.main(["--help"]) == 0
        assert cli.main(["no-such-command"]) == 2
        assert built == [("lambda-toy",), (None,), (None,)]

    def test_help_lists_every_command(self, capsys):
        assert cli.main(["--help"]) == 0
        listing = capsys.readouterr().out
        assert all(command in listing for command in cli.COMMANDS)
        assert len(cli.COMMANDS) == 7


class TestFlagContract:
    @pytest.mark.parametrize("threads", ["0", "-3"])
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_threads_below_one_exit_1(self, tmp_path, capsys, command, threads):
        # refused while the config resolves: no file is read or written
        out = tmp_path / "out"
        assert cli.main([command, "--threads", threads, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert err["message"] == \
            f"--threads must be an integer in 1..{os.cpu_count() or 1}, got {threads}"
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_threads_above_cpu_count_exit_1(self, tmp_path, capsys, command):
        # refused like a value below 1, before any work: no thread is started
        cap = os.cpu_count() or 1
        out = tmp_path / "out"
        assert cli.main([command, "--threads", str(cap + 1), "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation",
                       "message": f"--threads must be an integer in 1..{cap}, got {cap + 1}"}
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-semi"])
    def test_zero_epochs_exit_1(self, tmp_path, capsys, monkeypatch, command):
        loads = []
        monkeypatch.setattr(cli.data, "load_dataset", lambda *a: loads.append(a))
        out = tmp_path / "out"
        assert cli.main([command, "--data", str(tmp_path / "d.scds"), "--epochs", "0",
                         "--out", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation",
                       "message": "--epochs must be at least 1, got 0"}
        assert not loads and not (out / "model.ckpt").exists()
        # the library still takes zero epochs
        assert model.Hyperparams(epochs=0).epochs == 0

    def test_train_semi_refuses_balance(self, tmp_path, capsys):
        d = tmp_path / "d"
        tiny_gen(d)
        out = tmp_path / "out"
        argv = ["train-semi", "--data", str(d / "train.scds"), "--bits", "4",
                "--hidden", "4", "--epochs", "1", "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser("train-semi").parse_args([*argv, "--balance", "1"])
        assert exc.value.code == 2
        assert cli.main([*argv, "--balance", "1"]) == 2
        assert "unrecognized arguments: --balance 1" in capsys.readouterr().err
        assert not out.exists()
        # nor does a config file set it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"balance": 1}))
        assert cli.main([*argv, "--config", str(cfg)]) == 1
        assert "balance" in json.loads(capsys.readouterr().err)["message"]
        assert "balance" not in cli.TRAIN_SPEC and "balance" not in cli.TRAIN_SEMI_SPEC

    @pytest.mark.parametrize("command, flag, value", [
        # the generator draws --train-per-class rows of every class, so
        # balancing never changed a split
        ("gen", "balance", "1"),
        # nor a training set: label stripping keeps equal counts per class
        ("train", "balance", "1"),
        # the dual exponent follows from --holder-p
        ("train", "holder-q", "2"),
        ("train-semi", "holder-q", "2"),
        # a second way to set --lam, --mu and --alpha (README lists the triples)
        ("train", "hp-preset", "nuswide-like"),
        ("train-semi", "hp-preset", "nuswide-like"),
        # precision is taken within Hamming radius 2, the radius its key names
        ("eval", "radius", "3"),
    ])
    def test_removed_flags_are_unknown(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "out"
        argv = [command, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            cli.build_parser(command).parse_args([*argv, f"--{flag}", value])
        assert exc.value.code == 2
        assert cli.main([*argv, f"--{flag}", value]) == 2
        assert f"unrecognized arguments: --{flag} {value}" in capsys.readouterr().err
        assert not out.exists()
        # nor does a config file set it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({flag: value}))
        assert cli.main([*argv, "--config", str(cfg)]) == 1
        assert flag in json.loads(capsys.readouterr().err)["message"]
        assert flag not in cli.COMMANDS[command][0]
        assert not out.exists()


def training_file(path, labels, ids=None, dim=4):
    """A .scds file of ``len(labels)`` rows of ``dim`` features over 3 classes;
    ``None`` is unlabeled."""
    n = len(labels)
    features = np.random.default_rng(1).normal(size=(n, dim))
    ids = np.arange(n) if ids is None else ids
    save_dataset(Dataset(ids, features, labels_from_sets(labels, 3)), path)
    return str(path)


def eval_files(t, query_labels, db_labels, bits=(8, 8)) -> list[str]:
    """eval's argv over a query and a database file pair written to ``t``,
    with every code 1s, of ``bits`` bits each; each label list is as
    ``training_file`` takes it."""
    argv = ["eval"]
    for flag, name, labels, r in [("queries", "query", query_labels, bits[0]),
                                  ("database", "db", db_labels, bits[1])]:
        if r:
            retrieval.save_codes(retrieval.CodeIndex(
                retrieval.binarize_batch(np.ones((len(labels), r))), np.arange(len(labels)),
                r), t / f"{name}.scdh")
        else:
            # no index holds 0-bit codes: the header, then each row's id alone
            (t / f"{name}.scdh").write_bytes(
                struct.pack("<4sHIQ", b"SCDH", 1, 0, len(labels))
                + np.arange(len(labels), dtype="<u8").tobytes())
        argv += [f"--{flag}", str(t / f"{name}.scdh"),
                 f"--{name}-data", training_file(t / f"{name}.scds", labels)]
    return argv


def encode_files(t, dims, r) -> list[str]:
    """encode's argv over a checkpoint of an untrained network with trunk
    ``dims`` and r hash bits, and a 4-feature data file, written to ``t``."""
    path = t / "model.ckpt"
    model.save_checkpoint(path, model.EmbeddingModel(dims, 3, r), model.Hyperparams())
    return ["encode", "--model", str(path), "--data", training_file(t / "d.scds", [{0}, {1}])]


# Each cross-field, training-data or zero-size file refusal: its argv, given
# the tmp_path, and its message.  None of them draws data, builds a network,
# encodes or ranks codes, or makes the --out directory.
REFUSALS = {
    "train-no-labeled-row": (
        lambda t: ["train", "--data", training_file(t / "u.scds", [None] * 6)],
        "--data: no row carries a label; training needs at least one labeled row"),
    "train-semi-no-labeled-row": (
        lambda t: ["train-semi", "--data", training_file(t / "u.scds", [None] * 6)],
        "--data: no row carries a label; training needs at least one labeled row"),
    "train-no-features": (
        lambda t: ["train", "--data", training_file(t / "z.scds", [{0}, {1}, {2}], dim=0)],
        "--data has 0 features per row; training needs at least 1"),
    "train-semi-no-features": (
        lambda t: ["train-semi", "--data", training_file(t / "z.scds", [{0}, None], dim=0)],
        "--data has 0 features per row; training needs at least 1"),
    "train-semi-shared-id": (
        lambda t: ["train-semi", "--data", training_file(
            t / "s.scds", [{0}, {1}, None, {2}, None, {0}], ids=[0, 1, 2, 3, 1, 5])],
        "--data: id 1 names both a labeled and an unlabeled row"),
    "train-holder": (
        lambda t: ["train", "--holder-p", "9007199254740992"],
        "--holder-p must be a finite number in (1, 9007199254740992), "
        "got 9007199254740992"),
    "train-semi-holder": (
        lambda t: ["train-semi", "--holder-p", "9007199254740992"],
        "--holder-p must be a finite number in (1, 9007199254740992), "
        "got 9007199254740992"),
    "train-lr-schedule-order": (
        lambda t: ["train", "--lr-schedule", "10:0.2,5:0.2"],
        f"--lr-schedule must be {cli.Schedule()}, got 10:0.2,5:0.2"),
    "gen-multi-one-class": (
        lambda t: ["gen", "--mode", "multi", "--classes", "1"],
        "--mode multi --classes 1 --multilabel-p 0.3: a multilabel draw needs at least "
        "2 classes, got C=1"),
    # a label row kept with probability 2e-7: about 5 million draws per row
    "gen-multi-rows-seldom-kept": (
        lambda t: ["gen", "--mode", "multi", "--classes", "2", "--multilabel-p", "1e-7",
                   "--train-per-class", "2", "--n-query", "5", "--n-db", "5"],
        "--mode multi --classes 2 --multilabel-p 1e-07: p=1e-07 over C=2 labels keeps a "
        "label row with probability 2e-07 < 0.001: more than 1000 draws per row"),
    "lambda-toy-bits": (
        lambda t: ["lambda-toy", "--bits", "2", "--clusters", "3"],
        "--bits 2 --clusters 3: r=2 cannot hold the simplex of 3 cluster means "
        "(need r >= C)"),
    "verify-bounds-max-n": (
        lambda t: ["verify-bounds", "--max-n", "1"],
        "--max-n 1 --classes 2,3,4: an instance holds at least one code per class, "
        "so max_n=1 cannot hold C=4"),
    "verify-bounds-max-n-wide-class": (
        lambda t: ["verify-bounds", "--classes", "2,64", "--max-n", "12"],
        "--max-n 12 --classes 2,64: an instance holds at least one code per class, "
        "so max_n=12 cannot hold C=64"),
    "eval-no-query": (
        lambda t: eval_files(t, [], [{0}, {1}, {2}]),
        "no query in --queries shares a label with a code in --database"),
    "eval-no-database-code": (
        lambda t: eval_files(t, [{0}, {1}], []),
        "no query in --queries shares a label with a code in --database"),
    "eval-disjoint-labels": (
        lambda t: eval_files(t, [{0}, {0}], [{1}, {2}, {1, 2}]),
        "no query in --queries shares a label with a code in --database"),
    "eval-code-lengths": (
        lambda t: eval_files(t, [{0}, {1}], [{0}, {1}, {2}], bits=(16, 8)),
        "--queries holds 16-bit codes, --database 8-bit codes"),
    "eval-zero-bits": (
        lambda t: eval_files(t, [{0}, {1}], [{0}, {1}, {2}], bits=(0, 0)),
        "a code file holds codes of at least 1 bit, got r=0"),
    "encode-zero-bits": (
        lambda t: encode_files(t, (4, 5), 0),
        "zero size in checkpoint header: r=0, C=3, trunk dims [4, 5]"),
    "encode-zero-width": (
        lambda t: encode_files(t, (4, 0), 6),
        "zero size in checkpoint header: r=6, C=3, trunk dims [4, 0]"),
}


class TestRefusals:
    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refused_before_any_network_or_output(self, tmp_path, capsys, monkeypatch,
                                                  case):
        # each names the flags and values involved (a file reader's, the
        # sizes it read), exits 1 with one JSON line, and leaves no --out
        # directory
        for module, name in [(cli.meanteacher, "train_mt_scdh"), (cli.bounds, "toy_lambda_grid"),
                             (cli.bounds, "_draw_bound_arrays"),
                             (cli.data, "make_multilabel_splits"),
                             (cli.model, "extract_embeddings"),
                             (cli.retrieval, "evaluate")]:
            monkeypatch.setattr(module, name, lambda *a, _n=name, **kw: pytest.fail(_n))
        argv, message = REFUSALS[case]
        out = tmp_path / "out"
        assert cli.main([*argv(tmp_path), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "validation", "message": message}
        assert not out.exists()

    def test_train_takes_a_shared_id_file(self, tmp_path):
        # train drops the unlabeled rows, so no id is shared among those it uses
        argv, _ = REFUSALS["train-semi-shared-id"]
        data_path = argv(tmp_path)[-1]
        assert cli.main(["train", "--data", data_path, "--bits", "4", "--hidden", "4",
                         "--epochs", "1", "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["model.ckpt", "train_report.csv",
                                             "train_report.json"]

    def test_out_naming_a_file_is_refused_first(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.bounds, "toy_lambda_grid", lambda *a, **kw: pytest.fail())
        out = tmp_path / "taken"
        out.write_text("x")
        assert cli.main(["lambda-toy", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "validation", "message": f"--out {out} is not a directory"}
        assert out.read_text() == "x"


DOMAINS = (cli.Int, cli.Float, cli.Choice, cli.List, cli.Schedule, cli.File)


def bad_values(domain) -> list:
    """Values outside ``domain``, worked out from its bounds alone: flag
    texts, and JSON values a --config file could hold."""
    wrong_types = [True, None, [1], {"a": 1}]
    if isinstance(domain, cli.Int):
        out = [domain.lo - 1, str(domain.lo - 1), "nan", "inf", "", "1.5", 1.5, "x",
               *(v for v in (-1, 0, "-1", "0") if int(v) < domain.lo)]
        if domain.hi is not None:
            out += [domain.hi + 1, str(domain.hi + 1)]
        return out + wrong_types
    if isinstance(domain, cli.Float):
        below = float(np.nextafter(domain.lo, -np.inf))
        out = [below, repr(below), "nan", "-nan", "inf", "-inf", "1e400", "", "x",
               *(v for v in (-1, 0) if v < domain.lo or v == domain.lo and domain.lo_open)]
        if domain.lo_open:
            out += [domain.lo, repr(domain.lo)]
        if domain.hi != np.inf:
            above = float(np.nextafter(domain.hi, np.inf))
            out += [above, repr(above), *([domain.hi, repr(domain.hi)] if domain.hi_open
                                          else [])]
        return out + wrong_types
    if isinstance(domain, cli.Choice):
        name = sorted(domain.names)[0]
        return ["", "nope", name.upper(), f" {name}", 1] + wrong_types
    if isinstance(domain, cli.File):
        out = ["", 1] + wrong_types[:1] + wrong_types[2:]
        return out + ([".", "..", "manifest.json", "a/b", "b/"] if domain.plain else [])
    if isinstance(domain, cli.Schedule):
        return ["5", "1:2:3", "-1:0.5", "1:0", "1:-1", "1:nan", "1:inf", "x:0.5", ":0.5",
                "1:", "1.5:0.5", "1:0.5,", ",1:0.5", " ", 1, ["1:0.5"]] + wrong_types
    # a list: one entry outside the entry domain, between good ones
    good = str(domain.entry.lo if isinstance(domain.entry, cli.Int) else
               domain.entry.lo + 1.0 if domain.entry.hi == np.inf else
               (domain.entry.lo + domain.entry.hi) / 2)
    entries = [v for v in bad_values(domain.entry)
               if isinstance(v, str) and v.strip() and "," not in v]
    out = [f"{good},{bad}" for bad in entries] + [f"{bad},{good}" for bad in entries]
    if domain.nonempty:
        out += ["", " ", ","]
    if domain.ascending:
        out.append(f"{int(good) + 1},{good}")
    return out + [1, [good]] + wrong_types


# The readers and generators a command would call first; a value refused
# while the config resolves reaches none of them.
READERS = [(data, "load_dataset"), (data, "open_dataset"), (model, "load_checkpoint"),
           (retrieval, "load_codes"), (data, "make_cluster_splits"),
           (data, "make_multilabel_splits")]


class TestFlagDomains:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_entry_has_a_domain_holding_its_default(self, command):
        spec = cli.COMMANDS[command][0]
        sub = [a for a in cli.build_parser(command)._actions
               if isinstance(a, argparse._SubParsersAction)][0].choices[command]
        helps = {a.dest: a.help for a in sub._actions}
        for key, (domain, default, _help) in spec.items():
            assert isinstance(domain, DOMAINS), key
            if default is not None:                    # None: unset
                cli._check(spec, key, f"--{key}", default)
            # --help shows the domain from the same table
            assert str(domain) in helps[key.replace("-", "_")], key
            for bad in bad_values(domain):
                with pytest.raises(ValueError):
                    domain.parse(bad)

    @pytest.mark.parametrize("command", ["gen", "train", "train-semi"])
    def test_every_preset_value_lies_in_its_domain(self, command):
        spec = cli.COMMANDS[command][0]
        tables = [d.names for d, _, _ in spec.values()
                  if isinstance(d, cli.Choice) and isinstance(d.names, dict)]
        assert tables
        for table in tables:
            for values in table.values():
                for key, value in values.items():
                    key = key.replace("_", "-")
                    # train takes the training presets but not their
                    # mean-teacher settings
                    if key in spec:
                        cli._check(spec, key, f"--{key}", value)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_an_out_of_domain_value_exits_1_before_any_work(self, tmp_path, capsys,
                                                            monkeypatch, draw):
        for module, name in READERS:
            monkeypatch.setattr(module, name, lambda *a, _n=name: pytest.fail(f"{_n} called"))
        command = draw.draw(st.sampled_from(list(cli.COMMANDS)), label="command")
        spec = cli.COMMANDS[command][0]
        key = draw.draw(st.sampled_from(list(spec)), label="flag")
        value = draw.draw(st.sampled_from(bad_values(spec[key][0])), label="value")
        via_config = not isinstance(value, str) or draw.draw(st.booleans(), label="config")
        run_dir = tmp_path / f"ex{len(list(tmp_path.iterdir()))}"
        run_dir.mkdir()
        out = run_dir / "out"
        if via_config:
            (run_dir / "c.json").write_text(json.dumps({key: value}))
            argv = [command, "--config", str(run_dir / "c.json")]
        else:
            argv = [command, f"--{key}={value}"]
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert (repr(key) if via_config else f"--{key}") in err["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("bits", "abc"), ("lr-schedule", "5"),
                                             ("hidden", "a")])
    def test_flag_text_and_config_value_take_one_path(self, tmp_path, capsys, flag, value):
        # flag text and the same --config string take one parse path
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({flag: value}))
        messages = []
        for argv in ([f"--{flag}", value], ["--config", str(cfg)]):
            assert cli.main(["train", *argv, "--out", str(tmp_path / "o")]) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1
            messages.append(json.loads(lines[0])["message"])
        domain = cli.TRAIN_SPEC[flag][0]
        assert messages == [f"--{flag} must be {domain}, got {value}",
                            f"config key {flag!r} must be {domain}, got {value}"]
        assert not (tmp_path / "o").exists()

    def test_multilabel_gen_needs_two_classes(self, tmp_path, capsys, monkeypatch):
        # one class leaves every label row empty or full, which the sampler
        # would redraw without end: refused before any sampling
        monkeypatch.setattr(data, "_sample_label_matrix",
                            lambda *a: pytest.fail("labels drawn"))
        with pytest.raises(PreconditionError, match="at least 2 classes"):
            SyntheticConfig(C=1, feature_dim=2, cluster_std=1.0, center_spread=1.0,
                            samples_per_class=2, multilabel_p=0.3)
        assert cli.main(["gen", "--mode", "multi", "--classes", "1", "--n-query", "2",
                         "--n-db", "2", "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "--classes 1" in err["message"]
        assert not list(tmp_path.glob("*.scds"))

    @pytest.mark.parametrize("flag, value", [("keep-labels", "0.5")])
    def test_multilabel_gen_refuses_single_label_steps(self, tmp_path, capsys, monkeypatch,
                                                       flag, value):
        # label stripping takes one label per sample: refused before any
        # split is drawn
        for name in ("make_cluster_splits", "make_multilabel_splits"):
            monkeypatch.setattr(data, name, lambda *a: pytest.fail("splits drawn"))
        assert cli.main(["gen", "--mode", "multi", f"--{flag}", value,
                         "--out", str(tmp_path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation",
                       "message": f"--{flag} {float(value)} needs --mode single, "
                                  "got --mode multi"}
        assert not list(tmp_path.glob("*.scds"))

    @pytest.mark.parametrize("name", ["", ".", "..", "manifest.json", "sub/codes.scdh",
                                      "codes.scdh/"])
    def test_encode_name_is_one_file_name(self, tmp_path, capsys, name):
        # the code file is one name in --out, beside manifest.json
        ckpt, path = tmp_path / "m.ckpt", tmp_path / "d.scds"
        model.save_checkpoint(ckpt, model.init_model((4, 4), 3, 8, 0), model.Hyperparams())
        save_dataset(Dataset(np.arange(6), np.ones((6, 4)), np.eye(3, dtype=bool)[[0, 1, 2] * 2]),
                     path)
        out = tmp_path / "r"
        argv = ["encode", "--model", str(ckpt), "--data", str(path), "--out", str(out)]
        assert cli.main([*argv, f"--name={name}"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation" and "--name must be" in err["message"]
        assert not out.exists()
        assert cli.main([*argv, "--name", "manifest.scdh"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["outputs"]) == ["manifest.scdh"]

    def test_empty_multilabel_report_keeps_its_header(self, tmp_path):
        # the CSV header comes from the report dataclass, not its rows
        assert cli.main(["verify-bounds", "--instances", "3", "--ml-configs", "0",
                         "--trials", "1000", "--out", str(tmp_path)]) == 0
        header = ",".join(f.name for f in dataclasses.fields(bounds.BoundReport))
        assert (tmp_path / "multilabel_bounds.csv").read_text() == header + "\n"
        assert (tmp_path / "unary_bounds.csv").read_text().startswith(header + "\n")
        report = bounds.BoundReport(1.0, 2.0, 0.5, 0.25, True)
        assert report.to_dict() == dataclasses.asdict(report)
