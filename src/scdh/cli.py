"""Command-line front door.

Subcommands: gen, train, train-semi, encode, eval, verify-bounds, lambda-toy.
Every run resolves its configuration from defaults < --config JSON < explicit
flags, writes all artifacts atomically (temp file + rename), and finishes
with a run-manifest JSON recording the resolved config, seed, versions, and
sha256 hashes of every output.  Exit codes: 0 success, 1 validation error,
2 runtime/numeric error, with a machine-readable JSON object on stderr for
failures.  SCDH_LOG sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import sys
import tempfile

import numpy as np

from . import __version__, bounds, data, losses, meanteacher, model, retrieval
from .errors import LabelSetError, ScdhError

log = logging.getLogger("scdh")

_SENTINEL = object()


class ValidationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Synthetic data and training presets used by the benchmark experiments.
# ---------------------------------------------------------------------------

SYNTH_PRESETS = {
    # 8 well-separated Gaussian clusters; raw-feature 1-NN accuracy ~0.98
    "clusters8": dict(mode="single", classes=8, dim=32, cluster_std=1.05,
                      center_spread=1.0, train_per_class=500,
                      query_per_class=100, db_per_class=500),
    # multilabel mixture with per-label inclusion probability 0.3
    "multilabel6": dict(mode="multi", classes=6, dim=32, cluster_std=0.35,
                        center_spread=1.0, train_per_class=500,
                        multilabel_p=0.3, n_query=500, n_db=3000),
    # overlapping clusters with only 10% of training labels kept
    "overlap8": dict(mode="single", classes=8, dim=32, cluster_std=1.5,
                     center_spread=1.0, train_per_class=250,
                     query_per_class=50, db_per_class=250, keep_labels=0.10),
}

TRAIN_PRESETS = {
    "clusters8": dict(bits=24, hidden="64", lam=0.01, mu=0.2, alpha=0.05,
                      epochs=30, batch_size=64, lr=1e-3, momentum=0.9,
                      lr_schedule="20:0.2"),
    "multilabel6": dict(bits=24, hidden="64", lam=0.01, mu=0.2, alpha=0.05,
                        epochs=30, batch_size=64, lr=1e-3, momentum=0.9,
                        lr_schedule="20:0.2"),
    "overlap8-baseline": dict(bits=24, hidden="64", lam=0.01, mu=0.2,
                              alpha=0.05, epochs=60, batch_size=32, lr=2e-3,
                              momentum=0.9, lr_schedule="40:0.2"),
    # consistency weight rescaled for sum-reduced objectives on sparse labels
    "overlap8-semi": dict(bits=24, hidden="64", lam=0.01, mu=0.2, alpha=0.05,
                          epochs=40, batch_size=64, lr=1e-3, momentum=0.9,
                          lr_schedule="30:0.2", w=0.1, ema_decay=0.99,
                          noise_std=0.15),
}


def _parse_float_list(text: str) -> tuple:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _parse_int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _parse_schedule(text: str) -> tuple:
    """"100:0.2,140:0.2" -> ((100, 0.2), (140, 0.2))."""
    if not text:
        return ()
    out = []
    for part in text.split(","):
        epoch, mult = part.split(":")
        out.append((int(epoch), float(mult)))
    return tuple(out)


@contextlib.contextmanager
def atomic_path(final_path: str):
    """Yield a temp path in the target directory; rename over on success."""
    d = os.path.dirname(final_path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    os.close(fd)
    try:
        yield tmp
        os.replace(tmp, final_path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: str, payload):
    with atomic_path(path) as tmp:
        with open(tmp, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")


class Run:
    """Collects outputs and writes the manifest for one command."""

    def __init__(self, command: str, out_dir: str, config: dict):
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.outputs: list[str] = []
        self.result: dict = {}
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def register(self, name: str):
        self.outputs.append(name)

    def save_json(self, name: str, payload):
        _write_json(self.path(name), payload)
        self.register(name)

    def finish(self):
        manifest = {
            "command": self.command,
            "config": self.config,
            "seed": self.config.get("seed"),
            "versions": {
                "scdh": __version__,
                "numpy": np.__version__,
                "python": ".".join(map(str, sys.version_info[:3])),
            },
            "outputs": {name: _sha256(self.path(name)) for name in sorted(self.outputs)},
            "result": self.result,
        }
        _write_json(self.path("manifest.json"), manifest)
        log.info("wrote %s", self.path("manifest.json"))


def _resolve(args: argparse.Namespace, spec: dict) -> dict:
    """defaults < config file < explicit flags, rejecting unknown config keys."""
    config = {}
    if getattr(args, "config", None):
        if not os.path.exists(args.config):
            raise ValidationError(f"config file not found: {args.config}")
        with open(args.config) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file is not valid JSON: {exc}") from None
        unknown = set(config) - set(spec)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (parse, default, _help) in spec.items():
        cli_val = getattr(args, key.replace("-", "_"), _SENTINEL)
        if cli_val is not _SENTINEL and cli_val is not None:
            resolved[key] = cli_val
        elif key in config:
            raw = config[key]
            resolved[key] = parse(raw) if isinstance(raw, str) and parse else raw
        else:
            resolved[key] = default
    return resolved


def _add_spec_args(parser: argparse.ArgumentParser, spec: dict):
    for key, (parse, default, help_text) in spec.items():
        parser.add_argument(f"--{key}", dest=key.replace("-", "_"),
                            type=parse if parse else str, default=None,
                            help=f"{help_text} (default: {default})")


COMMON = {
    "seed": (int, 0, "master RNG seed"),
    "threads": (int, 1, "worker bound for parallel sections (1 = bit-exact)"),
}


def _require_file(path: str, what: str):
    if not path:
        raise ValidationError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")


def _require_finite(dataset: data.Dataset, what: str):
    bad = ~np.isfinite(dataset.features).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValidationError(f"{what}: row {i} (id {int(dataset.ids[i])}) has a "
                              "non-finite feature value")


def _require_trainable(dataset: data.Dataset, what: str):
    """Reject features and label sets that training cannot use, before epoch 0."""
    _require_finite(dataset, what)
    try:
        losses.label_matrix(dataset.labels, dataset.label_count)
    except LabelSetError as exc:
        raise ValidationError(f"{what}: {exc}") from None


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_SPEC = dict(COMMON, **{
    "preset": (str, None, f"synthetic preset, one of {sorted(SYNTH_PRESETS)}"),
    "mode": (str, "single", "single or multi (label regime)"),
    "classes": (int, 8, "number of classes C"),
    "dim": (int, 32, "feature dimension"),
    "cluster-std": (float, 1.0, "Gaussian cluster standard deviation"),
    "center-spread": (float, 1.0, "std of the cluster-mean draw"),
    "train-per-class": (int, 500, "training samples per class"),
    "query-per-class": (int, 100, "query samples per class (single-label)"),
    "db-per-class": (int, 500, "database samples per class (single-label)"),
    "multilabel-p": (float, 0.3, "per-label inclusion probability (multi)"),
    "n-query": (int, 500, "query set size (multi)"),
    "n-db": (int, 3000, "database size (multi)"),
    "keep-labels": (float, 1.0, "fraction of train labels kept (rest stripped)"),
    "balance": (int, 0, "1 = upsample training classes to equal counts"),
})


def cmd_gen(cfg: dict, run: Run):
    if cfg["preset"]:
        if cfg["preset"] not in SYNTH_PRESETS:
            raise ValidationError(f"unknown preset {cfg['preset']!r}")
        merged = dict(cfg)
        for k, v in SYNTH_PRESETS[cfg["preset"]].items():
            merged[k.replace("_", "-")] = v
        cfg = merged
        run.config = cfg
    seed = cfg["seed"]
    if cfg["mode"] == "single":
        syn = data.SyntheticConfig(C=cfg["classes"], feature_dim=cfg["dim"],
                                   cluster_std=cfg["cluster-std"],
                                   center_spread=cfg["center-spread"],
                                   samples_per_class=cfg["train-per-class"],
                                   seed=seed)
        train, query, db = data.make_cluster_splits(
            syn, cfg["query-per-class"], cfg["db-per-class"])
    elif cfg["mode"] == "multi":
        syn = data.SyntheticConfig(C=cfg["classes"], feature_dim=cfg["dim"],
                                   cluster_std=cfg["cluster-std"],
                                   center_spread=cfg["center-spread"],
                                   samples_per_class=cfg["train-per-class"],
                                   multilabel_p=cfg["multilabel-p"], seed=seed)
        train, query, db = data.make_multilabel_splits(syn, cfg["n-query"], cfg["n-db"])
    else:
        raise ValidationError(f"mode must be 'single' or 'multi', got {cfg['mode']!r}")
    if cfg["balance"]:
        train = data.balance_upsample(train, seed=seed)
    if cfg["keep-labels"] < 1.0:
        train = data.strip_labels(train, cfg["keep-labels"], seed=seed + 1)
    for name, ds in (("train.scds", train), ("query.scds", query), ("db.scds", db)):
        with atomic_path(run.path(name)) as tmp:
            data.save_dataset(ds, tmp)
        run.register(name)
    run.result = {"n_train": train.n, "n_query": query.n, "n_db": db.n,
                  "labeled_train": int(train.labeled_mask().sum())}


# ---------------------------------------------------------------------------
# train / train-semi
# ---------------------------------------------------------------------------

_TRAIN_BASE = {
    "data": (str, None, "training dataset (.scds)"),
    "preset": (str, None, f"training preset, one of {sorted(TRAIN_PRESETS)}"),
    "hp-preset": (str, None, f"hyperparameter triple, one of {sorted(model.HP_PRESETS)}"),
    "bits": (int, 24, "code length r"),
    "hidden": (_parse_int_list, (64,), "comma list of trunk widths"),
    "lam": (float, 0.005, "center-distance weight lambda"),
    "mu": (float, 0.2, "classification weight mu"),
    "alpha": (float, 0.05, "quantization weight alpha"),
    "holder-p": (float, 3.0, "Hoelder exponent p"),
    "holder-q": (float, 1.5, "dual exponent q"),
    "epochs": (int, 30, "training epochs"),
    "batch-size": (int, 64, "mini-batch size"),
    "lr": (float, 1e-3, "initial learning rate"),
    "momentum": (float, 0.9, "SGD momentum"),
    "lr-schedule": (_parse_schedule, (), "epoch:multiplier list, e.g. 100:0.2,140:0.2"),
    "warmup-epochs": (int, 0, "epochs with center-norm projection"),
    "warmup-norm": (float, 8.0, "projection norm s"),
    "balance": (int, 0, "1 = upsample classes to equal counts before training"),
}

TRAIN_SPEC = dict(COMMON, **_TRAIN_BASE)

TRAIN_SEMI_SPEC = dict(TRAIN_SPEC, **{
    "w": (float, meanteacher.DEFAULT_CONSISTENCY_WEIGHT, "consistency weight"),
    "ema-decay": (float, meanteacher.DEFAULT_EMA_DECAY, "teacher EMA decay"),
    "noise-std": (float, meanteacher.DEFAULT_NOISE_STD, "input perturbation std"),
    "ramp-fraction": (float, 0.2, "fraction of epochs to ramp the consistency weight"),
})


def _apply_presets(cfg: dict, run: Run):
    if cfg.get("preset"):
        if cfg["preset"] not in TRAIN_PRESETS:
            raise ValidationError(f"unknown training preset {cfg['preset']!r}")
        preset = TRAIN_PRESETS[cfg["preset"]]
        for k, v in preset.items():
            key = k.replace("_", "-")
            if isinstance(v, str):
                parse = {"hidden": _parse_int_list,
                         "lr-schedule": _parse_schedule}.get(key)
                v = parse(v) if parse else v
            cfg[key] = v
    if cfg.get("hp-preset"):
        if cfg["hp-preset"] not in model.HP_PRESETS:
            raise ValidationError(f"unknown hp preset {cfg['hp-preset']!r}")
        cfg.update(model.HP_PRESETS[cfg["hp-preset"]])
    run.config = cfg
    return cfg


def _hp_from_cfg(cfg: dict) -> model.Hyperparams:
    try:
        return model.Hyperparams(
            lam=cfg["lam"], mu=cfg["mu"], alpha=cfg["alpha"],
            holder_p=cfg["holder-p"], holder_q=cfg["holder-q"],
            warmup_epochs=cfg["warmup-epochs"], warmup_norm_s=cfg["warmup-norm"],
            lr=cfg["lr"], momentum=cfg["momentum"], epochs=cfg["epochs"],
            batch_size=cfg["batch-size"], lr_schedule=cfg["lr-schedule"],
            seed=cfg["seed"],
        )
    except ScdhError as exc:
        raise ValidationError(str(exc)) from None


def _report_files(run: Run, report: model.TrainReport):
    run.save_json("train_report.json", report.to_dict())
    rows = [e.to_dict() for e in report.epochs]
    fields = ["epoch", "scul_loss", "classification_loss", "quantization_loss",
              "center_distance_term", "learning_rate", "consistency_loss"]
    with atomic_path(run.path("train_report.csv")) as tmp:
        import csv as _csv
        with open(tmp, "w", newline="") as fh:
            writer = _csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
    run.register("train_report.csv")


def cmd_train(cfg: dict, run: Run):
    cfg = _apply_presets(cfg, run)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    _require_trainable(dataset, "--data")
    if not dataset.labeled_mask().all():
        labeled_idx = np.nonzero(dataset.labeled_mask())[0]
        log.info("training on the %d labeled samples only", len(labeled_idx))
        dataset = dataset.subset(labeled_idx)
    if cfg["balance"]:
        dataset = data.balance_upsample(dataset, seed=cfg["seed"])
    hp = _hp_from_cfg(cfg)
    net, report = model.train_scdh(dataset, hp, r=cfg["bits"],
                                   hidden=tuple(cfg["hidden"]))
    with atomic_path(run.path("model.ckpt")) as tmp:
        model.save_checkpoint(tmp, net, hp)
    run.register("model.ckpt")
    _report_files(run, report)
    run.result = {"final_quantization": report.final_quantization,
                  "epochs": len(report.epochs)}


def cmd_train_semi(cfg: dict, run: Run):
    cfg = _apply_presets(cfg, run)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    _require_trainable(dataset, "--data")
    semi = meanteacher.SemiDataset.from_partial(dataset)
    hp = _hp_from_cfg(cfg)
    student, teacher, report = meanteacher.train_mt_scdh(
        semi, hp, w=cfg["w"], ema_decay=cfg["ema-decay"],
        noise_std=cfg["noise-std"], r=cfg["bits"], hidden=tuple(cfg["hidden"]),
        ramp_fraction=cfg["ramp-fraction"])
    with atomic_path(run.path("model.ckpt")) as tmp:
        model.save_checkpoint(tmp, student, hp, teacher=teacher.model,
                              extra_meta={"ema_decay": cfg["ema-decay"],
                                          "consistency_weight": cfg["w"],
                                          "noise_std": cfg["noise-std"]})
    run.register("model.ckpt")
    _report_files(run, report)
    run.result = {"final_quantization": report.final_quantization,
                  "labeled": semi.labeled.n, "unlabeled": semi.unlabeled.n}


# ---------------------------------------------------------------------------
# encode / eval
# ---------------------------------------------------------------------------

ENCODE_SPEC = dict(COMMON, **{
    "model": (str, None, "model checkpoint"),
    "data": (str, None, "dataset to encode (.scds)"),
    "network": (str, "teacher", "teacher or student (dual checkpoints)"),
    "name": (str, "codes.scdh", "output code file name"),
})


def cmd_encode(cfg: dict, run: Run):
    _require_file(cfg["model"], "--model")
    _require_file(cfg["data"], "--data")
    net, _, teacher, _ = model.load_checkpoint(cfg["model"])
    if cfg["network"] == "teacher" and teacher is not None:
        net = teacher
    elif cfg["network"] not in ("teacher", "student"):
        raise ValidationError("--network must be 'teacher' or 'student'")
    dataset = data.load_dataset(cfg["data"])
    _require_finite(dataset, "--data")
    F = model.extract_embeddings(net, dataset.features.astype(np.float64))
    index = retrieval.CodeIndex.from_embeddings(F, dataset.ids)
    with atomic_path(run.path(cfg["name"])) as tmp:
        retrieval.save_codes(index, tmp)
    run.register(cfg["name"])
    run.result = {"n": index.n, "bits": index.nbits}


EVAL_SPEC = dict(COMMON, **{
    "queries": (str, None, "query code file (.scdh)"),
    "database": (str, None, "database code file (.scdh)"),
    "query-data": (str, None, "dataset supplying query labels (.scds)"),
    "db-data": (str, None, "dataset supplying database labels (.scds)"),
    "map-k": (int, 0, "0 = untruncated MAP, else MAP@k as well"),
    "radius": (int, 2, "Hamming ball radius for the precision metric"),
    "topk": (_parse_int_list, (), "comma list of k for the precision curve"),
})


def _labels_for(codes: retrieval.CodeIndex, ds: data.Dataset, what: str):
    by_id = {int(i): Y for i, Y in zip(ds.ids, ds.labels)}
    try:
        sets = tuple(by_id[int(i)] for i in codes.ids)
    except KeyError as exc:
        raise ValidationError(f"{what}: id {exc} missing from dataset") from None
    if any(Y is None for Y in sets):
        raise ValidationError(f"{what}: unlabeled samples cannot be evaluated")
    return retrieval.CodeIndex(codes.words, codes.ids, codes.nbits, sets)


def cmd_eval(cfg: dict, run: Run):
    for key in ("queries", "database", "query-data", "db-data"):
        _require_file(cfg[key], f"--{key}")
    queries = _labels_for(retrieval.load_codes(cfg["queries"]),
                          data.load_dataset(cfg["query-data"]), "queries")
    db = _labels_for(retrieval.load_codes(cfg["database"]),
                     data.load_dataset(cfg["db-data"]), "database")
    metrics = retrieval.evaluate(queries, db, k=cfg["map-k"] or None,
                                 radius=cfg["radius"], ks=cfg["topk"])
    run.save_json("metrics.json", metrics.to_dict())
    with atomic_path(run.path("metrics.csv")) as tmp:
        with open(tmp, "w") as fh:
            fh.write("map,map_at_k,k,precision_at_radius2\n")
            fh.write(f"{metrics.map},{metrics.map_at_k if metrics.map_at_k is not None else ''},"
                     f"{metrics.k if metrics.k is not None else ''},"
                     f"{metrics.precision_at_radius2}\n")
    run.register("metrics.csv")
    if metrics.topk_curve:
        with atomic_path(run.path("topk_curve.csv")) as tmp:
            with open(tmp, "w") as fh:
                fh.write("k,precision\n")
                for k, p in metrics.topk_curve:
                    fh.write(f"{k},{p}\n")
        run.register("topk_curve.csv")
    run.result = metrics.to_dict()


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

VERIFY_SPEC = dict(COMMON, **{
    "instances": (int, 1000, "randomized single-label bound instances"),
    "max-n": (int, 12, "max codes per instance"),
    "classes": (_parse_int_list, (2, 3, 4), "candidate class counts"),
    "max-r": (int, 16, "max code length"),
    "kind": (str, "margin", "comparator kind: margin or softmax"),
    "margin": (float, 1.0, "margin m for the hinge comparator"),
    "ml-configs": (int, 20, "multilabel Monte Carlo configurations"),
    "trials": (int, 5000, "Monte Carlo trials per configuration"),
})


def random_bound_instance(rng: np.random.Generator, classes, max_n: int,
                          max_r: int):
    """Balanced +/-1 codes with random real centers for one bound check."""
    C = int(rng.choice(list(classes)))
    per_class = int(rng.integers(1, max(max_n // C, 1) + 1))
    r = int(rng.integers(2, max_r + 1))
    codes = rng.choice([-1.0, 1.0], size=(C * per_class, r))
    labels = np.repeat(np.arange(C), per_class)
    centers = rng.normal(0.0, 2.0, (r, C))
    return bounds.LabeledCodeSet.from_single_labels(codes, labels, C), centers


def run_bound_suite(instances: int, classes, max_n: int, max_r: int,
                    kind: losses.TripletLossKind, seed: int):
    reports = []
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        code_set, centers = random_bound_instance(rng, classes, max_n, max_r)
        reports.append(bounds.unary_upper_bound(code_set, centers, kind))
    return reports


def run_multilabel_suite(configs: int, trials: int, seed: int):
    reports = []
    rng = np.random.default_rng(seed)
    for i in range(configs):
        n = int(rng.integers(8, 13))
        C = int(rng.choice([3, 4, 5]))
        p = float(rng.choice([0.2, 0.3, 0.5]))
        r = int(rng.integers(4, 9))
        codes = rng.choice([-1.0, 1.0], size=(n, r))
        centers = rng.normal(0.0, 2.0, (r, C))
        reports.append(bounds.multilabel_bound_check(
            codes, C, p, centers, trials=trials, seed=seed + 7919 * (i + 1)))
    return reports


def cmd_verify_bounds(cfg: dict, run: Run):
    kind = (losses.margin_loss(cfg["margin"]) if cfg["kind"] == "margin"
            else losses.softmax_loss())
    single = run_bound_suite(cfg["instances"], cfg["classes"], cfg["max-n"],
                             cfg["max-r"], kind, cfg["seed"])
    multi = run_multilabel_suite(cfg["ml-configs"], cfg["trials"], cfg["seed"])
    with atomic_path(run.path("unary_bounds.csv")) as tmp:
        bounds.write_rows_csv(tmp, single, bounds.REPORT_CSV_FIELDS)
    run.register("unary_bounds.csv")
    with atomic_path(run.path("multilabel_bounds.csv")) as tmp:
        bounds.write_rows_csv(tmp, multi, bounds.REPORT_CSV_FIELDS)
    run.register("multilabel_bounds.csv")
    run.save_json("bounds.json", {
        "unary": [r.to_dict() for r in single],
        "multilabel": [r.to_dict() for r in multi],
    })
    violations = sum(not r.holds for r in single) + sum(not r.holds for r in multi)
    lambda_max = max((r.lambda_estimate for r in single), default=0.0)
    run.result = {
        "instances": len(single),
        "multilabel_configs": len(multi),
        "violations": violations,
        "lambda_max": lambda_max,
        "lambda_le_2": bool(lambda_max <= 2.0 + 1e-9),
    }
    if violations:
        raise ScdhError(f"{violations} bound violations detected")


# ---------------------------------------------------------------------------
# lambda-toy
# ---------------------------------------------------------------------------

TOY_SPEC = dict(COMMON, **{
    "bits": (int, 48, "embedding dimension r"),
    "clusters": (int, 2, "number of clusters C"),
    "sigma-grid": (_parse_float_list,
                   (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
                   "comma list of cluster stds"),
    "d-grid": (_parse_float_list,
               (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
               "comma list of center distances"),
    "samples-per-cluster": (int, 200, "points per cluster"),
    "margin": (float, 1.0, "hinge margin"),
    "triplet-samples": (int, 1_000_000, "sampled triplets per cell above the "
                                        "enumeration threshold"),
})


def cmd_lambda_toy(cfg: dict, run: Run):
    toy = bounds.ToyConfig(r=cfg["bits"], C=cfg["clusters"],
                           sigma_grid=cfg["sigma-grid"], d_grid=cfg["d-grid"],
                           samples_per_cluster=cfg["samples-per-cluster"],
                           seed=cfg["seed"], margin=cfg["margin"],
                           triplet_samples=cfg["triplet-samples"])
    rows = bounds.toy_lambda_grid(toy, threads=cfg["threads"])
    with atomic_path(run.path("lambda_grid.csv")) as tmp:
        bounds.write_rows_csv(tmp, rows, bounds.TOY_CSV_FIELDS)
    run.register("lambda_grid.csv")
    run.save_json("lambda_grid.json", [r.to_dict() for r in rows])
    lams = [r.lambda_estimate for r in rows if not r.degenerate]
    run.result = {
        "cells": len(rows),
        "lambda_max": max(lams, default=0.0),
        "lambda_below_1_fraction": (
            float(np.mean([l < 1.0 for l in lams])) if lams else 0.0),
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

COMMANDS = {
    "gen": (GEN_SPEC, cmd_gen, "generate synthetic train/query/db datasets"),
    "train": (TRAIN_SPEC, cmd_train, "supervised hash training"),
    "train-semi": (TRAIN_SEMI_SPEC, cmd_train_semi, "semi-supervised training"),
    "encode": (ENCODE_SPEC, cmd_encode, "encode a dataset into binary codes"),
    "eval": (EVAL_SPEC, cmd_eval, "retrieval metrics for code files"),
    "verify-bounds": (VERIFY_SPEC, cmd_verify_bounds,
                      "randomized certification of the unary bounds"),
    "lambda-toy": (TOY_SPEC, cmd_lambda_toy, "lambda landscape grid experiment"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scdh",
        description="semantic-cluster hashing: training, bounds, retrieval")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (spec, _fn, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        _add_spec_args(p, spec)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SCDH_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    spec, fn, _ = COMMANDS[args.command]
    try:
        cfg = _resolve(args, spec)
        run = Run(args.command, args.out, cfg)
        fn(cfg, run)
        run.finish()
        return 0
    except (ValidationError, ScdhError) as exc:
        kind = "validation" if isinstance(exc, ValidationError) else "runtime"
        json.dump({"error": kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1 if kind == "validation" else 2
    except Exception as exc:  # unexpected: report as runtime error
        json.dump({"error": "runtime", "message": f"{type(exc).__name__}: {exc}"},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
