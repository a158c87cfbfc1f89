"""Command-line front door.

Subcommands: gen, train, train-semi, encode, eval, verify-bounds, lambda-toy.
Every run resolves its configuration from defaults < --preset < --config
JSON < explicit flags, each value checked against its flag's domain before
any work starts, writes all artifacts atomically (temp file + rename), and
finishes with a run-manifest JSON recording the resolved config, seed,
versions, and sha256 hashes of every output.  Exit codes: 0 success,
1 validation error (a damaged input file included), 2 runtime/numeric
error, with a machine-readable JSON object on stderr for failures.  SCDH_LOG
sets the log level.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import math
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__, bounds, data, losses, meanteacher, model, retrieval
from .errors import LabelSetError, ParseError, PreconditionError, ScdhError

log = logging.getLogger("scdh")

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
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")


class Run:
    """Collects outputs and writes the manifest for one command."""

    def __init__(self, command: str, out_dir: str, config: dict):
        if os.path.exists(out_dir) and not os.path.isdir(out_dir):
            raise ValidationError(f"--out {out_dir} is not a directory")
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.outputs: list[str] = []
        self.result: dict = {}

    def path(self, name: str) -> str:
        """Where output ``name`` is written.  The --out directory is made
        here, so a run refused before its first output leaves none."""
        os.makedirs(self.out_dir, exist_ok=True)
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


# ---------------------------------------------------------------------------
# Flag domains.  Each spec entry is (domain, default, help); the domain says
# what the flag accepts.  ``parse`` takes a flag's text or a JSON value from
# --config and returns the value, or raises ValueError; ``str()`` says what
# the domain is, for refusals and --help.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Int:
    lo: int
    hi: int | None = None

    def __str__(self):
        if self.hi is None:
            return f"at least {self.lo}"
        return f"an integer in {self.lo}..{self.hi}"

    def parse(self, raw):
        value = int(raw) if isinstance(raw, str) else raw
        if type(value) is not int or value < self.lo or \
                self.hi is not None and value > self.hi:
            raise ValueError
        return value


@dataclass(frozen=True)
class Float:
    """A finite number between ``lo`` and ``hi``; each end open or closed."""

    lo: float
    hi: float = math.inf
    lo_open: bool = False
    hi_open: bool = True

    def __str__(self):
        if self.hi == math.inf:
            return f"a finite number {'above' if self.lo_open else 'at least'} {self.lo:.16g}"
        return (f"a finite number in {'(' if self.lo_open else '['}{self.lo:.16g}, "
                f"{self.hi:.16g}{')' if self.hi_open else ']'}")

    def parse(self, raw):
        if not isinstance(raw, str) and type(raw) not in (int, float):
            raise ValueError
        value = float(raw)
        above = self.lo < value if self.lo_open else self.lo <= value
        below = value < self.hi if self.hi_open else value <= self.hi
        if not (above and below and math.isfinite(value)):
            raise ValueError
        return value


@dataclass(frozen=True)
class Choice:
    """One of ``names``; a preset flag's names are its table's keys."""

    names: tuple | dict

    def __str__(self):
        return f"one of {sorted(self.names)}"

    def parse(self, raw):
        if not isinstance(raw, str) or raw not in self.names:
            raise ValueError
        return raw


@dataclass(frozen=True)
class List:
    """A comma list of ``entry`` values, as a tuple; blank entries are skipped."""

    entry: Int | Float
    nonempty: bool = False
    ascending: bool = False

    def __str__(self):
        return (f"a comma list{', non-empty' if self.nonempty else ''}"
                f"{', ascending' if self.ascending else ''}, each entry {self.entry}")

    def parse(self, raw):
        if not isinstance(raw, str):
            raise ValueError
        values = tuple(self.entry.parse(v) for v in raw.split(",") if v.strip())
        if self.nonempty and not values or self.ascending and list(values) != sorted(values):
            raise ValueError
        return values


@dataclass(frozen=True)
class Schedule:
    """Learning-rate steps "epoch:multiplier", none blank and in epoch order,
    as a tuple of pairs."""

    epoch: Int = Int(0)
    multiplier: Float = Float(0.0, lo_open=True)

    def __str__(self):
        return (f"a comma list of epoch:multiplier steps in epoch order, the epoch "
                f"{self.epoch} and the multiplier {self.multiplier}")

    def parse(self, raw):
        if not isinstance(raw, str):
            raise ValueError
        steps = [step.split(":") for step in raw.split(",")] if raw else []
        steps = tuple((self.epoch.parse(e), self.multiplier.parse(m)) for e, m in steps)
        if [e for e, _ in steps] != sorted(e for e, _ in steps):
            raise ValueError
        return steps


@dataclass(frozen=True)
class File:
    """A file path; a plain one is a file name in the --out directory, which
    the manifest's name cannot be."""

    plain: bool = False

    def __str__(self):
        return "a file name other than manifest.json" if self.plain else "a file path"

    def parse(self, raw):
        if not isinstance(raw, str) or not raw:
            raise ValueError
        if self.plain and (os.path.basename(raw) != raw or
                           raw in (".", "..", "manifest.json")):
            raise ValueError
        return raw


def _check(spec: dict, key: str, name: str, raw):
    """``raw`` parsed and checked by the domain of ``spec[key]``; ``name`` is
    how a refusal names the value's source."""
    domain = spec[key][0]
    try:
        return domain.parse(raw)
    except (ValueError, OverflowError):
        shown = raw if isinstance(raw, str) and raw.strip() else json.dumps(raw)
        raise ValidationError(f"{name} must be {domain}, got {shown}") from None


def resolve(command: str, flags: dict, config_path: str | None = None) -> dict:
    """One command's configuration: defaults < named presets < config file < flags.

    ``flags`` maps spec keys to flag text; ``None`` means unset.  Every value,
    be it a flag, a config value, a preset value or a default, goes through
    its spec entry's domain.  Unknown config keys are rejected.
    """
    spec = COMMANDS[command][0]
    config = {}
    if config_path:
        if not os.path.exists(config_path):
            raise ValidationError(f"config file not found: {config_path}")
        with open(config_path) as fh:
            try:
                config = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ValidationError("config file must hold a JSON object")
        unknown = set(config) - set(spec)
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    explicit = {key: _check(spec, key, f"config key {key!r}", raw)
                for key, raw in config.items()}
    explicit.update({key: _check(spec, key, f"--{key}", raw)
                     for key, raw in flags.items() if raw is not None})
    preset_values = {}
    for key, (domain, _default, _help) in spec.items():
        # a preset flag chooses among the names of its table
        if key in explicit and isinstance(domain, Choice) and isinstance(domain.names, dict):
            preset_values.update({k.replace("_", "-"): v
                                  for k, v in domain.names[explicit[key]].items()})
    resolved = {}
    for key, (_domain, default, _help) in spec.items():
        if key in explicit:
            resolved[key] = explicit[key]
            continue
        raw = preset_values.get(key, default)
        resolved[key] = None if raw is None else _check(spec, key, f"--{key}", raw)
    return resolved


COMMON = {
    "seed": (Int(0), 0, "master RNG seed"),
    "threads": (Int(1, os.cpu_count() or 1), 1,
                "lambda-toy's cell workers, the same grid at every value; "
                "the other commands ignore it"),
}


def _require_file(path: str, what: str):
    if not path:
        raise ValidationError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise ValidationError(f"{what} not found: {path}")


def _require_finite(features: np.ndarray, ids: np.ndarray, what: str, first_row: int = 0):
    """One pass over the block; the first bad row is found only on failure."""
    if not np.isfinite(features).all():
        i = int(np.argmin(np.isfinite(features).all(axis=1)))
        raise ValidationError(f"{what}: row {first_row + i} (id {int(ids[i])}) has a "
                              "non-finite feature value")


def _require_trainable(dataset: data.Dataset, what: str,
                       unlabeled: bool = False) -> np.ndarray:
    """Reject features and label sets that training cannot use, before a
    network is built; return the labeled-row mask.  ``unlabeled`` says the
    command trains on the unlabeled rows too: then no id may name both a
    labeled and an unlabeled row."""
    if dataset.dim < 1:
        raise ValidationError(f"{what} has 0 features per row; training needs at "
                              "least 1")
    _require_finite(dataset.features, dataset.ids, what)
    try:
        losses.require_negative_class(dataset.labels)
    except LabelSetError as exc:
        raise ValidationError(f"{what}: {exc}") from None
    mask = dataset.labeled_mask()
    if not mask.any():
        raise ValidationError(f"{what}: no row carries a label; training needs "
                              "at least one labeled row")
    if unlabeled:
        shared = np.intersect1d(dataset.ids[mask], dataset.ids[~mask])
        if shared.size:
            raise ValidationError(f"{what}: id {int(shared[0])} names both a labeled "
                                  "and an unlabeled row")
    return mask


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

GEN_SPEC = dict(COMMON, **{
    "preset": (Choice(SYNTH_PRESETS), None, "synthetic preset"),
    "mode": (Choice(("single", "multi")), "single", "label regime"),
    "classes": (Int(1), 8, "number of classes C"),
    "dim": (Int(1), 32, "feature dimension"),
    "cluster-std": (Float(0.0), 1.0, "Gaussian cluster standard deviation"),
    "center-spread": (Float(0.0), 1.0, "std of the cluster-mean draw"),
    "train-per-class": (Int(1), 500, "training samples per class"),
    "query-per-class": (Int(1), 100, "query samples per class (single-label)"),
    "db-per-class": (Int(1), 500, "database samples per class (single-label)"),
    "multilabel-p": (Float(0.0, 1.0, lo_open=True), 0.3,
                     "per-label inclusion probability (multi)"),
    "n-query": (Int(1), 500, "query set size (multi)"),
    "n-db": (Int(1), 3000, "database size (multi)"),
    "keep-labels": (Float(0.0, 1.0, lo_open=True, hi_open=False), 1.0,
                    "fraction of train labels kept, the rest stripped (single)"),
})


def cmd_gen(cfg: dict, run: Run):
    seed, multi = cfg["seed"], cfg["mode"] == "multi"
    if multi and cfg["keep-labels"] < 1.0:
        # label stripping takes one label per sample
        raise ValidationError(f"--keep-labels {cfg['keep-labels']} needs --mode single, "
                              "got --mode multi")
    try:
        syn = data.SyntheticConfig(C=cfg["classes"], feature_dim=cfg["dim"],
                                   cluster_std=cfg["cluster-std"],
                                   center_spread=cfg["center-spread"],
                                   samples_per_class=cfg["train-per-class"],
                                   multilabel_p=cfg["multilabel-p"] if multi else None,
                                   seed=seed)
    except PreconditionError as exc:
        # the flag domains leave only the label-row odds of a multilabel draw
        raise ValidationError(f"--mode multi --classes {cfg['classes']} --multilabel-p "
                              f"{cfg['multilabel-p']}: {exc}") from None
    if multi:
        train, query, db = data.make_multilabel_splits(syn, cfg["n-query"], cfg["n-db"])
    else:
        train, query, db = data.make_cluster_splits(syn, cfg["query-per-class"],
                                                    cfg["db-per-class"])
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
    "data": (File(), None, "training dataset (.scds)"),
    "preset": (Choice(TRAIN_PRESETS), None, "training preset"),
    "bits": (Int(1), 24, "code length r"),
    "hidden": (List(Int(1)), "64", "trunk widths"),
    "lam": (Float(0.0), 0.005, "center-distance weight lambda"),
    "mu": (Float(0.0), 0.2, "classification weight mu"),
    "alpha": (Float(0.0), 0.05, "quantization weight alpha"),
    # the domain of ``losses.dual_exponent``, which works out q = p / (p - 1)
    "holder-p": (Float(1.0, 2.0**53, lo_open=True), 3.0,
                 "Hoelder exponent p; its dual q is p / (p - 1)"),
    "epochs": (Int(1), 30, "training epochs"),
    "batch-size": (Int(1), 64, "mini-batch size"),
    "lr": (Float(0.0, lo_open=True), 1e-3, "initial learning rate"),
    "momentum": (Float(0.0, 1.0), 0.9, "SGD momentum"),
    "lr-schedule": (Schedule(), "", "learning-rate steps, e.g. 100:0.2,140:0.2"),
    "warmup-epochs": (Int(0), 0, "epochs with center-norm projection"),
    "warmup-norm": (Float(0.0, lo_open=True), 8.0, "projection norm s"),
}

TRAIN_SPEC = dict(COMMON, **_TRAIN_BASE)

TRAIN_SEMI_SPEC = dict(COMMON, **_TRAIN_BASE, **{
    "w": (Float(0.0), meanteacher.DEFAULT_CONSISTENCY_WEIGHT, "consistency weight"),
    "ema-decay": (Float(0.0, 1.0), meanteacher.DEFAULT_EMA_DECAY, "teacher EMA decay"),
    "noise-std": (Float(0.0), meanteacher.DEFAULT_NOISE_STD, "input perturbation std"),
    "ramp-fraction": (Float(0.0, 1.0, hi_open=False), 0.2,
                      "fraction of epochs to ramp the consistency weight"),
})


def hyperparams(cfg: dict) -> model.Hyperparams:
    """The training hyperparameters of a resolved train or train-semi config."""
    return model.Hyperparams(
        lam=cfg["lam"], mu=cfg["mu"], alpha=cfg["alpha"], holder_p=cfg["holder-p"],
        warmup_epochs=cfg["warmup-epochs"], warmup_norm_s=cfg["warmup-norm"],
        lr=cfg["lr"], momentum=cfg["momentum"], epochs=cfg["epochs"],
        batch_size=cfg["batch-size"], lr_schedule=cfg["lr-schedule"],
        seed=cfg["seed"],
    )


def _report_files(run: Run, report: model.TrainReport):
    run.save_json("train_report.json", report.to_dict())
    with atomic_path(run.path("train_report.csv")) as tmp:
        bounds.write_rows_csv(tmp, [e.to_dict() for e in report.epochs], model.EpochRecord)
    run.register("train_report.csv")


def cmd_train(cfg: dict, run: Run):
    hp = hyperparams(cfg)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    labeled = _require_trainable(dataset, "--data")
    if not labeled.all():
        log.info("training on the %d labeled samples only", np.count_nonzero(labeled))
        dataset = dataset.subset(np.flatnonzero(labeled))
    net, _, report = meanteacher.train_mt_scdh(dataset, hp, r=cfg["bits"],
                                               hidden=cfg["hidden"])
    with atomic_path(run.path("model.ckpt")) as tmp:
        model.save_checkpoint(tmp, net, hp)
    run.register("model.ckpt")
    _report_files(run, report)
    run.result = {"final_quantization": report.final_quantization,
                  "epochs": len(report.epochs)}


def cmd_train_semi(cfg: dict, run: Run):
    hp = hyperparams(cfg)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    labeled = _require_trainable(dataset, "--data", unlabeled=True)
    student, teacher, report = meanteacher.train_mt_scdh(
        dataset, hp, w=cfg["w"], ema_decay=cfg["ema-decay"],
        noise_std=cfg["noise-std"], r=cfg["bits"], hidden=cfg["hidden"],
        ramp_fraction=cfg["ramp-fraction"])
    with atomic_path(run.path("model.ckpt")) as tmp:
        model.save_checkpoint(tmp, student, hp, teacher=teacher,
                              extra_meta={"ema_decay": cfg["ema-decay"],
                                          "consistency_weight": cfg["w"],
                                          "noise_std": cfg["noise-std"]})
    run.register("model.ckpt")
    _report_files(run, report)
    run.result = {"final_quantization": report.final_quantization,
                  "labeled": int(np.count_nonzero(labeled)),
                  "unlabeled": int(np.count_nonzero(~labeled))}


# ---------------------------------------------------------------------------
# encode / eval
# ---------------------------------------------------------------------------

ENCODE_SPEC = dict(COMMON, **{
    "model": (File(), None, "model checkpoint"),
    "data": (File(), None, "dataset to encode (.scds)"),
    "network": (Choice(("teacher", "student")), None,
                "network to encode; unset takes the teacher of a dual checkpoint, "
                "else the student"),
    "name": (File(plain=True), "codes.scdh", "output code file name"),
})


def cmd_encode(cfg: dict, run: Run):
    _require_file(cfg["model"], "--model")
    _require_file(cfg["data"], "--data")
    net, _, teacher, _ = model.load_checkpoint(cfg["model"])
    if cfg["network"] is None:
        # the manifest records the network the codes come from
        cfg["network"] = "student" if teacher is None else "teacher"
    if cfg["network"] == "teacher":
        if teacher is None:
            raise ValidationError(f"--network teacher: {cfg['model']} is a "
                                  "student-only checkpoint")
        net = teacher
    dataset = data.open_dataset(cfg["data"])
    if dataset.dim != net.input_dim:
        raise ValidationError(f"--data has {dataset.dim} features per row, but the "
                              f"checkpoint's network takes {net.input_dim}")
    # a block of rows at a time: only the code words and bit counts are whole
    words = np.empty((dataset.n, retrieval._n_words(net.r)), dtype="<u8")
    ones = np.zeros(net.r)
    for s, e in model.row_blocks(dataset.n):
        X = dataset.rows(s, e)
        _require_finite(X, dataset.ids[s:e], "--data", s)
        F = model.extract_embeddings(net, X)
        words[s:e] = retrieval.binarize_batch(F)
        # the column totals as one product, exact in float64: every partial
        # sum is an integer below 2**53 (a column reduction costs twice as much)
        ones += np.ones(e - s) @ (F >= 0.0)
    index = retrieval.CodeIndex._adopt(words, dataset.ids, net.r)
    with atomic_path(run.path(cfg["name"])) as tmp:
        retrieval.save_codes(index, tmp)
    run.register(cfg["name"])
    # code health: the share of codes with each bit set, over bit positions
    ones = ones / max(index.n, 1)
    run.result = {"n": index.n, "bits": index.nbits,
                  "bit_ones": {"min": float(ones.min()), "max": float(ones.max())}}


EVAL_SPEC = dict(COMMON, **{
    "queries": (File(), None, "query code file (.scdh)"),
    "database": (File(), None, "database code file (.scdh)"),
    "query-data": (File(), None, "dataset supplying query labels (.scds)"),
    "db-data": (File(), None, "dataset supplying database labels (.scds)"),
    "map-k": (Int(0), 0, "0 = untruncated MAP, else MAP@k as well"),
    "topk": (List(Int(1), ascending=True), "", "k values of the precision curve"),
})


def _labels_for(codes: retrieval.CodeIndex, ds: data.DatasetFile, what: str):
    """The code index with each code's label row from the dataset.  A code
    file with the dataset's ids in order, as ``encode`` writes it, takes the
    label rows as they are; any other is looked up by id."""
    if np.array_equal(codes.ids, ds.ids):
        labels = ds.labels
    else:
        order = np.argsort(ds.ids, kind="stable")
        pos = np.searchsorted(ds.ids, codes.ids, sorter=order)
        found = pos < ds.n
        found[found] = ds.ids[order[pos[found]]] == codes.ids[found]
        if not found.all():
            raise ValidationError(f"{what}: id {int(codes.ids[np.argmin(found)])} "
                                  "missing from dataset")
        labels = ds.labels[order[pos]]
    index = retrieval.CodeIndex._adopt(codes.words, codes.ids, codes.nbits, labels)
    # over the packed rows, which the ranking reuses: an (n, C) ``any`` loops
    # over C per row
    if not index.label_words.any(axis=1).all():
        raise ValidationError(f"{what}: unlabeled samples cannot be evaluated")
    return index


def cmd_eval(cfg: dict, run: Run):
    topk = cfg["topk"]
    for key in ("queries", "database", "query-data", "db-data"):
        _require_file(cfg[key], f"--{key}")
    # ids and labels only: eval reads no feature row
    query_data = data.open_dataset(cfg["query-data"])
    db_data = data.open_dataset(cfg["db-data"])
    C, db_C = query_data.labels.shape[1], db_data.labels.shape[1]
    if C != db_C:
        raise ValidationError(f"--query-data has {C} label classes, --db-data {db_C}")
    queries = _labels_for(retrieval.load_codes(cfg["queries"]), query_data, "queries")
    db = _labels_for(retrieval.load_codes(cfg["database"]), db_data, "database")
    if queries.nbits != db.nbits:
        raise ValidationError(f"--queries holds {queries.nbits}-bit codes, "
                              f"--database {db.nbits}-bit codes")
    if topk and topk[-1] > db.n:
        raise ValidationError(f"--topk {topk[-1]} exceeds the {db.n} database codes")
    # MAP needs a query with a relevant code: one whose label mask meets the
    # OR of the database's masks
    if not (queries.label_words & np.bitwise_or.reduce(db.label_words)).any():
        raise ValidationError("no query in --queries shares a label with a code in "
                              "--database")
    report = retrieval.evaluate(queries, db, k=cfg["map-k"] or None, ks=topk)
    report["database_codes"] = retrieval.Buckets.of(db).summary()
    run.save_json("metrics.json", report)
    columns = ("map", "map_at_k", "k", "precision_at_radius2")
    with atomic_path(run.path("metrics.csv")) as tmp:
        with open(tmp, "w") as fh:
            fh.write(",".join(columns) + "\n")
            fh.write(",".join("" if report[c] is None else str(report[c])
                              for c in columns) + "\n")
    run.register("metrics.csv")
    if report["topk_curve"]:
        with atomic_path(run.path("topk_curve.csv")) as tmp:
            with open(tmp, "w") as fh:
                fh.write("k,precision\n")
                for k, p in report["topk_curve"]:
                    fh.write(f"{k},{p}\n")
        run.register("topk_curve.csv")
    run.result = report


# ---------------------------------------------------------------------------
# verify-bounds
# ---------------------------------------------------------------------------

VERIFY_SPEC = dict(COMMON, **{
    "instances": (Int(1), 1000, "randomized single-label bound instances"),
    "max-n": (Int(1, bounds.TRIPLET_CAP), 12, "max codes per instance"),
    "classes": (List(Int(2, bounds.TRIPLET_CAP), nonempty=True), "2,3,4",
                "candidate class counts"),
    "max-r": (Int(2), 16, "max code length"),
    "kind": (Choice(("margin", "softmax")), "margin", "comparator kind"),
    "margin": (Float(0.0), 1.0, "margin m for the hinge comparator"),
    "ml-configs": (Int(0), 20, "multilabel Monte Carlo configurations"),
    "trials": (Int(bounds.MIN_TRIALS), 5000, "Monte Carlo trials per configuration"),
})


# perfbench/workloads.py draws its certify requests here
random_bound_instance = bounds.random_bound_instance


def cmd_verify_bounds(cfg: dict, run: Run):
    kind = losses.TripletLossKind(cfg["kind"], cfg["margin"])
    try:
        single = bounds.run_bound_suite(cfg["instances"], cfg["classes"], cfg["max-n"],
                                        cfg["max-r"], kind, cfg["seed"])
    except PreconditionError as exc:
        # the flag domains leave only --max-n against the largest class count
        classes = ",".join(map(str, cfg["classes"]))
        raise ValidationError(f"--max-n {cfg['max-n']} --classes {classes}: {exc}") from None
    multi = bounds.run_multilabel_suite(cfg["ml-configs"], cfg["trials"], kind, cfg["seed"])
    # one dict per report serves its CSV row and its JSON entry
    unary, multilabel = [r.to_dict() for r in single], [r.to_dict() for r in multi]
    with atomic_path(run.path("unary_bounds.csv")) as tmp:
        bounds.write_rows_csv(tmp, unary, bounds.BoundReport)
    run.register("unary_bounds.csv")
    with atomic_path(run.path("multilabel_bounds.csv")) as tmp:
        bounds.write_rows_csv(tmp, multilabel, bounds.BoundReport)
    run.register("multilabel_bounds.csv")
    run.save_json("bounds.json", {
        "unary": unary,
        "multilabel": multilabel,
        "summary": bounds.bound_summary(single, multi),
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
    "bits": (Int(1), 48, "embedding dimension r (at least --clusters)"),
    "clusters": (Int(2), 2, "number of clusters C"),
    "sigma-grid": (List(Float(0.0, lo_open=True), nonempty=True),
                   "0.1,0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0", "cluster stds"),
    "d-grid": (List(Float(0.0), nonempty=True),
               "1.0,2.0,3.0,4.0,5.0,6.0,7.0,8.0,9.0,10.0", "center distances"),
    "samples-per-cluster": (Int(2), 200, "points per cluster"),
    "margin": (Float(0.0), 1.0, "hinge margin"),
    "triplet-samples": (Int(1), 1_000_000, "sampled triplets per cell above the "
                                           "enumeration threshold"),
})


def cmd_lambda_toy(cfg: dict, run: Run):
    try:
        toy = bounds.ToyConfig(r=cfg["bits"], C=cfg["clusters"],
                               sigma_grid=cfg["sigma-grid"], d_grid=cfg["d-grid"],
                               samples_per_cluster=cfg["samples-per-cluster"],
                               seed=cfg["seed"], margin=cfg["margin"],
                               triplet_samples=cfg["triplet-samples"])
    except PreconditionError as exc:
        # the flag domains leave only the code length against the cluster count
        raise ValidationError(f"--bits {cfg['bits']} --clusters {cfg['clusters']}: "
                              f"{exc}") from None
    rows = bounds.toy_lambda_grid(toy, threads=cfg["threads"])
    cells = [r.to_dict() for r in rows]
    with atomic_path(run.path("lambda_grid.csv")) as tmp:
        bounds.write_rows_csv(tmp, cells, bounds.ToyCell)
    run.register("lambda_grid.csv")
    run.save_json("lambda_grid.json", cells)
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; with a command named, it holds only that
    command's subparser, which parses that command's argv alike."""
    parser = argparse.ArgumentParser(
        prog="scdh",
        description="semantic-cluster hashing: training, bounds, retrieval")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (spec, _fn, help_text) in COMMANDS.items():
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default=".", help="output directory (default: .)")
        for key, (domain, default, help_text) in spec.items():
            shown = "unset" if default is None else default if default != "" else "empty"
            p.add_argument(f"--{key}", dest=key.replace("-", "_"), default=None,
                           help=f"{help_text}; {domain} (default: {shown})")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("SCDH_LOG", "WARNING").upper(),
                        format="%(levelname)s %(name)s: %(message)s")
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the invoked command's subparser; -h or an unknown command gets all
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    spec, fn, _ = COMMANDS[args.command]
    try:
        flags = {key: getattr(args, key.replace("-", "_")) for key in spec}
        cfg = resolve(args.command, flags, args.config)
        run = Run(args.command, args.out, cfg)
        fn(cfg, run)
        run.finish()
        return 0
    except (ValidationError, ScdhError) as exc:
        # only the readers of .ckpt, .scds and .scdh files raise ParseError
        kind = "validation" if isinstance(exc, (ValidationError, ParseError)) else "runtime"
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
