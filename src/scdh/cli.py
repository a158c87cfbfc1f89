"""Command-line front door.

Subcommands: gen, train, train-semi, encode, eval, verify-bounds, lambda-toy.
Every run resolves its configuration from defaults < --preset/--hp-preset <
--config JSON < explicit flags, writes all artifacts atomically (temp file +
rename), and finishes with a run-manifest JSON recording the resolved config,
seed, versions, and sha256 hashes of every output.  Exit codes: 0 success,
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
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
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


# The JSON numbers a --config value may be where its flag takes a number (a
# bool is never one).  Any other value must be a string in the flag's form.
_CONFIG_NUMBERS = {int: ((int,), "an integer"), float: ((int, float), "a number")}


def _config_value(key: str, parse, value):
    """One --config value, checked and parsed as its flag would be."""
    if isinstance(value, str):
        try:
            return parse(value)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: cannot parse {value!r} "
                                  f"({exc})") from None
    types, want = _CONFIG_NUMBERS.get(parse, ((), f"a string as for --{key}"))
    if isinstance(value, bool) or not isinstance(value, types):
        raise ValidationError(f"config key {key!r} must be {want}, "
                              f"got {json.dumps(value)}")
    return parse(value)


def resolve(command: str, flags: dict, config_path: str | None = None) -> dict:
    """One command's configuration: defaults < named presets < config file < flags.

    ``flags`` maps spec keys to explicit values; ``None`` means unset.
    Unknown config keys and unknown preset names are rejected.
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
        config = {key: _config_value(key, spec[key][0], val) for key, val in config.items()}
    explicit = {**config, **{key: val for key, val in flags.items() if val is not None}}
    preset_values = {}
    for key, table in PRESETS.get(command, {}).items():
        name = explicit.get(key)
        if name is None:
            continue
        if name not in table:
            raise ValidationError(f"unknown --{key} {name!r}, expected one of "
                                  f"{sorted(table)}")
        preset_values.update({k.replace("_", "-"): v for k, v in table[name].items()})
    resolved = {}
    for key, (parse, default, _help) in spec.items():
        if key in explicit:
            resolved[key] = explicit[key]
            continue
        raw = preset_values.get(key, default)
        resolved[key] = parse(raw) if isinstance(raw, str) and parse else raw
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
        losses.require_negative_class(dataset.labels)
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


def make_splits(cfg: dict) -> tuple[data.Dataset, data.Dataset, data.Dataset]:
    """The train, query and database sets of a resolved gen config, before
    balancing and label stripping."""
    if cfg["mode"] not in ("single", "multi"):
        raise ValidationError(f"mode must be 'single' or 'multi', got {cfg['mode']!r}")
    multi = cfg["mode"] == "multi"
    try:
        syn = data.SyntheticConfig(C=cfg["classes"], feature_dim=cfg["dim"],
                                   cluster_std=cfg["cluster-std"],
                                   center_spread=cfg["center-spread"],
                                   samples_per_class=cfg["train-per-class"],
                                   multilabel_p=cfg["multilabel-p"] if multi else None,
                                   seed=cfg["seed"])
        if multi:
            return data.make_multilabel_splits(syn, cfg["n-query"], cfg["n-db"])
        return data.make_cluster_splits(syn, cfg["query-per-class"],
                                        cfg["db-per-class"])
    except PreconditionError as exc:
        raise ValidationError(str(exc)) from None


def cmd_gen(cfg: dict, run: Run):
    seed = cfg["seed"]
    if not 0.0 < cfg["keep-labels"] <= 1.0:
        raise ValidationError(f"--keep-labels must lie in (0, 1], got {cfg['keep-labels']}")
    train, query, db = make_splits(cfg)
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


def hyperparams(cfg: dict) -> model.Hyperparams:
    """The training hyperparameters of a resolved train or train-semi config,
    after its layer sizes are checked."""
    if cfg["bits"] < 1 or not all(h >= 1 for h in cfg["hidden"]):
        raise ValidationError(f"--bits and every --hidden width must be positive, got "
                              f"--bits {cfg['bits']} --hidden {list(cfg['hidden'])}")
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
    hp = hyperparams(cfg)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    _require_trainable(dataset, "--data")
    if not dataset.labeled_mask().all():
        labeled_idx = np.nonzero(dataset.labeled_mask())[0]
        log.info("training on the %d labeled samples only", len(labeled_idx))
        dataset = dataset.subset(labeled_idx)
    if cfg["balance"]:
        dataset = data.balance_upsample(dataset, seed=cfg["seed"])
    net, report = meanteacher.train_scdh(dataset, hp, r=cfg["bits"],
                                         hidden=tuple(cfg["hidden"]))
    with atomic_path(run.path("model.ckpt")) as tmp:
        model.save_checkpoint(tmp, net, hp)
    run.register("model.ckpt")
    _report_files(run, report)
    run.result = {"final_quantization": report.final_quantization,
                  "epochs": len(report.epochs)}


def _require_semi_settings(cfg: dict):
    """Reject non-finite or out-of-range mean-teacher settings, which would
    otherwise fail mid-run or be ignored."""
    for key, ok, want in (
            ("w", lambda v: 0.0 <= v < math.inf, "finite and non-negative"),
            ("ema-decay", lambda v: 0.0 <= v < 1.0, "in [0, 1)"),
            ("noise-std", lambda v: 0.0 <= v < math.inf, "finite and non-negative"),
            ("ramp-fraction", lambda v: 0.0 <= v <= 1.0, "in [0, 1]")):
        if not ok(cfg[key]):
            raise ValidationError(f"--{key} must be {want}, got {cfg[key]}")


def cmd_train_semi(cfg: dict, run: Run):
    _require_semi_settings(cfg)
    hp = hyperparams(cfg)
    _require_file(cfg["data"], "--data")
    dataset = data.load_dataset(cfg["data"])
    _require_trainable(dataset, "--data")
    semi = meanteacher.SemiDataset.from_partial(dataset)
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
    "network": (str, None, "teacher or student; unset takes the teacher of a "
                           "dual checkpoint, else the student"),
    "name": (str, "codes.scdh", "output code file name"),
})


def cmd_encode(cfg: dict, run: Run):
    if cfg["network"] not in (None, "teacher", "student"):
        raise ValidationError("--network must be 'teacher' or 'student'")
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
    dataset = data.load_dataset(cfg["data"])
    _require_finite(dataset, "--data")
    if dataset.dim != net.input_dim:
        raise ValidationError(f"--data has {dataset.dim} features per row, but the "
                              f"checkpoint's network takes {net.input_dim}")
    F = model.extract_embeddings(net, dataset.features)
    index = retrieval.CodeIndex.from_embeddings(F, dataset.ids)
    with atomic_path(run.path(cfg["name"])) as tmp:
        retrieval.save_codes(index, tmp)
    run.register(cfg["name"])
    # code health: the share of codes with each bit set, over bit positions
    ones = np.count_nonzero(F >= 0.0, axis=0) / max(index.n, 1)
    run.result = {"n": index.n, "bits": index.nbits,
                  "bit_ones": {"min": float(ones.min()), "max": float(ones.max())}}


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
    order = np.argsort(ds.ids, kind="stable")
    pos = np.searchsorted(ds.ids, codes.ids, sorter=order)
    found = pos < ds.n
    found[found] = ds.ids[order[pos[found]]] == codes.ids[found]
    if not found.all():
        raise ValidationError(f"{what}: id {int(codes.ids[np.argmin(found)])} "
                              "missing from dataset")
    labels = ds.labels[order[pos]]
    if not labels.any(axis=1).all():
        raise ValidationError(f"{what}: unlabeled samples cannot be evaluated")
    return retrieval.CodeIndex._adopt(codes.words, codes.ids, codes.nbits, labels)


def cmd_eval(cfg: dict, run: Run):
    for key in ("queries", "database", "query-data", "db-data"):
        _require_file(cfg[key], f"--{key}")
    query_data = data.load_dataset(cfg["query-data"])
    db_data = data.load_dataset(cfg["db-data"])
    if query_data.label_count != db_data.label_count:
        raise ValidationError(f"--query-data has {query_data.label_count} label classes, "
                              f"--db-data {db_data.label_count}")
    queries = _labels_for(retrieval.load_codes(cfg["queries"]), query_data, "queries")
    db = _labels_for(retrieval.load_codes(cfg["database"]), db_data, "database")
    metrics = retrieval.evaluate(queries, db, k=cfg["map-k"] or None,
                                 radius=cfg["radius"], ks=cfg["topk"])
    report = dict(metrics.to_dict(),
                  database_codes=retrieval.Buckets.of(db).summary())
    run.save_json("metrics.json", report)
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
    run.result = report


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


# Random instances drawn before their checks run; the suite's memory does
# not grow with --instances.
BOUND_DRAW_CHUNK = 1000

_SIGNS = np.array([-1.0, 1.0])


def _draw_bound_arrays(rng: np.random.Generator, classes, max_n: int, max_r: int):
    """(C, per_class, codes, centers) of one instance; the same stream as
    ``rng.choice`` over ``classes`` and over the signs would take."""
    C = int(classes[rng.integers(len(classes))])
    per_class = int(rng.integers(1, max(max_n // C, 1) + 1))
    r = int(rng.integers(2, max_r + 1))
    codes = _SIGNS[rng.integers(0, 2, (C * per_class, r))]
    centers = rng.normal(0.0, 2.0, (r, C))
    return C, per_class, codes, centers


def random_bound_instance(rng: np.random.Generator, classes, max_n: int,
                          max_r: int):
    """Balanced +/-1 codes with random real centers for one bound check."""
    C, per_class, codes, centers = _draw_bound_arrays(rng, classes, max_n, max_r)
    labels = np.repeat(np.arange(C), per_class)
    return bounds.LabeledCodeSet.from_single_labels(codes, labels, C), centers


def run_bound_suite(instances: int, classes, max_n: int, max_r: int,
                    kind: losses.TripletLossKind, seed: int):
    """``unary_upper_bound`` of each ``random_bound_instance`` drawn from
    ``seed``, in draw order.  The draws of a chunk are grouped by (C, rows
    per class, r), and each group is certified as one stack."""
    classes = tuple(classes)
    reports = []
    rng = np.random.default_rng(seed)
    for first in range(0, instances, BOUND_DRAW_CHUNK):
        draws = [_draw_bound_arrays(rng, classes, max_n, max_r)
                 for _ in range(min(BOUND_DRAW_CHUNK, instances - first))]
        groups: dict[tuple, list[int]] = {}
        for t, (C, per_class, codes, _) in enumerate(draws):
            groups.setdefault((C, per_class, codes.shape[1]), []).append(t)
        chunk = [None] * len(draws)
        for (C, per_class, _), members in groups.items():
            stack = bounds.unary_upper_bounds(
                np.stack([draws[t][2] for t in members]),
                np.repeat(np.arange(C), per_class), C,
                np.stack([draws[t][3] for t in members]), kind)
            for t, report in zip(members, stack):
                chunk[t] = report
        reports.extend(chunk)
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


def _verify_kind(cfg: dict) -> losses.TripletLossKind:
    """The comparator of a resolved verify-bounds config, after rejecting the
    values that would fail mid-run."""
    cap = bounds.DEFAULT_TRIPLET_CAP
    if cfg["instances"] < 1:
        raise ValidationError(f"--instances must be at least 1, got {cfg['instances']}")
    if cfg["ml-configs"] < 0:
        raise ValidationError(f"--ml-configs must be non-negative, got {cfg['ml-configs']}")
    if cfg["trials"] < bounds.MIN_TRIALS:
        raise ValidationError(f"--trials must be at least {bounds.MIN_TRIALS}, "
                              f"got {cfg['trials']}")
    if cfg["max-n"] > cap:
        raise ValidationError(f"--max-n {cfg['max-n']} exceeds the {cap}-row "
                              "exhaustive-enumeration cap")
    if cfg["max-r"] < 2:
        raise ValidationError(f"--max-r must be at least 2, got {cfg['max-r']}")
    if not cfg["classes"] or not all(2 <= C <= cap for C in cfg["classes"]):
        raise ValidationError(f"--classes entries must lie in 2..{cap}, "
                              f"got {list(cfg['classes'])}")
    try:
        return losses.TripletLossKind(cfg["kind"], cfg["margin"])
    except ValueError as exc:
        raise ValidationError(f"--kind/--margin: {exc}") from None


def cmd_verify_bounds(cfg: dict, run: Run):
    kind = _verify_kind(cfg)
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
    try:
        toy = bounds.ToyConfig(r=cfg["bits"], C=cfg["clusters"],
                               sigma_grid=cfg["sigma-grid"], d_grid=cfg["d-grid"],
                               samples_per_cluster=cfg["samples-per-cluster"],
                               seed=cfg["seed"], margin=cfg["margin"],
                               triplet_samples=cfg["triplet-samples"])
    except PreconditionError as exc:
        raise ValidationError(str(exc)) from None
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

# The preset tables each command's --preset and --hp-preset name into.
PRESETS = {
    "gen": {"preset": SYNTH_PRESETS},
    "train": {"preset": TRAIN_PRESETS, "hp-preset": model.HP_PRESETS},
    "train-semi": {"preset": TRAIN_PRESETS, "hp-preset": model.HP_PRESETS},
}

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
        flags = {key: getattr(args, key.replace("-", "_")) for key in spec}
        cfg = resolve(args.command, flags, args.config)
        run = Run(args.command, args.out, cfg)
        fn(cfg, run)
        run.finish()
        return 0
    except (ValidationError, ScdhError) as exc:
        # only the readers of .ckpt, .scds, .scdh and CSV files raise ParseError
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
