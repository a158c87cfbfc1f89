"""Synthetic datasets, label balancing, and dataset file I/O.

Features are stored as float32 (the on-disk format).  Labels are an (n, C)
bool matrix: entry (i, l) is set when sample i carries label l, and a row
with no set entry marks an unlabeled sample.  Label sets appear only at the
input edge, where ``labels_from_sets`` turns them into that matrix.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, LabelSetError, ParseError, PreconditionError
from .retrieval import pack_bits

DATASET_MAGIC = b"SCDS"
DATASET_VERSION = 1

_FLAG_LABELED = 1
_FLAG_MULTILABEL = 2
_FLAG_PARTIAL = 4

_UNLABELED_U32 = 0xFFFFFFFF

# The label matrix takes n * C bytes, so a file may not declare more classes.
_MAX_LABEL_COUNT = 1 << 16


@dataclass
class Dataset:
    """Parallel arrays of sample ids, features, and label rows."""

    ids: np.ndarray                       # (n,) int64
    features: np.ndarray                  # (n, dim) float32
    labels: np.ndarray                    # (n, C) bool; an all-False row is unlabeled

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.features.ndim != 2:
            raise DimensionMismatch("features must be an (n, dim) matrix")
        if self.ids.shape != (self.features.shape[0],):
            raise DimensionMismatch("ids and features must be parallel")
        if self.labels.ndim != 2 or self.labels.shape[0] != self.features.shape[0]:
            raise DimensionMismatch("labels must be an (n, C) matrix parallel to "
                                    "features")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def label_count(self) -> int:
        return self.labels.shape[1]

    def labeled_mask(self) -> np.ndarray:
        return self.labels.any(axis=1)

    def single_labels(self) -> np.ndarray:
        not_single = self.labels.sum(axis=1) != 1
        if not_single.any():
            i = int(np.argmax(not_single))
            raise LabelSetError(f"sample {int(self.ids[i])} is not single-label")
        return self.labels.argmax(axis=1)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.ids[idx], self.features[idx], self.labels[idx])


def labels_from_sets(sets, C: int) -> np.ndarray:
    """The (n, C) bool label matrix of n label sets.

    ``None`` or an empty set gives an unlabeled (all-False) row.  Raises
    LabelSetError naming the first row with a label outside 0..C-1.
    """
    rows, cols = [], []
    for i, Y in enumerate(sets):
        for label in () if Y is None else Y:
            rows.append(i)
            cols.append(label)
    cols = np.asarray(cols, dtype=np.int64)
    bad = (cols < 0) | (cols >= C)
    if bad.any():
        j = int(np.argmax(bad))
        raise LabelSetError(f"row {rows[j]}: label {cols[j]} out of range for C={C}")
    labels = np.zeros((len(sets), C), dtype=bool)
    labels[rows, cols] = True
    return labels


@dataclass(frozen=True)
class SyntheticConfig:
    """Parameters for the Gaussian-cluster / multilabel-mixture generators."""

    C: int
    feature_dim: int
    cluster_std: float
    center_spread: float
    samples_per_class: int
    multilabel_p: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.C < 1 or self.feature_dim < 1 or self.samples_per_class < 1:
            raise PreconditionError("sizes must be positive")
        if not (0.0 <= self.cluster_std < np.inf and 0.0 <= self.center_spread < np.inf):
            raise PreconditionError("cluster_std and center_spread must be finite and "
                                    "non-negative")
        if self.multilabel_p is not None and not 0.0 < self.multilabel_p < 1.0:
            raise PreconditionError("multilabel_p must lie in (0, 1)")


def _draw_prototypes(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, cfg.center_spread, (cfg.C, cfg.feature_dim))


def gen_gaussian_clusters(cfg: SyntheticConfig) -> Dataset:
    """Balanced single-label Gaussian clusters, deterministic per seed."""
    if cfg.multilabel_p is not None:
        raise PreconditionError("multilabel_p set; use gen_multilabel")
    root = np.random.SeedSequence(cfg.seed)
    means_ss, samples_ss = root.spawn(2)
    means = _draw_prototypes(cfg, np.random.default_rng(means_ss))
    return sample_clusters(means, cfg.samples_per_class, cfg.cluster_std,
                           samples_ss, id_start=0)


def sample_clusters(means: np.ndarray, per_class: int, std: float,
                    seed, id_start: int = 0) -> Dataset:
    """Draw ``per_class`` Gaussian samples around each given mean."""
    rng = np.random.default_rng(seed)
    C, dim = means.shape
    feats = np.concatenate(
        [means[c] + std * rng.standard_normal((per_class, dim)) for c in range(C)]
    )
    labels = np.repeat(np.eye(C, dtype=bool), per_class, axis=0)
    ids = np.arange(id_start, id_start + C * per_class, dtype=np.int64)
    return Dataset(ids, feats.astype(np.float32), labels)


def _sample_label_matrix(rng: np.random.Generator, n: int, C: int, p: float) -> np.ndarray:
    # Degenerate draws (no labels, or every label) are resampled: training
    # losses need at least one positive and one negative class per sample.
    Y = rng.random((n, C)) < p
    while True:
        bad = ~Y.any(axis=1) | Y.all(axis=1)
        if not bad.any():
            return Y
        Y[bad] = rng.random((int(bad.sum()), C)) < p


def gen_multilabel(cfg: SyntheticConfig) -> Dataset:
    """Multilabel mixture: independent per-label inclusion with probability p.

    Empty label draws are resampled.  Features are the mean of the member
    labels' prototypes plus Gaussian noise, which gives retrieval-learnable
    structure; n = C * samples_per_class.
    """
    if cfg.multilabel_p is None:
        raise PreconditionError("multilabel_p missing; use gen_gaussian_clusters")
    root = np.random.SeedSequence(cfg.seed)
    proto_ss, samples_ss = root.spawn(2)
    protos = _draw_prototypes(cfg, np.random.default_rng(proto_ss))
    n = cfg.C * cfg.samples_per_class
    return sample_multilabel(protos, n, cfg.multilabel_p, cfg.cluster_std,
                             samples_ss, id_start=0)


def sample_multilabel(protos: np.ndarray, n: int, p: float, std: float,
                      seed, id_start: int = 0) -> Dataset:
    """Draw n multilabel samples around prototype averages."""
    rng = np.random.default_rng(seed)
    C, dim = protos.shape
    member = _sample_label_matrix(rng, n, C, p)
    feats = member @ protos / member.sum(axis=1, keepdims=True)
    feats = feats + std * rng.standard_normal((n, dim))
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    return Dataset(ids, feats.astype(np.float32), member)


def balance_upsample(dataset: Dataset, seed: int = 0) -> Dataset:
    """Upsample minority classes (with replacement) to the majority count.

    Requires a fully labeled single-label dataset; appended duplicates get
    fresh ids past the current maximum.  An already balanced input comes back
    unchanged.
    """
    y = dataset.single_labels()
    counts = np.bincount(y, minlength=dataset.label_count)
    if np.any(counts == 0):
        missing = int(np.nonzero(counts == 0)[0][0])
        raise PreconditionError(f"class {missing} has no members to upsample from")
    target = int(counts.max())
    if np.all(counts == target):
        return dataset
    rng = np.random.default_rng(seed)
    next_id = int(dataset.ids.max()) + 1
    extra_idx = []
    for c in range(dataset.label_count):
        deficit = target - int(counts[c])
        if deficit == 0:
            continue
        members = np.nonzero(y == c)[0]
        extra_idx.extend(rng.choice(members, size=deficit, replace=True).tolist())
    extra_idx = np.array(extra_idx, dtype=np.int64)
    new_ids = np.concatenate([dataset.ids, np.arange(next_id, next_id + len(extra_idx))])
    new_feats = np.concatenate([dataset.features, dataset.features[extra_idx]])
    new_labels = np.concatenate([dataset.labels, dataset.labels[extra_idx]])
    return Dataset(new_ids, new_feats, new_labels)


# ---------------------------------------------------------------------------
# Binary dataset format: magic "SCDS", version u16, flags u16, n u64,
# dim u32, C u32; ids u64[n]; features f32[n*dim]; then labels depending on
# flags (partial mask u8[n]; multilabel bitmask words u64[n*ceil(C/64)];
# single-label u32[n] with 0xFFFFFFFF for unlabeled).
# ---------------------------------------------------------------------------

_DS_HEADER = struct.Struct("<4sHHQII")


def save_dataset(dataset: Dataset, path):
    sizes = dataset.labels.sum(axis=1)
    mask = sizes > 0
    any_labeled = bool(mask.any())
    flags = 0
    if any_labeled:
        flags |= _FLAG_LABELED
        if (sizes > 1).any():
            flags |= _FLAG_MULTILABEL
        if not mask.all():
            flags |= _FLAG_PARTIAL
    with open(path, "wb") as fh:
        fh.write(_DS_HEADER.pack(DATASET_MAGIC, DATASET_VERSION, flags,
                                 dataset.n, dataset.dim, dataset.label_count))
        fh.write(dataset.ids.astype("<u8").tobytes())
        fh.write(dataset.features.astype("<f4").tobytes())
        if not any_labeled:
            return
        if flags & _FLAG_PARTIAL:
            fh.write(mask.astype(np.uint8).tobytes())
        if flags & _FLAG_MULTILABEL:
            # label l is bit l % 64 of word l // 64, the bit order of codes
            fh.write(pack_bits(dataset.labels).tobytes())
        else:
            vals = np.where(mask, dataset.labels.argmax(axis=1), _UNLABELED_U32)
            fh.write(vals.astype("<u4").tobytes())


def _take(blob: bytes, offset: int, count: int, dtype, what: str):
    nbytes = count * np.dtype(dtype).itemsize
    if offset + nbytes > len(blob):
        raise ParseError(
            f"truncated {what} at byte {offset}: expected {nbytes} bytes, "
            f"only {len(blob) - offset} remain"
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return arr, offset + nbytes


def _check_label_count(C: int):
    if C > _MAX_LABEL_COUNT:
        raise ParseError(f"label count {C} exceeds the supported {_MAX_LABEL_COUNT}")


def load_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _DS_HEADER.size:
        raise ParseError(
            f"truncated header: expected {_DS_HEADER.size} bytes, got {len(blob)}"
        )
    magic, version, flags, n, dim, C = _DS_HEADER.unpack_from(blob, 0)
    if magic != DATASET_MAGIC:
        raise ParseError(f"bad magic {magic!r} at offset 0")
    if version != DATASET_VERSION:
        raise ParseError(f"unsupported dataset version {version}")
    _check_label_count(C)
    off = _DS_HEADER.size
    ids, off = _take(blob, off, n, "<u8", "id block")
    feats, off = _take(blob, off, n * dim, "<f4", "feature block")
    feats = feats.reshape(n, dim)
    labels = np.zeros((n, C), dtype=bool)
    if flags & _FLAG_LABELED:
        if flags & _FLAG_PARTIAL:
            mask, off = _take(blob, off, n, np.uint8, "label mask")
            mask = mask.astype(bool)
        else:
            mask = np.ones(n, dtype=bool)
        if flags & _FLAG_MULTILABEL:
            Wc = (C + 63) // 64
            words, off = _take(blob, off, n * Wc, "<u8", "label bitmasks")
            words = words.reshape(n, Wc)
            # bits from C on can only sit in the last word
            high = (words[:, -1] >> np.uint64(C % 64) if C % 64
                    else np.zeros(n, dtype=np.uint64))
            past = mask & (high != 0)
            if past.any():
                i = int(np.argmax(past))
                h = int(high[i])
                raise LabelSetError(f"row {i}: label {C + (h & -h).bit_length() - 1} "
                                    f"out of range for C={C}")
            labels = np.unpackbits(words.view(np.uint8), axis=1, count=C,
                                   bitorder="little").view(bool) & mask[:, None]
        else:
            vals, off = _take(blob, off, n, "<u4", "label block")
            rows = np.flatnonzero(mask & (vals != _UNLABELED_U32))
            past = vals[rows] >= C
            if past.any():
                i = int(rows[np.argmax(past)])
                raise LabelSetError(f"row {i}: label {int(vals[i])} out of range "
                                    f"for C={C}")
            labels[rows, vals[rows]] = True
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after offset {off}")
    return Dataset(ids.astype(np.int64), feats.copy(), labels)


def load_csv_dataset(path, label_count: int | None = None) -> Dataset:
    """Read a CSV of feature columns plus a final label field.

    The label field is a class index ("3"), a multilabel list ("1|4|7"), or
    empty for an unlabeled row.  Row order assigns ids 0..n-1.
    """
    feats = []
    labels = []
    with open(path, newline="") as fh:
        for row_no, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            *feat_fields, label_field = row
            if not feat_fields:
                raise ParseError(f"row {row_no}: no feature columns")
            try:
                feats.append([float(v) for v in feat_fields])
            except ValueError as exc:
                raise ParseError(f"row {row_no}: bad feature value ({exc})") from None
            label_field = label_field.strip()
            if not label_field:
                labels.append(None)
            else:
                try:
                    labels.append(frozenset(int(v) for v in label_field.split("|")))
                except ValueError:
                    raise ParseError(f"row {row_no}: bad label field {label_field!r}") from None
    if not feats:
        raise ParseError("CSV contains no samples")
    widths = {len(f) for f in feats}
    if len(widths) != 1:
        raise ParseError(f"inconsistent feature counts: {sorted(widths)}")
    if label_count is None:
        label_count = max((max(Y) + 1 for Y in labels if Y), default=0)
    _check_label_count(label_count)
    return Dataset(np.arange(len(feats), dtype=np.int64), np.asarray(feats, dtype=np.float32),
                   labels_from_sets(labels, label_count))


# ---------------------------------------------------------------------------
# Split helpers: train/query/database datasets sharing one set of prototypes.
# ---------------------------------------------------------------------------

def make_cluster_splits(cfg: SyntheticConfig, query_per_class: int,
                        db_per_class: int) -> tuple[Dataset, Dataset, Dataset]:
    """Single-label train/query/db splits drawn around shared cluster means."""
    root = np.random.SeedSequence(cfg.seed)
    means_ss, train_ss, query_ss, db_ss = root.spawn(4)
    means = _draw_prototypes(cfg, np.random.default_rng(means_ss))
    train = sample_clusters(means, cfg.samples_per_class, cfg.cluster_std, train_ss, 0)
    query = sample_clusters(means, query_per_class, cfg.cluster_std, query_ss, train.n)
    db = sample_clusters(means, db_per_class, cfg.cluster_std, db_ss, train.n + query.n)
    return train, query, db


def make_multilabel_splits(cfg: SyntheticConfig, n_query: int,
                           n_db: int) -> tuple[Dataset, Dataset, Dataset]:
    """Multilabel train/query/db splits drawn around shared prototypes."""
    root = np.random.SeedSequence(cfg.seed)
    proto_ss, train_ss, query_ss, db_ss = root.spawn(4)
    protos = _draw_prototypes(cfg, np.random.default_rng(proto_ss))
    n_train = cfg.C * cfg.samples_per_class
    p, std = cfg.multilabel_p, cfg.cluster_std
    train = sample_multilabel(protos, n_train, p, std, train_ss, 0)
    query = sample_multilabel(protos, n_query, p, std, query_ss, n_train)
    db = sample_multilabel(protos, n_db, p, std, db_ss, n_train + n_query)
    return train, query, db


def strip_labels(dataset: Dataset, keep_fraction: float, seed: int = 0) -> Dataset:
    """Keep labels on a random fraction of samples; strip the rest.

    The kept subset is class-stratified for single-label data so every class
    survives with at least one labeled example.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise PreconditionError("keep_fraction must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    y = dataset.single_labels()
    keep = np.zeros(dataset.n, dtype=bool)
    for c in np.unique(y):
        members = np.nonzero(y == c)[0]
        k = max(1, int(round(keep_fraction * len(members))))
        keep[rng.choice(members, size=k, replace=False)] = True
    return replace(dataset, labels=dataset.labels & keep[:, None])
