"""Synthetic datasets, label balancing, and dataset file I/O.

Features are stored as float32 (the on-disk format); label sets are
frozensets of class indices, with ``None`` marking unlabeled samples.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, LabelSetError, ParseError, PreconditionError

DATASET_MAGIC = b"SCDS"
DATASET_VERSION = 1

_FLAG_LABELED = 1
_FLAG_MULTILABEL = 2
_FLAG_PARTIAL = 4

_UNLABELED_U32 = 0xFFFFFFFF


@dataclass
class Dataset:
    """Parallel arrays of sample ids, features, and optional label sets."""

    ids: np.ndarray                       # (n,) int64
    features: np.ndarray                  # (n, dim) float32
    labels: tuple                         # length n; frozenset or None
    label_count: int                      # C

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        self.features = np.asarray(self.features, dtype=np.float32)
        if self.features.ndim != 2:
            raise DimensionMismatch("features must be an (n, dim) matrix")
        if self.ids.shape != (self.features.shape[0],):
            raise DimensionMismatch("ids and features must be parallel")
        if len(self.labels) != self.features.shape[0]:
            raise DimensionMismatch("labels and features must be parallel")
        for Y in dict.fromkeys(self.labels):      # each distinct set once
            if Y and (min(Y) < 0 or max(Y) >= self.label_count):
                raise LabelSetError(f"label set {set(Y)} out of range for C={self.label_count}")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def labeled_mask(self) -> np.ndarray:
        return _label_sizes(self.labels) > 0

    def is_multilabel(self) -> bool:
        return bool((_label_sizes(self.labels) > 1).any())

    def single_labels(self) -> np.ndarray:
        out = np.empty(self.n, dtype=np.int64)
        for i, Y in enumerate(self.labels):
            if Y is None or len(Y) != 1:
                raise LabelSetError(f"sample {int(self.ids[i])} is not single-label")
            out[i] = next(iter(Y))
        return out

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx)
        return Dataset(self.ids[idx], self.features[idx],
                       tuple(self.labels[i] for i in idx), self.label_count)


def _distinct_labels(labels) -> tuple[list, np.ndarray]:
    """The distinct label sets in first-seen order, and each row's index into them."""
    first = dict.fromkeys(labels)
    for i, Y in enumerate(first):
        first[Y] = i
    return list(first), np.fromiter(map(first.__getitem__, labels), dtype=np.intp,
                                    count=len(labels))


def _label_sizes(labels) -> np.ndarray:
    """Per row: the size of its label set, 0 for ``None``."""
    distinct, inverse = _distinct_labels(labels)
    return np.array([len(Y) if Y else 0 for Y in distinct], dtype=np.int64)[inverse]


def label_bitmasks(labels, C: int) -> np.ndarray:
    """Label sets as (n, ceil(C/64)) little-endian uint64 words.

    Label l is bit l % 64 of word l // 64; ``None`` and empty sets give zero
    rows.  A label past the last word raises IndexError.
    """
    distinct, inverse = _distinct_labels(labels)
    bits = np.zeros((len(distinct), (C + 63) // 64 * 64), dtype=bool)
    for i, Y in enumerate(distinct):
        bits[i, list(Y or ())] = True
    return np.packbits(bits, axis=1, bitorder="little").view("<u8")[inverse]


def _decode_labels(keys: np.ndarray, labeled: np.ndarray, to_set) -> tuple:
    """Label sets of the rows of ``keys``, ``None`` where not ``labeled``.

    ``to_set`` turns the array of distinct keys into their label sets, so
    it runs once per distinct row, and equal rows share one frozenset.
    """
    if not len(keys):
        return ()      # a row-wise unique of zero rows still allocates one full row
    distinct, inverse = np.unique(keys, axis=0, return_inverse=True)
    table = np.empty(len(distinct) + 1, dtype=object)   # the last entry is None
    table[:-1] = to_set(distinct)
    return tuple(table[np.where(labeled, inverse.reshape(-1), len(distinct))].tolist())


def _bitmask_sets(words: np.ndarray) -> list:
    words = np.ascontiguousarray(words, dtype="<u8")
    if words.ndim == 1:
        words = words[:, None]
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    return [frozenset(np.flatnonzero(row).tolist()) for row in bits]


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
    labels = tuple(frozenset((c,)) for c in range(C) for _ in range(per_class))
    ids = np.arange(id_start, id_start + C * per_class, dtype=np.int64)
    return Dataset(ids, feats.astype(np.float32), labels, C)


def _sample_label_sets(rng: np.random.Generator, n: int, C: int, p: float) -> np.ndarray:
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
    member = _sample_label_sets(rng, n, C, p)
    feats = member @ protos / member.sum(axis=1, keepdims=True)
    feats = feats + std * rng.standard_normal((n, dim))
    labels = tuple(frozenset(np.nonzero(row)[0].tolist()) for row in member)
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    return Dataset(ids, feats.astype(np.float32), labels, C)


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
    new_labels = dataset.labels + tuple(dataset.labels[i] for i in extra_idx)
    return Dataset(new_ids, new_feats, new_labels, dataset.label_count)


# ---------------------------------------------------------------------------
# Binary dataset format: magic "SCDS", version u16, flags u16, n u64,
# dim u32, C u32; ids u64[n]; features f32[n*dim]; then labels depending on
# flags (partial mask u8[n]; multilabel bitmask words u64[n*ceil(C/64)];
# single-label u32[n] with 0xFFFFFFFF for unlabeled).
# ---------------------------------------------------------------------------

_DS_HEADER = struct.Struct("<4sHHQII")


def save_dataset(dataset: Dataset, path):
    sizes = _label_sizes(dataset.labels)
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
            fh.write(label_bitmasks(dataset.labels, dataset.label_count).tobytes())
        else:
            distinct, inverse = _distinct_labels(dataset.labels)
            vals = np.array([next(iter(Y)) if Y else _UNLABELED_U32 for Y in distinct],
                            dtype="<u4")
            fh.write(vals[inverse].tobytes())


def _take(blob: bytes, offset: int, count: int, dtype, what: str):
    nbytes = count * np.dtype(dtype).itemsize
    if offset + nbytes > len(blob):
        raise ParseError(
            f"truncated {what} at byte {offset}: expected {nbytes} bytes, "
            f"only {len(blob) - offset} remain"
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return arr, offset + nbytes


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
    off = _DS_HEADER.size
    ids, off = _take(blob, off, n, "<u8", "id block")
    feats, off = _take(blob, off, n * dim, "<f4", "feature block")
    feats = feats.reshape(n, dim)
    labels: tuple
    if not flags & _FLAG_LABELED:
        labels = tuple(None for _ in range(n))
    else:
        if flags & _FLAG_PARTIAL:
            mask, off = _take(blob, off, n, np.uint8, "label mask")
            mask = mask.astype(bool)
        else:
            mask = np.ones(n, dtype=bool)
        if flags & _FLAG_MULTILABEL:
            Wc = (C + 63) // 64
            words, off = _take(blob, off, n * Wc, "<u8", "label bitmasks")
            # rows of one word are deduplicated as integers, which sorts far
            # faster than the row-wise unique of several words
            keys = words if Wc == 1 else words.reshape(n, Wc)
            labels = _decode_labels(keys, mask, _bitmask_sets)
        else:
            vals, off = _take(blob, off, n, "<u4", "label block")
            labels = _decode_labels(vals, mask & (vals != _UNLABELED_U32),
                                    lambda distinct: [frozenset((int(v),)) for v in distinct])
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after offset {off}")
    return Dataset(ids.astype(np.int64), feats.copy(), labels, C)


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
    return Dataset(np.arange(len(feats), dtype=np.int64),
                   np.asarray(feats, dtype=np.float32), tuple(labels), label_count)


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
    labels = tuple(Y if keep[i] else None for i, Y in enumerate(dataset.labels))
    return replace(dataset, labels=labels)
