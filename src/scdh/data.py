"""Synthetic datasets, label stripping, and dataset file I/O.

Features are stored as float32 (the on-disk format).  Labels are an (n, C)
bool matrix: entry (i, l) is set when sample i carries label l, and a row
with no set entry marks an unlabeled sample.  The package works on that
matrix alone: a caller that holds label sets builds the matrix itself.
``open_dataset`` is the one .scds reader: it checks the whole layout, reads
the ids and labels, and reads feature rows on demand, so a command that
works a row block at a time never holds the whole feature matrix.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, LabelSetError, ParseError, PreconditionError
from .model import row_blocks
from .retrieval import pack_bits, unpack_bits

DATASET_MAGIC = b"SCDS"
DATASET_VERSION = 1

_FLAG_LABELED = 1
_FLAG_MULTILABEL = 2
_FLAG_PARTIAL = 4

_UNLABELED_U32 = 0xFFFFFFFF

# The label matrix takes n * C bytes, so a file may not declare more classes.
_MAX_LABEL_COUNT = 1 << 16

# A multilabel draw keeps a label row only when it is neither empty nor full;
# a (C, p) that keeps fewer rows than this share is refused.
_MIN_KEPT_ROW_SHARE = 1e-3


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
        p = self.multilabel_p
        if p is None:
            return
        if not 0.0 < p < 1.0:
            raise PreconditionError("multilabel_p must lie in (0, 1)")
        # one class leaves every label row empty or full, which is redrawn
        if self.C < 2:
            raise PreconditionError(f"a multilabel draw needs at least 2 classes, "
                                    f"got C={self.C}")
        # a row is kept with probability q, so a draw of n rows takes about
        # n / q candidate rows
        q = 1.0 - (1.0 - p) ** self.C - p ** self.C
        if q < _MIN_KEPT_ROW_SHARE:
            raise PreconditionError(
                f"p={p} over C={self.C} labels keeps a label row with probability "
                f"{q:.3g} < {_MIN_KEPT_ROW_SHARE}: more than "
                f"{round(1 / _MIN_KEPT_ROW_SHARE)} draws per row")


def _draw_prototypes(cfg: SyntheticConfig, rng: np.random.Generator) -> np.ndarray:
    return rng.normal(0.0, cfg.center_spread, (cfg.C, cfg.feature_dim))


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
    """An (n, C) bool matrix whose entries are set with probability p.

    A degenerate row (no label, or every label) is redrawn: training losses
    need at least one positive and one negative class per sample.  The first
    round draws all n rows with one ``rng.random((n, C)) < p``; each later
    round redraws the k rows still degenerate with one
    ``rng.random((k, C)) < p``, in ascending row order, and checks only those
    rows again.  So the matrix and the generator's state afterwards are those
    of a loop that rescans all n rows every round, and the work is n plus the
    rows redrawn.
    """
    Y = rng.random((n, C)) < p
    k = np.count_nonzero(Y, axis=1)
    rows = np.flatnonzero((k == 0) | (k == C))
    while rows.size:
        redrawn = rng.random((rows.size, C)) < p
        Y[rows] = redrawn
        k = np.count_nonzero(redrawn, axis=1)
        rows = rows[(k == 0) | (k == C)]
    return Y


def sample_multilabel(protos: np.ndarray, n: int, p: float, std: float,
                      seed, id_start: int = 0) -> Dataset:
    """Draw n multilabel samples around prototype averages, one ``row_blocks``
    block at a time: the noise stream and every value are the whole array's."""
    rng = np.random.default_rng(seed)
    C, dim = protos.shape
    member = _sample_label_matrix(rng, n, C, p)
    feats = np.empty((n, dim), dtype=np.float32)
    for s, e in row_blocks(n):
        f = member[s:e] @ protos
        f /= member[s:e].sum(axis=1, keepdims=True)
        f += std * rng.standard_normal((e - s, dim))
        feats[s:e] = f
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    return Dataset(ids, feats, member)


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
        # each array's own buffer; an int64 id has the bytes of its u64 cast
        fh.write(np.ascontiguousarray(dataset.ids, dtype="<i8"))
        fh.write(np.ascontiguousarray(dataset.features, dtype="<f4"))
        if not any_labeled:
            return
        if flags & _FLAG_PARTIAL:
            fh.write(mask.astype(np.uint8))
        if flags & _FLAG_MULTILABEL:
            # label l is bit l % 64 of word l // 64, the bit order of codes
            fh.write(pack_bits(dataset.labels))
        else:
            vals = np.where(mask, dataset.labels.argmax(axis=1), _UNLABELED_U32)
            fh.write(vals.astype("<u4"))


def _read(fh, count: int, dtype) -> np.ndarray:
    out = np.empty(count, dtype=dtype)
    if fh.readinto(out) != out.nbytes:
        raise ParseError(f"{fh.name}: file shrank while it was read")
    return out


@dataclass(frozen=True)
class DatasetFile:
    """An opened .scds file: ids and labels in memory, features on disk."""

    path: object
    ids: np.ndarray                       # (n,) int64
    labels: np.ndarray                    # (n, C) bool
    dim: int
    features_at: int                      # byte offset of the feature block

    @property
    def n(self) -> int:
        return len(self.ids)

    def rows(self, s: int, e: int) -> np.ndarray:
        """Feature rows s:e as a fresh (e - s, dim) float32 array."""
        if not 0 <= s <= e <= self.n:
            raise PreconditionError(f"rows {s}:{e} outside 0:{self.n}")
        with open(self.path, "rb") as fh:
            fh.seek(self.features_at + 4 * s * self.dim)
            return _read(fh, (e - s) * self.dim, "<f4").reshape(e - s, self.dim)


def open_dataset(path) -> DatasetFile:
    """Check a .scds file's whole layout against its size, then read its ids
    and labels; feature rows stay on disk for ``DatasetFile.rows``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_DS_HEADER.size)
        if len(head) < _DS_HEADER.size:
            raise ParseError(
                f"truncated header: expected {_DS_HEADER.size} bytes, got {len(head)}"
            )
        magic, version, flags, n, dim, C = _DS_HEADER.unpack(head)
        if magic != DATASET_MAGIC:
            raise ParseError(f"bad magic {magic!r} at offset 0")
        if version != DATASET_VERSION:
            raise ParseError(f"unsupported dataset version {version}")
        if C > _MAX_LABEL_COUNT:
            raise ParseError(f"label count {C} exceeds the supported {_MAX_LABEL_COUNT}")
        Wc = (C + 63) // 64
        sections = [("id block", 8 * n), ("feature block", 4 * n * dim)]
        if flags & _FLAG_LABELED:
            if flags & _FLAG_PARTIAL:
                sections.append(("label mask", n))
            sections.append(("label bitmasks", 8 * n * Wc) if flags & _FLAG_MULTILABEL
                            else ("label block", 4 * n))
        end = _DS_HEADER.size
        for what, nbytes in sections:
            if end + nbytes > size:
                raise ParseError(f"truncated {what} at byte {end}: expected {nbytes} "
                                 f"bytes, only {size - end} remain")
            end += nbytes
        ids = _read(fh, n, "<i8")
        features_at = fh.tell()
        fh.seek(4 * n * dim, os.SEEK_CUR)
        labels = np.zeros((n, C), dtype=bool)
        if flags & _FLAG_LABELED:
            mask = (_read(fh, n, np.uint8).astype(bool) if flags & _FLAG_PARTIAL
                    else np.ones(n, dtype=bool))
            if flags & _FLAG_MULTILABEL:
                words = _read(fh, n * Wc, "<u8").reshape(n, Wc)
                # bits from C on can only sit in the last word
                high = (words[:, -1] >> np.uint64(C % 64) if C % 64
                        else np.zeros(n, dtype=np.uint64))
                past = mask & (high != 0)
                if past.any():
                    i = int(np.argmax(past))
                    h = int(high[i])
                    raise ParseError(f"row {i}: label {C + (h & -h).bit_length() - 1} "
                                     f"out of range for C={C}")
                labels = unpack_bits(words, C) & mask[:, None]
            else:
                vals = _read(fh, n, "<u4")
                rows = np.flatnonzero(mask & (vals != _UNLABELED_U32))
                past = vals[rows] >= C
                if past.any():
                    i = int(rows[np.argmax(past)])
                    raise ParseError(f"row {i}: label {int(vals[i])} out of range "
                                     f"for C={C}")
                labels[rows, vals[rows]] = True
    if end != size:
        raise ParseError(f"{size - end} trailing bytes after offset {end}")
    return DatasetFile(path, ids, labels, dim, features_at)


def load_dataset(path) -> Dataset:
    f = open_dataset(path)
    return Dataset(f.ids, f.rows(0, f.n), f.labels)


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
