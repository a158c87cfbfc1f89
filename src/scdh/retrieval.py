"""Bit-packed Hamming retrieval and ranking metrics.

Codes are packed LSB-first into little-endian 64-bit words (bit i of a code
lives in word i // 64 at bit position i % 64), with unused high bits of the
last word forced to zero so equal codes are byte-identical.  Search orders
by (distance, id).  It works on the index's distinct codes: trained codes
form a few compact clusters, so many rows share one code, and many queries
carry a database code.  A query whose code has a bucket of at least k rows
is answered by one hash-table lookup.  Any other query XOR-popcounts each
distinct code once, counts the rows at each distance to find the k-th
smallest, and sorts at most k ids from each code within it.  An index whose
codes are mostly distinct is scanned row by row instead.  The metrics rank
the database once per distinct (query code, label row) and all reduce that
one ranking.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, ParseError, PreconditionError

WORD_BITS = 64

CODE_MAGIC = b"SCDH"
CODE_VERSION = 1


def _n_words(nbits: int) -> int:
    return (nbits + WORD_BITS - 1) // WORD_BITS


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean (..., r) array into (..., ceil(r/64)) uint64 words."""
    bits = np.asarray(bits, dtype=bool)
    r = bits.shape[-1]
    W = _n_words(r)
    packed = np.packbits(bits, axis=-1, bitorder="little")
    pad = W * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(bits.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    return packed.view("<u8").reshape(bits.shape[:-1] + (W,))


def unpack_bits(words: np.ndarray, nbits: int) -> np.ndarray:
    """Inverse of pack_bits; returns a boolean (..., nbits) array."""
    words = np.asarray(words, dtype="<u8")
    as_bytes = words.view(np.uint8).reshape(words.shape[:-1] + (words.shape[-1] * 8,))
    bits = np.unpackbits(as_bytes, axis=-1, bitorder="little")
    return bits[..., :nbits].astype(bool)


@dataclass(frozen=True)
class HashCode:
    """An r-bit binary code in canonical packed form."""

    words: np.ndarray  # (W,) uint64
    nbits: int

    def __post_init__(self):
        words = np.ascontiguousarray(self.words, dtype="<u8")
        if words.shape != (_n_words(self.nbits),):
            raise DimensionMismatch(
                f"expected {_n_words(self.nbits)} words for {self.nbits} bits"
            )
        tail = self.nbits % WORD_BITS
        if tail and int(words[-1]) >> tail:
            raise PreconditionError("unused high bits of the last word must be zero")
        object.__setattr__(self, "words", words)

    def bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.nbits)


def binarize(f) -> HashCode:
    """Sign-threshold an embedding: bit i set iff f_i >= 0 (sign(0) := +1)."""
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1:
        raise DimensionMismatch("binarize expects a single embedding vector")
    return HashCode(pack_bits(f >= 0.0), f.shape[0])


def binarize_batch(F) -> np.ndarray:
    """Pack a (n, r) embedding matrix into (n, W) code words."""
    F = np.asarray(F, dtype=np.float64)
    return pack_bits(F >= 0.0)


def hamming(a: HashCode, b: HashCode) -> int:
    """Number of differing bit positions between two equal-length codes."""
    if a.nbits != b.nbits:
        raise DimensionMismatch(f"code lengths differ: {a.nbits} vs {b.nbits}")
    return int(np.bitwise_count(a.words ^ b.words).sum())


class Buckets(NamedTuple):
    """The distinct codes of an index, each with its member ids (CSR form).

    Bucket b holds the code ``words[b]`` and the ids
    ``ids[starts[b]:starts[b] + sizes[b]]``, ascending.  Codes ascend
    lexicographically by word.  (A named tuple, because a frozen dataclass
    costs several times as much to define at import.)
    """

    words: np.ndarray    # (m, W) distinct code words
    nbits: int
    sizes: np.ndarray    # (m,) rows per bucket
    starts: np.ndarray   # (m,) offset of each bucket in ids
    ids: np.ndarray      # (n,) member ids grouped by bucket

    @classmethod
    def of(cls, index: "CodeIndex") -> "Buckets":
        """Group the rows with one lexsort by (code, id); a bucket starts
        where consecutive sorted codes differ."""
        order = np.lexsort((index.ids, *index.words.T[::-1]))
        words = index.words[order]
        new = np.ones(index.n, dtype=bool)
        new[1:] = (words[1:] != words[:-1]).any(axis=1)
        starts = np.flatnonzero(new)
        return cls(words[starts], index.nbits, np.diff(starts, append=index.n), starts,
                   index.ids[order])

    def summary(self) -> dict:
        """Distinct codes, the largest bucket, and the bit positions that
        hold one value in every code."""
        varying = np.bitwise_or.reduce(self.words) ^ np.bitwise_and.reduce(self.words)
        return {"distinct": len(self.sizes),
                "largest_bucket": int(self.sizes.max(initial=0)),
                "constant_bits": np.flatnonzero(~unpack_bits(varying, self.nbits)).tolist()}


def _read_only(a, dtype, copy: bool) -> np.ndarray:
    """``a`` as a read-only C-ordered array; a copy when ``copy`` is set or
    its dtype or layout differ.  The bucket view cached on an index cannot
    go stale, neither by a write into the index's arrays nor, where the
    arrays are copied, by the caller writing into the ones it passed."""
    a = np.array(a, dtype=dtype, order="C") if copy else np.ascontiguousarray(a, dtype)
    a.flags.writeable = False
    return a


# search scans the rows instead of the buckets when more than this share of
# the codes are distinct: the bucket search's cost grows with the distinct
# count and passes the row scan's between 0.25 and 0.35 at 2,000-4,000 rows
# and near 0.45 at 100,000
BUCKET_SEARCH_MAX_DISTINCT = 0.3


@dataclass(frozen=True)
class CodeIndex:
    """Immutable parallel arrays of codes, ids, and optional label rows.

    The fields cannot be reassigned, and the arrays are read-only copies of
    the ones given, so a caller's later write cannot reach them.

    ``search`` works on the index's bucket view (see ``Buckets``) and a
    table from each distinct code to its bucket when at most
    ``BUCKET_SEARCH_MAX_DISTINCT`` of its codes are distinct.  Both are
    built on the first search and cached; they are not part of the code file.
    """

    words: np.ndarray        # (n, W) uint64
    ids: np.ndarray          # (n,) int64
    nbits: int
    labels: np.ndarray | None = None   # (n, C) bool, as in data.Dataset

    def __post_init__(self):
        self._freeze(copy=True)

    @classmethod
    def _adopt(cls, words, ids, nbits: int, labels=None) -> "CodeIndex":
        """An index over arrays no caller can still write into (fresh
        gathers, or another index's arrays): they are made read-only, not
        copied."""
        index = cls.__new__(cls)
        for name, value in (("words", words), ("ids", ids), ("nbits", nbits),
                            ("labels", labels)):
            object.__setattr__(index, name, value)
        index._freeze(copy=False)
        return index

    def _freeze(self, copy: bool):
        words = _read_only(self.words, "<u8", copy)
        ids = _read_only(self.ids, np.int64, copy)
        if words.ndim != 2 or words.shape[1] != _n_words(self.nbits):
            raise DimensionMismatch("words shape does not match nbits")
        if ids.shape != (words.shape[0],):
            raise DimensionMismatch("ids and codes must be parallel arrays")
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "ids", ids)
        if self.labels is not None:
            labels = _read_only(self.labels, bool, copy)
            if labels.ndim != 2 or len(labels) != len(ids):
                raise DimensionMismatch("labels must be an (n, C) matrix parallel "
                                        "to the codes")
            object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.words.shape[0]

    @classmethod
    def from_embeddings(cls, F, ids, labels=None) -> "CodeIndex":
        F = np.asarray(F, dtype=np.float64)
        return cls(binarize_batch(F), np.asarray(ids, dtype=np.int64), F.shape[1], labels)

    @cached_property
    def _search_buckets(self) -> tuple[Buckets, dict] | None:
        """The bucket view search uses and its exact-code table, which maps
        the bytes of each distinct code to its bucket's (start, size); None
        where search scans the rows."""
        view = Buckets.of(self)
        if len(view.sizes) > BUCKET_SEARCH_MAX_DISTINCT * self.n:
            return None
        return view, dict(zip(map(bytes, view.words),
                              zip(view.starts.tolist(), view.sizes.tolist())))

    def label_masks(self, C: int) -> np.ndarray:
        """Label rows as (n, ceil(C/64)) uint64 bitmasks for fast overlap tests."""
        if self.labels is None:
            raise PreconditionError("index carries no labels")
        if self.labels.shape[1] != C:
            raise DimensionMismatch(f"index has {self.labels.shape[1]} labels, not {C}")
        return pack_bits(self.labels)


def _distances(words: np.ndarray, query_words: np.ndarray, nbits: int) -> np.ndarray:
    if words.shape[1] == 1:     # r <= 64: no sum over words, and already uint8
        return np.bitwise_count(words.ravel() ^ query_words[0])
    return np.bitwise_count(words ^ query_words[None, :]).sum(
        axis=1, dtype=np.min_scalar_type(nbits))


def distances_to_index(query_words: np.ndarray, index: CodeIndex) -> np.ndarray:
    """Hamming distances from one packed query to every index entry.

    The dtype is the smallest unsigned integer type that holds r, so a
    stable sort of the distances is a radix sort.
    """
    return _distances(index.words, query_words, index.nbits)


def search(query: HashCode, index: CodeIndex, k: int) -> list[tuple[int, int]]:
    """k nearest codes by Hamming distance, ties broken by ascending id.

    The first call on an index builds its bucket view (one lexsort of the
    rows) and code table; later calls reuse them.
    """
    if index.n == 0:
        raise PreconditionError("cannot search an empty index")
    if query.nbits != index.nbits:
        raise DimensionMismatch(f"query has {query.nbits} bits, index {index.nbits}")
    if k > index.n:
        raise PreconditionError(f"k={k} exceeds index size {index.n}")
    if k < 0:
        raise PreconditionError(f"k={k} is negative")
    if k == 0:
        return []
    buckets = index._search_buckets
    if buckets is None:
        return _scan_search(query, index, k)
    view, table = buckets
    # a query whose code has a bucket of k or more rows is answered by the
    # bucket's first k ids: it alone lies at distance 0, its ids ascending
    start, size = table.get(query.words.tobytes(), (0, 0))
    if size >= k:
        return [(i, 0) for i in view.ids[start:start + k].tolist()]
    # the answer lies within the smallest distance t that at least k rows
    # reach; a bucket within t gives at most its k smallest ids
    dists = _distances(view.words, query.words, index.nbits)
    t = int(np.searchsorted(np.cumsum(np.bincount(dists, weights=view.sizes)), k))
    near = np.flatnonzero(dists <= t)
    take = np.minimum(view.sizes[near], k)
    ends = np.cumsum(take)
    rows = np.arange(ends[-1]) + np.repeat(view.starts[near] - (ends - take), take)
    ids, dists = view.ids[rows], np.repeat(dists[near], take)
    order = np.lexsort((ids, dists))[:k]
    return list(zip(ids[order].tolist(), dists[order].tolist()))


def _scan_search(query: HashCode, index: CodeIndex, k: int) -> list[tuple[int, int]]:
    """search over every row, for indices whose codes are mostly distinct."""
    dists = distances_to_index(query.words, index)
    # the answer lies within the smallest distance t that at least k codes
    # reach, so only those codes need sorting
    t = int(np.searchsorted(np.cumsum(np.bincount(dists)), k))
    near = np.flatnonzero(dists <= t)
    order = near[np.lexsort((index.ids[near], dists[near]))][:k]
    return list(zip(index.ids[order].tolist(), dists[order].tolist()))


def _check_ks(ks: Sequence[int], n: int) -> list[int]:
    ks = [int(k) for k in ks]
    if ks != sorted(ks):
        raise PreconditionError("ks must be ascending")
    if ks and ks[-1] > n:
        raise PreconditionError("k exceeds index size")
    if ks and ks[0] < 1:
        raise PreconditionError("ks must be positive")
    return ks


@dataclass
class _Ranking:
    """Per-query numbers from one ranking of the database by (distance, id).

    Every metric is a reduction of these arrays.  AP divides by the number of
    relevant items, AP at k by min(k, #relevant); both are 0 for a query with
    no relevant item.
    """

    relevant: np.ndarray         # (nq,) relevant database items
    ap: np.ndarray               # (nq,) AP over the whole ranking
    ap_at_k: np.ndarray | None   # (nq,) AP over the top k, when k is given
    ball: np.ndarray             # (nq,) items within the radius
    ball_relevant: np.ndarray    # (nq,) relevant items within the radius
    ks: list[int]
    topk_sums: np.ndarray        # (len(ks),) top-k precision summed over queries

    def mean_ap(self, at_k: bool = False) -> float:
        """MAP over the queries that have a relevant database item."""
        if not self.relevant.any():
            raise PreconditionError("no query has a relevant database item")
        return float(np.mean((self.ap_at_k if at_k else self.ap)[self.relevant > 0]))

    def ap_quantiles(self) -> tuple[float, float, float]:
        aps = self.ap[self.relevant > 0]
        return tuple(float(v) for v in np.quantile(aps, (0.1, 0.5, 0.9)))

    def precision_at_radius(self, empty_ball: str) -> float:
        ball, hits = self.ball, self.ball_relevant
        if empty_ball == "zero":
            precisions = np.where(ball > 0, hits / np.maximum(ball, 1), 0.0)
        else:
            precisions = hits[ball > 0] / ball[ball > 0]
        if not len(precisions):
            raise PreconditionError("all query balls are empty and empty_ball='skip'")
        return float(np.mean(precisions))

    def topk_curve(self) -> list[tuple[int, float]]:
        return [(k, float(s / len(self.relevant))) for k, s in zip(self.ks, self.topk_sums)]


def _rank(queries: CodeIndex, index: CodeIndex, k: int | None = None,
          radius: int = 2, ks: Sequence[int] = ()) -> _Ranking:
    """Rank the database once per distinct query and reduce each ranking to
    numbers.

    Queries with one code and one label row rank alike, so each distinct
    (code, label row) pair is ranked once and its numbers are handed to
    every query that has it.  A query or database row with no label shares
    no label with anything.
    """
    if queries.labels is None or index.labels is None:
        raise PreconditionError("metrics require labels on both sides")
    C = queries.labels.shape[1]
    qm = queries.label_masks(C)
    by_id = np.argsort(index.ids, kind="stable")
    dm = index.label_masks(C)[by_id]
    db = CodeIndex._adopt(index.words[by_id], index.ids[by_id], index.nbits)
    _, first, inverse = np.unique(np.concatenate([queries.words, qm], axis=1), axis=0,
                                  return_index=True, return_inverse=True)
    inverse = inverse.ravel()       # numpy 2 may return it as a column
    ng = len(first)
    relevant, ball, ball_relevant = (np.zeros(ng, np.int64) for _ in range(3))
    ap, ap_at_k, topk = np.zeros(ng), np.zeros(ng), np.zeros((ng, len(ks)))
    ks_at = np.asarray(ks, dtype=np.int64)
    for g, qi in enumerate(first):
        dists = distances_to_index(queries.words[qi], db)
        rel = (dm & qm[qi][None, :]).any(axis=1)
        inside = dists <= radius
        ball[g] = np.count_nonzero(inside)
        ball_relevant[g] = np.count_nonzero(rel & inside)
        # with the database in id order, a stable sort ranks by (distance, id)
        order = np.argsort(dists, kind="stable")
        hits = np.flatnonzero(rel[order]) + 1       # ranks of the relevant items
        relevant[g] = len(hits)
        topk[g] = np.searchsorted(hits, ks_at, side="right") / ks_at
        if not len(hits):
            continue
        precisions = np.arange(1, len(hits) + 1) / hits
        ap[g] = precisions.sum() / len(hits)
        if k:
            top = np.searchsorted(hits, k, side="right")
            ap_at_k[g] = precisions[:top].sum() / min(k, len(hits))
    # the top-k sums add the queries' precisions one at a time in query
    # order, from zero: an accumulate runs in that order, a sum pairwise
    topk_sums = np.cumsum(np.vstack([np.zeros(len(ks)), topk[inverse]]), axis=0)[-1]
    return _Ranking(relevant[inverse], ap[inverse], ap_at_k[inverse] if k else None,
                    ball[inverse], ball_relevant[inverse], list(ks), topk_sums)


def mean_average_precision(queries: CodeIndex, index: CodeIndex,
                           k: int | None = None) -> float:
    """MAP over queries; relevance is sharing at least one label.

    Untruncated AP divides by the number of relevant database items; when
    truncated at k it divides by min(k, #relevant).  Queries with no relevant
    item anywhere in the database are excluded from the mean.
    """
    if k is not None and k < 1:
        raise PreconditionError(f"k={k} must be positive")
    return _rank(queries, index, k=k).mean_ap(at_k=k is not None)


def precision_at_radius(queries: CodeIndex, index: CodeIndex, radius: int = 2,
                        empty_ball: str = "zero") -> float:
    """Mean fraction of relevant items among those within the Hamming ball.

    Queries whose ball is empty contribute 0 by default (``empty_ball="zero"``,
    penalising codes that isolate queries) or can be skipped entirely
    (``empty_ball="skip"``).
    """
    if empty_ball not in ("zero", "skip"):
        raise ValueError("empty_ball must be 'zero' or 'skip'")
    return _rank(queries, index, radius=radius).precision_at_radius(empty_ball)


def topk_precision_curve(queries: CodeIndex, index: CodeIndex,
                         ks: Sequence[int]) -> list[tuple[int, float]]:
    """Mean precision among the top-k ranked items, for each k (ascending)."""
    return _rank(queries, index, ks=_check_ks(ks, index.n)).topk_curve()


@dataclass
class RetrievalMetrics:
    """Bundle of the standard evaluation numbers.

    ``empty_ball_queries`` counts the queries with no database item within
    the radius (they enter ``precision_at_radius2`` as 0); ``ap_quantiles``
    holds the 10th, 50th and 90th percentile of the untruncated per-query AP.
    """

    map: float
    map_at_k: float | None
    k: int | None
    precision_at_radius2: float
    topk_curve: list[tuple[int, float]]
    empty_ball_queries: int
    ap_quantiles: tuple[float, float, float]

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "map_at_k": self.map_at_k,
            "k": self.k,
            "precision_at_radius2": self.precision_at_radius2,
            "topk_curve": [[k, p] for k, p in self.topk_curve],
            "empty_ball_queries": self.empty_ball_queries,
            "ap_quantiles": dict(zip(("p10", "p50", "p90"), self.ap_quantiles)),
        }


def evaluate(queries: CodeIndex, index: CodeIndex, k: int | None = None,
             radius: int = 2, ks: Sequence[int] = ()) -> RetrievalMetrics:
    """Compute the full metric bundle from one ranking per query."""
    ranking = _rank(queries, index, k=k, radius=radius, ks=_check_ks(ks, index.n))
    return RetrievalMetrics(
        map=ranking.mean_ap(),
        map_at_k=ranking.mean_ap(at_k=True) if k else None,
        k=k,
        precision_at_radius2=ranking.precision_at_radius("zero"),
        topk_curve=ranking.topk_curve(),
        empty_ball_queries=int(np.count_nonzero(ranking.ball == 0)),
        ap_quantiles=ranking.ap_quantiles(),
    )


# ---------------------------------------------------------------------------
# Code file format: magic "SCDH", version u16, r u32, n u64,
# then n records of (id u64, ceil(r/64) little-endian u64 words).
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sHIQ")


def save_codes(index: CodeIndex, path):
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(CODE_MAGIC, CODE_VERSION, index.nbits, index.n))
        W = index.words.shape[1]
        rec = np.empty((index.n, W + 1), dtype="<u8")
        rec[:, 0] = index.ids.astype(np.uint64)
        rec[:, 1:] = index.words
        fh.write(rec.tobytes())


def load_codes(path) -> CodeIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise ParseError(
            f"truncated header: expected {_HEADER.size} bytes, got {len(blob)}"
        )
    magic, version, nbits, n = _HEADER.unpack_from(blob, 0)
    if magic != CODE_MAGIC:
        raise ParseError(f"bad magic {magic!r} at offset 0")
    if version != CODE_VERSION:
        raise ParseError(f"unsupported code file version {version}")
    W = _n_words(nbits)
    expected = _HEADER.size + n * (W + 1) * 8
    if len(blob) != expected:
        raise ParseError(
            f"expected {expected} bytes for n={n}, r={nbits}, got {len(blob)}"
        )
    rec = np.frombuffer(blob, dtype="<u8", offset=_HEADER.size).reshape(n, W + 1)
    tail = nbits % WORD_BITS
    if tail and np.any(rec[:, -1] >> np.uint64(tail)):
        raise ParseError("non-canonical padding bits in code records")
    # the strided record columns are gathered into contiguous arrays
    return CodeIndex._adopt(rec[:, 1:], rec[:, 0], nbits)
