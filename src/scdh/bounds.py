"""Numerical certification of the unary-bound theory.

The O(n^3) triplet ranking losses are enumerated exhaustively on small sets
and compared against their O(n) unary upper bounds: the single-label bound
with multiplier (n/C)^2 (C-1), the tightened lambda form, and the multilabel
expectation bound checked by Monte Carlo.  A toy two-cluster experiment maps
the estimated lambda over a (sigma, d) grid.

Every path works an array at a time and returns the same bits as a plain
per-row (or per-trial) loop, which the tests keep as the reference:

- one kernel computes both sides of the unary bound for a (b, n, r) stack
  of code sets that share one label vector; ``unary_upper_bound`` and
  ``estimate_lambda`` are its b = 1 case, and ``unary_upper_bounds``
  certifies a stack (verify-bounds groups its draws by shape into such
  stacks).  The exhaustive triplet sums reduce one (b, rows, k-1, n-k)
  block per label multiplicity k (a single block for a balanced set) and
  add the row sums in row order with ``cumsum``, as a running total would;
- the Monte Carlo check draws the label matrices of a block of trials from
  one stream of C-wide candidate rows and reduces the block with batched
  products, so memory is O(block n^2) for any trial count;
- a sampled toy cell keeps its three (T,) index draws whole and does
  everything after them a chunk of triplets at a time, looking the
  distances up in the (n, n) distance table when n^2 <= T and otherwise
  computing them per pair; it never gathers (T, r) code rows.

``bound_summary`` condenses a verify-bounds run: the minimum relative slack
of each check family and a fixed-bin histogram of the lambda estimates.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, LabelSetError, PreconditionError
from .losses import TripletLossKind, margin_loss

# One-sided 99% normal quantile, used for the Monte Carlo bound margin.
Z_99 = 2.3263478740408408

# Relative tolerance absorbing float summation order in bound comparisons.
BOUND_RTOL = 1e-9

DEFAULT_TRIPLET_CAP = 64

# Float64 elements in the largest working array of one unary stack, about
# b n^2 max(n, r); ``unary_upper_bounds`` certifies longer stacks in pieces.
UNARY_STACK_FLOATS = 1 << 20

# Sampled toy triplets worked at a time after the whole-array draws.
TOY_CHUNK = 1 << 15


@dataclass(frozen=True)
class LabeledCodeSet:
    """Codes (real or +/-1 valued) with their labels.

    ``labels`` is the (n, C) bool membership matrix (``data.labels_from_sets``
    builds one from label sets), kept as a read-only copy;
    ``from_single_labels`` takes an (n,) label vector.
    """

    codes: np.ndarray                       # (n, r) float64, C-contiguous
    labels: np.ndarray                      # (n, C) bool
    label_count: int                        # C
    balanced: bool = False
    # the one label of each row; None if any row has several
    _single: np.ndarray | None = field(init=False, default=None, repr=False,
                                       compare=False)
    # whether every label has one multiplicity; False for multilabel rows
    _even: bool = field(init=False, default=False, repr=False, compare=False)

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes, dtype=np.float64)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 2:
            raise DimensionMismatch("codes must be an (n, r) matrix")
        n, C = codes.shape[0], self.label_count
        member = np.array(self.labels, order="C")
        if member.dtype != bool:
            raise LabelSetError(f"labels must be an (n, C) bool matrix, not {member.dtype}; "
                                "see from_single_labels and data.labels_from_sets")
        if member.shape != (n, C):
            raise DimensionMismatch(f"labels must be an ({n}, {C}) bool matrix, "
                                    f"got {member.shape}")
        sizes = member.sum(axis=1)
        if not sizes.all():
            raise LabelSetError(f"row {int(np.argmin(sizes))} has no label in 0..{C - 1}")
        member.flags.writeable = False
        object.__setattr__(self, "labels", member)
        if (sizes == 1).all():
            single = member.argmax(axis=1)
            single.flags.writeable = False
            object.__setattr__(self, "_single", single)
            counts = np.bincount(single, minlength=C)
            object.__setattr__(self, "_even", bool((counts == counts[:1]).all()))
        if self.balanced and not self._even:
            raise PreconditionError("balanced flag set but label multiplicities differ")

    def is_balanced(self) -> bool:
        return self._even

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def single_labels(self) -> np.ndarray:
        """The (n,) label vector (read-only); raises for multilabel rows."""
        if self._single is None:
            raise LabelSetError("set contains multilabel rows")
        return self._single

    @classmethod
    def from_single_labels(cls, codes, labels, label_count: int | None = None,
                           balanced: bool = False) -> "LabeledCodeSet":
        labels = np.asarray(labels, dtype=np.int64)
        C = int(label_count if label_count is not None else labels.max() + 1)
        if labels.ndim != 1:
            raise DimensionMismatch("one label per code row required")
        # a label outside 0..C-1 leaves its row empty, which the set rejects
        return cls(codes, labels[:, None] == np.arange(C), C, balanced)


@dataclass
class BoundReport:
    """Outcome of one bound check: exhaustive loss vs. unary bound."""

    brute_force_loss: float
    bound_value: float
    multiplier: float
    lambda_estimate: float
    holds: bool
    kind: str = "margin"
    n: int = 0
    label_count: int = 0
    degenerate: bool = False        # lambda denominator was zero
    confidence_margin: float = 0.0  # nonzero only for Monte Carlo checks

    def to_dict(self) -> dict:
        return {
            "brute_force_loss": self.brute_force_loss,
            "bound_value": self.bound_value,
            "multiplier": self.multiplier,
            "lambda_estimate": self.lambda_estimate,
            "holds": self.holds,
            "kind": self.kind,
            "n": self.n,
            "label_count": self.label_count,
            "degenerate": self.degenerate,
            "confidence_margin": self.confidence_margin,
        }


class LambdaEstimate(float):
    """Float subclass carrying a degeneracy flag (zero denominator)."""

    degenerate: bool

    def __new__(cls, value: float, degenerate: bool = False):
        obj = super().__new__(cls, value)
        obj.degenerate = degenerate
        return obj


def _norm(x: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(x, axis=axis)`` of a real array: the same arithmetic
    (and bits) without the wrapper's dispatch."""
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _pairwise_distances(codes: np.ndarray, block: int = 64) -> np.ndarray:
    """(..., n, n) Euclidean distances between the rows of (..., n, r) codes.

    Row block a is differenced against the rows from a on, and the part
    below the diagonal is mirrored: |h_i - h_j| and |h_j - h_i| are
    bit-equal.  Each entry reduces one difference row over r, so it is
    bit-equal to the full (n, n, r) tensor form and to ``_pair_distances``.
    """
    n = codes.shape[-2]
    if n <= block:
        return _norm(codes[..., :, None, :] - codes[..., None, :, :], -1)
    D = np.empty(codes.shape[:-1] + (n,))
    for a in range(0, n, block):
        e = a + block
        D[..., a:e, a:] = _norm(codes[..., a:e, None, :] - codes[..., None, a:, :], -1)
        D[..., e:, a:e] = np.swapaxes(D[..., a:e, e:], -1, -2)
    return D


def _pair_distances(codes: np.ndarray, a: np.ndarray, b: np.ndarray,
                    chunk: int = TOY_CHUNK) -> np.ndarray:
    """``|codes[a] - codes[b]|`` per index pair, ``chunk`` pairs at a time;
    bit-equal to the entries of ``_pairwise_distances``."""
    out = np.empty(len(a))
    for s in range(0, len(a), chunk):
        out[s:s + chunk] = _norm(codes[a[s:s + chunk]] - codes[b[s:s + chunk]], 1)
    return out


def _code_center_distances(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., n, C) distances from (..., n, r) codes to (..., r, C) centers."""
    return _norm(codes[..., :, :, None] - centers[..., None, :, :], -2)


def _check_cap(n: int, max_n: int):
    if n > max_n:
        raise PreconditionError(
            f"n={n} exceeds the exhaustive-enumeration cap {max_n}; "
            "triplet count grows as n^3"
        )


class _RowBlock(NamedTuple):
    """The rows (g,) whose label has multiplicity k; each row's similar
    columns, the other rows with its label, as a (g, k-1) matrix and its
    dissimilar columns as a (g, n-k) matrix, both ascending; and both as
    flat indices into a row-major (n, n) table."""

    rows: np.ndarray
    sim: np.ndarray
    dis: np.ndarray
    sim_at: np.ndarray
    dis_at: np.ndarray


def _row_blocks(y: np.ndarray) -> tuple[_RowBlock, ...]:
    """The rows grouped by the multiplicity of their label, one block when
    the set is balanced.  Raises unless y has two distinct labels.

    The blocks are read-only and cached per label vector: a check of a few
    dozen rows would spend a fifth of its time building them.
    """
    return _row_blocks_of(np.ascontiguousarray(y, dtype=np.int64).tobytes())


@functools.lru_cache(maxsize=64)
def _row_blocks_of(key: bytes) -> tuple[_RowBlock, ...]:
    y = np.frombuffer(key, dtype=np.int64)
    n = y.size
    if n < 2 or (y == y[0]).all():
        raise PreconditionError("need at least two distinct labels for triplets")
    same = y[:, None] == y
    sim = same & ~np.eye(n, dtype=bool)
    counts = same.sum(axis=1)
    blocks = []
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        s = np.nonzero(sim[rows])[1].reshape(rows.size, k - 1)
        d = np.nonzero(~same[rows])[1].reshape(rows.size, n - k)
        block = _RowBlock(rows, s, d, rows[:, None] * n + s, rows[:, None] * n + d)
        for a in block:
            a.flags.writeable = False
        blocks.append(block)
    return tuple(blocks)


def _sum_in_row_order(row_sums: np.ndarray) -> np.ndarray:
    """Add the per-row sums along the last axis one after another, as a
    running ``total +=`` does; a pairwise ``sum`` would round differently in
    the last bit."""
    return row_sums.cumsum(axis=-1)[..., -1]


def _triplet_sums(D: np.ndarray, y: np.ndarray, term) -> np.ndarray:
    """Exhaustive triplet loss of each (n, n) distance table in the (..., n, n)
    stack ``D``, whose sets share the labels ``y``.

    ``term(d_pos, d_neg, rows, dis)`` gives the (..., g, k-1, n-k) triplet
    terms of a row block from its (..., g, k-1, 1) similar and
    (..., g, 1, n-k) dissimilar distances.
    """
    flat = D.reshape(D.shape[:-2] + (-1,))
    row_sums = np.empty(D.shape[:-1])
    for block in _row_blocks(y):
        # ``take`` returns C-contiguous arrays, stacked or not, so each sum
        # below runs pairwise as the one-set sum does; a fancy-index gather
        # from a stack would not be contiguous and would sum in sequence
        d_pos = flat.take(block.sim_at, axis=-1)[..., None]
        d_neg = flat.take(block.dis_at, axis=-1)[..., None, :]
        row_sums[..., block.rows] = term(d_pos, d_neg, block.rows,
                                         block.dis).sum(axis=(-2, -1))
    return _sum_in_row_order(row_sums)


def _comparator(kind: TripletLossKind):
    """The triplet term g(d_pos, d_neg) of ``kind``, for ``_triplet_sums``."""
    return lambda d_pos, d_neg, rows, dis: kind.g(d_pos, d_neg)


def brute_force_triplet_loss(code_set: LabeledCodeSet, kind: TripletLossKind,
                             max_n: int = DEFAULT_TRIPLET_CAP) -> float:
    """Exhaustive ranking loss over all ordered triplets (i, j, k).

    Sums g(|h_i - h_j|, |h_i - h_k|) over i != j with equal labels and k with
    a different label.  Intentionally O(n^3); refuses n beyond ``max_n``.
    """
    _check_cap(code_set.n, max_n)
    y = code_set.single_labels()
    return float(_triplet_sums(_pairwise_distances(code_set.codes), y, _comparator(kind)))


def multilabel_brute_force_loss(code_set: LabeledCodeSet, kind: TripletLossKind,
                                max_n: int = DEFAULT_TRIPLET_CAP) -> float:
    """Exhaustive multilabel ranking loss with shared-label weights.

    Pairs are similar when they share at least one label and the triplet term
    is weighted by the overlap size r_ij = |Y_i & Y_j|; k must share none.
    """
    _check_cap(code_set.n, max_n)
    n = code_set.n
    member = code_set.labels.astype(np.int64)
    overlap = member @ member.T
    D = _pairwise_distances(code_set.codes)
    total = 0.0
    for i in range(n):
        w = overlap[i].astype(np.float64)
        w[i] = 0.0
        dis = overlap[i] == 0
        if not (w > 0).any() or not dis.any():
            continue
        sim = w > 0
        g = kind.g(D[i, sim][:, None], D[i, dis][None, :])
        total += float((w[sim][:, None] * g).sum())
    return total


def _hinge_lc(d_own: np.ndarray, d_all: np.ndarray,
              kind: TripletLossKind) -> np.ndarray:
    """Per-item classification-style loss: mean of g(d_y, d_l) over l != y."""
    C = d_all.shape[-1]
    vals = kind.g(d_own[..., None], d_all)        # (..., n, C), includes l = y
    own = kind.g(d_own, d_own)                    # subtract the diagonal term
    return (vals.sum(axis=-1) - own) / (C - 1)


def _softmax_lc(d_all: np.ndarray, d_own: np.ndarray) -> np.ndarray:
    """Per-item full softmax loss -log p_y over negative distances."""
    z = -d_all
    m = z.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    return d_own + lse


def _unary_sides(codes: np.ndarray, y: np.ndarray, C: int, centers: np.ndarray,
                 kind: TripletLossKind):
    """Both sides of the unary bound for a (b, n, r) stack of code sets that
    share the labels ``y``, each with its own centers, stacked (b, r, C).

    Returns the (b,) arrays lhs, rhs, sum_i lc_i and sum_i |h_i - c_{y_i}|,
    and the multiplier (n/C)^2 (C-1).  Entry t is bit-equal to the
    computation on set t alone.

    The margin kind pairs g on the triplet side with the hinge
    classification loss.  The softmax kind pairs the full softmax loss with
    the background-shared comparator: for triplet (i, j, k) it carries the
    fixed background mass B = sum over centers other than c_{y_i}, c_{y_k}
    of exp(-|h_i - c_l|), which is exactly the comparator whose per-item
    aggregate equals the full softmax loss on the bound side.
    """
    n = codes.shape[1]
    Dc = _code_center_distances(codes, centers)                  # (b, n, C)
    d_own = np.ascontiguousarray(Dc[:, np.arange(n), y])         # (b, n)
    if kind.kind == "margin":
        term = _comparator(kind)
        lc = _hinge_lc(d_own, Dc, kind)
    else:
        expd = np.exp(-Dc)
        mass = expd.sum(axis=2)

        def term(d_pos, d_neg, rows, dis):
            background = ((mass[:, rows] - expd[:, rows, y[rows]])[:, :, None]
                          - expd[:, rows[:, None], y[dis]])      # (b, g, n-k)
            tail = np.logaddexp(-d_pos, -d_neg)
            tail = np.logaddexp(tail, np.log(np.maximum(background, 1e-300))[:, :, None, :])
            return d_pos + tail

        lc = _softmax_lc(Dc, d_own)
    lhs = _triplet_sums(_pairwise_distances(codes), y, term)
    multiplier = (n / C) ** 2 * (C - 1)
    rhs = multiplier * (lc + 2.0 * d_own).sum(axis=1)
    return lhs, rhs, lc.sum(axis=1), d_own.sum(axis=1), multiplier


def _lambda_from_parts(lhs: float, multiplier: float, lc_sum: float,
                       dist_sum: float) -> LambdaEstimate:
    if dist_sum <= 0.0:
        return LambdaEstimate(0.0, degenerate=True)
    return LambdaEstimate((lhs / multiplier - lc_sum) / dist_sum)


def unary_upper_bounds(codes, labels, label_count: int, centers,
                       kind: TripletLossKind) -> list[BoundReport]:
    """``unary_upper_bound`` of each set in a (b, n, r) stack of codes that
    share one balanced (n,) label vector, with their centers stacked
    (b, r, C).

    The reports come in stack order, each equal to the single check's.  The
    stack is worked in pieces of about ``UNARY_STACK_FLOATS`` elements.
    """
    codes = np.ascontiguousarray(codes, dtype=np.float64)
    if codes.ndim != 3:
        raise DimensionMismatch("codes must be a (b, n, r) stack")
    if not len(codes):
        return []
    labeled = LabeledCodeSet.from_single_labels(codes[0], labels, label_count)
    return _unary_reports(codes, labeled, np.ascontiguousarray(centers, dtype=np.float64),
                          kind, DEFAULT_TRIPLET_CAP)


def _unary_reports(codes: np.ndarray, labeled: LabeledCodeSet, centers: np.ndarray,
                   kind: TripletLossKind, max_n: int) -> list[BoundReport]:
    """Reports for a (b, n, r) stack of codes carrying the labels of ``labeled``."""
    if not labeled.is_balanced():
        raise PreconditionError("unary bound requires a balanced single-label set")
    b, n, r = codes.shape
    y, C = labeled.single_labels(), labeled.label_count
    if centers.shape != (b, r, C):
        raise DimensionMismatch(f"need ({r}, {C}) centers per code set, got "
                                f"{centers.shape[1:]}")
    _check_cap(n, max_n)
    step = max(1, UNARY_STACK_FLOATS // max(1, n * n * max(n, r)))
    reports = []
    for s in range(0, b, step):
        sides = _unary_sides(codes[s:s + step], y, C, centers[s:s + step], kind)
        multiplier = sides[-1]
        for lhs, rhs, lc_sum, dist_sum in zip(*(a.tolist() for a in sides[:4])):
            lam = _lambda_from_parts(lhs, multiplier, lc_sum, dist_sum)
            reports.append(BoundReport(lhs, rhs, multiplier, float(lam),
                                       lhs <= rhs + BOUND_RTOL * abs(rhs),
                                       kind=kind.kind, n=n, label_count=C,
                                       degenerate=lam.degenerate))
    return reports


def unary_upper_bound(code_set: LabeledCodeSet, centers, kind: TripletLossKind,
                      max_n: int = DEFAULT_TRIPLET_CAP) -> BoundReport:
    """Check the exhaustive triplet loss against its unary upper bound.

    The bound multiplies (n/C)^2 (C-1) into the per-item sum of the
    classification-style loss plus twice the own-center distance.  It holds
    for any auxiliary centers as long as the label multiplicities are even,
    with the same comparator g on both sides (hinge, or full softmax paired
    with the background-shared comparator on the triplet side).
    """
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    return _unary_reports(code_set.codes[None], code_set, centers[None], kind, max_n)[0]


def estimate_lambda(code_set: LabeledCodeSet, centers, kind: TripletLossKind,
                    max_n: int = DEFAULT_TRIPLET_CAP) -> LambdaEstimate:
    """Smallest coefficient making the tightened unary bound hold on this set.

    (L_t / M_t - sum_i lc_i) / sum_i |h_i - c_{y_i}|; at most 2 whenever the
    plain bound holds.  Returns 0 flagged degenerate when the denominator
    vanishes (every code sits exactly on its own center).
    """
    y = code_set.single_labels()
    _check_cap(code_set.n, max_n)
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    lhs, _, lc_sum, dist_sum, multiplier = _unary_sides(
        code_set.codes[None], y, code_set.label_count, centers[None], kind)
    return _lambda_from_parts(float(lhs[0]), multiplier, float(lc_sum[0]),
                              float(dist_sum[0]))


# ---------------------------------------------------------------------------
# Multilabel expectation bound (Monte Carlo)
# ---------------------------------------------------------------------------

# Trials reduced together by the Monte Carlo check; memory is O(block n^2).
ML_TRIAL_BLOCK = 256

MIN_TRIALS = 1000


def _label_matrix_blocks(rng: np.random.Generator, trials: int, n: int, C: int,
                         p: float, block: int = ML_TRIAL_BLOCK):
    """Yield the (b, n, C) boolean label matrices of ``trials`` trials.

    One trial draws ``rng.random((n, C)) < p`` and redraws its empty rows,
    in row order, until none is empty.  Every draw takes whole C-wide
    candidate rows from one uniform stream, so a trial is a FIFO queue of
    rows over that stream: it ends at its n-th non-empty candidate, and its
    candidate at position j >= n belongs to the row that got its (j-n)-th
    empty candidate.  The candidates are drawn in chunks, which continue the
    stream exactly, and the rows are resolved for a whole block at once.
    """
    empty_p = (1.0 - p) ** C
    cand = np.empty((0, C), dtype=bool)
    for first in range(0, trials, block):
        b = min(block, trials - first)
        need = b * n
        full = np.flatnonzero(cand.any(axis=1))
        while full.size < need:
            more = int((need - full.size) / (1.0 - empty_p) * 1.1) + 64
            cand = np.concatenate([cand, rng.random((min(more, 1 << 18), C)) < p])
            full = np.flatnonzero(cand.any(axis=1))
        full = full[:need]
        ends = full[n - 1::n]                    # each trial's last candidate
        used, cand = cand[:ends[-1] + 1], cand[ends[-1] + 1:]
        pos = np.arange(len(used))
        trial = np.searchsorted(ends, pos)
        start = np.concatenate([[0], ends[:-1] + 1])
        j = pos - start[trial]                   # position within the trial
        empty = np.flatnonzero(~used.any(axis=1))
        later = j >= n
        # src: the candidate whose row this one inherits; follow it to j < n
        src = pos.copy()
        src[later] = empty[np.searchsorted(empty, start)[trial[later]] + j[later] - n]
        while True:
            nxt = src[src]
            if np.array_equal(nxt, src):
                break
            src = nxt
        Y = np.zeros((b, n, C), dtype=bool)
        Y[trial[full], j[src[full]]] = used[full]
        yield Y


def _trial_sides(Y: np.ndarray, G: np.ndarray, Gc: np.ndarray, Dc: np.ndarray,
                 p: float, multiplier: float, Q: float):
    """Per-trial (lhs, rhs) of the multilabel bound for a (b, n, C) block of
    label matrices; each entry is bit-equal to the one-trial computation."""
    C = Y.shape[2]
    Yi = Y.astype(np.int64)
    overlap = Yi @ Yi.transpose(0, 2, 1)            # r_ij = |Y_i & Y_j|
    sim_w = overlap * ~np.eye(Y.shape[1], dtype=bool)   # the diagonal off
    dis = overlap == 0
    lhs = np.einsum("tij,tik,ijk->t", sim_w.astype(np.float64),
                    dis.astype(np.float64), G)

    sizes = Yi.sum(axis=2)
    # (1-p)^|Y_i| from a table: numpy's power rounds a one-element 2-d
    # array (b = n = 1) differently in the last bit from any other shape
    qy = (C - sizes) / (C - 1) * ((1.0 - p) ** np.arange(C + 1))[sizes]
    pos = Y[:, :, :, None] & ~Y[:, :, None, :]       # (trial, i, s in Y_i, t not in Y_i)
    # where + sum keeps the one-trial pairwise order; an einsum would not
    lmc_raw = np.where(pos, Gc, 0.0).sum(axis=(2, 3))
    neg_counts = np.maximum(C - sizes, 1)            # |Y_i| = C gives empty sum
    lmc = lmc_raw / neg_counts
    dist_term = np.where(Y, Dc, 0.0).sum(axis=2)
    rhs = multiplier * (qy * lmc + (Q + qy) * dist_term).sum(axis=1)
    return lhs, rhs


def multilabel_bound_check(codes, C: int, p: float, centers, trials: int,
                           seed: int, kind: TripletLossKind | None = None) -> BoundReport:
    """Monte Carlo check of the multilabel expectation bound.

    Label sets are drawn with independent per-label inclusion probability p
    (empty draws resampled, so the check conditions on non-empty label sets).
    Per trial the exhaustive weighted triplet loss is compared with

        (C-1) p^2 n^2 * sum_i [ q(|Y_i|) lmc_i + (Q + q(|Y_i|)) sum_{s in Y_i} d_is ]

    where q(x) = (C-x)/(C-1) * (1-p)^x and Q = (1-p)^2 (1-p^2)^(C-2).  The
    verdict compares empirical means with a one-sided 99% confidence margin.
    Trials are evaluated ``ML_TRIAL_BLOCK`` at a time.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie strictly between 0 and 1")
    p = min(p, 0.99)
    if trials < MIN_TRIALS:
        raise PreconditionError(f"need at least {MIN_TRIALS} Monte Carlo trials")
    kind = kind if kind is not None else margin_loss(1.0)
    codes = np.asarray(codes, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = codes.shape[0]
    if n < 1 or C < 2:
        raise PreconditionError("need at least one code row and two labels")
    rng = np.random.default_rng(seed)

    D = _pairwise_distances(codes)
    Dc = _code_center_distances(codes, centers)
    # G[i, j, k] = g(|h_i - h_j|, |h_i - h_k|), precomputed once.
    G = kind.g(D[:, :, None], D[:, None, :])
    # Gc[i, s, t] = g(d_is, d_it) for the per-item classification-style term.
    Gc = kind.g(Dc[:, :, None], Dc[:, None, :])

    multiplier = (C - 1) * p * p * n * n
    Q = (1.0 - p) ** 2 * (1.0 - p * p) ** (C - 2)

    lhs = np.empty(trials)
    rhs = np.empty(trials)
    first = 0
    for Y in _label_matrix_blocks(rng, trials, n, C, p):
        t = slice(first, first + len(Y))
        first += len(Y)
        lhs[t], rhs[t] = _trial_sides(Y, G, Gc, Dc, p, multiplier, Q)

    diff = rhs - lhs
    sem = float(diff.std(ddof=1) / np.sqrt(trials))
    margin = Z_99 * sem
    mean_lhs = float(lhs.mean())
    mean_rhs = float(rhs.mean())
    holds = mean_lhs <= mean_rhs + margin + BOUND_RTOL * abs(mean_rhs)
    return BoundReport(mean_lhs, mean_rhs, multiplier, 0.0, bool(holds),
                       kind=kind.kind, n=n, label_count=C,
                       confidence_margin=margin)


# ---------------------------------------------------------------------------
# Toy lambda-landscape experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ToyConfig:
    """Two-Gaussian-cluster grid experiment for the lambda landscape."""

    r: int = 48
    C: int = 2
    sigma_grid: tuple = (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    d_grid: tuple = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
    samples_per_cluster: int = 200
    seed: int = 0
    margin: float = 1.0
    triplet_samples: int = 1_000_000
    enumeration_threshold: int = 30

    def __post_init__(self):
        if self.C < 2:
            raise PreconditionError(f"need at least 2 clusters, got {self.C}")
        if self.r < self.C:
            raise PreconditionError(f"r={self.r} cannot hold the simplex of "
                                    f"{self.C} cluster means (need r >= C)")
        if self.samples_per_cluster < 2:
            raise PreconditionError("a triplet needs two points in a cluster, got "
                                    f"{self.samples_per_cluster} per cluster")
        if not 0.0 <= self.margin < np.inf:
            raise PreconditionError(f"margin must be finite and non-negative, got "
                                    f"{self.margin}")
        if self.triplet_samples < 1:
            raise PreconditionError(f"need at least 1 sampled triplet, got "
                                    f"{self.triplet_samples}")
        # written as "not in range" so that NaN fails
        if not all(0.0 < s < np.inf for s in self.sigma_grid):
            raise PreconditionError("all sigma values must be finite and positive")
        if not all(0.0 <= d < np.inf for d in self.d_grid):
            raise PreconditionError("center distances must be finite and non-negative")


@dataclass
class ToyCell:
    sigma: float
    d: float
    triplet_loss: float
    relaxed_triplet_loss: float
    unary_bound: float
    lambda_estimate: float
    degenerate: bool

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "d": self.d,
            "triplet_loss": self.triplet_loss,
            "relaxed_triplet_loss": self.relaxed_triplet_loss,
            "unary_bound": self.unary_bound,
            "lambda_estimate": self.lambda_estimate,
            "degenerate": self.degenerate,
        }


def _simplex_centers(C: int, d: float, r: int) -> np.ndarray:
    """C points in R^r with all pairwise distances exactly d."""
    eye = np.eye(C)
    centered = eye - eye.mean(axis=0)
    centered *= d / np.sqrt(2.0)        # pairwise distance of scaled corners
    out = np.zeros((C, r))
    out[:, :C] = centered
    return out


def _toy_cell(cfg: ToyConfig, sigma: float, d: float,
              seed_seq: np.random.SeedSequence) -> ToyCell:
    rng = np.random.default_rng(seed_seq)
    kind = margin_loss(cfg.margin)
    m = cfg.samples_per_cluster
    n = cfg.C * m
    means = _simplex_centers(cfg.C, d, cfg.r)
    codes = np.concatenate(
        [means[c] + sigma * rng.standard_normal((m, cfg.r)) for c in range(cfg.C)]
    )
    y = np.repeat(np.arange(cfg.C), m)
    centers = means.T                                  # (r, C)

    Dc = _code_center_distances(codes, centers)
    d_own = Dc[np.arange(n), y]
    lc = _hinge_lc(d_own, Dc, kind)
    multiplier = (n / cfg.C) ** 2 * (cfg.C - 1)
    unary = multiplier * float((lc + 2.0 * d_own).sum())

    total_triplets = n * (m - 1) * (n - m)
    if n < cfg.enumeration_threshold:
        lt = float(_triplet_sums(_pairwise_distances(codes), y, _comparator(kind)))
        # relaxed comparator summed over the same exhaustive triplet set
        row_sums = np.zeros(n)
        for rows, sim, dis, *_ in _row_blocks(y):
            g_part = kind.g(d_own[rows, None], Dc[rows[:, None], y[dis]])   # (g, n-k)
            row_sums[rows] = (g_part[:, None, :] + d_own[sim][:, :, None]
                              + d_own[dis][:, None, :]).sum(axis=(1, 2))
        relaxed = float(_sum_in_row_order(row_sums))
    else:
        T = cfg.triplet_samples
        i_all = rng.integers(0, n, T)
        off_all = rng.integers(0, m - 1, T)      # j: same cluster as i, j != i
        k_all = rng.integers(0, n - m, T)        # k: uniform over the other clusters
        D = _pairwise_distances(codes) if n * n <= T else None   # no larger than T pairs
        g_terms = np.empty(T)
        relaxed_terms = np.empty(T)
        for s in range(0, T, TOY_CHUNK):
            i_idx = i_all[s:s + TOY_CHUNK]
            first = (i_idx // m) * m                   # i's cluster starts here
            off = off_all[s:s + TOY_CHUNK]
            j_idx = first + off + (off >= i_idx - first)
            k_raw = k_all[s:s + TOY_CHUNK]
            k_idx = np.where(k_raw >= first, k_raw + m, k_raw)
            if D is not None:
                d_ij, d_ik = D[i_idx, j_idx], D[i_idx, k_idx]
            else:
                d_ij = _pair_distances(codes, i_idx, j_idx)
                d_ik = _pair_distances(codes, i_idx, k_idx)
            g_terms[s:s + TOY_CHUNK] = kind.g(d_ij, d_ik)
            relaxed_terms[s:s + TOY_CHUNK] = (kind.g(d_own[i_idx], Dc[i_idx, y[k_idx]])
                                              + d_own[j_idx] + d_own[k_idx])
        # one mean over each whole array: the pairwise tree depends on its length
        lt = float(g_terms.mean()) * total_triplets
        relaxed = float(relaxed_terms.mean()) * total_triplets

    lam = _lambda_from_parts(lt, multiplier, float(lc.sum()), float(d_own.sum()))
    return ToyCell(sigma, d, lt, relaxed, unary, float(lam), lam.degenerate)


def toy_lambda_grid(cfg: ToyConfig, threads: int = 1) -> list[ToyCell]:
    """Run the two-cluster grid; deterministic per seed, schedule-independent.

    Each (sigma, d) cell draws from its own child RNG stream, so results are
    identical whether cells run sequentially or in parallel.
    """
    cells = [(s, d) for s in cfg.sigma_grid for d in cfg.d_grid]
    children = np.random.SeedSequence(cfg.seed).spawn(len(cells))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as ex:
            rows = list(ex.map(lambda a: _toy_cell(cfg, a[0][0], a[0][1], a[1]),
                               zip(cells, children)))
    else:
        rows = [_toy_cell(cfg, s, d, ss) for (s, d), ss in zip(cells, children)]
    return rows


# Fixed bins of the lambda histogram in the verify-bounds summary: -1 to the
# proven cap 2 in steps of 1/8 (random instances mostly land in [-1, 0.3]).
LAMBDA_BIN_EDGES = tuple(-1.0 + 0.125 * i for i in range(25))


def _slack_summary(reports: Sequence[BoundReport]) -> dict:
    """Smallest relative slack (rhs - lhs) / rhs over the checks with rhs > 0,
    and the row it occurs at (None when no check has a positive bound)."""
    slack = [((r.bound_value - r.brute_force_loss) / r.bound_value, i)
             for i, r in enumerate(reports) if r.bound_value > 0.0]
    low, row = min(slack) if slack else (None, None)
    return {"min_relative_slack": low, "min_slack_row": row,
            "zero_bound_checks": len(reports) - len(slack)}


def bound_summary(unary: Sequence[BoundReport],
                  multilabel: Sequence[BoundReport]) -> dict:
    """How close the checks came to failing: the minimum relative slack of
    each family and a fixed-bin histogram of the non-degenerate unary lambda
    estimates (``below``/``above`` count those outside the edges)."""
    lams = np.array([r.lambda_estimate for r in unary if not r.degenerate])
    counts, _ = np.histogram(lams, bins=LAMBDA_BIN_EDGES)
    return {
        "unary": _slack_summary(unary),
        "multilabel": _slack_summary(multilabel),
        "lambda_histogram": {
            "edges": list(LAMBDA_BIN_EDGES),
            "counts": counts.tolist(),
            "below": int((lams < LAMBDA_BIN_EDGES[0]).sum()),
            "above": int((lams > LAMBDA_BIN_EDGES[-1]).sum()),
            "degenerate": sum(r.degenerate for r in unary),
        },
    }


TOY_CSV_FIELDS = ["sigma", "d", "triplet_loss", "relaxed_triplet_loss",
                  "unary_bound", "lambda_estimate", "degenerate"]

REPORT_CSV_FIELDS = ["brute_force_loss", "bound_value", "multiplier",
                     "lambda_estimate", "holds", "kind", "n", "label_count",
                     "degenerate", "confidence_margin"]


def write_rows_csv(path, rows: Sequence, fields: Sequence[str]):
    """One row per cell/instance; rows expose to_dict()."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fields))
        writer.writeheader()
        for row in rows:
            writer.writerow(row.to_dict())
