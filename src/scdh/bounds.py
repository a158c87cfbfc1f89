"""Numerical certification of the unary-bound theory.

The O(n^3) triplet ranking losses are enumerated exhaustively on small sets
and compared against their O(n) unary upper bounds: the single-label bound
with multiplier (n/C)^2 (C-1), the tightened lambda form, and the multilabel
expectation bound checked by Monte Carlo.  A toy two-cluster experiment maps
the estimated lambda over a (sigma, d) grid.

Every path works an array at a time and returns the same bits as a plain
per-row (or per-trial) loop, which the tests keep as the reference:

- one kernel computes both sides of the unary bound, and the reports, for
  a (b, n, r) stack of code sets that share one balanced label vector.
  Both unary entries check their input and call it: ``unary_upper_bounds``
  certifies a stack (verify-bounds' ``run_bound_suite`` groups its draws by
  shape into stacks), and ``unary_upper_bound`` certifies one set as the
  stack of one.  The exhaustive triplet sums reduce one (b, n, k-1, n-k)
  block, k = n/C codes per label, and add the row sums in row order, as a
  running total would.  Differences are squared and hinges formed in
  place;
- the Monte Carlo check draws the label sets of a block of trials from one
  stream of C-wide candidate rows, packed into uint64 codes as they are
  drawn.  The triplet side takes the overlaps |Y_i & Y_j| as popcounts and
  reduces the block with one einsum; the bound side computes each item's
  terms once per distinct (item, label set) pair of the block and gathers
  them back per trial.  Memory is O(block n (n + C^2)) for any trial count;
- a sampled toy cell keeps two (T,) index draws whole, in the narrowest
  integer dtype that holds n, and does everything after them a chunk of
  triplets at a time: it draws the third index per chunk from the same
  stream, looks the distances up in the (n, n) distance table when
  n^2 <= T (otherwise computes them per pair) and never gathers (T, r)
  code rows.  The table is built a few rows at a time, and it, the
  code-to-center distances and the own-center distances are looked up by
  flat index.  Its two means over T terms are rebuilt from chunk sums along
  numpy's pairwise summation tree, so they keep the bits of one
  ``.mean()`` over whole term arrays.

``bound_summary`` condenses a verify-bounds run: the minimum relative slack
of each check family and a fixed-bin histogram of the lambda estimates.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatch, LabelSetError, PreconditionError
from .losses import TripletLossKind, margin_loss
from .retrieval import pack_bits, unpack_bits

# One-sided 99% normal quantile, used for the Monte Carlo bound margin.
Z_99 = 2.3263478740408408

# Relative tolerance absorbing float summation order in bound comparisons.
BOUND_RTOL = 1e-9

# Most codes in a set whose triplets are enumerated; their count grows as n^3.
TRIPLET_CAP = 64

# A toy cell of fewer codes enumerates its triplets; a larger one samples them.
TOY_ENUMERATION_THRESHOLD = 30

# Float64 elements in the largest working array of one unary stack, about
# b n^2 max(n, r); ``unary_upper_bounds`` certifies longer stacks in pieces.
UNARY_STACK_FLOATS = 1 << 20

# Most sampled toy triplets drawn or worked at a time; the worked chunks are
# nodes of numpy's pairwise summation tree (see ``_pairwise_sum``).
TOY_CHUNK = 1 << 15

# Rows of a sampled toy cell's (n, n) distance table differenced at a time.
TOY_TABLE_BLOCK = 4

# numpy's pairwise summation sums a range of at most this many float64 terms
# with eight running accumulators and splits a longer one in two.
_PAIRWISE_BLOCK = 128


@dataclass(frozen=True)
class LabeledCodeSet:
    """(n, r) codes (real or +/-1 valued) with their (n,) label vector;
    ``unary_upper_bound`` checks both against the centers it is given."""

    codes: np.ndarray
    labels: np.ndarray


def _label_vector(labels) -> np.ndarray:
    """``labels`` as int64; raises LabelSetError on a value that is not an
    integer.  Integer input passes on its dtype alone."""
    y = np.asarray(labels)
    if y.dtype.kind == "f":
        integral = np.isfinite(y) & (y == np.floor(y))
        if not integral.all():
            i = int(np.argmin(integral.ravel()))
            raise LabelSetError(f"label {y.ravel()[i].item()} at position {i} is not "
                                "an integer")
    elif y.dtype.kind not in "biu":
        raise LabelSetError(f"labels must be integers, not {y.dtype}")
    return y.astype(np.int64, copy=False)


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
        # every field is a scalar, so a shallow copy equals ``asdict``
        return dict(vars(self))


def _norm(diff: np.ndarray, axis: int) -> np.ndarray:
    """``np.linalg.norm(diff, axis=axis)`` of a real array: the same arithmetic
    (and bits) without the wrapper's dispatch.  ``diff`` is a fresh
    temporary, squared in place."""
    np.multiply(diff, diff, out=diff)
    sq = np.add.reduce(diff, axis=axis)
    return np.sqrt(sq, out=sq)


def _pairwise_distances(codes: np.ndarray, block: int = 64) -> np.ndarray:
    """(..., n, n) Euclidean distances between the rows of (..., n, r) codes.

    Row block a is differenced against the rows from a on, and the part
    below the diagonal is mirrored: |h_i - h_j| and |h_j - h_i| are
    bit-equal.  Each entry reduces one difference row over r, so it is
    bit-equal to the full (n, n, r) tensor form and to ``_pair_distances``
    at any block.
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


def _pairwise_sum(n: int, leaf_sums, leaf: int, start: int = 0):
    """``np.add.reduce`` over n float64 terms, from the sums of their pieces.

    numpy sums a contiguous float64 array along a pairwise tree: a range of
    more than ``_PAIRWISE_BLOCK`` terms splits at half its length, rounded
    down to a multiple of 8.  This walks that tree from ``start``, calls
    ``leaf_sums(lo, hi)`` on each node of at most ``max(leaf,
    _PAIRWISE_BLOCK)`` terms, left to right, and adds the returned sums back
    up the tree.  When ``leaf_sums`` returns ``np.add.reduce`` of the terms
    lo:hi (or an array of several such sums), the result is bit-equal to one
    ``np.add.reduce`` over all n terms.
    """
    if n <= max(leaf, _PAIRWISE_BLOCK):
        return leaf_sums(start, start + n)
    half = n // 2
    half -= half % 8
    return (_pairwise_sum(half, leaf_sums, leaf, start)
            + _pairwise_sum(n - half, leaf_sums, leaf, start + half))


def _code_center_distances(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(..., n, C) distances from (..., n, r) codes to (..., r, C) centers."""
    return _norm(codes[..., :, :, None] - centers[..., None, :, :], -2)


class _LabelRows(NamedTuple):
    """The one row block of a balanced label vector y, k = n/C rows a label:
    each row's similar columns, the other rows with its label, as an (n, k-1)
    matrix and its dissimilar columns as an (n, n-k) matrix, both ascending;
    both as flat indices into a row-major (n, n) table; y itself; and the
    flat index ``i * C + y_i`` of each row's own center in a row-major (n, C)
    table."""

    sim: np.ndarray
    dis: np.ndarray
    sim_at: np.ndarray
    dis_at: np.ndarray
    labels: np.ndarray
    own_at: np.ndarray


def _row_blocks(y: np.ndarray, C: int) -> _LabelRows:
    """The row block of label vector y over C labels.  Raises LabelSetError
    unless every label lies in 0..C-1, and PreconditionError unless y has two
    distinct labels and n/C rows of each, before any block is built.

    The arrays are read-only and cached per label vector: a check of a few
    dozen rows would spend a fifth of its time building them.
    """
    return _row_blocks_of(np.ascontiguousarray(y, dtype=np.int64).tobytes(), C)


@functools.lru_cache(maxsize=64)
def _row_blocks_of(key: bytes, C: int) -> _LabelRows:
    y = np.frombuffer(key, dtype=np.int64)
    n = y.size
    if ((y < 0) | (y >= C)).any():
        raise LabelSetError(f"labels must lie in 0..{C - 1}")
    if n < 2 or (y == y[0]).all():
        raise PreconditionError("need at least two distinct labels for triplets")
    if (np.bincount(y, minlength=C) * C != n).any():
        raise PreconditionError("unary bound requires a balanced single-label set")
    k = n // C
    same = y[:, None] == y
    sim = np.nonzero(same & ~np.eye(n, dtype=bool))[1].reshape(n, k - 1)
    dis = np.nonzero(~same)[1].reshape(n, n - k)
    rows = np.arange(n)
    label_rows = _LabelRows(sim, dis, rows[:, None] * n + sim, rows[:, None] * n + dis,
                            y, rows * C + y)
    for a in label_rows:
        a.flags.writeable = False
    return label_rows


def _sum_in_row_order(row_sums: np.ndarray) -> np.ndarray:
    """Add the per-row sums along the last axis one after another, as a
    running ``total +=`` does; a pairwise ``sum`` would round differently in
    the last bit."""
    return np.add.accumulate(row_sums, axis=-1)[..., -1]


def _hinge_lc(d_own: np.ndarray, d_all: np.ndarray,
              kind: TripletLossKind) -> np.ndarray:
    """Per-item classification-style loss of the margin kind: the mean of
    g(d_y, d_l) = max(0, m + d_y - d_l) over l != y, formed in place."""
    shifted = kind.margin + d_own
    vals = shifted[..., None] - d_all             # (..., n, C), includes l = y
    np.maximum(0.0, vals, out=vals)
    lc = np.add.reduce(vals, axis=-1)
    own = shifted - d_own                         # subtract the diagonal term
    lc -= np.maximum(0.0, own, out=own)
    lc /= d_all.shape[-1] - 1
    return lc


def _softmax_lc(d_all: np.ndarray, d_own: np.ndarray) -> np.ndarray:
    """Per-item full softmax loss -log p_y over negative distances."""
    z = -d_all
    m = z.max(axis=-1, keepdims=True)
    lse = m[..., 0] + np.log(np.exp(z - m).sum(axis=-1))
    return d_own + lse


def _unary_reports(codes: np.ndarray, label_rows: _LabelRows, centers: np.ndarray,
                   kind: TripletLossKind) -> list[BoundReport]:
    """The unary check of each set in a checked (b, n, r) stack of float64
    codes that share the labels of ``label_rows``, each with its own centers,
    stacked (b, r, C).  Report t is bit-equal to the check of set t alone.

    The left side is the exhaustive triplet loss, reduced as one
    (b, n, k-1, n-k) block of terms; the right side is the multiplier
    (n/C)^2 (C-1) times sum_i lc_i + 2 |h_i - c_{y_i}|.  The margin kind
    pairs g on the triplet side with the hinge classification loss.  The
    softmax kind pairs the full softmax loss with the background-shared
    comparator: for triplet (i, j, k) it carries the fixed background mass
    B = sum over centers other than c_{y_i}, c_{y_k} of exp(-|h_i - c_l|),
    which is exactly the comparator whose per-item aggregate equals the
    full softmax loss on the bound side.
    """
    b, n = codes.shape[:2]
    C = centers.shape[2]
    Dc = _code_center_distances(codes, centers)                   # (b, n, C)
    d_own = Dc.reshape(b, n * C).take(label_rows.own_at, axis=1)  # (b, n)
    D = _pairwise_distances(codes).reshape(b, n * n)
    # ``take`` returns C-contiguous arrays, stacked or not, so each triplet
    # sum runs pairwise as the one-set sum does; a fancy-index gather from a
    # stack would not be contiguous and would sum in sequence
    d_pos = D.take(label_rows.sim_at, axis=1)[..., None]          # (b, n, k-1, 1)
    d_neg = D.take(label_rows.dis_at, axis=1)[:, :, None]         # (b, n, 1, n-k)
    if kind.kind == "margin":
        terms = (kind.margin + d_pos) - d_neg
        np.maximum(0.0, terms, out=terms)
        lc = _hinge_lc(d_own, Dc, kind)
    else:
        expd = np.exp(-Dc)
        rows, y = np.arange(n), label_rows.labels
        background = ((expd.sum(axis=2) - expd[:, rows, y])[:, :, None]
                      - expd[:, rows[:, None], y[label_rows.dis]])  # (b, n, n-k)
        log_background = np.log(np.maximum(background, 1e-300))[:, :, None, :]
        terms = np.logaddexp(-d_pos, -d_neg)
        np.logaddexp(terms, log_background, out=terms)
        terms += d_pos
        lc = _softmax_lc(Dc, d_own)
    multiplier = (n / C) ** 2 * (C - 1)
    item_bounds = 2.0 * d_own
    item_bounds += lc
    reports = []
    for lhs, bound_sum, lc_sum, dist_sum in zip(
            _sum_in_row_order(np.add.reduce(terms, axis=(2, 3))).tolist(),
            np.add.reduce(item_bounds, axis=1).tolist(),
            np.add.reduce(lc, axis=1).tolist(), np.add.reduce(d_own, axis=1).tolist()):
        rhs = multiplier * bound_sum
        lam, degenerate = _lambda_from_parts(lhs, multiplier, lc_sum, dist_sum)
        reports.append(BoundReport(lhs, rhs, multiplier, lam,
                                   lhs <= rhs + BOUND_RTOL * abs(rhs),
                                   kind=kind.kind, n=n, label_count=C,
                                   degenerate=degenerate))
    return reports


def _lambda_from_parts(lhs: float, multiplier: float, lc_sum: float,
                       dist_sum: float) -> tuple[float, bool]:
    """(lambda, degenerate): lambda = (lhs / multiplier - lc_sum) / dist_sum,
    or (0.0, True) when the denominator vanishes."""
    if dist_sum <= 0.0:
        return 0.0, True
    return (lhs / multiplier - lc_sum) / dist_sum, False


def _checked_stack(codes: np.ndarray, labels, centers) -> tuple[_LabelRows, np.ndarray]:
    """The label rows and the C-contiguous float64 (b, r, C) centers of a
    non-empty (b, n, r) stack of codes, once both are checked (see
    ``unary_upper_bounds``)."""
    b, n, r = codes.shape
    labels = _label_vector(labels)
    if labels.shape != (n,):
        raise DimensionMismatch(f"need one label per code row, {n} in all, got "
                                f"shape {labels.shape}")
    if n > TRIPLET_CAP:
        raise PreconditionError(f"n={n} exceeds the exhaustive-enumeration cap "
                                f"{TRIPLET_CAP}; triplet count grows as n^3")
    centers = np.ascontiguousarray(centers, dtype=np.float64)
    if centers.ndim != 3 or centers.shape[:2] != (b, r):
        raise DimensionMismatch(f"need {b} stacked ({r}, C) center matrices, got "
                                f"shape {centers.shape}")
    return _row_blocks(labels, centers.shape[2]), centers


def unary_upper_bounds(codes, labels, centers, kind: TripletLossKind) -> list[BoundReport]:
    """``unary_upper_bound`` of each set in a (b, n, r) stack of codes that
    share one balanced (n,) label vector, with their centers stacked
    (b, r, C); the C center columns are the labels.

    It raises LabelSetError on a label that is not an integer in 0..C-1,
    DimensionMismatch on shapes that do not agree, and PreconditionError on
    more than ``TRIPLET_CAP`` rows, a single distinct label or an unbalanced
    set.  The reports come in stack order, each equal to the single check's.
    The stack is worked in pieces of about ``UNARY_STACK_FLOATS`` elements.
    """
    codes = np.ascontiguousarray(codes, dtype=np.float64)
    if codes.ndim != 3:
        raise DimensionMismatch("codes must be a (b, n, r) stack")
    b, n, r = codes.shape
    if not b:
        return []
    label_rows, centers = _checked_stack(codes, labels, centers)
    step = max(1, UNARY_STACK_FLOATS // max(1, n * n * max(n, r)))
    reports = []
    for s in range(0, b, step):
        reports += _unary_reports(codes[s:s + step], label_rows, centers[s:s + step], kind)
    return reports


def unary_upper_bound(code_set: LabeledCodeSet, centers,
                      kind: TripletLossKind) -> BoundReport:
    """Check the exhaustive triplet loss against its unary upper bound.

    The bound multiplies (n/C)^2 (C-1) into the per-item sum of the
    classification-style loss plus twice the own-center distance, with C the
    columns of the (r, C) centers.  It holds for any auxiliary centers on a
    balanced set, n/C codes per label, with the same comparator g on both
    sides (hinge, or full softmax paired with the background-shared
    comparator on the triplet side).

    The report's ``lambda_estimate`` is the smallest coefficient making the
    tightened bound hold on this set, (L_t / M_t - sum_i lc_i) / sum_i
    |h_i - c_{y_i}| with L_t the triplet loss and M_t the multiplier; it is
    at most 2 whenever the plain bound holds.  It is 0 with ``degenerate``
    set when the denominator vanishes (every code sits on its own center).
    The set is checked as a stack of one, with the inputs and errors of
    ``unary_upper_bounds``.
    """
    codes = np.ascontiguousarray(code_set.codes, dtype=np.float64)
    if codes.ndim != 2:
        raise DimensionMismatch("codes must be an (n, r) matrix")
    codes = codes[None]
    label_rows, centers = _checked_stack(codes, code_set.labels, np.asarray(centers)[None])
    return _unary_reports(codes, label_rows, centers, kind)[0]


# ---------------------------------------------------------------------------
# Multilabel expectation bound (Monte Carlo)
# ---------------------------------------------------------------------------

# Trials reduced together by the Monte Carlo check; memory is O(block n (n + C^2)).
ML_TRIAL_BLOCK = 256

MIN_TRIALS = 1000


def _label_matrix_blocks(rng: np.random.Generator, trials: int, n: int, C: int,
                         p: float, block: int = ML_TRIAL_BLOCK):
    """Yield the label sets of ``trials`` trials as (b, n, W) uint64 codes.

    Bit s of row i's code is label s, LSB first, in W = ceil(C/64) words
    (``retrieval.pack_bits``' layout), so an empty row is a zero code.  One
    trial draws ``rng.random((n, C)) < p`` and redraws its empty rows, in
    row order, until none is empty.  Every draw takes whole C-wide candidate
    rows from one uniform stream, so a trial is a FIFO queue of rows over
    that stream: it ends at its n-th non-empty candidate, and its candidate
    at position j >= n belongs to the row that got its (j-n)-th empty
    candidate.  The candidates are drawn in chunks, which continue the
    stream exactly and are packed as they are drawn, and the rows are
    resolved for a whole block at once.
    """
    empty_p = (1.0 - p) ** C
    cand = np.empty((0, (C + 63) // 64), dtype=np.uint64)
    for first in range(0, trials, block):
        b = min(block, trials - first)
        need = b * n
        full = np.flatnonzero(cand.any(axis=1))
        while full.size < need:
            more = int((need - full.size) / (1.0 - empty_p) * 1.1) + 64
            cand = np.concatenate([cand, pack_bits(rng.random((min(more, 1 << 18), C)) < p)])
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
        Y = np.zeros((b, n, cand.shape[1]), dtype=np.uint64)
        Y[trial[full], j[src[full]]] = used[full]
        yield Y


def _distinct_sets(Y: np.ndarray, C: int):
    """The distinct (item, label set) pairs of a (b, n, W) block of codes
    over C labels: the (u,) items, their (u, W) codes and the (b, n) index
    of each entry's pair.  A pair is one uint64 key, the code above the
    item's bits, unless C and those bits need more than 64."""
    b, n, W = Y.shape
    shift = max(1, (n - 1).bit_length())
    items = np.arange(n, dtype=np.uint64)
    if C + shift <= 64:
        pairs, inverse = np.unique((Y[..., 0] << np.uint64(shift)) | items,
                                   return_inverse=True)
        item, codes = pairs & np.uint64((1 << shift) - 1), (pairs >> np.uint64(shift))[:, None]
    else:
        rows = np.concatenate([np.broadcast_to(items[:, None], (b, n, 1)), Y], axis=2)
        pairs, inverse = np.unique(rows.reshape(b * n, W + 1), axis=0, return_inverse=True)
        item, codes = pairs[:, 0], pairs[:, 1:]
    return item.astype(np.intp), codes, inverse.reshape(b, n)


def _trial_sides(Y: np.ndarray, G: np.ndarray, Gc: np.ndarray, Dc: np.ndarray,
                 p: float, multiplier: float, Q: float):
    """Per-trial (lhs, rhs) of the multilabel bound for a (b, n, W) block of
    label-set codes; each entry is bit-equal to the one-trial computation.

    An item's bound terms depend only on the item and its label set, so
    they are computed once per distinct (item, set) pair of the block and
    gathered back to (b, n) before the per-trial sum.
    """
    n, C = Dc.shape
    overlap = np.bitwise_count(Y[:, :, None, :] & Y[:, None, :, :]).sum(axis=3)
    sim_w = overlap.astype(np.float64)               # r_ij = |Y_i & Y_j|
    sim_w.reshape(len(Y), n * n)[:, ::n + 1] = 0.0   # the diagonal off
    dis = (overlap == 0).astype(np.float64)
    lhs = np.einsum("tij,tik,ijk->t", sim_w, dis, G)

    item, codes, inverse = _distinct_sets(Y, C)
    member = unpack_bits(codes, C)                   # (u, C)
    sizes = member.sum(axis=1)
    # (1-p)^|Y_i| from a table: numpy's power rounds a one-element array
    # differently in the last bit from a longer one
    qy = (C - sizes) / (C - 1) * ((1.0 - p) ** np.arange(C + 1))[sizes]
    # g(d_is, d_it) kept for s in Y_i and t not in Y_i: zeroed in place by
    # row and by column, so no (u, C, C) mask is built, this leaves the terms
    # ``np.where`` would, and the sum runs in their pairwise order (an
    # einsum would not)
    terms = Gc[item]
    np.copyto(terms, 0.0, where=~member[:, :, None])
    np.copyto(terms, 0.0, where=member[:, None, :])
    neg_counts = np.maximum(C - sizes, 1)            # |Y_i| = C gives empty sum
    lmc = terms.sum(axis=(1, 2)) / neg_counts
    dist_term = np.where(member, Dc[item], 0.0).sum(axis=1)
    rhs = multiplier * (qy * lmc + (Q + qy) * dist_term)[inverse].sum(axis=1)
    return lhs, rhs


def multilabel_bound_check(codes, p: float, centers, trials: int,
                           seed: int, kind: TripletLossKind) -> BoundReport:
    """Monte Carlo check of the multilabel expectation bound on (n, r) codes
    with (r, C) centers, one column per label.

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
    codes = np.asarray(codes, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    if codes.ndim != 2 or centers.ndim != 2 or centers.shape[0] != codes.shape[1]:
        raise DimensionMismatch(f"need (n, r) codes and (r, C) centers, got "
                                f"{codes.shape} and {centers.shape}")
    n, C = codes.shape[0], centers.shape[1]
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
        if not (self.sigma_grid and self.d_grid):
            raise PreconditionError("the sigma and d grids must each hold at least "
                                    "one value")
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
        # every field is a scalar, so a shallow copy equals ``asdict``
        return dict(vars(self))


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
    if n < TOY_ENUMERATION_THRESHOLD:
        label_rows = _row_blocks(y, cfg.C)
        # the exhaustive triplet loss is the left side of the cell's unary check
        lt = _unary_reports(codes[None], label_rows, centers[None], kind)[0].brute_force_loss
        # relaxed comparator summed over the same exhaustive triplet set
        sim, dis = label_rows.sim, label_rows.dis
        g_part = kind.g(d_own[:, None], Dc[np.arange(n)[:, None], y[dis]])   # (n, n-k)
        relaxed = float(_sum_in_row_order((g_part[:, None, :] + d_own[sim][:, :, None]
                                           + d_own[dis][:, None, :]).sum(axis=(1, 2))))
    else:
        T = cfg.triplet_samples
        # i, then j's offset within i's cluster, drawn a chunk at a time into
        # narrow arrays (the stream is the same as one whole draw of each)
        i_all = np.empty(T, np.min_scalar_type(n))
        off_all = np.empty(T, i_all.dtype)
        for draws, high in ((i_all, n), (off_all, m - 1)):
            for s in range(0, T, TOY_CHUNK):
                draws[s:s + TOY_CHUNK] = rng.integers(0, high, min(TOY_CHUNK, T - s))
        # the (n, n) table is no larger than T pairs; small row blocks keep
        # its (block, n, r) differences small.  It, Dc and d_own are looked
        # up by flat index
        D = _pairwise_distances(codes, block=TOY_TABLE_BLOCK).ravel() if n * n <= T else None
        Dc_flat = Dc.ravel()

        def leaf_sums(lo: int, hi: int) -> np.ndarray:
            i_idx = i_all[lo:hi].astype(np.intp)
            first = (i_idx // m) * m                   # i's cluster starts here
            off = off_all[lo:hi]
            j_idx = first + off + (off >= i_idx - first)          # j != i
            k_raw = rng.integers(0, n - m, hi - lo)    # k: the other clusters
            k_idx = k_raw + (k_raw >= first) * m
            if D is not None:
                row = i_idx * n
                d_ij, d_ik = D.take(row + j_idx), D.take(row + k_idx)
            else:
                d_ij = _pair_distances(codes, i_idx, j_idx)
                d_ik = _pair_distances(codes, i_idx, k_idx)
            # g(d_ij, d_ik) and g(d_i, d_{i, y_k}) + d_j + d_k, formed in place
            terms = kind.margin + d_ij
            terms -= d_ik
            np.maximum(0.0, terms, out=terms)
            relaxed_terms = kind.margin + d_own.take(i_idx)
            relaxed_terms -= Dc_flat.take(i_idx * cfg.C + y.take(k_idx))
            np.maximum(0.0, relaxed_terms, out=relaxed_terms)
            relaxed_terms += d_own.take(j_idx)
            relaxed_terms += d_own.take(k_idx)
            return np.array([np.add.reduce(terms), np.add.reduce(relaxed_terms)])

        # each mean is .mean() over all T terms: the tree sum divided by T
        g_sum, relaxed_sum = _pairwise_sum(T, leaf_sums, TOY_CHUNK)
        lt = float(g_sum / T) * total_triplets
        relaxed = float(relaxed_sum / T) * total_triplets

    lam, degenerate = _lambda_from_parts(lt, multiplier, float(lc.sum()),
                                         float(d_own.sum()))
    return ToyCell(sigma, d, lt, relaxed, unary, lam, degenerate)


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


# ---------------------------------------------------------------------------
# verify-bounds: randomized suites of unary and Monte Carlo checks
# ---------------------------------------------------------------------------

# Random instances drawn before their checks run; the suite's memory does
# not grow with the instance count.
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
    return LabeledCodeSet(codes, np.repeat(np.arange(C), per_class)), centers


def run_bound_suite(instances: int, classes, max_n: int, max_r: int,
                    kind: TripletLossKind, seed: int):
    """``unary_upper_bound`` of each ``random_bound_instance`` drawn from
    ``seed``, in draw order.  The draws of a chunk are grouped by (C, rows
    per class, r), and each group is certified as one stack.  ``max_n``
    below the largest of ``classes`` is refused before any draw."""
    classes = tuple(classes)
    if classes and max_n < max(classes):
        raise PreconditionError(f"an instance holds at least one code per class, so "
                                f"max_n={max_n} cannot hold C={max(classes)}")
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
            stack = unary_upper_bounds(
                np.stack([draws[t][2] for t in members]),
                np.repeat(np.arange(C), per_class),
                np.stack([draws[t][3] for t in members]), kind)
            for t, report in zip(members, stack):
                chunk[t] = report
        reports.extend(chunk)
    return reports


def run_multilabel_suite(configs: int, trials: int, kind: TripletLossKind, seed: int):
    """``multilabel_bound_check`` under ``kind`` of ``configs`` random
    configurations drawn from ``seed``, in draw order."""
    reports = []
    rng = np.random.default_rng(seed)
    for i in range(configs):
        n = int(rng.integers(8, 13))
        C = int(rng.choice([3, 4, 5]))
        p = float(rng.choice([0.2, 0.3, 0.5]))
        r = int(rng.integers(4, 9))
        codes = rng.choice([-1.0, 1.0], size=(n, r))
        centers = rng.normal(0.0, 2.0, (r, C))
        reports.append(multilabel_bound_check(
            codes, p, centers, trials=trials, seed=seed + 7919 * (i + 1), kind=kind))
    return reports


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


def write_rows_csv(path, rows: Sequence[dict], cls: type):
    """One row per cell/instance, each the ``to_dict()`` of an instance of the
    dataclass ``cls``; the header is its fields, in declaration order."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=[f.name for f in fields(cls)])
        writer.writeheader()
        writer.writerows(rows)
