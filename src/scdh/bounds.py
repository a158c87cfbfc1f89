"""Numerical certification of the unary-bound theory.

The O(n^3) triplet ranking losses are enumerated exhaustively on small sets
and compared against their O(n) unary upper bounds: the single-label bound
with multiplier (n/C)^2 (C-1), the tightened lambda form, and the multilabel
expectation bound checked by Monte Carlo.  A toy two-cluster experiment maps
the estimated lambda over a (sigma, d) grid.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, LabelSetError, PreconditionError
from .losses import TripletLossKind, margin_loss

# One-sided 99% normal quantile, used for the Monte Carlo bound margin.
Z_99 = 2.3263478740408408

# Relative tolerance absorbing float summation order in bound comparisons.
BOUND_RTOL = 1e-9

DEFAULT_TRIPLET_CAP = 64


@dataclass(frozen=True)
class LabeledCodeSet:
    """Codes (real or +/-1 valued) with one label set per row."""

    codes: np.ndarray                       # (n, r) float64
    labels: tuple[frozenset, ...]           # length n
    label_count: int                        # C
    balanced: bool = False

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.float64)
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 2:
            raise DimensionMismatch("codes must be an (n, r) matrix")
        if len(self.labels) != codes.shape[0]:
            raise DimensionMismatch("one label set per code row required")
        for Y in self.labels:
            if not Y:
                raise LabelSetError("empty label set in code set")
            if min(Y) < 0 or max(Y) >= self.label_count:
                raise LabelSetError(f"label set {set(Y)} out of range for C={self.label_count}")
        if self.balanced and not self.is_balanced():
            raise PreconditionError("balanced flag set but label multiplicities differ")

    def is_balanced(self) -> bool:
        if any(len(Y) != 1 for Y in self.labels):
            return False
        counts = np.bincount(self.single_labels(), minlength=self.label_count)
        return bool(np.all(counts == counts[0]))

    @property
    def n(self) -> int:
        return self.codes.shape[0]

    def single_labels(self) -> np.ndarray:
        if any(len(Y) != 1 for Y in self.labels):
            raise LabelSetError("set contains multilabel rows")
        return np.array([next(iter(Y)) for Y in self.labels], dtype=np.int64)

    @classmethod
    def from_single_labels(cls, codes, labels, label_count: int | None = None,
                           balanced: bool = False) -> "LabeledCodeSet":
        labels = np.asarray(labels, dtype=np.int64)
        C = int(label_count if label_count is not None else labels.max() + 1)
        return cls(np.asarray(codes, dtype=np.float64),
                   tuple(frozenset((int(l),)) for l in labels), C, balanced)


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


def _pairwise_distances(codes: np.ndarray) -> np.ndarray:
    diff = codes[:, None, :] - codes[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _code_center_distances(codes: np.ndarray, centers: np.ndarray) -> np.ndarray:
    return np.linalg.norm(codes[:, :, None] - centers[None, :, :], axis=1)


def _check_cap(n: int, max_n: int):
    if n > max_n:
        raise PreconditionError(
            f"n={n} exceeds the exhaustive-enumeration cap {max_n}; "
            "triplet count grows as n^3"
        )


def brute_force_triplet_loss(code_set: LabeledCodeSet, kind: TripletLossKind,
                             max_n: int = DEFAULT_TRIPLET_CAP) -> float:
    """Exhaustive ranking loss over all ordered triplets (i, j, k).

    Sums g(|h_i - h_j|, |h_i - h_k|) over i != j with equal labels and k with
    a different label.  Intentionally O(n^3); refuses n beyond ``max_n``.
    """
    _check_cap(code_set.n, max_n)
    y = code_set.single_labels()
    if np.unique(y).size < 2:
        raise PreconditionError("need at least two distinct labels for triplets")
    D = _pairwise_distances(code_set.codes)
    total = 0.0
    for i in range(code_set.n):
        sim = (y == y[i])
        sim[i] = False
        dis = y != y[i]
        if not sim.any() or not dis.any():
            continue
        total += float(kind.g(D[i, sim][:, None], D[i, dis][None, :]).sum())
    return total


def multilabel_brute_force_loss(code_set: LabeledCodeSet, kind: TripletLossKind,
                                max_n: int = DEFAULT_TRIPLET_CAP) -> float:
    """Exhaustive multilabel ranking loss with shared-label weights.

    Pairs are similar when they share at least one label and the triplet term
    is weighted by the overlap size r_ij = |Y_i & Y_j|; k must share none.
    """
    _check_cap(code_set.n, max_n)
    n = code_set.n
    overlap = np.zeros((n, n), dtype=np.int64)
    for i, Yi in enumerate(code_set.labels):
        for j, Yj in enumerate(code_set.labels):
            overlap[i, j] = len(Yi & Yj)
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
    n, C = d_all.shape
    vals = kind.g(d_own[:, None], d_all)          # (n, C), includes l = y
    own = kind.g(d_own, d_own)                    # subtract the diagonal term
    return (vals.sum(axis=1) - own) / (C - 1)


def _softmax_lc(d_all: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-item full softmax loss -log p_y over negative distances."""
    z = -d_all
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    return d_all[np.arange(len(y)), y] + lse


def _softmax_background_triplet_loss(code_set: LabeledCodeSet,
                                     centers: np.ndarray) -> float:
    """Exhaustive triplet loss under the background-shared softmax comparator.

    For triplet (i, j, k) the comparator carries the fixed background mass
    B = sum over centers other than c_{y_i}, c_{y_k} of exp(-|h_i - c_l|),
    which is exactly the comparator whose per-item aggregate equals the full
    softmax loss on the bound side.
    """
    y = code_set.single_labels()
    D = _pairwise_distances(code_set.codes)
    Dc = _code_center_distances(code_set.codes, centers)
    expd = np.exp(-Dc)
    total = 0.0
    for i in range(code_set.n):
        sim = (y == y[i])
        sim[i] = False
        dis = y != y[i]
        if not sim.any() or not dis.any():
            continue
        a = D[i, sim][:, None]                     # (n_sim, 1)
        b = D[i, dis][None, :]                     # (1, n_dis)
        background = expd[i].sum() - expd[i, y[i]] - expd[i, y[dis]]
        tail = np.logaddexp(-a, -b)
        tail = np.logaddexp(tail, np.log(np.maximum(background, 1e-300))[None, :])
        total += float((a + tail).sum())
    return total


def _bound_sides(code_set: LabeledCodeSet, centers: np.ndarray,
                 kind: TripletLossKind, max_n: int):
    y = code_set.single_labels()
    C = code_set.label_count
    Dc = _code_center_distances(code_set.codes, centers)
    d_own = Dc[np.arange(code_set.n), y]
    if kind.kind == "margin":
        lhs = brute_force_triplet_loss(code_set, kind, max_n=max_n)
        lc = _hinge_lc(d_own, Dc, kind)
    else:
        _check_cap(code_set.n, max_n)
        lhs = _softmax_background_triplet_loss(code_set, centers)
        lc = _softmax_lc(Dc, y)
    multiplier = (code_set.n / C) ** 2 * (C - 1)
    rhs = multiplier * float((lc + 2.0 * d_own).sum())
    return lhs, rhs, multiplier, float(lc.sum()), float(d_own.sum())


def unary_upper_bound(code_set: LabeledCodeSet, centers, kind: TripletLossKind,
                      max_n: int = DEFAULT_TRIPLET_CAP) -> BoundReport:
    """Check the exhaustive triplet loss against its unary upper bound.

    The bound multiplies (n/C)^2 (C-1) into the per-item sum of the
    classification-style loss plus twice the own-center distance.  It holds
    for any auxiliary centers as long as the label multiplicities are even,
    with the same comparator g on both sides (hinge, or full softmax paired
    with the background-shared comparator on the triplet side).
    """
    centers = np.asarray(centers, dtype=np.float64)
    if not code_set.is_balanced():
        raise PreconditionError("unary bound requires a balanced single-label set")
    lhs, rhs, multiplier, lc_sum, dist_sum = _bound_sides(code_set, centers, kind, max_n)
    holds = lhs <= rhs + BOUND_RTOL * abs(rhs)
    lam = _lambda_from_parts(lhs, multiplier, lc_sum, dist_sum)
    return BoundReport(lhs, rhs, multiplier, float(lam), bool(holds),
                       kind=kind.kind, n=code_set.n, label_count=code_set.label_count,
                       degenerate=lam.degenerate)


def _lambda_from_parts(lhs: float, multiplier: float, lc_sum: float,
                       dist_sum: float) -> LambdaEstimate:
    if dist_sum <= 0.0:
        return LambdaEstimate(0.0, degenerate=True)
    return LambdaEstimate((lhs / multiplier - lc_sum) / dist_sum)


def estimate_lambda(code_set: LabeledCodeSet, centers, kind: TripletLossKind,
                    max_n: int = DEFAULT_TRIPLET_CAP) -> LambdaEstimate:
    """Smallest coefficient making the tightened unary bound hold on this set.

    (L_t / M_t - sum_i lc_i) / sum_i |h_i - c_{y_i}|; at most 2 whenever the
    plain bound holds.  Returns 0 flagged degenerate when the denominator
    vanishes (every code sits exactly on its own center).
    """
    centers = np.asarray(centers, dtype=np.float64)
    lhs, _, multiplier, lc_sum, dist_sum = _bound_sides(code_set, centers, kind, max_n)
    return _lambda_from_parts(lhs, multiplier, lc_sum, dist_sum)


# ---------------------------------------------------------------------------
# Multilabel expectation bound (Monte Carlo)
# ---------------------------------------------------------------------------

def _sample_label_matrix(rng: np.random.Generator, n: int, C: int, p: float) -> np.ndarray:
    """(n, C) boolean membership matrix; empty rows are rejection-resampled."""
    Y = rng.random((n, C)) < p
    while True:
        empty = ~Y.any(axis=1)
        if not empty.any():
            return Y
        Y[empty] = rng.random((int(empty.sum()), C)) < p


def multilabel_bound_check(codes, C: int, p: float, centers, trials: int,
                           seed: int, kind: TripletLossKind | None = None) -> BoundReport:
    """Monte Carlo check of the multilabel expectation bound.

    Label sets are drawn with independent per-label inclusion probability p
    (empty draws resampled, so the check conditions on non-empty label sets).
    Per trial the exhaustive weighted triplet loss is compared with

        (C-1) p^2 n^2 * sum_i [ q(|Y_i|) lmc_i + (Q + q(|Y_i|)) sum_{s in Y_i} d_is ]

    where q(x) = (C-x)/(C-1) * (1-p)^x and Q = (1-p)^2 (1-p^2)^(C-2).  The
    verdict compares empirical means with a one-sided 99% confidence margin.
    """
    if not 0.0 < p < 1.0:
        raise PreconditionError("p must lie strictly between 0 and 1")
    p = min(p, 0.99)
    if trials < 1000:
        raise PreconditionError("need at least 1000 Monte Carlo trials")
    kind = kind if kind is not None else margin_loss(1.0)
    codes = np.asarray(codes, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    n = codes.shape[0]
    rng = np.random.default_rng(seed)

    D = _pairwise_distances(codes)
    Dc = _code_center_distances(codes, centers)
    # G[i, j, k] = g(|h_i - h_j|, |h_i - h_k|), precomputed once.
    G = kind.g(D[:, :, None], D[:, None, :])
    # Gc[i, s, t] = g(d_is, d_it) for the per-item classification-style term.
    Gc = kind.g(Dc[:, :, None], Dc[:, None, :])

    multiplier = (C - 1) * p * p * n * n
    Q = (1.0 - p) ** 2 * (1.0 - p * p) ** (C - 2)
    not_eye = ~np.eye(n, dtype=bool)

    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for t in range(trials):
        Y = _sample_label_matrix(rng, n, C, p)
        overlap = (Y[:, None, :] & Y[None, :, :]).sum(axis=2)
        sim_w = overlap * not_eye                    # r_ij with the diagonal off
        dis = overlap == 0
        lhs[t] = np.einsum("ij,ik,ijk->", sim_w.astype(np.float64),
                           dis.astype(np.float64), G)

        sizes = Y.sum(axis=1)
        qy = (C - sizes) / (C - 1) * (1.0 - p) ** sizes
        pos = Y[:, :, None] & ~Y[:, None, :]         # (i, s in Y_i, t not in Y_i)
        lmc_raw = np.where(pos, Gc, 0.0).sum(axis=(1, 2))
        neg_counts = np.maximum(C - sizes, 1)        # |Y_i| = C gives empty sum
        lmc = lmc_raw / neg_counts
        dist_term = np.where(Y, Dc, 0.0).sum(axis=1)
        rhs[t] = multiplier * float((qy * lmc + (Q + qy) * dist_term).sum())

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
        if any(s <= 0 for s in self.sigma_grid):
            raise PreconditionError("all sigma values must be positive")
        if any(d < 0 for d in self.d_grid):
            raise PreconditionError("center distances must be non-negative")


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
        cs = LabeledCodeSet.from_single_labels(codes, y, cfg.C)
        lt = brute_force_triplet_loss(cs, kind, max_n=n)
        # relaxed comparator summed over the same exhaustive triplet set
        relaxed = 0.0
        for i in range(n):
            sim = (y == y[i]) & (np.arange(n) != i)
            dis = y != y[i]
            g_part = kind.g(d_own[i], Dc[i, y[dis]])
            relaxed += float(
                (g_part[None, :] + d_own[sim][:, None] + d_own[dis][None, :]).sum()
            )
    else:
        T = cfg.triplet_samples
        i_idx = rng.integers(0, n, T)
        # j: same cluster as i, j != i
        off = rng.integers(0, m - 1, T)
        pos_in_cluster = i_idx % m
        j_off = off + (off >= pos_in_cluster)
        j_idx = (i_idx // m) * m + j_off
        # k: uniform over the other clusters
        k_raw = rng.integers(0, n - m, T)
        k_idx = np.where(k_raw >= (i_idx // m) * m, k_raw + m, k_raw)
        d_ij = np.linalg.norm(codes[i_idx] - codes[j_idx], axis=1)
        d_ik = np.linalg.norm(codes[i_idx] - codes[k_idx], axis=1)
        lt = float(kind.g(d_ij, d_ik).mean()) * total_triplets
        relaxed_terms = (
            kind.g(d_own[i_idx], Dc[i_idx, y[k_idx]])
            + d_own[j_idx]
            + d_own[k_idx]
        )
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
