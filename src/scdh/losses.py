"""Loss functions and their hand-derived gradients.

Everything here is a pure function of its inputs, computed in float64.
Centers are held as an ``(r, C)`` matrix whose columns are the per-label
cluster centers; embeddings are length-``r`` vectors (the real-valued
activations that get sign-thresholded into hash codes downstream).  The
batched functions (``scul_batch`` and its helpers) take an ``(n, r)``
matrix with one embedding per row; the per-sample functions are their
reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DimensionMismatch, LabelSetError, NonFiniteError

Array = np.ndarray


@dataclass(frozen=True)
class TripletLossKind:
    """Choice of the ranking comparator g(d_pos, d_neg).

    ``margin`` is the hinge form max(0, m + d_pos - d_neg).  ``softmax`` is
    the probabilistic form -log(exp(-d_pos) / (exp(-d_pos) + exp(-d_neg) + B))
    where B >= 0 is a fixed non-negative background mass; with B = 0 it
    reduces to softplus(d_pos - d_neg).  Both are non-negative, monotone
    (increasing in d_pos, decreasing in d_neg) and 1-Lipschitz in each
    argument, which is the contract the bound machinery relies on.
    """

    kind: str = "margin"
    margin: float = 1.0

    def __post_init__(self):
        if self.kind not in ("margin", "softmax"):
            raise ValueError(f"unknown triplet loss kind: {self.kind!r}")
        if self.kind == "margin" and not 0.0 <= self.margin < np.inf:
            raise ValueError("margin must be finite and non-negative")

    def g(self, d_pos, d_neg, background=0.0):
        """Evaluate g elementwise; broadcasts like numpy."""
        d_pos = np.asarray(d_pos, dtype=np.float64)
        d_neg = np.asarray(d_neg, dtype=np.float64)
        if self.kind == "margin":
            return np.maximum(0.0, self.margin + d_pos - d_neg)
        # softmax: d_pos + log(exp(-d_pos) + exp(-d_neg) + B), stabilised
        tail = np.logaddexp(-d_pos, -d_neg)
        if np.any(np.asarray(background) > 0.0):
            tail = np.logaddexp(tail, np.log(background))
        return d_pos + tail


def margin_loss(m: float = 1.0) -> TripletLossKind:
    return TripletLossKind("margin", m)


def softmax_loss() -> TripletLossKind:
    return TripletLossKind("softmax")


def _as_vector(x, name: str) -> Array:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


def _as_centers(centers) -> Array:
    m = np.asarray(centers, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"centers must be an (r, C) matrix, got shape {m.shape}")
    return m


def _normalize_labels(y, C: int) -> tuple[int, ...]:
    """Coerce an int or iterable of ints into a sorted, validated label tuple."""
    if isinstance(y, (int, np.integer)):
        labels = (int(y),)
    else:
        labels = tuple(sorted({int(l) for l in y}))
    if not labels:
        raise LabelSetError("label set is empty")
    if labels[0] < 0 or labels[-1] >= C:
        raise LabelSetError(f"labels {labels} out of range for C={C}")
    return labels


def euclidean_distance(a, b) -> float:
    """L2 distance between two equal-length vectors."""
    a = _as_vector(a, "a")
    b = _as_vector(b, "b")
    if a.shape != b.shape:
        raise DimensionMismatch(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    return float(np.linalg.norm(a - b))


def center_distances(f, centers) -> Array:
    """Vector of Euclidean distances from embedding f to every center column."""
    f = _as_vector(f, "f")
    centers = _as_centers(centers)
    if centers.shape[0] != f.shape[0]:
        raise DimensionMismatch(
            f"embedding length {f.shape[0]} != center rows {centers.shape[0]}"
        )
    return np.linalg.norm(centers - f[:, None], axis=0)


def stable_softmax(z) -> Array:
    """Softmax with max-subtraction; entries positive, summing to 1."""
    z = _as_vector(z, "z")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("softmax input contains non-finite entries")
    shifted = z - z.max()
    e = np.exp(shifted)
    return e / e.sum()


def neg_dist_softmax(f, centers) -> Array:
    """Class probabilities p_k = softmax over negative center distances."""
    d = center_distances(f, centers)
    if not np.all(np.isfinite(d)):
        raise NonFiniteError("non-finite center distance")
    return stable_softmax(-d)


def _log_p(d: Array) -> Array:
    """log softmax(-d), computed stably from a distance vector."""
    z = -d
    m = z.max()
    return z - (m + np.log(np.exp(z - m).sum()))


def scul_loss(f, y, centers, lam: float) -> float:
    """Single-label semantic-cluster unary loss.

    -log p_y + lam * |f - c_y|, with p the negative-distance softmax.
    ``y`` may be an int or a singleton label set.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    centers = _as_centers(centers)
    labels = _normalize_labels(y, centers.shape[1])
    if len(labels) != 1:
        raise LabelSetError("scul_loss expects a single label; use the multilabel form")
    d = center_distances(f, centers)
    y = labels[0]
    return float(-_log_p(d)[y] + lam * d[y])


@dataclass
class SculGradients:
    """Analytic gradients of a unary loss w.r.t. the embedding and centers."""

    grad_embedding: Array  # (r,)
    grad_centers: Array    # (r, C), zero columns where untouched


def _unit_directions(f: Array, centers: Array, d: Array) -> Array:
    """(r, C) matrix of (f - c_j)/|f - c_j|; zero columns at zero distance.

    The zero-distance column is the subgradient choice for the kink of the
    Euclidean norm: any unit vector is valid, zero keeps gradients finite.
    """
    diff = f[:, None] - centers
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.where(d > 0.0, diff / d, 0.0)
    return u


def scul_gradients(f, y, centers, lam: float) -> SculGradients:
    """Gradients of scul_loss w.r.t. f and every center column."""
    if lam < 0:
        raise ValueError("lam must be non-negative")
    f = _as_vector(f, "f")
    centers = _as_centers(centers)
    labels = _normalize_labels(y, centers.shape[1])
    if len(labels) != 1:
        raise LabelSetError("scul_gradients expects a single label")
    y = labels[0]
    d = center_distances(f, centers)
    p = stable_softmax(-d)
    u = _unit_directions(f, centers, d)

    grad_f = (1.0 + lam) * u[:, y] - u @ p
    grad_c = u * p[None, :]                 # -p_j * (c_j - f)/d_j for j != y
    grad_c[:, y] = -(1.0 - p[y] + lam) * u[:, y]
    return SculGradients(grad_f, grad_c)


def scul_multilabel_loss(f, labels, centers, lam: float) -> float:
    """Multilabel semantic-cluster unary loss.

    (1/|Y|) * sum_{s in Y} -log p_s  +  lam * sum_{s in Y} |f - c_s|.
    The 1/|Y| weight is the reciprocal-count choice used by the trainer.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    centers = _as_centers(centers)
    C = centers.shape[1]
    Y = _normalize_labels(labels, C)
    if len(Y) >= C:
        raise LabelSetError("label set covers every class; no negative class exists")
    d = center_distances(f, centers)
    logp = _log_p(d)
    idx = list(Y)
    return float(-logp[idx].mean() + lam * d[idx].sum())


def scul_multilabel_gradients(f, labels, centers, lam: float) -> SculGradients:
    """Gradients of scul_multilabel_loss w.r.t. f and the centers.

    Per-distance coefficient: [k in Y]*(1/|Y| + lam) - p_k, pushed through
    the unit directions (f - c_k)/|f - c_k|.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    f = _as_vector(f, "f")
    centers = _as_centers(centers)
    C = centers.shape[1]
    Y = _normalize_labels(labels, C)
    if len(Y) >= C:
        raise LabelSetError("label set covers every class; no negative class exists")
    d = center_distances(f, centers)
    p = stable_softmax(-d)
    u = _unit_directions(f, centers, d)

    coef = -p.copy()
    coef[list(Y)] += 1.0 / len(Y) + lam
    grad_f = u @ coef
    grad_c = -u * coef[None, :]
    return SculGradients(grad_f, grad_c)


def _check_dual_norms(p: float, q: float):
    if p <= 1.0 or q <= 1.0:
        raise ValueError("p and q must both exceed 1")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise ValueError(f"(p, q) = ({p}, {q}) are not dual: 1/p + 1/q != 1")


def quantization_loss(f, p: float = 3.0, q: float = 1.5) -> float:
    """Anti-quantization penalty 1 - sum|f_i| / (r^(1/q) * ||f||_p).

    In [0, 1] by Hoelder's inequality; 0 exactly when all |f_i| agree, so it
    drives entries toward equal magnitude before sign binarization.  Scale
    invariant.  The zero vector gets the maximal penalty 1.0 (maximally
    ambiguous for sign thresholding).
    """
    _check_dual_norms(p, q)
    f = _as_vector(f, "f")
    a = np.abs(f)
    norm_p = float((a**p).sum() ** (1.0 / p))
    if norm_p == 0.0:
        return 1.0
    ones_q = float(len(f)) ** (1.0 / q)
    val = 1.0 - a.sum() / (ones_q * norm_p)
    return float(min(1.0, max(0.0, val)))


def quantization_gradient(f, p: float = 3.0, q: float = 1.5) -> Array:
    """Gradient of quantization_loss; entries exactly at 0 get subgradient 0."""
    _check_dual_norms(p, q)
    f = _as_vector(f, "f")
    a = np.abs(f)
    s = a.sum()
    norm_p = float((a**p).sum() ** (1.0 / p))
    if norm_p == 0.0:
        return np.zeros_like(f)
    ones_q = float(len(f)) ** (1.0 / q)
    sign = np.sign(f)
    # d/df_i [S / N_p] = sign_i/N_p - S * sign_i * |f_i|^(p-1) * N_p^(-p-1)
    grad = -(sign * norm_p - s * sign * a ** (p - 1.0) * norm_p ** (1.0 - p)) / (
        ones_q * norm_p**2
    )
    return grad


def classification_loss(logits, labels) -> tuple[float, Array]:
    """Cross-entropy of a logit vector against one or several labels.

    Single label: -log softmax(logits)_y.  Multilabel: the mean of the
    per-label cross-entropies.  Returns (loss, gradient w.r.t. logits).
    """
    logits = _as_vector(logits, "logits")
    C = logits.shape[0]
    Y = _normalize_labels(labels, C)
    m = logits.max()
    logp = logits - (m + np.log(np.exp(logits - m).sum()))
    idx = list(Y)
    loss = float(-logp[idx].mean())
    target = np.zeros(C)
    target[idx] = 1.0 / len(Y)
    grad = np.exp(logp) - target
    return loss, grad


def require_negative_class(Y) -> None:
    """Raise LabelSetError naming the first row of the (n, C) label matrix
    whose several labels cover every class: it would have no negative class.
    """
    Y = np.asarray(Y, dtype=bool)
    full = Y.all(axis=1) & (Y.shape[1] > 1)
    if full.any():
        i = int(np.argmax(full))
        raise LabelSetError(f"row {i}: label set covers every class; no negative "
                            "class exists")


def center_directions(F, centers) -> tuple[Array, Array]:
    """Distances from every row of F to every center, and their unit directions.

    Returns ``D`` (n, C) with D[i, k] = |f_i - c_k| and ``U`` (n, r, C) with
    U[i, :, k] = (f_i - c_k) / D[i, k], zero where D[i, k] = 0 (the
    subgradient choice of ``_unit_directions``).  Both come from the
    differences, so no precision is lost near a center.
    """
    diff = F[:, :, None] - centers[None, :, :]
    D = np.sqrt(np.einsum("nrc,nrc->nc", diff, diff))
    with np.errstate(invalid="ignore", divide="ignore"):
        U = np.where(D[:, None, :] > 0.0, diff / D[:, None, :], 0.0)
    return D, U


def distance_gradients(U, coef) -> tuple[Array, Array]:
    """Gradients of sum_ik coef[i, k] * |f_i - c_k| w.r.t. F and the centers.

    ``U`` is the (n, r, C) direction tensor of ``center_directions``; returns
    (grad_F (n, r), grad_centers (r, C)).
    """
    grad_F = np.matmul(U, coef[:, :, None])[:, :, 0]
    return grad_F, -np.einsum("nrc,nc->rc", U, coef)


def quantization_batch(F, p: float = 3.0, q: float = 1.5) -> tuple[Array, Array]:
    """Row-wise ``quantization_loss`` and ``quantization_gradient`` of (n, r) F.

    All-zero rows get loss 1 and gradient 0; entries exactly at 0 get
    subgradient 0.
    """
    _check_dual_norms(p, q)
    a = np.abs(F)
    s = a.sum(axis=1)
    norm_p = (a**p).sum(axis=1) ** (1.0 / p)
    live = norm_p > 0.0
    safe = np.where(live, norm_p, 1.0)
    ones_q = float(F.shape[1]) ** (1.0 / q)
    loss = np.where(live, np.clip(1.0 - s / (ones_q * safe), 0.0, 1.0), 1.0)
    sign = np.sign(F)
    n_col, s_col = safe[:, None], s[:, None]
    grad = -(sign * n_col - s_col * sign * a ** (p - 1.0) * n_col ** (1.0 - p)) / (
        ones_q * n_col**2
    )
    return loss, np.where(live[:, None], grad, 0.0)


@dataclass
class SculBatch:
    """Per-row objective terms of one batch and their gradients.

    Rows whose label-matrix row is zero are unlabeled: their scul,
    classification and center-distance terms and gradients are zero, and
    only the quantization term applies.
    """

    scul: Array               # (n,) cluster softmax loss plus lam * center pull
    classification: Array     # (n,) cross-entropy of the logits
    quantization: Array       # (n,) Hoelder quantization penalty
    center_distance: Array    # (n,) summed distance to the row's own centers
    grad_embedding: Array     # (n, r) d scul / d F
    grad_quantization: Array  # (n, r) d quantization / d F
    grad_logits: Array        # (n, C) d classification / d logits
    grad_centers: Array       # (r, C) d (sum of scul) / d centers
    distances: Array          # (n, C) |f_i - c_k|
    directions: Array         # (n, r, C) unit directions, see center_directions


def _log_softmax_rows(Z: Array) -> Array:
    m = Z.max(axis=1, keepdims=True)
    return Z - (m + np.log(np.exp(Z - m).sum(axis=1, keepdims=True)))


def scul_batch(F, centers, logits, Y, lam: float, p: float = 3.0,
               q: float = 1.5) -> SculBatch:
    """The unary objective's terms and gradients for a whole batch at once.

    ``F`` is (n, r), ``centers`` (r, C), ``logits`` (n, C) and ``Y`` the
    (n, C) label matrix of ``data.Dataset``.  Row by row the terms equal
    ``scul_loss`` (one label) or ``scul_multilabel_loss`` (several),
    ``classification_loss`` and ``quantization_loss``.  Single-label and
    multilabel rows share one per-distance coefficient
    [k in Y](1/|Y| + lam) - p_k, pushed through the unit directions.
    """
    if lam < 0:
        raise ValueError("lam must be non-negative")
    F = np.asarray(F, dtype=np.float64)
    centers = _as_centers(centers)
    logits = np.asarray(logits, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    n, C = Y.shape
    if F.ndim != 2 or F.shape != (n, centers.shape[0]) or centers.shape[1] != C:
        raise DimensionMismatch(f"F {F.shape}, centers {centers.shape} and labels "
                                f"{Y.shape} do not agree")
    if logits.shape != (n, C):
        raise DimensionMismatch(f"logits {logits.shape} != labels {Y.shape}")
    count = Y.sum(axis=1)
    labeled = (count > 0.0)[:, None]
    inv = 1.0 / np.maximum(count, 1.0)

    D, U = center_directions(F, centers)
    logp = _log_softmax_rows(-D)
    pull = (Y * D).sum(axis=1)
    scul = -(Y * logp).sum(axis=1) * inv + lam * pull
    coef = Y * (inv[:, None] + lam) - np.where(labeled, np.exp(logp), 0.0)
    grad_F, grad_c = distance_gradients(U, coef)

    logq = _log_softmax_rows(logits)
    classification = -(Y * logq).sum(axis=1) * inv
    grad_logits = np.where(labeled, np.exp(logq) - Y * inv[:, None], 0.0)

    quant, grad_q = quantization_batch(F, p, q)
    return SculBatch(scul, classification, quant, pull, grad_F, grad_q,
                     grad_logits, grad_c, D, U)


def triplet_ranking_loss(d_pos: float, d_neg: float, kind: TripletLossKind) -> float:
    """Ranking loss g(d_pos, d_neg) for one (anchor, positive, negative) triplet."""
    if d_pos < 0 or d_neg < 0:
        raise ValueError("distances must be non-negative")
    return float(kind.g(d_pos, d_neg))
