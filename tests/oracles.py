"""Per-sample reference forms of the losses the training loop computes in batch.

``losses.scul_batch``, ``losses.quantization_batch`` and the mean teacher's
``_softmax_sqdist_rows`` work on whole (n, ...) arrays.  The functions here
take one embedding, one logit vector or one label set at a time and follow
the paper's formulas term by term; the tests compare the batched kernels
against them and check their hand-derived gradients by finite differences.
Centers are an ``(r, C)`` matrix whose columns are the per-label cluster
centers.  At the end, ``ref_scul_batch`` and its helpers keep the batch
kernel in its plain form, with no fast path, for byte-for-byte comparison,
and ``ref_sgd_step`` keeps the training step as it stood when the
consistency term reached it through a callback.  ``ref_redrawn_label_matrix``
keeps the multilabel sampler as it stood when every redraw round rescanned
all n rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scdh import losses
from scdh.errors import (DimensionMismatch, DivergenceError, LabelSetError,
                         NonFiniteError, PreconditionError)
from scdh.losses import SculBatch, _as_centers
from scdh.meanteacher import consistency_losses
from scdh.model import (EmbeddingModel, Hyperparams, _backprop_chain, forward_batch,
                        sgd_update)

Array = np.ndarray


def _check_dual_norms(p: float, q: float):
    """The references take the exponents (p, q) apart and check that they
    are dual, 1/p + 1/q = 1, where ``losses`` works q out from p."""
    if p <= 1.0 or q <= 1.0:
        raise ValueError("p and q must both exceed 1")
    if abs(1.0 / p + 1.0 / q - 1.0) > 1e-9:
        raise ValueError(f"(p, q) = ({p}, {q}) are not dual: 1/p + 1/q != 1")


def _as_vector(x, name: str) -> Array:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-d vector, got shape {v.shape}")
    return v


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


def softmax_sqdist_grad(student_vec: np.ndarray, teacher_vec: np.ndarray):
    """|softmax(student) - softmax(teacher)|^2 of one row, and its gradient
    w.r.t. the student: the per-row form of the mean teacher's consistency."""
    s = stable_softmax(student_vec)
    t = stable_softmax(teacher_vec)
    e = s - t
    loss = float(e @ e)
    # Jacobian of softmax applied to 2e: diag(s) - s s^T
    grad = 2.0 * (s * e - s * float(s @ e))
    return loss, grad


# ---------------------------------------------------------------------------
# The batch kernel as it stood before its fast paths: a stride-0 broadcast
# difference tensor, and a ``np.where`` mask and a clip on every call.  The
# tests require the kernel to equal it byte for byte, signed zeros included.
# ---------------------------------------------------------------------------

def ref_center_differences(F, centers) -> tuple[Array, Array]:
    """The (n, r, C) differences f_i - c_k of every row of F (n, r) from every
    center (r, C), and their (n, C) norms D[i, k] = |f_i - c_k|."""
    diff = F[:, :, None] - centers[None, :, :]
    return diff, np.sqrt(np.einsum("nrc,nrc->nc", diff, diff))


def ref_center_directions(F, centers) -> tuple[Array, Array]:
    """Distances from every row of F to every center, and their unit directions.

    Returns ``D`` (n, C) with D[i, k] = |f_i - c_k| and ``U`` (n, r, C) with
    U[i, :, k] = (f_i - c_k) / D[i, k], zero where D[i, k] = 0 (any unit
    vector is a subgradient at the norm's kink; zero keeps gradients finite).
    Both come from the differences of ``center_differences``, so no precision
    is lost near a center.
    """
    diff, D = ref_center_differences(F, centers)
    with np.errstate(invalid="ignore", divide="ignore"):
        U = np.where(D[:, None, :] > 0.0, diff / D[:, None, :], 0.0)
    return D, U


def ref_distance_gradients(U, coef) -> tuple[Array, Array]:
    """Gradients of sum_ik coef[i, k] * |f_i - c_k| w.r.t. F and the centers.

    ``U`` is the (n, r, C) direction tensor of ``center_directions``; returns
    (grad_F (n, r), grad_centers (r, C)).
    """
    grad_F = np.matmul(U, coef[:, :, None])[:, :, 0]
    return grad_F, -np.einsum("nrc,nc->rc", U, coef)


def ref_quantization_batch(F, p: float = 3.0, q: float = 1.5) -> tuple[Array, Array]:
    """Row-wise penalty 1 - sum|f_i| / (r^(1/q) * ||f||_p) of (n, r) F, and
    its gradient.

    In [0, 1] by Hoelder's inequality and scale invariant; 0 exactly when all
    |f_i| of a row agree, so it drives entries toward equal magnitude before
    sign binarization.  All-zero rows get loss 1 and gradient 0; entries
    exactly at 0 get subgradient 0.
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


def _ref_log_softmax_rows(Z: Array) -> Array:
    m = Z.max(axis=1, keepdims=True)
    return Z - (m + np.log(np.exp(Z - m).sum(axis=1, keepdims=True)))


def ref_scul_batch(F, centers, logits, Y, lam: float, p: float = 3.0,
                   q: float = 1.5) -> SculBatch:
    """The unary objective's terms and gradients for a whole batch at once.

    ``F`` is (n, r), ``centers`` (r, C), ``logits`` (n, C) and ``Y`` the
    (n, C) label matrix of ``data.Dataset``.  A row with label set Y gets the
    unary loss (1/|Y|) sum_{s in Y} -log p_s + lam sum_{s in Y} |f - c_s|,
    p the softmax of the negative center distances, the mean cross-entropy
    of its logits over Y, and the quantization penalty.  Single-label and
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

    D, U = ref_center_directions(F, centers)
    logp = _ref_log_softmax_rows(-D)
    pull = (Y * D).sum(axis=1)
    scul = -(Y * logp).sum(axis=1) * inv + lam * pull
    coef = Y * (inv[:, None] + lam) - np.where(labeled, np.exp(logp), 0.0)
    grad_F, grad_c = ref_distance_gradients(U, coef)

    logq = _ref_log_softmax_rows(logits)
    classification = -(Y * logq).sum(axis=1) * inv
    grad_logits = np.where(labeled, np.exp(logq) - Y * inv[:, None], 0.0)

    quant, grad_q = ref_quantization_batch(F, p, q)
    return SculBatch(scul, classification, quant, pull, grad_F, grad_q,
                     grad_logits, grad_c, D, U)



# ---------------------------------------------------------------------------
# The training step as it stood in ``model``, with the mean teacher's
# consistency term passed in as a callback the loop built on every step.
# The bodies are kept verbatim; the tests require ``meanteacher._sgd_step``
# to give the same bytes.
# ---------------------------------------------------------------------------

def ref_sgd_step(model: EmbeddingModel, X, labels: np.ndarray, hp: Hyperparams,
                 lr: float, consistency=None) -> tuple[np.ndarray, float]:
    """One SGD step on the summed objective over a batch: forward pass, loss
    kernel, finite checks, backprop and the momentum update.

    ``labels`` is the batch's (n, C) label matrix.  ``consistency``, if given,
    is called as ``consistency(logits, k, grad_F, grad_logits, grad_centers)``
    after the kernel: it adds its gradients in place and returns its loss.
    Returns the (4, n) per-row terms, in the order scul, classification,
    quantization, center distance, and that loss (0.0 without one).
    """
    if len(labels) == 0:
        raise PreconditionError("empty batch")
    F, logits, acts = forward_batch(model, X)
    if not (np.isfinite(F).all() and np.isfinite(logits).all()):
        raise DivergenceError(
            "non-finite activations in the forward pass; the learning rate is "
            "likely too high"
        )
    # one kernel call serves every row; unlabeled rows get quantization only
    k = losses.scul_batch(F, model.centers, logits, labels, hp.lam, hp.holder_p)
    grad_F = k.grad_embedding + hp.alpha * k.grad_quantization
    grad_logits = hp.mu * k.grad_logits
    grads = model.grads
    np.copyto(grads["centers"], k.grad_centers)
    extra = 0.0
    if consistency is not None:
        extra = consistency(logits, k, grad_F, grad_logits, grads["centers"])
    rows = np.array([k.scul, k.classification, k.quantization, k.center_distance])
    sums = rows.sum(axis=1)
    # scul already contains the lam-weighted distance term
    total = sums[0] + hp.mu * sums[1] + hp.alpha * sums[2] + extra
    if not np.isfinite(total):
        raise DivergenceError(
            f"non-finite step loss {total}; the learning rate is likely too high"
        )
    _backprop_chain(model, acts, grad_F, grad_logits, grads)
    # every block is written; adding 0.0 turns each -0 into +0, as a sum into
    # a zeroed vector would: the momentum update of a -0 velocity reads the sign
    model.grad += 0.0
    sgd_update(model, lr, hp.momentum)
    return rows, extra


def ref_negative_center_distances(F, centers: np.ndarray) -> np.ndarray:
    """-|f_i - c_k| for every row of F (n, r) -> (n, C); a 1-d f gives (C,)."""
    F = np.asarray(F, dtype=np.float64)
    _, D = losses.center_differences(np.atleast_2d(F), np.asarray(centers, np.float64))
    return -D[0] if F.ndim == 1 else -D


def ref_consistency_term(teacher_logits: np.ndarray, teacher_negdists: np.ndarray,
                         weight: float, mu: float):
    """The ``_sgd_step`` callback for ``weight * (mu * classifier + distance)``
    consistency against the teacher's outputs; it returns the unweighted loss."""
    def add(logits, k, grad_F, grad_logits, grad_centers) -> float:
        cr = consistency_losses(logits, teacher_logits, -k.distances, teacher_negdists)
        grad_logits += weight * mu * cr.grad_logits
        # the negative distances feed both the embedding and the centers
        gF, gC = losses.distance_gradients(k.directions, -weight * cr.grad_negdists)
        grad_F += gF
        grad_centers += gC
        return float((mu * cr.classifier_loss + cr.distance_loss).sum())
    return add


def ref_redrawn_label_matrix(rng: np.random.Generator, n: int, C: int,
                             p: float) -> np.ndarray:
    """The label sampler that rescans every row in every redraw round: the
    matrix and the generator state it leaves are what ``data`` must match."""
    Y = rng.random((n, C)) < p
    while True:
        bad = ~Y.any(axis=1) | Y.all(axis=1)
        if not bad.any():
            return Y
        Y[bad] = rng.random((int(bad.sum()), C)) < p
