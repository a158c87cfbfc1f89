"""Loss functions and their hand-derived gradients.

Everything here is a pure function of its inputs, computed in float64.
Centers are held as an ``(r, C)`` matrix whose columns are the per-label
cluster centers; embeddings are length-``r`` vectors (the real-valued
activations that get sign-thresholded into hash codes downstream).
``scul_batch`` and its helpers take an ``(n, r)`` matrix with one embedding
per row and compute a whole batch's terms and gradients at once.  Their
per-sample reference, one embedding and one label set at a time, lives
with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DivergenceError, LabelSetError, PreconditionError

Array = np.ndarray


@dataclass(frozen=True)
class TripletLossKind:
    """Choice of the ranking comparator g(d_pos, d_neg).

    ``margin`` is the hinge form max(0, m + d_pos - d_neg).  ``softmax`` is
    the probabilistic form -log(exp(-d_pos) / (exp(-d_pos) + exp(-d_neg))),
    that is softplus(d_pos - d_neg); the softmax bound in ``bounds`` adds a
    fixed background mass to that denominator.  Both are non-negative,
    monotone (increasing in d_pos, decreasing in d_neg) and 1-Lipschitz in
    each argument, which is the contract the bound machinery relies on.
    """

    kind: str = "margin"
    margin: float = 1.0

    def __post_init__(self):
        if self.kind not in ("margin", "softmax"):
            raise ValueError(f"unknown triplet loss kind: {self.kind!r}")
        if self.kind == "margin" and not 0.0 <= self.margin < np.inf:
            raise ValueError("margin must be finite and non-negative")

    def g(self, d_pos, d_neg):
        """Evaluate g elementwise; broadcasts like numpy."""
        d_pos = np.asarray(d_pos, dtype=np.float64)
        d_neg = np.asarray(d_neg, dtype=np.float64)
        if self.kind == "margin":
            return np.maximum(0.0, self.margin + d_pos - d_neg)
        # softmax: d_pos + log(exp(-d_pos) + exp(-d_neg)), stabilised
        return d_pos + np.logaddexp(-d_pos, -d_neg)


def margin_loss(m: float = 1.0) -> TripletLossKind:
    return TripletLossKind("margin", m)


def _as_centers(centers) -> Array:
    m = np.asarray(centers, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"centers must be an (r, C) matrix, got shape {m.shape}")
    return m


def dual_exponent(p: float) -> float:
    """The Hoelder dual q = p / (p - 1) of p, so that 1/p + 1/q = 1.

    Raises PreconditionError unless 1 < p < 2^53: below 2^53, p - 1 is exact
    and less than p, so q stays above 1.
    """
    if not 1.0 < p < 2.0**53:
        raise PreconditionError(f"Hoelder exponent p={p} must lie in (1, 2^53)")
    return p / (p - 1.0)


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


def center_differences(F, centers) -> tuple[Array, Array]:
    """The (n, r, C) differences f_i - c_k of every row of F (n, r) from every
    center (r, C), and their (n, C) norms D[i, k] = |f_i - c_k|.

    The differences are taken from F's entries repeated C times: contiguous
    operands, where a stride-0 broadcast of F runs several times slower.
    """
    (n, r), C = F.shape, centers.shape[1]
    diff = F.repeat(C).reshape(n, r, C)
    diff -= centers
    D = np.einsum("nrc,nrc->nc", diff, diff)
    return diff, np.sqrt(D, out=D)


def center_directions(F, centers) -> tuple[Array, Array]:
    """Distances from every row of F to every center, and their unit directions.

    Returns ``D`` (n, C) with D[i, k] = |f_i - c_k| and ``U`` (n, r, C) with
    U[i, :, k] = (f_i - c_k) / D[i, k], zero where D[i, k] = 0 (any unit
    vector is a subgradient at the norm's kink; zero keeps gradients finite).
    Both come from the differences of ``center_differences``, so no precision
    is lost near a center.  When every distance is positive the differences
    are divided in place.
    """
    diff, D = center_differences(F, centers)
    if D.min(initial=np.inf) > 0.0:     # false for a zero or a NaN
        diff /= D[:, None, :]
        return D, diff
    with np.errstate(invalid="ignore", divide="ignore"):
        return D, np.where(D[:, None, :] > 0.0, diff / D[:, None, :], 0.0)


def distance_gradients(U, coef) -> tuple[Array, Array]:
    """Gradients of sum_ik coef[i, k] * |f_i - c_k| w.r.t. F and the centers.

    ``U`` is the (n, r, C) direction tensor of ``center_directions``; returns
    (grad_F (n, r), grad_centers (r, C)).
    """
    grad_F = np.matmul(U, coef[:, :, None])[:, :, 0]
    return grad_F, -np.einsum("nrc,nc->rc", U, coef)


def quantization_batch(F, p: float = 3.0) -> tuple[Array, Array]:
    """Row-wise penalty 1 - sum|f_i| / (r^(1/q) * ||f||_p) of (n, r) F, and
    its gradient; q is the dual exponent of p (``dual_exponent``).

    In [0, 1] by Hoelder's inequality and scale invariant; 0 exactly when all
    |f_i| of a row agree, so it drives entries toward equal magnitude before
    sign binarization.  All-zero rows get loss 1 and gradient 0; entries
    exactly at 0 get subgradient 0; a row holding a NaN gets a NaN loss and
    gradient.  The masks that give zero rows their values are applied only
    when such a row exists.

    A large p takes the p-norm out of float64 range: |f|^p overflows for
    entries above about 2^(1024/p) and underflows to 0 below about
    2^(-1074/p), and the gradient's scale N^(1-p) overflows for row norms N
    below 1.  Any of these raises DivergenceError naming the exponent, before
    a value it would poison is formed.
    """
    q = dual_exponent(p)
    a = np.abs(F)
    s = a.sum(axis=1)
    with np.errstate(over="ignore"):
        norm_p = (a**p).sum(axis=1) ** (1.0 / p)
        every_live = norm_p.min(initial=np.inf) > 0.0   # false for a zero or a NaN
        safe = norm_p if every_live else np.where(norm_p != 0.0, norm_p, 1.0)
        scale = safe ** (1.0 - p)
    # both are non-negative and one of them is at most 1, so their sum is inf
    # exactly when one overflowed; a NaN row (non-finite input) passes both
    # checks and is left to the caller's finite checks
    if (((safe + scale) == np.inf).any()
            or not every_live and ((norm_p == 0.0) & (s > 0.0)).any()):
        raise DivergenceError(f"Hoelder exponent p={p:g}: an embedding row's p-norm "
                              "or its gradient scale is out of float64 range; a "
                              "smaller --holder-p keeps both finite")
    ones_q = float(F.shape[1]) ** (1.0 / q)
    loss = 1.0 - s / (ones_q * safe)
    loss.clip(0.0, 1.0, out=loss)
    sign = np.sign(F)
    n_col, s_col = safe[:, None], s[:, None]
    # -(sign * N - S * sign * |f|^(p-1) * N^(1-p)) / (r^(1/q) * N^2), in place
    a **= p - 1.0
    tail = s_col * sign
    tail *= a
    tail *= scale[:, None]
    grad = sign
    grad *= n_col
    grad -= tail
    np.negative(grad, out=grad)
    grad /= ones_q * n_col**2
    if every_live:
        return loss, grad
    live = norm_p != 0.0
    return np.where(live, loss, 1.0), np.where(live[:, None], grad, 0.0)


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


def scul_batch(F, centers, logits, Y, lam: float, p: float = 3.0) -> SculBatch:
    """The unary objective's terms and gradients for a whole batch at once.

    ``F`` is (n, r), ``centers`` (r, C), ``logits`` (n, C) and ``Y`` the
    (n, C) label matrix of ``data.Dataset``.  A row with label set Y gets the
    unary loss (1/|Y|) sum_{s in Y} -log p_s + lam sum_{s in Y} |f - c_s|,
    p the softmax of the negative center distances, the mean cross-entropy
    of its logits over Y, and the quantization penalty at Hoelder exponent
    ``p``.  Single-label and multilabel rows share one per-distance
    coefficient [k in Y](1/|Y| + lam) - p_k, pushed through the unit
    directions.  The masks that zero the unlabeled rows are applied only when
    one exists.
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
    # with every row labeled, each count is at least 1 and no row is masked
    every_labeled = count.all()
    inv = 1.0 / (count if every_labeled else np.maximum(count, 1.0))
    inv_col = inv[:, None]

    D, U = center_directions(F, centers)
    logp = _log_softmax_rows(-D)
    pull = (Y * D).sum(axis=1)
    scul = -(Y * logp).sum(axis=1) * inv + lam * pull
    logq = _log_softmax_rows(logits)
    classification = -(Y * logq).sum(axis=1) * inv
    p_rows, grad_logits = np.exp(logp), np.exp(logq) - Y * inv_col
    if not every_labeled:
        labeled = count[:, None] > 0.0
        p_rows = np.where(labeled, p_rows, 0.0)
        grad_logits = np.where(labeled, grad_logits, 0.0)
    grad_F, grad_c = distance_gradients(U, Y * (inv_col + lam) - p_rows)

    quant, grad_q = quantization_batch(F, p)
    return SculBatch(scul, classification, quant, pull, grad_F, grad_q,
                     grad_logits, grad_c, D, U)

