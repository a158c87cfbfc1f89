"""The one training entry: supervised, or semi-supervised with an
exponential-moving-average teacher.

``train_mt_scdh`` takes one ``Dataset``; a row with no label is unlabeled.
The student takes the supervised objective on labeled rows and the
quantization penalty on unlabeled rows.  With a teacher, a copy of the
student tracks it by EMA and supplies consistency targets for both the
classifier logits and the negative center-distance vector, each compared
after a softmax under independent input perturbations.  Called with no
consistency arguments, it trains the supervised model: no noise and no
teacher.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .data import Dataset
from .errors import DimensionMismatch, NonFiniteError, PreconditionError
from .model import (
    EmbeddingModel,
    EpochRecord,
    Hyperparams,
    TrainReport,
    _sgd_step,
    forward_batch,
    init_model,
    mean_quantization,
    warmup_project,
)

# The mean-teacher settings of train-semi; the library defaults are supervised.
DEFAULT_CONSISTENCY_WEIGHT = 50.0
DEFAULT_EMA_DECAY = 0.999
DEFAULT_NOISE_STD = 0.1


def ema_update(teacher: EmbeddingModel, student: EmbeddingModel,
               decay: float) -> EmbeddingModel:
    """theta_T <- decay * theta_T + (1 - decay) * theta_S, elementwise."""
    if not 0.0 <= decay < 1.0:
        raise PreconditionError("decay must lie in [0, 1)")
    if teacher.layout != student.layout:
        raise DimensionMismatch("teacher and student parameter layouts differ")
    t = teacher.theta
    t *= decay
    t += (1.0 - decay) * student.theta
    return teacher


def perturb(x, noise_std: float, rng: np.random.Generator) -> np.ndarray:
    """Additive Gaussian perturbation; zero std returns an unmodified copy.

    Drawing is skipped entirely at zero std so the RNG stream is untouched.
    """
    if noise_std < 0:
        raise PreconditionError("noise_std must be non-negative")
    x = np.asarray(x, dtype=np.float64)
    if noise_std == 0.0:
        return x.copy()
    return x + rng.normal(0.0, noise_std, x.shape)


@dataclass
class ConsistencyResult:
    """Per-row losses (floats for 1-d inputs) and student-side gradients."""

    classifier_loss: np.ndarray | float
    distance_loss: np.ndarray | float
    grad_logits: np.ndarray    # d classifier_loss / d student logits
    grad_negdists: np.ndarray  # d distance_loss / d student negative distances


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    e = Z - Z.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_sqdist_rows(student: np.ndarray, teacher: np.ndarray):
    """|softmax(student_i) - softmax(teacher_i)|^2 per row, and its gradient."""
    if not (np.isfinite(student).all() and np.isfinite(teacher).all()):
        raise NonFiniteError("softmax input contains non-finite entries")
    s = _softmax_rows(student)
    e = s - _softmax_rows(teacher)
    # Jacobian of softmax applied to 2e: diag(s) - s s^T
    grad = s * e
    grad -= s * grad.sum(axis=1, keepdims=True)
    grad *= 2.0
    return (e * e).sum(axis=1), grad


def consistency_losses(student_logits, teacher_logits, student_negdists,
                       teacher_negdists) -> ConsistencyResult:
    """Squared distances between softmaxed student and teacher outputs.

    Works row-wise on (n, C) arrays; 1-d vectors are one row and give float
    losses.  The teacher side is a constant target: gradients flow only into
    the student arrays.  Returns both losses and both student-side gradients.
    """
    a = np.asarray(student_logits, dtype=np.float64)
    at = np.asarray(teacher_logits, dtype=np.float64)
    d = np.asarray(student_negdists, dtype=np.float64)
    dt = np.asarray(teacher_negdists, dtype=np.float64)
    if a.shape != at.shape or d.shape != dt.shape:
        raise DimensionMismatch("student/teacher output lengths differ")
    one_row = a.ndim == 1
    if one_row or d.ndim == 1:
        a, at, d, dt = map(np.atleast_2d, (a, at, d, dt))
    cls_loss, cls_grad = _softmax_sqdist_rows(a, at)
    dist_loss, dist_grad = _softmax_sqdist_rows(d, dt)
    if one_row:
        return ConsistencyResult(float(cls_loss[0]), float(dist_loss[0]),
                                 cls_grad[0], dist_grad[0])
    return ConsistencyResult(cls_loss, dist_loss, cls_grad, dist_grad)


def negative_center_distances(F, centers: np.ndarray) -> np.ndarray:
    """-|f_i - c_k| for every row of F (n, r) -> (n, C); a 1-d f gives (C,)."""
    F = np.asarray(F, dtype=np.float64)
    _, D = losses.center_differences(np.atleast_2d(F), np.asarray(centers, np.float64))
    return -D[0] if F.ndim == 1 else -D


def _consistency_term(teacher_logits: np.ndarray, teacher_negdists: np.ndarray,
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


def train_mt_scdh(dataset: Dataset, hp: Hyperparams, w: float = 0.0,
                  ema_decay: float | None = None, noise_std: float = 0.0, *,
                  r: int, hidden=(64,), ramp_fraction: float = 0.2
                  ) -> tuple[EmbeddingModel, EmbeddingModel | None, TrainReport]:
    """The one training entry: supervised by default, semi-supervised with a
    teacher.

    Rows with an all-False label row are unlabeled.  The rows are gathered
    once, the labeled ones in dataset order and then the unlabeled ones in
    dataset order; the shuffle indexes into that order.  Each step draws a
    mixed batch, perturbs the student and teacher inputs independently,
    applies the full supervised objective to labeled rows, the quantization
    penalty to unlabeled rows, and the consistency terms to every row; the
    student is updated by SGD and the teacher by EMA with the warm-up decay
    min(1 - 1/(step+1), ema_decay).  The first ``hp.warmup_epochs`` epochs
    project the center columns to norm ``hp.warmup_norm_s`` after every
    step.  The consistency weight ramps linearly from zero over the first
    ``ramp_fraction`` of training, so it is exactly zero at step 0.

    ``ema_decay=None``, the default, means no teacher: no copy, no EMA
    update, no teacher forward; ``w`` must then be 0 and the returned teacher
    is None.  Epoch report fields are means over the labeled rows, summed row
    by row.  Deterministic given (dataset, hp) under single-threaded
    execution.
    """
    if not (0.0 <= w < math.inf and 0.0 <= noise_std < math.inf
            and 0.0 <= ramp_fraction <= 1.0):
        raise PreconditionError("w and noise_std must be finite and non-negative, "
                                "and ramp_fraction must lie in [0, 1]")
    if ema_decay is None and w != 0.0:
        raise PreconditionError("a consistency weight needs a teacher (ema_decay)")
    if ema_decay is not None and not 0.0 <= ema_decay < 1.0:
        raise PreconditionError("ema_decay must lie in [0, 1)")
    mask = dataset.labeled_mask()
    n_lab = int(np.count_nonzero(mask))
    if n_lab == 0:
        raise PreconditionError("labeled set must be nonempty")
    losses.require_negative_class(dataset.labels)
    root = np.random.SeedSequence(hp.seed)
    init_ss, shuffle_ss, project_ss, noise_ss = root.spawn(4)
    student = init_model((dataset.dim, *hidden), dataset.label_count, r, init_ss)
    teacher = None if ema_decay is None else student.copy()
    rng = np.random.default_rng(shuffle_ss)
    project_rng = np.random.default_rng(project_ss)
    noise_rng = np.random.default_rng(noise_ss)

    # labeled rows first: the shuffle and the final mean take this order
    order = np.concatenate([np.flatnonzero(mask), np.flatnonzero(~mask)])
    features = dataset.features[order].astype(np.float64)
    Y = dataset.labels[order]
    n_total = dataset.n
    steps_per_epoch = (n_total + hp.batch_size - 1) // hp.batch_size
    ramp_steps = max(1, round(ramp_fraction * hp.epochs)) * steps_per_epoch

    report = TrainReport()
    step = 0
    for epoch in range(hp.epochs):
        lr = hp.lr_at(epoch)
        perm = rng.permutation(n_total)
        sup_sums = np.zeros(4)
        sup_count = 0
        cons_sum = 0.0
        cons_count = 0
        for a0 in range(0, n_total, hp.batch_size):
            idx = perm[a0:a0 + hp.batch_size]
            # the steps read their inputs and write none, so one gather serves
            # both; a zero noise draws nothing and needs no copy
            batch = features[idx]
            X = perturb(batch, noise_std, noise_rng) if noise_std else batch
            consistency = None
            w_eff = w * min(1.0, step / ramp_steps)
            if w_eff > 0.0:
                Xt = perturb(batch, noise_std, noise_rng) if noise_std else batch
                Ft, logits_t, _ = forward_batch(teacher, Xt)
                consistency = _consistency_term(
                    logits_t, negative_center_distances(Ft, teacher.centers),
                    w_eff, hp.mu)
                cons_count += len(idx)
            rows, cons = _sgd_step(student, X, Y[idx], hp, lr, consistency)
            cons_sum += cons
            labeled = idx < n_lab
            sup_sums += rows[:, labeled].sum(axis=1)
            sup_count += np.count_nonzero(labeled)
            if epoch < hp.warmup_epochs:
                student.centers[:] = warmup_project(student.centers,
                                                    hp.warmup_norm_s, project_rng)
            if teacher is not None:
                ema_update(teacher, student, min(1.0 - 1.0 / (step + 1), ema_decay))
            step += 1

        means = sup_sums / max(sup_count, 1)
        report.epochs.append(EpochRecord(
            epoch, *means, learning_rate=lr,
            consistency_loss=cons_sum / max(cons_count, 1)))
    report.final_quantization = mean_quantization(student, features, hp)
    return student, teacher, report
