"""The one training entry and its step: supervised, or semi-supervised
with an exponential-moving-average teacher.

``train_mt_scdh`` takes one ``Dataset``; a row with no label is unlabeled.
Its step, ``_sgd_step``, makes one SGD step with momentum on the summed
per-sample objective

    l_c(F(x), y) + mu * l_1(x, y) + lam * |F(x) - c_y| + alpha * l_q(F(x))
        + w * (mu * cons(logits) + cons(-|F(x) - c|))

with the multilabel substitution applied whenever a sample carries more
than one label; unlabeled rows get the quantization and consistency terms
only.  With a teacher, a copy of the student tracks it by EMA and its
outputs are the consistency targets: ``cons`` compares the student's
classifier logits and negative center-distance vector with the teacher's,
each after a softmax, under independent input perturbations.  Called with
no consistency arguments, the entry trains the supervised model: no noise,
no teacher and no consistency term.  All arithmetic is float64 and
single-threaded deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .data import Dataset
from .errors import DimensionMismatch, DivergenceError, NonFiniteError, PreconditionError
from .model import (
    EmbeddingModel,
    EpochRecord,
    Hyperparams,
    TrainReport,
    _backprop_chain,
    forward_batch,
    init_model,
    mean_quantization,
    sgd_update,
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
    """Per-row losses and student-side gradients."""

    classifier_loss: np.ndarray
    distance_loss: np.ndarray
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

    Works row-wise on (n, C) arrays and gives (n,) losses.  The teacher side
    is a constant target: gradients flow only into the student arrays.
    Returns both losses and both student-side gradients.
    """
    a = np.asarray(student_logits, dtype=np.float64)
    at = np.asarray(teacher_logits, dtype=np.float64)
    d = np.asarray(student_negdists, dtype=np.float64)
    dt = np.asarray(teacher_negdists, dtype=np.float64)
    if a.shape != at.shape or d.shape != dt.shape or a.ndim != 2 or d.ndim != 2:
        raise DimensionMismatch("student and teacher outputs must be (n, C) arrays "
                                "of one shape")
    cls_loss, cls_grad = _softmax_sqdist_rows(a, at)
    dist_loss, dist_grad = _softmax_sqdist_rows(d, dt)
    return ConsistencyResult(cls_loss, dist_loss, cls_grad, dist_grad)


def _sgd_step(model: EmbeddingModel, X, labels: np.ndarray, hp: Hyperparams,
              lr: float, target: tuple[np.ndarray, np.ndarray] | None = None,
              weight: float = 0.0) -> tuple[np.ndarray, float]:
    """One SGD step on the summed objective over a batch: forward pass, loss
    kernel, consistency term, finite checks, backprop and the momentum update.

    ``labels`` is the batch's (n, C) label matrix.  ``target``, if given, is
    the teacher's ``(logits, negative center distances)`` for the batch; the
    step then adds ``weight * (mu * classifier + distance)`` consistency.
    Returns the (4, n) per-row terms, in the order scul, classification,
    quantization, center distance, and the unweighted consistency loss (0.0
    without a target).
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
    if target is not None:
        cr = consistency_losses(logits, target[0], -k.distances, target[1])
        grad_logits += weight * hp.mu * cr.grad_logits
        # the negative distances feed both the embedding and the centers
        gF, gC = losses.distance_gradients(k.directions, -weight * cr.grad_negdists)
        grad_F += gF
        grads["centers"] += gC
        extra = float((hp.mu * cr.classifier_loss + cr.distance_loss).sum())
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
            target = None
            w_eff = w * min(1.0, step / ramp_steps)
            if w_eff > 0.0:
                Xt = perturb(batch, noise_std, noise_rng) if noise_std else batch
                Ft, logits_t, _ = forward_batch(teacher, Xt)
                target = logits_t, -losses.center_differences(Ft, teacher.centers)[1]
                cons_count += len(idx)
            rows, cons = _sgd_step(student, X, Y[idx], hp, lr, target, w_eff)
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
