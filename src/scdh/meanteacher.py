"""The training loop: semi-supervised with an exponential-moving-average
teacher, and supervised as its special case.

The student takes the supervised objective on labeled rows and the
quantization penalty on unlabeled rows; a teacher copy tracks it by EMA and
supplies consistency targets for both the classifier logits and the
negative center-distance vector, each compared after a softmax under
independent input perturbations.  Supervised training (``train_scdh``) is
the same loop with no unlabeled rows, no noise and no teacher.
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

DEFAULT_CONSISTENCY_WEIGHT = 50.0
DEFAULT_EMA_DECAY = 0.999
DEFAULT_NOISE_STD = 0.1


@dataclass
class TeacherState:
    """EMA shadow of the student; only ema_update may touch its parameters."""

    model: EmbeddingModel
    ema_decay: float

    def __post_init__(self):
        if not 0.0 <= self.ema_decay < 1.0:
            raise PreconditionError("ema_decay must lie in [0, 1)")


@dataclass
class SemiDataset:
    """Labeled pool plus disjoint unlabeled pool."""

    labeled: Dataset
    unlabeled: Dataset

    def __post_init__(self):
        if self.labeled.n == 0:
            raise PreconditionError("labeled set must be nonempty")
        if not self.labeled.labeled_mask().all():
            raise PreconditionError("labeled split contains unlabeled rows")
        if set(self.labeled.ids.tolist()) & set(self.unlabeled.ids.tolist()):
            raise PreconditionError("labeled and unlabeled ids overlap")
        if self.unlabeled.n and self.unlabeled.dim != self.labeled.dim:
            raise DimensionMismatch("labeled/unlabeled feature widths differ")

    @classmethod
    def from_partial(cls, dataset: Dataset) -> "SemiDataset":
        mask = dataset.labeled_mask()
        return cls(dataset.subset(np.nonzero(mask)[0]),
                   dataset.subset(np.nonzero(~mask)[0]))


def ema_update(teacher: TeacherState, student: EmbeddingModel,
               decay: float) -> TeacherState:
    """theta_T <- decay * theta_T + (1 - decay) * theta_S, elementwise."""
    if not 0.0 <= decay < 1.0:
        raise PreconditionError("decay must lie in [0, 1)")
    if teacher.model.layout != student.layout:
        raise DimensionMismatch("teacher and student parameter layouts differ")
    t = teacher.model.theta
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


def _softmax_sqdist_grad(student_vec: np.ndarray, teacher_vec: np.ndarray):
    """Per-row reference form of ``_softmax_sqdist_rows``."""
    s = losses.stable_softmax(student_vec)
    t = losses.stable_softmax(teacher_vec)
    e = s - t
    loss = float(e @ e)
    # Jacobian of softmax applied to 2e: diag(s) - s s^T
    grad = 2.0 * (s * e - s * float(s @ e))
    return loss, grad


def _softmax_rows(Z: np.ndarray) -> np.ndarray:
    e = np.exp(Z - Z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _softmax_sqdist_rows(student: np.ndarray, teacher: np.ndarray):
    """|softmax(student_i) - softmax(teacher_i)|^2 per row, and its gradient."""
    if not (np.all(np.isfinite(student)) and np.all(np.isfinite(teacher))):
        raise NonFiniteError("softmax input contains non-finite entries")
    s = _softmax_rows(student)
    e = s - _softmax_rows(teacher)
    # Jacobian of softmax applied to 2e: diag(s) - s s^T
    grad = 2.0 * (s * e - s * (s * e).sum(axis=1, keepdims=True))
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
    cls_loss, cls_grad = _softmax_sqdist_rows(np.atleast_2d(a), np.atleast_2d(at))
    dist_loss, dist_grad = _softmax_sqdist_rows(np.atleast_2d(d), np.atleast_2d(dt))
    if a.ndim == 1:
        return ConsistencyResult(float(cls_loss[0]), float(dist_loss[0]),
                                 cls_grad[0], dist_grad[0])
    return ConsistencyResult(cls_loss, dist_loss, cls_grad, dist_grad)


def negative_center_distances(F, centers: np.ndarray) -> np.ndarray:
    """-|f_i - c_k| for every row of F (n, r) -> (n, C); a 1-d f gives (C,)."""
    F = np.asarray(F, dtype=np.float64)
    D, _ = losses.center_directions(np.atleast_2d(F), np.asarray(centers, np.float64))
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


def train_mt_scdh(data: SemiDataset, hp: Hyperparams,
                  w: float = DEFAULT_CONSISTENCY_WEIGHT,
                  ema_decay: float | None = DEFAULT_EMA_DECAY,
                  noise_std: float = DEFAULT_NOISE_STD, *, r: int,
                  hidden=(64,), ramp_fraction: float = 0.2
                  ) -> tuple[EmbeddingModel, TeacherState | None, TrainReport]:
    """The training loop, semi-supervised or, with no teacher, supervised.

    Each step draws a mixed batch from the shuffled labeled+unlabeled pool,
    perturbs the student and teacher inputs independently, applies the full
    supervised objective to labeled rows, the quantization penalty to
    unlabeled rows, and the consistency terms to every row; the student is
    updated by SGD and the teacher by EMA with the warm-up decay
    min(1 - 1/(step+1), ema_decay).  The first ``hp.warmup_epochs`` epochs
    project the center columns to norm ``hp.warmup_norm_s`` after every
    step.  The consistency weight ramps linearly from zero over the first
    ``ramp_fraction`` of training, so it is exactly zero at step 0.

    ``ema_decay=None`` means no teacher: no copy, no EMA update, no teacher
    forward; ``w`` must then be 0 and the returned teacher is None.  Epoch
    report fields are means over the labeled rows, summed row by row.
    Deterministic given (data, hp) under single-threaded execution.
    """
    if not (0.0 <= w < math.inf and 0.0 <= noise_std < math.inf
            and 0.0 <= ramp_fraction <= 1.0):
        raise PreconditionError("w and noise_std must be finite and non-negative, "
                                "and ramp_fraction must lie in [0, 1]")
    if ema_decay is None and w != 0.0:
        raise PreconditionError("a consistency weight needs a teacher (ema_decay)")
    if ema_decay is not None and not 0.0 <= ema_decay < 1.0:
        raise PreconditionError("ema_decay must lie in [0, 1)")
    root = np.random.SeedSequence(hp.seed)
    init_ss, shuffle_ss, project_ss, noise_ss = root.spawn(4)
    losses.require_negative_class(data.labeled.labels)
    dims = (data.labeled.dim, *hidden)
    C = data.labeled.label_count
    student = init_model(dims, C, r, init_ss)
    teacher = None if ema_decay is None else TeacherState(student.copy(), ema_decay)
    rng = np.random.default_rng(shuffle_ss)
    project_rng = np.random.default_rng(project_ss)
    noise_rng = np.random.default_rng(noise_ss)

    n_lab = data.labeled.n
    features = np.concatenate([
        data.labeled.features,
        data.unlabeled.features.reshape(-1, data.labeled.dim),
    ], dtype=np.float64)
    # unlabeled rows get zero label rows: the kernel gives them quantization only
    Y = np.zeros((features.shape[0], C), dtype=bool)
    Y[:n_lab] = data.labeled.labels
    n_total = features.shape[0]
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
            X = perturb(features[idx], noise_std, noise_rng)
            consistency = None
            w_eff = w * min(1.0, step / ramp_steps)
            if w_eff > 0.0:
                Ft, logits_t, _ = forward_batch(
                    teacher.model, perturb(features[idx], noise_std, noise_rng))
                consistency = _consistency_term(
                    logits_t, negative_center_distances(Ft, teacher.model.centers),
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


def train_scdh(dataset: Dataset, hp: Hyperparams, *, r: int,
               hidden=(64,)) -> tuple[EmbeddingModel, TrainReport]:
    """Supervised training on a fully labeled dataset: ``train_mt_scdh`` with
    no unlabeled rows, no consistency term, no noise and no teacher."""
    empty = dataset.subset(np.array([], dtype=int))
    student, _, report = train_mt_scdh(SemiDataset(dataset, empty), hp, 0.0, None,
                                       0.0, r=r, hidden=hidden)
    return student, report
