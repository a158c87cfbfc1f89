"""Semi-supervised training with an exponential-moving-average teacher.

The student trains exactly like the supervised model on the labeled subset;
a teacher copy tracks it by EMA and supplies consistency targets for both
the classifier logits and the negative center-distance vector, each compared
after a softmax under independent input perturbations.  Unlabeled samples
additionally receive the quantization penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import losses
from .data import Dataset
from .errors import DimensionMismatch, DivergenceError, NonFiniteError, PreconditionError
from .model import (
    EmbeddingModel,
    EpochRecord,
    GradBuffers,
    Hyperparams,
    TrainReport,
    _accumulate_loss_grads,
    _backprop_chain,
    _term_rows,
    forward_batch,
    init_model,
    mean_quantization,
    sgd_update,
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
    t_params = teacher.model.parameters()
    s_params = student.parameters()
    if len(t_params) != len(s_params):
        raise DimensionMismatch("teacher and student parameter counts differ")
    for t, s in zip(t_params, s_params):
        if t.shape != s.shape:
            raise DimensionMismatch(f"shape mismatch {t.shape} vs {s.shape}")
        t *= decay
        t += (1.0 - decay) * s
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


def train_mt_scdh(data: SemiDataset, hp: Hyperparams,
                  w: float = DEFAULT_CONSISTENCY_WEIGHT,
                  ema_decay: float = DEFAULT_EMA_DECAY,
                  noise_std: float = DEFAULT_NOISE_STD, *, r: int,
                  hidden=(64,), ramp_fraction: float = 0.2
                  ) -> tuple[EmbeddingModel, TeacherState, TrainReport]:
    """Semi-supervised training loop.

    Each step draws a mixed batch from the shuffled labeled+unlabeled pool,
    perturbs the student and teacher inputs independently, applies the full
    supervised objective to labeled rows, the quantization penalty to
    unlabeled rows, and the consistency terms to every row; the student is
    updated by SGD and the teacher by EMA with the warm-up decay
    min(1 - 1/(step+1), ema_decay).  The consistency weight ramps linearly
    from zero over the first ``ramp_fraction`` of training, so it is exactly
    zero at step 0.  With no unlabeled data, w = 0, and zero noise the
    student follows the supervised trajectory exactly.
    """
    if w < 0:
        raise PreconditionError("consistency weight must be non-negative")
    root = np.random.SeedSequence(hp.seed)
    init_ss, shuffle_ss, project_ss, noise_ss = root.spawn(4)
    dims = (data.labeled.dim, *hidden)
    C = data.labeled.label_count
    student = init_model(dims, C, r, init_ss)
    teacher = TeacherState(student.copy(), ema_decay)
    rng = np.random.default_rng(shuffle_ss)
    project_rng = np.random.default_rng(project_ss)
    noise_rng = np.random.default_rng(noise_ss)

    n_lab = data.labeled.n
    features = np.concatenate([
        data.labeled.features.astype(np.float64),
        data.unlabeled.features.astype(np.float64).reshape(-1, data.labeled.dim),
    ])
    # unlabeled rows get zero label rows: the kernel gives them quantization only
    Y = np.zeros((features.shape[0], C))
    Y[:n_lab] = losses.label_matrix(data.labeled.labels, C)
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

            F, logits, acts = forward_batch(student, X)
            if not (np.all(np.isfinite(F)) and np.all(np.isfinite(logits))):
                raise DivergenceError(
                    "non-finite activations in the forward pass; the learning "
                    "rate is likely too high"
                )
            grad_F = np.zeros_like(F)
            grad_logits = np.zeros_like(logits)
            buffers = GradBuffers(student)
            k = _accumulate_loss_grads(student, F, logits, Y[idx], hp, grad_F,
                                       grad_logits, buffers.centers)
            labeled = idx < n_lab
            sup_sums += _term_rows(k)[:, labeled].sum(axis=1)
            sup_count += int(labeled.sum())
            # unlabeled rows carry zero scul and classification terms
            total = float(k.scul.sum() + hp.mu * k.classification.sum()
                          + hp.alpha * k.quantization.sum())

            w_eff = w * min(1.0, step / ramp_steps)
            if w_eff > 0.0:
                Xt = perturb(features[idx], noise_std, noise_rng)
                Ft, logits_t, _ = forward_batch(teacher.model, Xt)
                cr = consistency_losses(
                    logits, logits_t, -k.distances,
                    negative_center_distances(Ft, teacher.model.centers))
                grad_logits += w_eff * hp.mu * cr.grad_logits
                # the negative distances feed both the embedding and the centers
                gF, gC = losses.distance_gradients(k.directions,
                                                   -w_eff * cr.grad_negdists)
                grad_F += gF
                buffers.centers += gC
                cons = float((hp.mu * cr.classifier_loss + cr.distance_loss).sum())
                cons_sum += cons
                total += w_eff * cons
                cons_count += len(idx)

            if not np.isfinite(total):
                raise DivergenceError(
                    f"non-finite step loss {total}; the learning rate is likely too high"
                )
            _backprop_chain(student, acts, grad_F, grad_logits, buffers)
            sgd_update(student, buffers, lr, hp.momentum)
            if epoch < hp.warmup_epochs:
                student.centers[:] = warmup_project(student.centers,
                                                    hp.warmup_norm_s, project_rng)
            decay_eff = min(1.0 - 1.0 / (step + 1), ema_decay)
            ema_update(teacher, student, decay_eff)
            step += 1

        means = sup_sums / max(sup_count, 1)
        report.epochs.append(EpochRecord(
            epoch, *means, learning_rate=lr,
            consistency_loss=cons_sum / max(cons_count, 1)))
    report.final_quantization = mean_quantization(student, features, hp)
    return student, teacher, report
