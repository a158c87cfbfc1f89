"""Feed-forward embedding network with hand-written backpropagation.

The network is a small affine trunk with rectifier nonlinearities, a linear
hashing layer of width r, a matrix of per-label cluster centers attached to
the hashing output through the unary loss, and an independent linear
classifier head on the trunk output.  Training is plain SGD with momentum on
the summed per-sample objective

    l_c(F(x), y) + mu * l_1(x, y) + lam * |F(x) - c_y| + alpha * l_q(F(x))

with the multilabel substitution applied whenever a sample carries more than
one label.  All arithmetic is float64 and single-threaded deterministic.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from . import losses
from .data import Dataset
from .errors import DimensionMismatch, DivergenceError, ParseError, PreconditionError

MODEL_MAGIC = b"SCDM"
MODEL_VERSION = 1


@dataclass
class Hyperparams:
    """Training hyperparameters; (holder_p, holder_q) must be dual norms."""

    lam: float = 0.005
    mu: float = 0.2
    alpha: float = 0.05
    holder_p: float = 3.0
    holder_q: float = 1.5
    warmup_epochs: int = 0
    warmup_norm_s: float = 8.0
    lr: float = 0.01
    momentum: float = 0.9
    epochs: int = 10
    batch_size: int = 64
    lr_schedule: tuple = ()          # ((epoch, multiplier), ...)
    seed: int = 0

    def __post_init__(self):
        if min(self.lam, self.mu, self.alpha) < 0:
            raise PreconditionError("loss weights must be non-negative")
        if abs(1.0 / self.holder_p + 1.0 / self.holder_q - 1.0) > 1e-9:
            raise PreconditionError("holder_p and holder_q must satisfy 1/p + 1/q = 1")
        if self.warmup_epochs < 0 or self.warmup_norm_s <= 0:
            raise PreconditionError("invalid warm-up settings")
        if self.lr <= 0 or not 0.0 <= self.momentum < 1.0:
            raise PreconditionError("invalid optimizer settings")
        if self.epochs < 0 or self.batch_size < 1:
            raise PreconditionError("invalid epoch/batch settings")
        self.lr_schedule = tuple((int(e), float(m)) for e, m in self.lr_schedule)
        epochs_in_schedule = [e for e, _ in self.lr_schedule]
        if epochs_in_schedule != sorted(epochs_in_schedule):
            raise PreconditionError("lr_schedule epochs must be increasing")

    def lr_at(self, epoch: int) -> float:
        lr = self.lr
        for e, m in self.lr_schedule:
            if epoch >= e:
                lr *= m
        return lr


# Hyperparameter triples reported for the reference image benchmarks; they
# document the recommended operating points and run against user data.
HP_PRESETS = {
    "cifar10-like": dict(lam=0.005, mu=0.2, alpha=0.05),
    "nuswide-like": dict(lam=0.001, mu=0.1, alpha=1.0),
    "imagenet-like": dict(lam=0.001, mu=0.1, alpha=4.0),
}


@dataclass
class AffineLayer:
    W: np.ndarray   # (out, in)
    b: np.ndarray   # (out,)


class EmbeddingModel:
    """Trunk + hashing layer + centers + classifier head, with SGD state.

    ``parameters()`` yields arrays in a fixed order (trunk W/b pairs, hash
    W/b, classifier W/b, centers); the momentum buffers are kept aligned with
    that order.  Parameter arrays are mutated in place by the optimizer.
    """

    def __init__(self, trunk: list[AffineLayer], hash_layer: AffineLayer,
                 centers: np.ndarray, classifier: AffineLayer):
        self.trunk = trunk
        self.hash_layer = hash_layer
        self.centers = np.asarray(centers, dtype=np.float64)
        self.classifier = classifier
        self.velocities = [np.zeros_like(p) for p in self.parameters()]

    @property
    def r(self) -> int:
        return self.hash_layer.W.shape[0]

    @property
    def label_count(self) -> int:
        return self.classifier.W.shape[0]

    @property
    def input_dim(self) -> int:
        layers = self.trunk or [self.hash_layer]
        return layers[0].W.shape[1]

    @property
    def trunk_dims(self) -> tuple:
        dims = [self.input_dim] + [layer.W.shape[0] for layer in self.trunk]
        return tuple(dims)

    def parameters(self) -> list[np.ndarray]:
        params = []
        for layer in self.trunk:
            params.extend([layer.W, layer.b])
        params.extend([self.hash_layer.W, self.hash_layer.b,
                       self.classifier.W, self.classifier.b, self.centers])
        return params

    def copy(self) -> "EmbeddingModel":
        clone = EmbeddingModel(
            [AffineLayer(l.W.copy(), l.b.copy()) for l in self.trunk],
            AffineLayer(self.hash_layer.W.copy(), self.hash_layer.b.copy()),
            self.centers.copy(),
            AffineLayer(self.classifier.W.copy(), self.classifier.b.copy()),
        )
        clone.velocities = [v.copy() for v in self.velocities]
        return clone


def init_model(dims: Sequence[int], C: int, r: int, seed) -> EmbeddingModel:
    """Gaussian-initialised model: weights std 0.01, centers std 0.5, biases 0.

    ``dims`` lists the input width followed by the trunk widths.  The larger
    center scale keeps initial center norms away from zero, which the warm-up
    analysis requires.  Deterministic given the seed; draw order is trunk
    weights, hash weights, classifier weights, centers.
    """
    dims = tuple(int(d) for d in dims)
    if len(dims) < 1 or min(dims) < 1 or C < 1 or r < 1:
        raise PreconditionError("invalid layer sizes")
    rng = np.random.default_rng(seed)
    trunk = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        trunk.append(AffineLayer(rng.normal(0.0, 0.01, (d_out, d_in)),
                                 np.zeros(d_out)))
    last = dims[-1]
    hash_layer = AffineLayer(rng.normal(0.0, 0.01, (r, last)), np.zeros(r))
    classifier = AffineLayer(rng.normal(0.0, 0.01, (C, last)), np.zeros(C))
    centers = rng.normal(0.0, 0.5, (r, C))
    return EmbeddingModel(trunk, hash_layer, centers, classifier)


def forward(model: EmbeddingModel, x) -> tuple[np.ndarray, np.ndarray]:
    """Single-sample forward pass: (hashing activations F(x), logits)."""
    F, logits, _ = forward_batch(model, np.asarray(x, dtype=np.float64)[None, :])
    return F[0], logits[0]


def forward_batch(model: EmbeddingModel, X) -> tuple[np.ndarray, np.ndarray, list]:
    """Batched forward pass keeping trunk activations for backprop."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"expected (n, {model.input_dim}) inputs, got {X.shape}"
        )
    acts = [X]
    a = X
    for layer in model.trunk:
        z = a @ layer.W.T + layer.b
        a = np.maximum(z, 0.0)
        acts.append(a)
    F = a @ model.hash_layer.W.T + model.hash_layer.b
    logits = a @ model.classifier.W.T + model.classifier.b
    return F, logits, acts


@dataclass
class BatchLosses:
    """Per-sample means of the objective terms over one batch."""

    scul: float
    classification: float
    quantization: float
    center_distance: float

    @classmethod
    def mean_of(cls, k: losses.SculBatch) -> "BatchLosses":
        return cls(*(float(v) for v in _term_rows(k).mean(axis=1)))

    def total(self, hp: Hyperparams) -> float:
        # scul already contains the lam-weighted distance term
        return self.scul + hp.mu * self.classification + hp.alpha * self.quantization


def _term_rows(k: losses.SculBatch) -> np.ndarray:
    """(4, n) per-row terms in BatchLosses field order."""
    return np.stack([k.scul, k.classification, k.quantization, k.center_distance])


class GradBuffers:
    """Gradient accumulators aligned with EmbeddingModel.parameters()."""

    def __init__(self, model: EmbeddingModel):
        self.trunk = [(np.zeros_like(l.W), np.zeros_like(l.b)) for l in model.trunk]
        self.hash_W = np.zeros_like(model.hash_layer.W)
        self.hash_b = np.zeros_like(model.hash_layer.b)
        self.cls_W = np.zeros_like(model.classifier.W)
        self.cls_b = np.zeros_like(model.classifier.b)
        self.centers = np.zeros_like(model.centers)

    def as_list(self) -> list[np.ndarray]:
        grads = []
        for gW, gb in self.trunk:
            grads.extend([gW, gb])
        grads.extend([self.hash_W, self.hash_b, self.cls_W, self.cls_b, self.centers])
        return grads


def _accumulate_loss_grads(model: EmbeddingModel, F: np.ndarray, logits: np.ndarray,
                           labelsets, hp: Hyperparams,
                           grad_F: np.ndarray, grad_logits: np.ndarray,
                           centers_grad: np.ndarray) -> losses.SculBatch:
    """Add the objective's gradients for a batch; return its per-row terms.

    ``labelsets`` is the batch's (n, C) label matrix, or a sequence of label
    sets that is turned into one.  One call of the unary-loss kernel serves
    every row; rows with a zero label row get the quantization term only.
    """
    if not isinstance(labelsets, np.ndarray):
        labelsets = losses.label_matrix(labelsets, model.label_count)
    k = losses.scul_batch(F, model.centers, logits, labelsets, hp.lam,
                          hp.holder_p, hp.holder_q)
    grad_F += k.grad_embedding + hp.alpha * k.grad_quantization
    grad_logits += hp.mu * k.grad_logits
    centers_grad += k.grad_centers
    return k


def _backprop_chain(model: EmbeddingModel, acts: list, grad_F: np.ndarray,
                    grad_logits: np.ndarray, buffers: GradBuffers):
    """Backpropagate output gradients through the affine trunk into buffers."""
    a_last = acts[-1]
    buffers.hash_W += grad_F.T @ a_last
    buffers.hash_b += grad_F.sum(axis=0)
    buffers.cls_W += grad_logits.T @ a_last
    buffers.cls_b += grad_logits.sum(axis=0)
    grad_a = grad_F @ model.hash_layer.W + grad_logits @ model.classifier.W
    for idx in range(len(model.trunk) - 1, -1, -1):
        grad_z = grad_a * (acts[idx + 1] > 0.0)
        gW, gb = buffers.trunk[idx]
        gW += grad_z.T @ acts[idx]
        gb += grad_z.sum(axis=0)
        grad_a = grad_z @ model.trunk[idx].W
    return grad_a


def sgd_update(model: EmbeddingModel, buffers: GradBuffers, lr: float,
               momentum: float):
    """v <- momentum * v - lr * g;  theta <- theta + v  (in place)."""
    for p, v, g in zip(model.parameters(), model.velocities, buffers.as_list()):
        v *= momentum
        v -= lr * g
        p += v


def backward_step(model: EmbeddingModel, X, labelsets,
                  hp: Hyperparams, lr: float | None = None) -> BatchLosses:
    """One SGD step on the summed supervised objective over a batch.

    ``labelsets`` is an (n, C) label matrix or a sequence of label sets.
    """
    if len(labelsets) == 0:
        raise PreconditionError("empty batch")
    lr = hp.lr if lr is None else lr
    F, logits, acts = forward_batch(model, X)
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(logits))):
        raise DivergenceError(
            "non-finite activations in the forward pass; the learning rate is "
            "likely too high"
        )
    grad_F = np.zeros_like(F)
    grad_logits = np.zeros_like(logits)
    buffers = GradBuffers(model)
    batch_losses = BatchLosses.mean_of(_accumulate_loss_grads(
        model, F, logits, labelsets, hp, grad_F, grad_logits, buffers.centers
    ))
    total = batch_losses.total(hp)
    if not np.isfinite(total):
        raise DivergenceError(
            f"non-finite batch loss {total}; the learning rate is likely too high"
        )
    _backprop_chain(model, acts, grad_F, grad_logits, buffers)
    sgd_update(model, buffers, lr, hp.momentum)
    return batch_losses


def warmup_project(centers, s: float, rng: np.random.Generator | None = None) -> np.ndarray:
    """Rescale every center column to Euclidean norm exactly s.

    Zero columns are replaced by a random direction of norm s (seeded rng, or
    a fixed fallback stream) so the projection is always well-defined.
    """
    if s <= 0:
        raise PreconditionError("warm-up norm must be positive")
    centers = np.asarray(centers, dtype=np.float64)
    norms = np.linalg.norm(centers, axis=0)
    out = centers.copy()
    for j, nj in enumerate(norms):
        if nj == 0.0:
            if rng is None:
                rng = np.random.default_rng(0)
            direction = rng.standard_normal(centers.shape[0])
            out[:, j] = direction * (s / np.linalg.norm(direction))
        else:
            out[:, j] = centers[:, j] * (s / nj)
    return out


@dataclass
class EpochRecord:
    epoch: int
    scul_loss: float
    classification_loss: float
    quantization_loss: float
    center_distance_term: float
    learning_rate: float
    consistency_loss: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)
    final_quantization: float = 0.0

    def to_dict(self) -> dict:
        return {
            "epochs": [e.to_dict() for e in self.epochs],
            "final_quantization": self.final_quantization,
        }


def _batch_ranges(n: int, batch_size: int):
    for start in range(0, n, batch_size):
        yield start, min(start + batch_size, n)


def mean_quantization(model: EmbeddingModel, features, hp: Hyperparams) -> float:
    F = forward_batch(model, features)[0]
    return float(losses.quantization_batch(F, hp.holder_p, hp.holder_q)[0].mean())


def train_scdh(dataset: Dataset, hp: Hyperparams, *, r: int,
               hidden: Sequence[int] = (64,),
               model: EmbeddingModel | None = None) -> tuple[EmbeddingModel, TrainReport]:
    """Train the supervised hashing model on a fully labeled dataset.

    Mini-batches are shuffled per epoch from a seeded stream; the first
    ``hp.warmup_epochs`` epochs project the center columns to norm
    ``hp.warmup_norm_s`` after every step.  Deterministic given (dataset, hp)
    under single-threaded execution.
    """
    if not dataset.labeled_mask().all():
        raise PreconditionError("training dataset must be fully labeled")
    root = np.random.SeedSequence(hp.seed)
    init_ss, shuffle_ss, project_ss = root.spawn(3)
    if model is None:
        dims = (dataset.dim, *hidden)
        model = init_model(dims, dataset.label_count, r, init_ss)
    rng = np.random.default_rng(shuffle_ss)
    project_rng = np.random.default_rng(project_ss)

    features = dataset.features.astype(np.float64)
    Y = losses.label_matrix(dataset.labels, dataset.label_count)
    report = TrainReport()
    for epoch in range(hp.epochs):
        lr = hp.lr_at(epoch)
        perm = rng.permutation(dataset.n)
        sums = np.zeros(4)
        for a, b in _batch_ranges(dataset.n, hp.batch_size):
            idx = perm[a:b]
            bl = backward_step(model, features[idx], Y[idx], hp, lr=lr)
            if epoch < hp.warmup_epochs:
                model.centers[:] = warmup_project(model.centers, hp.warmup_norm_s,
                                                  project_rng)
            sums += np.array([bl.scul, bl.classification, bl.quantization,
                              bl.center_distance]) * len(idx)
        means = sums / dataset.n
        report.epochs.append(EpochRecord(epoch, *means, learning_rate=lr))
    report.final_quantization = mean_quantization(model, features, hp)
    return model, report


def extract_embeddings(model: EmbeddingModel, features) -> np.ndarray:
    F, _, _ = forward_batch(model, np.asarray(features, dtype=np.float64))
    return F


# ---------------------------------------------------------------------------
# Checkpoint container: magic "SCDM", version u16, n_networks u16, r u32,
# C u32, n_trunk_dims u32, dims u32[n_trunk_dims], meta_len u64, meta JSON,
# then per network the parameter blocks as little-endian float64 in
# parameters() order.
# ---------------------------------------------------------------------------

_CKPT_HEADER = struct.Struct("<4sHHIII")


def _param_blob(model: EmbeddingModel) -> bytes:
    return b"".join(np.ascontiguousarray(p, dtype="<f8").tobytes()
                    for p in model.parameters())


def save_checkpoint(path, model: EmbeddingModel, hp: Hyperparams,
                    teacher: EmbeddingModel | None = None,
                    extra_meta: dict | None = None):
    meta = {"hyperparams": asdict(hp)}
    if extra_meta:
        meta.update(extra_meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    dims = model.trunk_dims
    n_networks = 2 if teacher is not None else 1
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(MODEL_MAGIC, MODEL_VERSION, n_networks,
                                   model.r, model.label_count, len(dims)))
        fh.write(np.asarray(dims, dtype="<u4").tobytes())
        fh.write(struct.pack("<Q", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(_param_blob(model))
        if teacher is not None:
            if teacher.trunk_dims != dims or teacher.r != model.r:
                raise DimensionMismatch("teacher and student shapes differ")
            fh.write(_param_blob(teacher))


def _read_network(blob: bytes, off: int, dims: tuple, C: int, r: int):
    trunk = []
    def take(shape):
        nonlocal off
        count = int(np.prod(shape))
        nbytes = count * 8
        if off + nbytes > len(blob):
            raise ParseError(
                f"truncated parameter block at byte {off}: need {nbytes} bytes, "
                f"have {len(blob) - off}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
        off += nbytes
        return arr.reshape(shape).copy()

    for d_in, d_out in zip(dims[:-1], dims[1:]):
        W = take((d_out, d_in))
        b = take((d_out,))
        trunk.append(AffineLayer(W, b))
    hash_layer = AffineLayer(take((r, dims[-1])), take((r,)))
    classifier = AffineLayer(take((C, dims[-1])), take((C,)))
    centers = take((r, C))
    return EmbeddingModel(trunk, hash_layer, centers, classifier), off


def load_checkpoint(path):
    """Load a checkpoint: (model, hp, teacher_or_None, meta)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size:
        raise ParseError("truncated checkpoint header")
    magic, version, n_networks, r, C, n_dims = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise ParseError(f"bad magic {magic!r} at offset 0")
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    off = _CKPT_HEADER.size
    dims_arr = np.frombuffer(blob, dtype="<u4", count=n_dims, offset=off)
    dims = tuple(int(d) for d in dims_arr)
    off += n_dims * 4
    (meta_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    meta = json.loads(blob[off:off + meta_len].decode())
    off += meta_len
    hp_dict = dict(meta.get("hyperparams", {}))
    hp_dict["lr_schedule"] = tuple(tuple(x) for x in hp_dict.get("lr_schedule", ()))
    hp = Hyperparams(**hp_dict)
    model, off = _read_network(blob, off, dims, C, r)
    teacher = None
    if n_networks == 2:
        teacher, off = _read_network(blob, off, dims, C, r)
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after offset {off}")
    return model, hp, teacher, meta
