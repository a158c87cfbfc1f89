"""Feed-forward embedding network with hand-written backpropagation.

The network is a small affine trunk with rectifier nonlinearities, a linear
hashing layer of width r, a matrix of per-label cluster centers attached to
the hashing output through the unary loss, and an independent linear
classifier head on the trunk output.  One SGD step with momentum minimises
the summed per-sample objective

    l_c(F(x), y) + mu * l_1(x, y) + lam * |F(x) - c_y| + alpha * l_q(F(x))

with the multilabel substitution applied whenever a sample carries more than
one label; unlabeled rows get the quantization term only.  The training loop
that drives these steps lives in ``scdh.meanteacher``: supervised training is
that loop with no unlabeled rows and no teacher.  All arithmetic is float64
and single-threaded deterministic.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Sequence

import numpy as np

from . import losses
from .errors import DimensionMismatch, DivergenceError, ParseError, PreconditionError

MODEL_MAGIC = b"SCDM"
MODEL_VERSION = 1

# Rows per block of the inference pass, extract_embeddings.
EMBED_BLOCK_ROWS = 4096


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
        self.lr_schedule = tuple((int(e), float(m)) for e, m in self.lr_schedule)
        floats = (self.lam, self.mu, self.alpha, self.holder_p, self.holder_q,
                  self.warmup_norm_s, self.lr, self.momentum)
        if not all(math.isfinite(v) for v in floats):
            raise PreconditionError("hyperparameters must be finite")
        if not all(0.0 < m < math.inf for _, m in self.lr_schedule):
            raise PreconditionError("lr_schedule multipliers must be finite and positive")
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


def param_layout(dims: Sequence[int], C: int, r: int) -> list[tuple[str, tuple]]:
    """Name and shape of every parameter block, in checkpoint order: trunk
    W/b pairs, hash W/b, classifier W/b, centers.

    This is the one place the order is written down.  A model's parameters,
    its velocity, a step's gradients and a checkpoint's network all follow it.
    """
    blocks = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        blocks += [(f"trunk[{i}].W", (d_out, d_in)), (f"trunk[{i}].b", (d_out,))]
    return blocks + [("hash_layer.W", (r, dims[-1])), ("hash_layer.b", (r,)),
                     ("classifier.W", (C, dims[-1])), ("classifier.b", (C,)),
                     ("centers", (r, C))]


class EmbeddingModel:
    """Trunk + hashing layer + centers + classifier head, with SGD state.

    Every parameter is a view into one contiguous float64 vector ``theta``
    laid out by ``param_layout``; the momentum buffer ``velocity`` has the
    same layout.  ``theta``, if given, is adopted, not copied.  The optimizer
    updates ``theta`` in place, so a parameter is changed by writing into it
    (``centers[:] = ...``): rebinding an attribute detaches it from ``theta``.
    """

    def __init__(self, dims: Sequence[int], C: int, r: int,
                 theta: np.ndarray | None = None):
        self.trunk_dims = tuple(int(d) for d in dims)
        self.label_count, self.r = C, r
        self.layout = param_layout(self.trunk_dims, C, r)
        size = sum(math.prod(shape) for _, shape in self.layout)
        self.theta = np.zeros(size) if theta is None else theta
        if self.theta.shape != (size,) or self.theta.dtype != np.float64:
            raise DimensionMismatch(f"theta must be {size} float64 values")
        self.velocity = np.zeros(size)
        p = self.blocks(self.theta)
        self.trunk = [AffineLayer(p[f"trunk[{i}].W"], p[f"trunk[{i}].b"])
                      for i in range(len(self.trunk_dims) - 1)]
        self.hash_layer = AffineLayer(p["hash_layer.W"], p["hash_layer.b"])
        self.classifier = AffineLayer(p["classifier.W"], p["classifier.b"])
        self.centers = p["centers"]

    @property
    def input_dim(self) -> int:
        return self.trunk_dims[0]

    def blocks(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """A vector in ``theta``'s layout seen as its named blocks (views)."""
        views, off = {}, 0
        for name, shape in self.layout:
            end = off + math.prod(shape)
            views[name] = flat[off:end].reshape(shape)
            off = end
        return views

    def parameters(self) -> list[np.ndarray]:
        """Views of ``theta``, one per block in checkpoint order."""
        return list(self.blocks(self.theta).values())

    def copy(self) -> "EmbeddingModel":
        clone = EmbeddingModel(self.trunk_dims, self.label_count, self.r,
                               self.theta.copy())
        clone.velocity[:] = self.velocity
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
    net = EmbeddingModel(dims, C, r)
    for layer in (*net.trunk, net.hash_layer, net.classifier):
        layer.W[:] = rng.normal(0.0, 0.01, layer.W.shape)
    net.centers[:] = rng.normal(0.0, 0.5, net.centers.shape)
    return net


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


def _accumulate_loss_grads(model: EmbeddingModel, F: np.ndarray, logits: np.ndarray,
                           labels: np.ndarray, hp: Hyperparams,
                           grad_F: np.ndarray, grad_logits: np.ndarray,
                           centers_grad: np.ndarray) -> losses.SculBatch:
    """Add the objective's gradients for a batch; return its per-row terms.

    ``labels`` is the batch's (n, C) label matrix.  One call of the
    unary-loss kernel serves every row; unlabeled rows get the quantization
    term only.
    """
    k = losses.scul_batch(F, model.centers, logits, labels, hp.lam,
                          hp.holder_p, hp.holder_q)
    grad_F += k.grad_embedding + hp.alpha * k.grad_quantization
    grad_logits += hp.mu * k.grad_logits
    centers_grad += k.grad_centers
    return k


def _backprop_chain(model: EmbeddingModel, acts: list, grad_F: np.ndarray,
                    grad_logits: np.ndarray, grads: dict[str, np.ndarray]):
    """Backpropagate output gradients through the affine trunk, adding them
    into ``grads``, the named blocks of a gradient vector."""
    a_last = acts[-1]
    grads["hash_layer.W"] += grad_F.T @ a_last
    grads["hash_layer.b"] += grad_F.sum(axis=0)
    grads["classifier.W"] += grad_logits.T @ a_last
    grads["classifier.b"] += grad_logits.sum(axis=0)
    grad_a = grad_F @ model.hash_layer.W + grad_logits @ model.classifier.W
    for idx in range(len(model.trunk) - 1, -1, -1):
        grad_z = grad_a * (acts[idx + 1] > 0.0)
        grads[f"trunk[{idx}].W"] += grad_z.T @ acts[idx]
        grads[f"trunk[{idx}].b"] += grad_z.sum(axis=0)
        grad_a = grad_z @ model.trunk[idx].W
    return grad_a


def sgd_update(model: EmbeddingModel, grad: np.ndarray, lr: float,
               momentum: float):
    """v <- momentum * v - lr * g;  theta <- theta + v  (in place).

    ``grad`` is a gradient vector in ``theta``'s layout.
    """
    v = model.velocity
    v *= momentum
    v -= lr * grad
    model.theta += v


def _sgd_step(model: EmbeddingModel, X, labels: np.ndarray, hp: Hyperparams,
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
    if not (np.all(np.isfinite(F)) and np.all(np.isfinite(logits))):
        raise DivergenceError(
            "non-finite activations in the forward pass; the learning rate is "
            "likely too high"
        )
    grad_F = np.zeros_like(F)
    grad_logits = np.zeros_like(logits)
    grad = np.zeros_like(model.theta)
    grads = model.blocks(grad)
    k = _accumulate_loss_grads(model, F, logits, labels, hp, grad_F, grad_logits,
                               grads["centers"])
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
    sgd_update(model, grad, lr, hp.momentum)
    return rows, extra


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


def mean_quantization(model: EmbeddingModel, features, hp: Hyperparams) -> float:
    F = forward_batch(model, features)[0]
    return float(losses.quantization_batch(F, hp.holder_p, hp.holder_q)[0].mean())


def extract_embeddings(model: EmbeddingModel, features) -> np.ndarray:
    """Hashing activations F of every row: the inference forward pass.

    It computes no logits and keeps no trunk activations, and it works a
    block of ``EMBED_BLOCK_ROWS`` rows at a time, in place, so its
    temporaries stay a few blocks in size whatever the row count; only F is
    whole.  Rows are converted to float64 a block at a time, which is exact
    for float32 input.  A short last block is folded into the one before
    it, so every block has B to 2B - 1 rows (fewer than B only when it is
    the one block): BLAS may give a product of one to three rows another
    kernel, and with no block that short F equals
    ``forward_batch(model, features)[0]`` bit for bit.
    """
    X = np.asarray(features)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"expected (n, {model.input_dim}) inputs, got {X.shape}"
        )
    n, B = len(X), EMBED_BLOCK_ROWS
    starts = list(range(0, max(n // B, 1) * B, B))
    F = np.empty((n, model.r))
    for s, e in zip(starts, starts[1:] + [n]):
        a = X[s:e].astype(np.float64)
        for layer in model.trunk:
            a = a @ layer.W.T
            a += layer.b
            np.maximum(a, 0.0, out=a)
        np.matmul(a, model.hash_layer.W.T, out=F[s:e])
        F[s:e] += model.hash_layer.b
    return F


# ---------------------------------------------------------------------------
# Checkpoint container: magic "SCDM", version u16, n_networks u16, r u32,
# C u32, n_trunk_dims u32, dims u32[n_trunk_dims], meta_len u64, meta JSON,
# then per network the parameter blocks as little-endian float64 in
# param_layout order.
# ---------------------------------------------------------------------------

_CKPT_HEADER = struct.Struct("<4sHHIII")


def _param_blob(model: EmbeddingModel) -> bytes:
    return model.theta.astype("<f8").tobytes()


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
            if teacher.layout != model.layout:
                raise DimensionMismatch("teacher and student shapes differ")
            fh.write(_param_blob(teacher))


def _read_network(blob: bytes, off: int, dims: tuple, C: int, r: int, network: str):
    """The network whose parameters start at byte ``off``, and the end offset."""
    layout = param_layout(dims, C, r)
    sizes = [math.prod(shape) for _, shape in layout]
    nbytes = 8 * sum(sizes)
    if off + nbytes > len(blob):
        raise ParseError(f"truncated parameter blocks of the {network} network at "
                         f"byte {off}: need {nbytes} bytes, have {len(blob) - off}")
    theta = np.frombuffer(blob, dtype="<f8", count=nbytes // 8, offset=off)
    bad = np.flatnonzero(~np.isfinite(theta))
    if bad.size:
        ends = np.cumsum(sizes)
        i = int(np.searchsorted(ends, bad[0], side="right"))
        start = off + 8 * int(ends[i] - sizes[i])
        raise ParseError(f"non-finite value in the {network} network's {layout[i][0]} "
                         f"block at byte {start}")
    return EmbeddingModel(dims, C, r, theta.astype(np.float64)), off + nbytes


def load_checkpoint(path):
    """Load a checkpoint: (model, hp, teacher_or_None, meta).

    Damaged input of any kind raises ParseError, and so does a parameter
    that is NaN or infinite.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _CKPT_HEADER.size:
        raise ParseError("truncated checkpoint header")
    magic, version, n_networks, r, C, n_dims = _CKPT_HEADER.unpack_from(blob, 0)
    if magic != MODEL_MAGIC:
        raise ParseError(f"bad magic {magic!r} at offset 0")
    if version != MODEL_VERSION:
        raise ParseError(f"unsupported checkpoint version {version}")
    if n_networks not in (1, 2):
        raise ParseError(f"a checkpoint holds 1 or 2 networks, not {n_networks}")
    if n_dims < 1:
        raise ParseError("checkpoint lists no trunk dims")
    off = _CKPT_HEADER.size
    if off + 4 * n_dims + 8 > len(blob):
        raise ParseError(f"truncated dims block at byte {off}: {n_dims} dims")
    dims = tuple(np.frombuffer(blob, dtype="<u4", count=n_dims, offset=off).tolist())
    off += n_dims * 4
    (meta_len,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if meta_len > len(blob) - off:
        raise ParseError(f"truncated meta block at byte {off}: need {meta_len} bytes, "
                         f"have {len(blob) - off}")
    meta = _parse_meta(blob[off:off + meta_len])
    off += meta_len
    hp = _hyperparams_from_meta(meta)
    model, off = _read_network(blob, off, dims, C, r, "student")
    teacher = None
    if n_networks == 2:
        teacher, off = _read_network(blob, off, dims, C, r, "teacher")
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after offset {off}")
    return model, hp, teacher, meta


def _parse_meta(raw: bytes) -> dict:
    try:
        meta = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"meta block is not UTF-8 JSON: {exc}") from None
    if not isinstance(meta, dict) or not isinstance(meta.get("hyperparams", {}), dict):
        raise ParseError("meta block must be a JSON object, and its hyperparams "
                         "an object")
    return meta


def _hyperparams_from_meta(meta: dict) -> Hyperparams:
    hp_dict = dict(meta.get("hyperparams", {}))
    unknown = set(hp_dict) - {f.name for f in fields(Hyperparams)}
    if unknown:
        raise ParseError(f"unknown hyperparameters in meta block: {sorted(unknown)}")
    try:
        hp_dict["lr_schedule"] = tuple(tuple(x) for x in hp_dict.get("lr_schedule", ()))
        return Hyperparams(**hp_dict)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ParseError(f"bad hyperparameters in meta block: {exc}") from None
