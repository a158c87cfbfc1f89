import numpy as np
import pytest

from scdh import meanteacher
from scdh.data import (Dataset, SyntheticConfig, _draw_prototypes, sample_clusters,
                       sample_multilabel)
from scdh.errors import LabelSetError, PreconditionError


def central_diff(fun, x, eps=1e-4):
    """Central finite differences of a scalar function, elementwise over x."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp.flat[i] += eps
        xm.flat[i] -= eps
        out.flat[i] = (fun(xp) - fun(xm)) / (2.0 * eps)
    return out


def rel_err(a, b):
    """Norm-wise relative error of a against reference b."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def step_gradient(net, X, labels, hp) -> np.ndarray:
    """The gradient vector of one ``meanteacher._sgd_step``, caught at its SGD
    update, which is skipped: ``net`` is left as it was."""
    caught = []
    real = meanteacher.sgd_update
    meanteacher.sgd_update = lambda net, _lr, _momentum: caught.append(net.grad.copy())
    try:
        meanteacher._sgd_step(net, X, labels, hp, hp.lr)
    finally:
        meanteacher.sgd_update = real
    return caught[0]


def labels_from_sets(sets, C: int) -> np.ndarray:
    """The (n, C) bool label matrix of n label sets.

    ``None`` or an empty set gives an unlabeled (all-False) row.  Raises
    LabelSetError naming the first row with a label outside 0..C-1.
    """
    rows, cols = [], []
    for i, Y in enumerate(sets):
        for label in () if Y is None else Y:
            rows.append(i)
            cols.append(label)
    cols = np.asarray(cols, dtype=np.int64)
    bad = (cols < 0) | (cols >= C)
    if bad.any():
        j = int(np.argmax(bad))
        raise LabelSetError(f"row {rows[j]}: label {cols[j]} out of range for C={C}")
    labels = np.zeros((len(sets), C), dtype=bool)
    labels[rows, cols] = True
    return labels


@pytest.fixture
def rng():
    return np.random.default_rng(20240801)


def gen_gaussian_clusters(cfg: SyntheticConfig) -> Dataset:
    """Balanced single-label Gaussian clusters, deterministic per seed: one
    split of the kind ``data.make_cluster_splits`` draws three of."""
    if cfg.multilabel_p is not None:
        raise PreconditionError("multilabel_p set; use gen_multilabel")
    means_ss, samples_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    means = _draw_prototypes(cfg, np.random.default_rng(means_ss))
    return sample_clusters(means, cfg.samples_per_class, cfg.cluster_std, samples_ss)


def gen_multilabel(cfg: SyntheticConfig) -> Dataset:
    """Multilabel mixture of n = C * samples_per_class rows, deterministic per
    seed: independent per-label inclusion with probability p, empty and full
    label draws resampled, features the mean of the member labels'
    prototypes plus Gaussian noise."""
    if cfg.multilabel_p is None:
        raise PreconditionError("multilabel_p missing; use gen_gaussian_clusters")
    proto_ss, samples_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    protos = _draw_prototypes(cfg, np.random.default_rng(proto_ss))
    return sample_multilabel(protos, cfg.C * cfg.samples_per_class, cfg.multilabel_p,
                             cfg.cluster_std, samples_ss)
