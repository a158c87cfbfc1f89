import re
import tracemalloc

import numpy as np
import pytest

from scdh import losses, model
from scdh import meanteacher as mt
from scdh.data import (Dataset, SyntheticConfig, gen_gaussian_clusters, gen_multilabel,
                       labels_from_sets)
from scdh.errors import DimensionMismatch, DivergenceError, ParseError, PreconditionError

from conftest import rel_err


def tiny_hp(**kw):
    base = dict(lam=0.01, mu=0.3, alpha=0.07, epochs=3, batch_size=8,
                lr=1e-3, momentum=0.9, seed=11)
    base.update(kw)
    return model.Hyperparams(**base)


def randomized_net(seed, dims=(4, 8), C=3, r=6, scale=0.5):
    """Model with well-scaled random parameters, away from rectifier kinks."""
    rng = np.random.default_rng(seed)
    net = model.init_model(dims, C, r, seed)
    for p in net.parameters():
        p[:] = rng.normal(0.0, scale, p.shape)
    return net


def full_objective(net, X, labelsets, hp):
    F, logits, _ = model.forward_batch(net, X)
    total = 0.0
    for i, Y in enumerate(labelsets):
        if len(Y) == 1:
            total += losses.scul_loss(F[i], next(iter(Y)), net.centers, hp.lam)
        else:
            total += losses.scul_multilabel_loss(F[i], Y, net.centers, hp.lam)
        total += hp.mu * losses.classification_loss(logits[i], Y)[0]
        total += hp.alpha * losses.quantization_loss(F[i], hp.holder_p, hp.holder_q)
    return total


def analytic_grads(net, X, labelsets, hp):
    F, logits, acts = model.forward_batch(net, X)
    grad_F = np.zeros_like(F)
    grad_logits = np.zeros_like(logits)
    buffers = model.GradBuffers(net)
    model._accumulate_loss_grads(net, F, logits,
                                 labels_from_sets(labelsets, net.label_count), hp,
                                 grad_F, grad_logits, buffers.centers)
    model._backprop_chain(net, acts, grad_F, grad_logits, buffers)
    return buffers.as_list()


def fd_grads(net, X, labelsets, hp, eps=1e-5):
    grads = []
    for p in net.parameters():
        num = np.zeros_like(p)
        for j in range(p.size):
            orig = p.flat[j]
            p.flat[j] = orig + eps
            up = full_objective(net, X, labelsets, hp)
            p.flat[j] = orig - eps
            dn = full_objective(net, X, labelsets, hp)
            p.flat[j] = orig
            num.flat[j] = (up - dn) / (2.0 * eps)
        grads.append(num)
    return grads


class TestHyperparams:
    def test_dual_norm_enforced(self):
        with pytest.raises(PreconditionError):
            tiny_hp(holder_p=3.0, holder_q=2.0)

    def test_schedule_must_increase(self):
        with pytest.raises(PreconditionError):
            tiny_hp(lr_schedule=((10, 0.2), (5, 0.2)))

    @pytest.mark.parametrize("field", ["lam", "mu", "alpha", "holder_p", "holder_q",
                                       "warmup_norm_s", "lr", "momentum"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        # NaN passes every < and <= test, so finiteness is checked on its own
        with pytest.raises(PreconditionError, match="finite"):
            tiny_hp(**{field: value})

    @pytest.mark.parametrize("mult", [np.nan, np.inf, 0.0, -0.5])
    def test_schedule_multiplier_finite_positive(self, mult):
        with pytest.raises(PreconditionError, match="multipliers"):
            tiny_hp(lr_schedule=((2, 0.5), (4, mult)))

    def test_lr_at(self):
        hp = tiny_hp(lr=1.0, lr_schedule=((2, 0.2), (4, 0.5)))
        assert hp.lr_at(0) == 1.0
        assert hp.lr_at(2) == pytest.approx(0.2)
        assert hp.lr_at(4) == pytest.approx(0.1)

    def test_reference_presets_recorded(self):
        assert model.HP_PRESETS["cifar10-like"] == dict(lam=0.005, mu=0.2,
                                                        alpha=0.05)
        assert model.HP_PRESETS["nuswide-like"] == dict(lam=0.001, mu=0.1,
                                                        alpha=1.0)
        assert model.HP_PRESETS["imagenet-like"] == dict(lam=0.001, mu=0.1,
                                                         alpha=4.0)


class TestInitModel:
    def test_determinism(self):
        a = model.init_model((8, 16), C=4, r=12, seed=3)
        b = model.init_model((8, 16), C=4, r=12, seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_center_column_norms(self):
        r = 48
        norms = []
        for seed in range(100):
            net = model.init_model((8,), C=4, r=r, seed=seed)
            norms.extend(np.linalg.norm(net.centers, axis=0).tolist())
        expected = 0.5 * np.sqrt(r)
        assert abs(np.mean(norms) - expected) / expected < 0.2

    def test_weight_std(self):
        net = model.init_model((64, 64), C=8, r=48, seed=0)
        sd = net.hash_layer.W.std()
        assert abs(sd - 0.01) / 0.01 < 0.1

    def test_biases_zero(self):
        net = model.init_model((8, 16), C=4, r=12, seed=3)
        assert not net.hash_layer.b.any()
        assert not net.classifier.b.any()
        assert not net.trunk[0].b.any()


class TestForward:
    def test_zero_weights_zero_outputs(self):
        net = model.init_model((5, 3), C=2, r=4, seed=0)
        for p in net.parameters():
            p[:] = 0.0
        F, logits = model.forward(net, np.ones(5))
        assert not F.any() and not logits.any()

    def test_identity_hash_layer(self):
        net = model.init_model((3,), C=2, r=3, seed=0)
        net.hash_layer.W[:] = np.eye(3)
        net.hash_layer.b[:] = 0.0
        x = np.array([0.5, -1.5, 2.0])
        F, _ = model.forward(net, x)
        np.testing.assert_allclose(F, x, atol=1e-15)

    def test_golden_activations(self):
        # frozen reference output of a fixed seeded model on a fixed input
        net = model.init_model((4, 6), C=3, r=5, seed=123)
        F, logits = model.forward(net, np.array([1.0, -2.0, 0.5, 3.0]))
        got = np.concatenate([F, logits])
        frozen = np.array([
            0.0005733379152323032, -0.0010477595905324395, 0.00040613229580860636,
            -0.0001318887333623554, 0.00016728878286368523, -0.0005133273576026027,
            -0.0007648633074504032, -0.00025273077201829467,
        ])
        np.testing.assert_allclose(got, frozen, atol=1e-18)

    def test_dimension_check(self):
        net = model.init_model((4, 6), C=3, r=5, seed=0)
        with pytest.raises(Exception):
            model.forward(net, np.ones(5))


class TestExtractEmbeddings:
    @pytest.mark.parametrize("dims", [(5,), (5, 12, 7)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_training_forward(self, dims, dtype):
        # bit for bit at block edges: a short last block joins the one before
        # it, so no product runs on a one- to three-row slice
        B = model.EMBED_BLOCK_ROWS
        net = randomized_net(2, dims=dims, C=3, r=6)
        X = np.random.default_rng(3).normal(size=(3 * B + 1, dims[0])).astype(dtype)
        for n in (1, B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 3 * B + 1):
            F = model.extract_embeddings(net, X[:n])
            assert F.dtype == np.float64
            assert F.shape == (n, 6)
            assert (F == model.forward_batch(net, X[:n])[0]).all(), n

    def test_input_untouched_and_shapes_checked(self):
        net = randomized_net(2, dims=(5,), C=3, r=6)
        X = np.random.default_rng(3).normal(size=(7, 5))
        before = X.copy()
        model.extract_embeddings(net, X)
        assert (X == before).all()
        assert model.extract_embeddings(net, X[:0]).shape == (0, 6)
        for bad in (X[:, :4], X[0]):
            with pytest.raises(DimensionMismatch):
                model.extract_embeddings(net, bad)

    def test_memory_at_100k_rows(self):
        # only F (18.3 MiB) is whole; the whole-batch training pass over the
        # same rows peaks near 159 MiB
        net = model.init_model((32, 64), C=4, r=24, seed=0)
        X = np.random.default_rng(0).normal(size=(100_000, 32)).astype(np.float32)
        tracemalloc.start()
        try:
            model.extract_embeddings(net, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20


class TestBackwardStep:
    def test_full_objective_gradient(self, rng):
        hp = tiny_hp()
        for seed in range(10):
            net = randomized_net(seed)
            X = rng.normal(0, 1, (1, 4))
            Y = [frozenset({int(rng.integers(3))})]
            analytic = analytic_grads(net, X, Y, hp)
            numeric = fd_grads(net, X, Y, hp)
            for a, n in zip(analytic, numeric):
                assert rel_err(a, n) < 1e-4

    def test_multilabel_batch_gradient(self, rng):
        hp = tiny_hp()
        net = randomized_net(77)
        X = rng.normal(0, 1, (2, 4))
        Y = [frozenset({0, 2}), frozenset({1})]
        analytic = analytic_grads(net, X, Y, hp)
        numeric = fd_grads(net, X, Y, hp)
        for a, n in zip(analytic, numeric):
            assert rel_err(a, n) < 1e-4

    def test_zero_lr_zero_momentum_is_noop(self, rng):
        net = randomized_net(5)
        before = [p.copy() for p in net.parameters()]
        hp = tiny_hp(momentum=0.0)
        model.backward_step(net, rng.normal(0, 1, (3, 4)),
                            labels_from_sets([frozenset({0})] * 3, 3), hp, lr=0.0)
        for p, b in zip(net.parameters(), before):
            assert np.array_equal(p, b)

    def test_pure_descent_decreases_loss(self, rng):
        # alpha = mu = lam = 0 leaves only the cluster softmax term
        cfg = SyntheticConfig(C=3, feature_dim=4, cluster_std=0.2,
                              center_spread=3.0, samples_per_class=20, seed=0)
        ds = gen_gaussian_clusters(cfg)
        hp = model.Hyperparams(lam=0.0, mu=0.0, alpha=0.0, epochs=1,
                               batch_size=60, lr=5e-3, momentum=0.0, seed=0)
        net = model.init_model((4, 8), C=3, r=6, seed=0)
        feats = ds.features.astype(np.float64)
        first = None
        last = None
        for _ in range(50):
            bl = model.backward_step(net, feats, ds.labels, hp)
            first = bl.scul if first is None else first
            last = bl.scul
        assert last < first

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_divergence_detection(self, rng):
        net = randomized_net(6)
        hp = tiny_hp()
        net.trunk[0].W[:] = np.inf
        with pytest.raises(DivergenceError):
            model.backward_step(net, rng.normal(0, 1, (2, 4)),
                                labels_from_sets([frozenset({0})] * 2, 3), hp)

    def test_empty_batch_rejected(self):
        net = randomized_net(6)
        with pytest.raises(PreconditionError):
            model.backward_step(net, np.zeros((0, 4)), [], tiny_hp())


class TestWarmupProject:
    def test_idempotent_at_norm(self, rng):
        centers = rng.normal(0, 1, (6, 4))
        centers /= np.linalg.norm(centers, axis=0, keepdims=True)
        centers *= 5.0
        out = model.warmup_project(centers, 5.0)
        np.testing.assert_allclose(out, centers, atol=1e-12)

    def test_rescales(self):
        centers = np.array([[3.0], [4.0]])
        out = model.warmup_project(centers, 10.0)
        np.testing.assert_allclose(out[:, 0], [6.0, 8.0], atol=1e-12)

    def test_zero_column_gets_norm(self, rng):
        centers = np.zeros((5, 2))
        centers[:, 1] = 1.0
        out = model.warmup_project(centers, 8.0, rng)
        assert np.linalg.norm(out[:, 0]) == pytest.approx(8.0)
        assert np.linalg.norm(out[:, 1]) == pytest.approx(8.0)

    def test_invariant_during_training(self):
        cfg = SyntheticConfig(C=3, feature_dim=4, cluster_std=0.5,
                              center_spread=2.0, samples_per_class=10, seed=0)
        ds = gen_gaussian_clusters(cfg)
        hp = tiny_hp(epochs=2, warmup_epochs=2, warmup_norm_s=4.0, batch_size=8)
        feats = ds.features.astype(np.float64)
        net = model.init_model((4, 6), C=3, r=5, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(6):
            idx = rng.permutation(ds.n)[:8]
            model.backward_step(net, feats[idx], ds.labels[idx], hp)
            net.centers[:] = model.warmup_project(net.centers, hp.warmup_norm_s)
            norms = np.linalg.norm(net.centers, axis=0)
            np.testing.assert_allclose(norms, hp.warmup_norm_s, atol=1e-9)


def ref_train_scdh(dataset, hp, *, r, hidden=(64,)):
    """The supervised loop as it stood before it became the mean-teacher loop
    without a teacher: per-batch means weighted by the batch size."""
    init_ss, shuffle_ss, project_ss = np.random.SeedSequence(hp.seed).spawn(3)
    net = model.init_model((dataset.dim, *hidden), dataset.label_count, r, init_ss)
    rng = np.random.default_rng(shuffle_ss)
    project_rng = np.random.default_rng(project_ss)
    features = dataset.features.astype(np.float64)
    report = model.TrainReport()
    for epoch in range(hp.epochs):
        lr = hp.lr_at(epoch)
        perm = rng.permutation(dataset.n)
        sums = np.zeros(4)
        for a in range(0, dataset.n, hp.batch_size):
            idx = perm[a:min(a + hp.batch_size, dataset.n)]
            bl = model.backward_step(net, features[idx], dataset.labels[idx], hp, lr=lr)
            if epoch < hp.warmup_epochs:
                net.centers[:] = model.warmup_project(net.centers, hp.warmup_norm_s,
                                                      project_rng)
            sums += np.array([bl.scul, bl.classification, bl.quantization,
                              bl.center_distance]) * len(idx)
        report.epochs.append(model.EpochRecord(epoch, *(sums / dataset.n),
                                               learning_rate=lr))
    report.final_quantization = model.mean_quantization(net, features, hp)
    return net, report


def assert_within_ulps(a, b, ulps):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert np.all(np.abs(a - b) <= ulps * np.spacing(np.maximum(np.abs(a), np.abs(b))))


class TestTrainScdh:
    def _dataset(self, seed=0):
        cfg = SyntheticConfig(C=3, feature_dim=6, cluster_std=0.3,
                              center_spread=2.0, samples_per_class=30,
                              seed=seed)
        return gen_gaussian_clusters(cfg)

    def test_zero_epochs_returns_initial(self):
        ds = self._dataset()
        hp = tiny_hp(epochs=0)
        net, report = mt.train_scdh(ds, hp, r=6, hidden=(8,))
        fresh = model.init_model((6, 8), 3, 6,
                                 np.random.SeedSequence(hp.seed).spawn(3)[0])
        for p, q in zip(net.parameters(), fresh.parameters()):
            assert np.array_equal(p, q)
        assert report.epochs == []

    def test_determinism(self):
        ds = self._dataset()
        hp = tiny_hp(epochs=3)
        a, _ = mt.train_scdh(ds, hp, r=6, hidden=(8,))
        b, _ = mt.train_scdh(ds, hp, r=6, hidden=(8,))
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    def test_epoch_mean_loss_improves(self):
        ds = self._dataset()
        hp = tiny_hp(epochs=10, lr=2e-3)
        _, report = mt.train_scdh(ds, hp, r=6, hidden=(8,))
        first = report.epochs[0]
        last = report.epochs[-1]
        total_first = first.scul_loss + hp.mu * first.classification_loss \
            + hp.alpha * first.quantization_loss
        total_last = last.scul_loss + hp.mu * last.classification_loss \
            + hp.alpha * last.quantization_loss
        assert total_last < total_first

    def test_partial_labels_rejected(self):
        from scdh.data import strip_labels
        ds = strip_labels(self._dataset(), 0.5, seed=1)
        with pytest.raises(PreconditionError):
            mt.train_scdh(ds, tiny_hp(), r=6, hidden=(8,))

    @pytest.mark.parametrize("multilabel", [False, True])
    @pytest.mark.parametrize("warmup_epochs,schedule", [(0, ()), (2, ((1, 0.5), (3, 0.2)))])
    def test_matches_reference_loop(self, multilabel, warmup_epochs, schedule):
        # the one loop reproduces the old supervised loop: parameters and the
        # final quantization exactly; the epoch means, which it sums row by row
        # instead of as batch mean times batch size, within 2 ulp at these few
        # batches per epoch (the gap grows with the batch count: up to 4 ulp
        # at the 47-63 batches of a full multilabel6 or clusters8 epoch)
        if multilabel:
            ds = gen_multilabel(SyntheticConfig(C=5, feature_dim=6, cluster_std=0.3,
                                                center_spread=2.0, samples_per_class=12,
                                                multilabel_p=0.3, seed=2))
        else:
            ds = self._dataset(seed=1)
        hp = tiny_hp(epochs=4, batch_size=16, lr=2e-3, warmup_epochs=warmup_epochs,
                     warmup_norm_s=3.0, lr_schedule=schedule)
        net, report = mt.train_scdh(ds, hp, r=6, hidden=(8,))
        ref_net, ref_report = ref_train_scdh(ds, hp, r=6, hidden=(8,))
        for p, q in zip(net.parameters(), ref_net.parameters(), strict=True):
            assert np.array_equal(p, q)
        assert report.final_quantization == ref_report.final_quantization
        assert len(report.epochs) == len(ref_report.epochs) == hp.epochs
        for got, want in zip(report.epochs, ref_report.epochs):
            got, want = got.to_dict(), want.to_dict()
            assert got.keys() == want.keys()
            assert_within_ulps(list(got.values()), list(want.values()), 2)

    def test_no_teacher_work(self, monkeypatch):
        # supervised training copies no network, makes no EMA update and runs
        # the forward pass on the student only
        ds = self._dataset()
        calls = {"ema": 0, "copy": 0}
        nets = []

        def count(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        def forward_spy(fn):
            def wrapped(net, X):
                nets.append(net)
                return fn(net, X)
            return wrapped

        monkeypatch.setattr(mt, "ema_update", count("ema", mt.ema_update))
        monkeypatch.setattr(model.EmbeddingModel, "copy",
                            count("copy", model.EmbeddingModel.copy))
        monkeypatch.setattr(mt, "forward_batch", forward_spy(mt.forward_batch))
        monkeypatch.setattr(model, "forward_batch", forward_spy(model.forward_batch))
        net, report = mt.train_scdh(ds, tiny_hp(epochs=2), r=6, hidden=(8,))
        assert calls == {"ema": 0, "copy": 0}
        assert nets and all(n is net for n in nets)
        assert len(report.epochs) == 2

    def test_report_all_finite(self):
        ds = self._dataset()
        _, report = mt.train_scdh(ds, tiny_hp(), r=6, hidden=(8,))
        for rec in report.epochs:
            vals = [rec.scul_loss, rec.classification_loss,
                    rec.quantization_loss, rec.center_distance_term,
                    rec.learning_rate]
            assert np.all(np.isfinite(vals))
        assert np.isfinite(report.final_quantization)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        net = randomized_net(4, dims=(5, 7), C=4, r=6)
        hp = tiny_hp(lr_schedule=((2, 0.2),))
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, net, hp)
        loaded, hp2, teacher, meta = model.load_checkpoint(path)
        assert teacher is None
        assert hp2 == hp
        for a, b in zip(net.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_dual_network_roundtrip(self, tmp_path):
        student = randomized_net(4)
        teacher = randomized_net(9)
        path = tmp_path / "dual.ckpt"
        model.save_checkpoint(path, student, tiny_hp(), teacher=teacher,
                              extra_meta={"ema_decay": 0.99})
        loaded_s, _, loaded_t, meta = model.load_checkpoint(path)
        assert meta["ema_decay"] == 0.99
        for a, b in zip(teacher.parameters(), loaded_t.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(student.parameters(), loaded_s.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("field,value", [("lr", np.nan), ("mu", np.inf),
                                             ("lr_schedule", ((2, np.nan),))])
    def test_non_finite_meta_rejected(self, tmp_path, field, value):
        hp = tiny_hp()
        setattr(hp, field, value)        # bypasses __post_init__ validation
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, randomized_net(4), hp)
        with pytest.raises(ParseError, match="bad hyperparameters"):
            model.load_checkpoint(path)

    BLOCKS = ["trunk[0].W", "trunk[0].b", "hash_layer.W", "hash_layer.b",
              "classifier.W", "classifier.b", "centers"]

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("block", range(len(BLOCKS)))
    def test_non_finite_parameter_rejected(self, tmp_path, block, value):
        net = randomized_net(4, dims=(5, 7), C=4, r=6)
        net.parameters()[block].flat[-1] = value
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, net, tiny_hp())
        name = re.escape(f"student network's {self.BLOCKS[block]} block")
        with pytest.raises(ParseError, match=name):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("block", [0, 6])
    def test_non_finite_teacher_parameter_rejected(self, tmp_path, block):
        teacher = randomized_net(9)
        teacher.parameters()[block].flat[0] = -np.inf
        path = tmp_path / "dual.ckpt"
        model.save_checkpoint(path, randomized_net(4), tiny_hp(), teacher=teacher)
        name = re.escape(f"teacher network's {self.BLOCKS[block]} block")
        with pytest.raises(ParseError, match=name):
            model.load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        net = randomized_net(4)
        path = tmp_path / "model.ckpt"
        model.save_checkpoint(path, net, tiny_hp())
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(ParseError):
            model.load_checkpoint(path)
