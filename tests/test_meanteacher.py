import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdh import losses
from scdh import meanteacher as mt
from scdh import model
from scdh.data import Dataset, SyntheticConfig, gen_gaussian_clusters, strip_labels
from scdh.errors import DimensionMismatch, PreconditionError

from conftest import central_diff, rel_err


def small_semi(seed=0, keep=0.3, per_class=20):
    cfg = SyntheticConfig(C=3, feature_dim=6, cluster_std=0.4,
                          center_spread=2.0, samples_per_class=per_class,
                          seed=seed)
    ds = strip_labels(gen_gaussian_clusters(cfg), keep, seed=seed + 1)
    return mt.SemiDataset.from_partial(ds)


def params_checksum(net):
    return [p.copy() for p in net.parameters()]


class TestEmaUpdate:
    def test_decay_zero_copies_student(self):
        student = model.init_model((4, 5), C=2, r=3, seed=1)
        teacher = mt.TeacherState(model.init_model((4, 5), C=2, r=3, seed=2), 0.9)
        mt.ema_update(teacher, student, 0.0)
        for t, s in zip(teacher.model.parameters(), student.parameters()):
            assert np.array_equal(t, s)

    def test_fixed_point(self):
        student = model.init_model((4, 5), C=2, r=3, seed=1)
        teacher = mt.TeacherState(student.copy(), 0.9)
        before = params_checksum(teacher.model)
        mt.ema_update(teacher, student, 0.99)
        for t, b in zip(teacher.model.parameters(), before):
            np.testing.assert_allclose(t, b, atol=1e-15)

    def test_hand_value(self):
        student = model.init_model((2,), C=2, r=2, seed=0)
        teacher = mt.TeacherState(student.copy(), 0.99)
        for p in student.parameters():
            p[:] = 1.0
        for p in teacher.model.parameters():
            p[:] = 0.0
        mt.ema_update(teacher, student, 0.99)
        for t in teacher.model.parameters():
            np.testing.assert_allclose(t, 0.01, atol=1e-15)

    def test_shape_mismatch(self):
        student = model.init_model((4, 5), C=2, r=3, seed=1)
        other = model.init_model((4, 6), C=2, r=3, seed=1)
        teacher = mt.TeacherState(other, 0.9)
        with pytest.raises(DimensionMismatch):
            mt.ema_update(teacher, student, 0.9)

    def test_geometric_recurrence_scalar(self):
        # theta_T(t) = d^t theta_T(0) + (1-d) sum d^(t-1-k) theta_S(k)
        d = 0.9
        teacher_val = 2.0
        student_vals = [0.3, -1.2, 0.7, 2.5, 0.0]
        student = model.init_model((1,), C=1, r=1, seed=0)
        teacher = mt.TeacherState(student.copy(), d)
        teacher.model.centers[:] = teacher_val
        for v in student_vals:
            student.centers[:] = v
            mt.ema_update(teacher, student, d)
        t = len(student_vals)
        expected = d**t * teacher_val + (1 - d) * sum(
            d ** (t - 1 - k) * v for k, v in enumerate(student_vals))
        assert teacher.model.centers[0, 0] == pytest.approx(expected, rel=1e-12)


class TestPerturb:
    def test_zero_std_identity(self, rng):
        x = rng.normal(0, 1, 16)
        out = mt.perturb(x, 0.0, rng)
        assert np.array_equal(out, x)
        assert out is not x

    def test_zero_std_consumes_no_rng(self):
        r1 = np.random.default_rng(5)
        r2 = np.random.default_rng(5)
        mt.perturb(np.ones(4), 0.0, r1)
        assert r1.normal() == r2.normal()

    def test_mean_concentrates(self, rng):
        x = rng.normal(0, 1, 8)
        std = 0.5
        draws = np.stack([mt.perturb(x, std, rng) for _ in range(10_000)])
        assert np.all(np.abs(draws.mean(axis=0) - x) < 4 * std / 100)

    def test_fresh_draw_per_call(self, rng):
        x = np.zeros(8)
        assert not np.array_equal(mt.perturb(x, 0.5, rng), mt.perturb(x, 0.5, rng))


class TestConsistencyLosses:
    def test_identical_inputs_zero(self, rng):
        a = rng.normal(0, 1, 5)
        d = rng.normal(-3, 1, 5)
        res = mt.consistency_losses(a, a, d, d)
        assert res.classifier_loss == 0.0
        assert res.distance_loss == 0.0
        np.testing.assert_allclose(res.grad_logits, 0.0, atol=1e-15)

    def test_hand_value(self):
        a = np.array([np.log(3), 0.0])
        at = np.zeros(2)
        res = mt.consistency_losses(a, at, np.zeros(2), np.zeros(2))
        assert res.classifier_loss == pytest.approx(0.125, abs=1e-12)

    def test_symmetric_in_value(self, rng):
        u = rng.normal(0, 1, 6)
        v = rng.normal(0, 1, 6)
        fwd = mt.consistency_losses(u, v, u, v)
        rev = mt.consistency_losses(v, u, v, u)
        assert fwd.classifier_loss == pytest.approx(rev.classifier_loss, rel=1e-12)

    def test_gradients_finite_difference(self, rng):
        for _ in range(10):
            a = rng.normal(0, 1, 6)
            at = rng.normal(0, 1, 6)
            d = -np.abs(rng.normal(2, 0.5, 6))
            dt = -np.abs(rng.normal(2, 0.5, 6))
            res = mt.consistency_losses(a, at, d, dt)
            num_a = central_diff(
                lambda z: mt.consistency_losses(z, at, d, dt).classifier_loss,
                a, eps=1e-6)
            num_d = central_diff(
                lambda z: mt.consistency_losses(a, at, z, dt).distance_loss,
                d, eps=1e-6)
            assert rel_err(res.grad_logits, num_a) < 1e-6
            assert rel_err(res.grad_negdists, num_d) < 1e-6

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            mt.consistency_losses(np.ones(3), np.ones(4), np.ones(3), np.ones(3))


class TestBatchedConsistency:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8),
           C=st.integers(2, 7), scale=st.sampled_from([0.1, 1.0, 20.0]))
    def test_rows_match_per_row_reference(self, seed, n, C, scale):
        rng = np.random.default_rng(seed)
        a, at, d, dt = scale * rng.normal(0, 1, (4, n, C))
        res = mt.consistency_losses(a, at, d, dt)
        assert res.classifier_loss.shape == (n,)
        for i in range(n):
            cls_loss, cls_grad = mt._softmax_sqdist_grad(a[i], at[i])
            dist_loss, dist_grad = mt._softmax_sqdist_grad(d[i], dt[i])
            assert abs(res.classifier_loss[i] - cls_loss) <= 1e-12
            assert abs(res.distance_loss[i] - dist_loss) <= 1e-12
            assert np.max(np.abs(res.grad_logits[i] - cls_grad)) <= 1e-12
            assert np.max(np.abs(res.grad_negdists[i] - dist_grad)) <= 1e-12

    def test_negative_center_distances_rows(self, rng):
        F = rng.normal(0, 1, (5, 4))
        centers = rng.normal(0, 1, (4, 3))
        F[2] = centers[:, 1]
        got = mt.negative_center_distances(F, centers)
        want = np.stack([-losses.center_distances(f, centers) for f in F])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert got[2, 1] == 0.0
        np.testing.assert_array_equal(mt.negative_center_distances(F[0], centers),
                                      got[0])


class TestSemiDataset:
    def test_requires_labeled(self):
        cfg = SyntheticConfig(C=2, feature_dim=3, cluster_std=0.1,
                              center_spread=1.0, samples_per_class=5, seed=0)
        ds = gen_gaussian_clusters(cfg)
        unl = Dataset(ds.ids, ds.features, tuple(None for _ in range(ds.n)), 2)
        with pytest.raises(PreconditionError):
            mt.SemiDataset.from_partial(unl)

    def test_split_disjoint(self):
        semi = small_semi()
        assert not (set(semi.labeled.ids.tolist())
                    & set(semi.unlabeled.ids.tolist()))


class TestTrainMtScdh:
    def test_reduces_to_supervised(self):
        # no unlabeled data, zero consistency weight, zero noise: the student
        # follows the supervised trajectory exactly
        cfg = SyntheticConfig(C=3, feature_dim=6, cluster_std=0.4,
                              center_spread=2.0, samples_per_class=12, seed=4)
        ds = gen_gaussian_clusters(cfg)
        semi = mt.SemiDataset(ds, ds.subset(np.array([], dtype=int)))
        hp = model.Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=4,
                               batch_size=8, lr=1e-3, momentum=0.9, seed=9)
        student, teacher, _ = mt.train_mt_scdh(semi, hp, w=0.0, noise_std=0.0,
                                               r=5, hidden=(7,))
        supervised, _ = model.train_scdh(ds, hp, r=5, hidden=(7,))
        for a, b in zip(student.parameters(), supervised.parameters()):
            assert np.array_equal(a, b)

    def test_consistency_zero_at_step_zero(self):
        semi = small_semi()
        hp = model.Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=1,
                               batch_size=semi.labeled.n + semi.unlabeled.n,
                               lr=1e-3, momentum=0.9, seed=0)
        # one epoch of one step: the ramp makes the weight exactly zero, so
        # the recorded consistency contribution is zero
        _, _, report = mt.train_mt_scdh(semi, hp, w=50.0, noise_std=0.1,
                                        r=5, hidden=(7,))
        assert report.epochs[0].consistency_loss == 0.0

    def test_teacher_only_touched_by_ema(self):
        # training with ema decay ~1 freezes the teacher near its init; more
        # precisely, intercept: run one step manually and verify the teacher
        # moved exactly to the EMA blend, not to the optimizer update
        semi = small_semi()
        hp = model.Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=1,
                               batch_size=16, lr=1e-3, momentum=0.9, seed=3)
        student, teacher, _ = mt.train_mt_scdh(semi, hp, w=1.0, noise_std=0.1,
                                               r=5, hidden=(7,),
                                               ema_decay=0.0)
        # decay 0 makes the teacher equal the student after every step
        for t, s in zip(teacher.model.parameters(), student.parameters()):
            assert np.array_equal(t, s)

    def test_supervised_terms_match_model_module(self, rng):
        # the semi trainer's supervised loss on a labeled batch equals the
        # supervised module's loss terms, term for term
        semi = small_semi(keep=1.0)
        hp = model.Hyperparams(lam=0.02, mu=0.3, alpha=0.04, epochs=1,
                               batch_size=semi.labeled.n, lr=1e-3,
                               momentum=0.0, seed=6)
        _, _, rep_semi = mt.train_mt_scdh(semi, hp, w=0.0, noise_std=0.0,
                                          r=5, hidden=(7,))
        _, rep_sup = model.train_scdh(semi.labeled, hp, r=5, hidden=(7,))
        a, b = rep_semi.epochs[0], rep_sup.epochs[0]
        assert a.scul_loss == pytest.approx(b.scul_loss, rel=1e-12)
        assert a.classification_loss == pytest.approx(b.classification_loss,
                                                      rel=1e-12)
        assert a.quantization_loss == pytest.approx(b.quantization_loss,
                                                    rel=1e-12)

    def test_teacher_untouched_between_ema_calls(self, monkeypatch):
        # checksum the teacher after every ema_update; nothing else may have
        # modified it by the time the next ema_update begins
        semi = small_semi()
        hp = model.Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=2,
                               batch_size=16, lr=1e-3, momentum=0.9, seed=2)
        real_update = mt.ema_update
        last = {}

        def spying_update(teacher, student, decay):
            if "sum" in last:
                assert all(np.array_equal(p, q) for p, q in
                           zip(teacher.model.parameters(), last["sum"]))
            result = real_update(teacher, student, decay)
            last["sum"] = [p.copy() for p in teacher.model.parameters()]
            return result

        monkeypatch.setattr(mt, "ema_update", spying_update)
        mt.train_mt_scdh(semi, hp, w=2.0, noise_std=0.1, r=5, hidden=(7,))
        assert "sum" in last

    def test_determinism(self):
        semi = small_semi()
        hp = model.Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=2,
                               batch_size=16, lr=1e-3, momentum=0.9, seed=12)
        s1, t1, _ = mt.train_mt_scdh(semi, hp, w=2.0, noise_std=0.1, r=5,
                                     hidden=(7,))
        s2, t2, _ = mt.train_mt_scdh(semi, hp, w=2.0, noise_std=0.1, r=5,
                                     hidden=(7,))
        for a, b in zip(s1.parameters(), s2.parameters()):
            assert np.array_equal(a, b)
        for a, b in zip(t1.model.parameters(), t2.model.parameters()):
            assert np.array_equal(a, b)
