import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdh import losses
from scdh.errors import DimensionMismatch, LabelSetError, NonFiniteError

from conftest import central_diff, rel_err


def centers_with_distances(f, dists, rng, r=6):
    """Centers at prescribed distances from f along random directions."""
    f = np.asarray(f, dtype=np.float64)
    cols = []
    for d in dists:
        u = rng.normal(0, 1, f.shape[0])
        u /= np.linalg.norm(u)
        cols.append(f + d * u)
    return np.stack(cols, axis=1)


class TestEuclideanDistance:
    def test_identity(self):
        assert losses.euclidean_distance([0, 0, 0], [0, 0, 0]) == 0.0

    def test_unit(self):
        assert losses.euclidean_distance([1, 0], [0, 0]) == 1.0

    def test_345(self):
        assert losses.euclidean_distance([3, 4], [0, 0]) == pytest.approx(5.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            losses.euclidean_distance([1, 2], [1, 2, 3])


class TestNegDistSoftmax:
    def test_symmetric_four(self):
        p = losses.neg_dist_softmax(np.zeros(3), np.zeros((3, 4)))
        np.testing.assert_allclose(p, 0.25)

    def test_hand_value(self, rng):
        centers = centers_with_distances(np.zeros(5), [0.0, math.log(3)], rng)
        p = losses.neg_dist_softmax(np.zeros(5), centers)
        np.testing.assert_allclose(p, [0.75, 0.25], atol=1e-12)

    def test_equal_distances(self, rng):
        centers = centers_with_distances(np.ones(4), [2.0, 2.0], rng)
        p = losses.neg_dist_softmax(np.ones(4), centers)
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_sums_to_one(self, rng):
        for _ in range(50):
            f = rng.normal(0, 3, 8)
            centers = rng.normal(0, 3, (8, 5))
            assert abs(losses.neg_dist_softmax(f, centers).sum() - 1.0) < 1e-12

    def test_shift_invariance(self):
        # adding a constant to all distances leaves the softmax unchanged
        d = np.array([1.0, 3.0, 0.5])
        p1 = losses.stable_softmax(-d)
        p2 = losses.stable_softmax(-(d + 17.3))
        np.testing.assert_allclose(p1, p2, atol=1e-12)

    def test_large_distances_stable(self, rng):
        centers = centers_with_distances(np.zeros(4), [1000.0, 2000.0], rng)
        p = losses.neg_dist_softmax(np.zeros(4), centers)
        assert np.all(np.isfinite(p)) and abs(p.sum() - 1.0) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteError):
            losses.neg_dist_softmax(np.array([np.nan, 0.0]), np.zeros((2, 3)))


class TestSculLoss:
    def test_symmetric_two_centers(self, rng):
        centers = centers_with_distances(np.zeros(6), [2.0, 2.0], rng)
        assert losses.scul_loss(np.zeros(6), 0, centers, 0.0) == pytest.approx(
            math.log(2), abs=1e-12)
        # both centers exactly at f: same symmetric value
        assert losses.scul_loss(np.zeros(6), 0, np.zeros((6, 2)), 0.0) == \
            pytest.approx(math.log(2), abs=1e-12)

    def test_hand_value(self, rng):
        centers = centers_with_distances(np.zeros(6), [0.0, math.log(3)], rng)
        assert losses.scul_loss(np.zeros(6), 0, centers, 0.0) == pytest.approx(
            -math.log(0.75), abs=1e-12)

    def test_lambda_term_additive(self, rng):
        centers = centers_with_distances(np.zeros(6), [2.0, 2.0 + math.log(3)], rng)
        base = losses.scul_loss(np.zeros(6), 0, centers, 0.0)
        with_term = losses.scul_loss(np.zeros(6), 0, centers, 0.5)
        assert base == pytest.approx(-math.log(0.75), abs=1e-12)
        assert with_term == pytest.approx(base + 0.5 * 2.0, abs=1e-12)

    def test_empty_label_set(self):
        with pytest.raises(LabelSetError):
            losses.scul_loss(np.zeros(3), frozenset(), np.zeros((3, 2)), 0.0)

    def test_decreasing_in_other_distance(self, rng):
        # pushing a non-own center further away strictly decreases the loss
        f = rng.normal(0, 1, 8)
        centers = rng.normal(0, 1, (8, 4))
        base = losses.scul_loss(f, 1, centers, 0.3)
        far = centers.copy()
        far[:, 2] = f + 10.0 * (far[:, 2] - f)
        assert losses.scul_loss(f, 1, far, 0.3) < base

    def test_increasing_in_own_distance_with_lambda(self, rng):
        # move f away from its own center along the center ray, keeping the
        # other distances fixed by moving them with f
        f = rng.normal(0, 1, 8)
        centers = rng.normal(0, 1, (8, 3))
        d = losses.center_distances(f, centers)
        direction = (f - centers[:, 0]) / d[0]
        f2 = f + 0.5 * direction
        shifted = centers.copy()
        shifted[:, 1:] += (f2 - f)[:, None]
        d2 = losses.center_distances(f2, shifted)
        np.testing.assert_allclose(d2[1:], d[1:], atol=1e-12)
        assert losses.scul_loss(f2, 0, shifted, 0.5) > losses.scul_loss(
            f, 0, centers, 0.5)


class TestSculGradients:
    def test_finite_difference(self, rng):
        for _ in range(20):
            f = rng.normal(0, 1, 16)
            centers = rng.normal(0, 1, (16, 5))
            y = int(rng.integers(5))
            g = losses.scul_gradients(f, y, centers, 0.005)
            num_f = central_diff(lambda x: losses.scul_loss(x, y, centers, 0.005), f)
            num_c = central_diff(lambda c: losses.scul_loss(f, y, c, 0.005), centers)
            assert rel_err(g.grad_embedding, num_f) < 1e-5
            assert rel_err(g.grad_centers, num_c) < 1e-5

    def test_symmetric_center_gradients(self, rng):
        f = np.zeros(6)
        centers = centers_with_distances(f, [3.0, 3.0], rng)
        g = losses.scul_gradients(f, 0, centers, 0.0)
        u0 = (f - centers[:, 0]) / 3.0
        u1 = (f - centers[:, 1]) / 3.0
        np.testing.assert_allclose(g.grad_centers[:, 0], -(1 - 0.5) * u0, atol=1e-12)
        np.testing.assert_allclose(g.grad_centers[:, 1], 0.5 * u1, atol=1e-12)
        assert np.linalg.norm(g.grad_centers[:, 0]) == pytest.approx(
            np.linalg.norm(g.grad_centers[:, 1]), abs=1e-12)

    def test_lambda_scaling(self, rng):
        f = rng.normal(0, 1, 10)
        centers = rng.normal(0, 1, (10, 4))
        g0 = losses.scul_gradients(f, 2, centers, 0.0)
        g1 = losses.scul_gradients(f, 2, centers, 1.0)
        unit = (f - centers[:, 2]) / np.linalg.norm(f - centers[:, 2])
        np.testing.assert_allclose(g1.grad_embedding - g0.grad_embedding, unit,
                                   atol=1e-12)

    def test_zero_distance_is_finite(self):
        centers = np.zeros((4, 3))
        centers[:, 1] = 1.0
        centers[:, 2] = -1.0
        g = losses.scul_gradients(np.zeros(4), 0, centers, 0.5)
        assert np.all(np.isfinite(g.grad_embedding))
        assert np.all(np.isfinite(g.grad_centers))


class TestSculMultilabel:
    def test_reduces_to_single(self, rng):
        f = rng.normal(0, 1, 12)
        centers = rng.normal(0, 1, (12, 5))
        assert losses.scul_multilabel_loss(f, {3}, centers, 0.2) == pytest.approx(
            losses.scul_loss(f, 3, centers, 0.2), abs=1e-12)
        gm = losses.scul_multilabel_gradients(f, {3}, centers, 0.2)
        gs = losses.scul_gradients(f, 3, centers, 0.2)
        np.testing.assert_allclose(gm.grad_embedding, gs.grad_embedding, atol=1e-12)
        np.testing.assert_allclose(gm.grad_centers, gs.grad_centers, atol=1e-12)

    def test_symmetric_three(self, rng):
        f = np.zeros(6)
        centers = centers_with_distances(f, [2.0, 2.0, 2.0], rng)
        val = losses.scul_multilabel_loss(f, {0, 1}, centers, 0.0)
        assert val == pytest.approx(math.log(3), abs=1e-12)

    def test_hand_value(self, rng):
        centers = centers_with_distances(np.zeros(6), [0.0, 0.0, math.log(2)], rng)
        val = losses.scul_multilabel_loss(np.zeros(6), {0, 1}, centers, 0.1)
        assert val == pytest.approx(math.log(2.5), abs=1e-12)

    def test_finite_difference(self, rng):
        for _ in range(20):
            f = rng.normal(0, 1, 16)
            centers = rng.normal(0, 1, (16, 5))
            Y = frozenset(rng.choice(5, size=2, replace=False).tolist())
            g = losses.scul_multilabel_gradients(f, Y, centers, 0.01)
            num_f = central_diff(
                lambda x: losses.scul_multilabel_loss(x, Y, centers, 0.01), f)
            num_c = central_diff(
                lambda c: losses.scul_multilabel_loss(f, Y, c, 0.01), centers)
            assert rel_err(g.grad_embedding, num_f) < 1e-5
            assert rel_err(g.grad_centers, num_c) < 1e-5

    def test_stationary_at_symmetric_point(self):
        # labeled centers in one opposite pair, unlabeled in another: at the
        # common midpoint every pull cancels its mirror, so grad_f = 0
        r = 6
        f = np.zeros(r)
        centers = np.zeros((r, 4))
        centers[0, 0], centers[0, 1] = 2.0, -2.0
        centers[1, 2], centers[1, 3] = 3.5, -3.5
        g = losses.scul_multilabel_gradients(f, {0, 1}, centers, 0.0)
        np.testing.assert_allclose(g.grad_embedding, 0.0, atol=1e-12)

    def test_degenerate_full_label_set(self):
        with pytest.raises(LabelSetError):
            losses.scul_multilabel_loss(np.zeros(3), {0, 1}, np.zeros((3, 2)), 0.0)


class TestQuantizationLoss:
    def test_equal_magnitudes_zero(self):
        assert losses.quantization_loss([1.0, 1.0]) == pytest.approx(0.0, abs=1e-12)
        assert losses.quantization_loss([2.0, 2.0, 2.0, 2.0]) == pytest.approx(
            0.0, abs=1e-12)

    def test_hand_value(self):
        expected = 1.0 - 2.0 ** (-2.0 / 3.0)
        assert losses.quantization_loss([1.0, 0.0]) == pytest.approx(expected,
                                                                     abs=1e-12)

    def test_scale_invariance(self, rng):
        f = rng.normal(0, 1, 24)
        base = losses.quantization_loss(f)
        for t in (0.001, 0.5, 3.0, 1000.0):
            assert abs(losses.quantization_loss(t * f) - base) < 1e-12

    def test_range(self, rng):
        for _ in range(200):
            f = rng.normal(0, 2, int(rng.integers(2, 40)))
            val = losses.quantization_loss(f)
            assert 0.0 <= val <= 1.0

    def test_zero_vector(self):
        assert losses.quantization_loss(np.zeros(8)) == 1.0
        np.testing.assert_allclose(losses.quantization_gradient(np.zeros(8)), 0.0)

    def test_non_dual_exponents_rejected(self):
        with pytest.raises(ValueError):
            losses.quantization_loss([1.0, 2.0], p=3.0, q=2.0)

    def test_gradient_zero_at_minimum(self):
        g = losses.quantization_gradient(np.array([1.5, -1.5, 1.5]))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_gradient_finite_difference(self, rng):
        for _ in range(20):
            f = rng.normal(0, 1, 12)
            f[np.abs(f) < 0.05] = 0.3   # keep away from the |.| kink
            g = losses.quantization_gradient(f)
            num = central_diff(losses.quantization_loss, f, eps=1e-6)
            assert rel_err(g, num) < 1e-5

    def test_sign_antisymmetry(self, rng):
        f = rng.normal(0, 1, 10)
        np.testing.assert_allclose(losses.quantization_gradient(-f),
                                   -losses.quantization_gradient(f), atol=1e-12)


class TestClassificationLoss:
    def test_uniform_logits(self):
        loss, _ = losses.classification_loss(np.zeros(10), 3)
        assert loss == pytest.approx(math.log(10), abs=1e-12)

    def test_hand_value(self):
        loss, _ = losses.classification_loss([math.log(9), 0.0], 0)
        assert loss == pytest.approx(-math.log(0.9), abs=1e-12)

    def test_gradient_finite_difference(self, rng):
        for _ in range(20):
            logits = rng.normal(0, 2, 7)
            Y = frozenset(rng.choice(7, size=int(rng.integers(1, 3)),
                                     replace=False).tolist())
            _, grad = losses.classification_loss(logits, Y)
            num = central_diff(
                lambda z: losses.classification_loss(z, Y)[0], logits, eps=1e-6)
            assert rel_err(grad, num) < 1e-6

    def test_empty_labels(self):
        with pytest.raises(LabelSetError):
            losses.classification_loss(np.zeros(4), frozenset())


class TestTripletRankingLoss:
    def test_margin_satisfied(self):
        assert losses.triplet_ranking_loss(2, 5, losses.margin_loss(1.0)) == 0.0

    def test_margin_violated(self):
        assert losses.triplet_ranking_loss(5, 2, losses.margin_loss(1.0)) == 4.0

    def test_boundary(self):
        assert losses.triplet_ranking_loss(3, 3, losses.margin_loss(0.0)) == 0.0

    def test_softmax_form(self):
        kind = losses.softmax_loss()
        assert losses.triplet_ranking_loss(1.0, 1.0, kind) == pytest.approx(
            math.log(2), abs=1e-12)

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            losses.triplet_ranking_loss(-1, 1, losses.margin_loss(1.0))


bounded = st.floats(0.0, 50.0, allow_nan=False)


class TestGContract:
    """The comparator must be non-negative, monotone, and 1-Lipschitz."""

    @settings(max_examples=300, deadline=None)
    @given(a1=bounded, a2=bounded, b=bounded,
           m=st.floats(0.0, 5.0), kind_name=st.sampled_from(["margin", "softmax"]))
    def test_first_argument(self, a1, a2, b, m, kind_name):
        a1, a2 = min(a1, a2), max(a1, a2)
        kind = (losses.margin_loss(m) if kind_name == "margin"
                else losses.softmax_loss())
        g1 = float(kind.g(a1, b))
        g2 = float(kind.g(a2, b))
        assert g1 >= 0.0 and g2 >= 0.0
        assert -1e-9 <= g2 - g1 <= (a2 - a1) + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(a=bounded, b1=bounded, b2=bounded,
           m=st.floats(0.0, 5.0), kind_name=st.sampled_from(["margin", "softmax"]))
    def test_second_argument(self, a, b1, b2, m, kind_name):
        b1, b2 = min(b1, b2), max(b1, b2)
        kind = (losses.margin_loss(m) if kind_name == "margin"
                else losses.softmax_loss())
        g1 = float(kind.g(a, b1))
        g2 = float(kind.g(a, b2))
        assert -1e-9 <= g1 - g2 <= (b2 - b1) + 1e-9


def random_batch(seed, n, r, C, on_center=False, zero_row=False):
    """Embeddings, centers, logits and mixed single/multilabel sets."""
    rng = np.random.default_rng(seed)
    F = rng.normal(0, 1.5, (n, r))
    centers = rng.normal(0, 1.5, (r, C))
    logits = rng.normal(0, 3, (n, C))
    labelsets = []
    for _ in range(n):
        size = 1 if rng.random() < 0.5 else int(rng.integers(1, C))
        labelsets.append(frozenset(rng.choice(C, size=size, replace=False).tolist()))
    if on_center:
        F[0] = centers[:, next(iter(labelsets[0]))]
    if zero_row:
        F[-1] = 0.0
    return F, centers, logits, labelsets


def loop_reference(F, centers, logits, labelsets, lam, p=3.0, q=1.5):
    """The kernel's outputs, assembled from the per-sample functions."""
    rows = {k: [] for k in ("scul", "classification", "quantization",
                            "center_distance", "grad_embedding",
                            "grad_quantization", "grad_logits")}
    grad_centers = np.zeros_like(centers)
    for f, z, Y in zip(F, logits, labelsets):
        if len(Y) == 1:
            y = next(iter(Y))
            rows["scul"].append(losses.scul_loss(f, y, centers, lam))
            g = losses.scul_gradients(f, y, centers, lam)
        else:
            rows["scul"].append(losses.scul_multilabel_loss(f, Y, centers, lam))
            g = losses.scul_multilabel_gradients(f, Y, centers, lam)
        rows["center_distance"].append(
            sum(losses.euclidean_distance(f, centers[:, s]) for s in Y))
        rows["grad_embedding"].append(g.grad_embedding)
        grad_centers += g.grad_centers
        cls, g_cls = losses.classification_loss(z, Y)
        rows["classification"].append(cls)
        rows["grad_logits"].append(g_cls)
        rows["quantization"].append(losses.quantization_loss(f, p, q))
        rows["grad_quantization"].append(losses.quantization_gradient(f, p, q))
    out = {k: np.array(v) for k, v in rows.items()}
    out["grad_centers"] = grad_centers
    return out


class TestSculBatch:
    FIELDS = ("scul", "classification", "quantization", "center_distance",
              "grad_embedding", "grad_quantization", "grad_logits", "grad_centers")

    def assert_matches_loop(self, F, centers, logits, labelsets, lam):
        Y = losses.label_matrix(labelsets, centers.shape[1])
        got = losses.scul_batch(F, centers, logits, Y, lam)
        want = loop_reference(F, centers, logits, labelsets, lam)
        for name in self.FIELDS:
            diff = np.max(np.abs(getattr(got, name) - want[name]))
            assert diff <= 1e-12, f"{name}: max abs diff {diff}"

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7),
           r=st.integers(1, 9), C=st.integers(2, 6),
           lam=st.sampled_from([0.0, 0.005, 0.3]),
           on_center=st.booleans(), zero_row=st.booleans())
    def test_matches_per_sample_loop(self, seed, n, r, C, lam, on_center, zero_row):
        F, centers, logits, labelsets = random_batch(seed, n, r, C, on_center,
                                                     zero_row)
        self.assert_matches_loop(F, centers, logits, labelsets, lam)

    def test_two_classes_on_center_and_zero_row(self):
        F, centers, logits, labelsets = random_batch(3, 5, 4, 2, on_center=True,
                                                     zero_row=True)
        self.assert_matches_loop(F, centers, logits, labelsets, 0.01)
        got = losses.scul_batch(F, centers, logits,
                                losses.label_matrix(labelsets, 2), 0.01)
        assert got.quantization[-1] == 1.0
        assert not got.grad_quantization[-1].any()
        assert got.distances[0].min() == 0.0
        assert np.all(np.isfinite(got.grad_embedding))

    def test_unlabeled_rows_get_quantization_only(self):
        F, centers, logits, labelsets = random_batch(5, 4, 6, 3)
        Y = losses.label_matrix([labelsets[0], None, frozenset(), labelsets[3]], 3)
        got = losses.scul_batch(F, centers, logits, Y, 0.01)
        for name in ("scul", "classification", "center_distance"):
            assert not getattr(got, name)[1:3].any()
        assert not got.grad_embedding[1:3].any()
        assert not got.grad_logits[1:3].any()
        np.testing.assert_allclose(
            got.quantization[1:3],
            [losses.quantization_loss(f) for f in F[1:3]], atol=1e-15)
        labeled = losses.scul_batch(F[[0, 3]], centers, logits[[0, 3]], Y[[0, 3]], 0.01)
        np.testing.assert_allclose(got.grad_centers, labeled.grad_centers, atol=1e-15)

    def test_finite_difference_batch(self):
        # the summed weighted objective of a 4-row mixed batch, every input
        F, centers, logits, labelsets = random_batch(11, 4, 5, 4)
        F[np.abs(F) < 0.1] = 0.3          # stay off the |.| kink
        Y = losses.label_matrix(labelsets, 4)
        lam, mu, alpha = 0.01, 0.3, 0.07

        def objective(F_, centers_, logits_):
            k = losses.scul_batch(F_, centers_, logits_, Y, lam)
            return float((k.scul + mu * k.classification + alpha * k.quantization).sum())

        k = losses.scul_batch(F, centers, logits, Y, lam)
        num_F = central_diff(lambda x: objective(x, centers, logits), F, eps=1e-6)
        num_c = central_diff(lambda c: objective(F, c, logits), centers, eps=1e-6)
        num_z = central_diff(lambda z: objective(F, centers, z), logits, eps=1e-6)
        assert rel_err(k.grad_embedding + alpha * k.grad_quantization, num_F) < 1e-6
        assert rel_err(k.grad_centers, num_c) < 1e-6
        assert rel_err(mu * k.grad_logits, num_z) < 1e-6

    def test_shape_mismatch(self):
        F, centers, logits, labelsets = random_batch(0, 3, 4, 3)
        Y = losses.label_matrix(labelsets, 3)
        with pytest.raises(DimensionMismatch):
            losses.scul_batch(F[:, :3], centers, logits, Y, 0.01)
        with pytest.raises(DimensionMismatch):
            losses.scul_batch(F, centers, logits[:2], Y, 0.01)


class TestLabelMatrix:
    def test_rows(self):
        Y = losses.label_matrix([frozenset({2}), 0, None, frozenset({0, 1})], 3)
        np.testing.assert_array_equal(
            Y, [[0, 0, 1], [1, 0, 0], [0, 0, 0], [1, 1, 0]])

    def test_full_label_set_names_row(self):
        with pytest.raises(LabelSetError, match="row 2.*every class"):
            losses.label_matrix([{0}, {1}, {0, 1, 2}], 3)

    def test_single_label_with_one_class_allowed(self):
        np.testing.assert_array_equal(losses.label_matrix([{0}], 1), [[1.0]])

    def test_out_of_range_names_row(self):
        with pytest.raises(LabelSetError, match="row 1"):
            losses.label_matrix([{0}, {3}], 3)
