import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdh import bounds, retrieval
from scdh.errors import DimensionMismatch, LabelSetError, PreconditionError
from scdh.losses import TripletLossKind, margin_loss

from conftest import labels_from_sets

SOFTMAX = TripletLossKind("softmax")


def naive_triplet_loss(codes, labels, kind):
    """Deliberately independent triple loop used as the enumeration oracle."""
    n = len(labels)
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j or labels[i] != labels[j]:
                continue
            for k in range(n):
                if labels[k] == labels[i]:
                    continue
                d_ij = math.dist(codes[i], codes[j])
                d_ik = math.dist(codes[i], codes[k])
                total += float(kind.g(d_ij, d_ik))
    return total


def naive_multilabel_loss(codes, labelsets, kind):
    n = len(labelsets)
    total = 0.0
    for i in range(n):
        for j in range(n):
            shared = len(labelsets[i] & labelsets[j])
            if i == j or shared == 0:
                continue
            for k in range(n):
                if labelsets[i] & labelsets[k]:
                    continue
                d_ij = math.dist(codes[i], codes[j])
                d_ik = math.dist(codes[i], codes[k])
                total += shared * float(kind.g(d_ij, d_ik))
    return total


def random_balanced_instance(rng, C_choices=(2, 3, 4), max_per_class=4, max_r=16):
    C = int(rng.choice(C_choices))
    per_class = int(rng.integers(1, max_per_class + 1))
    r = int(rng.integers(2, max_r + 1))
    codes = rng.choice([-1.0, 1.0], size=(C * per_class, r))
    labels = np.repeat(np.arange(C), per_class)
    centers = rng.normal(0, 2, (r, C))
    return bounds.LabeledCodeSet(codes, labels), centers


def exhaustive_loss(code_set, C, kind):
    """The exhaustive triplet loss of a set balanced over C labels: the left
    side of its unary check.  Centers far from every code leave the softmax
    kind no background mass, so it sums the plain comparator g."""
    r = np.asarray(code_set.codes).shape[1]
    far = np.full((r, C), 1e6)
    return bounds.unary_upper_bound(code_set, far, kind).brute_force_loss


def trial_lhs(codes, sets, C, kind):
    """The triplet side of one Monte Carlo trial whose label sets are
    ``sets``: the exhaustive ranking loss weighted by |Y_i & Y_j|."""
    n = len(codes)
    D = bounds._pairwise_distances(np.asarray(codes, dtype=np.float64))
    Y = retrieval.pack_bits(labels_from_sets(sets, C)[None])
    lhs, _ = bounds._trial_sides(Y, kind.g(D[:, :, None], D[:, None, :]),
                                 np.zeros((n, C, C)), np.zeros((n, C)), 0.5, 1.0, 1.0)
    return float(lhs[0])


def check_one(codes, labels, C):
    """``unary_upper_bound`` of a code set, with zero centers."""
    r = np.asarray(codes).shape[-1]
    return bounds.unary_upper_bound(bounds.LabeledCodeSet(codes, labels),
                                    np.zeros((r, C)), margin_loss(1.0))


class TestLabeledCodeSet:
    """A code set is a plain record; ``unary_upper_bounds`` checks its labels."""

    def test_label_vector_validated(self):
        codes = np.ones((3, 2))
        for bad in ([0, 2, 1], [-1, 0, 1]):
            with pytest.raises(LabelSetError):
                check_one(codes, bad, 2)
        with pytest.raises(DimensionMismatch):
            check_one(codes, [0, 1], 2)

    def test_non_integral_labels_rejected(self):
        # a float label used to be truncated: [0.9, 1.5, 0.2, 1.99] read as [0, 1, 0, 1]
        kind, centers = margin_loss(1.0), np.zeros((2, 3, 2))
        for bad in ([0.9, 1.5, 0.2, 1.99], [0.0, np.nan, 1.0, 1.0], [0.0, np.inf, 1.0, 1.0],
                    ["0", "1", "0", "1"]):
            with pytest.raises(LabelSetError, match="integer"):
                check_one(np.ones((4, 3)), bad, 2)
            with pytest.raises(LabelSetError, match="integer"):
                bounds.unary_upper_bounds(np.ones((2, 4, 3)), bad, centers, kind)
        for good in ([0.0, 1.0, 0.0, 1.0], np.array([0, 1, 0, 1], np.uint8),
                     np.array([False, True, False, True])):
            got = bounds.unary_upper_bounds(np.ones((2, 4, 3)), good, centers, kind)
            want = bounds.unary_upper_bounds(np.ones((2, 4, 3)), [0, 1, 0, 1], centers, kind)
            assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
            assert check_one(np.ones((4, 3)), good, 2).to_dict() == want[0].to_dict()

    def test_label_arrays_validated(self):
        codes = np.ones((3, 2))
        # label sets and strings are not an (n,) label vector
        for bad in ((frozenset({0}), frozenset({1}), frozenset({0})),
                    np.array(["0", "1", "0"])):
            with pytest.raises(LabelSetError):
                check_one(codes, bad, 2)
        # one label per code row: a matrix, a column or a short vector is refused
        for bad in (np.array([[True, False], [False, True], [True, False]]),
                    [[0], [1], [0]], np.array([0, 1])):
            with pytest.raises(DimensionMismatch):
                check_one(codes, bad, 2)

    @pytest.mark.parametrize("codes,labels,C,error", [
        (np.ones((4, 3)), [0, 1, 0, 2], 2, LabelSetError),
        (np.ones((4, 3)), [0, -1, 0, 1], 2, LabelSetError),
        (np.ones((4, 3)), [0.0, 0.5, 1.0, 1.0], 2, LabelSetError),
        (np.ones((4, 3)), [0.0, np.nan, 1.0, 1.0], 2, LabelSetError),
        (np.ones((4, 3)), [[0, 1], [0, 1]], 2, DimensionMismatch),
        (np.ones((4, 3)), [0, 1, 0], 2, DimensionMismatch),
        (np.ones(4), [0, 1, 0, 1], 2, DimensionMismatch),
        (np.ones((4, 3)), [0, 0, 0, 1], 2, PreconditionError),
        (np.ones((4, 3)), [0, 0, 1, 1], 3, PreconditionError),
        (np.ones((4, 3)), [1, 1, 1, 1], 2, PreconditionError),
        (np.ones((1, 3)), [0], 2, PreconditionError),
        (np.ones((bounds.TRIPLET_CAP + 2, 3)), np.arange(bounds.TRIPLET_CAP + 2) % 2, 2,
         PreconditionError),
    ], ids=["above-range", "below-range", "non-integral", "nan", "label-matrix",
            "short-vector", "codes-not-a-matrix", "unbalanced", "label-missing",
            "one-label", "one-row", "over-the-cap"])
    def test_unary_check_refuses(self, codes, labels, C, error):
        # each was refused with this type when a code set took an (n, C)
        # label matrix and checked it on construction; the single entry
        # names the matrix it takes, not the stack it builds
        match = None if np.ndim(codes) == 2 else r"^codes must be an \(n, r\) matrix$"
        with pytest.raises(error, match=match):
            check_one(codes, labels, C)


class TestBruteForce:
    def test_separated_clusters_zero(self):
        codes = np.array([[10.0, 10.0], [10.0, 10.0], [-10.0, -10.0], [-10.0, -10.0]])
        cs = bounds.LabeledCodeSet(codes, [0, 0, 1, 1])
        assert exhaustive_loss(cs, 2, margin_loss(1.0)) == 0.0

    def test_two_items_no_triplets(self):
        cs = bounds.LabeledCodeSet(np.eye(2), [0, 1])
        assert exhaustive_loss(cs, 2, margin_loss(1.0)) == 0.0

    def test_matches_naive_oracle(self, rng):
        kind = margin_loss(1.0)
        codes = rng.choice([-1.0, 1.0], size=(8, 4))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cs = bounds.LabeledCodeSet(codes, labels)
        got = exhaustive_loss(cs, 2, kind)
        want = naive_triplet_loss(codes, labels, kind)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_naive_many(self, rng):
        for _ in range(15):
            cs, centers = random_balanced_instance(rng, max_per_class=3, max_r=6)
            for kind in (margin_loss(1.0), SOFTMAX):
                got = exhaustive_loss(cs, centers.shape[1], kind)
                want = naive_triplet_loss(cs.codes, cs.labels, kind)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_cap_enforced(self, rng):
        codes = rng.normal(0, 1, (70, 2))
        labels = np.arange(70) % 2
        cs = bounds.LabeledCodeSet(codes, labels)
        with pytest.raises(PreconditionError):
            exhaustive_loss(cs, 2, margin_loss(1.0))


class TestMultilabelBruteForce:
    def test_all_share_everything(self):
        codes = np.random.default_rng(0).normal(0, 1, (4, 3))
        sets = [{0, 1}] * 4
        got = trial_lhs(codes, sets, 3, margin_loss(1.0))
        assert got == naive_multilabel_loss(codes, sets, margin_loss(1.0)) == 0.0

    def test_singletons_reduce_to_single_label(self, rng):
        cs, centers = random_balanced_instance(rng, max_per_class=3, max_r=6)
        sets = [{int(l)} for l in cs.labels]
        C = centers.shape[1]
        ml = trial_lhs(cs.codes, sets, C, margin_loss(1.0))
        assert ml == pytest.approx(naive_multilabel_loss(cs.codes, sets, margin_loss(1.0)),
                                   rel=1e-12, abs=1e-12)
        assert ml == pytest.approx(exhaustive_loss(cs, C, margin_loss(1.0)),
                                   rel=1e-12, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        kind = margin_loss(1.0)
        codes = rng.choice([-1.0, 1.0], size=(8, 4))
        sets = []
        for _ in range(8):
            size = int(rng.integers(1, 3))
            sets.append(frozenset(rng.choice(3, size=size, replace=False).tolist()))
        got = trial_lhs(codes, sets, 3, kind)
        want = naive_multilabel_loss(codes, sets, kind)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


class TestTriangleInequalities:
    def test_pointwise(self, rng):
        # the distance estimates the bound machinery relies on, checked raw
        for _ in range(10_000):
            h_i, h_j, h_k, c = rng.normal(0, 2, (4, 5))
            d = np.linalg.norm
            assert d(h_i - h_j) <= d(h_i - c) + d(h_j - c) + 1e-12
            assert d(h_i - h_k) >= d(h_i - c) - d(h_k - c) - 1e-12

    def test_chain_pointwise(self, rng):
        # comparator applied to the center estimates dominates the raw term
        kind = margin_loss(1.0)
        for _ in range(2000):
            h_i, h_j, h_k, c_i, c_k = rng.normal(0, 2, (5, 6))
            d = np.linalg.norm
            lhs = float(kind.g(d(h_i - h_j), d(h_i - h_k)))
            rhs = float(kind.g(d(h_i - c_i), d(h_i - c_k))) \
                + d(h_j - c_i) + d(h_k - c_k)
            assert lhs <= rhs + 1e-9


class TestUnaryUpperBound:
    def test_multiplier_value(self, rng):
        cs, centers = random_balanced_instance(rng, C_choices=(2,), max_per_class=2,
                                               max_r=4)
        rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
        assert rep.multiplier == pytest.approx((4 / 2) ** 2 * 1)

    def test_randomized_suite(self, rng):
        for _ in range(300):
            cs, centers = random_balanced_instance(rng)
            rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
            assert rep.holds
            assert rep.lambda_estimate <= 2.0 + 1e-9

    def test_randomized_suite_softmax(self, rng):
        for _ in range(150):
            cs, centers = random_balanced_instance(rng)
            rep = bounds.unary_upper_bound(cs, centers, SOFTMAX)
            assert rep.holds
            assert rep.lambda_estimate <= 2.0 + 1e-9

    def test_perfect_clustering_both_sides_zero(self):
        r, C, per = 8, 2, 3
        centers = np.zeros((r, C))
        centers[0, 0], centers[0, 1] = 50.0, -50.0
        codes = np.concatenate([np.tile(centers[:, c], (per, 1)) for c in range(C)])
        labels = np.repeat(np.arange(C), per)
        cs = bounds.LabeledCodeSet(codes, labels)
        rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
        assert rep.brute_force_loss == 0.0
        assert rep.bound_value == 0.0
        assert rep.holds

    def test_unbalanced_rejected(self, rng):
        codes = rng.choice([-1.0, 1.0], size=(3, 4))
        cs = bounds.LabeledCodeSet(codes, [0, 0, 1])
        with pytest.raises(PreconditionError):
            bounds.unary_upper_bound(cs, rng.normal(0, 1, (4, 2)), margin_loss(1.0))


class TestEstimateLambda:
    def test_degenerate_when_codes_on_centers(self):
        r, C, per = 6, 2, 2
        centers = np.zeros((r, C))
        centers[0, 0], centers[0, 1] = 30.0, -30.0
        codes = np.concatenate([np.tile(centers[:, c], (per, 1)) for c in range(C)])
        labels = np.repeat(np.arange(C), per)
        cs = bounds.LabeledCodeSet(codes, labels)
        rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
        assert rep.lambda_estimate == 0.0
        assert rep.degenerate

    def test_bounded_by_two(self, rng):
        for _ in range(100):
            cs, centers = random_balanced_instance(rng)
            rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
            assert rep.lambda_estimate <= 2.0 + 1e-9
            assert not rep.degenerate


class TestMultilabelBoundCheck:
    def test_bound_coefficient_constants(self):
        # q(1) and Q for C=3, p=0.5
        C, p = 3, 0.5
        q1 = (C - 1) / (C - 1) * (1 - p) ** 1
        Q = (1 - p) ** 2 * (1 - p * p) ** (C - 2)
        assert q1 == pytest.approx(0.5)
        assert Q == pytest.approx(0.1875)

    def test_seeded_check_holds(self, rng):
        codes = rng.choice([-1.0, 1.0], size=(12, 8))
        centers = rng.normal(0, 2, (8, 4))
        rep = bounds.multilabel_bound_check(codes, 0.3, centers,
                                            trials=5000, seed=7, kind=margin_loss(1.0))
        assert rep.holds
        assert rep.confidence_margin > 0.0

    def test_near_one_probability_clamped(self, rng):
        codes = rng.choice([-1.0, 1.0], size=(8, 6))
        centers = rng.normal(0, 1, (6, 2))
        rep = bounds.multilabel_bound_check(codes, 0.999, centers,
                                            trials=1000, seed=1, kind=margin_loss(1.0))
        assert rep.holds

    @pytest.mark.parametrize("C", [3, 5])
    def test_label_count_is_the_centers_columns(self, rng, C):
        # the multiplier (C-1) p^2 n^2 and the bound terms share the C of
        # the centers, one column per label
        codes = rng.choice([-1.0, 1.0], size=(10, 6))
        centers = rng.normal(0, 2, (6, C))
        rep = bounds.multilabel_bound_check(codes, 0.3, centers, trials=1000, seed=1,
                                            kind=margin_loss(1.0))
        assert rep.label_count == centers.shape[1]
        assert rep.multiplier == (C - 1) * 0.3 * 0.3 * 10 * 10

    def test_trial_floor(self, rng):
        with pytest.raises(PreconditionError):
            bounds.multilabel_bound_check(np.ones((4, 2)), 0.5, np.ones((2, 2)),
                                          trials=10, seed=0, kind=margin_loss(1.0))


class TestToyGrid:
    def test_zero_distance_cell(self):
        cfg = bounds.ToyConfig(sigma_grid=(0.5,), d_grid=(0.0,),
                               samples_per_cluster=40, seed=3,
                               triplet_samples=20_000)
        row = bounds.toy_lambda_grid(cfg)[0]
        # coincident clusters: large raw triplet loss (no separation)
        assert row.triplet_loss > 0.0
        assert row.unary_bound >= row.triplet_loss * 0.9

    def test_seed_determinism_and_regression_value(self):
        cfg = bounds.ToyConfig(sigma_grid=(0.5,), d_grid=(5.0,), seed=0)
        row = bounds.toy_lambda_grid(cfg)[0]
        again = bounds.toy_lambda_grid(cfg)[0]
        assert row.lambda_estimate == again.lambda_estimate
        # frozen from this runner's first execution (sigma=0.5, d=5, seed=0)
        assert row.lambda_estimate == pytest.approx(0.0062721458311075, abs=1e-12)
        assert row.lambda_estimate < 1.0

    def test_thread_schedule_independence(self):
        cfg = bounds.ToyConfig(sigma_grid=(0.3, 0.8), d_grid=(2.0, 6.0),
                               samples_per_cluster=50, seed=9,
                               triplet_samples=20_000)
        seq = bounds.toy_lambda_grid(cfg, threads=1)
        par = bounds.toy_lambda_grid(cfg, threads=4)
        for a, b in zip(seq, par):
            assert a.to_dict() == b.to_dict()

    def test_ordering_triplet_relaxed_bound(self):
        cfg = bounds.ToyConfig(sigma_grid=(0.6,), d_grid=(3.0,),
                               samples_per_cluster=10, seed=2)
        row = bounds.toy_lambda_grid(cfg)[0]   # n=20 < threshold: exact sums
        assert row.triplet_loss <= row.relaxed_triplet_loss + 1e-9
        assert row.relaxed_triplet_loss <= row.unary_bound + 1e-9


# ---------------------------------------------------------------------------
# Reference copies of the per-row and per-trial implementations that the
# array-at-a-time paths replace; the rewritten paths must match them with ==.
# ---------------------------------------------------------------------------

def ref_brute_force_triplet_loss(code_set, kind):
    y = np.asarray(code_set.labels)
    D = np.linalg.norm(code_set.codes[:, None, :] - code_set.codes[None, :, :], axis=2)
    total = 0.0
    for i in range(len(y)):
        sim = (y == y[i])
        sim[i] = False
        dis = y != y[i]
        if not sim.any() or not dis.any():
            continue
        total += float(kind.g(D[i, sim][:, None], D[i, dis][None, :]).sum())
    return total


def ref_softmax_background_triplet_loss(code_set, centers):
    y = np.asarray(code_set.labels)
    D = np.linalg.norm(code_set.codes[:, None, :] - code_set.codes[None, :, :], axis=2)
    Dc = bounds._code_center_distances(code_set.codes, centers)
    expd = np.exp(-Dc)
    total = 0.0
    for i in range(len(y)):
        sim = (y == y[i])
        sim[i] = False
        dis = y != y[i]
        if not sim.any() or not dis.any():
            continue
        a = D[i, sim][:, None]
        b = D[i, dis][None, :]
        background = expd[i].sum() - expd[i, y[i]] - expd[i, y[dis]]
        tail = np.logaddexp(-a, -b)
        tail = np.logaddexp(tail, np.log(np.maximum(background, 1e-300))[None, :])
        total += float((a + tail).sum())
    return total


def ref_sample_label_matrix(rng, n, C, p):
    Y = rng.random((n, C)) < p
    while True:
        empty = ~Y.any(axis=1)
        if not empty.any():
            return Y
        Y[empty] = rng.random((int(empty.sum()), C)) < p


def ref_trial_sides(Y, G, Gc, Dc, p, multiplier, Q):
    n, C = Y.shape
    overlap = (Y[:, None, :] & Y[None, :, :]).sum(axis=2)
    sim_w = overlap * ~np.eye(n, dtype=bool)
    dis = overlap == 0
    lhs = np.einsum("ij,ik,ijk->", sim_w.astype(np.float64), dis.astype(np.float64), G)
    sizes = Y.sum(axis=1)
    qy = (C - sizes) / (C - 1) * (1.0 - p) ** sizes
    pos = Y[:, :, None] & ~Y[:, None, :]
    lmc = np.where(pos, Gc, 0.0).sum(axis=(1, 2)) / np.maximum(C - sizes, 1)
    dist_term = np.where(Y, Dc, 0.0).sum(axis=1)
    return lhs, multiplier * float((qy * lmc + (Q + qy) * dist_term).sum())


def ref_multilabel_bound_check(codes, C, p, centers, trials, seed, kind):
    p = min(p, 0.99)
    codes = np.asarray(codes, dtype=np.float64)
    n = codes.shape[0]
    rng = np.random.default_rng(seed)
    D = np.linalg.norm(codes[:, None, :] - codes[None, :, :], axis=2)
    Dc = bounds._code_center_distances(codes, centers)
    G = kind.g(D[:, :, None], D[:, None, :])
    Gc = kind.g(Dc[:, :, None], Dc[:, None, :])
    multiplier = (C - 1) * p * p * n * n
    Q = (1.0 - p) ** 2 * (1.0 - p * p) ** (C - 2)
    lhs = np.empty(trials)
    rhs = np.empty(trials)
    for t in range(trials):
        Y = ref_sample_label_matrix(rng, n, C, p)
        lhs[t], rhs[t] = ref_trial_sides(Y, G, Gc, Dc, p, multiplier, Q)
    diff = rhs - lhs
    margin = bounds.Z_99 * float(diff.std(ddof=1) / np.sqrt(trials))
    mean_lhs, mean_rhs = float(lhs.mean()), float(rhs.mean())
    holds = mean_lhs <= mean_rhs + margin + bounds.BOUND_RTOL * abs(mean_rhs)
    return bounds.BoundReport(mean_lhs, mean_rhs, multiplier, 0.0, bool(holds),
                              kind=kind.kind, n=n, label_count=C,
                              confidence_margin=margin)


def ref_toy_cell(cfg, sigma, d, seed_seq):
    """The toy cell with per-row enumeration and (T, r) gathers of code rows."""
    rng = np.random.default_rng(seed_seq)
    kind = margin_loss(cfg.margin)
    m = cfg.samples_per_cluster
    n = cfg.C * m
    means = bounds._simplex_centers(cfg.C, d, cfg.r)
    codes = np.concatenate(
        [means[c] + sigma * rng.standard_normal((m, cfg.r)) for c in range(cfg.C)])
    y = np.repeat(np.arange(cfg.C), m)
    Dc = bounds._code_center_distances(codes, means.T)
    d_own = Dc[np.arange(n), y]
    lc = bounds._hinge_lc(d_own, Dc, kind)
    multiplier = (n / cfg.C) ** 2 * (cfg.C - 1)
    unary = multiplier * float((lc + 2.0 * d_own).sum())
    total_triplets = n * (m - 1) * (n - m)
    if n < bounds.TOY_ENUMERATION_THRESHOLD:
        lt = ref_brute_force_triplet_loss(bounds.LabeledCodeSet(codes, y), kind)
        relaxed = 0.0
        for i in range(n):
            sim = (y == y[i]) & (np.arange(n) != i)
            dis = y != y[i]
            g_part = kind.g(d_own[i], Dc[i, y[dis]])
            relaxed += float(
                (g_part[None, :] + d_own[sim][:, None] + d_own[dis][None, :]).sum())
    else:
        T = cfg.triplet_samples
        i_idx = rng.integers(0, n, T)
        off = rng.integers(0, m - 1, T)
        j_idx = (i_idx // m) * m + off + (off >= i_idx % m)
        k_raw = rng.integers(0, n - m, T)
        k_idx = np.where(k_raw >= (i_idx // m) * m, k_raw + m, k_raw)
        d_ij = np.linalg.norm(codes[i_idx] - codes[j_idx], axis=1)
        d_ik = np.linalg.norm(codes[i_idx] - codes[k_idx], axis=1)
        lt = float(kind.g(d_ij, d_ik).mean()) * total_triplets
        relaxed_terms = (kind.g(d_own[i_idx], Dc[i_idx, y[k_idx]])
                         + d_own[j_idx] + d_own[k_idx])
        relaxed = float(relaxed_terms.mean()) * total_triplets
    lam, degenerate = bounds._lambda_from_parts(lt, multiplier, float(lc.sum()),
                                                float(d_own.sum()))
    return bounds.ToyCell(sigma, d, lt, relaxed, unary, lam, degenerate)


def ref_lambda(code_set, centers, kind, triplet_loss):
    """(lambda, degenerate) of the tightened unary bound from a reference
    triplet loss and numpy's per-item classification losses lc_i and
    own-center distances, in the summation order of the unary kernel."""
    y, C = np.asarray(code_set.labels), centers.shape[1]
    n = len(y)
    Dc = np.linalg.norm(code_set.codes[:, :, None] - centers[None], axis=1)   # (n, C)
    d_own = Dc[np.arange(n), y]
    if kind.kind == "margin":       # mean of g(d_y, d_l) over l != y
        lc = (kind.g(d_own[:, None], Dc).sum(axis=1) - kind.g(d_own, d_own)) / (C - 1)
    else:                           # -log softmax_y of -Dc
        m = (-Dc).max(axis=1)
        lc = d_own + (m + np.log(np.exp(-Dc - m[:, None]).sum(axis=1)))
    dist_sum = float(d_own.sum())
    if dist_sum <= 0.0:
        return 0.0, True
    return (triplet_loss / ((n / C) ** 2 * (C - 1)) - float(lc.sum())) / dist_sum, False


@st.composite
def labeled_sets(draw):
    """Single-label code sets: balanced or not, sorted or shuffled rows,
    +/-1 or real codes, from n = 2 upward."""
    C = draw(st.integers(2, 5))
    if draw(st.booleans()):
        y = np.repeat(np.arange(C), draw(st.integers(1, 5)))
    else:
        y = np.array(draw(st.lists(st.integers(0, C - 1), min_size=2, max_size=24)))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        y = rng.permutation(y)
    r = draw(st.integers(1, 12))
    if draw(st.booleans()):
        codes = rng.choice([-1.0, 1.0], size=(y.size, r))
    else:
        codes = rng.normal(0, 1.5, (y.size, r))
    return bounds.LabeledCodeSet(codes, y), rng.normal(0, 2, (r, C))


# at margin 0 hinge arguments land on exactly 0
KINDS = [margin_loss(1.0), margin_loss(0.25), margin_loss(0.0), SOFTMAX]


def balanced(code_set, C) -> bool:
    """No label of C missing or more frequent than another."""
    counts = np.bincount(code_set.labels, minlength=C)
    return bool((counts == counts[0]).all())


class TestRowBlocksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(labeled_sets())
    def test_brute_force(self, case):
        cs, centers = case
        C = centers.shape[1]
        if not balanced(cs, C):
            with pytest.raises(PreconditionError):
                exhaustive_loss(cs, C, margin_loss(1.0))
            return
        for kind in KINDS:
            assert exhaustive_loss(cs, C, kind) == ref_brute_force_triplet_loss(cs, kind)

    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_softmax_background(self, case):
        cs, centers = case
        C = centers.shape[1]
        if not balanced(cs, C):
            with pytest.raises(PreconditionError):
                bounds._row_blocks(cs.labels, C)
            return
        label_rows = bounds._row_blocks(cs.labels, C)
        rep, = bounds._unary_reports(cs.codes[None], label_rows, centers[None], SOFTMAX)
        assert rep.brute_force_loss == ref_softmax_background_triplet_loss(cs, centers)

    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_unary_report(self, case):
        cs, centers = case
        if not balanced(cs, centers.shape[1]):
            with pytest.raises(PreconditionError):
                bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
            return
        for kind in KINDS:
            rep = bounds.unary_upper_bound(cs, centers, kind)
            want = (ref_softmax_background_triplet_loss(cs, centers)
                    if kind.kind == "softmax" else ref_brute_force_triplet_loss(cs, kind))
            assert rep.brute_force_loss == want

    def test_two_rows(self):
        cs = bounds.LabeledCodeSet([[0.5, 1.0], [-2.0, 0.25]], [1, 0])
        for kind in KINDS:
            assert exhaustive_loss(cs, 2, kind) == 0.0
        rep = bounds.unary_upper_bound(cs, np.zeros((2, 2)), SOFTMAX)
        assert rep.brute_force_loss == 0.0

    def test_pairwise_distances_over_several_blocks(self, rng):
        codes = rng.normal(0, 1, (150, 7))
        D = bounds._pairwise_distances(codes, block=64)
        # the reference's full (n, n, r) difference tensor, reduced per row
        want = np.linalg.norm(codes[:, None, :] - codes[None, :, :], axis=2)
        assert np.array_equal(D, want)
        # 150 is a multiple of neither block
        for block in (1, bounds.TOY_TABLE_BLOCK, 16):
            assert np.array_equal(bounds._pairwise_distances(codes, block=block), want), block
        i, j = rng.integers(0, 150, 500), rng.integers(0, 150, 500)
        assert np.array_equal(bounds._pair_distances(codes, i, j, chunk=64), D[i, j])


def ref_random_bound_instance(rng, classes, max_n, max_r):
    """The verify-bounds draw as written with ``rng.choice``."""
    C = int(rng.choice(list(classes)))
    per_class = int(rng.integers(1, max(max_n // C, 1) + 1))
    r = int(rng.integers(2, max_r + 1))
    codes = rng.choice([-1.0, 1.0], size=(C * per_class, r))
    labels = np.repeat(np.arange(C), per_class)
    centers = rng.normal(0.0, 2.0, (r, C))
    return bounds.LabeledCodeSet(codes, labels), centers


@st.composite
def code_stacks(draw):
    """(b, n, r) code stacks sharing one shuffled balanced label vector, with
    per-class counts from 1, +/-1 or real codes, and their (b, r, C) centers."""
    C = draw(st.integers(2, 5))
    per_class = draw(st.integers(1, 4))
    b = draw(st.sampled_from([1, 2, 7]))
    r = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = np.repeat(np.arange(C), per_class)
    if draw(st.booleans()):
        y = rng.permutation(y)
    shape = (b, y.size, r)
    if draw(st.booleans()):
        codes = np.array([-1.0, 1.0])[rng.integers(0, 2, shape)]
    else:
        codes = rng.normal(0, 1.5, shape)
    return codes, y, rng.normal(0, 2, (b, r, C))


class TestUnaryStackMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(code_stacks())
    def test_stack_equals_single_checks_and_reference(self, case):
        codes, y, centers = case
        for kind in KINDS:
            got = bounds.unary_upper_bounds(codes, y, centers, kind)
            assert len(got) == len(codes)
            for t, rep in enumerate(got):
                cs = bounds.LabeledCodeSet(codes[t], y)
                assert rep.to_dict() == \
                    bounds.unary_upper_bound(cs, centers[t], kind).to_dict()
                want = (ref_softmax_background_triplet_loss(cs, centers[t])
                        if kind.kind == "softmax" else ref_brute_force_triplet_loss(cs, kind))
                assert rep.brute_force_loss == want
                assert (rep.lambda_estimate, rep.degenerate) == \
                    ref_lambda(cs, centers[t], kind, want)

    def test_benchmark_requests_match_reference(self):
        # the inputs the certify benchmark times its single checks on
        kind = margin_loss(1.0)
        rng = np.random.default_rng(3)
        for _ in range(200):
            cs, centers = bounds.random_bound_instance(rng, (2, 3, 4), 12, 16)
            rep = bounds.unary_upper_bound(cs, centers, kind)
            want = ref_brute_force_triplet_loss(cs, kind)
            assert rep.brute_force_loss == want
            assert (rep.lambda_estimate, rep.degenerate) == ref_lambda(cs, centers, kind, want)

    @settings(max_examples=60, deadline=None)
    @given(code_stacks())
    def test_memory_layout_does_not_change_bits(self, case):
        codes, y, centers = case
        fortran = np.asfortranarray(codes)
        transposed = np.ascontiguousarray(codes.transpose(0, 2, 1)).transpose(0, 2, 1)
        wide = np.repeat(centers, 2, axis=2)[:, :, ::2]       # a strided view
        assert not wide.flags.c_contiguous
        assert min(codes.shape[1:]) == 1 or not transposed.flags.c_contiguous
        for kind in KINDS:
            want = [r.to_dict() for r in bounds.unary_upper_bounds(codes, y, centers, kind)]
            for c, z in ((fortran, centers), (transposed, wide), (codes, wide)):
                got = bounds.unary_upper_bounds(c, y, z, kind)
                assert [r.to_dict() for r in got] == want
            single = bounds.LabeledCodeSet(np.asfortranarray(codes[0]), y)
            assert bounds.unary_upper_bound(single, wide[0], kind).to_dict() == want[0]

    def test_stack_worked_in_pieces(self, rng, monkeypatch):
        codes = rng.normal(0, 1, (9, 6, 4))
        centers = rng.normal(0, 2, (9, 4, 3))
        y = np.array([2, 0, 1, 1, 2, 0])
        want = bounds.unary_upper_bounds(codes, y, centers, SOFTMAX)
        monkeypatch.setattr(bounds, "UNARY_STACK_FLOATS", 2 * 6 * 6 * 6)
        got = bounds.unary_upper_bounds(codes, y, centers, SOFTMAX)
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert bounds.unary_upper_bounds(codes[:0], y, centers[:0], SOFTMAX) == []

    def test_stack_rejects_bad_input(self, rng):
        codes = rng.normal(0, 1, (2, 4, 3))
        centers = rng.normal(0, 2, (2, 3, 2))
        kind = margin_loss(1.0)
        with pytest.raises(PreconditionError):                   # not balanced
            bounds.unary_upper_bounds(codes, [0, 0, 0, 1], centers, kind)
        with pytest.raises(PreconditionError):                   # label 2 missing
            bounds.unary_upper_bounds(codes, [0, 0, 1, 1], rng.normal(0, 2, (2, 3, 3)), kind)
        with pytest.raises(LabelSetError):                       # label 2 has no center
            bounds.unary_upper_bounds(codes, [0, 1, 0, 2], centers, kind)
        with pytest.raises(DimensionMismatch):
            bounds.unary_upper_bounds(codes, [0, 1, 0, 1], centers[:, :2], kind)
        with pytest.raises(DimensionMismatch):
            bounds.unary_upper_bounds(codes[0], [0, 1, 0, 1], centers, kind)
        with pytest.raises(DimensionMismatch):                   # one set's centers
            bounds.unary_upper_bounds(codes, [0, 1, 0, 1], centers[0], kind)
        over = bounds.TRIPLET_CAP + 1                    # 65 = 5 x 13 rows
        with pytest.raises(PreconditionError, match="cap"):
            bounds.unary_upper_bounds(np.ones((2, over, 3)), np.repeat(np.arange(5), 13),
                                      np.zeros((2, 3, 5)), kind)

    def test_row_blocks_are_cached_read_only(self):
        y = np.array([1, 0, 1, 0, 2, 2])
        label_rows = bounds._row_blocks(y, 3)
        assert bounds._row_blocks(y.astype(np.int32), 3) is label_rows
        assert label_rows.labels.tolist() == y.tolist()
        sim, dis, sim_at, dis_at, _, own_at = label_rows
        assert own_at.tolist() == [1, 3, 7, 9, 14, 17]
        with pytest.raises(ValueError, match="read-only"):
            own_at[0] = 0
        assert sim.tolist() == [[2], [3], [0], [1], [5], [4]]
        assert dis[0].tolist() == [1, 3, 4, 5]
        rows = np.arange(6)[:, None]
        assert np.array_equal(sim_at, rows * 6 + sim)
        assert np.array_equal(dis_at, rows * 6 + dis)
        with pytest.raises(ValueError, match="read-only"):
            sim[0, 0] = 1
        for unbalanced, C in (([1, 0, 1, 0, 2, 2], 4),          # label 3 is missing
                              ([0, 0, 1, 1, 1, 2], 3)):
            with pytest.raises(PreconditionError, match="balanced"):
                bounds._row_blocks(np.array(unbalanced), C)
        for one_label in ([3], [2, 2, 2]):
            with pytest.raises(PreconditionError):
                bounds._row_blocks(np.array(one_label), 4)
        for out_of_range in ([0, 1, 4], [-1, 0, 1]):
            with pytest.raises(LabelSetError):
                bounds._row_blocks(np.array(out_of_range), 4)


class TestBoundDraws:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_draws_continue_the_choice_stream(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            cs, centers = bounds.random_bound_instance(rng, (2, 3, 4), 12, 16)
            want, want_centers = ref_random_bound_instance(ref, (2, 3, 4), 12, 16)
            assert np.array_equal(cs.codes, want.codes)
            assert np.array_equal(cs.labels, want.labels)
            assert np.array_equal(centers, want_centers)

    @pytest.mark.parametrize("kind", [margin_loss(1.0), SOFTMAX])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_suite_reports_each_draw_in_order(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(bounds, "BOUND_DRAW_CHUNK", chunk)
        got = bounds.run_bound_suite(150, (2, 3, 4), 12, 16, kind, seed=3)
        rng = np.random.default_rng(3)
        want = [bounds.unary_upper_bound(*ref_random_bound_instance(rng, (2, 3, 4), 12, 16),
                                         kind) for _ in range(150)]
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert bounds.run_bound_suite(0, (2, 3, 4), 12, 16, kind, seed=3) == []

    def test_to_dict_equals_asdict(self):
        # the shallow dict has asdict's keys, order and values, so the JSON
        # and CSV rows built from it keep their bytes
        cells = bounds.toy_lambda_grid(bounds.ToyConfig(
            sigma_grid=(0.5,), d_grid=(0.0, 3.0), samples_per_cluster=10, seed=1))
        drawn = [*bounds.run_bound_suite(40, (2, 3, 4), 12, 16, SOFTMAX, seed=5),
                 *bounds.run_multilabel_suite(2, 1000, SOFTMAX, seed=5), *cells]
        for item in drawn:
            got = item.to_dict()
            assert list(got.items()) == list(dataclasses.asdict(item).items())
            assert got is not item.to_dict()


class TestMonteCarloMatchesReference:
    @pytest.mark.parametrize("n,C,p,trials,kind", [
        (12, 3, 0.2, 1000, margin_loss(1.0)),      # rejection-heavy
        (8, 5, 0.5, 1001, SOFTMAX),
        (10, 4, 0.3, 4 * bounds.ML_TRIAL_BLOCK, margin_loss(0.5)),  # whole blocks
        (9, 3, 0.999, 1000, margin_loss(1.0)),     # clamped to 0.99
        (1, 2, 0.05, 1000, SOFTMAX),        # one row, mostly empty draws
        (2, 2, 0.3, 1257, margin_loss(1.0)),
    ])
    def test_report(self, n, C, p, trials, kind):
        rng = np.random.default_rng(n * 100 + C)
        codes = rng.choice([-1.0, 1.0], size=(n, 5))
        centers = rng.normal(0, 2, (5, C))
        with np.errstate(invalid="ignore", divide="ignore"):
            got = bounds.multilabel_bound_check(codes, p, centers, trials,
                                                seed=trials, kind=kind)
            want = ref_multilabel_bound_check(codes, C, p, centers, trials,
                                              trials, kind)
        assert got.to_dict() == want.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 6), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           st.integers(1, 300), st.sampled_from([1, 7, 64, 256]), st.integers(0, 2**32 - 1))
    @example(n=3, C=64, p=0.05, trials=9, block=7, seed=1)     # one full word
    @example(n=2, C=65, p=0.05, trials=5, block=1, seed=2)     # a second word
    @example(n=4, C=70, p=0.2, trials=11, block=7, seed=3)
    def test_label_blocks_continue_the_stream(self, n, C, p, trials, block, seed):
        rng = np.random.default_rng(seed)
        want = np.stack([ref_sample_label_matrix(rng, n, C, p) for _ in range(trials)])
        blocks = list(bounds._label_matrix_blocks(np.random.default_rng(seed), trials,
                                                  n, C, p, block))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert all(b.dtype == np.uint64 for b in blocks)
        assert np.array_equal(np.concatenate(blocks), retrieval.pack_bits(want))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.integers(2, 7), st.integers(1, 40),
           st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32 - 1))
    @example(n=1, C=4, b=1, p=0.2, seed=0)      # a one-element (b, n) power
    @example(n=3, C=70, b=5, p=0.1, seed=1)     # two words per code
    @example(n=9, C=60, b=4, p=0.5, seed=2)     # a key of all 64 bits
    @example(n=17, C=60, b=3, p=0.5, seed=3)    # one word, too wide for one key
    def test_trial_sides(self, n, C, b, p, seed):
        rng = np.random.default_rng(seed)
        codes = rng.normal(0, 1, (n, 4))
        Dc = bounds._code_center_distances(codes, rng.normal(0, 2, (4, C)))
        D = bounds._pairwise_distances(codes)
        Y = rng.random((b, n, C)) < p
        Y[:, 0] = Y[0, 0]                   # one item shares its set across trials
        for kind in KINDS:
            G = kind.g(D[:, :, None], D[:, None, :])
            Gc = kind.g(Dc[:, :, None], Dc[:, None, :])
            lhs, rhs = bounds._trial_sides(retrieval.pack_bits(Y), G, Gc, Dc, p, 3.5, 0.25)
            want = [ref_trial_sides(y, G, Gc, Dc, p, 3.5, 0.25) for y in Y]
            assert lhs.tolist() == [w[0] for w in want]
            assert rhs.tolist() == [w[1] for w in want]

    @pytest.mark.parametrize("n,C", [(6, 5), (9, 60), (17, 60), (6, 70)])
    def test_distinct_sets(self, n, C):
        rng = np.random.default_rng(C)
        Y = retrieval.pack_bits(rng.random((40, n, C)) < 0.3)
        Y[:, 2] = Y[0, 2]
        item, codes, inverse = bounds._distinct_sets(Y, C)
        assert len(set(zip(item.tolist(), map(bytes, codes)))) == len(item)
        assert np.array_equal(item[inverse], np.broadcast_to(np.arange(n), (40, n)))
        assert np.array_equal(codes[inverse], Y)
        assert (inverse[:, 2] == inverse[0, 2]).all()

    def test_block_memory_at_wide_label_sets(self):
        # C = 70, two words a code: one block peaks no higher than the
        # (b, n, C, C) bool mask and the float64 ``np.where`` copy of it that
        # the per-trial form allocates for a block
        n, C, b, p = 6, 70, 16, 0.3
        rng = np.random.default_rng(0)
        codes = rng.normal(0, 1, (n, 4))
        Dc = bounds._code_center_distances(codes, rng.normal(0, 2, (4, C)))
        D = bounds._pairwise_distances(codes)
        kind = margin_loss(1.0)
        G = kind.g(D[:, :, None], D[:, None, :])
        Gc = kind.g(Dc[:, :, None], Dc[:, None, :])
        Y, = bounds._label_matrix_blocks(np.random.default_rng(1), b, n, C, p, block=b)
        assert Y.shape == (b, n, 2)
        tracemalloc.start()
        try:
            bounds._trial_sides(Y, G, Gc, Dc, p, 3.5, 0.25)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= b * n * C * C * (1 + 8)

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(PreconditionError):
            bounds.multilabel_bound_check(np.ones((0, 2)), 0.5, np.ones((2, 3)),
                                          trials=1000, seed=0, kind=margin_loss(1.0))
        with pytest.raises(PreconditionError):                   # one label
            bounds.multilabel_bound_check(np.ones((4, 2)), 0.5, np.ones((2, 1)),
                                          trials=1000, seed=0, kind=margin_loss(1.0))
        for codes, centers in ((np.ones((4, 2)), np.ones((3, 2))),     # another r
                               (np.ones(4), np.ones((4, 2))),
                               (np.ones((4, 2)), np.ones(2))):
            with pytest.raises(DimensionMismatch):
                bounds.multilabel_bound_check(codes, 0.5, centers, trials=1000, seed=0,
                                              kind=margin_loss(1.0))


class TestToyCellMatchesReference:
    @pytest.mark.parametrize("kw", [
        dict(samples_per_cluster=40, triplet_samples=20_000),    # n^2 <= T: table
        dict(C=3, samples_per_cluster=20, triplet_samples=5_000),  # table, C=3
        dict(samples_per_cluster=60, triplet_samples=3_000),     # n^2 > T: pairs
        dict(samples_per_cluster=10),                            # enumeration
        dict(C=3, r=5, samples_per_cluster=7),                   # enumeration, C=3
        dict(C=4, r=6, samples_per_cluster=25, triplet_samples=7_000, margin=0.5),
    ])
    def test_cells(self, kw):
        cfg = bounds.ToyConfig(sigma_grid=(0.3, 1.5), d_grid=(0.0, 4.0), seed=11, **kw)
        got = bounds.toy_lambda_grid(cfg)
        cells = [(s, d) for s in cfg.sigma_grid for d in cfg.d_grid]
        children = np.random.SeedSequence(cfg.seed).spawn(len(cells))
        want = [ref_toy_cell(cfg, s, d, ss) for (s, d), ss in zip(cells, children)]
        assert [c.to_dict() for c in got] == [c.to_dict() for c in want]

    @pytest.mark.parametrize("kw", [
        dict(samples_per_cluster=40, triplet_samples=20_000),    # table
        dict(samples_per_cluster=60, triplet_samples=3_001),     # pairs
        # n = 30: T below, equal to or a multiple of some chunk
        dict(samples_per_cluster=15, triplet_samples=5),         # pairs
        dict(samples_per_cluster=15, triplet_samples=7),
        dict(samples_per_cluster=15, triplet_samples=999),       # table from here
        dict(samples_per_cluster=15, triplet_samples=1024),
        dict(samples_per_cluster=15, triplet_samples=6993),      # 7 * 999
        dict(samples_per_cluster=15, triplet_samples=7168),      # 7 * 1024
    ])
    def test_cells_in_chunks(self, kw, monkeypatch):
        # chunks that do not divide T; each mean still runs over all T terms
        cfg = bounds.ToyConfig(sigma_grid=(0.3,), d_grid=(4.0,), seed=5, **kw)
        seed_seq, = np.random.SeedSequence(cfg.seed).spawn(1)
        want = [ref_toy_cell(cfg, 0.3, 4.0, seed_seq).to_dict()]
        for chunk in (7, 999, 1024):
            monkeypatch.setattr(bounds, "TOY_CHUNK", chunk)
            assert [c.to_dict() for c in bounds.toy_lambda_grid(cfg)] == want, chunk

    @staticmethod
    def _cell_peak(triplets: int) -> int:
        cfg = bounds.ToyConfig(sigma_grid=(1.5,), d_grid=(4.0,), seed=0,
                               triplet_samples=triplets)
        tracemalloc.start()
        try:
            bounds._toy_cell(cfg, 1.5, 4.0, np.random.SeedSequence(0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sampled_cell_memory(self):
        # the (T, r) gathers of the reference peak at ~162 MB here; the cell
        # peaks at ~7 MB, most of it chunk temporaries and the distance table
        assert self._cell_peak(200_000) < 10 * 2**20

    def test_sampled_cell_memory_at_a_million_triplets(self):
        # two narrow (T,) index draws (2 bytes a triplet each at n = 400) are
        # whole; everything else is a chunk at a time (~44 MB with three int64
        # draws and two float64 term arrays whole, ~97 MB with whole-array
        # steps); the cell peaks at ~11 MB
        assert self._cell_peak(1_000_000) < 16 * 2**20

    def test_sampled_cell_memory_grows_by_the_draws_alone(self):
        # n = 400: 3M more triplets add 4 bytes each, plus under 1 MB of slack
        assert self._cell_peak(4_000_000) <= (self._cell_peak(1_000_000)
                                              + 4 * 3_000_000 + 2**20)

    @pytest.mark.parametrize("kw", [dict(C=1), dict(C=3, r=2),
                                    dict(samples_per_cluster=1),
                                    dict(triplet_samples=0), dict(margin=-0.5)])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(PreconditionError):
            bounds.ToyConfig(**kw)


class TestPairwiseSum:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 5 * 1024))
    @example(n=5 * 1024)
    def test_leaf_sums_up_the_tree_equal_add_reduce(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, n)
        for leaf in (7, 999, 1024):
            leaves = []

            def leaf_sums(lo, hi):
                leaves.append((lo, hi))
                return np.add.reduce(x[lo:hi])

            assert bounds._pairwise_sum(n, leaf_sums, leaf) == np.add.reduce(x)
            # the leaves tile 0..n left to right, none longer than the leaf
            assert leaves[0][0] == 0 and leaves[-1][1] == n
            assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
            top = max(leaf, bounds._PAIRWISE_BLOCK)
            assert all(0 < hi - lo <= top for lo, hi in leaves)


class TestBoundSummary:
    def test_slack_and_histogram(self):
        rep = lambda lhs, rhs, lam=0.0, deg=False: bounds.BoundReport(
            lhs, rhs, 1.0, lam, lhs <= rhs, degenerate=deg)
        unary = [rep(1.0, 4.0, -1.5), rep(3.0, 4.0, 0.1), rep(0.0, 0.0, 0.0, True),
                 rep(2.0, 8.0, 2.0), rep(1.0, 2.0, 2.5)]
        multi = [rep(5.0, 10.0), rep(9.0, 10.0)]
        s = bounds.bound_summary(unary, multi)
        assert s["unary"] == {"min_relative_slack": 0.25, "min_slack_row": 1,
                              "zero_bound_checks": 1}
        assert s["multilabel"]["min_relative_slack"] == pytest.approx(0.1)
        assert s["multilabel"]["min_slack_row"] == 1
        hist = s["lambda_histogram"]
        assert hist["edges"][0] == -1.0 and hist["edges"][-1] == 2.0
        assert (hist["below"], hist["above"], hist["degenerate"]) == (1, 1, 1)
        assert sum(hist["counts"]) == 2
        assert hist["counts"][-1] == 1           # 2.0 falls in the closed last bin
        empty = bounds.bound_summary([], [])
        assert empty["unary"]["min_relative_slack"] is None
