import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdh import bounds, cli
from scdh.errors import DimensionMismatch, LabelSetError, PreconditionError
from scdh.losses import margin_loss, softmax_loss


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
    return bounds.LabeledCodeSet.from_single_labels(codes, labels, C), centers


class TestLabeledCodeSet:
    def test_balanced_flag_validated(self):
        codes = np.ones((3, 2))
        with pytest.raises(PreconditionError):
            bounds.LabeledCodeSet.from_single_labels(codes, [0, 0, 1], 2,
                                                     balanced=True)

    def test_empty_label_rejected(self):
        with pytest.raises(LabelSetError):
            bounds.LabeledCodeSet(np.ones((2, 2)),
                                  (frozenset({0}), frozenset()), 2)


    def test_label_vector_validated(self):
        codes = np.ones((3, 2))
        for bad in ([0, 2, 1], [-1, 0, 1]):
            with pytest.raises(LabelSetError):
                bounds.LabeledCodeSet.from_single_labels(codes, bad, 2)
        with pytest.raises(DimensionMismatch):
            bounds.LabeledCodeSet.from_single_labels(codes, [0, 1], 2)

    def test_label_forms_agree(self):
        y = np.array([1, 0, 1, 2])
        vec = bounds.LabeledCodeSet.from_single_labels(np.ones((4, 2)), y, 3)
        sets = bounds.LabeledCodeSet(np.ones((4, 2)),
                                     tuple(frozenset({int(l)}) for l in y), 3)
        for cs in (vec, sets):
            assert cs.labels.tolist() == (y[:, None] == np.arange(3)).tolist()
            assert cs.single_labels().tolist() == y.tolist()
            assert not cs.is_balanced()
            with pytest.raises(ValueError, match="read-only"):
                cs.labels[0, 0] = True
        y[0] = 0                    # the set keeps its own copy
        assert vec.single_labels()[0] == 1
        multi = bounds.LabeledCodeSet(np.ones((2, 2)), (frozenset({0, 1}), frozenset({1})), 2)
        assert multi.labels.tolist() == [[True, True], [False, True]]
        assert not multi.is_balanced()

    def test_stored_matrix_round_trips(self):
        y = np.array([1, 0, 1, 0])
        for cs in (bounds.LabeledCodeSet.from_single_labels(np.ones((4, 2)), y, 2, balanced=True),
                   bounds.LabeledCodeSet(np.ones((4, 2)), (frozenset({0, 1}), frozenset({1}),
                                                           frozenset({0}), frozenset({1})), 2)):
            again = dataclasses.replace(cs, codes=np.zeros((4, 2)))
            assert np.array_equal(again.labels, cs.labels)
            assert again.labels is not cs.labels and not again.labels.flags.writeable
            assert again.is_balanced() == cs.is_balanced()
            if cs.is_balanced():
                assert again.single_labels().tolist() == y.tolist()
        matrix = np.array([[True, False], [False, True], [True, True]])
        cs = bounds.LabeledCodeSet(np.ones((3, 2)), matrix, 2)
        matrix[0] = False                       # the set keeps its own copy
        assert cs.labels[0].tolist() == [True, False]

    def test_label_arrays_validated(self):
        codes = np.ones((3, 2))
        for bad in (np.array([0, 1, 0]), np.array([[0, 1]] * 3), np.ones((3, 2))):
            with pytest.raises(LabelSetError, match="bool matrix"):   # not bool
                bounds.LabeledCodeSet(codes, bad, 2)
        for bad in (np.array([True, False, True]), np.ones((3, 3), dtype=bool),
                    np.ones((2, 2), dtype=bool)):
            with pytest.raises(DimensionMismatch):
                bounds.LabeledCodeSet(codes, bad, 2)
        with pytest.raises(LabelSetError, match="row 1 has no label"):
            bounds.LabeledCodeSet(codes, np.array([[True, False], [False, False],
                                                   [False, True]]), 2)
        with pytest.raises(DimensionMismatch):
            bounds.LabeledCodeSet.from_single_labels(codes, [[0], [1], [0]], 2)


class TestBruteForce:
    def test_separated_clusters_zero(self):
        codes = np.array([[10.0, 10.0], [10.0, 10.0], [-10.0, -10.0], [-10.0, -10.0]])
        cs = bounds.LabeledCodeSet.from_single_labels(codes, [0, 0, 1, 1], 2)
        assert bounds.brute_force_triplet_loss(cs, margin_loss(1.0)) == 0.0

    def test_two_items_no_triplets(self):
        cs = bounds.LabeledCodeSet.from_single_labels(np.eye(2), [0, 1], 2)
        assert bounds.brute_force_triplet_loss(cs, margin_loss(1.0)) == 0.0

    def test_matches_naive_oracle(self, rng):
        kind = margin_loss(1.0)
        codes = rng.choice([-1.0, 1.0], size=(8, 4))
        labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        cs = bounds.LabeledCodeSet.from_single_labels(codes, labels, 2)
        got = bounds.brute_force_triplet_loss(cs, kind)
        want = naive_triplet_loss(codes, labels, kind)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_naive_many(self, rng):
        for _ in range(15):
            cs, _ = random_balanced_instance(rng, max_per_class=3, max_r=6)
            for kind in (margin_loss(1.0), softmax_loss()):
                got = bounds.brute_force_triplet_loss(cs, kind)
                want = naive_triplet_loss(cs.codes, cs.single_labels(), kind)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_cap_enforced(self, rng):
        codes = rng.normal(0, 1, (70, 2))
        labels = np.arange(70) % 2
        cs = bounds.LabeledCodeSet.from_single_labels(codes, labels, 2)
        with pytest.raises(PreconditionError):
            bounds.brute_force_triplet_loss(cs, margin_loss(1.0))

    def test_single_label_required(self):
        cs = bounds.LabeledCodeSet(np.ones((3, 2)),
                                   (frozenset({0, 1}), frozenset({1}), frozenset({0})), 2)
        with pytest.raises(LabelSetError):
            bounds.brute_force_triplet_loss(cs, margin_loss(1.0))


class TestMultilabelBruteForce:
    def test_all_share_everything(self):
        sets = tuple(frozenset({0, 1}) for _ in range(4))
        cs = bounds.LabeledCodeSet(np.random.default_rng(0).normal(0, 1, (4, 3)),
                                   sets, 3)
        assert bounds.multilabel_brute_force_loss(cs, margin_loss(1.0)) == 0.0

    def test_singletons_reduce_to_single_label(self, rng):
        cs, _ = random_balanced_instance(rng, max_per_class=3, max_r=6)
        ml = bounds.multilabel_brute_force_loss(cs, margin_loss(1.0))
        sl = bounds.brute_force_triplet_loss(cs, margin_loss(1.0))
        assert ml == pytest.approx(sl, rel=1e-12, abs=1e-12)

    def test_matches_naive_oracle(self, rng):
        kind = margin_loss(1.0)
        codes = rng.choice([-1.0, 1.0], size=(8, 4))
        sets = []
        for _ in range(8):
            size = int(rng.integers(1, 3))
            sets.append(frozenset(rng.choice(3, size=size, replace=False).tolist()))
        cs = bounds.LabeledCodeSet(codes, tuple(sets), 3)
        got = bounds.multilabel_brute_force_loss(cs, kind)
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
            rep = bounds.unary_upper_bound(cs, centers, softmax_loss())
            assert rep.holds
            assert rep.lambda_estimate <= 2.0 + 1e-9

    def test_perfect_clustering_both_sides_zero(self):
        r, C, per = 8, 2, 3
        centers = np.zeros((r, C))
        centers[0, 0], centers[0, 1] = 50.0, -50.0
        codes = np.concatenate([np.tile(centers[:, c], (per, 1)) for c in range(C)])
        labels = np.repeat(np.arange(C), per)
        cs = bounds.LabeledCodeSet.from_single_labels(codes, labels, C)
        rep = bounds.unary_upper_bound(cs, centers, margin_loss(1.0))
        assert rep.brute_force_loss == 0.0
        assert rep.bound_value == 0.0
        assert rep.holds

    def test_unbalanced_rejected(self, rng):
        codes = rng.choice([-1.0, 1.0], size=(3, 4))
        cs = bounds.LabeledCodeSet.from_single_labels(codes, [0, 0, 1], 2)
        with pytest.raises(PreconditionError):
            bounds.unary_upper_bound(cs, rng.normal(0, 1, (4, 2)), margin_loss(1.0))


class TestEstimateLambda:
    def test_degenerate_when_codes_on_centers(self):
        r, C, per = 6, 2, 2
        centers = np.zeros((r, C))
        centers[0, 0], centers[0, 1] = 30.0, -30.0
        codes = np.concatenate([np.tile(centers[:, c], (per, 1)) for c in range(C)])
        labels = np.repeat(np.arange(C), per)
        cs = bounds.LabeledCodeSet.from_single_labels(codes, labels, C)
        lam = bounds.estimate_lambda(cs, centers, margin_loss(1.0))
        assert lam == 0.0
        assert lam.degenerate

    def test_bounded_by_two(self, rng):
        for _ in range(100):
            cs, centers = random_balanced_instance(rng)
            lam = bounds.estimate_lambda(cs, centers, margin_loss(1.0))
            assert float(lam) <= 2.0 + 1e-9


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
        rep = bounds.multilabel_bound_check(codes, 4, 0.3, centers,
                                            trials=5000, seed=7)
        assert rep.holds
        assert rep.confidence_margin > 0.0

    def test_near_one_probability_clamped(self, rng):
        codes = rng.choice([-1.0, 1.0], size=(8, 6))
        centers = rng.normal(0, 1, (6, 2))
        rep = bounds.multilabel_bound_check(codes, 2, 0.999, centers,
                                            trials=1000, seed=1)
        assert rep.holds

    def test_trial_floor(self, rng):
        with pytest.raises(PreconditionError):
            bounds.multilabel_bound_check(np.ones((4, 2)), 2, 0.5,
                                          np.ones((2, 2)), trials=10, seed=0)


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
    y = code_set.single_labels()
    D = np.linalg.norm(code_set.codes[:, None, :] - code_set.codes[None, :, :], axis=2)
    total = 0.0
    for i in range(code_set.n):
        sim = (y == y[i])
        sim[i] = False
        dis = y != y[i]
        if not sim.any() or not dis.any():
            continue
        total += float(kind.g(D[i, sim][:, None], D[i, dis][None, :]).sum())
    return total


def ref_softmax_background_triplet_loss(code_set, centers):
    y = code_set.single_labels()
    D = np.linalg.norm(code_set.codes[:, None, :] - code_set.codes[None, :, :], axis=2)
    Dc = bounds._code_center_distances(code_set.codes, centers)
    expd = np.exp(-Dc)
    total = 0.0
    for i in range(code_set.n):
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
    if n < cfg.enumeration_threshold:
        cs = bounds.LabeledCodeSet.from_single_labels(codes, y, cfg.C)
        lt = ref_brute_force_triplet_loss(cs, kind)
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
    lam = bounds._lambda_from_parts(lt, multiplier, float(lc.sum()), float(d_own.sum()))
    return bounds.ToyCell(sigma, d, lt, relaxed, unary, float(lam), lam.degenerate)


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
    return bounds.LabeledCodeSet.from_single_labels(codes, y, C), rng.normal(0, 2, (r, C))


KINDS = [margin_loss(1.0), margin_loss(0.25), softmax_loss()]


class TestRowBlocksMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(labeled_sets())
    def test_brute_force(self, case):
        cs, _ = case
        if np.unique(cs.single_labels()).size < 2:
            with pytest.raises(PreconditionError):
                bounds.brute_force_triplet_loss(cs, margin_loss(1.0))
            return
        for kind in KINDS:
            assert bounds.brute_force_triplet_loss(cs, kind) == \
                ref_brute_force_triplet_loss(cs, kind)

    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_softmax_background(self, case):
        cs, centers = case
        y = cs.single_labels()
        args = (cs.codes[None], y, cs.label_count, centers[None], softmax_loss())
        if np.unique(y).size < 2:
            with pytest.raises(PreconditionError):
                bounds._unary_sides(*args)
            return
        lhs = bounds._unary_sides(*args)[0]
        assert lhs.tolist() == [ref_softmax_background_triplet_loss(cs, centers)]

    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_unary_report(self, case):
        cs, centers = case
        if not cs.is_balanced() or cs.n < 2:
            return
        for kind in KINDS:
            rep = bounds.unary_upper_bound(cs, centers, kind)
            want = (ref_softmax_background_triplet_loss(cs, centers)
                    if kind.kind == "softmax" else ref_brute_force_triplet_loss(cs, kind))
            assert rep.brute_force_loss == want

    def test_two_rows(self):
        cs = bounds.LabeledCodeSet.from_single_labels([[0.5, 1.0], [-2.0, 0.25]],
                                                      [1, 0], 2)
        for kind in KINDS:
            assert bounds.brute_force_triplet_loss(cs, kind) == 0.0
        rep = bounds.unary_upper_bound(cs, np.zeros((2, 2)), softmax_loss())
        assert rep.brute_force_loss == 0.0

    def test_pairwise_distances_over_several_blocks(self, rng):
        codes = rng.normal(0, 1, (150, 7))
        D = bounds._pairwise_distances(codes, block=64)
        # the reference's full (n, n, r) difference tensor, reduced per row
        want = np.linalg.norm(codes[:, None, :] - codes[None, :, :], axis=2)
        assert np.array_equal(D, want)
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
    return bounds.LabeledCodeSet.from_single_labels(codes, labels, C), centers


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
    return codes, y, C, rng.normal(0, 2, (b, r, C))


class TestUnaryStackMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(code_stacks())
    def test_stack_equals_single_checks_and_reference(self, case):
        codes, y, C, centers = case
        for kind in KINDS:
            got = bounds.unary_upper_bounds(codes, y, C, centers, kind)
            assert len(got) == len(codes)
            for t, rep in enumerate(got):
                cs = bounds.LabeledCodeSet.from_single_labels(codes[t], y, C)
                assert rep.to_dict() == \
                    bounds.unary_upper_bound(cs, centers[t], kind).to_dict()
                want = (ref_softmax_background_triplet_loss(cs, centers[t])
                        if kind.kind == "softmax" else ref_brute_force_triplet_loss(cs, kind))
                assert rep.brute_force_loss == want
                assert rep.lambda_estimate == bounds.estimate_lambda(cs, centers[t], kind)

    @settings(max_examples=60, deadline=None)
    @given(code_stacks())
    def test_memory_layout_does_not_change_bits(self, case):
        codes, y, C, centers = case
        fortran = np.asfortranarray(codes)
        transposed = np.ascontiguousarray(codes.transpose(0, 2, 1)).transpose(0, 2, 1)
        wide = np.repeat(centers, 2, axis=2)[:, :, ::2]       # a strided view
        assert not wide.flags.c_contiguous
        assert min(codes.shape[1:]) == 1 or not transposed.flags.c_contiguous
        for kind in KINDS:
            want = [r.to_dict() for r in bounds.unary_upper_bounds(codes, y, C, centers, kind)]
            for c, z in ((fortran, centers), (transposed, wide), (codes, wide)):
                got = bounds.unary_upper_bounds(c, y, C, z, kind)
                assert [r.to_dict() for r in got] == want
            single = bounds.LabeledCodeSet.from_single_labels(np.asfortranarray(codes[0]), y, C)
            assert bounds.unary_upper_bound(single, wide[0], kind).to_dict() == want[0]

    def test_stack_worked_in_pieces(self, rng, monkeypatch):
        codes = rng.normal(0, 1, (9, 6, 4))
        centers = rng.normal(0, 2, (9, 4, 3))
        y = np.array([2, 0, 1, 1, 2, 0])
        want = bounds.unary_upper_bounds(codes, y, 3, centers, softmax_loss())
        monkeypatch.setattr(bounds, "UNARY_STACK_FLOATS", 2 * 6 * 6 * 6)
        got = bounds.unary_upper_bounds(codes, y, 3, centers, softmax_loss())
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert bounds.unary_upper_bounds(codes[:0], y, 3, centers[:0], softmax_loss()) == []

    def test_stack_rejects_bad_input(self, rng):
        codes = rng.normal(0, 1, (2, 4, 3))
        centers = rng.normal(0, 2, (2, 3, 2))
        kind = margin_loss(1.0)
        with pytest.raises(PreconditionError):                   # not balanced
            bounds.unary_upper_bounds(codes, [0, 0, 0, 1], 2, centers, kind)
        with pytest.raises(LabelSetError):
            bounds.unary_upper_bounds(codes, [0, 1, 0, 2], 2, centers, kind)
        with pytest.raises(DimensionMismatch):
            bounds.unary_upper_bounds(codes, [0, 1, 0, 1], 2, centers[:, :2], kind)
        with pytest.raises(DimensionMismatch):
            bounds.unary_upper_bounds(codes[0], [0, 1, 0, 1], 2, centers, kind)
        over = bounds.DEFAULT_TRIPLET_CAP + 1                    # 65 = 5 x 13 rows
        with pytest.raises(PreconditionError, match="cap"):
            bounds.unary_upper_bounds(np.ones((2, over, 3)), np.repeat(np.arange(5), 13),
                                      5, np.zeros((2, 3, 5)), kind)

    def test_row_blocks_are_cached_read_only(self):
        y = np.array([1, 0, 1, 0, 2, 2])
        blocks = bounds._row_blocks(y)
        assert bounds._row_blocks(y.astype(np.int32)) is blocks
        (rows, sim, dis, sim_at, dis_at), = blocks
        assert rows.tolist() == list(range(6))
        assert sim.tolist() == [[2], [3], [0], [1], [5], [4]]
        assert dis[0].tolist() == [1, 3, 4, 5]
        assert np.array_equal(sim_at, rows[:, None] * 6 + sim)
        assert np.array_equal(dis_at, rows[:, None] * 6 + dis)
        with pytest.raises(ValueError, match="read-only"):
            sim[0, 0] = 1
        for one_label in ([3], [2, 2, 2]):
            with pytest.raises(PreconditionError):
                bounds._row_blocks(np.array(one_label))


class TestBoundDraws:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_draws_continue_the_choice_stream(self, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(200):
            cs, centers = cli.random_bound_instance(rng, (2, 3, 4), 12, 16)
            want, want_centers = ref_random_bound_instance(ref, (2, 3, 4), 12, 16)
            assert cs.label_count == want.label_count
            assert np.array_equal(cs.codes, want.codes)
            assert np.array_equal(cs.labels, want.labels)
            assert np.array_equal(cs.single_labels(), want.single_labels())
            assert np.array_equal(centers, want_centers)

    @pytest.mark.parametrize("kind", [margin_loss(1.0), softmax_loss()])
    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_suite_reports_each_draw_in_order(self, kind, chunk, monkeypatch):
        monkeypatch.setattr(cli, "BOUND_DRAW_CHUNK", chunk)
        got = cli.run_bound_suite(150, (2, 3, 4), 12, 16, kind, seed=3)
        rng = np.random.default_rng(3)
        want = [bounds.unary_upper_bound(*ref_random_bound_instance(rng, (2, 3, 4), 12, 16),
                                         kind) for _ in range(150)]
        assert [r.to_dict() for r in got] == [r.to_dict() for r in want]
        assert cli.run_bound_suite(0, (2, 3, 4), 12, 16, kind, seed=3) == []


class TestMonteCarloMatchesReference:
    @pytest.mark.parametrize("n,C,p,trials,kind", [
        (12, 3, 0.2, 1000, margin_loss(1.0)),      # rejection-heavy
        (8, 5, 0.5, 1001, softmax_loss()),
        (10, 4, 0.3, 4 * bounds.ML_TRIAL_BLOCK, margin_loss(0.5)),  # whole blocks
        (9, 3, 0.999, 1000, margin_loss(1.0)),     # clamped to 0.99
        (1, 2, 0.05, 1000, softmax_loss()),        # one row, mostly empty draws
        (2, 2, 0.3, 1257, margin_loss(1.0)),
    ])
    def test_report(self, n, C, p, trials, kind):
        rng = np.random.default_rng(n * 100 + C)
        codes = rng.choice([-1.0, 1.0], size=(n, 5))
        centers = rng.normal(0, 2, (5, C))
        with np.errstate(invalid="ignore", divide="ignore"):
            got = bounds.multilabel_bound_check(codes, C, p, centers, trials,
                                                seed=trials, kind=kind)
            want = ref_multilabel_bound_check(codes, C, p, centers, trials,
                                              trials, kind)
        assert got.to_dict() == want.to_dict()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 6), st.sampled_from([0.05, 0.2, 0.5, 0.9]),
           st.integers(1, 300), st.sampled_from([1, 7, 64, 256]), st.integers(0, 2**32 - 1))
    def test_label_blocks_continue_the_stream(self, n, C, p, trials, block, seed):
        rng = np.random.default_rng(seed)
        want = np.stack([ref_sample_label_matrix(rng, n, C, p) for _ in range(trials)])
        blocks = list(bounds._label_matrix_blocks(np.random.default_rng(seed), trials,
                                                  n, C, p, block))
        assert [len(b) for b in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert np.array_equal(np.concatenate(blocks), want)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 14), st.integers(2, 7), st.integers(1, 40),
           st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 2**32 - 1))
    @example(n=1, C=4, b=1, p=0.2, seed=0)      # a one-element (b, n) power
    def test_trial_sides(self, n, C, b, p, seed):
        rng = np.random.default_rng(seed)
        codes = rng.normal(0, 1, (n, 4))
        Dc = bounds._code_center_distances(codes, rng.normal(0, 2, (4, C)))
        D = bounds._pairwise_distances(codes)
        Y = rng.random((b, n, C)) < p
        for kind in KINDS:
            G = kind.g(D[:, :, None], D[:, None, :])
            Gc = kind.g(Dc[:, :, None], Dc[:, None, :])
            lhs, rhs = bounds._trial_sides(Y, G, Gc, Dc, p, 3.5, 0.25)
            want = [ref_trial_sides(y, G, Gc, Dc, p, 3.5, 0.25) for y in Y]
            assert lhs.tolist() == [w[0] for w in want]
            assert rhs.tolist() == [w[1] for w in want]

    def test_degenerate_shapes_rejected(self):
        with pytest.raises(PreconditionError):
            bounds.multilabel_bound_check(np.ones((0, 2)), 3, 0.5, np.ones((2, 3)),
                                          trials=1000, seed=0)
        with pytest.raises(PreconditionError):
            bounds.multilabel_bound_check(np.ones((4, 2)), 1, 0.5, np.ones((2, 1)),
                                          trials=1000, seed=0)


class TestToyCellMatchesReference:
    @pytest.mark.parametrize("kw", [
        dict(samples_per_cluster=40, triplet_samples=20_000),    # n^2 <= T: table
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
    ])
    def test_cells_in_chunks(self, kw, monkeypatch):
        # chunks that do not divide T; each mean still runs over all T terms
        monkeypatch.setattr(bounds, "TOY_CHUNK", 999)
        cfg = bounds.ToyConfig(sigma_grid=(0.3,), d_grid=(4.0,), seed=5, **kw)
        got = bounds.toy_lambda_grid(cfg)
        seed_seq, = np.random.SeedSequence(cfg.seed).spawn(1)
        assert [c.to_dict() for c in got] == [ref_toy_cell(cfg, 0.3, 4.0, seed_seq).to_dict()]

    def test_sampled_cell_memory(self):
        # the (T, r) gathers of the reference peak at ~162 MB here
        cfg = bounds.ToyConfig(sigma_grid=(1.5,), d_grid=(4.0,), seed=0,
                               triplet_samples=200_000)
        seed_seq = np.random.SeedSequence(0)
        tracemalloc.start()
        try:
            bounds._toy_cell(cfg, 1.5, 4.0, seed_seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50 * 2**20

    def test_sampled_cell_memory_at_a_million_triplets(self):
        # the three (T,) index draws and the two (T,) term arrays are whole;
        # everything else is a chunk at a time (~97 MB with whole-array steps)
        cfg = bounds.ToyConfig(sigma_grid=(1.5,), d_grid=(4.0,), seed=0,
                               triplet_samples=1_000_000)
        tracemalloc.start()
        try:
            bounds._toy_cell(cfg, 1.5, 4.0, np.random.SeedSequence(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60 * 2**20

    @pytest.mark.parametrize("kw", [dict(C=1), dict(C=3, r=2),
                                    dict(samples_per_cluster=1),
                                    dict(triplet_samples=0), dict(margin=-0.5)])
    def test_bad_config_rejected(self, kw):
        with pytest.raises(PreconditionError):
            bounds.ToyConfig(**kw)


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
