import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scdh import retrieval as rt
from scdh.data import labels_from_sets
from scdh.errors import DimensionMismatch, ParseError, PreconditionError


def naive_search(query_bits, db_bits, ids, k):
    """Oracle: unpacked +/-1 vectors compared by squared Euclidean / 4."""
    q = np.where(query_bits, 1.0, -1.0)
    db = np.where(db_bits, 1.0, -1.0)
    d2 = ((db - q) ** 2).sum(axis=1) / 4.0
    dists = d2.round().astype(int)
    order = sorted(range(len(ids)), key=lambda i: (dists[i], ids[i]))[:k]
    return [(int(ids[i]), int(dists[i])) for i in order]


def make_index(rng, n, r, with_labels=False, C=4):
    bits = rng.random((n, r)) < 0.5
    ids = rng.permutation(n * 3)[:n].astype(np.int64)
    labels = None
    if with_labels:
        labels = labels_from_sets([{int(rng.integers(C))} for _ in range(n)], C)
    return bits, rt.CodeIndex(rt.pack_bits(bits), ids, r, labels)


class TestBinarize:
    def test_tie_rule(self):
        code = rt.binarize([0.3, -0.2, 0.0])
        np.testing.assert_array_equal(code.bits(), [True, False, True])

    def test_all_negative(self):
        code = rt.binarize([-1.0, -0.5, -2.0, -0.1])
        assert not code.bits().any()
        assert int(code.words[0]) == 0

    def test_scale_invariance(self, rng):
        f = rng.normal(0, 1, 48)
        assert np.array_equal(rt.binarize(f).words, rt.binarize(2 * f).words)

    def test_canonical_padding(self, rng):
        f = rng.normal(0, 1, 65)
        code = rt.binarize(f)
        assert code.words.shape == (2,)
        assert int(code.words[1]) >> 1 == 0

    def test_noncanonical_rejected(self):
        with pytest.raises(PreconditionError):
            rt.HashCode(np.array([0xFF], dtype=np.uint64), 3)


class TestHamming:
    def test_self_zero(self, rng):
        code = rt.binarize(rng.normal(0, 1, 24))
        assert rt.hamming(code, code) == 0

    def test_hand_count(self):
        a = rt.HashCode(rt.pack_bits(np.array([True, False, True, False])), 4)
        b = rt.HashCode(rt.pack_bits(np.array([False, True, True, False])), 4)
        assert rt.hamming(a, b) == 2

    def test_complement(self):
        bits = np.zeros(48, dtype=bool)
        a = rt.HashCode(rt.pack_bits(bits), 48)
        b = rt.HashCode(rt.pack_bits(~bits), 48)
        assert rt.hamming(a, b) == 48

    def test_length_mismatch(self):
        a = rt.binarize(np.ones(24))
        b = rt.binarize(np.ones(32))
        with pytest.raises(DimensionMismatch):
            rt.hamming(a, b)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**63 - 1), st.integers(0, 2**63 - 1),
           st.integers(0, 2**63 - 1))
    def test_metric_properties(self, x, y, z):
        r = 63
        mk = lambda v: rt.HashCode(np.array([v], dtype=np.uint64), r)
        a, b, c = mk(x), mk(y), mk(z)
        assert rt.hamming(a, b) == rt.hamming(b, a)
        assert (rt.hamming(a, b) == 0) == (x == y)
        assert rt.hamming(a, c) <= rt.hamming(a, b) + rt.hamming(b, c)

    def test_euclidean_equivalence(self, rng):
        # on +/-1 vectors: squared Euclidean distance = 4 * Hamming
        bits_a = rng.random(48) < 0.5
        bits_b = rng.random(48) < 0.5
        a = rt.HashCode(rt.pack_bits(bits_a), 48)
        b = rt.HashCode(rt.pack_bits(bits_b), 48)
        ua = np.where(bits_a, 1.0, -1.0)
        ub = np.where(bits_b, 1.0, -1.0)
        assert ((ua - ub) ** 2).sum() == 4 * rt.hamming(a, b)


class TestSearch:
    @pytest.mark.parametrize("r", [24, 48, 63, 64, 65])
    def test_matches_naive_oracle(self, rng, r):
        bits, index = make_index(rng, 200, r)
        for _ in range(10):
            qbits = rng.random(r) < 0.5
            query = rt.HashCode(rt.pack_bits(qbits), r)
            got = rt.search(query, index, 25)
            want = naive_search(qbits, bits, index.ids, 25)
            assert got == want

    def test_full_permutation(self, rng):
        _, index = make_index(rng, 30, 16)
        results = rt.search(rt.binarize(rng.normal(0, 1, 16)), index, 30)
        assert sorted(i for i, _ in results) == sorted(index.ids.tolist())

    def test_exact_match_first(self, rng):
        bits, index = make_index(rng, 50, 32)
        query = rt.HashCode(rt.pack_bits(bits[17]), 32)
        top_id, dist = rt.search(query, index, 1)[0]
        assert dist == 0
        # ties broken by id: the match must be the smallest id at distance 0
        zero_ids = [int(index.ids[i]) for i in range(50)
                    if np.array_equal(bits[i], bits[17])]
        assert top_id == min(zero_ids)

    def test_k_too_large(self, rng):
        _, index = make_index(rng, 5, 8)
        with pytest.raises(PreconditionError):
            rt.search(rt.binarize(np.ones(8)), index, 6)

    def test_empty_index(self):
        index = rt.CodeIndex(np.zeros((0, 1), dtype=np.uint64),
                             np.zeros(0, dtype=np.int64), 8)
        with pytest.raises(PreconditionError):
            rt.search(rt.binarize(np.ones(8)), index, 1)


def tiny_eval_setup(query_bits, db_bits, db_relevant, r):
    """One query; relevance given explicitly via shared label 0."""
    q = rt.CodeIndex(rt.pack_bits(query_bits[None, :]), np.array([1000]), r,
                     labels_from_sets([{0}], 2))
    labels = labels_from_sets([{0} if rel else {1} for rel in db_relevant], 2)
    db = rt.CodeIndex(rt.pack_bits(db_bits), np.arange(len(db_relevant)), r,
                      labels)
    return q, db


class TestMeanAveragePrecision:
    def test_hand_fixture(self):
        # ranks 1 and 3 relevant, exactly 2 relevant in the database
        r = 8
        qbits = np.zeros(r, dtype=bool)
        db_bits = np.zeros((4, r), dtype=bool)
        db_bits[0, :0] = False                  # distance 0  (rank 1, relevant)
        db_bits[1, :1] = True                   # distance 1
        db_bits[2, :2] = True                   # distance 2  (rank 3, relevant)
        db_bits[3, :3] = True                   # distance 3
        q, db = tiny_eval_setup(qbits, db_bits, [True, False, True, False], r)
        ap = rt.mean_average_precision(q, db)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)

    def test_all_relevant(self, rng):
        bits, _ = make_index(rng, 6, 16)
        q, db = tiny_eval_setup(bits[0], bits, [True] * 6, 16)
        assert rt.mean_average_precision(q, db) == pytest.approx(1.0)

    def test_truncated_no_relevant_in_topk(self):
        r = 8
        qbits = np.zeros(r, dtype=bool)
        db_bits = np.zeros((3, r), dtype=bool)
        db_bits[0, :1] = True
        db_bits[1, :2] = True
        db_bits[2, :6] = True                   # the only relevant, rank 3
        q, db = tiny_eval_setup(qbits, db_bits, [False, False, True], r)
        assert rt.mean_average_precision(q, db, k=2) == 0.0

    def test_no_labeled_relevant_raises(self):
        r = 4
        qbits = np.zeros(r, dtype=bool)
        db_bits = np.zeros((2, r), dtype=bool)
        q, db = tiny_eval_setup(qbits, db_bits, [False, False], r)
        with pytest.raises(PreconditionError):
            rt.mean_average_precision(q, db)

    def test_db_permutation_invariance(self, rng):
        bits, index = make_index(rng, 60, 24, with_labels=True)
        qbits, qindex = make_index(rng, 10, 24, with_labels=True)
        perm = rng.permutation(60)
        shuffled = rt.CodeIndex(index.words[perm], index.ids[perm], 24,
                                index.labels[perm])
        for k in (None, 20):
            assert rt.mean_average_precision(qindex, index, k) == pytest.approx(
                rt.mean_average_precision(qindex, shuffled, k), abs=1e-12)

    def test_random_codes_concentrate_at_prior(self, rng):
        # with labels independent of codes, MAP estimates the relevant prior
        C = 4
        n = 400
        bits = rng.random((n, 32)) < 0.5
        labels = labels_from_sets([{int(i % C)} for i in range(n)], C)
        db = rt.CodeIndex(rt.pack_bits(bits), np.arange(n), 32, labels)
        qbits = rng.random((50, 32)) < 0.5
        qlabels = labels_from_sets([{int(rng.integers(C))} for _ in range(50)], C)
        q = rt.CodeIndex(rt.pack_bits(qbits), np.arange(1000, 1050), 32, qlabels)
        val = rt.mean_average_precision(q, db)
        prior = 1.0 / C
        # AP of a random ranking concentrates near the prior; allow 3 sigma
        # of the per-query spread observed for this configuration (~0.02)
        assert abs(val - prior) < 3 * 0.02


class TestPrecisionAtRadius:
    def test_identical_and_relevant(self, rng):
        bits, _ = make_index(rng, 5, 16)
        same = np.tile(bits[0], (5, 1))
        q, db = tiny_eval_setup(bits[0], same, [True] * 5, 16)
        assert rt.precision_at_radius(q, db, 2) == 1.0

    def test_empty_ball_zero_convention(self):
        r = 16
        qbits = np.zeros(r, dtype=bool)
        db_bits = np.ones((3, r), dtype=bool)
        q, db = tiny_eval_setup(qbits, db_bits, [True, True, True], r)
        assert rt.precision_at_radius(q, db, 2) == 0.0
        with pytest.raises(PreconditionError):
            rt.precision_at_radius(q, db, 2, empty_ball="skip")

    def test_hand_instance(self):
        # 3 items inside the radius-2 ball, 2 of them relevant
        r = 8
        qbits = np.zeros(r, dtype=bool)
        db_bits = np.zeros((5, r), dtype=bool)
        db_bits[1, :1] = True
        db_bits[2, :2] = True
        db_bits[3, :5] = True
        db_bits[4, :6] = True
        q, db = tiny_eval_setup(qbits, db_bits, [True, True, False, True, False], r)
        assert rt.precision_at_radius(q, db, 2) == pytest.approx(2.0 / 3.0)


class TestTopkCurve:
    def test_nearest_always_relevant(self, rng):
        bits, _ = make_index(rng, 4, 16)
        db_bits = np.zeros((4, 16), dtype=bool)
        db_bits[1, :4] = True
        db_bits[2, :5] = True
        db_bits[3, :6] = True
        q, db = tiny_eval_setup(np.zeros(16, dtype=bool), db_bits,
                                [True, False, False, False], 16)
        curve = rt.topk_precision_curve(q, db, [1])
        assert curve == [(1, 1.0)]

    def test_full_k_equals_prior(self, rng):
        bits, index = make_index(rng, 40, 24, with_labels=True, C=2)
        qbits, qidx = make_index(rng, 8, 24, with_labels=True, C=2)
        curve = rt.topk_precision_curve(qidx, index, [40])
        # precision at k=n is the relevant fraction, independent of ranking
        relevant_fraction = np.mean([
            np.mean([bool(qs & ds) for ds in labelsets(index)])
            for qs in labelsets(qidx)
        ])
        assert curve[0][1] == pytest.approx(float(relevant_fraction), abs=1e-12)

    def test_monotone_on_clustered_instance(self):
        r = 16
        db_bits = np.zeros((6, r), dtype=bool)
        for i in range(3, 6):
            db_bits[i, :8] = True              # far irrelevant block
        q, db = tiny_eval_setup(np.zeros(r, dtype=bool), db_bits,
                                [True, True, True, False, False, False], r)
        curve = rt.topk_precision_curve(q, db, [1, 2, 3, 4, 5, 6])
        precisions = [p for _, p in curve]
        assert all(a >= b - 1e-12 for a, b in zip(precisions, precisions[1:]))

    def test_ks_must_ascend(self, rng):
        _, index = make_index(rng, 10, 8, with_labels=True)
        _, qidx = make_index(rng, 2, 8, with_labels=True)
        with pytest.raises(PreconditionError):
            rt.topk_precision_curve(qidx, index, [5, 3])


class TestCodeFile:
    def test_roundtrip(self, rng, tmp_path):
        for r in (24, 63, 64, 65):
            _, index = make_index(rng, 37, r)
            path = tmp_path / f"codes_{r}.scdh"
            rt.save_codes(index, path)
            loaded = rt.load_codes(path)
            assert loaded.nbits == r
            assert np.array_equal(loaded.words, index.words)
            assert np.array_equal(loaded.ids, index.ids)

    def test_truncated_file(self, rng, tmp_path):
        _, index = make_index(rng, 10, 32)
        path = tmp_path / "codes.scdh"
        rt.save_codes(index, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-5])
        with pytest.raises(ParseError, match="expected"):
            rt.load_codes(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.scdh"
        path.write_bytes(b"XXXX" + b"\x00" * 20)
        with pytest.raises(ParseError, match="magic"):
            rt.load_codes(path)


# ---------------------------------------------------------------------------
# Reference: the per-metric implementation that ranked every query once per
# metric with a full lexsort.  The one-pass metrics must equal it bit for bit.
# ---------------------------------------------------------------------------

def labelsets(index):
    """The label rows of an index as label sets."""
    return tuple(frozenset(np.flatnonzero(row).tolist()) for row in index.labels)


def ref_label_masks(labelsets, C):
    Wc = (C + 63) // 64
    masks = np.zeros((len(labelsets), Wc), dtype=np.uint64)
    for i, Y in enumerate(labelsets):
        for l in Y:
            masks[i, l // 64] |= np.uint64(1) << np.uint64(l % 64)
    return masks


def ref_relevance_and_order(queries, index):
    C = 0
    for Y in labelsets(queries) + labelsets(index):
        if Y:
            C = max(C, max(Y) + 1)
    C = max(C, 1)
    qm = ref_label_masks(labelsets(queries), C)
    dm = ref_label_masks(labelsets(index), C)
    for qi in range(queries.n):
        dists = np.bitwise_count(index.words ^ queries.words[qi][None, :]).sum(axis=1)
        dists = dists.astype(np.int64)
        order = np.lexsort((index.ids, dists))
        relevant = (dm & qm[qi][None, :]).any(axis=1)
        yield relevant[order], dists[order]


def ref_average_precisions(queries, index, k=None):
    aps = []
    for relevant, _ in ref_relevance_and_order(queries, index):
        total_rel = int(relevant.sum())
        if total_rel == 0:
            continue
        ranked = relevant[:k] if k is not None else relevant
        denom = min(k, total_rel) if k is not None else total_rel
        cum = np.cumsum(ranked)
        positions = np.nonzero(ranked)[0] + 1
        aps.append(float((cum[positions - 1] / positions).sum() / denom))
    return aps


def ref_mean_average_precision(queries, index, k=None):
    aps = ref_average_precisions(queries, index, k)
    if not aps:
        raise PreconditionError("no query has a relevant database item")
    return float(np.mean(aps))


def ref_precision_at_radius(queries, index, radius=2, empty_ball="zero"):
    precisions = []
    for relevant, dists in ref_relevance_and_order(queries, index):
        inside = dists <= radius
        m = int(inside.sum())
        if m == 0:
            if empty_ball == "zero":
                precisions.append(0.0)
            continue
        precisions.append(float(relevant[inside].sum()) / m)
    if not precisions:
        raise PreconditionError("all query balls are empty and empty_ball='skip'")
    return float(np.mean(precisions))


def ref_topk_precision_curve(queries, index, ks):
    sums = np.zeros(len(ks))
    count = 0
    for relevant, _ in ref_relevance_and_order(queries, index):
        cum = np.cumsum(relevant)
        for j, k in enumerate(ks):
            sums[j] += cum[k - 1] / k
        count += 1
    return [(k, float(s / count)) for k, s in zip(ks, sums)]


def ref_rank(queries, index, k=None, radius=2, ks=()):
    """The per-query ranking loop that ranked every query, duplicates too,
    adding each query's top-k precisions to the sums in query order."""
    C = queries.labels.shape[1]
    qm = queries.label_masks(C)
    by_id = np.argsort(index.ids, kind="stable")
    dm = index.label_masks(C)[by_id]
    words = index.words[by_id]
    nq = queries.n
    out = rt._Ranking(np.zeros(nq, np.int64), np.zeros(nq), np.zeros(nq) if k else None,
                      np.zeros(nq, np.int64), np.zeros(nq, np.int64), list(ks),
                      np.zeros(len(ks)))
    ks = np.asarray(ks, dtype=np.int64)
    for qi in range(nq):
        dists = rt._distances(words, queries.words[qi], index.nbits)
        relevant = (dm & qm[qi][None, :]).any(axis=1)
        inside = dists <= radius
        out.ball[qi] = np.count_nonzero(inside)
        out.ball_relevant[qi] = np.count_nonzero(relevant & inside)
        order = np.argsort(dists, kind="stable")
        hits = np.flatnonzero(relevant[order]) + 1
        out.relevant[qi] = len(hits)
        out.topk_sums += np.searchsorted(hits, ks, side="right") / ks
        if not len(hits):
            continue
        precisions = np.arange(1, len(hits) + 1) / hits
        out.ap[qi] = precisions.sum() / len(hits)
        if k:
            top = np.searchsorted(hits, k, side="right")
            out.ap_at_k[qi] = precisions[:top].sum() / min(k, len(hits))
    return out


def assert_rankings_equal(got, want):
    """Every field equal with ==: the same values, bit for bit."""
    for field in dataclasses.fields(rt._Ranking):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if b is None or isinstance(b, list):
            assert a == b, field.name
        else:
            assert a.dtype == b.dtype and a.shape == b.shape, field.name
            assert (a == b).all(), field.name


def outcome(fn, *args, **kwargs):
    """The value of a call, or the PreconditionError type it raised."""
    try:
        return fn(*args, **kwargs)
    except PreconditionError:
        return PreconditionError


@st.composite
def ranking_case(draw):
    """Queries and a database with ties, duplicate ids and sparse relevance."""
    r = draw(st.sampled_from([1, 24, 64, 65, 130]))
    n = draw(st.integers(1, 40))
    nq = draw(st.integers(1, 6))
    C = draw(st.sampled_from([1, 3, 70]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a few base codes with a few flipped bits: ties at every distance,
    # and with one base and no flips every code is equal
    bases = rng.random((draw(st.integers(1, 4)), r)) < 0.5
    flip = draw(st.sampled_from([0.0, 0.05, 0.5]))
    db_bits = bases[rng.integers(len(bases), size=n)] ^ (rng.random((n, r)) < flip)
    q_bits = bases[rng.integers(len(bases), size=nq)] ^ (rng.random((nq, r)) < flip)
    if draw(st.booleans()):
        ids = rng.integers(0, max(1, n // 2), size=n)        # duplicate ids
    else:
        ids = rng.permutation(3 * n)[:n]                      # unsorted ids

    def labels(m):
        # unlabeled rows are legal, and a query may share no label with any item
        return rng.random((m, C)) < 0.3

    db = rt.CodeIndex(rt.pack_bits(db_bits), ids, r, labels(n))
    queries = rt.CodeIndex(rt.pack_bits(q_bits), np.arange(nq), r, labels(nq))
    k = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    radius = draw(st.sampled_from([0, 2, r, r + 5]))
    ks = sorted(draw(st.sets(st.integers(1, n), max_size=4)))
    if draw(st.booleans()):
        ks = sorted(set(ks) | {n})
    return queries, db, db_bits, q_bits, k, radius, ks


class TestOneRankingPass:
    @settings(max_examples=300, deadline=None)
    @given(ranking_case())
    def test_search_matches_unpacked_oracle(self, case):
        queries, db, db_bits, q_bits, _, _, _ = case
        for qi in range(queries.n):
            query = rt.HashCode(queries.words[qi], queries.nbits)
            for k in sorted({1, (db.n + 1) // 2, db.n}):
                assert rt.search(query, db, k) == naive_search(q_bits[qi], db_bits,
                                                               db.ids, k)

    @settings(max_examples=300, deadline=None)
    @given(ranking_case())
    def test_metrics_equal_per_metric_reference(self, case):
        queries, db, _, _, k, radius, ks = case
        assert outcome(rt.mean_average_precision, queries, db) == outcome(
            ref_mean_average_precision, queries, db)
        if k is not None:
            assert outcome(rt.mean_average_precision, queries, db, k) == outcome(
                ref_mean_average_precision, queries, db, k)
        for empty_ball in ("zero", "skip"):
            assert outcome(rt.precision_at_radius, queries, db, radius, empty_ball) == \
                outcome(ref_precision_at_radius, queries, db, radius, empty_ball)
        if ks:
            assert rt.topk_precision_curve(queries, db, ks) == \
                ref_topk_precision_curve(queries, db, ks)

        want_map = outcome(ref_mean_average_precision, queries, db)
        got = outcome(rt.evaluate, queries, db, k=k, radius=radius, ks=ks)
        if want_map is PreconditionError:
            assert got is PreconditionError
            return
        assert got.map == want_map
        assert got.map_at_k == (ref_mean_average_precision(queries, db, k) if k else None)
        assert got.precision_at_radius2 == ref_precision_at_radius(queries, db, radius)
        assert got.topk_curve == (ref_topk_precision_curve(queries, db, ks) if ks else [])

    @settings(max_examples=100, deadline=None)
    @given(ranking_case())
    def test_per_query_diagnostics(self, case):
        queries, db, _, _, _, radius, _ = case
        aps = ref_average_precisions(queries, db)
        if not aps:
            return
        got = rt.evaluate(queries, db, radius=radius)
        assert got.ap_quantiles == tuple(np.quantile(aps, (0.1, 0.5, 0.9)).tolist())
        # an empty ball counts 0 under "zero" and is left out under "skip"
        nonempty = queries.n - got.empty_ball_queries
        skip = outcome(rt.precision_at_radius, queries, db, radius, "skip")
        if nonempty == 0:
            assert skip is PreconditionError
        else:
            assert got.precision_at_radius2 * queries.n == pytest.approx(skip * nonempty)

    def test_one_distance_scan_per_query(self, rng, monkeypatch):
        _, db = make_index(rng, 50, 24, with_labels=True)
        _, queries = make_index(rng, 7, 24, with_labels=True)
        calls = []
        scan = rt.distances_to_index
        monkeypatch.setattr(rt, "distances_to_index",
                            lambda *a: calls.append(1) or scan(*a))
        rt.evaluate(queries, db, k=10, radius=2, ks=[1, 5, 50])
        assert len(calls) == queries.n
        # a query repeated with its label row is ranked once
        rows = [0, 1, 0, 2, 1, 0]
        repeated = rt.CodeIndex(queries.words[rows], np.arange(6), 24,
                                queries.labels[rows])
        calls.clear()
        rt.evaluate(repeated, db, k=10, radius=2, ks=[1, 5, 50])
        assert len(calls) == 3

    def test_diagnostics_in_dict(self, rng):
        _, db = make_index(rng, 30, 16, with_labels=True)
        _, queries = make_index(rng, 5, 16, with_labels=True)
        d = rt.evaluate(queries, db).to_dict()
        assert set(d["ap_quantiles"]) == {"p10", "p50", "p90"}
        assert 0 <= d["empty_ball_queries"] <= queries.n

    def test_unlabeled_entry_rejected(self, rng):
        # an unlabeled query has no relevant item, like a query whose labels
        # no database item shares: it is left out of MAP and adds 0 to top-k
        bits, db = make_index(rng, 6, 8, with_labels=True, C=4)
        labeled = rt.CodeIndex(rt.pack_bits(bits[:2]), [0, 1], 8, db.labels[:2])
        with_zero = rt.CodeIndex(rt.pack_bits(bits[:3]), [0, 1, 2], 8,
                                 np.vstack([db.labels[:2], np.zeros((1, 4), dtype=bool)]))
        with pytest.raises(PreconditionError):
            rt.evaluate(rt.CodeIndex(with_zero.words[2:], [2], 8, with_zero.labels[2:]), db)
        a = rt.evaluate(labeled, db, ks=[6])
        b = rt.evaluate(with_zero, db, ks=[6])
        assert b.map == a.map
        assert b.topk_curve[0][1] == pytest.approx(a.topk_curve[0][1] * 2 / 3)
        # an index without labels, or with a different label count, is rejected
        with pytest.raises(PreconditionError):
            rt.evaluate(rt.CodeIndex(labeled.words, labeled.ids, 8), db)
        with pytest.raises(DimensionMismatch, match="5 labels.*4"):
            rt.evaluate(labeled, rt.CodeIndex(db.words, db.ids, 8,
                                              np.zeros((6, 5), dtype=bool)))

    @pytest.mark.parametrize("call", [
        lambda q, db: rt.search(rt.HashCode(q.words[0], q.nbits), db, -1),
        lambda q, db: rt.mean_average_precision(q, db, k=0),
        lambda q, db: rt.topk_precision_curve(q, db, [0, 3]),
    ])
    def test_nonpositive_k_rejected(self, rng, call):
        _, db = make_index(rng, 10, 8, with_labels=True)
        _, q = make_index(rng, 2, 8, with_labels=True)
        with pytest.raises(PreconditionError):
            call(q, db)


class TestGroupedRanking:
    """_rank ranks each distinct (code, label row) once; every per-query
    number and the top-k sums equal the per-query loop's bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(ranking_case(), st.integers(0, 2**32 - 1))
    def test_equals_per_query_loop(self, case, seed):
        queries, db, _, _, k, radius, ks = case
        rng = np.random.default_rng(seed)
        # repeat the queries: some keep their label row, some get another
        # query's, some none, so one code comes with several label rows
        rows = rng.integers(queries.n, size=3 * queries.n + 1)
        labels = queries.labels[rows]
        other = rng.random(len(rows)) < 0.3
        labels[other] = queries.labels[rng.integers(queries.n, size=other.sum())]
        labels[rng.random(len(rows)) < 0.2] = False
        dup = rt.CodeIndex(queries.words[rows], np.arange(len(rows)), queries.nbits,
                           labels)
        for args in ((k, radius, ks), (None, radius, ()), (None, 2, [db.n])):
            for q in (queries, dup):
                assert_rankings_equal(rt._rank(q, db, *args), ref_rank(q, db, *args))

    def test_one_query_many_label_rows(self):
        # one code, 130 bits, five label rows: the groups differ only in labels
        r, C = 130, 3
        db_bits = np.zeros((6, r), dtype=bool)
        db_bits[3:, :70] = True
        labels = np.eye(C, dtype=bool)[[0, 1, 2, 0, 1, 2]]
        db = rt.CodeIndex(rt.pack_bits(db_bits), [5, 4, 3, 2, 1, 0], r, labels)
        q_labels = np.array([[1, 0, 0], [0, 1, 0], [1, 0, 0], [0, 0, 0], [1, 1, 0]],
                            dtype=bool)
        queries = rt.CodeIndex(rt.pack_bits(np.zeros((5, r), dtype=bool)), np.arange(5),
                               r, q_labels)
        got = rt._rank(queries, db, k=3, radius=2, ks=[1, 3, 6])
        assert_rankings_equal(got, ref_rank(queries, db, 3, 2, [1, 3, 6]))
        assert got.relevant.tolist() == [2, 2, 2, 0, 4]
        assert got.ap[0] == got.ap[2] and got.ap[3] == 0.0

    def test_empty_queries(self, rng):
        _, db = make_index(rng, 20, 24, with_labels=True)
        empty = rt.CodeIndex(np.zeros((0, 1), dtype=np.uint64), np.zeros(0, np.int64),
                             24, np.zeros((0, 4), dtype=bool))
        assert_rankings_equal(rt._rank(empty, db, 5, 2, [1, 20]),
                              ref_rank(empty, db, 5, 2, [1, 20]))
        with pytest.raises(PreconditionError, match="no query has a relevant"):
            rt.evaluate(empty, db, k=5, ks=[1, 20])
        with pytest.raises(PreconditionError, match="no query has a relevant"):
            rt.mean_average_precision(empty, db)
        with pytest.raises(PreconditionError, match="all query balls are empty"):
            rt.precision_at_radius(empty, db, empty_ball="skip")


@st.composite
def bucket_case(draw):
    """A database of more than 40 rows with m distinct codes, m drawn on
    either side of the bucket-search cut-off, and queries near and far."""
    r = draw(st.sampled_from([1, 24, 64, 65, 130]))
    n = draw(st.integers(41, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cut = int(rt.BUCKET_SEARCH_MAX_DISTINCT * n)
    m = draw(st.one_of(st.just(1), st.integers(1, cut), st.integers(cut + 1, n)))
    bases = rng.random((m, r)) < 0.5
    if draw(st.booleans()):
        bases[:, :64] = bases[0, :64]       # codes differ past the first word only
    bases = np.unique(bases, axis=0)        # fewer when they collide
    rows = np.concatenate([np.arange(len(bases)),
                           rng.integers(len(bases), size=n - len(bases))])
    db_bits = bases[rng.permutation(rows)]
    if draw(st.booleans()):
        ids = rng.integers(0, max(1, n // 2), size=n)        # duplicate ids
    else:
        ids = rng.permutation(3 * n)[:n]                      # unsorted ids
    # most queries carry a database code, which the exact-bucket probe answers
    q_bits = np.vstack([db_bits[rng.integers(n, size=3)], rng.random((1, r)) < 0.5])
    k = draw(st.integers(2, n - 1))
    return rt.CodeIndex(rt.pack_bits(db_bits), ids, r), db_bits, q_bits, len(bases), k


class TestBucketSearch:
    @settings(max_examples=200, deadline=None)
    @given(bucket_case())
    def test_matches_unpacked_oracle(self, case):
        db, db_bits, q_bits, distinct, mid = case
        for qb in q_bits:
            query = rt.HashCode(rt.pack_bits(qb), db.nbits)
            # k up to the query's bucket size is a probe hit, one past it
            # falls through to the distance pass
            size = int((db_bits == qb).all(axis=1).sum())
            for k in sorted({0, 1, mid, db.n, size, min(size + 1, db.n)}):
                assert rt.search(query, db, k) == naive_search(qb, db_bits, db.ids, k)
        scans = distinct > rt.BUCKET_SEARCH_MAX_DISTINCT * db.n
        assert (db._search_buckets is None) == scans

    def test_view_against_unique(self, rng):
        bases = rng.random((40, 70)) < 0.5
        bases[20:, :64] = bases[:20, :64]          # pairs equal in the first word
        bits = bases[rng.integers(0, 40, size=500)]
        bits[:, [3, 64]] = [True, False]                       # constant bits
        ids = rng.integers(0, 200, size=500)
        view = rt.Buckets.of(rt.CodeIndex(rt.pack_bits(bits), ids, 70))
        codes, inverse, counts = np.unique(bits, axis=0, return_inverse=True,
                                           return_counts=True)
        assert len(view.sizes) == len(codes)
        assert sorted(view.sizes.tolist()) == sorted(counts.tolist())
        assert view.sizes.sum() == 500 and view.starts[0] == 0
        for b in range(len(view.sizes)):
            members = view.ids[view.starts[b]:view.starts[b] + view.sizes[b]]
            code_bits = rt.unpack_bits(view.words[b], 70)
            same = (bits == code_bits).all(axis=1)
            assert members.tolist() == sorted(ids[same].tolist())
        constant = np.flatnonzero((bits == bits[0]).all(axis=0)).tolist()
        assert 3 in constant and 64 in constant
        assert view.summary() == {"distinct": len(codes),
                                    "largest_bucket": int(counts.max()),
                                    "constant_bits": constant}

    def test_all_codes_equal(self, rng):
        bits = np.tile(rng.random(24) < 0.5, (60, 1))
        db = rt.CodeIndex(rt.pack_bits(bits), rng.permutation(60), 24)
        assert rt.Buckets.of(db).summary() == {
            "distinct": 1, "largest_bucket": 60, "constant_bits": list(range(24))}
        query = rt.HashCode(rt.pack_bits(~bits[0]), 24)
        assert rt.search(query, db, 5) == [(i, 24) for i in range(5)]

    def test_index_is_frozen(self, rng):
        _, index = make_index(rng, 10, 8)
        for field in ("words", "ids", "nbits", "labels"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(index, field, None)
        # nor can its arrays be written, which would leave a cached view stale
        _, labeled = make_index(rng, 10, 8, with_labels=True)
        for array in (labeled.words, labeled.ids, labeled.labels):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_index_copies_the_callers_arrays(self):
        # 10 rows, 9 of them code 1: a write into the caller's arrays after a
        # search must not reach the index or its cached bucket view
        w = np.array([[1]] * 9 + [[2]], dtype=np.uint64)
        ids = np.arange(10)
        labels = np.ones((10, 2), dtype=bool)
        index = rt.CodeIndex(w, ids, 8, labels)
        query = rt.HashCode(np.array([1], dtype=np.uint64), 8)
        assert rt.search(query, index, 2) == [(0, 0), (1, 0)]
        w[:2] = 8
        ids[0] = 99
        labels[:] = False
        assert rt.search(query, index, 2) == [(0, 0), (1, 0)]
        assert index.ids[0] == 0 and index.labels.all()
        assert rt.search(query, rt.CodeIndex(w, ids, 8), 2) == [(2, 0), (3, 0)]

    def test_private_paths_share_arrays(self, tmp_path, rng):
        # load_codes, eval's relabelling and evaluate's id-ordered copy take
        # arrays no caller holds: they are made read-only, not copied again
        bits = rng.random((12, 8)) < 0.5
        ids = rng.permutation(12)
        rt.save_codes(rt.CodeIndex(rt.pack_bits(bits), ids, 8), tmp_path / "c.bin")
        loaded = rt.load_codes(tmp_path / "c.bin")
        assert loaded.ids.tolist() == ids.tolist()
        labels = bits[:, :3].copy()
        labels[:, 0] = True
        again = rt.CodeIndex._adopt(loaded.words, loaded.ids, 8, labels)
        assert again.words is loaded.words and again.ids is loaded.ids
        assert again.labels is labels and not labels.flags.writeable
        for array in (loaded.words, loaded.ids):
            assert array.flags.c_contiguous and not array.flags.writeable
        with pytest.raises(DimensionMismatch):
            rt.CodeIndex._adopt(loaded.words, loaded.ids[1:], 8)

    def test_probe_hit_measures_no_distance(self, rng, monkeypatch, tmp_path):
        # 300 rows over 12 codes: a query with a database code and k within
        # its bucket is answered from the table, one past it by a distance pass
        bits = (rng.random((12, 70)) < 0.5)[rng.integers(0, 12, size=300)]
        index = rt.CodeIndex(rt.pack_bits(bits), rng.permutation(900)[:300], 70)
        rt.save_codes(index, tmp_path / "before.scdh")
        calls = []
        measure = rt._distances
        monkeypatch.setattr(rt, "_distances", lambda *a: calls.append(1) or measure(*a))
        query = rt.HashCode(rt.pack_bits(bits[7]), 70)
        size = int((bits == bits[7]).all(axis=1).sum())
        for k in (1, size):
            assert rt.search(query, index, k) == naive_search(bits[7], bits, index.ids, k)
        assert calls == []
        assert rt.search(query, index, size + 1) == naive_search(bits[7], bits,
                                                                 index.ids, size + 1)
        assert calls == [1]
        # the table stays in memory: the code file is the same after a search
        rt.save_codes(index, tmp_path / "after.scdh")
        assert (tmp_path / "after.scdh").read_bytes() == (tmp_path / "before.scdh").read_bytes()

    def test_scan_path_builds_no_table(self, rng, monkeypatch):
        # mostly distinct codes: search scans the rows, and the index keeps
        # nothing but a None for its view
        bits = rng.random((200, 24)) < 0.5
        index = rt.CodeIndex(rt.pack_bits(bits), np.arange(200), 24)
        monkeypatch.setattr(rt, "dict", lambda *a: pytest.fail("table built"),
                            raising=False)
        query = rt.HashCode(rt.pack_bits(bits[3]), 24)
        assert rt.search(query, index, 1) == [(3, 0)]
        assert vars(index) == {"words": index.words, "ids": index.ids, "nbits": 24,
                               "labels": None, "_search_buckets": None}

    @pytest.mark.parametrize("duplicated", [True, False])
    def test_view_built_once(self, rng, monkeypatch, duplicated):
        bits = rng.random((200, 24)) < 0.5
        if duplicated:
            bits = bits[rng.integers(0, 10, size=200)]
        index = rt.CodeIndex(rt.pack_bits(bits), np.arange(200), 24)
        built = []
        build = rt.Buckets.of
        monkeypatch.setattr(rt.Buckets, "of", lambda idx: built.append(1) or build(idx))
        query = rt.HashCode(rt.pack_bits(bits[3]), 24)
        assert rt.search(query, index, 10) == rt.search(query, index, 10)
        assert len(built) == 1
        # a mostly-distinct index keeps no view and scans its rows
        assert (index._search_buckets is None) == (not duplicated)
