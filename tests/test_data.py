import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdh import data, model, retrieval
from scdh.errors import LabelSetError, ParseError, PreconditionError


def cfg(**kw):
    base = dict(C=3, feature_dim=4, cluster_std=0.5, center_spread=2.0,
                samples_per_class=20, seed=7)
    base.update(kw)
    return data.SyntheticConfig(**base)


class TestGaussianClusters:
    def test_zero_std_collapses_to_means(self):
        ds = data.gen_gaussian_clusters(cfg(cluster_std=0.0))
        for c in range(3):
            block = ds.features[ds.labels[:, c]]
            assert np.all(block == block[0])

    def test_sample_means_near_cluster_means(self):
        m = 4000
        ds = data.gen_gaussian_clusters(cfg(samples_per_class=m, cluster_std=1.0))
        ds0 = data.gen_gaussian_clusters(cfg(samples_per_class=m, cluster_std=0.0))
        for c in range(3):
            mask = ds.labels[:, c]
            sample_mean = ds.features[mask].mean(axis=0)
            true_mean = ds0.features[mask][0]
            assert np.all(np.abs(sample_mean - true_mean) < 4.0 / np.sqrt(m))

    def test_determinism(self):
        a = data.gen_gaussian_clusters(cfg())
        b = data.gen_gaussian_clusters(cfg())
        c = data.gen_gaussian_clusters(cfg(seed=8))
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_balanced_by_construction(self):
        ds = data.gen_gaussian_clusters(cfg())
        counts = np.bincount(ds.single_labels())
        assert np.all(counts == 20)


class TestMultilabelGenerator:
    def test_near_one_probability(self):
        ds = data.gen_multilabel(cfg(C=6, multilabel_p=0.9, samples_per_class=100))
        sizes = ds.labels.sum(axis=1)
        # nearly every sample carries nearly every label (full sets resampled,
        # so the ceiling is C - 1)
        assert np.mean(sizes) > 4.0
        assert max(sizes) == 5

    def test_mean_label_count(self):
        C, p = 4, 0.3
        ds = data.gen_multilabel(
            data.SyntheticConfig(C=C, feature_dim=3, cluster_std=0.1,
                                 center_spread=1.0, samples_per_class=2500,
                                 multilabel_p=p, seed=1))
        # E|Y| for Binomial(C, p) conditioned on >= 1, about 1.58 for C=4, p=0.3;
        # resampling of full sets shifts it by under p^C, well inside tolerance
        expected = C * p / (1.0 - (1.0 - p) ** C)
        assert np.mean(ds.labels.sum(axis=1)) == pytest.approx(expected, abs=0.05)

    def test_per_label_frequency_band(self):
        C, p, n = 5, 0.3, 10_000
        ds = data.gen_multilabel(
            data.SyntheticConfig(C=C, feature_dim=3, cluster_std=0.1,
                                 center_spread=1.0, samples_per_class=n // C,
                                 multilabel_p=p, seed=3))
        freq = ds.labels.mean(axis=0)
        # conditioned on nonempty/nonfull draws the frequency sits near
        # p / (1 - (1-p)^C) up to the binomial band
        cond = p / (1.0 - (1.0 - p) ** C)
        band = 3 * np.sqrt(cond * (1 - cond) / n)
        assert np.all(np.abs(freq - cond) < band + 0.01)

    def test_determinism(self):
        a = data.gen_multilabel(cfg(multilabel_p=0.4))
        b = data.gen_multilabel(cfg(multilabel_p=0.4))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_wrong_generator_rejected(self):
        with pytest.raises(PreconditionError):
            data.gen_multilabel(cfg())
        with pytest.raises(PreconditionError):
            data.gen_gaussian_clusters(cfg(multilabel_p=0.3))


class TestBalanceUpsample:
    def _unbalanced(self):
        feats = np.arange(8, dtype=np.float32).reshape(4, 2)
        labels = data.labels_from_sets(({0}, {0}, {0}, {1}), 2)
        return data.Dataset(np.arange(4), feats, labels)

    def test_counts_equalized(self):
        ds = data.balance_upsample(self._unbalanced(), seed=0)
        counts = np.bincount(ds.single_labels())
        assert counts.tolist() == [3, 3]
        # duplicated rows must be copies of the minority sample
        extra = ds.features[4:]
        assert np.all(extra == ds.features[3])

    def test_already_balanced_unchanged(self):
        ds = data.gen_gaussian_clusters(cfg())
        out = data.balance_upsample(ds, seed=0)
        assert out.n == ds.n
        assert np.array_equal(out.features, ds.features)

    def test_determinism(self):
        a = data.balance_upsample(self._unbalanced(), seed=5)
        b = data.balance_upsample(self._unbalanced(), seed=5)
        assert np.array_equal(a.features, b.features)

    def test_empty_class_rejected(self):
        feats = np.zeros((2, 2), dtype=np.float32)
        ds = data.Dataset(np.arange(2), feats, data.labels_from_sets(({0}, {0}), 2))
        with pytest.raises(PreconditionError):
            data.balance_upsample(ds)


class TestDatasetIO:
    def test_roundtrip_single(self, tmp_path):
        ds = data.gen_gaussian_clusters(cfg())
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.ids, ds.ids)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.label_count == ds.label_count

    def test_roundtrip_multilabel(self, tmp_path):
        ds = data.gen_multilabel(cfg(multilabel_p=0.4))
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_roundtrip_partial_labels(self, tmp_path):
        ds = data.strip_labels(data.gen_gaussian_clusters(cfg()), 0.5, seed=2)
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_roundtrip_bytes_stable(self, tmp_path):
        ds = data.gen_gaussian_clusters(cfg())
        p1, p2 = tmp_path / "a.scds", tmp_path / "b.scds"
        data.save_dataset(ds, p1)
        data.save_dataset(data.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_features(self, tmp_path):
        ds = data.gen_gaussian_clusters(cfg())
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 40])
        with pytest.raises(ParseError, match=r"expected|remain"):
            data.load_dataset(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.scds"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(ParseError, match="magic"):
            data.load_dataset(path)

    def test_trailing_bytes(self, tmp_path):
        ds = data.gen_gaussian_clusters(cfg())
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            data.load_dataset(path)


class TestCsvImport:
    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text("1.0,2.0,3\n-0.5,0.25,1|2\n4.0,5.0,\n")
        ds = data.load_csv_dataset(path)
        np.testing.assert_allclose(
            ds.features, [[1.0, 2.0], [-0.5, 0.25], [4.0, 5.0]])
        np.testing.assert_array_equal(
            ds.labels, [[0, 0, 0, 1], [0, 1, 1, 0], [0, 0, 0, 0]])
        assert ds.label_count == 4

    def test_bad_feature(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,abc,0\n")
        with pytest.raises(ParseError, match="row 0"):
            data.load_csv_dataset(path)

    def test_inconsistent_width(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0,0\n1.0,0\n")
        with pytest.raises(ParseError, match="inconsistent"):
            data.load_csv_dataset(path)


class TestStripLabels:
    def test_keeps_requested_fraction(self):
        ds = data.gen_gaussian_clusters(cfg(samples_per_class=50))
        out = data.strip_labels(ds, 0.1, seed=4)
        assert int(out.labeled_mask().sum()) == 15   # 5 of 50 per class
        # every class still has a labeled representative
        assert out.labels.any(axis=0).all()

    def test_invalid_fraction(self):
        ds = data.gen_gaussian_clusters(cfg())
        with pytest.raises(PreconditionError):
            data.strip_labels(ds, 0.0)


class TestSplits:
    def test_cluster_splits_share_means(self):
        syn = cfg(cluster_std=0.0)
        train, query, db = data.make_cluster_splits(syn, 5, 10)
        # zero std: every split collapses onto the same shared means
        t0 = train.features[train.single_labels() == 0][0]
        q0 = query.features[query.single_labels() == 0][0]
        assert np.array_equal(t0, q0)

    def test_ids_disjoint(self):
        train, query, db = data.make_cluster_splits(cfg(), 5, 10)
        all_ids = np.concatenate([train.ids, query.ids, db.ids])
        assert len(np.unique(all_ids)) == len(all_ids)


# ---------------------------------------------------------------------------
# Reference: the per-row label encoder and decoder of the .scds format.  The
# array encoder must write the same bytes and the decoder read the same sets.
# ---------------------------------------------------------------------------

def ref_save_dataset(ids, features, labelsets, C, path):
    """The .scds bytes of ids, features and label sets, encoded row by row."""
    n, dim = features.shape
    mask = np.array([Y is not None and len(Y) > 0 for Y in labelsets], dtype=bool)
    any_labeled = bool(mask.any())
    flags = 0
    if any_labeled:
        flags |= 1
        if any(Y is not None and len(Y) > 1 for Y in labelsets):
            flags |= 2
        if not mask.all():
            flags |= 4
    with open(path, "wb") as fh:
        fh.write(data._DS_HEADER.pack(b"SCDS", 1, flags, n, dim, C))
        fh.write(np.asarray(ids).astype("<u8").tobytes())
        fh.write(np.asarray(features).astype("<f4").tobytes())
        if not any_labeled:
            return
        if flags & 4:
            fh.write(mask.astype(np.uint8).tobytes())
        if flags & 2:
            Wc = (C + 63) // 64
            words = np.zeros((n, Wc), dtype="<u8")
            for i, Y in enumerate(labelsets):
                for l in Y or ():
                    words[i, l // 64] |= np.uint64(1) << np.uint64(l % 64)
            fh.write(words.tobytes())
        else:
            vals = np.full(n, 0xFFFFFFFF, dtype="<u4")
            for i, Y in enumerate(labelsets):
                if Y:
                    vals[i] = next(iter(Y))
            fh.write(vals.tobytes())


def ref_decode_labels(blob):
    """Label sets of a well-formed .scds blob, decoded row by row and bit by bit."""
    _, _, flags, n, dim, C = data._DS_HEADER.unpack_from(blob, 0)
    off = data._DS_HEADER.size + 8 * n + 4 * n * dim
    if not flags & 1:
        return tuple(None for _ in range(n))
    mask = np.ones(n, dtype=bool)
    if flags & 4:
        mask = np.frombuffer(blob, np.uint8, n, off).astype(bool)
        off += n
    if flags & 2:
        Wc = (C + 63) // 64
        words = np.frombuffer(blob, "<u8", n * Wc, off).reshape(n, Wc)
        return tuple(
            frozenset(w * 64 + b for w in range(Wc) for b in range(64)
                      if (int(words[i, w]) >> b) & 1) if mask[i] else None
            for i in range(n))
    vals = np.frombuffer(blob, "<u4", n, off)
    return tuple(frozenset((int(v),)) if mask[i] and v != 0xFFFFFFFF else None
                 for i, v in enumerate(vals))


@st.composite
def labeled_sets(draw):
    """ids, features, label sets and C of a single-label, multilabel or
    partially labeled dataset."""
    C = draw(st.sampled_from([6, 64, 65, 130]))
    n = draw(st.integers(0, 30))
    multi = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p_unlabeled = draw(st.sampled_from([0.0, 0.3, 1.0]))
    labels = []
    for _ in range(n):
        if rng.random() < p_unlabeled:
            labels.append(draw(st.sampled_from([None, frozenset()])))
        elif multi:
            # bits past 64 and in the last, partial word
            labels.append(frozenset(rng.choice(C, size=int(rng.integers(1, 5)),
                                               replace=False).tolist()))
        else:
            labels.append(frozenset({int(rng.integers(C))}))
    return rng.permutation(2 * n)[:n], rng.normal(size=(n, 3)), labels, C


class TestLabelIO:
    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    def test_same_bytes_and_sets_as_per_row_reference(self, tmp_path_factory, case):
        ids, features, labelsets, C = case
        d = tmp_path_factory.mktemp("io")
        ds = data.Dataset(ids, features, data.labels_from_sets(labelsets, C))
        data.save_dataset(ds, d / "new.scds")
        ref_save_dataset(ids, features, labelsets, C, d / "ref.scds")
        blob = (d / "new.scds").read_bytes()
        assert blob == (d / "ref.scds").read_bytes()
        loaded = data.load_dataset(d / "new.scds")
        assert loaded.label_count == C
        assert np.array_equal(loaded.labels, ds.labels)
        # an empty set is stored as unlabeled
        assert ref_decode_labels(blob) == tuple(Y or None for Y in labelsets)

    @pytest.mark.parametrize("C,bit", [(6, 6), (6, 63), (65, 65), (65, 127), (130, 191)])
    def test_bit_past_label_count_rejected(self, tmp_path, C, bit):
        ds = data.Dataset(np.arange(3), np.zeros((3, 2)),
                          data.labels_from_sets(({0, 1}, None, {2}), C))
        path = tmp_path / "ml.scds"
        data.save_dataset(ds, path)
        assert bit // 64 < (C + 63) // 64          # inside the row's words
        blob = bytearray(path.read_bytes())
        # the first row's words follow the header, ids, features and mask
        word = data._DS_HEADER.size + 3 * 8 + 3 * 2 * 4 + 3 + 8 * (bit // 64)
        blob[word + (bit % 64) // 8] |= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelSetError):
            data.load_dataset(path)

    def test_masked_row_bits_ignored(self, tmp_path):
        # a row the partial mask marks unlabeled stays unlabeled, whatever
        # its bitmask words hold
        ds = data.Dataset(np.arange(3), np.zeros((3, 2)),
                          data.labels_from_sets(({0, 1}, None, {2}), 3))
        path = tmp_path / "ml.scds"
        data.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[data._DS_HEADER.size + 3 * 8 + 3 * 2 * 4 + 3 + 8] = 0b101
        path.write_bytes(bytes(blob))
        assert np.array_equal(data.load_dataset(path).labels, ds.labels)

    def test_label_count_cap(self, tmp_path):
        # the label matrix takes n * C bytes, so C is capped at 2^16
        ds = data.Dataset(np.arange(2), np.zeros((2, 1)), np.zeros((2, 1 << 16), dtype=bool))
        path = tmp_path / "wide.scds"
        data.save_dataset(ds, path)
        assert data.load_dataset(path).label_count == 1 << 16
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, data._DS_HEADER.size - 4, (1 << 16) + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="label count"):
            data.load_dataset(path)
        csv_path = tmp_path / "wide.csv"
        csv_path.write_text(f"1.0,{1 << 16}\n")
        with pytest.raises(ParseError, match="label count"):
            data.load_csv_dataset(csv_path)

    def test_single_label_past_label_count_rejected(self, tmp_path):
        ds = data.Dataset(np.arange(2), np.zeros((2, 2)),
                          data.labels_from_sets(({0}, {1}), 2))
        path = tmp_path / "sl.scds"
        data.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(LabelSetError):
            data.load_dataset(path)

    def test_label_bitmasks_layout(self):
        labels = data.labels_from_sets(({0, 64, 129}, None, ()), 130)
        index = retrieval.CodeIndex(np.zeros((3, 1), dtype=np.uint64), np.arange(3), 1, labels)
        words = index.label_masks(130)
        assert words.dtype == np.dtype("<u8") and words.shape == (3, 3)
        assert words[0].tolist() == [1, 1, 2]
        assert not words[1:].any()


def loader(name):
    return {".scds": data.load_dataset, ".scdh": retrieval.load_codes,
            ".ckpt": model.load_checkpoint}[name[name.rindex("."):]]


def ckpt_with_meta(blob, meta: bytes):
    """A checkpoint blob with its meta block replaced."""
    (n_dims,) = struct.unpack_from("<I", blob, 16)
    off = model._CKPT_HEADER.size + 4 * n_dims
    (meta_len,) = struct.unpack_from("<Q", blob, off)
    return blob[:off] + struct.pack("<Q", len(meta)) + meta + blob[off + 8 + meta_len:]


FILES = ["multi.scds", "single.scds", "codes.scdh", "model.ckpt", "student.ckpt"]


class TestParserFuzz:
    """Damaged files raise ParseError or LabelSetError, never anything else."""

    @pytest.fixture(scope="class")
    def blobs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        multi = data.Dataset(np.arange(4), np.arange(8.0).reshape(4, 2),
                             data.labels_from_sets(({0, 2}, None, {1}, {0, 1}), 3))
        data.save_dataset(multi, d / "multi.scds")
        single = data.strip_labels(data.gen_gaussian_clusters(cfg(samples_per_class=2)),
                                   0.5, seed=0)
        data.save_dataset(single, d / "single.scds")
        bits = np.random.default_rng(0).random((5, 70)) < 0.5
        retrieval.save_codes(retrieval.CodeIndex(retrieval.pack_bits(bits), np.arange(5), 70),
                             d / "codes.scdh")
        net = model.init_model((2, 3), 2, 4, 0)
        hp = model.Hyperparams(lr_schedule=((1, 0.5),))
        model.save_checkpoint(d / "model.ckpt", net, hp, teacher=net.copy(),
                              extra_meta={"ema_decay": 0.99})
        model.save_checkpoint(d / "student.ckpt", net, hp)
        return {p.name: p.read_bytes() for p in d.iterdir()}

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(FILES), cut=st.integers(0, 10**6))
    def test_truncation(self, blobs, tmp_path_factory, name, cut):
        blob = blobs[name]
        path = tmp_path_factory.mktemp("cut") / name
        path.write_bytes(blob[: cut % len(blob)])
        with pytest.raises(ParseError):
            loader(name)(path)

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(FILES),
           flags=st.integers(0, 2**16 - 1), n=st.integers(0, 2**64 - 1),
           width=st.integers(0, 2**32 - 1), C=st.integers(0, 2**32 - 1),
           small=st.booleans())
    # no rows but a label count of 2^32 - 1: the label block is empty, and
    # decoding it must not allocate a row of ceil(C/64) words
    @example(name="multi.scds", flags=3, n=0, width=0, C=2**32 - 1, small=False)
    def test_oversized_header(self, blobs, tmp_path_factory, name, flags, n, width, C, small):
        blob = blobs[name]
        if small:                       # near the true sizes, where blocks may line up
            n, width, C = n % 8, width % 80, C % 200
        if name.endswith(".scds"):
            head = data._DS_HEADER.pack(b"SCDS", 1, flags, n, width, C)
        elif name.endswith(".ckpt"):       # n_networks, r, C, n_dims
            head = model._CKPT_HEADER.pack(b"SCDM", 1, flags, width, C, n % 2**32)
        else:
            head = struct.pack("<4sHIQ", b"SCDH", 1, width, n)
        path = tmp_path_factory.mktemp("hdr") / name
        path.write_bytes(head + blob[len(head):])
        try:
            loader(name)(path)
        except (ParseError, LabelSetError):
            pass

    @pytest.mark.parametrize("name", ["model.ckpt", "student.ckpt"])
    def test_checkpoint_truncated_at_every_offset(self, blobs, tmp_path, name):
        blob = blobs[name]
        path = tmp_path / name
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(ParseError, match="truncated"):
                model.load_checkpoint(path)

    @pytest.mark.parametrize("kind,damage", [
        ("header", {"n_networks": 0}), ("header", {"n_networks": 3}),
        ("header", {"n_dims": 2**32 - 1}), ("cut", model._CKPT_HEADER.size + 2),
        ("meta", b"\xff\xfe{}"), ("meta", b'{"hyperparams": {"lam": 0.1'),
        ("meta", b"[1, 2]"), ("meta", b'{"hyperparams": [1]}'),
        ("meta", b'{"hyperparams": {"holder_p": 0}}'),
        ("meta", b'{"hyperparams": {"lr_schedule": [[1]]}}'),
        ("meta", b'{"hyperparams": {"lam": "x"}}'),
    ])
    def test_checkpoint_damage(self, blobs, tmp_path, kind, damage):
        # one network: a count of 0 or 3 leaves no trailing bytes to catch
        blob = blobs["student.ckpt"]
        if kind == "header":
            magic, version, n_networks, r, C, n_dims = model._CKPT_HEADER.unpack_from(blob, 0)
            head = dict(dict(n_networks=n_networks, n_dims=n_dims), **damage)
            blob = model._CKPT_HEADER.pack(magic, version, head["n_networks"], r, C,
                                           head["n_dims"]) + blob[model._CKPT_HEADER.size:]
        elif kind == "cut":
            blob = blob[:damage]
        else:
            blob = ckpt_with_meta(blob, damage)
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob)
        with pytest.raises(ParseError):
            model.load_checkpoint(path)

    @settings(max_examples=200, deadline=None)
    @given(key=st.text(max_size=12),
           value=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                           st.text(max_size=4), st.lists(st.integers(), max_size=3)))
    def test_checkpoint_hyperparameter_keys(self, blobs, tmp_path_factory, key, value):
        meta = json.dumps({"hyperparams": {key: value}}).encode()
        path = tmp_path_factory.mktemp("hp") / "hp.ckpt"
        path.write_bytes(ckpt_with_meta(blobs["model.ckpt"], meta))
        if key not in {f.name for f in dataclasses.fields(model.Hyperparams)}:
            with pytest.raises(ParseError, match="unknown hyperparameters"):
                model.load_checkpoint(path)
            return
        try:
            model.load_checkpoint(path)
        except ParseError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(row=st.integers(0, 4), bit=st.integers(70, 127))
    def test_code_padding_bits(self, blobs, tmp_path_factory, row, bit):
        # 70-bit codes: each record is an id and two words, bits 70..127 unused
        blob = bytearray(blobs["codes.scdh"])
        word = retrieval._HEADER.size + (3 * row + 2) * 8
        blob[word + (bit - 64) // 8] |= 1 << (bit % 8)
        path = tmp_path_factory.mktemp("pad") / "codes.scdh"
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="padding"):
            retrieval.load_codes(path)
