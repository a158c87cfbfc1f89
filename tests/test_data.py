import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scdh import data, model, retrieval
from scdh.errors import ParseError, PreconditionError

import oracles
from conftest import gen_gaussian_clusters, gen_multilabel, labels_from_sets


def cfg(**kw):
    base = dict(C=3, feature_dim=4, cluster_std=0.5, center_spread=2.0,
                samples_per_class=20, seed=7)
    base.update(kw)
    return data.SyntheticConfig(**base)


class TestGaussianClusters:
    def test_zero_std_collapses_to_means(self):
        ds = gen_gaussian_clusters(cfg(cluster_std=0.0))
        for c in range(3):
            block = ds.features[ds.labels[:, c]]
            assert np.all(block == block[0])

    def test_sample_means_near_cluster_means(self):
        m = 4000
        ds = gen_gaussian_clusters(cfg(samples_per_class=m, cluster_std=1.0))
        ds0 = gen_gaussian_clusters(cfg(samples_per_class=m, cluster_std=0.0))
        for c in range(3):
            mask = ds.labels[:, c]
            sample_mean = ds.features[mask].mean(axis=0)
            true_mean = ds0.features[mask][0]
            assert np.all(np.abs(sample_mean - true_mean) < 4.0 / np.sqrt(m))

    def test_determinism(self):
        a = gen_gaussian_clusters(cfg())
        b = gen_gaussian_clusters(cfg())
        c = gen_gaussian_clusters(cfg(seed=8))
        assert np.array_equal(a.features, b.features)
        assert not np.array_equal(a.features, c.features)

    def test_balanced_by_construction(self):
        ds = gen_gaussian_clusters(cfg())
        counts = np.bincount(ds.single_labels())
        assert np.all(counts == 20)


class TestMultilabelGenerator:
    def test_near_one_probability(self):
        ds = gen_multilabel(cfg(C=6, multilabel_p=0.9, samples_per_class=100))
        sizes = ds.labels.sum(axis=1)
        # nearly every sample carries nearly every label (full sets resampled,
        # so the ceiling is C - 1)
        assert np.mean(sizes) > 4.0
        assert max(sizes) == 5

    def test_mean_label_count(self):
        C, p = 4, 0.3
        ds = gen_multilabel(
            data.SyntheticConfig(C=C, feature_dim=3, cluster_std=0.1,
                                 center_spread=1.0, samples_per_class=2500,
                                 multilabel_p=p, seed=1))
        # E|Y| for Binomial(C, p) conditioned on >= 1, about 1.58 for C=4, p=0.3;
        # resampling of full sets shifts it by under p^C, well inside tolerance
        expected = C * p / (1.0 - (1.0 - p) ** C)
        assert np.mean(ds.labels.sum(axis=1)) == pytest.approx(expected, abs=0.05)

    def test_per_label_frequency_band(self):
        C, p, n = 5, 0.3, 10_000
        ds = gen_multilabel(
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
        a = gen_multilabel(cfg(multilabel_p=0.4))
        b = gen_multilabel(cfg(multilabel_p=0.4))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    @pytest.mark.parametrize("p", [0.01, 0.3, 0.99])
    @pytest.mark.parametrize("C", [2, 3, 6, 64, 65, 130])
    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1025, 3000])
    def test_label_matrix_equals_the_rescanning_sampler(self, n, C, p):
        # the same matrix and the same generator state afterwards, so the
        # feature noise drawn next is the same too
        got_rng, want_rng = np.random.default_rng(n + C), np.random.default_rng(n + C)
        got = data._sample_label_matrix(got_rng, n, C, p)
        want = oracles.ref_redrawn_label_matrix(want_rng, n, C, p)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, C)
        assert np.array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        sizes = got.sum(axis=1)
        assert np.all((sizes > 0) & (sizes < C))

    @pytest.mark.parametrize("C, p", [(2, 1e-7), (2, 1e-4), (2, 1 - 1e-4), (3, 1e-4),
                                      (9, 1e-4)])
    def test_rows_seldom_kept_refused(self, C, p):
        # a row is kept with probability 1 - (1 - p)^C - p^C, here below 1e-3
        with pytest.raises(PreconditionError, match="draws per row"):
            cfg(C=C, multilabel_p=p)

    def test_rows_kept_often_enough_accepted(self):
        # q = 0.001998 at C = 2, p = 0.001, just above the floor; the default
        # p = 0.3 keeps at least 42% of rows at any C >= 2
        cfg(C=2, multilabel_p=0.001)
        cfg(C=2, multilabel_p=0.999)
        for C in range(2, 200):
            cfg(C=C, multilabel_p=0.3)

    def test_wrong_generator_rejected(self):
        with pytest.raises(PreconditionError):
            gen_multilabel(cfg())
        with pytest.raises(PreconditionError):
            gen_gaussian_clusters(cfg(multilabel_p=0.3))


class TestDatasetIO:
    def test_roundtrip_single(self, tmp_path):
        ds = gen_gaussian_clusters(cfg())
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.ids, ds.ids)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.label_count == ds.label_count

    def test_roundtrip_multilabel(self, tmp_path):
        ds = gen_multilabel(cfg(multilabel_p=0.4))
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_roundtrip_partial_labels(self, tmp_path):
        ds = data.strip_labels(gen_gaussian_clusters(cfg()), 0.5, seed=2)
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        loaded = data.load_dataset(path)
        assert np.array_equal(loaded.labels, ds.labels)

    def test_roundtrip_bytes_stable(self, tmp_path):
        ds = gen_gaussian_clusters(cfg())
        p1, p2 = tmp_path / "a.scds", tmp_path / "b.scds"
        data.save_dataset(ds, p1)
        data.save_dataset(data.load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_features(self, tmp_path):
        ds = gen_gaussian_clusters(cfg())
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
        ds = gen_gaussian_clusters(cfg())
        path = tmp_path / "ds.scds"
        data.save_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(ParseError, match="trailing"):
            data.load_dataset(path)


class TestStripLabels:
    def test_keeps_requested_fraction(self):
        ds = gen_gaussian_clusters(cfg(samples_per_class=50))
        out = data.strip_labels(ds, 0.1, seed=4)
        assert int(out.labeled_mask().sum()) == 15   # 5 of 50 per class
        # every class still has a labeled representative
        assert out.labels.any(axis=0).all()

    def test_invalid_fraction(self):
        ds = gen_gaussian_clusters(cfg())
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
        ds = data.Dataset(ids, features, labels_from_sets(labelsets, C))
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
                          labels_from_sets(({0, 1}, None, {2}), C))
        path = tmp_path / "ml.scds"
        data.save_dataset(ds, path)
        assert bit // 64 < (C + 63) // 64          # inside the row's words
        blob = bytearray(path.read_bytes())
        # the first row's words follow the header, ids, features and mask
        word = data._DS_HEADER.size + 3 * 8 + 3 * 2 * 4 + 3 + 8 * (bit // 64)
        blob[word + (bit % 64) // 8] |= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="out of range"):
            data.load_dataset(path)

    def test_masked_row_bits_ignored(self, tmp_path):
        # a row the partial mask marks unlabeled stays unlabeled, whatever
        # its bitmask words hold
        ds = data.Dataset(np.arange(3), np.zeros((3, 2)),
                          labels_from_sets(({0, 1}, None, {2}), 3))
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

    def test_single_label_past_label_count_rejected(self, tmp_path):
        ds = data.Dataset(np.arange(2), np.zeros((2, 2)),
                          labels_from_sets(({0}, {1}), 2))
        path = tmp_path / "sl.scds"
        data.save_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(ParseError, match="out of range"):
            data.load_dataset(path)

    def test_label_bitmasks_layout(self):
        labels = labels_from_sets(({0, 64, 129}, None, ()), 130)
        index = retrieval.CodeIndex(np.zeros((3, 1), dtype=np.uint64), np.arange(3), 1, labels)
        words = index.label_masks(130)
        assert words.dtype == np.dtype("<u8") and words.shape == (3, 3)
        assert words[0].tolist() == [1, 1, 2]
        assert not words[1:].any()


# ---------------------------------------------------------------------------
# Reference: the whole-file .scds loader.  It reads the file into one bytes
# object and takes each section from it in order; the streaming reader must
# give the same arrays and, on a damaged file, the same message.
# ---------------------------------------------------------------------------

def _ref_take(blob: bytes, offset: int, count: int, dtype, what: str):
    nbytes = count * np.dtype(dtype).itemsize
    if offset + nbytes > len(blob):
        raise ParseError(
            f"truncated {what} at byte {offset}: expected {nbytes} bytes, "
            f"only {len(blob) - offset} remain"
        )
    arr = np.frombuffer(blob, dtype=dtype, count=count, offset=offset)
    return arr, offset + nbytes


def ref_load_dataset(path) -> data.Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < data._DS_HEADER.size:
        raise ParseError(
            f"truncated header: expected {data._DS_HEADER.size} bytes, got {len(blob)}"
        )
    magic, version, flags, n, dim, C = data._DS_HEADER.unpack_from(blob, 0)
    if magic != data.DATASET_MAGIC:
        raise ParseError(f"bad magic {magic!r} at offset 0")
    if version != data.DATASET_VERSION:
        raise ParseError(f"unsupported dataset version {version}")
    if C > data._MAX_LABEL_COUNT:
        raise ParseError(f"label count {C} exceeds the supported {data._MAX_LABEL_COUNT}")
    off = data._DS_HEADER.size
    ids, off = _ref_take(blob, off, n, "<u8", "id block")
    feats, off = _ref_take(blob, off, n * dim, "<f4", "feature block")
    feats = feats.reshape(n, dim)
    labels = np.zeros((n, C), dtype=bool)
    if flags & 1:
        if flags & 4:
            mask, off = _ref_take(blob, off, n, np.uint8, "label mask")
            mask = mask.astype(bool)
        else:
            mask = np.ones(n, dtype=bool)
        if flags & 2:
            Wc = (C + 63) // 64
            words, off = _ref_take(blob, off, n * Wc, "<u8", "label bitmasks")
            words = words.reshape(n, Wc)
            high = (words[:, -1] >> np.uint64(C % 64) if C % 64
                    else np.zeros(n, dtype=np.uint64))
            past = mask & (high != 0)
            if past.any():
                i = int(np.argmax(past))
                h = int(high[i])
                raise ParseError(f"row {i}: label {C + (h & -h).bit_length() - 1} "
                                 f"out of range for C={C}")
            labels = np.unpackbits(words.view(np.uint8), axis=1, count=C,
                                   bitorder="little").view(bool) & mask[:, None]
        else:
            vals, off = _ref_take(blob, off, n, "<u4", "label block")
            rows = np.flatnonzero(mask & (vals != 0xFFFFFFFF))
            past = vals[rows] >= C
            if past.any():
                i = int(rows[np.argmax(past)])
                raise ParseError(f"row {i}: label {int(vals[i])} out of range "
                                 f"for C={C}")
            labels[rows, vals[rows]] = True
    if off != len(blob):
        raise ParseError(f"{len(blob) - off} trailing bytes after offset {off}")
    return data.Dataset(ids.astype(np.int64), feats.copy(), labels)


def ref_sample_multilabel(protos, n, p, std, seed, id_start=0) -> data.Dataset:
    """The whole-array generator: one (n, C) @ (C, dim) product, one noise draw."""
    rng = np.random.default_rng(seed)
    C, dim = protos.shape
    member = oracles.ref_redrawn_label_matrix(rng, n, C, p)
    feats = member @ protos / member.sum(axis=1, keepdims=True)
    feats = feats + std * rng.standard_normal((n, dim))
    ids = np.arange(id_start, id_start + n, dtype=np.int64)
    return data.Dataset(ids, feats.astype(np.float32), member)


def assert_same_dataset(got: data.Dataset, want: data.Dataset):
    for name in ("ids", "features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def small_files(d):
    """Small .scds files of every label layout, by name."""
    sets = ({0, 2}, None, {1}, {0, 1}, {129})
    layouts = {
        "multi-partial": labels_from_sets(sets, 130),
        "multi": labels_from_sets(({0, 2}, {1}, {0, 1}), 3),
        "single-partial": labels_from_sets(({2}, None, {0}, {1}), 3),
        "single": labels_from_sets(({2}, {0}), 3),
        "unlabeled": np.zeros((3, 2), dtype=bool),
    }
    paths = {}
    for name, labels in layouts.items():
        n = len(labels)
        feats = np.arange(3.0 * n).reshape(n, 3) - 4.5
        paths[name] = d / f"{name}.scds"
        data.save_dataset(data.Dataset(np.arange(n) * 7 - 3, feats, labels), paths[name])
    return paths


def parse_error(load, path) -> str:
    with pytest.raises(ParseError) as err:
        load(path)
    return str(err.value)


class TestStreamingReader:
    @settings(max_examples=200, deadline=None)
    @given(labeled_sets())
    @example((np.arange(0), np.zeros((0, 3)), [], 130))
    def test_load_equals_whole_file_reference(self, tmp_path_factory, case):
        ids, features, labelsets, C = case
        path = tmp_path_factory.mktemp("load") / "d.scds"
        data.save_dataset(data.Dataset(ids, features, labels_from_sets(labelsets, C)),
                          path)
        assert_same_dataset(data.load_dataset(path), ref_load_dataset(path))
        f = data.open_dataset(path)
        assert_same_dataset(data.Dataset(f.ids, f.rows(0, f.n), f.labels),
                            ref_load_dataset(path))

    @pytest.mark.parametrize("name", ["multi-partial", "multi", "single-partial", "single",
                                      "unlabeled"])
    def test_damage_gives_the_reference_message(self, tmp_path, name):
        path = small_files(tmp_path)[name]
        blob = path.read_bytes()
        assert_same_dataset(data.load_dataset(path), ref_load_dataset(path))
        damaged = [blob[:cut] for cut in range(len(blob))]
        damaged += [blob + b"x", blob + bytes(9)]
        for bad in damaged:
            path.write_bytes(bad)
            assert parse_error(data.load_dataset, path) == parse_error(ref_load_dataset, path)
            assert parse_error(data.open_dataset, path) == parse_error(ref_load_dataset, path)

    def test_rows_read_any_range(self, tmp_path):
        path = small_files(tmp_path)["multi-partial"]
        f, want = data.open_dataset(path), ref_load_dataset(path)
        for s in range(f.n + 1):
            for e in range(s, f.n + 1):
                rows = f.rows(s, e)
                assert rows.dtype == np.float32 and rows.shape == (e - s, 3)
                assert np.array_equal(rows, want.features[s:e])
        for s, e in ((-1, 2), (3, 2), (0, f.n + 1)):
            with pytest.raises(PreconditionError):
                f.rows(s, e)

    @pytest.mark.parametrize("layout", ["contiguous", "fortran", "strided", "float64"])
    def test_save_writes_the_astype_tobytes_bytes(self, tmp_path, layout):
        # ids past int64's positive range and features that are not a
        # contiguous float32 array are written as their u64 / f4 casts
        base = np.random.default_rng(0).normal(size=(6, 8)).astype(np.float32)
        features = {"contiguous": base, "fortran": np.asfortranarray(base),
                    "strided": base[:, ::2], "float64": base * 1.1}[layout]
        ids = np.array([0, -1, 2**62, -(2**63), 5, 2**63 - 1])
        sets = ({0, 70}, None, {3}, {1, 2}, {5}, ())
        ds = data.Dataset(ids, features, labels_from_sets(sets, 71))
        data.save_dataset(ds, tmp_path / "new.scds")
        ref_save_dataset(ids, ds.features, sets, 71, tmp_path / "ref.scds")
        assert (tmp_path / "new.scds").read_bytes() == (tmp_path / "ref.scds").read_bytes()
        assert_same_dataset(data.load_dataset(tmp_path / "new.scds"), ds)


B = model.EMBED_BLOCK_ROWS


@pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B + 5,
                               4 * B - 1, 4 * B, 4 * B + 1, 8 * B - 1, 8 * B, 12 * B + 5])
def test_block_wise_generator_equals_whole_array(n):
    protos = np.random.default_rng(1).normal(size=(7, 12))
    assert_same_dataset(data.sample_multilabel(protos, n, 0.3, 0.5, 11, id_start=40),
                        ref_sample_multilabel(protos, n, 0.3, 0.5, 11, id_start=40))


@pytest.mark.parametrize("n", [0, 1, B - 1, B, 2 * B - 1, 2 * B, 3 * B + 5,
                               4 * B - 1, 4 * B, 8 * B - 1, 8 * B, 12 * B + 5])
def test_row_blocks_tile_the_rows(n):
    blocks = model.row_blocks(n)
    assert [s for s, _ in blocks] == [0] + [e for _, e in blocks[:-1]]
    assert blocks[-1][1] == n
    assert all(B <= e - s < 2 * B for s, e in blocks) or blocks == [(0, n)]


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
    """Damaged files raise ParseError, never anything else."""

    @pytest.fixture(scope="class")
    def blobs(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("fuzz")
        multi = data.Dataset(np.arange(4), np.arange(8.0).reshape(4, 2),
                             labels_from_sets(({0, 2}, None, {1}, {0, 1}), 3))
        data.save_dataset(multi, d / "multi.scds")
        single = data.strip_labels(gen_gaussian_clusters(cfg(samples_per_class=2)),
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
        except ParseError:
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
