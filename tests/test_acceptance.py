"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and budget is asserted inside the test body.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from scdh import bounds, losses, meanteacher as mt, model, retrieval as rt
from scdh.cli import run_bound_suite, run_multilabel_suite
from scdh.data import (
    SyntheticConfig,
    labels_from_sets,
    make_cluster_splits,
    make_multilabel_splits,
    strip_labels,
)
from scdh.meanteacher import train_scdh
from scdh.model import Hyperparams, extract_embeddings

from conftest import central_diff, rel_err


def report(criterion, name, detail=""):
    print(f"ACCEPTANCE {criterion} [{name}]: PASS {detail}".rstrip())


def well_scaled_net(seed, dims=(4, 8), C=3, r=6):
    rng = np.random.default_rng(seed)
    net = model.init_model(dims, C, r, seed)
    for p in net.parameters():
        p[:] = rng.normal(0.0, 0.5, p.shape)
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
        total += hp.alpha * losses.quantization_loss(F[i], hp.holder_p,
                                                     hp.holder_q)
    return total


def eval_codes(net, query, db):
    qF = extract_embeddings(net, query.features.astype(np.float64))
    dF = extract_embeddings(net, db.features.astype(np.float64))
    qi = rt.CodeIndex.from_embeddings(qF, query.ids, query.labels)
    di = rt.CodeIndex.from_embeddings(dF, db.ids, db.labels)
    return qi, di


def test_criterion_1_gradient_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    n_inst = 100

    worst = {}
    # unary loss with the lam-weighted center pull (embedding and centers)
    errs = []
    for _ in range(n_inst):
        f = rng.normal(0, 1, 16)
        centers = rng.normal(0, 1, (16, 5))
        y = int(rng.integers(5))
        g = losses.scul_gradients(f, y, centers, 0.005)
        nf = central_diff(lambda x: losses.scul_loss(x, y, centers, 0.005), f)
        nc = central_diff(lambda c: losses.scul_loss(f, y, c, 0.005), centers)
        errs.append(max(rel_err(g.grad_embedding, nf), rel_err(g.grad_centers, nc)))
    worst["scul"] = max(errs)

    errs = []
    for _ in range(n_inst):
        f = rng.normal(0, 1, 16)
        centers = rng.normal(0, 1, (16, 5))
        Y = frozenset(rng.choice(5, size=2, replace=False).tolist())
        g = losses.scul_multilabel_gradients(f, Y, centers, 0.01)
        nf = central_diff(lambda x: losses.scul_multilabel_loss(x, Y, centers, 0.01), f)
        nc = central_diff(lambda c: losses.scul_multilabel_loss(f, Y, c, 0.01), centers)
        errs.append(max(rel_err(g.grad_embedding, nf), rel_err(g.grad_centers, nc)))
    worst["scul_multilabel"] = max(errs)

    errs = []
    for _ in range(n_inst):
        f = rng.normal(0, 1, 16)
        f[np.abs(f) < 0.05] = 0.2          # stay off the |.| kink for FD
        g = losses.quantization_gradient(f)
        errs.append(rel_err(g, central_diff(losses.quantization_loss, f, eps=1e-6)))
    worst["quantization"] = max(errs)

    errs = []
    for _ in range(n_inst):
        logits = rng.normal(0, 2, 8)
        Y = frozenset(rng.choice(8, size=int(rng.integers(1, 3)),
                                 replace=False).tolist())
        _, g = losses.classification_loss(logits, Y)
        num = central_diff(lambda z: losses.classification_loss(z, Y)[0],
                           logits, eps=1e-6)
        errs.append(rel_err(g, num))
    worst["classification"] = max(errs)

    errs = []
    for _ in range(n_inst):
        a, at = rng.normal(0, 1, (2, 6))
        d, dt = -np.abs(rng.normal(2, 0.5, (2, 6)))
        res = mt.consistency_losses(a, at, d, dt)
        na = central_diff(lambda z: mt.consistency_losses(z, at, d, dt).classifier_loss,
                          a, eps=1e-6)
        nd = central_diff(lambda z: mt.consistency_losses(a, at, z, dt).distance_loss,
                          d, eps=1e-6)
        errs.append(max(rel_err(res.grad_logits, na), rel_err(res.grad_negdists, nd)))
    worst["consistency"] = max(errs)

    for name, err in worst.items():
        assert err < 1e-5, f"{name} gradient error {err}"

    # full objective through a two-layer network, every parameter
    hp = Hyperparams(lam=0.01, mu=0.3, alpha=0.07, lr=0.01, momentum=0.0, seed=0)
    errs = []
    for seed in range(n_inst):
        net = well_scaled_net(seed)
        X = rng.normal(0, 1, (1, 4))
        if seed % 2:
            Y = [frozenset(rng.choice(3, size=2, replace=False).tolist())]
        else:
            Y = [frozenset({int(rng.integers(3))})]
        F, logits, acts = model.forward_batch(net, X)
        grad_F = np.zeros_like(F)
        grad_logits = np.zeros_like(logits)
        grads = net.blocks(np.zeros_like(net.theta))
        model._accumulate_loss_grads(net, F, logits, labels_from_sets(Y, 3), hp,
                                     grad_F, grad_logits,
                                     grads["centers"])
        model._backprop_chain(net, acts, grad_F, grad_logits, grads)
        inst_err = 0.0
        for analytic, p in zip(grads.values(), net.parameters()):
            num = np.zeros_like(p)
            for j in range(p.size):
                orig = p.flat[j]
                p.flat[j] = orig + 1e-5
                up = full_objective(net, X, Y, hp)
                p.flat[j] = orig - 1e-5
                dn = full_objective(net, X, Y, hp)
                p.flat[j] = orig
                num.flat[j] = (up - dn) / 2e-5
            inst_err = max(inst_err, rel_err(analytic, num))
        errs.append(inst_err)
    full_err = max(errs)
    assert full_err < 1e-4, f"full-network gradient error {full_err}"

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report(1, "gradient-suite",
           f"(worst per-family {max(worst.values()):.2e}, "
           f"full-net {full_err:.2e}, {elapsed:.1f}s)")


def _criterion2_reports():
    return run_bound_suite(instances=1000, classes=(2, 3, 4), max_n=12,
                           max_r=16, kind=losses.margin_loss(1.0), seed=2024)


def test_criterion_2_unary_bound_certification():
    t0 = time.monotonic()
    reports = _criterion2_reports()
    violations = [r for r in reports if not r.holds]
    elapsed = time.monotonic() - t0
    assert len(reports) == 1000
    assert not violations, f"{len(violations)} bound violations"
    assert elapsed < 60.0, f"certification took {elapsed:.1f}s"
    report(2, "unary-bound-certification", f"(1000 instances, {elapsed:.1f}s)")


def test_criterion_3_lambda_properties():
    reports = _criterion2_reports()
    lam_max = max(r.lambda_estimate for r in reports)
    assert lam_max <= 2.0 + 1e-9, f"lambda estimate {lam_max} above 2"

    cfg = bounds.ToyConfig(seed=0, triplet_samples=200_000)
    rows = bounds.toy_lambda_grid(cfg)
    lams = [r.lambda_estimate for r in rows if not r.degenerate]
    frac_below_1 = float(np.mean([l < 1.0 for l in lams]))
    assert frac_below_1 >= 0.95, f"lambda < 1 on only {frac_below_1:.0%} of cells"

    by_cell = {(r.sigma, r.d): r for r in rows}
    path = list(zip(sorted(cfg.sigma_grid, reverse=True), sorted(cfg.d_grid)))
    for field in ("triplet_loss", "relaxed_triplet_loss", "unary_bound"):
        vals = [getattr(by_cell[c], field) for c in path]
        for prev, nxt in zip(vals, vals[1:]):
            assert nxt <= prev * 1.05 + 1e-9, (
                f"{field} increased beyond 5% slack along the path: "
                f"{prev} -> {nxt}")
    report(3, "lambda-landscape",
           f"(max lambda {lam_max:.3f}, {frac_below_1:.0%} of cells below 1)")


def test_criterion_4_multilabel_bound_certification():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    combos = [(C, p) for C in (3, 4, 5) for p in (0.2, 0.3, 0.5)]
    failures = []
    for i in range(20):
        C, p = combos[i % len(combos)]
        n = int(rng.integers(8, 13))
        r = int(rng.integers(4, 9))
        codes = rng.choice([-1.0, 1.0], size=(n, r))
        centers = rng.normal(0, 2, (r, C))
        rep = bounds.multilabel_bound_check(codes, C, p, centers,
                                            trials=5000, seed=1000 + i)
        if not rep.holds:
            failures.append((C, p, n, r))
    elapsed = time.monotonic() - t0
    assert not failures, f"bound violated at 99% confidence: {failures}"
    assert elapsed < 300.0, f"Monte Carlo suite took {elapsed:.1f}s"
    report(4, "multilabel-bound-certification", f"(20 configs, {elapsed:.1f}s)")


def test_criterion_5_quantization_properties():
    rng = np.random.default_rng(5)
    for _ in range(500):
        f = rng.normal(0, 2, int(rng.integers(2, 48)))
        assert 0.0 <= losses.quantization_loss(f) <= 1.0
    # zero iff all magnitudes agree
    signs = rng.choice([-1.0, 1.0], size=16)
    assert losses.quantization_loss(1.7 * signs) < 1e-12
    assert losses.quantization_loss([1.0, 0.5]) > 1e-9
    # positive-scale invariance
    f = rng.normal(0, 1, 24)
    base = losses.quantization_loss(f)
    for t in (1e-3, 0.25, 7.0, 1e4):
        assert abs(losses.quantization_loss(t * f) - base) < 1e-12
    # hand value at the stated default exponents
    val = losses.quantization_loss([1.0, 0.0], p=3.0, q=1.5)
    assert abs(val - (1.0 - 2.0 ** (-2.0 / 3.0))) < 1e-12
    report(5, "quantization-properties")


def one_nn_accuracy(query, db):
    qf = query.features.astype(np.float64)
    df = db.features.astype(np.float64)
    qy = query.single_labels()
    dy = db.single_labels()
    hits = 0
    for i in range(query.n):
        d2 = ((df - qf[i]) ** 2).sum(axis=1)
        hits += dy[np.argmin(d2)] == qy[i]
    return hits / query.n


def test_criterion_6_synthetic_retrieval():
    maps, p2s, nn_accs, final_lqs = [], [], [], []
    for seed in range(5):
        cfg = SyntheticConfig(C=8, feature_dim=32, cluster_std=1.05,
                              center_spread=1.0, samples_per_class=500,
                              seed=seed)
        train, query, db = make_cluster_splits(cfg, query_per_class=100,
                                               db_per_class=500)
        assert (train.n, query.n, db.n) == (4000, 800, 4000)
        nn_accs.append(one_nn_accuracy(query, db))
        hp = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=30,
                         batch_size=64, lr=1e-3, momentum=0.9,
                         lr_schedule=((20, 0.2),), seed=seed)
        t0 = time.monotonic()
        net, rep = train_scdh(train, hp, r=24, hidden=(64,))
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"seed {seed} training took {elapsed:.1f}s"
        final_lqs.append(rep.final_quantization)
        qi, di = eval_codes(net, query, db)
        maps.append(rt.mean_average_precision(qi, di))
        p2s.append(rt.precision_at_radius(qi, di, 2))
    assert 0.96 <= np.mean(nn_accs) <= 0.995, f"raw 1-NN accuracy {np.mean(nn_accs)}"
    for seed, (m, p2) in enumerate(zip(maps, p2s)):
        assert m >= 0.95, f"seed {seed}: MAP {m:.4f} below 0.95"
        assert p2 >= 0.90, f"seed {seed}: P@2 {p2:.4f} below 0.90"
    # the chosen alpha lands the final quantization loss inside the tuning
    # band around 0.1-0.2
    for seed, lq in enumerate(final_lqs):
        assert 0.0 <= lq <= 0.3, f"seed {seed}: final quantization loss {lq}"
    report(6, "synthetic-retrieval",
           f"(MAP {np.mean(maps):.3f}, P@2 {np.mean(p2s):.3f}, "
           f"1-NN {np.mean(nn_accs):.3f}, final l_q {np.mean(final_lqs):.3f})")


def test_criterion_7_multilabel_retrieval():
    maps = []
    for seed in range(5):
        cfg = SyntheticConfig(C=6, feature_dim=32, cluster_std=0.35,
                              center_spread=1.0, samples_per_class=500,
                              multilabel_p=0.3, seed=seed)
        train, query, db = make_multilabel_splits(cfg, n_query=500, n_db=3000)
        hp = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=30,
                         batch_size=64, lr=1e-3, momentum=0.9,
                         lr_schedule=((20, 0.2),), seed=seed)
        t0 = time.monotonic()
        net, _ = train_scdh(train, hp, r=24, hidden=(64,))
        elapsed = time.monotonic() - t0
        assert elapsed < 180.0, f"seed {seed} training took {elapsed:.1f}s"
        qi, di = eval_codes(net, query, db)
        maps.append(rt.mean_average_precision(qi, di, k=500))
    for seed, m in enumerate(maps):
        assert m >= 0.85, f"seed {seed}: MAP@500 {m:.4f} below 0.85"
    report(7, "multilabel-retrieval", f"(MAP@500 {np.mean(maps):.3f})")


def test_criterion_8_mean_teacher_non_degradation():
    deltas, base_maps, teacher_maps = [], [], []
    for seed in range(5):
        cfg = SyntheticConfig(C=8, feature_dim=32, cluster_std=1.5,
                              center_spread=1.0, samples_per_class=250,
                              seed=seed)
        train, query, db = make_cluster_splits(cfg, query_per_class=50,
                                               db_per_class=250)
        semi = mt.SemiDataset.from_partial(
            strip_labels(train, 0.10, seed=seed + 1000))

        hp_base = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=60,
                              batch_size=32, lr=2e-3, momentum=0.9,
                              lr_schedule=((40, 0.2),), seed=seed)
        base_net, _ = train_scdh(semi.labeled, hp_base, r=24, hidden=(64,))
        qi, di = eval_codes(base_net, query, db)
        base_map = rt.mean_average_precision(qi, di)

        hp_mt = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=40,
                            batch_size=64, lr=1e-3, momentum=0.9,
                            lr_schedule=((30, 0.2),), seed=seed)
        _, teacher, _ = mt.train_mt_scdh(semi, hp_mt, w=0.1, ema_decay=0.99,
                                         noise_std=0.15, r=24, hidden=(64,))
        qi, di = eval_codes(teacher.model, query, db)
        teacher_map = rt.mean_average_precision(qi, di)

        base_maps.append(base_map)
        teacher_maps.append(teacher_map)
        deltas.append(teacher_map - base_map)
    mean_base = float(np.mean(base_maps))
    mean_teacher = float(np.mean(teacher_maps))
    mean_delta = float(np.mean(deltas))
    assert mean_teacher >= mean_base - 0.01, (
        f"teacher MAP {mean_teacher:.4f} degrades below baseline "
        f"{mean_base:.4f} - 0.01")
    report(8, "mean-teacher-non-degradation",
           f"(baseline {mean_base:.4f}, teacher {mean_teacher:.4f}, "
           f"mean delta {mean_delta:+.4f})")


def test_criterion_9_retrieval_oracle_equivalence():
    rng = np.random.default_rng(9)
    for r in (24, 48, 63, 64, 65):
        bits = rng.random((200, r)) < 0.5
        ids = rng.permutation(600)[:200].astype(np.int64)
        index = rt.CodeIndex(rt.pack_bits(bits), ids, r)
        for _ in range(5):
            qbits = rng.random(r) < 0.5
            got = rt.search(rt.HashCode(rt.pack_bits(qbits), r), index, 200)
            # oracle: unpacked +/-1 vectors, squared Euclidean distance / 4
            q = np.where(qbits, 1.0, -1.0)
            dbv = np.where(bits, 1.0, -1.0)
            dists = (((dbv - q) ** 2).sum(axis=1) / 4.0).round().astype(int)
            order = sorted(range(200), key=lambda i: (dists[i], ids[i]))
            want = [(int(ids[i]), int(dists[i])) for i in order]
            assert got == want, f"packed scan diverges from oracle at r={r}"

    # hand AP fixture: relevant at ranks 1 and 3, two relevant total
    qbits = np.zeros(8, dtype=bool)
    db_bits = np.zeros((4, 8), dtype=bool)
    db_bits[1, :1] = True
    db_bits[2, :2] = True
    db_bits[3, :3] = True
    labels = labels_from_sets(({0}, {1}, {0}, {1}), 2)
    q = rt.CodeIndex(rt.pack_bits(qbits[None, :]), np.array([99]), 8,
                     labels_from_sets(({0},), 2))
    db = rt.CodeIndex(rt.pack_bits(db_bits), np.arange(4), 8, labels)
    ap = rt.mean_average_precision(q, db)
    assert abs(ap - 5.0 / 6.0) < 1e-12
    report(9, "retrieval-oracle-equivalence")


def test_criterion_10_command_determinism(tmp_path):
    run = [sys.executable, "-m", "scdh.cli"]

    def invoke(*args):
        proc = subprocess.run([*run, *map(str, args)], capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        return proc

    def dir_bytes(path):
        out = {}
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = fh.read()
        return out

    # shared inputs: both runs of every command see identical arguments
    # except for the output directory (which is not part of the config)
    data_dir = str(tmp_path / "data")
    invoke("gen", "--mode", "single", "--classes", 3, "--dim", 6,
           "--cluster-std", 0.4, "--center-spread", 2.0,
           "--train-per-class", 16, "--query-per-class", 4,
           "--db-per-class", 16, "--seed", 7, "--out", data_dir)
    semi_dir = str(tmp_path / "semidata")
    invoke("gen", "--mode", "single", "--classes", 3, "--dim", 6,
           "--cluster-std", 0.4, "--center-spread", 2.0,
           "--train-per-class", 16, "--query-per-class", 4,
           "--db-per-class", 16, "--keep-labels", 0.5, "--seed", 7,
           "--out", semi_dir)
    model_dir = str(tmp_path / "model")
    invoke("train", "--data", os.path.join(data_dir, "train.scds"),
           "--bits", 8, "--hidden", "8", "--epochs", 2, "--batch-size", 16,
           "--lr", 0.002, "--seed", 7, "--out", model_dir)
    codes_dir = str(tmp_path / "codes")
    invoke("encode", "--model", os.path.join(model_dir, "model.ckpt"),
           "--data", os.path.join(data_dir, "query.scds"),
           "--name", "q.scdh", "--seed", 7, "--out", codes_dir)
    invoke("encode", "--model", os.path.join(model_dir, "model.ckpt"),
           "--data", os.path.join(data_dir, "db.scds"),
           "--name", "db.scdh", "--seed", 7, "--out", codes_dir)

    commands = {
        "gen": ("gen", "--mode", "single", "--classes", 3, "--dim", 6,
                "--cluster-std", 0.4, "--center-spread", 2.0,
                "--train-per-class", 16, "--query-per-class", 4,
                "--db-per-class", 16, "--seed", 7),
        "train": ("train", "--data", os.path.join(data_dir, "train.scds"),
                  "--bits", 8, "--hidden", "8", "--epochs", 2,
                  "--batch-size", 16, "--lr", 0.002, "--seed", 7,
                  "--threads", 1),
        "train-semi": ("train-semi", "--data",
                       os.path.join(semi_dir, "train.scds"), "--bits", 8,
                       "--hidden", "8", "--epochs", 2, "--batch-size", 16,
                       "--lr", 0.001, "--w", 1.0, "--noise-std", 0.1,
                       "--seed", 7, "--threads", 1),
        "encode": ("encode", "--model", os.path.join(model_dir, "model.ckpt"),
                   "--data", os.path.join(data_dir, "query.scds"),
                   "--name", "q.scdh", "--seed", 7),
        "eval": ("eval", "--queries", os.path.join(codes_dir, "q.scdh"),
                 "--database", os.path.join(codes_dir, "db.scdh"),
                 "--query-data", os.path.join(data_dir, "query.scds"),
                 "--db-data", os.path.join(data_dir, "db.scds"),
                 "--map-k", 8, "--topk", "1,4", "--seed", 7),
        "verify-bounds": ("verify-bounds", "--instances", 20,
                          "--ml-configs", 1, "--trials", 1000, "--seed", 7,
                          "--threads", 1),
        "lambda-toy": ("lambda-toy", "--sigma-grid", "0.4,0.9",
                       "--d-grid", "2,5", "--samples-per-cluster", 30,
                       "--triplet-samples", 10000, "--seed", 7,
                       "--threads", 1),
    }
    for name, args in commands.items():
        out_a = tmp_path / "rerun" / f"{name}-a"
        out_b = tmp_path / "rerun" / f"{name}-b"
        invoke(*args, "--out", out_a)
        invoke(*args, "--out", out_b)
        a, b = dir_bytes(out_a), dir_bytes(out_b)
        assert list(a) == list(b), f"{name}: file sets differ"
        for fname in a:
            assert a[fname] == b[fname], f"{name}/{fname} not byte-identical"
    report(10, "command-determinism", f"({len(commands)} commands, two runs each)")
