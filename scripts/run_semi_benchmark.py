#!/usr/bin/env python3
"""Mean-teacher benchmark: labeled-only baseline vs semi-supervised training.

Overlapping clusters with most labels stripped; reports the per-seed teacher
MAP against the baseline trained on the labeled subset alone.
"""

import argparse

import numpy as np

from scdh.data import SyntheticConfig, make_cluster_splits, strip_labels
from scdh.meanteacher import SemiDataset, train_mt_scdh
from scdh.model import Hyperparams, extract_embeddings, train_scdh
from scdh.retrieval import CodeIndex, evaluate


def eval_map(net, query, db):
    qi = CodeIndex.from_embeddings(
        extract_embeddings(net, query.features.astype(np.float64)),
        query.ids, query.labels)
    di = CodeIndex.from_embeddings(
        extract_embeddings(net, db.features.astype(np.float64)),
        db.ids, db.labels)
    return evaluate(qi, di).map


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--keep-labels", type=float, default=0.10)
    ap.add_argument("--w", type=float, default=0.1)
    ap.add_argument("--noise-std", type=float, default=0.15)
    args = ap.parse_args()

    deltas = []
    for seed in range(args.seeds):
        cfg = SyntheticConfig(C=8, feature_dim=32, cluster_std=1.5,
                              center_spread=1.0, samples_per_class=250,
                              seed=seed)
        train, query, db = make_cluster_splits(cfg, query_per_class=50,
                                               db_per_class=250)
        semi = SemiDataset.from_partial(
            strip_labels(train, args.keep_labels, seed=seed + 1000))

        hp_base = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=60,
                              batch_size=32, lr=2e-3, momentum=0.9,
                              lr_schedule=((40, 0.2),), seed=seed)
        base_net, _ = train_scdh(semi.labeled, hp_base, r=24, hidden=(64,))
        base = eval_map(base_net, query, db)

        hp_mt = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=40,
                            batch_size=64, lr=1e-3, momentum=0.9,
                            lr_schedule=((30, 0.2),), seed=seed)
        student, teacher, _ = train_mt_scdh(semi, hp_mt, w=args.w,
                                            ema_decay=0.99,
                                            noise_std=args.noise_std,
                                            r=24, hidden=(64,))
        t_map = eval_map(teacher.model, query, db)
        s_map = eval_map(student, query, db)
        deltas.append(t_map - base)
        print(f"seed {seed}: baseline={base:.4f}  teacher={t_map:.4f}  "
              f"student={s_map:.4f}  delta={t_map - base:+.4f}")
    print(f"\nmean teacher-vs-baseline delta over {args.seeds} seeds: "
          f"{np.mean(deltas):+.4f}")


if __name__ == "__main__":
    main()
