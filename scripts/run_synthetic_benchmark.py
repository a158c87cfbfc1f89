#!/usr/bin/env python3
"""Supervised benchmark on the synthetic cluster presets.

Trains the hashing model over several seeds and prints MAP, precision at
Hamming radius 2, and the final quantization loss for each run.
"""

import argparse
import time

import numpy as np

from scdh.data import SyntheticConfig, make_cluster_splits, make_multilabel_splits
from scdh.model import Hyperparams, extract_embeddings, train_scdh
from scdh.retrieval import CodeIndex, evaluate


def build_splits(preset: str, seed: int):
    if preset == "clusters8":
        cfg = SyntheticConfig(C=8, feature_dim=32, cluster_std=1.05,
                              center_spread=1.0, samples_per_class=500,
                              seed=seed)
        return make_cluster_splits(cfg, query_per_class=100, db_per_class=500)
    if preset == "multilabel6":
        cfg = SyntheticConfig(C=6, feature_dim=32, cluster_std=0.35,
                              center_spread=1.0, samples_per_class=500,
                              multilabel_p=0.3, seed=seed)
        return make_multilabel_splits(cfg, n_query=500, n_db=3000)
    raise SystemExit(f"unknown preset {preset!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="clusters8",
                    choices=["clusters8", "multilabel6"])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--bits", type=int, default=24)
    args = ap.parse_args()

    maps, p2s = [], []
    for seed in range(args.seeds):
        train, query, db = build_splits(args.preset, seed)
        hp = Hyperparams(lam=0.01, mu=0.2, alpha=0.05, epochs=30,
                         batch_size=64, lr=1e-3, momentum=0.9,
                         lr_schedule=((20, 0.2),), seed=seed)
        t0 = time.time()
        net, rep = train_scdh(train, hp, r=args.bits, hidden=(64,))
        dt = time.time() - t0
        qi = CodeIndex.from_embeddings(
            extract_embeddings(net, query.features.astype(np.float64)),
            query.ids, query.labels)
        di = CodeIndex.from_embeddings(
            extract_embeddings(net, db.features.astype(np.float64)),
            db.ids, db.labels)
        k = 500 if args.preset == "multilabel6" else None
        metrics = evaluate(qi, di, k=k, radius=2)
        m = metrics.map_at_k if k else metrics.map
        p2 = metrics.precision_at_radius2
        maps.append(m)
        p2s.append(p2)
        print(f"seed {seed}: MAP{'@500' if k else ''}={m:.4f}  P@2={p2:.4f}  "
              f"final_lq={rep.final_quantization:.3f}  ({dt:.1f}s)")
    print(f"\nmean over {args.seeds} seeds: MAP={np.mean(maps):.4f}  "
          f"P@2={np.mean(p2s):.4f}")


if __name__ == "__main__":
    main()
