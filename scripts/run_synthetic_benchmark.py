#!/usr/bin/env python3
"""Supervised benchmark on the synthetic cluster presets.

Trains the hashing model over several seeds and prints MAP, precision at
Hamming radius 2, and the final quantization loss for each run.  The data
and hyperparameters are those of ``scdh gen --preset P`` and
``scdh train --preset P``.
"""

import argparse
import time

import numpy as np

from scdh import cli
from scdh.meanteacher import train_scdh
from scdh.model import extract_embeddings
from scdh.retrieval import CodeIndex, evaluate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="clusters8",
                    choices=["clusters8", "multilabel6"])
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--bits", type=int, help="code length (default: the preset's)")
    args = ap.parse_args()

    maps, p2s = [], []
    for seed in range(args.seeds):
        train, query, db = cli.make_splits(
            cli.resolve("gen", {"preset": args.preset, "seed": seed}))
        cfg = cli.resolve("train", {"preset": args.preset, "seed": seed,
                                    "bits": args.bits})
        t0 = time.time()
        net, rep = train_scdh(train, cli.hyperparams(cfg), r=cfg["bits"],
                              hidden=cfg["hidden"])
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
