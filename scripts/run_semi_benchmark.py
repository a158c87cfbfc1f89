#!/usr/bin/env python3
"""Mean-teacher benchmark: labeled-only baseline vs semi-supervised training.

Overlapping clusters with most labels stripped; reports the per-seed teacher
MAP against the baseline trained on the labeled subset alone.  The data is
``scdh gen --preset overlap8`` before label stripping; the baseline and the
mean teacher train with the ``overlap8-baseline`` and ``overlap8-semi``
presets.
"""

import argparse

import numpy as np

from scdh import cli
from scdh.data import strip_labels
from scdh.meanteacher import SemiDataset, train_mt_scdh, train_scdh
from scdh.model import extract_embeddings
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
    ap.add_argument("--keep-labels", type=float, help="default: the preset's")
    ap.add_argument("--w", type=float, help="default: the preset's")
    ap.add_argument("--noise-std", type=float, help="default: the preset's")
    args = ap.parse_args()

    deltas = []
    for seed in range(args.seeds):
        gen = cli.resolve("gen", {"preset": "overlap8", "seed": seed,
                                  "keep-labels": args.keep_labels})
        train, query, db = cli.make_splits(gen)
        semi = SemiDataset.from_partial(
            strip_labels(train, gen["keep-labels"], seed=seed + 1000))

        cfg = cli.resolve("train", {"preset": "overlap8-baseline", "seed": seed})
        base_net, _ = train_scdh(semi.labeled, cli.hyperparams(cfg), r=cfg["bits"],
                                 hidden=cfg["hidden"])
        base = eval_map(base_net, query, db)

        cfg = cli.resolve("train-semi", {"preset": "overlap8-semi", "seed": seed,
                                         "w": args.w, "noise-std": args.noise_std})
        student, teacher, _ = train_mt_scdh(
            semi, cli.hyperparams(cfg), w=cfg["w"], ema_decay=cfg["ema-decay"],
            noise_std=cfg["noise-std"], r=cfg["bits"], hidden=cfg["hidden"],
            ramp_fraction=cfg["ramp-fraction"])
        t_map = eval_map(teacher.model, query, db)
        s_map = eval_map(student, query, db)
        deltas.append(t_map - base)
        print(f"seed {seed}: baseline={base:.4f}  teacher={t_map:.4f}  "
              f"student={s_map:.4f}  delta={t_map - base:+.4f}")
    print(f"\nmean teacher-vs-baseline delta over {args.seeds} seeds: "
          f"{np.mean(deltas):+.4f}")


if __name__ == "__main__":
    main()
