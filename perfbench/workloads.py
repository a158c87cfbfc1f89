"""The benchmark's seeded workloads.

Each workload has a set-up, which makes its inputs from the seed, and an
iteration, the timed part.  Both drive the public entry points of
``scdh.cli`` and of the library inside this process.  Every command runs
with ``--threads 1``.  Timings and traces never go into a CLI ``--out``
directory.

Every iteration ends in a closed loop of requests from one client, each
sent when the previous one has returned: enough of them to take half a
second or more, and at least 1000, so that p99 has ten samples beyond it.  The request is a
``retrieval.search`` over the workload's database codes, or for
``certify`` a ``bounds.unary_upper_bound`` check of one code set.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from scdh import bounds, cli, losses, retrieval

THREADS = 1          # the CLI --threads value of every command
SEARCH_K = 10
ORACLE_CHECKS = 20   # sampled search requests re-checked by the oracle


class CommandFailed(RuntimeError):
    """A CLI command exited with a non-zero code."""


@dataclass
class Sample:
    """What one timed iteration measured."""

    latencies: list            # seconds per closed-loop request
    named: dict                # per-workload metrics by name, see UNITS
    quality: dict = field(default_factory=dict)


UNITS = {
    "train_samples_per_s": "samples/s",
    "eval_queries_per_s": "queries/s",
    "verify_checks_per_s": "checks/s",
    "verify_bounds_s": "s",
    "lambda_toy_s": "s",
    "map": "1",
    "map_at_k": "1",
    "precision_at_radius2": "1",
}


class Context:
    """Runs commands and stages, and tallies the run's correctness checks.

    ``intervals`` holds (stage, start, end) for every command and stage, so
    the runner can add up an iteration's wall time without the checks.
    When ``probe`` is set, it is timed after every stage, outside the
    stage's interval, and its seconds go to ``probes``.
    ``outputs`` keeps the first output hashes seen for each command label;
    a later run of that command with the same seed must reproduce them.
    """

    def __init__(self, work_dir: str, seed: int):
        self.work = work_dir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[str, dict] = {}
        self.intervals: list[tuple[str, float, float]] = []
        self.train_samples = 0
        self.probe = None                # reference.Probe, in timed runs only
        self.probes: list[float] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return bool(ok)

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    @contextlib.contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.intervals.append((name, t0, time.perf_counter()))
        if self.probe is not None:
            self.probes.append(self.probe())

    def run(self, label: str, argv: list, out: str) -> tuple[float, dict]:
        """Run one CLI command; return its seconds and its manifest."""
        out_dir = self.path(out)
        argv = [*argv, "--seed", str(self.seed), "--threads", str(THREADS),
                "--out", out_dir]
        with self.stage(label):
            rc = cli.main(argv)
        _, t0, t1 = self.intervals[-1]
        if not self.check(rc == 0, f"{label}: exit code {rc}"):
            raise CommandFailed(f"{label} exited with code {rc}")
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        first = self.outputs.setdefault(label, manifest["outputs"])
        if first is not manifest["outputs"]:
            self.check(first == manifest["outputs"],
                       f"{label}: output hashes differ from its first run")
        return t1 - t0, manifest

    def digest(self) -> str:
        """sha256 over every command's output hashes."""
        return hashlib.sha256(json.dumps(self.outputs, sort_keys=True).encode()).hexdigest()


def flags(preset: dict, **override) -> list[str]:
    """CLI flags for a preset table entry, with some values replaced."""
    out = []
    for key, value in dict(preset, **override).items():
        out += [f"--{key.replace('_', '-')}", str(value)]
    return out


def unpack(words: np.ndarray, nbits: int) -> np.ndarray:
    """(n, W) little-endian uint64 words -> (n, nbits) bools, bit i LSB-first."""
    shifts = np.arange(64, dtype=np.uint64)
    out = np.empty((len(words), nbits), dtype=bool)
    for a in range(0, len(words), 8192):     # in chunks: 64 uint64 per word
        bits = (words[a:a + 8192, :, None] >> shifts) & np.uint64(1)
        out[a:a + 8192] = bits.reshape(len(bits), -1)[:, :nbits]
    return out


def oracle_topk(query_bits: np.ndarray, db_bits: np.ndarray, db_ids: np.ndarray,
                k: int) -> list[tuple[int, int]]:
    """k nearest by Hamming distance over unpacked bits, ties by ascending id."""
    dist = (db_bits != query_bits[None, :]).sum(axis=1)
    by_id = np.argsort(db_ids, kind="stable")
    order = by_id[np.argsort(dist[by_id], kind="stable")][:k]
    return [(int(db_ids[i]), int(dist[i])) for i in order]


def search_requests(ctx: Context, query_path: str, db_path: str,
                    requests: int) -> list[float]:
    """Closed loop of searches; sampled answers checked by the oracle."""
    checked = set(np.random.default_rng(ctx.seed).choice(
        requests, ORACLE_CHECKS, replace=False).tolist())
    answers = {}
    latencies = []
    clock = time.perf_counter
    with ctx.stage("search"):
        queries = retrieval.load_codes(query_path)
        db = retrieval.load_codes(db_path)
        codes = [retrieval.HashCode(w, queries.nbits) for w in queries.words]
        for j in range(requests):
            code = codes[j % len(codes)]
            t0 = clock()
            found = retrieval.search(code, db, SEARCH_K)
            latencies.append(clock() - t0)
            if j in checked:
                answers[j] = found
    db_bits = unpack(db.words, db.nbits)
    q_bits = unpack(queries.words, queries.nbits)
    for j, found in sorted(answers.items()):
        expected = oracle_topk(q_bits[j % len(codes)], db_bits, db.ids, SEARCH_K)
        ctx.check(found == expected, f"search request {j}: top-{SEARCH_K} differs from the oracle")
    return latencies


def encode_eval_search(ctx: Context, tag: str, model: str, data: str,
                       eval_flags: list, requests: int, encode_flags: list = ()) -> dict:
    """encode query and db -> eval -> closed-loop search; the eval numbers."""
    paths = {}
    for split in ("query", "db"):
        out = f"{tag}/encode-{split}"
        _, m = ctx.run(f"encode-{split}",
                       ["encode", "--model", model, "--data", f"{data}/{split}.scds",
                        "--name", f"{split}.scdh", *encode_flags], out)
        paths[split] = ctx.path(out, f"{split}.scdh")
        if split == "query":
            n_query = m["result"]["n"]
    eval_s, m = ctx.run("eval", ["eval", "--queries", paths["query"],
                                 "--database", paths["db"],
                                 "--query-data", f"{data}/query.scds",
                                 "--db-data", f"{data}/db.scds", *eval_flags],
                        f"{tag}/eval")
    quality = {k: m["result"][k] for k in ("map", "precision_at_radius2")}
    if m["result"]["map_at_k"] is not None:
        quality["map_at_k"] = m["result"]["map_at_k"]
    return {"eval_s": eval_s, "n_query": n_query, "quality": quality,
            "latencies": search_requests(ctx, paths["query"], paths["db"], requests)}


class TrainThenRetrieve:
    """gen -> train (timed) -> encode query and db -> eval -> closed-loop search.

    The training flags are the named preset's, with fewer epochs so that an
    iteration takes seconds rather than the preset's ~20 s.
    """

    requests = 5000      # searches over a few thousand codes take ~0.2 ms each

    def __init__(self, name: str, gen_preset: str, command: str, train_preset: str,
                 epochs: int, encode_flags: list = (), floors: tuple | None = None):
        self.name = name
        self.gen_preset = gen_preset
        self.command = command
        self.train_flags = flags(cli.TRAIN_PRESETS[train_preset], epochs=epochs)
        self.epochs = epochs
        self.encode_flags = list(encode_flags)
        self.floors = floors

    def setup(self, ctx: Context, rep: int) -> dict:
        out = f"setup{rep}/data"
        _, m = ctx.run("gen", ["gen", "--preset", self.gen_preset], out)
        return {"data": ctx.path(out), "n_train": m["result"]["n_train"]}

    def iteration(self, ctx: Context, state: dict, i: int) -> Sample:
        tag = f"iter{i}"
        train_s, _ = ctx.run(self.command, [self.command, "--data",
                                            f"{state['data']}/train.scds", *self.train_flags],
                             f"{tag}/train")
        samples = self.epochs * state["n_train"]
        ctx.train_samples += samples
        r = encode_eval_search(ctx, tag, ctx.path(tag, "train", "model.ckpt"),
                               state["data"], ["--topk", "100,500"], self.requests,
                               self.encode_flags)
        if self.floors:
            q = r["quality"]
            map_floor, p2_floor = self.floors
            ctx.check(q["map"] >= map_floor, f"MAP {q['map']:.4f} below {map_floor}")
            ctx.check(q["precision_at_radius2"] >= p2_floor,
                      f"P@2 {q['precision_at_radius2']:.4f} below {p2_floor}")
        return Sample(r["latencies"],
                      {"train_samples_per_s": samples / train_s,
                       "eval_queries_per_s": r["n_query"] / r["eval_s"]},
                      r["quality"])


class RetrievalML100k:
    """multilabel6-style data with a 100k database; timed encode -> eval -> search."""

    name = "retrieval-ml100k"
    gen = dict(cli.SYNTH_PRESETS["multilabel6"], n_query=50, n_db=100_000)
    train_epochs = 1
    requests = 1000      # ~6 ms each over 100k codes

    def setup(self, ctx: Context, rep: int) -> dict:
        data = f"setup{rep}/data"
        _, m = ctx.run("gen", ["gen", *flags(self.gen)], data)
        ctx.run("train", ["train", "--data", ctx.path(data, "train.scds"),
                          *flags(cli.TRAIN_PRESETS["multilabel6"], epochs=self.train_epochs)],
                f"setup{rep}/model")
        ctx.train_samples += self.train_epochs * m["result"]["n_train"]
        return {"data": ctx.path(data), "model": ctx.path(f"setup{rep}/model/model.ckpt")}

    def iteration(self, ctx: Context, state: dict, i: int) -> Sample:
        r = encode_eval_search(ctx, f"iter{i}", state["model"], state["data"],
                               ["--map-k", "1000", "--topk", "100,1000"], self.requests)
        return Sample(r["latencies"],
                      {"eval_queries_per_s": r["n_query"] / r["eval_s"]}, r["quality"])


class Certify:
    """verify-bounds (unary suite + multilabel Monte Carlo) -> lambda-toy -> unary checks."""

    name = "certify"
    # sized for an iteration of about 4 s, so that a 30 s run has seven or
    # more iterations; one toy cell already samples the 1M triplets that
    # set the peak RSS
    instances, ml_configs, trials = 1000, 20, 1000
    requests = 2500      # unary checks take ~0.2 ms each
    toy_grid = ["--sigma-grid", "1.5", "--d-grid", "4.0"]       # 1 cell of the default grid

    def setup(self, ctx: Context, rep: int) -> dict:
        with ctx.stage("instances"):
            rng = np.random.default_rng(ctx.seed)
            requests = [cli.random_bound_instance(rng, (2, 3, 4), 12, 16)
                        for _ in range(self.requests)]
        # small runs of both commands, so lazy set-up is done before timing
        ctx.run("warm-verify", ["verify-bounds", "--instances", "20", "--ml-configs", "1",
                                "--trials", "1000"], f"setup{rep}/verify")
        ctx.run("warm-toy", ["lambda-toy", "--sigma-grid", "1.0", "--d-grid", "2.0",
                             "--triplet-samples", "10000"], f"setup{rep}/toy")
        return {"requests": requests}

    def iteration(self, ctx: Context, state: dict, i: int) -> Sample:
        verify_s, m = ctx.run("verify-bounds", [
            "verify-bounds", "--instances", str(self.instances),
            "--ml-configs", str(self.ml_configs), "--trials", str(self.trials)],
            f"iter{i}/verify")
        ctx.check(m["result"]["violations"] == 0,
                  f"verify-bounds: {m['result']['violations']} violations")
        ctx.check(m["result"]["lambda_le_2"],
                  f"verify-bounds: lambda max {m['result']['lambda_max']} above 2")
        toy_s, m = ctx.run("lambda-toy", ["lambda-toy", *self.toy_grid], f"iter{i}/toy")
        ctx.check(m["result"]["lambda_max"] <= 2.0,
                  f"lambda-toy: lambda max {m['result']['lambda_max']} above 2")

        kind = losses.margin_loss(1.0)
        latencies, reports = [], []
        clock = time.perf_counter
        with ctx.stage("unary-requests"):
            for code_set, centers in state["requests"]:
                t0 = clock()
                reports.append(bounds.unary_upper_bound(code_set, centers, kind))
                latencies.append(clock() - t0)
        for j, rep in enumerate(reports):
            ctx.check(rep.holds and rep.lambda_estimate <= 2.0 + 1e-9,
                      f"unary request {j}: bound violated or lambda above 2")
        checks = self.instances + self.ml_configs * self.trials
        return Sample(latencies, {"verify_checks_per_s": checks / verify_s,
                                  "verify_bounds_s": verify_s, "lambda_toy_s": toy_s})


WORKLOADS = {w.name: w for w in (
    # 4 of the preset's 30 epochs already clear the README floors
    TrainThenRetrieve("supervised-clusters8", "clusters8", "train", "clusters8", 4,
                      floors=(0.95, 0.90)),
    TrainThenRetrieve("semi-overlap8", "overlap8", "train-semi", "overlap8-semi", 8,
                      encode_flags=["--network", "teacher"]),
    RetrievalML100k(),
    Certify(),
)}
