#!/usr/bin/env python3
"""scdh benchmark: one seeded workload per run, measured in this process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a source checkout; it imports ``scdh`` from
``src/`` and from nowhere else, and fails with exit code 2 when that is
missing.  BLAS is pinned to one thread before numpy loads, and the
effective count is read back from OpenBLAS.

``--trace 0`` sets up the workload five times (the median is
``setup_s``), then repeats the timed iteration while the next one still
fits in ``--seconds``, and reports the end-to-end metrics.  Between stages
it times fixed reference kernels (``reference.py``), and ``wall_ref`` is
the iteration's wall time in units of their time.  ``--trace 1``
runs one set-up and one iteration untraced, then the same again with every
public ``scdh`` function wrapped in a span, and reports the per-layer
metrics; the spans go to ``.perfbench/traces/``.

The human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")    # work dirs, traces, output digests
SETUP_REPS = 5
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def openblas_threads() -> tuple[int | None, str]:
    """Thread count and config string read back from the loaded OpenBLAS."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("scipy_openblas", ""), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get is None:
                continue
            get.restype = ctypes.c_int
            get.argtypes = []
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            text = ""
            if config is not None:
                config.restype = ctypes.c_char_p
                config.argtypes = []
                text = config().decode()
            return int(get()), text
    return None, ""


def machine_record(np, args, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads, blas_config = openblas_threads()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas_config,
        "blas_threads": blas_threads,
        "cli_threads": threads,
        "python_threads": threading.active_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def source_hash() -> str:
    """sha256 over the package's and the benchmark's Python files."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "scdh"), os.path.dirname(os.path.abspath(__file__))):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_against_earlier_runs(ctx, workload: str, seed: int):
    """Same workload, seed and sources as an earlier run: same output hashes.

    The output hashes of each run are kept in ``.perfbench/digests.json``,
    keyed by workload, seed and a hash of the sources.
    """
    path = os.path.join(STATE, "digests.json")
    try:
        with open(path) as fh:
            known = json.load(fh)
    except FileNotFoundError:
        known = {}
    key = f"{workload}|{seed}|{source_hash()}"
    digest = ctx.digest()
    if key in known:
        ctx.check(known[key] == digest, "output hashes differ from an earlier run "
                  "of this workload and seed on the same sources")
    else:
        known[key] = digest
        tmp = path + f".{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(known, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
    return digest


def iteration_wall(ctx, mark: int) -> float:
    return sum(t1 - t0 for _, t0, t1 in ctx.intervals[mark:])


def timed_run(wl, ctx, args, import_s: float):
    """Set up SETUP_REPS times, then iterate while the next one fits.

    A reference probe runs before the first iteration and after every
    stage; each iteration's wall time is divided by the mean of the probes
    from the one before its first stage to the one after its last.
    """
    from reference import Probe
    from stats import highest_percentile, median, percentile, wall_ref
    from workloads import UNITS

    setups = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        state = wl.setup(ctx, rep)
        setups.append(time.perf_counter() - t0)
    ctx.probe = Probe()
    ctx.probes.append(ctx.probe())
    samples, walls, refs = [], [], []
    t_start = time.perf_counter()
    while True:
        mark, probe_mark = len(ctx.intervals), len(ctx.probes) - 1
        samples.append(wl.iteration(ctx, state, len(samples)))
        walls.append(iteration_wall(ctx, mark))
        refs.append(sum(ctx.probes[probe_mark:]) / len(ctx.probes[probe_mark:]))
        if time.perf_counter() - t_start + median(walls) > args.seconds:
            break
    ctx.probe = None
    latencies_ms = [1000.0 * x for s in samples for x in s.latencies]
    p50, n = percentile(latencies_ms, 50)
    p90, _ = percentile(latencies_ms, 90)
    p99, _ = percentile(latencies_ms, 99)
    metrics = {
        "setup_s": (import_s + median(setups), "s"),
        "wall_ref": (wall_ref(walls, refs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    pct, tail, _ = highest_percentile(latencies_ms)
    print(f"iterations {len(samples)}  set-ups {len(setups)}  imports {import_s:.4f} s  "
          f"set-up times {[round(x, 4) for x in setups]}  walls {[round(x, 4) for x in walls]}  "
          f"reference probes {[round(1000 * x, 3) for x in refs]} ms")
    print(f"requests {n}: p50 {p50:.4f} ms  p90 {p90:.4f} ms  p99 {p99:.4f} ms  "
          f"highest percentile with 10 beyond: p{pct:.2f} {tail:.4f} ms")
    print(f"metric wall_s {median(walls)!r} s (median of {len(walls)})")
    print(f"metric reference_ms {1000 * median(refs)!r} ms (median of {len(refs)})")
    for q, value in ((50, p50), (90, p90), (99, p99)):
        print(f"metric request_ms_p{q} {value!r} ms (of {n})")
    named = {}
    for s in samples:
        for k, v in {**s.named, **s.quality}.items():
            named.setdefault(k, []).append(v)
    for k, values in named.items():
        print(f"metric {k} {median(values)!r} {UNITS[k]} (median of {len(values)})")
    return metrics


def traced_run(wl, ctx, args):
    """Set-up and a warm-up iteration, one untraced iteration, then a traced
    set-up and iteration; the overhead compares the last two iterations."""
    import tracing

    state = wl.setup(ctx, 0)
    wl.iteration(ctx, state, 0)
    mark = len(ctx.intervals)
    wl.iteration(ctx, state, 1)
    untraced = iteration_wall(ctx, mark)

    tracer = tracing.Tracer()
    ctx.train_samples = 0
    mark = len(ctx.intervals)
    tracer.install({name: importlib.import_module(f"scdh.{name}") for name in tracing.LAYERS},
                   also=(importlib.import_module("scdh"),))
    try:
        tracer.begin_run(f"{wl.name}-seed{args.seed}-setup")
        state = wl.setup(ctx, 1)
        tracer.begin_run(f"{wl.name}-seed{args.seed}-iteration")
        it_mark = len(ctx.intervals)
        sample = wl.iteration(ctx, state, 2)
    finally:
        tracer.uninstall()
    traced = iteration_wall(ctx, it_mark)
    regions = [(t0, t1) for _, t0, t1 in ctx.intervals[mark:]]
    m = tracing.layer_metrics(tracer, regions, ctx.train_samples)
    m["trace.wall_s"] = traced
    m["trace.untraced_wall_s"] = untraced
    m["trace.overhead_s"] = traced - untraced
    for key in ("map", "precision_at_radius2"):
        m[f"retrieval.{key}"] = sample.quality.get(key, 0.0)
    return {k: (v, tracing.unit(k)) for k, v in m.items()}, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "scdh", "__init__.py")):
        print(f"perfbench: no scdh package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import numpy as np
    import scdh
    import_s = time.perf_counter() - t0
    if not os.path.abspath(scdh.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported scdh from {scdh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    machine = machine_record(np, args, workloads.THREADS)
    print("machine " + json.dumps(machine, sort_keys=True))
    if machine["blas_threads"] not in (1, None):
        print(f"perfbench: OpenBLAS runs {machine['blas_threads']} threads, not 1",
              file=sys.stderr)
        return 2

    os.makedirs(STATE, exist_ok=True)
    work = os.path.join(STATE, f"work-{os.getpid()}")
    ctx = workloads.Context(work, args.seed)
    metrics, tracer = {}, None
    try:
        if args.trace:
            metrics, tracer = traced_run(wl, ctx, args)
        else:
            metrics = timed_run(wl, ctx, args, import_s)
        digest = check_against_earlier_runs(ctx, wl.name, args.seed)
        print(f"outputs_sha256 {digest}")
    except workloads.CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    error_rate = ctx.failed / max(ctx.attempted, 1)
    print(f"metric error_rate {error_rate!r} failed/attempted "
          f"({ctx.failed}/{ctx.attempted})")
    for what in ctx.failures:
        print(f"FAILED {what}")
    if tracer is not None:
        os.makedirs(os.path.join(STATE, "traces"), exist_ok=True)
        trace_path = os.path.join(STATE, "traces", f"{wl.name}-seed{args.seed}.npz")
        tracer.save(trace_path, json.dumps({"machine": machine, "metrics": {
            k: v for k, (v, _) in metrics.items()}}, sort_keys=True))
        print(f"trace {trace_path} ({len(tracer.start)} spans)")

    correct = ctx.failed == 0 and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
