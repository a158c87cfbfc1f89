"""Span tracing for the benchmark's traced run.

The tracer wraps every public module-level function of the ``scdh``
modules, plus ``CodeIndex.label_masks`` and ``Run.finish``, from outside the
package: no file under ``src/`` changes.  A wrapped call records one span
(name, start, end, parent span, run id).  Spans live in compact in-memory
arrays, because the per-sample loss functions produce hundreds of
thousands of them, and are written out once at the end.

The span name is ``<module>.<function>``; the module is the layer.  A
layer's *entry* spans are the ones whose parent lies in another layer (or
that have no parent); their durations are the time spent in that layer.
The self time of a span is its duration minus the part of its interval
covered by its children's spans.

Tracing assumes one thread: the benchmark runs every command with
``--threads 1``.
"""

from __future__ import annotations

import inspect
import os
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("data", "losses", "model", "meanteacher", "retrieval", "bounds", "cli")

# Methods wrapped in addition to the module-level functions.
METHODS = {"retrieval": ("CodeIndex.label_masks",), "cli": ("Run.finish",)}


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(start, end, parent) -> np.ndarray:
    """Per span: duration minus the time its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = np.empty(len(start))
    for i in range(len(start)):
        kids = children.get(i)
        out[i] = end[i] - start[i] - (covered(kids, start[i], end[i]) if kids else 0.0)
    return out


class Tracer:
    """Records spans around wrapped functions; counters come from hooks."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("h")
        self.start = array("d")
        self.end = array("d")
        self.run_ids: list[str] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin_run(self, run_id: str):
        """Tag the spans recorded from now on with ``run_id``."""
        self.run_ids.append(run_id)

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped so that each call records a span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.run.append(len(self.run_ids) - 1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self.counters, _bind(fn, args, kwargs), result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def install(self, modules: dict, also=()):
        """Wrap the public functions of each ``{layer: module}`` everywhere.

        A function imported by name into another module (``from .model
        import forward_batch``) or re-exported by a namespace in ``also``
        (the package) is replaced there too, so every call site goes
        through the wrapper.
        """
        targets = []
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets.append((fn, f"{layer}.{attr}"))
        replacements = {}
        for fn, name in targets:
            replacements[id(fn)] = (fn, self.wrap(fn, name, HOOKS.get(name)))
        for mod in (*modules.values(), *also):
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        for layer, dotted in METHODS.items():
            for path in dotted:
                cls_name, meth = path.split(".")
                cls = getattr(modules[layer], cls_name)
                fn = cls.__dict__[meth]
                name = f"{layer}.{path}"
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self.wrap(fn, name, HOOKS.get(name)))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32),
                np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64),
                np.array(self.end, dtype=np.float64))

    def save(self, path: str, meta: str):
        """Write every span plus a JSON ``meta`` string as one .npz file."""
        name_id, parent, start, end = self.arrays()
        tmp = path + ".tmp.npz"
        np.savez_compressed(tmp, name_id=name_id, parent=parent, start=start,
                            end=end, run=np.array(self.run, dtype=np.int16),
                            names=np.array(self.names), run_ids=np.array(self.run_ids),
                            meta=np.array(meta))
        os.replace(tmp, path)


def _bind(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _size(path) -> int:
    return os.path.getsize(path)


def _add(key, value_of):
    def hook(counters, args, result):
        counters[key] += value_of(args, result)
    return hook


def _max(counters, key, value):
    counters[key] = max(counters[key], float(value))


def _toy_hook(c, a, rows):
    c["bounds.toy_cells"] += len(rows)
    for row in rows:
        if not row.degenerate:
            _max(c, "bounds.lambda_max", row.lambda_estimate)


def _unary_hook(c, a, rep):
    c["bounds.violations"] += int(not rep.holds)
    if not rep.degenerate:
        _max(c, "bounds.lambda_max", rep.lambda_estimate)


def _ml_hook(c, a, rep):
    c["bounds.ml_trials"] += a["trials"]
    c["bounds.violations"] += int(not rep.holds)


def _load_hook(c, a, ds):
    c["data.load_bytes"] += _size(a["path"])
    c["data.rows"] += ds.n


def _out_bytes(a, _):
    run = a["self"]
    return sum(_size(run.path(n)) for n in [*run.outputs, "manifest.json"])


# Counters read from the arguments or result of a traced call.
HOOKS = {
    "data.save_dataset": _add("data.save_bytes", lambda a, _: _size(a["path"])),
    "data.load_dataset": _load_hook,
    "model.extract_embeddings": _add("model.embed_rows", lambda _, F: len(F)),
    "retrieval.evaluate": _add("retrieval.eval_queries", lambda a, _: a["queries"].n),
    "bounds.unary_upper_bound": _unary_hook,
    "bounds.multilabel_bound_check": _ml_hook,
    "bounds.toy_lambda_grid": _toy_hook,
    "cli.main": _add("cli.failed", lambda _, rc: int(rc != 0)),
    "cli.Run.finish": _add("cli.out_bytes", _out_bytes),
}


def under(name_id, parent, names, ancestor: str) -> np.ndarray:
    """Per span: whether a span named ``ancestor`` encloses it."""
    target = names.index(ancestor) if ancestor in names else -1
    inside = np.zeros(len(name_id), dtype=bool)
    for i, p in enumerate(parent):
        # a parent is recorded before its children, so inside[p] is final
        if p >= 0:
            inside[i] = inside[p] or name_id[p] == target
    return inside


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, u in (("_s", "s"), (".s", "s"), ("_bytes", "B"), ("_per_sample", "calls/sample"),
                      ("_per_query", "rankings/query")):
        if name.endswith(suffix):
            return u
    if name in ("bounds.lambda_max", "retrieval.map", "retrieval.precision_at_radius2"):
        return "1"
    return "count"


def layer_metrics(tracer: Tracer, regions, train_samples: int) -> dict[str, float]:
    """Per-layer metrics from the recorded spans and hook counters.

    ``regions`` are the traced commands and stages as (start, end); the
    time in them that no root span covers is ``trace.unattributed_s``.
    ``train_samples`` is the base of ``losses.calls_per_sample``.
    """
    name_id, parent, start, end = tracer.arrays()
    names = np.array(tracer.names + [""])
    span_names = names[name_id]
    layer_of = np.array([n.split(".")[0] for n in names])[name_id]
    dur = end - start
    selfs = self_times(start, end, parent)
    is_entry = (parent < 0) | (layer_of != np.where(parent >= 0, layer_of[parent], ""))

    def calls(name):
        return int(np.count_nonzero(span_names == name))

    def total(name):
        return float(dur[span_names == name].sum())

    def self_total(name):
        return float(selfs[span_names == name].sum())

    def layer(layer_name):
        sel = is_entry & (layer_of == layer_name)
        return int(np.count_nonzero(sel)), float(dur[sel].sum())

    c = tracer.counters
    m: dict[str, float] = {}
    m["losses.calls"], m["losses.s"] = layer("losses")
    m["losses.samples"] = train_samples
    m["losses.calls_per_sample"] = m["losses.calls"] / train_samples if train_samples else 0.0

    m["model.steps"] = calls("model.sgd_update")
    m["model.step_s"] = total("model.backward_step")
    m["model.step_self_s"] = self_total("model.backward_step")
    m["model.forward_s"] = total("model.forward_batch")
    m["model.sgd_s"] = total("model.sgd_update")
    m["model.embed_s"] = total("model.extract_embeddings")
    m["model.embed_rows"] = c["model.embed_rows"]
    m["model.ckpt_save_s"] = total("model.save_checkpoint")
    m["model.ckpt_load_s"] = total("model.load_checkpoint")

    m["meanteacher.train_s"] = total("meanteacher.train_mt_scdh")
    m["meanteacher.self_s"] = self_total("meanteacher.train_mt_scdh")
    m["meanteacher.consistency_calls"] = calls("meanteacher.consistency_losses")
    m["meanteacher.consistency_s"] = total("meanteacher.consistency_losses")
    m["meanteacher.ema_calls"] = calls("meanteacher.ema_update")
    m["meanteacher.ema_s"] = total("meanteacher.ema_update")
    m["meanteacher.perturb_s"] = total("meanteacher.perturb")

    m["retrieval.binarize_s"] = total("retrieval.binarize_batch") + total("retrieval.binarize")
    m["retrieval.codes_save_s"] = total("retrieval.save_codes")
    m["retrieval.codes_load_s"] = total("retrieval.load_codes")
    m["retrieval.evaluate_s"] = total("retrieval.evaluate")
    m["retrieval.map_s"] = total("retrieval.mean_average_precision")
    m["retrieval.p_at_r_s"] = total("retrieval.precision_at_radius")
    m["retrieval.topk_s"] = total("retrieval.topk_precision_curve")
    m["retrieval.label_masks_calls"] = calls("retrieval.CodeIndex.label_masks")
    m["retrieval.label_masks_s"] = total("retrieval.CodeIndex.label_masks")
    ranking = span_names == "retrieval.distances_to_index"
    m["retrieval.rankings"] = int(np.count_nonzero(ranking))
    m["retrieval.eval_rankings"] = int(np.count_nonzero(
        ranking & under(name_id, parent, tracer.names, "retrieval.evaluate")))
    m["retrieval.eval_queries"] = c["retrieval.eval_queries"]
    m["retrieval.rankings_per_query"] = (
        m["retrieval.eval_rankings"] / m["retrieval.eval_queries"]
        if m["retrieval.eval_queries"] else 0.0)
    m["retrieval.search_calls"] = calls("retrieval.search")
    m["retrieval.search_s"] = total("retrieval.search")

    m["data.gen_s"] = sum(total(f"data.{f}") for f in (
        "make_cluster_splits", "make_multilabel_splits", "strip_labels", "balance_upsample"))
    m["data.save_s"] = total("data.save_dataset")
    m["data.save_bytes"] = c["data.save_bytes"]
    m["data.load_s"] = total("data.load_dataset")
    m["data.load_bytes"] = c["data.load_bytes"]
    m["data.rows"] = c["data.rows"]

    m["bounds.unary_checks"] = calls("bounds.unary_upper_bound")
    m["bounds.unary_s"] = total("bounds.unary_upper_bound")
    m["bounds.ml_checks"] = calls("bounds.multilabel_bound_check")
    m["bounds.ml_trials"] = c["bounds.ml_trials"]
    m["bounds.ml_s"] = total("bounds.multilabel_bound_check")
    m["bounds.toy_cells"] = c["bounds.toy_cells"]
    m["bounds.toy_s"] = total("bounds.toy_lambda_grid")
    m["bounds.violations"] = c["bounds.violations"]
    m["bounds.lambda_max"] = c["bounds.lambda_max"]

    m["cli.commands"] = calls("cli.main")
    m["cli.failed"] = c["cli.failed"]
    m["cli.manifest_s"] = total("cli.Run.finish")
    m["cli.out_bytes"] = c["cli.out_bytes"]

    roots = list(zip(start[parent < 0], end[parent < 0]))
    m["trace.spans"] = len(start)
    m["trace.unattributed_s"] = sum(hi - lo - covered(roots, lo, hi) for lo, hi in regions)
    return {k: float(v) if isinstance(v, float) else int(v) for k, v in m.items()}
