"""Every package name the benchmark calls resolves in ``scdh``.

``perfbench/workloads.py`` calls attributes of the ``scdh`` modules it
imports, and ``perfbench/tracing.py`` wraps the methods of its ``METHODS``
table and hooks the functions its ``HOOKS`` table names, reading their
arguments by parameter name.  Its training
metrics count the spans of a few public step functions, which a training
step must keep calling by name.  A rename, move or inlining in the package
that leaves one of them behind fails here, not as a refused benchmark run
or a metric that silently reads 0.  The certify workload's drawn requests
must also still pass the unary check it feeds them to.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from scdh import bounds, cli, data, losses, meanteacher, model

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workload_calls() -> list[str]:
    """``module.attr`` of each attribute that workloads.py reads from a
    module it imports with ``from scdh import ...``."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "scdh"
               for alias in node.names}
    return sorted({f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
WORKLOAD_CALLS = _workload_calls()
TRACED_METHODS = sorted(f"{layer}.{path}" for layer, paths in TRACING.METHODS.items()
                        for path in paths)


def _resolve(dotted: str):
    layer, *path = dotted.split(".")
    owner = importlib.import_module(f"scdh.{layer}")
    for name in path:
        owner = getattr(owner, name)
    return owner


def test_the_scan_finds_the_calls():
    # the certify workload draws and checks unary bound instances by name
    assert {"cli.random_bound_instance", "bounds.unary_upper_bound",
            "losses.margin_loss", "retrieval.search", "cli.main"} <= set(WORKLOAD_CALLS)


@pytest.mark.parametrize("dotted", WORKLOAD_CALLS)
def test_workload_call_resolves(dotted):
    _resolve(dotted)


def test_certify_requests_pass_the_unary_check():
    # the certify workload's loop: its draws must be records the single
    # check accepts, which a scan of names cannot see
    rng = np.random.default_rng(3)
    for _ in range(20):
        code_set, centers = cli.random_bound_instance(rng, (2, 3, 4), 12, 16)
        rep = bounds.unary_upper_bound(code_set, centers, losses.margin_loss(1.0))
        assert rep.holds and rep.lambda_estimate <= 2.0 + 1e-9


@pytest.mark.parametrize("dotted", TRACED_METHODS)
def test_traced_method_resolves(dotted):
    # the tracer takes the method from its class's own namespace
    layer, cls_name, meth = dotted.split(".")
    assert meth in vars(_resolve(f"{layer}.{cls_name}"))


@pytest.mark.parametrize("dotted", sorted(TRACING.HOOKS))
def test_hooked_function_resolves(dotted):
    assert callable(_resolve(dotted))


def _hook_arguments() -> dict[str, set[str]]:
    """Per ``HOOKS`` entry of tracing.py, the argument names its hook reads
    as ``a["..."]`` (``a`` is the tracer's name for a call's bound
    arguments), in the entry itself and in the module functions it names."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    hooks = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"])

    def read(node, seen: set) -> set[str]:
        keys = set()
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                    and sub.value.id == "a" and isinstance(sub.slice, ast.Constant)):
                keys.add(sub.slice.value)
            elif isinstance(sub, ast.Name) and sub.id in functions and sub.id not in seen:
                seen.add(sub.id)
                keys |= read(functions[sub.id], seen)
        return keys

    return {key.value: read(value, set()) for key, value in zip(hooks.keys, hooks.values)}


HOOK_ARGUMENTS = _hook_arguments()


def test_the_hook_scan_finds_the_arguments():
    assert set(HOOK_ARGUMENTS) == set(TRACING.HOOKS)
    for dotted, name in [("data.save_dataset", "path"), ("data.load_dataset", "path"),
                         ("retrieval.evaluate", "queries"),
                         ("bounds.multilabel_bound_check", "trials"),
                         ("cli.Run.finish", "self")]:
        assert name in HOOK_ARGUMENTS[dotted], dotted


@pytest.mark.parametrize("dotted", sorted(HOOK_ARGUMENTS))
def test_hook_arguments_are_parameters(dotted):
    # the tracer binds a hooked call's arguments by the function's own
    # signature, so a renamed parameter would fail only the traced runs
    parameters = inspect.signature(_resolve(dotted)).parameters
    assert HOOK_ARGUMENTS[dotted] <= set(parameters), dotted


# The spans layer_metrics reads to split a training run: model.steps counts
# sgd_update, model.forward_s times forward_batch, and the mean-teacher
# metrics time the rest.
TRAINING_SPANS = ("model.sgd_update", "model.forward_batch",
                  "meanteacher.consistency_losses", "meanteacher.ema_update",
                  "meanteacher.perturb", "meanteacher.train_mt_scdh")


@pytest.mark.parametrize("dotted", TRAINING_SPANS)
def test_training_span_is_a_public_function(dotted):
    # the tracer wraps a module's own public functions, nothing else
    assert f'"{dotted}"' in inspect.getsource(TRACING.layer_metrics)
    layer, name = dotted.split(".")
    fn = _resolve(dotted)
    assert inspect.isfunction(fn) and not name.startswith("_")
    assert fn.__module__ == f"scdh.{layer}"


def test_a_traced_training_run_records_every_step_span():
    rng = np.random.default_rng(0)
    n, C = 40, 3
    y = np.arange(n) % C
    labels = np.zeros((n, C), dtype=bool)
    labels[np.arange(10), y[:10]] = True           # 10 labeled rows, 30 unlabeled
    ds = data.Dataset(np.arange(n), rng.normal(size=(n, 4)) + y[:, None], labels)
    hp = model.Hyperparams(epochs=2, batch_size=16, lr=1e-3)

    def traced(dataset, **kwargs):
        tracer = TRACING.Tracer()
        tracer.install({name: importlib.import_module(f"scdh.{name}")
                        for name in TRACING.LAYERS},
                       also=(importlib.import_module("scdh"),))
        try:
            meanteacher.train_mt_scdh(dataset, hp, r=6, hidden=(8,), **kwargs)
        finally:
            tracer.uninstall()
        return TRACING.layer_metrics(tracer, [], n * hp.epochs)

    m = traced(ds, w=1.0, ema_decay=0.9, noise_std=0.1)
    steps = hp.epochs * 3                           # 40 rows in batches of 16
    assert m["model.steps"] == steps
    assert m["meanteacher.consistency_calls"] == steps - 1   # its weight is 0 at step 0
    assert m["meanteacher.ema_calls"] == steps
    for key in ("model.forward_s", "model.sgd_s", "meanteacher.train_s",
                "meanteacher.consistency_s", "meanteacher.ema_s",
                "meanteacher.perturb_s"):
        assert m[key] > 0.0, key

    # supervised, every row labeled: the same step calls no teacher-side code
    labels[np.arange(n), y] = True
    m = traced(data.Dataset(ds.ids, ds.features, labels))
    assert m["model.steps"] == steps
    assert m["meanteacher.consistency_calls"] == 0
    assert m["meanteacher.ema_calls"] == 0
    assert m["meanteacher.perturb_s"] == 0.0
    for key in ("model.forward_s", "model.sgd_s", "meanteacher.train_s"):
        assert m[key] > 0.0, key
