"""Every package name the benchmark calls resolves in ``scdh``.

``perfbench/workloads.py`` calls attributes of the ``scdh`` modules it
imports, and ``perfbench/tracing.py`` wraps the methods of its ``METHODS``
table and hooks the functions its ``HOOKS`` table names.  A rename or move in
the package that leaves one of them behind fails here, not as a refused
benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("dotted", TRACED_METHODS)
def test_traced_method_resolves(dotted):
    # the tracer takes the method from its class's own namespace
    layer, cls_name, meth = dotted.split(".")
    assert meth in vars(_resolve(f"{layer}.{cls_name}"))


@pytest.mark.parametrize("dotted", sorted(TRACING.HOOKS))
def test_hooked_function_resolves(dotted):
    assert callable(_resolve(dotted))
