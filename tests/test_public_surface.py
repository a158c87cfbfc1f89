"""The package's public surface is what the package and the benchmark use.

The modules are the library API: ``scdh/__init__.py`` binds ``__version__``
and nothing else, and each public function, class, method and module-level
constant of ``src/scdh`` must be named by other code in ``src/scdh`` or
``perfbench/``.  A name only the tests call belongs in the tests.  The scan
matches names, not bindings: a name counts as used wherever other code
spells it, outside strings, comments and import statements.
"""

import ast
import io
import tokenize
from pathlib import Path

import scdh

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "scdh").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions(path: Path) -> dict[str, tuple[int, int]]:
    """``module.name`` or ``module.Class.method`` of each public module-level
    function, class and constant and each public method, with the
    (line, column) of the token that names it."""
    module = path.stem
    found = {}

    def add(dotted: str, node, keyword: str = ""):
        if not dotted.rsplit(".", 1)[-1].startswith("_"):
            # a def's or class's name follows its keyword and one space
            col = node.col_offset + (len(keyword) + 1 if keyword else 0)
            found[dotted] = (node.lineno, col)

    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            add(f"{module}.{node.name}", node, "def")
        elif isinstance(node, ast.ClassDef):
            add(f"{module}.{node.name}", node, "class")
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    add(f"{module}.{node.name}.{item.name}", item, "def")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name):
                    add(f"{module}.{target.id}", target)
    return found


def _names_used(path: Path, skip: set) -> set[str]:
    """Every NAME token of the file's code, outside import statements and
    the positions in ``skip``."""
    used, line = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if tok.type == tokenize.NAME:
            line.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if line and line[0].string not in ("import", "from"):
                used |= {t.string for t in line if t.start not in skip}
            line = []
    return used


def unused_public_names(sources) -> list[str]:
    """The public names of ``src/scdh`` that no code in ``sources`` names
    outside their own definitions."""
    definitions = {path: _public_definitions(path) for path in PACKAGE}
    used = set()
    for path in sources:
        used |= _names_used(path, set(definitions.get(path, {}).values()))
    return sorted(dotted for found in definitions.values() for dotted in found
                  if dotted.rsplit(".", 1)[-1] not in used)


def test_the_scan_finds_the_definitions():
    found = {dotted for path in PACKAGE for dotted in _public_definitions(path)}
    assert {"model.EmbeddingModel.blocks", "model.EMBED_BLOCK_ROWS", "losses.margin_loss",
            "retrieval.CodeIndex", "cli.random_bound_instance"} <= found
    assert not any(name.rsplit(".", 1)[-1].startswith("_") for name in found)


def test_the_scan_sees_names_only_the_benchmark_uses():
    # no command searches or makes a single unary check; perfbench's
    # closed-loop requests do
    unused = set(unused_public_names(PACKAGE))
    assert {"bounds.unary_upper_bound", "retrieval.search"} <= unused


def test_every_public_name_is_used_outside_the_tests():
    assert unused_public_names(PACKAGE + PERFBENCH) == []


def test_the_package_root_binds_only_its_version():
    tree = ast.parse((ROOT / "src" / "scdh" / "__init__.py").read_text())
    assert ast.get_docstring(tree)
    assert [ast.unparse(node) for node in tree.body[1:]] == [
        f"__version__ = {scdh.__version__!r}"]
