"""Every top-level import in the package and its tests is used, every
private top-level name in the package is read somewhere in the package,
every public UPPER_CASE constant of the package is read somewhere in the
package, its tests or the benchmark, every field of a package dataclass
is read as an attribute somewhere in the package or its tests, the
exact polytope layers read no float-mode name, and every public top-level
function or class of the package is reached by the package or the
benchmark, apart from the documented library entries ``LIBRARY_ENTRIES``.

No linter ships with the toolkit, so this AST scan is the check: a deletion
that leaves an import or a private helper behind fails here, and so does a
public helper that only tests call; it belongs in ``tests/oracles.py``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "godbersen_kit").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
# Modules that compute on exact bodies only, and the float-mode names they
# must not read.
EXACT_LAYERS = ("polytopes", "mixed", "rs_bodies", "planar", "linalg", "simplexes")
FLOAT_MODE_NAMES = ("FLOAT", "FLOAT_EPS")
# Public definitions that the package and the benchmark never call, kept as
# the README's documented library entries.
LIBRARY_ENTRIES = ["centered_simplex", "cross_polytope", "cube", "gauge", "support"]


def unused_imports(source):
    """Names bound by a top-level import (``__future__`` aside) that no
    name in the module reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in used]


def _assigned(node):
    """Names bound by a top-level statement if it is an assignment."""
    if not isinstance(node, (ast.Assign, ast.AnnAssign)):
        return []
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _reads(tree):
    """Names a module reads, as a name or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def unused_private_names(sources):
    """Top-level ``_name``s (a def, a class or an assignment target, dunders
    aside) defined in any of the sources that none of them reads, as a
    name or as an attribute."""
    defined = []
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(node.name)
            defined += _assigned(node)
        read |= _reads(tree)
    return [name for name in defined
            if name.startswith("_") and not name.startswith("__") and name not in read]


def unread_public_constants(sources, readers):
    """Top-level UPPER_CASE assignment targets in ``sources`` that no module
    in ``readers`` reads, as a name or as an attribute."""
    defined = [name for source in sources for node in ast.parse(source).body
               for name in _assigned(node) if name.isupper() and not name.startswith("_")]
    read = set().union(*(_reads(ast.parse(source)) for source in readers))
    return [name for name in defined if name not in read]


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return (isinstance(decorator, ast.Name) and decorator.id == "dataclass"
            or isinstance(decorator, ast.Attribute) and decorator.attr == "dataclass")


def unread_dataclass_fields(sources, readers):
    """``Class.field`` for each annotated field of a ``@dataclass`` class in
    ``sources`` that no module in ``readers`` reads as an attribute."""
    fields = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += ["%s.%s" % (node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)]
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [field for field in fields if field.split(".")[1] not in read]


def unreached_public_definitions(sources, bench):
    """Sorted public top-level ``def``/``class`` names in ``sources`` that no
    top-level statement of ``sources`` other than their own definition reads,
    as a name or as an attribute, and that no module in ``bench`` reads; in
    ``bench`` a string constant counts as a read, since the benchmark's
    tracer looks functions up with ``getattr``."""
    statements = [node for source in sources for node in ast.parse(source).body]
    read = set()
    for source in bench:
        tree = ast.parse(source)
        read |= _reads(tree) | {node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    reads = [_reads(node) for node in statements]
    found = []
    for i, node in enumerate(statements):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in read
                and not any(node.name in r for j, r in enumerate(reads) if j != i)):
            found.append(node.name)
    return sorted(found)


def float_mode_reads(source):
    """Sorted reads of ``FLOAT`` or ``FLOAT_EPS`` (imported, as a name or as
    an attribute) and of any ``.eps`` attribute; attributes are dotted."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in FLOAT_MODE_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in FLOAT_MODE_NAMES:
            found.append(node.name)
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MODE_NAMES + ("eps",):
            found.append("." + node.attr)
    return sorted(found)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c, d as e\n"
                          "from __future__ import annotations\nsystem.exit(c)\n") == [
        "os", "e"]


def test_scan_finds_an_unused_private_name():
    assert unused_private_names([
        "_A = 1\n_B: int = 2\n_C, _D = 3, 4\n__all__ = []\nPUBLIC = _D\n"
        "def _used():\n    return _A\n"
        "class _Unused:\n    pass\n"
        "def _helper():\n    pass\n",
        "import m\nm._helper()\n_used()\n",
    ]) == ["_B", "_C", "_Unused"]


def test_scan_finds_an_unread_public_constant():
    source = ("OPTIMAL = 'optimal'\nINFEASIBLE = 'infeasible'\nLIMIT: int = 3\n"
              "A, B = 1, 2\n_PRIVATE = 4\nlower = 5\n")
    reader = "import lp\nstatus = lp.OPTIMAL\nprint(B)\n"
    assert unread_public_constants([source], [source, reader]) == ["INFEASIBLE", "LIMIT", "A"]


def test_scan_finds_an_unread_dataclass_field():
    source = ("import dataclasses\nfrom dataclasses import dataclass\n"
              "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
              "@dataclasses.dataclass\nclass B:\n    z: int\n"
              "class Plain:\n    w: int\n")
    reader = "def f(a, b, p):\n    a.y = p.w\n    return b.z\n"
    assert unread_dataclass_fields([source], [source, reader]) == ["A.x", "A.y"]


def test_scan_finds_float_mode_reads():
    source = ("from .scalars import EXACT, FLOAT\nimport scalars\nFLOATING = 1\n"
              "def f(P, x, eps=0):\n"
              "    if x == FLOAT or P.epsilon:\n        return P.eps\n"
              "    return scalars.FLOAT_EPS + eps + FLOATING\n")
    assert float_mode_reads(source) == [".FLOAT_EPS", ".eps", "FLOAT", "FLOAT"]


def test_scan_finds_an_unreached_public_definition():
    package = ("def entry():\n    return entry()\n"
               "def used():\n    pass\n"
               "class Traced:\n    pass\n"
               "def _private():\n    pass\n"
               "class Unused:\n    def used(self):\n        pass\n",
               "from a import used\nimport a\nVALUE = a.used()\n"
               "def attribute_only():\n    pass\n")
    bench = ("import a\nfn = getattr(a, 'Traced')\nb.attribute_only()\n"
             "print('entry point')\n",)
    assert unreached_public_definitions(package, bench) == ["Unused", "entry"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_no_unused_private_names_in_the_package():
    assert unused_private_names([path.read_text() for path in SRC]) == []


def test_no_unread_public_constants_in_the_package():
    readers = [path.read_text() for path in MODULES + BENCH]
    assert unread_public_constants([path.read_text() for path in SRC], readers) == []


def test_no_unread_dataclass_fields_in_the_package():
    readers = [path.read_text() for path in MODULES]
    assert unread_dataclass_fields([path.read_text() for path in SRC], readers) == []


def test_exact_layers_read_no_float_mode():
    reads = {name: float_mode_reads((ROOT / "src" / "godbersen_kit" / (name + ".py")).read_text())
             for name in EXACT_LAYERS}
    assert reads == {name: [] for name in EXACT_LAYERS}


def test_every_public_definition_is_reached_or_documented():
    assert unreached_public_definitions([path.read_text() for path in SRC],
                                        [path.read_text() for path in BENCH]) == LIBRARY_ENTRIES
