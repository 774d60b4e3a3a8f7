"""Every top-level import in the package and its tests is used.

No linter ships with the toolkit, so this AST scan is the check: a deletion
that leaves an import behind fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "godbersen_kit").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py"))


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


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\nfrom a.b import c, d as e\n"
                          "from __future__ import annotations\nsystem.exit(c)\n") == [
        "os", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: "%s/%s" % (p.parent.name, p.name))
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []
