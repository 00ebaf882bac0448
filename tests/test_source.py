"""Checks on the package source itself, made with `ast` (no lint tool is
required to run the tests)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "scenestream"
# __init__.py re-exports what it imports, so its imports are read by its users
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """(line, name) for each module-level import whose bound name the module
    never reads, skipping `from __future__` and lines marked `# noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((node.lineno, name))
    return unused


def test_unused_imports_finds_a_name_never_read():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from math import pi, tau  # noqa: F401\nfrom re import (\n    compile,\n"
              "    escape,\n)\n\nprint(os.path.sep, escape)\n")
    assert unused_imports(source) == [(2, "json"), (5, "compile")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_src_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
