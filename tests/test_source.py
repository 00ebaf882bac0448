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


def unread_names(sources: dict) -> list:
    """(module, line, name) for each module-level def, class or assignment,
    dunders aside, that none of `sources` (module name -> source text) reads:
    as a name, as an attribute or in a `from ... import`. An attribute read
    under the same name counts."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for node in (n for tree in trees.values() for n in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = [(node.lineno, node.name)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = [(n.lineno, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            unread += [(module, line, name) for line, name in bound
                       if not name.startswith("__") and name not in read]
    return unread


def unread_private_names(sources: dict) -> list:
    """The `unread_names` with one leading underscore."""
    return [entry for entry in unread_names(sources) if entry[2].startswith("_")]


def unread_public_names(sources: dict) -> list:
    """The `unread_names` without a leading underscore: API that only code
    outside `sources` (tests, scripts) could use."""
    return [entry for entry in unread_names(sources) if not entry[2].startswith("_")]


def test_unread_private_names_finds_a_name_nothing_reads():
    sources = {
        "a": ("__all__ = ['f']\n_USED, _SPARE = 1, 2\n_TABLE: dict = {}\n\n\n"
              "def _helper():\n    return _USED\n\n\nclass _Base:\n    pass\n\n\n"
              "def _imported():\n    pass\n\n\ndef _by_attribute():\n    pass\n"),
        "b": "from .a import _imported\nfrom . import a\n\na._by_attribute()\n",
    }
    assert unread_private_names(sources) == [
        ("a", 2, "_SPARE"), ("a", 3, "_TABLE"), ("a", 6, "_helper"), ("a", 10, "_Base")]


def test_src_has_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert unread_private_names(sources) == []


def test_unread_public_names_finds_api_nothing_reads():
    sources = {
        "a": ("__all__ = ['f']\nLIMIT, SPARE = 1, 2\n\n\ndef f():\n    return LIMIT\n\n\n"
              "def only_tested():\n    pass\n\n\nclass Shape:\n    pass\n\n\n"
              "def _private():\n    pass\n"),
        "b": "from .a import f\n\nf()\n",
    }
    assert unread_public_names(sources) == [
        ("a", 2, "SPARE"), ("a", 9, "only_tested"), ("a", 13, "Shape")]


# README's definition of pose change, and the tests' reference for
# `integrated_pose_distance`, which computes it over a whole clip
KEPT_PUBLIC_NAMES = {("kinematics.py", "pose_change")}


def test_src_has_no_public_names_only_tests_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    assert [entry for entry in unread_public_names(sources)
            if (entry[0], entry[2]) not in KEPT_PUBLIC_NAMES] == []
