"""Static checks on the project's source, read with `ast` and never imported.

The one import is the package itself, for its `__all__`.
"""

import ast
import pathlib

import interdep

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ("src/interdep", "tests", "scripts")
# Where a public name must be read to earn its export; tests do not count.
READERS = ("src/interdep", "scripts", "perfbench")


def unused_imports(source: str) -> list:
    """(line, name) of each name an import binds and no expression reads.

    `from __future__` imports bind nothing. A name read only in a string
    annotation counts as unused, since `from __future__ import annotations`
    makes the quotes redundant.
    """
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING, Optional\n"
        "if TYPE_CHECKING:\n"
        "    from .x import Thing\n"
        "def f(a: 'Thing') -> Optional[int]:\n"
        "    return TYPE_CHECKING\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "Thing")]


def test_no_module_imports_a_name_it_never_uses():
    paths = sorted(path for folder in SOURCES for path in (ROOT / folder).glob("*.py"))
    assert {path.parent.name for path in paths} == {"interdep", "tests", "scripts"}
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def read_names(source: str) -> set:
    """Every name an expression loads or an attribute access names.

    A definition, an import and a string holding the name, such as the
    package's export table, do not read it.
    """
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
    return read


def unread_private_names(source: str) -> list:
    """(line, name) of each private module-level name or method never read.

    Private means one leading underscore, not a dunder. A name counts as
    read where an expression loads it or an attribute access names it, so
    a use from another module does not count.
    """
    tree = ast.parse(source)
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [
                (t.lineno, t.id)
                for target in targets
                for t in ast.walk(target)
                if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
            ]
        if isinstance(node, ast.ClassDef):
            defined += [
                (item.lineno, item.name)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            ]
    read = read_names(source)
    return [
        (line, name)
        for line, name in defined
        if name.startswith("_") and not name.startswith("__") and name not in read
    ]


def test_unread_private_names_are_found():
    source = (
        "_USED = 1\n"
        "_UNUSED, PUBLIC = 2, 3\n"
        "def _helper():\n"
        "    return _USED\n"
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self._go()\n"
        "    def _go(self):\n"
        "        pass\n"
        "    def _stale(self):\n"
        "        pass\n"
    )
    assert unread_private_names(source) == [(2, "_UNUSED"), (3, "_helper"), (10, "_stale")]


def test_no_private_name_in_the_package_goes_unread():
    paths = sorted((ROOT / "src" / "interdep").glob("*.py"))
    assert paths
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in paths
        for line, name in unread_private_names(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_read_names_skip_definitions_imports_and_strings():
    source = (
        "from .x import imported\n"
        "EXPORTS = ('listed',)\n"
        "def defined():\n"
        "    return called() + obj.attr\n"
    )
    assert read_names(source) == {"called", "obj", "attr"}


def test_every_exported_name_has_a_reader():
    paths = sorted(path for folder in READERS for path in (ROOT / folder).glob("*.py"))
    assert {path.parent.name for path in paths} == {"interdep", "scripts", "perfbench"}
    read = set().union(*(read_names(path.read_text(encoding="utf-8")) for path in paths))
    assert [name for name in interdep.__all__ if name not in read] == []
