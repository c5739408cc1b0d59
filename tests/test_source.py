"""Static checks on the project's source, read with `ast` and never imported."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ("src/interdep", "tests", "scripts")


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
