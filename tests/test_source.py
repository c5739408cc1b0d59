"""Static checks on the project's source, read with `ast` and never imported.

The one import is the package itself, for its `__all__` and to resolve
what `perfbench/` reads of it.
"""

import ast
import pathlib

import interdep
import interdep.cli  # perfbench/bench.py imports it, so `ip.cli` resolves there

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


def called_names(source: str) -> list:
    """The name of each call whose callee is a plain name or an attribute."""
    return [
        n.func.id if isinstance(n.func, ast.Name) else n.func.attr
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute))
    ]


def test_called_names_are_found():
    source = "EnvEvent(0)\ngridworld.EnvEvent(1)\nf(EnvEvent)\nx = EnvEvent\n"
    assert called_names(source) == ["EnvEvent", "EnvEvent", "f"]


def test_only_the_simulator_builds_an_event():
    # The grounding key stays with the simulator: `step` fills every field
    # of an event, and grounding has no state to read one from.
    paths = sorted((ROOT / "src" / "interdep").glob("*.py"))
    builders = [
        path.name
        for path in paths
        if "EnvEvent" in called_names(path.read_text(encoding="utf-8"))
    ]
    assert builders == ["gridworld.py"]
    source = (ROOT / "src" / "interdep" / "grounding.py").read_text(encoding="utf-8")
    imported = {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "WorldState" not in imported | read_names(source)


# The names perfbench/ binds to the package, with the path each stands for:
# `ip` (also read as `run.ip` and `bench.ip`) and `interdep` are the package
# and `gw` is `ip.gridworld` (perfbench/bench.py, `play_external`).
PACKAGE_ROOTS = {"ip": (), "interdep": (), "gw": ("gridworld",)}


def package_chains(source: str) -> set:
    """Each attribute chain through a package root, from that root on.

    `run.ip.cli.main` gives `ip.cli.main`, and `from interdep.cli import
    main` gives `interdep.cli.main`. A chain is taken whole, so
    `gw.PrimitiveAction.STAY` is one chain.
    """
    tree = ast.parse(source)
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    chains = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            parts, base = [], node
            while isinstance(base, ast.Attribute):
                parts.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name):
                parts.insert(0, base.id)
                roots = [i for i, part in enumerate(parts[:-1]) if part in PACKAGE_ROOTS]
                if roots:
                    chains.add(".".join(parts[roots[0] :]))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("interdep"):
            chains |= {f"{node.module}.{alias.name}" for alias in node.names}
    return chains


def test_package_chains_are_found():
    source = (
        "from interdep.cli import main\n"
        "gw = ip.gridworld\n"
        "x = gw.PrimitiveAction.STAY\n"
        "run.ip.analyze_trace(trace).pairs\n"
        "other.attr\n"
    )
    assert package_chains(source) == {
        "interdep.cli.main",
        "ip.gridworld",
        "gw.PrimitiveAction.STAY",
        "ip.analyze_trace",
    }


# What perfbench/ reads off the objects the package returns, by the class
# that must keep it: perfbench/bench.py (`first_check`, `play_external`,
# `report_bytes`, `run_one`) and perfbench/tracer.py (`_observe_ledger`,
# `_observe_read`).
PERFBENCH_OBJECT_READS = {
    "accept_fluents": "interdependence.InteractionSchema",
    "classifications": "interdependence.InterdependencyLedger",
    "unaccepted_triggers": "interdependence.InterdependencyLedger",
    "pairs": "interdependence.InterdependencyLedger",
    "is_trigger": "interdependence.ActionClassification",
    "agent": "gridworld.EnvEvent",
    "steps": "trace_io.ReplayableTrace",
    "label": "metrics.TeamReport",
    "to_dict": "metrics.TeamReport",
}


def resolves(chain: str) -> bool:
    """Whether a chain from `package_chains` names something in the package."""
    root, *attrs = chain.split(".")
    owner = interdep
    try:
        for attr in (*PACKAGE_ROOTS[root], *attrs):
            owner = getattr(owner, attr)
    except AttributeError:
        return False
    return True


def test_what_perfbench_reads_resolves_in_the_package():
    # perfbench/ is the benchmark's harness and is not edited with the
    # package, so a rename that drops one of these fails here, in tier-1,
    # before it fails the benchmark's gate.
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    assert paths
    sources = [path.read_text(encoding="utf-8") for path in paths]
    chains = set().union(*map(package_chains, sources))
    assert chains
    assert [chain for chain in sorted(chains) if not resolves(chain)] == []
    read = set().union(*map(read_names, sources))
    for attr, where in PERFBENCH_OBJECT_READS.items():
        assert attr in read, f"perfbench/ no longer reads {attr}; drop it from the table"
        module, name = where.split(".")
        cls = getattr(getattr(interdep, module), name)
        assert hasattr(cls, attr) or attr in cls.__dataclass_fields__, (attr, where)
