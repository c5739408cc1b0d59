"""The lazy package surface, each check in a fresh interpreter.

`import interdep` loads no submodule; a name's first use imports its home
module. The test session has imported everything already, so every check
starts its own interpreter on the package under test.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import interdep
from interdep import analyze_trace, build_report
from interdep.trace_io import write_report

SRC = pathlib.Path(interdep.__file__).resolve().parents[1]
SUBMODULES = (
    "cli",
    "errors",
    "gridworld",
    "grounding",
    "interdependence",
    "metrics",
    "policies",
    "trace_io",
)
SUBMODULES_LOADED = "sorted(m for m in sys.modules if m.startswith('interdep.'))"
LOADED = f"print(json.dumps({SUBMODULES_LOADED}))"
ALL_LOADED = "print(json.dumps(sorted(sys.modules)))"


def run_fresh(code: str):
    """Run `code` after `import interdep` in a new interpreter; the JSON it
    prints last is returned."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    prelude = "import json, sys\nimport interdep\n"
    result = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert run_fresh(f"assert interdep.__file__.startswith({str(SRC)!r})\n{LOADED}") == []


def test_setup_path_loads_only_the_world_and_the_analyzer():
    loaded = run_fresh(
        f"""
        interdep.load_layout(interdep.bundled_layout_text())
        interdep.build_interaction_schema()
        {LOADED}
        """
    )
    assert loaded == [
        "interdep.errors",
        "interdep.gridworld",
        "interdep.grounding",
        "interdep.interdependence",
        "interdep.layouts",
    ]


def test_report_path_loads_no_analyzer():
    loaded = run_fresh(
        f"""
        interdep.aggregate
        interdep.trace_io.read_report
        {LOADED}
        """
    )
    assert "interdep.grounding" not in loaded
    assert "interdep.interdependence" not in loaded


def run_command(argv: list) -> list:
    """Every module loaded after `interdep.cli.main(argv)` in a new interpreter."""
    return run_fresh(
        f"""
        import interdep.cli
        assert interdep.cli.main({argv!r}) == 0
        {ALL_LOADED}
        """
    )


def test_schema_command_loads_no_policies_trace_io_or_pool(tmp_path):
    loaded = run_command(["schema", "--out", str(tmp_path / "schema.json")])
    assert "interdep.interdependence" in loaded
    # Nor the report builder: `cli` spells out the denominator modes.
    for name in (
        "interdep.policies",
        "interdep.trace_io",
        "interdep.metrics",
        "concurrent.futures",
    ):
        assert name not in loaded


def test_report_command_loads_no_policies_or_analyzer(tmp_path, passer_receiver_trace):
    report = tmp_path / "a.report.json"
    with report.open("w", encoding="utf-8") as f:
        write_report(build_report(analyze_trace(passer_receiver_trace)), "json", f)
    loaded = run_command(["report", str(report), "--out", str(tmp_path)])
    assert "interdep.trace_io" in loaded
    for name in ("interdep.policies", "interdep.grounding", "interdep.interdependence"):
        assert name not in loaded


def test_every_export_is_the_object_in_its_home_module():
    wrong = run_fresh(
        """
        wrong = []
        for name in interdep.__all__:
            value = getattr(interdep, name)
            home = sys.modules[value.__module__]
            if not home.__name__.startswith("interdep") or getattr(home, name) is not value:
                wrong.append(name)
        print(json.dumps(wrong))
        """
    )
    assert wrong == []


def test_submodule_names_resolve():
    resolved = run_fresh(
        f"""
        print(json.dumps([
            getattr(interdep, name) is sys.modules["interdep." + name]
            for name in {SUBMODULES!r}
        ]))
        """
    )
    assert resolved == [True] * len(SUBMODULES)


def test_star_import_binds_all_of_all():
    missing = run_fresh(
        """
        namespace = {}
        exec("from interdep import *", namespace)
        print(json.dumps([
            n for n in interdep.__all__ if namespace.get(n) is not getattr(interdep, n)
        ]))
        """
    )
    assert missing == []


def test_dir_covers_all_before_any_use():
    names = run_fresh("print(json.dumps(dir(interdep)))")
    assert set(interdep.__all__) | set(SUBMODULES) <= set(names)


def test_unknown_name_raises_attribute_error_naming_it():
    outcome = run_fresh(
        f"""
        try:
            interdep.no_such_name
        except AttributeError as e:
            message = str(e)
        try:
            from interdep import no_such_name
        except ImportError as e:
            imported = str(e)
        print(json.dumps([message, imported, {SUBMODULES_LOADED}]))
        """
    )
    message, imported, loaded = outcome
    assert "no_such_name" in message
    assert "no_such_name" in imported
    assert loaded == []


def test_first_use_from_many_threads_resolves_every_name():
    wrong = run_fresh(
        """
        import threading

        results, barrier = [], threading.Barrier(8)

        def resolve():
            barrier.wait()
            results.append({n: getattr(interdep, n) for n in reversed(interdep.__all__)})

        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=resolve) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8
        print(json.dumps(sorted({
            n
            for r in results
            for n, v in r.items()
            if v is not getattr(sys.modules[v.__module__], n)
        })))
        """
    )
    assert wrong == []
