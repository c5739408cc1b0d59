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
from conftest import PASSER, RECEIVER
from interdep import analyze_trace, build_report
from interdep.trace_io import CSV_COLUMNS, write_report, write_trace

SRC = pathlib.Path(interdep.__file__).resolve().parents[1]
SUBMODULES = (
    "cli",
    "errors",
    "gridworld",
    "grounding",
    "interdependence",
    "metrics",
    "policies",
    "records",
    "trace_io",
)
SUBMODULES_LOADED = "sorted(m for m in sys.modules if m.startswith('interdep.'))"
LOADED = f"print(json.dumps({SUBMODULES_LOADED}))"
ALL_LOADED = "print(json.dumps(sorted(sys.modules)))"


def run_fresh(code: str):
    """Run `code` after `import interdep` in a new interpreter, with no
    INTERDEP_LOG set; the JSON it prints last is returned. `BEFORE` holds
    the names of the modules loaded before `import interdep`."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    prelude = "import json, sys\nBEFORE = set(sys.modules)\nimport interdep\n"
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("INTERDEP_LOG", None)
    result = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(code)],
        env=env,
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
        "interdep.records",
    ]


def test_import_loads_no_resource_machinery():
    # `bundled_layout_text` imports `importlib.resources` when it is called.
    # Without `site`, nothing else has loaded it either.
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import sys, interdep; print('importlib.resources' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False"]


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


def run_command(argv: list, printed: str = ALL_LOADED) -> list:
    """Every module loaded after `interdep.cli.main(argv)` in a new interpreter,
    or what `printed` prints there."""
    return run_fresh(
        f"""
        import interdep.cli
        assert interdep.cli.main({argv!r}) == 0
        {printed}
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


def test_simulate_command_loads_no_report_builder_or_pool(tmp_path):
    layout = tmp_path / "kitchen.layout"
    layout.write_text(interdep.bundled_layout_text(), encoding="utf-8")
    argv = ["simulate", "--layout", str(layout), "--p1", "solo", "--p2", "idle"]
    loaded = run_command([*argv, "--seeds", "1..2", "--jobs", "2", "--out", str(tmp_path)])
    assert "interdep.trace_io" in loaded
    for name in ("interdep.metrics", "statistics", "concurrent.futures"):
        assert name not in loaded


def every_command(tmp_path, trace) -> list:
    """An argv for each command, run in this order: `simulate` a passing
    team, `analyze` `trace` in every format, `report` its report, `schema`."""
    layout = tmp_path / "kitchen.layout"
    layout.write_text(interdep.bundled_layout_text(), encoding="utf-8")
    path = tmp_path / "kitchen_1.trace.jsonl"
    with path.open("w", encoding="utf-8") as f:
        write_trace(trace, f)
    return [
        ["simulate", "--layout", str(layout), "--p1", PASSER, "--p2", RECEIVER,
         "--seeds", "1..2", "--jobs", "2", "--out", str(tmp_path / "traces")],
        ["analyze", str(path), "--out", str(tmp_path), "--format", "all"],
        ["report", str(tmp_path / "kitchen_1.report.json"), "--out", str(tmp_path / "sum")],
        ["schema", "--out", str(tmp_path / "schema.json")],
    ]


def test_no_command_loads_logging_unless_asked(tmp_path, passer_receiver_trace):
    for argv in every_command(tmp_path, passer_receiver_trace):
        assert "logging" not in run_command(argv), argv[0]


# Which of `dataclasses` and `inspect` were loaded after `BEFORE`.
LOADED_RECORD_MACHINERY = (
    "print(json.dumps(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - BEFORE))))"
)


def test_no_command_and_not_the_setup_path_loads_dataclasses_or_inspect(
    tmp_path, passer_receiver_trace
):
    # Records are built without `dataclasses`, which imports `inspect`.
    for argv in every_command(tmp_path, passer_receiver_trace):
        assert run_command(argv, LOADED_RECORD_MACHINERY) == [], argv[0]
    setup = f"""
        interdep.load_layout(interdep.bundled_layout_text())
        interdep.build_interaction_schema()
        {LOADED_RECORD_MACHINERY}
        """
    assert run_fresh(setup) == []


# The report names perfbench/tracer.py wraps in `trace_io`, by its own
# `__dict__`, so each must be bound there when the module is imported.
TRACED_REPORT_NAMES = (
    "write_report",
    "read_report",
    "report_to_csv",
    "report_to_markdown",
    "summary_to_markdown",
)


def test_report_names_resolve_from_trace_io_without_loading_metrics():
    bound, metrics_loaded, columns = run_fresh(
        f"""
        import interdep.trace_io as trace_io
        bound = [callable(vars(trace_io).get(name)) for name in {TRACED_REPORT_NAMES!r}]
        metrics_loaded = "interdep.metrics" in sys.modules
        from interdep.trace_io import CSV_COLUMNS
        print(json.dumps([bound, metrics_loaded, list(CSV_COLUMNS)]))
        """
    )
    assert bound == [True] * len(TRACED_REPORT_NAMES)
    assert not metrics_loaded
    assert columns == list(CSV_COLUMNS)


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
