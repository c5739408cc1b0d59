"""The README's claims: its example runs as shown, its sweep table is what
the sweep script prints, and every export resolves."""

import importlib.util
import pathlib
import re

import interdep
from interdep.policies import _POLICY_CLASSES

ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines[:3]:
        event = r"cook [12] [a-z-]+ at t=\d+"
        assert re.fullmatch(rf"[a-z-]+\([\d,]+\): {event} -> {event}", line), line
    assert re.fullmatch(r"\d+\.\d\d% interdependent", lines[3])


def test_every_export_resolves_once_in_sorted_order():
    names = interdep.__all__
    assert [n for n in names if not hasattr(interdep, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def table_rows(lines, header: str) -> dict:
    """{p: cells} of the markdown table whose header row starts `header`."""
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = {}
    for line in lines[start + 2 :]:
        if not line.startswith("|"):
            break
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    return rows


def test_readme_sweep_table_is_what_the_script_prints(tmp_path, capsys):
    path = ROOT / "scripts" / "run_cooperation_sweep.py"
    spec = importlib.util.spec_from_file_location("run_cooperation_sweep", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--probs", "0", "0.5", "1", "--out", str(tmp_path)]) == 0
    printed = table_rows(capsys.readouterr().out.splitlines(), "| p | %Interdependent |")
    section = README.read_text(encoding="utf-8").split("\n## Scripted policies\n")[1]
    shown = table_rows(section.splitlines(), "| p | %Interdependent | soups |")
    assert list(shown) == list(printed) == ["0.0", "0.5", "1.0"]
    for p, (percent, soups) in shown.items():
        percent_printed, _, soups_printed, _ = printed[p]
        assert (percent, soups) == (percent_printed, soups_printed), p


def test_readme_lists_the_parameters_each_kind_reads():
    # The README's sentence is the one hand-written copy of each class's
    # `params`.
    section = README.read_text(encoding="utf-8").split("\n## Scripted policies\n")[1]
    listed = re.search(r"it reads \((.*?)\)", " ".join(section.split())).group(1)
    shown = {}
    for entry in listed.split("; "):
        kinds, _, names = entry.partition(": ")
        for kind in kinds.split(" and "):
            shown[kind] = tuple(re.findall(r"`(\w+)`", names))
    assert shown == {kind: cls.params for kind, cls in _POLICY_CLASSES.items()}
