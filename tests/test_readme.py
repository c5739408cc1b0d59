"""The public API: the README example runs as shown, and every export resolves."""

import pathlib
import re

import interdep

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_use_example_runs(capsys):
    exec(compile(library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    for line in lines[:3]:
        assert re.match(r"[a-z-]+\([\d,]+\) \{.*\} -> \{.*\}$", line), line
    assert re.fullmatch(r"\d+\.\d\d% interdependent", lines[3])


def test_every_export_resolves_once_in_sorted_order():
    names = interdep.__all__
    assert [n for n in names if not hasattr(interdep, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
