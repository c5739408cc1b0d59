"""The README's library example runs and prints what it shows."""

import pathlib
import re

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
