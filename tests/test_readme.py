"""The README's library quick tour runs, and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_quick_tour_prints_its_commented_outputs():
    code = _quick_tour()
    # a print whose comment starts with "[" states the exact line it prints
    comments = [line.partition("#")[2].strip() for line in code.splitlines()
                if line.startswith("print(")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == len(comments)
    expected = {i: c for i, c in enumerate(comments) if c.startswith("[")}
    assert sorted(expected.values()) == ["[('A', 'B')]", "[A][C][F][B|A][D|A:C][E|B:F]"]
    assert {i: lines[i] for i in expected} == expected
