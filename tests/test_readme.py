"""README's "Library use" example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "AUC", "parsimony", "FC control/case/event/total", "IRC"]
