"""Every name a module under ``src/xpop/`` imports is used in that module,
and only ``eventlog`` imports ``csv``.

Static checks with ``ast`` (no linter is a dependency): a name counts as
used when it appears as an identifier, as the base of an attribute access,
or, in a package ``__init__``, in ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xpop"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_checker_finds_an_unused_import():
    source = "from a import used, unused\nimport b.c\nimport d as e\nused()\nb.c.f()\n"
    assert unused_imports(source) == ["line 1: unused", "line 3: e"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """The top-level modules ``source`` imports."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            modules.add(node.module.split(".")[0])
    return modules


def test_only_eventlog_imports_csv():
    # every CSV file is read and written by eventlog's codec, so the csv
    # dialect is decided in one module
    assert imported_modules("import csv.x\nfrom io import y\n") == {"csv", "io"}
    importers = [p.name for p in sorted(SRC.glob("*.py"))
                 if "csv" in imported_modules(p.read_text(encoding="utf-8"))]
    assert importers == ["eventlog.py"]
