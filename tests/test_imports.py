"""Every name a specreg module imports is used in that module, and a cold
import loads none of the slow standard modules the package left behind.

A deletion tends to leave its imports behind; this check finds them with
the standard library's ast module.  The package's __init__.py re-exports
what it imports, and `from __future__` imports are directives, so both are
exempt.  The import-set check runs a fresh interpreter without `site`, so
only specreg's own imports count, and states no timing.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "specreg"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads."""
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
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport math, os.path\nfrom x import y as z\nmath.pi\n"
    assert unused_imports(source) == ["os (line 2)", "z (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("module, absent", [
    ("specreg.cli", ("dataclasses", "inspect")),
    ("specreg", ("dataclasses", "inspect", "json")),
])
def test_cold_import_leaves_out(module, absent):
    code = f"import sys, {module}; print(sorted(set({absent!r}) & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
