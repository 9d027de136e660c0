"""Every module reads every name it imports (an AST scan, like flake8 F401).

An import line may opt out with `# noqa: F401`, as the names that the
benchmark's tracer wraps by module attribute do.  Package `__init__` files
import names only to re-export them, so they are not scanned.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# The acceptance criteria file may not be edited, so its one unused import
# (`Fraction`) stays until a change that is allowed to touch that file.
SKIP = {"tests/test_acceptance.py"}
MODULES = sorted(
    path for pattern in ("src/probelearn/*.py", "tests/*.py", "demos/*.py")
    for path in ROOT.glob(pattern)
    if path.name != "__init__.py"
    and path.relative_to(ROOT).as_posix() not in SKIP)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        last = lines[node.end_lineno - 1]
        if "# noqa: F401" in last:
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                     and node.module == "__future__"):
                continue
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_modules_found():
    names = {path.relative_to(ROOT).as_posix() for path in MODULES}
    assert {"src/probelearn/cli.py", "tests/test_imports.py",
            "demos/tree_lifelong.py"} <= names
    assert not names & SKIP


@pytest.mark.parametrize("path", MODULES,
                         ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_and_honours_noqa():
    source = ("import os\nimport numpy as np\nfrom x import (a,\n    b)\n"
              "from y import c  # noqa: F401\nprint(np, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]
