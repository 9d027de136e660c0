"""Every module reads every name it imports (an AST scan, like flake8 F401).

An import line may opt out with `# noqa: F401`.  In `src/` the opt-out
holds only for names that the benchmark's tracer wraps by module attribute
(`tracer.wrap(<module>, "<name>", ...)` in `perfbench/tracing.py`), so a
pin outlives its wrap by no more than one run of this test.  Package
`__init__` files import names only to re-export them, so they are not
scanned.
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


def wrapped_names(source: str) -> dict:
    """{module: names} of each `tracer.wrap(module, "name", ...)` call,
    with a loop variable of `for attr in ("a", "b")` read as its names."""
    found = {}

    def visit(node, loops):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            loops = dict(loops, **{node.target.id: [
                elt.value for elt in node.iter.elts
                if isinstance(elt, ast.Constant)]})
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "wrap"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer" and len(node.args) >= 2
                and isinstance(node.args[0], ast.Name)):
            name = node.args[1]
            names = ([name.value] if isinstance(name, ast.Constant)
                     else loops.get(getattr(name, "id", None), []))
            found.setdefault(node.args[0].id, set()).update(names)
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(ast.parse(source), {})
    return found


PINNED = wrapped_names((ROOT / "perfbench" / "tracing.py").read_text())


def unused_imports(source: str, pinned=None) -> list:
    """(line, name) of each imported name the module never reads.  A
    `# noqa: F401` import line is skipped whole when `pinned` is None, and
    otherwise only for its names in `pinned`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        noqa = "# noqa: F401" in lines[node.end_lineno - 1]
        if noqa and pinned is None:
            continue
        for alias in node.names:
            if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                     and node.module == "__future__"):
                continue
            name = alias.asname or alias.name.split(".")[0]
            if not (noqa and name in pinned):
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
    pinned = (PINNED.get(path.stem, set())
              if path.parent.name == "probelearn" else None)
    assert unused_imports(path.read_text(), pinned) == []


def test_scan_flags_unused_and_honours_noqa():
    source = ("import os\nimport numpy as np\nfrom x import (a,\n    b)\n"
              "from y import c  # noqa: F401\nprint(np, a.b)\n")
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_tracer_wraps_are_read_with_their_loops():
    source = ('tracer.wrap(cli, "run_trial", "cli.trial")\n'
              'for attr in ("rows", "solve"):\n'
              '    tracer.wrap(monomials, attr, "monomials.rep")\n'
              '    tracer.wrap(monomials.RepresentationMatrix, attr, "x")\n')
    assert wrapped_names(source) == {"cli": {"run_trial"},
                                     "monomials": {"rows", "solve"}}


def test_src_noqa_holds_only_for_wrapped_names():
    source = "from .trees import conflict, made_up  # noqa: F401\n"
    assert unused_imports(source, {"conflict", "induce"}) == [(1, "made_up")]
    assert unused_imports(source, set()) == [(1, "conflict"), (1, "made_up")]


def package_imports(name: str) -> set:
    """The `probelearn` modules that module `name` imports, directly or
    through the modules it imports (relative imports, from the source)."""
    seen, todo = set(), [name]
    while todo:
        tree = ast.parse((ROOT / "src" / "probelearn" / f"{todo.pop()}.py")
                         .read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module not in seen):
                seen.add(node.module)
                todo.append(node.module)
    return seen


def test_stream_generation_does_not_import_the_learners_or_the_cli():
    """Every task is made in `streams`, which owns `Task`; generating a
    stream needs neither the protocol, nor the tree learners, nor the
    CLI."""
    assert package_imports("streams").isdisjoint(
        {"protocol", "tree_learners", "cli"})
    assert "tree_learners" in package_imports("cli")
