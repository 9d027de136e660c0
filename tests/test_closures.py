"""No function nested in `src/probelearn` calls itself or a sibling closure
(an AST scan).

A nested function that reads its own name, or the name of a function
defined beside it in the same enclosing function, keeps a closure cell
that leads back to itself.  Each call of the enclosing function then leaves
a reference cycle that only the garbage collector frees.  A module-level
helper recurses without one.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "probelearn").glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def local_functions(outer) -> list:
    """The functions defined in outer's own scope, not in a deeper one."""
    found, todo = [], list(ast.iter_child_nodes(outer))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS):
            found.append(node)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return found


def self_referencing_closures(source: str) -> list:
    """(line, name) of each nested function that reads its own name or a
    sibling closure's."""
    found = []
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, FUNCTIONS):
            continue
        nested = local_functions(outer)
        names = {f.name for f in nested}
        for f in nested:
            if any(isinstance(node, ast.Name) and node.id in names
                   and isinstance(node.ctx, ast.Load) for node in ast.walk(f)):
                found.append((f.lineno, f.name))
    return sorted(found)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"streams.py", "trees.py",
                                         "tree_learners.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_closure_calls_itself_or_a_sibling(path):
    assert self_referencing_closures(path.read_text()) == []


def test_scan_flags_self_and_sibling_calls_only():
    source = ("def f(rng):\n"
              "    def fill(node):\n"          # calls itself
              "        return fill(node.left)\n"
              "    def realizable(g):\n"       # calls a sibling
              "        return cover(g)\n"
              "    def cover(g):\n"
              "        return g\n"
              "    def draw():\n"              # reads only the outer scope
              "        return rng.random()\n"
              "    return fill, realizable, draw\n"
              "def g():\n"                     # recursion at module level
              "    return g()\n"
              "class C:\n"
              "    def m(self):\n"             # a method, not a closure
              "        return self.m()\n")
    assert self_referencing_closures(source) == [(2, "fill"),
                                                 (4, "realizable")]
