"""Guard against class-count recursion in the analysis modules and the parser.

The analyses walk graphs whose depth grows with the number of classes, and
the parser reads terms whose nesting grows with the input, so a function in
a call cycle (one that calls itself, or calls a function that calls back)
would hit Python's recursion limit on large inputs.  Calls are resolved by
name: ``f(...)`` and ``self.f(...)`` are edges to every function or method
of the module named ``f``.  In ``oracle`` only the helpers that tests use
on small explicit trees (``finite_sgpe`` and ``size``) may recurse: the
tests run the rest on truncations, trees as deep as their horizon.
"""

import ast
from pathlib import Path

import pytest

import cogames
from cogames.system import sccs

PACKAGE = Path(cogames.__file__).resolve().parent


class _CallGraph(ast.NodeVisitor):
    """Edges from each function to the names it calls, attributed to the
    innermost enclosing function."""

    def __init__(self) -> None:
        self.edges: dict[str, set[str]] = {}
        self.enclosing: list[str] = []

    def visit_FunctionDef(self, fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.edges.setdefault(fn.name, set())
        self.enclosing.append(fn.name)
        self.generic_visit(fn)
        self.enclosing.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, call: ast.Call) -> None:
        callee = call.func
        if isinstance(callee, ast.Name):
            name = callee.id
        elif (isinstance(callee, ast.Attribute) and isinstance(callee.value, ast.Name)
              and callee.value.id == "self"):
            name = callee.attr
        else:
            name = None
        if name is not None and self.enclosing:
            self.edges[self.enclosing[-1]].add(name)
        self.generic_visit(call)


def recursive_functions(source: str) -> list[str]:
    """Sorted names of the functions in ``source`` that take part in a call
    cycle of the module's call graph."""
    graph = _CallGraph()
    graph.visit(ast.parse(source))
    edges = {fn: callees & graph.edges.keys() for fn, callees in graph.edges.items()}
    found = []
    for component in sccs(sorted(edges), lambda fn: sorted(edges[fn])):
        if len(component) > 1 or component[0] in edges[component[0]]:
            found.extend(component)
    return sorted(found)


def test_detects_direct_and_nested_recursion():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    def h():\n        h()\n    return h\n"
    assert recursive_functions(source) == ["f", "h"]


@pytest.mark.parametrize("source, expected", [
    ("def a():\n    b()\n\ndef b():\n    a()\n\ndef c():\n    a()\n", ["a", "b"]),
    ("class P:\n    def term(self):\n        self.ref()\n"
     "    def ref(self):\n        return self.term()\n", ["ref", "term"]),
    ("def a():\n    b()\n\ndef b():\n    other.a()\n    return [a for a in b]\n", []),
], ids=["two-function-cycle", "method-cycle", "acyclic"])
def test_detects_call_cycles(source, expected):
    assert recursive_functions(source) == expected


@pytest.mark.parametrize("module", ["semantics", "equilibria", "histories", "dsl", "system",
                                    "families"])
def test_no_function_calls_itself(module):
    """Neither directly nor through other functions of the module."""
    assert recursive_functions((PACKAGE / f"{module}.py").read_text()) == []


def test_oracle_recurses_only_in_test_helpers():
    assert recursive_functions((PACKAGE / "oracle.py").read_text()) == ["finite_sgpe", "size"]
