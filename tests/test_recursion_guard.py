"""Guard against class-count recursion in the analysis modules.

The analyses walk graphs whose depth grows with the number of classes, so
a function that calls itself would hit Python's recursion limit on large
systems.  ``oracle`` recurses over explicit finite trees by design and is
not checked.
"""

import ast
from pathlib import Path

import pytest

import cogames

PACKAGE = Path(cogames.__file__).resolve().parent


def self_calls(source: str) -> list[str]:
    """Names of the functions in ``source`` that call themselves by name."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == fn.name:
                    found.append(fn.name)
    return found


def test_detects_direct_and_nested_recursion():
    source = "def f(n):\n    return f(n - 1)\n\ndef g():\n    def h():\n        h()\n    return h\n"
    assert self_calls(source) == ["f", "h"]


@pytest.mark.parametrize("module", ["semantics", "equilibria", "histories"])
def test_no_function_calls_itself(module):
    assert self_calls((PACKAGE / f"{module}.py").read_text()) == []
