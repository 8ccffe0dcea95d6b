"""The test modules themselves: no name is bound twice in one module or class body.

A second ``class TestX`` or ``def test_x`` replaces the first, so the tests
of the first are never collected and never fail.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TEST_MODULES = sorted(Path(__file__).resolve().parent.glob("*.py"))


def names_bound_twice(source: str) -> list[str]:
    """``scope.name`` for each def, class or plain assignment that rebinds a name."""
    twice = []

    def scan(body, scope):
        seen = set()
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                if isinstance(node, ast.ClassDef):
                    scan(node.body, f"{scope}{node.name}.")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            twice.extend(scope + name for name in names if name in seen)
            seen.update(names)

    scan(ast.parse(source).body, "")
    return twice


@pytest.mark.parametrize("path", TEST_MODULES, ids=lambda p: p.name)
def test_no_name_is_bound_twice(path):
    assert names_bound_twice(path.read_text()) == []


def test_a_shadowed_class_and_method_are_found():
    source = (
        "LIMIT = 1\n"
        "class TestA:\n"
        "    def test_x(self): pass\n"
        "    def test_x(self): pass\n"
        "class TestA:\n"
        "    pass\n"
        "LIMIT = 2\n"
    )
    assert names_bound_twice(source) == ["TestA.test_x", "TestA", "LIMIT"]
