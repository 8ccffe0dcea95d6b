"""The test modules themselves: no name is bound twice, and no helper goes unread.

A second ``class TestX`` or ``def test_x`` replaces the first, so the tests
of the first are never collected and never fail.  A helper that no module
reads checks nothing, like a reference left behind by the test it served.
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


def is_collected(node) -> bool:
    """A test, a fixture or a pytest hook: pytest reads it, not a module."""
    if node.name.startswith(("test", "pytest_")) or (
            isinstance(node, ast.ClassDef) and node.name.startswith("Test")):
        return True
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr == "fixture":
            return True
    return False


def unread_helpers(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each module-level def or class that no module reads.

    A name is read where any module loads it or takes it as an attribute.
    """
    helpers, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        helpers.extend((module, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                       and not is_collected(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in helpers if name not in read]


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


def test_every_helper_is_read():
    assert unread_helpers({path.stem: path.read_text() for path in TEST_MODULES}) == []


def test_an_unread_helper_is_found():
    sources = {
        "conftest": (
            "import pytest\n"
            "def used(): pass\n"
            "def unused(): pass\n"
            "class Unused: pass\n"
            "@pytest.fixture\n"
            "def workspace(): pass\n"
            "@pytest.fixture(autouse=True)\n"
            "def seeded(): pass\n"
            "def pytest_configure(config): pass\n"
        ),
        "test_a": (
            "from conftest import used, unused\n"
            "import conftest\n"
            "def helper(): return used() + conftest.Used\n"
            "class Used: pass\n"
            "def test_x(workspace): helper()\n"
            "class TestA:\n"
            "    def test_y(self): pass\n"
        ),
    }
    assert unread_helpers(sources) == ["conftest.unused", "conftest.Unused"]
