"""The package namespace and its sources.

What ``from dcstop import *`` binds, that each module reads what it imports and
its own private names, and that a test matches every size-guard message.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import pytest

import dcstop


def test_star_import_binds_no_module_and_no_future_flag():
    namespace: dict = {}
    exec("from dcstop import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, ModuleType))
    assert modules == []
    assert "annotations" not in namespace
    assert set(namespace) - {"__builtins__"} == set(dcstop.__all__)
    assert {"MvmTree", "solve", "extract_policy", "validate", "DcstopError"} <= set(namespace)


# Public names that only tests called; they left the package or live in the tests.
REMOVED = (
    "EmptyTailError", "cost_to_json", "kernel_from_json", "modulus_metadata", "mvm_from_json",
    "node_from_json", "node_prob", "project_to_recombining", "push_right", "random_kernel",
    "report_to_json", "restrict_renormalize", "spec_to_json", "state",
)
# The objects that check the paper's argument step by step.
VERIFICATION = (
    "check_dpp", "splice", "extract_continuation", "termination", "strong_value",
    "concavity_check", "push_right_identity_check",
)


def test_public_surface_keeps_the_verification_objects_and_drops_test_only_names():
    assert [name for name in REMOVED if hasattr(dcstop, name)] == []
    assert set(VERIFICATION) <= set(dcstop.__all__)


# ``__init__.py`` imports to re-export, so it reads none of its names.
SOURCE_MODULES = sorted(p for p in Path(dcstop.__file__).parent.glob("*.py")
                        if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Each name an import binds, at any depth, that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_no_import_goes_unused(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, sys\n"
        "from .errors import ConfigError as Refused, DcstopError\n"
        "def f() -> DcstopError:\n"
        "    from .dpp import solve\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == ["os", "os", "Refused", "solve"]


def unused_private_names(source: str) -> list[str]:
    """Each module-level function, class or assigned name with one leading ``_`` never read."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in read]


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_no_private_name_goes_unused(path):
    assert unused_private_names(path.read_text()) == []


def test_an_unused_private_name_is_found():
    source = (
        "__version__ = '1'\n"
        "_LIMIT: int = 3\n"
        "_SPARE, _read = 1, 2\n"
        "def _helper():\n"
        "    return _read\n"
        "def _orphan(_x):\n"
        "    _local = _LIMIT\n"
        "class _Gone:\n"
        "    _helper = None\n"
        "def public():\n"
        "    global _SPARE\n"
        "    _SPARE = _helper()\n"
    )
    assert unused_private_names(source) == ["_SPARE", "_orphan", "_Gone"]


# Every test module but this one, whose self-test holds made-up messages.
TEST_TEXT = "\n".join(p.read_text() for p in sorted(Path(__file__).resolve().parent.glob("*.py"))
                      if p != Path(__file__).resolve())


def size_guard_heads(source: str) -> list[str]:
    """The literal head of each ``raise SizeGuardError(...)`` message: its text before any field.

    A message that is no string, or opens with a field, has the empty head.
    """
    heads = []
    for node in ast.walk(ast.parse(source)):
        call = node.exc if isinstance(node, ast.Raise) else None
        if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id == "SizeGuardError"):
            continue
        message = call.args[0] if call.args else None
        first = message.values[0] if isinstance(message, ast.JoinedStr) else message
        heads.append(first.value if isinstance(first, ast.Constant)
                     and isinstance(first.value, str) else "")
    return heads


@pytest.mark.parametrize("path", SOURCE_MODULES, ids=lambda p: p.name)
def test_every_size_guard_message_is_matched_by_a_test(path):
    assert [head for head in size_guard_heads(path.read_text())
            if not head or head not in TEST_TEXT] == []


def test_size_guard_heads_are_read():
    source = (
        "def f(n):\n"
        "    if n > 1:\n"
        "        raise SizeGuardError(f'widget count {n} (limit 1)')\n"
        "    raise SizeGuardError('no widgets at all')\n"
        "    raise SizeGuardError(f'{n} widgets')\n"
        "    raise SizeGuardError(message)\n"
        "    raise ConfigError('not a size guard')\n"
    )
    assert sorted(size_guard_heads(source)) == ["", "", "no widgets at all", "widget count "]
