"""The package namespace and its sources.

What ``from dcstop import *`` binds, that each module reads what it imports and
its own private names, that the package reads each of its public names, passes
each defaulted parameter and imports nothing from the tests, that only the
lattice's builders make nodes, that a test matches every size-guard message,
and that the README's Python quick start runs.
"""

from __future__ import annotations

import ast
import importlib
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
    "Accumulator", "BLEND_TOL", "CheckReport", "DppReport", "EmptyTailError", "MonotoneCoupling",
    "PURE_DEPTH_LIMIT", "PURE_TABLE_LIMIT", "RightShiftError", "SHIFT_TOL", "SPLICE_TOL", "SpliceError",
    "TerminationReport", "blend_measures", "check_dpp", "concavity_check", "cost_to_json",
    "extract_continuation", "heap_row", "is_right_shift_of", "kernel_from_json",
    "modulus_metadata", "monotone_coupling", "mvm_from_json", "node_from_json", "node_prob",
    "oracle_value", "project_to_recombining", "push_right", "push_right_identity_check",
    "push_right_with_shift", "random_kernel", "report_to_json", "restrict_renormalize",
    "spec_to_json", "splice", "state", "strong_value", "termination",
)
# The checks of the paper's argument step by step, and the helpers that serve them.
PAPER_CHECKS = (
    "check_dpp", "splice", "extract_continuation", "termination", "strong_value",
    "concavity_check", "push_right_identity_check", "push_right_with_shift",
    "monotone_coupling", "is_right_shift_of", "oracle_value",
)
PACKAGE = Path(dcstop.__file__).parent
# ``__init__.py`` imports to re-export, so it reads none of its names.
SOURCE_MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = Path(__file__).resolve().parent


def test_public_surface_drops_test_only_names():
    modules = [dcstop, *(importlib.import_module(f"dcstop.{p.stem}") for p in SOURCE_MODULES)]
    assert [(m.__name__, name) for m in modules for name in REMOVED if hasattr(m, name)] == []
    # Each paper check is defined once, in the tests.
    defined = [node.name for p in [*PACKAGE.glob("*.py"), *TESTS.glob("*.py")]
               for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert {name: defined.count(name) for name in PAPER_CHECKS} == dict.fromkeys(PAPER_CHECKS, 1)


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


def module_names(source: str) -> list[str]:
    """Each module-level function, class or assigned name."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target)
                      if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store)]
    return bound


def unused_private_names(source: str) -> list[str]:
    """Each module-level name with one leading ``_`` that the module never loads."""
    read = {node.id for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in module_names(source)
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


def identifiers_read(source: str) -> set[str]:
    """Every name a module loads and every attribute it reads; a string names nothing."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_public_names(sources, readers=()) -> list[str]:
    """Each public name of ``sources`` that no source reads, nor any of ``readers``."""
    read = set().union(*map(identifiers_read, [*sources, *readers]))
    return [name for source in sources for name in module_names(source)
            if not name.startswith("_") and name not in read]


def test_every_public_name_is_read_by_the_package():
    # The benchmark's scripts may read a name, as ``record_reference.py`` reads ``root``.
    readers = [p.read_text() for p in (TESTS.parent / "perfbench").glob("*.py")]
    assert unread_public_names([p.read_text() for p in SOURCE_MODULES], readers) == []


def test_an_unread_public_name_is_found():
    sources = [
        "LIMIT = 3\n"
        "_SPARE = 1\n"
        "def solve():\n"
        "    return LIMIT\n"
        "def orphan():\n"
        "    pass\n"
        "class Report:\n"
        "    pass\n",
        "from .a import solve\n"
        "def run():\n"
        "    return solve()\n"
        "def bench_only():\n"
        "    pass\n",
    ]
    readers = ["import dcstop.b as b\nb.bench_only()\nwrap(b, 'orphan')\n"]
    assert unread_public_names(sources, readers) == ["orphan", "Report", "run"]


def defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """``(callee, parameter, position)`` for each defaulted parameter of a function or method.

    A method's positions skip ``self``, and ``__init__`` is called by its
    class's name.  A keyword-only parameter has no position.
    """
    body = ast.parse(source).body
    found = []
    for cls, node in [(None, node) for node in body] + [
            (c.name, node) for c in body if isinstance(c, ast.ClassDef) for node in c.body]:
        if isinstance(node, ast.FunctionDef):
            args, callee = node.args, cls if node.name == "__init__" else node.name
            positional = [*args.posonlyargs, *args.args]
            first = len(positional) - len(args.defaults)
            found += [(callee, a.arg, i - (cls is not None))
                      for i, a in enumerate(positional) if i >= first]
            found += [(callee, a.arg, None)
                      for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def unpassed_parameters(sources, callers=()) -> list[str]:
    """``callee.parameter`` for each defaulted parameter of ``sources`` that no call passes.

    A call in ``sources`` or ``callers`` to the callee's name passes a
    parameter by keyword or by position; ``*args`` and ``**kwargs`` pass all.
    """
    calls = [(getattr(node.func, "id", getattr(node.func, "attr", None)), node)
             for text in [*sources, *callers] for node in ast.walk(ast.parse(text))
             if isinstance(node, ast.Call)]
    return [f"{callee}.{param}" for text in sources
            for callee, param, position in defaulted_parameters(text)
            if not any(name == callee and (
                any(k.arg in (param, None) for k in call.keywords)
                or any(isinstance(a, ast.Starred) for a in call.args)
                or position is not None and position < len(call.args)) for name, call in calls)]


def test_every_defaulted_parameter_is_passed_by_the_package():
    # A default that only tests override keeps a second form of its function alive.
    callers = [p.read_text() for p in (TESTS.parent / "perfbench").glob("*.py")]
    assert unpassed_parameters([p.read_text() for p in PACKAGE.glob("*.py")], callers) == []


def test_an_unpassed_parameter_is_found():
    sources = [
        "def solve(spec, resolution=10, *, exact=False): pass\n"
        "class Tree:\n"
        "    def __init__(self, dt, start=0, mode='full'): pass\n"
        "    def walk(self, depth=1, width=2): pass\n"
        "def grow(n=1): pass\n"
        "def shrink(n=1): pass\n"
        "def run(tree, args, options):\n"
        "    solve(tree, 4), grow(*args), shrink(**options)\n"
        "    Tree(1.0, mode='half').walk(3)\n",
    ]
    callers = ["import dcstop.a as a\na.solve(1, exact=True)\n"]
    assert unpassed_parameters(sources, callers) == ["Tree.start", "walk.width"]
    assert unpassed_parameters(sources) == ["solve.exact", "Tree.start", "walk.width"]


def imports_from(source: str, modules) -> list[str]:
    """Each module that ``source`` imports by absolute name whose top level is in ``modules``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.partition(".")[0] in modules]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.partition(".")[0] in modules:
            found.append(node.module)
    return found


def test_no_source_module_imports_the_tests():
    tests = {"tests", *(p.stem for p in TESTS.glob("*.py"))}
    assert [(p.name, module) for p in sorted(PACKAGE.glob("*.py"))
            for module in imports_from(p.read_text(), tests)] == []


def test_an_import_from_the_tests_is_found():
    source = (
        "import numpy, conftest\n"
        "from tests.paper_checks import splice\n"
        "from .lattice import root\n"
        "def f():\n"
        "    from paper_checks import check_dpp\n"
    )
    assert imports_from(source, {"tests", "conftest", "paper_checks"}) == [
        "conftest", "tests.paper_checks", "paper_checks"]


def callers_of(source: str, callee: str) -> list[str]:
    """The innermost function around each call to ``callee``, or ``""`` outside any."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and callee in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(where)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                  else where)

    visit(ast.parse(source), "")
    return found


def test_only_the_lattice_builders_make_nodes():
    # ``NodeId`` checks nothing itself; ``tests/test_lattice.py`` holds what
    # these two build to its invariants, so a new builder must join them there.
    assert {(p.stem, where) for p in PACKAGE.glob("*.py")
            for where in callers_of(p.read_text(), "NodeId")} == {
        ("lattice", "nodes_at_step"), ("mvm", "_node")}


def test_the_callers_of_a_name_are_found():
    source = (
        "HEAD = Node(0)\n"
        "def build(n):\n"
        "    def leaf(i):\n"
        "        return lattice.Node(i)\n"
        "    return [leaf(i) for i in range(n)] + [Node(n), Nodes(n)]\n"
        "class Tree:\n"
        "    async def grow(self):\n"
        "        return Node(1)\n"
    )
    assert callers_of(source, "Node") == ["", "leaf", "build", "grow"]


def test_the_readme_quick_start_runs(capsys):
    readme = (TESTS.parent / "README.md").read_text()
    block = readme.split("## Quick start (API)")[1].split("```python\n")[1].split("```")[0]
    exec(block, {})
    value, lp_value, simulated = capsys.readouterr().out.splitlines()
    assert float(value) == pytest.approx(0.5, abs=1e-9)
    assert float(lp_value) == pytest.approx(0.5, abs=1e-9)
    mean, stderr = map(float, simulated.split())
    assert 0.0 < stderr < 0.01 and abs(mean - 0.5) <= 4.0 * stderr


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
