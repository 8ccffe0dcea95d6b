"""The package namespace: what ``from dcstop import *`` binds."""

from __future__ import annotations

from types import ModuleType

import dcstop


def test_star_import_binds_no_module_and_no_future_flag():
    namespace: dict = {}
    exec("from dcstop import *", namespace)
    modules = sorted(name for name, value in namespace.items() if isinstance(value, ModuleType))
    assert modules == []
    assert "annotations" not in namespace
    assert set(namespace) - {"__builtins__"} == set(dcstop.__all__)
    assert {"MvmTree", "solve", "extract_policy", "validate", "DcstopError"} <= set(namespace)
