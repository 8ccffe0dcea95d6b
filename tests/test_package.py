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
