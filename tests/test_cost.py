"""Cost recipes: evaluation, continuity constants, serialization."""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict

import numpy as np
import pytest

from dcstop import (
    ConfigError,
    CostSpec,
    LatticeSpec,
    PathState,
    cost_from_json,
    evaluate,
    holder2_constant_from_range,
    modulus,
    nodes_at_step,
    state,
)

from conftest import all_pairs_holder2_constant


def st_at(w: float, m: float | None = None, t: float = 1.0) -> PathState:
    return PathState(w=w, m=m, t=t)


class TestEvaluate:
    def test_terminal_identity(self):
        cost = CostSpec(kind="terminal", name="identity")
        assert evaluate(cost, st_at(1.5)) == 1.5

    def test_running_max_identity(self):
        cost = CostSpec(kind="running_max", name="identity")
        assert evaluate(cost, st_at(0.0, m=2.0)) == 2.0

    def test_indicator_below_threshold(self):
        cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
        assert evaluate(cost, st_at(0.0)) == 0.0
        assert evaluate(cost, st_at(1.0)) == 1.0

    def test_scalar_forms(self):
        cases = [
            (CostSpec(kind="terminal", name="square"), -1.5, 2.25),
            (CostSpec(kind="terminal", name="abs"), -1.5, 1.5),
            (CostSpec(kind="terminal", name="positive_part"), -1.5, 0.0),
            (CostSpec(kind="terminal", name="positive_part"), 0.5, 0.5),
            (CostSpec(kind="time", name="identity"), 0.0, 1.0),
        ]
        for cost, w, expected in cases:
            assert evaluate(cost, st_at(w)) == expected

    def test_polynomial_matches_numpy(self):
        coeffs = [1.0, -2.0, 0.5, 3.0]
        cost = CostSpec(kind="terminal", name="polynomial", params={"coeffs": coeffs})
        for w in np.linspace(-2.0, 2.0, 17):
            ref = float(np.polynomial.polynomial.polyval(w, coeffs))
            assert evaluate(cost, st_at(float(w))) == pytest.approx(ref, abs=1e-12)

    def test_bivariate_polynomial(self):
        coeffs = [[0.0, 1.0], [2.0, 0.0]]  # t + 2w
        cost = CostSpec(kind="markov", name="polynomial2", params={"coeffs": coeffs})
        assert evaluate(cost, st_at(1.5, t=0.5)) == pytest.approx(3.5, abs=1e-15)

    def test_markov_scalar_reads_position(self):
        cost = CostSpec(kind="markov", name="abs")
        assert evaluate(cost, st_at(-2.0, t=9.0)) == 2.0

    def test_running_max_needs_tracked_max(self):
        cost = CostSpec(kind="running_max", name="identity")
        with pytest.raises(ConfigError):
            evaluate(cost, st_at(1.0, m=None))

    def test_depends_only_on_state(self):
        # Any two histories landing in the same (w, m, t) must price equally.
        spec = LatticeSpec(depth=6, dt=0.5, mode="history")
        costs = [
            CostSpec(kind="terminal", name="square"),
            CostSpec(kind="running_max", name="abs"),
            CostSpec(kind="markov", name="polynomial2", params={"coeffs": [[0, 1], [1, 0]]}),
        ]
        groups = defaultdict(list)
        for node in nodes_at_step(spec, 6):
            st = state(spec, node)
            groups[(st.w, st.m, st.t)].append(st)
        for cost in costs:
            for states in groups.values():
                vals = {evaluate(cost, st) for st in states}
                assert len(vals) == 1


class TestModulus:
    def test_terminal_linear_in_the_range_constant(self):
        # square on levels -2..2 at unit steps: the constant is 3.
        phi = modulus(CostSpec(kind="terminal", name="square"), LatticeSpec(depth=2, dt=1.0))
        assert phi(0.4) == pytest.approx(1.2, abs=1e-15)

    def test_running_max_quadruples(self):
        spec = LatticeSpec(depth=3, dt=1.0, augment_max=True)
        cost = CostSpec(kind="running_max", name="square")
        c = holder2_constant_from_range(cost, spec)
        assert modulus(cost, spec)(1.0) == pytest.approx(4.0 * c, abs=1e-15)

    def test_time_cost_lipschitz(self):
        phi = modulus(CostSpec(kind="time", name="identity"), LatticeSpec(depth=4, dt=0.5))
        assert phi(0.5) == 0.5

    @pytest.mark.parametrize("kind", ["terminal", "running_max", "time"])
    @pytest.mark.parametrize("name, params", [
        ("square", {}), ("abs", {}), ("indicator", {"threshold": 1.0}),
        ("polynomial", {"coeffs": [0.5, -1.0, 0.25]}),
    ])
    def test_matches_a_constant_filled_in_from_the_range(self, kind, name, params):
        # Linear in the lattice's range constant, times 4 for running max (Doob).
        cost = CostSpec(kind=kind, name=name, params=params)
        for spec in (LatticeSpec(depth=2, dt=1.0), LatticeSpec(depth=7, dt=0.3, augment_max=True)):
            c = holder2_constant_from_range(cost, spec)
            phi = modulus(cost, spec)
            for x in (0.0, 0.25, 1.0, 3.7):
                assert phi(x) == (4.0 * c * x if kind == "running_max" else c * x)

    def test_markov_has_no_route(self):
        with pytest.raises(ConfigError, match="no modulus route for markov costs"):
            modulus(CostSpec(kind="markov", name="abs"), LatticeSpec(depth=2, dt=1.0))

    def test_range_constant_matches_brute_force(self):
        # Independent recomputation: scan all reachable position pairs for
        # the worst quadratic-difference ratio.
        spec = LatticeSpec(depth=2, dt=1.0)
        cost = CostSpec(kind="terminal", name="square")
        xs = [l * 1.0 for l in range(-2, 3)]
        brute = max(
            abs(x * x - y * y) / (y - x) ** 2
            for i, x in enumerate(xs)
            for y in xs[i + 1:]
        )
        got = holder2_constant_from_range(cost, spec)
        assert got == pytest.approx(brute, abs=1e-12)
        assert got == pytest.approx(3.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["terminal", "running_max", "time"])
    @pytest.mark.parametrize("name, params", [
        ("identity", {}), ("square", {}), ("abs", {}), ("positive_part", {}),
        ("indicator", {"threshold": 1.0}), ("indicator", {"threshold": -0.3}),
        ("polynomial", {"coeffs": [0.5, -1.0, 0.25]}),
        ("polynomial", {"coeffs": [0.1, 0.3, -0.7, 0.2, 0.05]}),
    ])
    def test_range_constant_equals_the_all_pairs_maximum(self, kind, name, params):
        # Adjacent levels are scanned; the reference scans every pair.
        cost = CostSpec(kind=kind, name=name, params=params)
        for depth, dt in [(1, 1.0), (2, 0.5), (5, 0.1), (8, 0.25), (13, 0.3), (40, 1.0 / 7),
                          (150, 0.01)]:
            spec = LatticeSpec(depth=depth, dt=dt)
            assert holder2_constant_from_range(cost, spec) == all_pairs_holder2_constant(cost, spec)

    def test_time_range_constant_is_lipschitz(self):
        spec = LatticeSpec(depth=4, dt=0.5)
        cost = CostSpec(kind="time", name="square")
        # max |t1^2 - t2^2| / |t1 - t2| = t_max + second largest = 2 + 1.5.
        got = holder2_constant_from_range(cost, spec)
        assert got == pytest.approx(3.5, abs=1e-12)



class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            CostSpec(kind="integral", name="identity")

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            CostSpec(kind="terminal", name="sine")

    def test_indicator_needs_threshold(self):
        with pytest.raises(ConfigError):
            CostSpec(kind="terminal", name="indicator")

    def test_polynomial_needs_coeffs(self):
        with pytest.raises(ConfigError):
            CostSpec(kind="terminal", name="polynomial")
        with pytest.raises(ConfigError):
            CostSpec(kind="terminal", name="polynomial", params={"coeffs": ["x"]})

    @pytest.mark.parametrize("kind, name, params", [
        ("terminal", "identity", {"threshold": 1.0}),
        ("terminal", "square", {"coeffs": [1.0]}),
        ("running_max", "abs", {"scale": 2.0}),
        ("terminal", "positive_part", {"threshold": 1.0}),
        ("terminal", "indicator", {"threshold": 1.0, "coeffs": [1.0]}),
        ("time", "polynomial", {"coeffs": [1.0], "threshold": 0.0}),
        ("markov", "polynomial2", {"coeffs": [[1.0]], "degree": 1}),
    ])
    def test_a_param_the_form_does_not_read_is_refused(self, kind, name, params):
        with pytest.raises(ConfigError, match=f"{name} cost reads no params"):
            CostSpec(kind=kind, name=name, params=params)

    def test_bivariate_only_for_markov(self):
        with pytest.raises(ConfigError):
            CostSpec(kind="terminal", name="polynomial2", params={"coeffs": [[1.0]]})


class TestJson:
    def test_round_trip(self):
        cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
        again = cost_from_json(asdict(cost))
        assert again.kind == cost.kind
        assert again.name == cost.name
        assert dict(again.params) == dict(cost.params)

    def test_missing_fields(self):
        with pytest.raises(ConfigError):
            cost_from_json({"kind": "terminal"})
        with pytest.raises(ConfigError):
            cost_from_json("terminal")
