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
)
from dcstop.cost import KINDS, MARKOV_NAMES, SCALAR_NAMES
from dcstop.lattice import states_at_step

from conftest import all_pairs_holder2_constant, scalar_form, stop_cost


def at(cost: CostSpec, w: float, m: float | None = None, t: float = 1.0) -> float:
    """The cost at one state, as a step of one position."""
    st = PathState(w=np.array([w]), m=None if m is None else np.array([m]), t=np.array([t]))
    (value,) = evaluate(cost, st)
    return value


def every_cost() -> list[CostSpec]:
    """Every kind with every name it takes."""
    params = {"indicator": {"threshold": math.sqrt(0.5)},
              "polynomial": {"coeffs": [0.5, -1.0, 0.25, 0.1]},
              "polynomial2": {"coeffs": [[0.0, 0.5, 0.1], [1.0, -0.25], [0.5, 0.0, 0.3], [0.2]]}}
    return [CostSpec(kind=kind, name=name, params=params.get(name, {}))
            for kind in KINDS for name in (MARKOV_NAMES if kind == "markov" else SCALAR_NAMES)]


class TestEvaluate:
    def test_terminal_identity(self):
        cost = CostSpec(kind="terminal", name="identity")
        assert at(cost, 1.5) == 1.5

    def test_running_max_identity(self):
        cost = CostSpec(kind="running_max", name="identity")
        assert at(cost, 0.0, m=2.0) == 2.0

    def test_indicator_below_threshold(self):
        cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
        assert at(cost, 0.0) == 0.0
        assert at(cost, 1.0) == 1.0

    def test_scalar_forms(self):
        cases = [
            (CostSpec(kind="terminal", name="square"), -1.5, 2.25),
            (CostSpec(kind="terminal", name="abs"), -1.5, 1.5),
            (CostSpec(kind="terminal", name="positive_part"), -1.5, 0.0),
            (CostSpec(kind="terminal", name="positive_part"), 0.5, 0.5),
            (CostSpec(kind="time", name="identity"), 0.0, 1.0),
        ]
        for cost, w, expected in cases:
            assert at(cost, w) == expected

    def test_polynomial_matches_numpy(self):
        coeffs = [1.0, -2.0, 0.5, 3.0]
        cost = CostSpec(kind="terminal", name="polynomial", params={"coeffs": coeffs})
        for w in np.linspace(-2.0, 2.0, 17):
            ref = float(np.polynomial.polynomial.polyval(w, coeffs))
            assert at(cost, float(w)) == pytest.approx(ref, abs=1e-12)

    def test_bivariate_polynomial(self):
        coeffs = [[0.0, 1.0], [2.0, 0.0]]  # t + 2w
        cost = CostSpec(kind="markov", name="polynomial2", params={"coeffs": coeffs})
        assert at(cost, 1.5, t=0.5) == pytest.approx(3.5, abs=1e-15)

    def test_markov_scalar_reads_position(self):
        cost = CostSpec(kind="markov", name="abs")
        assert at(cost, -2.0, t=9.0) == 2.0

    def test_running_max_needs_tracked_max(self):
        cost = CostSpec(kind="running_max", name="identity")
        with pytest.raises(ConfigError):
            at(cost, 1.0, m=None)

    def test_depends_only_on_state(self):
        # Any two histories landing in the same (w, m, t) must price equally.
        spec = LatticeSpec(depth=6, dt=0.5, mode="history")
        costs = [
            CostSpec(kind="terminal", name="square"),
            CostSpec(kind="running_max", name="abs"),
            CostSpec(kind="markov", name="polynomial2", params={"coeffs": [[0, 1], [1, 0]]}),
        ]
        st = states_at_step(spec, 6)
        groups = defaultdict(list)
        for p, key in enumerate(zip(st.w.tolist(), st.m.tolist(), st.t.tolist())):
            groups[key].append(p)
        assert len(groups) < 2 ** 6
        for cost in costs:
            values = evaluate(cost, st)
            for positions in groups.values():
                assert len(set(values[positions].tolist())) == 1

    @pytest.mark.parametrize("spec", [
        LatticeSpec(depth=8, dt=0.5, mode="history"),
        LatticeSpec(depth=12, dt=0.5, augment_max=True),
        LatticeSpec(depth=24, dt=0.5),
    ], ids=["history", "max-augmented", "recombining"])
    def test_whole_steps_price_like_one_node_at_a_time(self, spec):
        # Bit for bit: numpy's power would differ from ``**`` here, on w**3 and t**2.
        for cost in every_cost():
            for s in range(spec.depth + 1):
                nodes = nodes_at_step(spec, s)
                if cost.kind == "running_max" and spec.mode != "history" and not spec.augment_max:
                    with pytest.raises(ConfigError):
                        evaluate(cost, states_at_step(spec, s))
                    continue
                got = evaluate(cost, states_at_step(spec, s))
                want = np.array([stop_cost(cost, spec, node) for node in nodes])
                assert got.dtype == np.float64 and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (cost, s)


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

    @pytest.mark.parametrize("spec", [
        LatticeSpec(depth=7, dt=0.3), LatticeSpec(depth=40, dt=0.37, augment_max=True),
    ])
    def test_range_constant_is_the_adjacent_ratio_on_floats(self, spec):
        # The named forms run on arrays now; the constant must not move by a bit.
        h = spec.step_width
        ranges = {"terminal": ([l * h for l in range(-spec.depth, spec.depth + 1)], 2),
                  "running_max": ([l * h for l in range(spec.depth + 1)], 2),
                  "time": ([s * spec.dt for s in range(spec.depth + 1)], 1)}
        for cost in every_cost():
            if cost.kind == "markov":
                continue
            values, power = ranges[cost.kind]
            f = scalar_form(cost.name, cost.params)
            want = max(abs(f(x) - f(y)) / (y - x) ** power for x, y in zip(values, values[1:]))
            got = holder2_constant_from_range(cost, spec)
            assert type(got) is float
            assert got == want, cost

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

    def test_an_unknown_key_is_refused(self):
        # Dropped, the misspelled key would go unnoticed.
        with pytest.raises(ConfigError, match="^unknown key 'param'$"):
            cost_from_json({"kind": "terminal", "name": "abs", "param": {}})
