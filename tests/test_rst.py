"""Randomized stopping kernels: marginals, objectives, shifts, simulation."""

from __future__ import annotations

import numpy as np
import pytest

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    NodeId,
    RightShiftError,
    SizeGuardError,
    StoppingKernel,
    ValidationError,
    ceiling_project,
    feasible_kernel,
    kernel_from_json,
    kernel_to_json,
    marginal_of,
    monotone_coupling,
    objective_value,
    push_right,
    push_right_with_shift,
    random_kernel,
    simulate,
    w1_distance,
)

from conftest import brute_kernel_stats, random_measure

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
IDENTITY = CostSpec(kind="terminal", name="identity")
SQUARE = CostSpec(kind="terminal", name="square")


def worked_kernel() -> tuple[LatticeSpec, StoppingKernel]:
    """Depth-2 unit-step rule: stop at the up node, ride out the down node."""
    spec = LatticeSpec(depth=2, dt=1.0)
    q = {
        NodeId(step=1, level=1): 1.0,
        NodeId(step=1, level=-1): 0.0,
        NodeId(step=2, level=2): 1.0,
        NodeId(step=2, level=0): 1.0,
        NodeId(step=2, level=-2): 1.0,
    }
    return spec, StoppingKernel(spec, (1.0, 2.0), q)


class TestMarginal:
    def test_worked_rule_splits_half_half(self):
        spec, kernel = worked_kernel()
        marg = marginal_of(kernel, spec)
        assert marg.atoms == (1.0, 2.0)
        assert marg.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_stop_everywhere_first_atom(self):
        spec = LatticeSpec(depth=3, dt=0.5)
        q = {n: 1.0 for s in (1, 3) for n in
             [NodeId(step=s, level=l) for l in range(-s, s + 1, 2)]}
        kernel = StoppingKernel(spec, (0.5, 1.5), q)
        assert marginal_of(kernel, spec) == DiscreteMeasure((0.5,), (1.0,))

    def test_constant_hazard(self):
        # q = 1/2 at the first atom leaves exactly half for the second.
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 0.5, NodeId(step=1, level=-1): 0.5}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        kernel = StoppingKernel(spec, (1.0, 2.0), q)
        marg = marginal_of(kernel, spec)
        assert marg.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_matches_path_enumeration(self, mode, augment):
        rng = np.random.default_rng(11)
        spec = LatticeSpec(depth=4, dt=0.25, mode=mode, augment_max=augment)
        for _ in range(5):
            kernel = random_kernel(spec, (0.25, 0.75, 1.0), rng)
            weights, _ = brute_kernel_stats(kernel, spec)
            marg = marginal_of(kernel, spec)
            assert marg.weights == pytest.approx(weights, abs=1e-14)

    def test_wrong_lattice_rejected(self):
        spec, kernel = worked_kernel()
        other = LatticeSpec(depth=2, dt=0.5)
        with pytest.raises(ValidationError):
            marginal_of(kernel, other)


class TestObjective:
    def test_worked_rule_half(self):
        spec, kernel = worked_kernel()
        assert objective_value(kernel, spec, INDICATOR) == pytest.approx(0.5, abs=1e-15)

    def test_identity_cost_zero_mean(self):
        # The driver is a martingale, so the stopped position averages zero
        # under any stopping rule.
        rng = np.random.default_rng(3)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(5):
            kernel = random_kernel(spec, (0.2, 0.6, 1.0), rng)
            assert objective_value(kernel, spec, IDENTITY) == pytest.approx(0.0, abs=1e-12)

    def test_square_cost_recovers_mean_time(self):
        # The squared driver minus elapsed time is a martingale, so the
        # expected squared stop value equals the mean of the time marginal.
        rng = np.random.default_rng(4)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(5):
            kernel = random_kernel(spec, (0.4, 0.8, 1.0), rng)
            marg = marginal_of(kernel, spec)
            got = objective_value(kernel, spec, SQUARE)
            assert got == pytest.approx(marg.mean(), abs=1e-12)

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", True), ("history", False),
    ])
    def test_matches_path_enumeration(self, mode, augment):
        rng = np.random.default_rng(12)
        spec = LatticeSpec(depth=4, dt=0.25, mode=mode, augment_max=augment)
        cost = CostSpec(kind="running_max", name="square")
        for _ in range(5):
            kernel = random_kernel(spec, (0.5, 1.0), rng)
            _, brute = brute_kernel_stats(kernel, spec, cost)
            assert objective_value(kernel, spec, cost) == pytest.approx(brute, abs=1e-13)


class TestValidation:
    def test_final_atom_must_stop(self):
        spec = LatticeSpec(depth=1, dt=1.0)
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0,), {
                NodeId(step=1, level=1): 0.9, NodeId(step=1, level=-1): 1.0,
            })

    def test_missing_node(self):
        spec = LatticeSpec(depth=1, dt=1.0)
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0,), {NodeId(step=1, level=1): 1.0})

    def test_probability_out_of_range(self):
        spec, _ = worked_kernel()
        q = {NodeId(step=1, level=1): 1.2, NodeId(step=1, level=-1): 0.0}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0, 2.0), q)

    def test_entry_off_the_atom_grid(self):
        spec, _ = worked_kernel()
        q = {NodeId(step=1, level=1): 1.0, NodeId(step=1, level=-1): 1.0,
             NodeId(step=2, level=0): 0.5}
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0,), q)

    def test_atom_times_must_increase(self):
        spec, _ = worked_kernel()
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (2.0, 1.0), {})

    def test_near_miss_probabilities_snap(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 1.0 + 1e-14,
             NodeId(step=1, level=-1): -1e-14}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        kernel = StoppingKernel(spec, (1.0, 2.0), q)
        assert kernel.q[NodeId(step=1, level=1)] == 1.0
        assert kernel.q[NodeId(step=1, level=-1)] == 0.0


class TestPushRight:
    def test_point_mass_shifts_one_step(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 1.0, NodeId(step=1, level=-1): 1.0}
        kernel = StoppingKernel(spec, (1.0,), q)
        target = DiscreteMeasure((2.0,), (1.0,))
        coupling = monotone_coupling(marginal_of(kernel, spec), target)
        pushed, shift = push_right_with_shift(kernel, spec, coupling)
        assert shift == pytest.approx(1.0, abs=1e-15)
        assert marginal_of(pushed, spec) == target

    def test_identity_coupling_is_a_no_op(self):
        spec, kernel = worked_kernel()
        marg = marginal_of(kernel, spec)
        pushed = push_right(kernel, spec, monotone_coupling(marg, marg))
        assert pushed == kernel

    def test_two_atom_shift(self):
        spec = LatticeSpec(depth=3, dt=1.0)
        rng = np.random.default_rng(5)
        source = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        kernel = feasible_kernel(spec, source, rng)
        target = DiscreteMeasure((2.0, 3.0), (0.5, 0.5))
        coupling = monotone_coupling(source, target)
        pushed, shift = push_right_with_shift(kernel, spec, coupling)
        assert shift == pytest.approx(1.0, abs=1e-12)
        got = marginal_of(pushed, spec)
        assert got.atoms == (2.0, 3.0)
        assert got.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_leftward_coupling_rejected(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        rng = np.random.default_rng(6)
        source = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        kernel = feasible_kernel(spec, source, rng)
        coupling = monotone_coupling(source, DiscreteMeasure((1.0,), (1.0,)))
        with pytest.raises(RightShiftError):
            push_right(kernel, spec, coupling)

    def test_source_mismatch_rejected(self):
        spec, kernel = worked_kernel()
        wrong = DiscreteMeasure((1.0, 2.0), (0.25, 0.75))
        coupling = monotone_coupling(wrong, DiscreteMeasure((2.0,), (1.0,)))
        with pytest.raises(ValidationError):
            push_right(kernel, spec, coupling)

    def test_shift_equals_transport_distance(self):
        rng = np.random.default_rng(21)
        spec = LatticeSpec(depth=5, dt=0.5)
        times = [0.5, 1.0, 1.5, 2.0, 2.5]
        for _ in range(10):
            atoms = sorted(rng.choice(times, size=3, replace=False))
            source = random_measure(rng, atoms)
            kernel = feasible_kernel(spec, source, rng)
            marg = marginal_of(kernel, spec)
            hi = [t for t in times if t >= atoms[-1]]
            grid = sorted(set(rng.choice(hi, size=1, replace=False)) | {2.5})
            target = ceiling_project(marg, grid)
            _, shift = push_right_with_shift(kernel, spec, monotone_coupling(marg, target))
            assert shift == pytest.approx(w1_distance(marg, target), abs=1e-12)


class TestSimulate:
    def test_seed_makes_runs_identical(self):
        spec, kernel = worked_kernel()
        a = simulate(kernel, spec, INDICATOR, n_paths=40_000, seed=123)
        b = simulate(kernel, spec, INDICATOR, n_paths=40_000, seed=123)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.empirical_marginal == b.empirical_marginal

    def test_worked_rule_estimates_half(self):
        spec, kernel = worked_kernel()
        report = simulate(kernel, spec, INDICATOR, n_paths=100_000, seed=2024)
        assert abs(report.mean - 0.5) <= 3.0 * report.stderr

    def test_empirical_marginal_tracks_law(self):
        rng = np.random.default_rng(9)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((0.25, 0.75, 1.0), (0.3, 0.5, 0.2))
        kernel = feasible_kernel(spec, mu, rng)
        n = 200_000
        report = simulate(kernel, spec, SQUARE, n_paths=n, seed=77)
        for atom, p in zip(mu.atoms, mu.weights):
            emp = dict(zip(report.empirical_marginal.atoms,
                           report.empirical_marginal.weights))[atom]
            band = 3.0 * np.sqrt(p * (1.0 - p) / n)
            assert abs(emp - p) <= band

    def test_mean_tracks_objective(self):
        rng = np.random.default_rng(10)
        spec = LatticeSpec(depth=4, dt=0.25, augment_max=True)
        cost = CostSpec(kind="running_max", name="identity")
        kernel = random_kernel(spec, (0.5, 1.0), rng)
        exact = objective_value(kernel, spec, cost)
        report = simulate(kernel, spec, cost, n_paths=100_000, seed=42)
        assert abs(report.mean - exact) <= 4.0 * report.stderr

    def test_report_json(self):
        spec, kernel = worked_kernel()
        report = simulate(kernel, spec, INDICATOR, n_paths=1000, seed=1)
        payload = report.to_json()
        assert payload["n_paths"] == 1000
        assert payload["seed"] == 1
        assert payload["mean"] == report.mean

    def test_path_guard(self):
        spec, kernel = worked_kernel()
        with pytest.raises(SizeGuardError, match="limit 100000000"):
            simulate(kernel, spec, INDICATOR, n_paths=10 ** 8 + 1, seed=1)


class TestGenerators:
    def test_feasible_kernel_hits_target_exactly(self):
        rng = np.random.default_rng(13)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(10):
            mu = random_measure(rng, (0.2, 0.6, 1.0))
            kernel = feasible_kernel(spec, mu, rng)
            marg = marginal_of(kernel, spec)
            assert marg.weights == pytest.approx(mu.weights, abs=1e-12)

    def test_random_kernel_is_valid(self):
        rng = np.random.default_rng(14)
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = random_kernel(spec, (1.0, 3.0), rng)
        final = [kernel.q[n] for n in kernel.q if n.step == 3]
        assert all(v == 1.0 for v in final)
        assert all(0.0 <= v <= 1.0 for v in kernel.q.values())


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        spec = LatticeSpec(depth=3, dt=0.5, mode="history")
        kernel = random_kernel(spec, (0.5, 1.5), rng)
        again = kernel_from_json(spec, kernel_to_json(kernel))
        assert again == kernel

    def test_bad_payload(self):
        spec = LatticeSpec(depth=1, dt=1.0)
        with pytest.raises(ValidationError):
            kernel_from_json(spec, [{"node": {"step": 1, "level": 1}}])
