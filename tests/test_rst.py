"""Randomized stopping kernels: marginals, objectives, shifts, simulation."""

from __future__ import annotations

import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chi2

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    NodeId,
    SizeGuardError,
    StoppingKernel,
    ValidationError,
    build_lp,
    ceiling_project,
    feasible_kernel,
    from_kernel,
    kernel_to_json,
    marginal_of,
    objective_value,
    simulate,
    to_kernel,
    w1_distance,
)

from dcstop.lattice import node_count, root
from dcstop.measures import ATOM_MERGE_TOL
from dcstop.oracle import LpSolution, lp_solution_to_kernel
from dcstop.rst import (
    DEAD_MASS,
    SIM_PATH_LIMIT,
    _forward_stops,
    _sample_stops,
    kernel_from_laws,
)

from paper_checks import RightShiftError, push_right_with_shift
from conftest import (
    brute_kernel_stats,
    kernel_dict,
    kernel_from_dict,
    kernel_from_json,
    mean,
    random_kernel,
    random_measure,
    reference_advance,
    reference_tree_to_kernel,
    stop_cost,
)

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
    return spec, kernel_from_dict(spec, (1.0, 2.0), q)


class TestMarginal:
    def test_worked_rule_splits_half_half(self):
        _, kernel = worked_kernel()
        marg = marginal_of(kernel)
        assert marg.atoms == (1.0, 2.0)
        assert marg.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    def test_stop_everywhere_first_atom(self):
        spec = LatticeSpec(depth=3, dt=0.5)
        q = {n: 1.0 for s in (1, 3) for n in
             [NodeId(step=s, level=l) for l in range(-s, s + 1, 2)]}
        kernel = kernel_from_dict(spec, (0.5, 1.5), q)
        assert marginal_of(kernel) == DiscreteMeasure((0.5,), (1.0,))

    def test_constant_hazard(self):
        # q = 1/2 at the first atom leaves exactly half for the second.
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 0.5, NodeId(step=1, level=-1): 0.5}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        kernel = kernel_from_dict(spec, (1.0, 2.0), q)
        marg = marginal_of(kernel)
        assert marg.weights == pytest.approx((0.5, 0.5), abs=1e-15)

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", False), ("recombining", True), ("history", False),
    ])
    def test_matches_path_enumeration(self, mode, augment):
        rng = np.random.default_rng(11)
        spec = LatticeSpec(depth=4, dt=0.25, mode=mode, augment_max=augment)
        for _ in range(5):
            kernel = random_kernel(spec, (0.25, 0.75, 1.0), rng)
            weights, _ = brute_kernel_stats(kernel)
            marg = marginal_of(kernel)
            assert marg.weights == pytest.approx(weights, abs=1e-14)

    def test_wrong_lattice_rejected(self):
        # A kernel carries its lattice: its stop arrays are refused on one
        # whose positions name other nodes.
        _, kernel = worked_kernel()
        for other in (LatticeSpec(depth=2, dt=1.0, mode="history"),
                      LatticeSpec(depth=2, dt=1.0, augment_max=True)):
            with pytest.raises(ValidationError, match=r"step 2 has 4 nodes, got q of shape \(3,\)"):
                StoppingKernel(other, kernel.atom_times, kernel.q)


class TestObjective:
    def test_worked_rule_half(self):
        _, kernel = worked_kernel()
        assert objective_value(kernel, INDICATOR) == pytest.approx(0.5, abs=1e-15)

    def test_identity_cost_zero_mean(self):
        # The driver is a martingale, so the stopped position averages zero
        # under any stopping rule.
        rng = np.random.default_rng(3)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(5):
            kernel = random_kernel(spec, (0.2, 0.6, 1.0), rng)
            assert objective_value(kernel, IDENTITY) == pytest.approx(0.0, abs=1e-12)

    def test_square_cost_recovers_mean_time(self):
        # The squared driver minus elapsed time is a martingale, so the
        # expected squared stop value equals the mean of the time marginal.
        rng = np.random.default_rng(4)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(5):
            kernel = random_kernel(spec, (0.4, 0.8, 1.0), rng)
            marg = marginal_of(kernel)
            got = objective_value(kernel, SQUARE)
            assert got == pytest.approx(mean(marg), abs=1e-12)

    @pytest.mark.parametrize("mode,augment", [
        ("recombining", True), ("history", False),
    ])
    def test_matches_path_enumeration(self, mode, augment):
        rng = np.random.default_rng(12)
        spec = LatticeSpec(depth=4, dt=0.25, mode=mode, augment_max=augment)
        cost = CostSpec(kind="running_max", name="square")
        for _ in range(5):
            kernel = random_kernel(spec, (0.5, 1.0), rng)
            _, brute = brute_kernel_stats(kernel, cost)
            assert objective_value(kernel, cost) == pytest.approx(brute, abs=1e-13)


class TestKernelFromLaws:
    def test_one_dead_mass_threshold_for_trees_and_lp_solutions(self):
        # Atom 1 stops all but about 5e-14 of every path, between the law
        # trees' old 1e-15 and the LP route's old 1e-12.  The one rule keeps
        # DEAD_MASS = 1e-15, so both routes read the hazard at atom 2 there.
        hist = LatticeSpec(depth=3, dt=1.0, mode="history")
        kernel = StoppingKernel(hist, (1.0, 2.0, 3.0),
                                [np.full(2, 1.0 - 5e-14), np.full(4, 0.5), np.ones(8)])
        tree = from_kernel(kernel)
        laws = [tree.vectors[2 ** s - 1:2 ** (s + 1) - 1] for s in (1, 2, 3)]
        remaining = 1.0 - laws[1][:, 0]
        assert DEAD_MASS == 1e-15
        assert np.all((remaining > 1e-15) & (remaining < 1e-12))
        want = kernel_from_laws(hist, tree.atom_times, laws)
        assert want.q[1] == pytest.approx(np.full(4, 0.5), rel=1e-9)
        assert want.q[1].tobytes() == to_kernel(tree).q[1].tobytes()
        assert want.q[1].tobytes() == reference_tree_to_kernel(tree).q[1].tobytes()
        # The same laws as LP variables: one block per earlier atom, columns by
        # history code, then the last atom's block by step-2 prefix.
        problem = build_lp(hist, IDENTITY, DiscreteMeasure((1.0, 2.0, 3.0), (0.5, 0.25, 0.25)))
        x = np.concatenate([law[:, i] for i, law in enumerate(laws[:-1])] + [np.zeros(4)])
        assert x.size == problem.a.shape[1]
        solution = LpSolution(0.0, x, np.zeros(0), 0.0, 0.0, 0.0)
        assert lp_solution_to_kernel(problem, solution).q[1].tobytes() == want.q[1].tobytes()

    def test_clamps_into_the_unit_interval_and_writes_no_negative_zero(self):
        hist = LatticeSpec(depth=2, dt=1.0, mode="history")
        law = np.array([[-0.0, 0.0], [-0.25, 0.0]])
        last = np.zeros((4, 2))
        q = kernel_from_laws(hist, (1.0, 2.0), [law, last]).q[0]
        assert [repr(v) for v in q.tolist()] == ["0.0", "0.0"]
        q = kernel_from_laws(hist, (1.0, 2.0), [np.array([[1.5], [0.5]]), last]).q[0]
        assert q.tolist() == [1.0, 0.5]


class TestValidation:
    def test_final_atom_must_stop(self):
        spec = LatticeSpec(depth=1, dt=1.0)
        with pytest.raises(ValidationError, match="final atom must stop surely"):
            kernel_from_dict(spec, (1.0,), {
                NodeId(step=1, level=1): 0.9, NodeId(step=1, level=-1): 1.0,
            })

    def test_missing_node(self):
        spec = LatticeSpec(depth=1, dt=1.0)
        with pytest.raises(ValidationError, match="step 1 has 2 nodes"):
            StoppingKernel(spec, (1.0,), [[1.0]])

    def test_probability_out_of_range(self):
        spec, _ = worked_kernel()
        q = {NodeId(step=1, level=1): 1.2, NodeId(step=1, level=-1): 0.0}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        with pytest.raises(ValidationError, match=r"q = 1.2 at position 1 of step 1 must be a"):
            kernel_from_dict(spec, (1.0, 2.0), q)

    def test_entry_off_the_atom_grid(self):
        # An array per atom step: a second array has no atom to sit at.
        spec, _ = worked_kernel()
        with pytest.raises(ValidationError, match="2 stop arrays for 1 atoms"):
            StoppingKernel(spec, (1.0,), [[1.0, 1.0], [0.5, 0.5, 0.5]])

    def test_atom_times_must_increase(self):
        spec, _ = worked_kernel()
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (2.0, 1.0), [])
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (), [])

    def test_near_miss_probabilities_snap(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 1.0 + 1e-14,
             NodeId(step=1, level=-1): -1e-14}
        q.update({NodeId(step=2, level=l): 1.0 for l in (-2, 0, 2)})
        kernel = kernel_from_dict(spec, (1.0, 2.0), q)
        assert kernel_dict(kernel)[NodeId(step=1, level=1)] == 1.0
        assert kernel_dict(kernel)[NodeId(step=1, level=-1)] == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_probability_rejected(self, bad):
        spec, kernel = worked_kernel()
        with pytest.raises(ValidationError, match="at position 0 of step 1 must be a number"):
            StoppingKernel(spec, (1.0, 2.0), [[bad, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValidationError, match="final atom must stop surely"):
            StoppingKernel(spec, (1.0, 2.0), [[1.0, 0.0], [1.0, bad, 1.0]])

    def test_arrays_only(self):
        spec, kernel = worked_kernel()
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0, 2.0), kernel_dict(kernel))
        with pytest.raises(ValidationError):
            StoppingKernel(spec, (1.0, 2.0), [[1.0, 0.0], [[1.0, 1.0, 1.0]]])

    def test_a_kernel_equals_no_other_type(self):
        _, kernel = worked_kernel()
        assert kernel.__eq__(kernel.q) is NotImplemented
        assert kernel != kernel.q

    def test_built_from_a_copy_and_read_only(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        first = np.array([0.25, 0.5])
        kernel = StoppingKernel(spec, (1.0, 2.0), [first, np.ones(3)])
        first[0] = 0.75
        assert kernel.q[0].tolist() == [0.25, 0.5]
        with pytest.raises(ValueError):
            kernel.q[0][0] = 0.75
        with pytest.raises(AttributeError):
            kernel.q = ()


class TestPushRight:
    def test_point_mass_shifts_one_step(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        q = {NodeId(step=1, level=1): 1.0, NodeId(step=1, level=-1): 1.0}
        kernel = kernel_from_dict(spec, (1.0,), q)
        target = DiscreteMeasure((2.0,), (1.0,))
        pushed, shift = push_right_with_shift(kernel, target)
        assert shift == pytest.approx(1.0, abs=1e-15)
        assert marginal_of(pushed) == target

    def test_identity_coupling_is_a_no_op(self):
        _, kernel = worked_kernel()
        pushed, _ = push_right_with_shift(kernel, marginal_of(kernel))
        assert pushed == kernel

    def test_two_atom_shift(self):
        spec = LatticeSpec(depth=3, dt=1.0)
        rng = np.random.default_rng(5)
        source = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        kernel = feasible_kernel(spec, source, rng)
        target = DiscreteMeasure((2.0, 3.0), (0.5, 0.5))
        pushed, shift = push_right_with_shift(kernel, target)
        assert shift == pytest.approx(1.0, abs=1e-12)
        got = marginal_of(pushed)
        assert got.atoms == (2.0, 3.0)
        assert got.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_leftward_coupling_rejected(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        rng = np.random.default_rng(6)
        source = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        kernel = feasible_kernel(spec, source, rng)
        with pytest.raises(RightShiftError):
            push_right_with_shift(kernel, DiscreteMeasure((1.0,), (1.0,)))

    def test_atom_never_stopped_at(self):
        # The marginal drops the middle atom; its stop mass is zero everywhere.
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = StoppingKernel(spec, (1.0, 2.0, 3.0), [[0.5, 0.5], [0.0] * 3, [1.0] * 4])
        marg = marginal_of(kernel)
        assert marg.atoms == (1.0, 3.0)
        target = DiscreteMeasure((3.0,), (1.0,))
        pushed, shift = push_right_with_shift(kernel, target)
        assert shift == pytest.approx(1.0, abs=1e-15)
        assert marginal_of(pushed) == target

    def test_shift_equals_transport_distance(self):
        rng = np.random.default_rng(21)
        spec = LatticeSpec(depth=5, dt=0.5)
        times = [0.5, 1.0, 1.5, 2.0, 2.5]
        for _ in range(10):
            atoms = sorted(rng.choice(times, size=3, replace=False))
            source = random_measure(rng, atoms)
            kernel = feasible_kernel(spec, source, rng)
            marg = marginal_of(kernel)
            hi = [t for t in times if t >= atoms[-1]]
            grid = sorted(set(rng.choice(hi, size=1, replace=False)) | {2.5})
            target = ceiling_project(marg, grid)
            _, shift = push_right_with_shift(kernel, target)
            assert shift == pytest.approx(w1_distance(marg, target), abs=1e-12)


class TestSimulate:
    def test_seed_makes_runs_identical(self):
        _, kernel = worked_kernel()
        a = simulate(kernel, INDICATOR, n_paths=40_000, seed=123)
        b = simulate(kernel, INDICATOR, n_paths=40_000, seed=123)
        assert a.mean == b.mean
        assert a.stderr == b.stderr
        assert a.empirical_marginal == b.empirical_marginal

    def test_worked_rule_estimates_half(self):
        _, kernel = worked_kernel()
        report = simulate(kernel, INDICATOR, n_paths=100_000, seed=2024)
        assert abs(report.mean - 0.5) <= 3.0 * report.stderr

    def test_empirical_marginal_tracks_law(self):
        rng = np.random.default_rng(9)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((0.25, 0.75, 1.0), (0.3, 0.5, 0.2))
        kernel = feasible_kernel(spec, mu, rng)
        n = 200_000
        report = simulate(kernel, SQUARE, n_paths=n, seed=77)
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
        exact = objective_value(kernel, cost)
        report = simulate(kernel, cost, n_paths=100_000, seed=42)
        assert abs(report.mean - exact) <= 4.0 * report.stderr

    def test_golden_run(self):
        # Pins the draw order: the step draws up to an atom, then its stop
        # draw.  A sweep that reorders its draws changes these numbers.
        spec = LatticeSpec(depth=5, dt=0.5, augment_max=True)
        q = [np.linspace(0.1, 0.7, node_count(spec, s)) for s in (2, 3)]
        kernel = StoppingKernel(spec, (1.0, 1.5, 2.5), q + [np.ones(node_count(spec, 5))])
        cost = CostSpec(kind="running_max", name="identity")
        report = simulate(kernel, cost, n_paths=10_000, seed=2026)
        assert (report.mean, report.stderr) == (0.6912675892879689, 0.006682018926768599)
        assert report.empirical_marginal == DiscreteMeasure((1.0, 1.5, 2.5),
                                                            (0.3976, 0.1964, 0.406))

    def test_path_guard(self):
        _, kernel = worked_kernel()
        with pytest.raises(SizeGuardError, match="limit 100000000"):
            simulate(kernel, INDICATOR, n_paths=10 ** 8 + 1, seed=1)


class TestGenerators:
    def test_feasible_kernel_hits_target_exactly(self):
        rng = np.random.default_rng(13)
        spec = LatticeSpec(depth=5, dt=0.2)
        for _ in range(10):
            mu = random_measure(rng, (0.2, 0.6, 1.0))
            kernel = feasible_kernel(spec, mu, rng)
            marg = marginal_of(kernel)
            assert marg.weights == pytest.approx(mu.weights, abs=1e-12)

    @pytest.mark.parametrize("depth", [4, 8, 12])
    @pytest.mark.parametrize("mode, augment", [
        ("recombining", False), ("recombining", True), ("history", False)])
    def test_feasible_kernel_hits_the_law_to_1e_15(self, mode, augment, depth):
        spec = LatticeSpec(depth=depth, dt=1.0, mode=mode, augment_max=augment)
        atoms = (depth / 4, depth / 2, 3 * depth / 4, float(depth))
        for weights in ([1e-9, 1e-9, 1 - 3e-9, 1e-9], [0.1, 0.85, 0.04999, 1e-5],
                        [0.25] * 4, [0.7, 0.2999999, 1e-7]):
            mu = DiscreteMeasure(atoms[-len(weights):], weights)
            for seed in range(20):
                kernel = feasible_kernel(spec, mu, np.random.default_rng(seed))
                assert kernel == feasible_kernel(spec, mu, np.random.default_rng(seed))
                assert all(((q >= 0.0) & (q <= 1.0)).all() for q in kernel.q)
                got = marginal_of(kernel)
                assert got.atoms == mu.atoms
                assert np.abs(np.subtract(got.weights, mu.weights)).max() <= 1e-15

    def test_an_atom_that_takes_all_the_alive_mass_stops_it_everywhere(self):
        # Within WEIGHT_TOL of one, the first two weights already take all the
        # mass; the third atom then finds none alive.
        spec = LatticeSpec(depth=4, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0, 3.0, 4.0), (0.25, 0.75 + 2e-13, 2e-13, 1e-13))
        kernel = feasible_kernel(spec, mu, np.random.default_rng(0))
        assert [q.tolist() for q in kernel.q[1:3]] == [[1.0] * 3, [1.0] * 4]
        assert marginal_of(kernel).weights == pytest.approx((0.25, 0.75), abs=1e-15)

    def test_random_kernel_is_valid(self):
        rng = np.random.default_rng(14)
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = random_kernel(spec, (1.0, 3.0), rng)
        assert [len(values) for values in kernel.q] == [2, 4]
        assert kernel.q[-1].tolist() == [1.0] * 4
        assert all(0.0 <= v <= 1.0 for values in kernel.q for v in values)


class TestJson:
    def test_round_trip(self):
        rng = np.random.default_rng(15)
        spec = LatticeSpec(depth=3, dt=0.5, mode="history")
        kernel = random_kernel(spec, (0.5, 1.5), rng)
        again = kernel_from_json(spec, kernel_to_json(kernel))
        assert again == kernel

    def test_round_trip_on_every_lattice_mode(self):
        rng = np.random.default_rng(16)
        for mode, augment in LATTICE_MODES:
            spec = LatticeSpec(depth=4, dt=0.5, mode=mode, augment_max=augment)
            kernel = random_kernel(spec, (0.5, 1.5, 2.0), rng)
            again = kernel_from_json(spec, json.loads(json.dumps(kernel_to_json(kernel))))
            assert again == kernel
            assert kernel_dict(again) == kernel_dict(kernel)


# --- The dict walks the per-step arrays replaced, kept as references. -------

LATTICE_MODES = [("recombining", False), ("recombining", True), ("history", False)]


def reference_forward_stops(kernel):
    spec = kernel.spec
    q = kernel_dict(kernel)
    steps = kernel.steps
    last = steps[-1]
    alive = {root(spec): 1.0}
    stops = []
    for s in range(0, last + 1):
        if s in steps:
            stopped = {}
            for node, mass in alive.items():
                qv = q[node]
                stopped[node] = mass * qv
                alive[node] = mass * (1.0 - qv)
            stops.append(stopped)
        if s < last:
            alive = reference_advance(
                spec, ((node, mass) for node, mass in alive.items() if mass != 0.0))
    return stops


def reference_marginal(kernel):
    return DiscreteMeasure(kernel.atom_times,
                           [sum(d.values()) for d in reference_forward_stops(kernel)])


def reference_objective(kernel, cost):
    spec = kernel.spec
    total = 0.0
    for stopped in reference_forward_stops(kernel):
        for node, mass in stopped.items():
            if mass != 0.0:
                total += mass * stop_cost(cost, spec, node)
    return total


def random_instances(mode, augment, seed):
    """Random kernels with random coarser right-shift targets, depths 1 to 8."""
    rng = np.random.default_rng(seed)
    for depth in range(1, 9):
        spec = LatticeSpec(depth=depth, dt=0.5, mode=mode, augment_max=augment)
        times = [0.5 * s for s in range(1, depth + 1)]
        for _ in range(3):
            n_atoms = int(rng.integers(1, min(4, depth) + 1))
            atoms = sorted(rng.choice(times, size=n_atoms, replace=False))
            kernel_seed = int(rng.integers(1 << 30))
            kernel = random_kernel(spec, atoms, np.random.default_rng(kernel_seed))
            yield spec, kernel, rng
            # A pure rule has dead nodes, which the dict walks left out.
            pure = StoppingKernel(spec, atoms, [np.round(v) for v in kernel.q])
            yield spec, pure, rng


def random_right_shift(marg, spec, rng):
    """A later law: either the ceiling onto a coarser grid, or random moves to later times.

    The random moves split each atom's mass over several later times, so the
    monotone coupling splits it too and earmarks pile up at several atoms.
    """
    times = [spec.dt * s for s in range(1, spec.depth + 1)]
    if rng.random() < 0.5:
        grid = sorted({float(t) for t in rng.choice(times, size=2)} | {times[-1]})
        return ceiling_project(marg, grid)
    weights = dict.fromkeys(times, 0.0)
    for a, w in zip(marg.atoms, marg.weights):
        later = [t for t in times if t >= a - ATOM_MERGE_TOL]
        for t, share in zip(later, rng.dirichlet(np.ones(len(later)))):
            weights[t] += w * share
    return DiscreteMeasure(list(weights), list(weights.values()))


class TestAgainstTheDictWalks:
    """The array sweeps reproduce the per-node dict walks they replaced."""

    @pytest.mark.parametrize("mode,augment", LATTICE_MODES)
    def test_marginal_and_objective(self, mode, augment):
        cost = CostSpec(kind="running_max", name="square") if mode == "history" or augment \
            else SQUARE
        for spec, kernel, _ in random_instances(mode, augment, 42):
            got, want = marginal_of(kernel), reference_marginal(kernel)
            assert got.atoms == want.atoms
            assert got.weights == pytest.approx(want.weights, abs=1e-14, rel=0)
            assert objective_value(kernel, cost) == pytest.approx(
                reference_objective(kernel, cost), abs=1e-14, rel=0)

    @pytest.mark.parametrize("mode,augment", LATTICE_MODES)
    def test_push_right(self, mode, augment):
        # The pushed marginal is the target and the shift is the W1 distance,
        # on kernels that never stop at some of their atoms too.
        shifted = 0
        for spec, kernel, rng in random_instances(mode, augment, 43):
            marg = marginal_of(kernel)
            target = random_right_shift(marg, spec, rng)
            pushed, shift = push_right_with_shift(kernel, target)
            assert marginal_of(pushed).weights == pytest.approx(target.weights, abs=1e-12)
            assert shift == pytest.approx(w1_distance(marg, target), abs=1e-12, rel=0)
            shifted += shift > ATOM_MERGE_TOL
        assert 10 <= shifted < 48

    @pytest.mark.parametrize("mode,augment", LATTICE_MODES)
    def test_simulate(self, mode, augment):
        # The sample's mean within five standard errors of the walk's
        # objective, its stderr within 10% of the walk's, and each stop-date
        # frequency within five standard errors of the walk's stop mass.
        cost = CostSpec(kind="running_max", name="identity") if mode == "history" or augment \
            else IDENTITY
        n = 20_000
        for k, (spec, kernel, _) in enumerate(random_instances(mode, augment, 44)):
            report = simulate(kernel, cost, n_paths=n, seed=k)
            stops = reference_forward_stops(kernel)
            law = [(mass, stop_cost(cost, spec, node))
                   for stopped in stops for node, mass in stopped.items() if mass != 0.0]
            mean = math.fsum(mass * c for mass, c in law)
            stderr = math.sqrt(math.fsum(mass * (c - mean) ** 2 for mass, c in law) / n)
            assert abs(report.mean - mean) <= 5.0 * stderr + 1e-12, k
            assert report.stderr == pytest.approx(stderr, rel=0.1, abs=1e-12), k
            got = dict(zip(report.empirical_marginal.atoms, report.empirical_marginal.weights))
            for t, stopped in zip(kernel.atom_times, stops):
                p = sum(stopped.values())
                band = 5.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
                assert abs(got.get(t, 0.0) - p) <= band + 1e-12, (k, t)


class TestCountSampler:
    """Node counts split binomially sample the kernel's law, at any path count."""

    @pytest.mark.parametrize("mode,augment", LATTICE_MODES)
    def test_stop_counts_fit_the_forward_masses(self, mode, augment):
        # Pearson's test of the per-node stop counts against n times the
        # exact stop masses, cells of expected count below 5 pooled into one.
        n = 20_000
        for k, (_, kernel, _) in enumerate(random_instances(mode, augment, 45)):
            counts = np.concatenate(_sample_stops(kernel, n, np.random.default_rng(k)))
            expected = n * np.concatenate(_forward_stops(kernel))
            assert counts.dtype == np.int64 and counts.sum() == n
            assert not counts[expected == 0.0].any()
            small = expected < 5.0
            obs = np.append(counts[~small], counts[small].sum())
            exp = np.append(expected[~small], expected[small].sum())
            obs, exp = obs[exp > 0.0], exp[exp > 0.0]
            if obs.size < 2:
                assert obs.tolist() == [n]
                continue
            stat = float(((obs - exp) ** 2 / exp).sum())
            assert chi2.sf(stat, obs.size - 1) > 1e-4, (k, stat, obs.size)

    @pytest.mark.parametrize("mode,augment", LATTICE_MODES)
    def test_calibrated_over_seeds(self, mode, augment):
        spec = LatticeSpec(depth=8, dt=0.5, mode=mode, augment_max=augment)
        cost = CostSpec(kind="running_max", name="identity") if mode == "history" or augment \
            else IDENTITY
        kernel = random_kernel(spec, (1.0, 2.5, 4.0), np.random.default_rng(46))
        exact = objective_value(kernel, cost)
        z = []
        for seed in range(200):
            report = simulate(kernel, cost, n_paths=10_000, seed=seed)
            z.append((report.mean - exact) / report.stderr)
        assert abs(np.mean(z)) <= 0.3
        assert 0.8 <= np.std(z, ddof=1) <= 1.2

    def test_the_path_limit_allocates_nothing_per_path(self):
        spec = LatticeSpec(depth=10, dt=1.0, mode="history")
        kernel = random_kernel(spec, (3.0, 6.0, 10.0), np.random.default_rng(47))
        # Stop costs up to 1e306, whose squared deviations pass the floats.
        huge = CostSpec(kind="running_max", name="polynomial", params={"coeffs": [0.0, 1e305]})
        unit = CostSpec(kind="running_max", name="polynomial", params={"coeffs": [0.0, 1.0]})
        tracemalloc.start()
        try:
            start = time.perf_counter()
            report = simulate(kernel, huge, n_paths=SIM_PATH_LIMIT, seed=3)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 5.0
        assert peak < 10 ** 6  # under one byte per hundred paths
        counts = _sample_stops(kernel, SIM_PATH_LIMIT, np.random.default_rng(3))
        assert sum(int(c.sum()) for c in counts) == SIM_PATH_LIMIT
        assert math.isfinite(report.mean) and 0.0 < report.stderr < math.inf
        assert abs(report.mean - objective_value(kernel, huge)) <= 4.0 * report.stderr
        small = simulate(kernel, unit, n_paths=SIM_PATH_LIMIT, seed=3)
        assert report.empirical_marginal == small.empirical_marginal
        assert report.mean == pytest.approx(1e305 * small.mean, rel=1e-14)
        assert report.stderr == pytest.approx(1e305 * small.stderr, rel=1e-14)
