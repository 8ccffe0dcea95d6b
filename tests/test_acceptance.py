"""End-to-end acceptance gate, one test per criterion.

Run with ``pytest -v`` to get a pass/fail line per criterion.  Each test
also prints an ``ACCEPTANCE CRITERION`` line visible under ``-s``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    accumulate,
    build_lp,
    ceiling_project,
    convergence_sweep,
    feasible_kernel,
    from_kernel,
    lp_solution_to_kernel,
    marginal_of,
    objective_value,
    simulate,
    solve,
    solve_lp,
    to_kernel,
    w1_distance,
)

from dcstop.dpp import AGREE_TOL
from paper_checks import check_dpp, concavity_check, oracle_value, push_right_with_shift
from conftest import check_scaling, mean, random_kernel, random_measure

IDENTITY = CostSpec(kind="terminal", name="identity")
SQUARE = CostSpec(kind="terminal", name="square")

SWEEP_COSTS = (
    CostSpec(kind="terminal", name="abs"),
    CostSpec(kind="terminal", name="positive_part"),
    CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0}),
    CostSpec(kind="running_max", name="identity"),
)


def announce(number: int, label: str) -> None:
    print(f"ACCEPTANCE CRITERION {number:02d} ({label}): PASS")


@dataclass
class Instance:
    spec: LatticeSpec
    cost: CostSpec
    mu: DiscreteMeasure
    table: object
    lp_problem: object
    lp_solution: object
    solve_seconds: float
    worked: bool


def martingale_instances():
    """Twenty random laws on step subsets of a depth-six unit lattice."""
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(20):
        size = int(rng.integers(2, 4))
        steps = sorted(rng.choice(range(1, 7), size=size, replace=False))
        spec = LatticeSpec(depth=int(steps[-1]), dt=1.0)
        out.append((spec, random_measure(rng, [float(s) for s in steps])))
    return out


@pytest.fixture(scope="module")
def c12_instances():
    return martingale_instances()


@pytest.fixture(scope="module")
def c3_results():
    """Full sweep: every 2- or 3-step subset of the first four steps, all costs."""
    rng = np.random.default_rng(1003)
    step_sets = [c for n in (2, 3) for c in combinations((1, 2, 3, 4), n)]
    results = []
    for cost in SWEEP_COSTS:
        for steps in step_sets:
            spec = LatticeSpec(depth=steps[-1], dt=1.0, augment_max=True)
            mu = random_measure(rng, [float(s) for s in steps])
            start = time.perf_counter()
            table = solve(spec, cost, mu, resolution=200)
            elapsed = time.perf_counter() - start
            problem = build_lp(spec, cost, mu)
            solution = solve_lp(problem)
            results.append(Instance(spec, cost, mu, table, problem, solution,
                                    elapsed, worked=False))
    worked_spec = LatticeSpec(depth=2, dt=1.0, augment_max=True)
    worked_mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    worked_cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
    start = time.perf_counter()
    worked_table = solve(worked_spec, worked_cost, worked_mu, resolution=200)
    elapsed = time.perf_counter() - start
    worked_problem = build_lp(worked_spec, worked_cost, worked_mu)
    results.append(Instance(worked_spec, worked_cost, worked_mu, worked_table,
                            worked_problem, solve_lp(worked_problem), elapsed,
                            worked=True))
    return results


def test_criterion_01_identity_cost_prices_to_zero(c12_instances):
    for spec, mu in c12_instances:
        start = time.perf_counter()
        table = solve(spec, IDENTITY, mu, resolution=20)
        reference = oracle_value(spec, IDENTITY, mu)
        elapsed = time.perf_counter() - start
        assert abs(table.root_value) <= 1e-9
        assert abs(reference) <= 1e-9
        assert elapsed < 1.0
    announce(1, "identity cost zero on 20 random laws")


def test_criterion_02_square_cost_prices_to_mean(c12_instances):
    for spec, mu in c12_instances:
        table = solve(spec, SQUARE, mu, resolution=20)
        reference = oracle_value(spec, SQUARE, mu)
        assert abs(table.root_value - mean(mu)) <= 1e-9
        assert abs(reference - mean(mu)) <= 1e-9
    announce(2, "square cost equals mean stop time")


def test_criterion_03_solver_matches_oracle_across_the_sweep(c3_results):
    assert any(inst.worked for inst in c3_results)
    total = 0.0
    for inst in c3_results:
        diff = abs(inst.table.root_value - inst.lp_solution.value)
        assert diff <= 1e-9, (inst.cost.name, inst.mu.atoms, diff)
        total += inst.solve_seconds
        if inst.worked:
            assert inst.table.root_value == pytest.approx(0.5, abs=1e-9)
            assert inst.lp_solution.value == pytest.approx(0.5, abs=1e-9)
    assert total < 30.0
    announce(3, f"41-instance sweep vs oracle, {total:.1f}s of solves")


def test_criterion_04_dpp_identity_on_stopping_frontiers(c3_results):
    def first_step(spec, node):
        return node.step >= 1

    def hit_or_cap(spec, node):
        return (node.level is not None and node.level >= 1) or node.step >= 2

    for inst in c3_results:
        for theta in (first_step, hit_or_cap):
            residual = check_dpp(inst.table, inst.cost, theta)
            assert residual <= AGREE_TOL, (inst.cost.name, inst.mu.atoms, residual)
    announce(4, "frontier recomputation within AGREE_TOL everywhere")


def test_criterion_05_renormalization_identity():
    rng = np.random.default_rng(1005)
    for cost in SWEEP_COSTS:
        spec = LatticeSpec(depth=4, dt=0.5, augment_max=True)
        mu = random_measure(rng, (0.5, 1.0, 2.0))
        check_scaling(solve(spec, cost, mu, resolution=15), cost)
    announce(5, "stop/renormalize quotient verified to 1e-12")


def test_criterion_06_kernel_and_tree_objectives_coincide():
    rng = np.random.default_rng(1006)
    cost = CostSpec(kind="terminal", name="abs")
    checked = 0
    for _ in range(50):
        spec = LatticeSpec(depth=4, dt=0.5, mode="history")
        kernel = random_kernel(spec, (0.5, 1.0, 2.0), rng)
        tree = from_kernel(kernel)
        direct = objective_value(kernel, cost)
        via_tree = accumulate(tree, cost)
        assert abs(direct - via_tree) <= 1e-12
        again = to_kernel(tree)
        # Both kernels live on the same history lattice: positions line up.
        for got, want in zip(again.q, kernel.q):
            assert np.max(np.abs(got - want)) <= 1e-12
        checked += 1
    for _ in range(50):
        spec = LatticeSpec(depth=3, dt=1.0)
        kernel = random_kernel(spec, (1.0, 3.0), rng)
        tree = from_kernel(kernel)
        direct = objective_value(kernel, cost)
        via_tree = accumulate(tree, cost)
        assert abs(direct - via_tree) <= 1e-12
        again = to_kernel(tree)
        assert abs(objective_value(again, cost) - direct) <= 1e-12
        checked += 1
    assert checked == 100
    announce(6, "100 kernels agree with their law trees")


def test_criterion_07_time_shift_equals_transport_cost():
    rng = np.random.default_rng(1007)
    spec = LatticeSpec(depth=6, dt=0.5)
    times = [0.5 * s for s in range(1, 7)]
    for _ in range(50):
        atoms = sorted(rng.choice(times, size=int(rng.integers(2, 4)), replace=False))
        kernel = feasible_kernel(spec, random_measure(rng, atoms), rng)
        marg = marginal_of(kernel)
        later = [t for t in times if t >= atoms[-1]]
        grid = sorted(set(rng.choice(later, size=min(2, len(later)), replace=False))
                      | {times[-1]})
        target = ceiling_project(marg, grid)
        _, shift = push_right_with_shift(kernel, target)
        assert abs(shift - w1_distance(marg, target)) <= 1e-12
    announce(7, "50 rightward pushes realize their coupling cost")


def test_criterion_08_value_is_concave_in_the_target_law():
    rng = np.random.default_rng(1008)
    spec = LatticeSpec(depth=3, dt=1.0)
    cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
    lam_choices = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875)
    for _ in range(50):
        mu1 = random_measure(rng, (1.0, 2.0, 3.0))
        mu2 = random_measure(rng, sorted(rng.choice((1.0, 2.0, 3.0), size=2,
                                                    replace=False)))
        lam = float(rng.choice(lam_choices))
        rows = concavity_check(spec, cost, mu1, mu2, (lam,))
        assert all(row["ok"] for row in rows), rows
    announce(8, "50 random blends never fall below mixed values")


def test_criterion_09_refinement_gaps_respect_the_modulus():
    rng = np.random.default_rng(1009)
    spec = LatticeSpec(depth=4, dt=0.25, augment_max=True)
    grids = ([1.0], [0.5, 1.0], [0.25, 0.5, 0.75, 1.0])
    for cost in (SQUARE, CostSpec(kind="running_max", name="square")):
        mu = random_measure(rng, (0.3, 0.6, 0.9))
        rows = convergence_sweep(spec, cost, mu, grids)
        assert all(row["within"] for row in rows), rows
        gaps = [row["value_gap"] for row in rows]
        assert all(a >= b - 1e-9 for a, b in zip(gaps, gaps[1:])), gaps
    announce(9, "dyadic refinement gaps bounded by the modulus")


def test_criterion_10_simulation_confirms_every_sweep_instance(c3_results):
    for i, inst in enumerate(c3_results):
        kernel = lp_solution_to_kernel(inst.lp_problem, inst.lp_solution)
        expected = objective_value(kernel, inst.cost)
        report = simulate(kernel, inst.cost, n_paths=1_000_000, seed=2000 + i)
        deviation = abs(report.mean - expected)
        assert deviation <= 4.0 * report.stderr + 1e-12, (
            inst.cost.name, inst.mu.atoms, deviation, report.stderr)
    announce(10, "one million paths per instance within 4 stderr")
