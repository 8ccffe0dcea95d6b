"""Simplex-based cross-check of the stopping value, plus LP plumbing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    LpProblem,
    NodeId,
    SizeGuardError,
    StoppingKernel,
    ValidationError,
    build_lp,
    evaluate,
    feasible_kernel,
    lp_solution_to_kernel,
    marginal_of,
    objective_value,
    oracle_value,
    solve,
    solve_lp,
)
from dcstop.lattice import atom_steps, histories, state
from dcstop.oracle import LpSolution

from conftest import random_measure

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
IDENTITY = CostSpec(kind="terminal", name="identity")
ABS = CostSpec(kind="terminal", name="abs")


def worked_problem():
    spec = LatticeSpec(depth=2, dt=1.0)
    mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    return build_lp(spec, INDICATOR, mu)


def tiny_problem(a, b, c):
    """Wrap a handmade equality-form system in the problem container."""
    spec = LatticeSpec(depth=1, dt=1.0)
    mu = DiscreteMeasure((1.0,), (1.0,))
    return LpProblem(
        spec=spec, cost=IDENTITY, mu=mu, steps=(1,),
        a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
    )


def column(steps, i, code):
    """Column of the history with ``code`` in atom ``i``'s block."""
    return sum(2 ** s for s in steps[:i]) + code


def reference_build_lp(spec, cost, mu):
    """The tuple-keyed assembly the index arithmetic replaced: ``(a, b, c)``."""
    steps = tuple(atom_steps(spec, mu.atoms))
    horizon = steps[-1]
    hist = LatticeSpec(depth=horizon, dt=spec.dt, mode="history")
    var_keys, col = [], {}
    for i, s in enumerate(steps):
        for bits in histories(s):
            col[(i, bits)] = len(var_keys)
            var_keys.append((i, bits))
    n_leaves = 2 ** horizon
    a = np.zeros((n_leaves + len(steps), len(var_keys)))
    b = np.zeros(n_leaves + len(steps))
    c = np.zeros(len(var_keys))
    for leaf, bits in enumerate(histories(horizon)):
        for i, s in enumerate(steps):
            a[leaf, col[(i, bits[:s])]] = 1.0
        b[leaf] = 1.0
    for i, s in enumerate(steps):
        for bits in histories(s):
            a[n_leaves + i, col[(i, bits)]] = 1.0
        b[n_leaves + i] = mu.weights[i] * 2 ** s
    for j, (i, bits) in enumerate(var_keys):
        node = NodeId(step=steps[i], history=bits)
        c[j] = evaluate(cost, state(hist, node)) * 2.0 ** (-steps[i])
    return a, b, c, var_keys


def reference_kernel_q(problem, x, var_keys):
    """The tuple-keyed hazard read-off the shifted codes replaced."""
    steps = problem.steps
    by_node = {key: float(x[j]) for j, key in enumerate(var_keys)}
    q = {}
    for i, s in enumerate(steps):
        final = i == len(steps) - 1
        for bits in histories(s):
            used = sum(by_node[(j, bits[:steps[j]])] for j in range(i))
            remaining = 1.0 - used
            node = NodeId(step=s, history=bits)
            if final:
                q[node] = 1.0
            elif remaining <= 1e-12:
                q[node] = 0.0
            else:
                q[node] = min(1.0, max(0.0, by_node[(i, bits)] / remaining))
    hist = LatticeSpec(depth=steps[-1], dt=problem.spec.dt, mode="history")
    return StoppingKernel(hist, problem.mu.atoms, q).q


class TestBuildLp:
    def test_worked_problem_dimensions(self):
        problem = worked_problem()
        assert problem.steps == (1, 2)
        assert problem.a.shape == (6, 6)
        # One block per atom, 2**step columns wide: codes 0-1, then 0-3.
        assert column(problem.steps, 1, 0) == 2
        assert column(problem.steps, 1, 3) == problem.a.shape[1] - 1

    def test_row_structure(self):
        problem = worked_problem()
        assert set(np.unique(problem.a)) <= {0.0, 1.0}
        paths = range(4)
        assert all(problem.a[i].sum() == 2 for i in paths)
        assert all(problem.b[i] == 1.0 for i in paths)
        # Leaf row c holds its prefix c >> 1 in the first block and itself in the second.
        for leaf in paths:
            assert problem.a[leaf, column(problem.steps, 0, leaf >> 1)] == 1.0
            assert problem.a[leaf, column(problem.steps, 1, leaf)] == 1.0
        marginals = [4, 5]
        # Marginal rows are scaled by the path count at their step.
        assert problem.a[marginals[0]].sum() == 2
        assert problem.a[marginals[0], :2].sum() == 2
        assert problem.b[marginals[0]] == pytest.approx(1.0)
        assert problem.a[marginals[1]].sum() == 4
        assert problem.a[marginals[1], 2:].sum() == 4
        assert problem.b[marginals[1]] == pytest.approx(2.0)

    def test_objective_uses_true_path_weights(self):
        problem = worked_problem()
        coeff = problem.c
        assert coeff[column(problem.steps, 0, 0b1)] == pytest.approx(0.5)
        assert coeff[column(problem.steps, 0, 0b0)] == pytest.approx(0.0)
        assert coeff[column(problem.steps, 1, 0b11)] == pytest.approx(0.25)
        assert coeff[column(problem.steps, 1, 0b01)] == pytest.approx(0.0)

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_matches_the_tuple_keyed_assembly(self, depth, augment):
        rng = np.random.default_rng(depth + 10 * augment)
        spec = LatticeSpec(depth=depth, dt=0.5, augment_max=augment)
        costs = [ABS, CostSpec(kind="running_max", name="identity") if augment else INDICATOR]
        for n_atoms in range(1, min(4, depth) + 1):
            steps = sorted(rng.choice(np.arange(1, depth + 1), n_atoms, replace=False))
            steps[-1] = depth
            mu = random_measure(rng, [0.5 * s for s in sorted(set(steps))])
            for cost in costs:
                problem = build_lp(spec, cost, mu)
                a, b, c, var_keys = reference_build_lp(spec, cost, mu)
                assert np.array_equal(problem.a, a)
                assert np.array_equal(problem.b, b)
                assert np.array_equal(problem.c, c)
                # Masses past one, exact zeros and signed zeros reach every
                # branch of the hazard read-off.
                x = rng.uniform(0.0, 0.7, a.shape[1])
                x[rng.random(x.size) < 0.2] = 0.0
                x[rng.random(x.size) < 0.1] = -0.0
                solution = LpSolution("optimal", 0.0, x, (), np.zeros(0), 0.0, 0.0, 0.0)
                got = lp_solution_to_kernel(problem, solution).q
                want = reference_kernel_q(problem, x, var_keys)
                assert [(k, repr(v)) for k, v in got.items()] == \
                    [(k, repr(v)) for k, v in want.items()]

    def test_depth_guard(self):
        spec = LatticeSpec(depth=13, dt=1.0)
        mu = DiscreteMeasure((1.0, 13.0), (0.5, 0.5))
        with pytest.raises(SizeGuardError):
            build_lp(spec, IDENTITY, mu)


class TestSolveLp:
    def test_worked_problem_value_and_argmax(self):
        problem = worked_problem()
        solution = solve_lp(problem)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(0.5, abs=1e-12)
        x = solution.x
        assert x[column(problem.steps, 0, 0b1)] == pytest.approx(1.0, abs=1e-12)
        assert x[column(problem.steps, 0, 0b0)] == pytest.approx(0.0, abs=1e-12)

    def test_worked_problem_against_line_sweep(self):
        # With p the stop probability at the favorable first-step node, the
        # whole feasible set collapses to one dimension and the objective is
        # affine in p; the sweep maximum must match the simplex answer.
        problem = worked_problem()
        best = max(0.25 + 0.25 * p for p in np.linspace(0.0, 1.0, 101))
        assert solve_lp(problem).value == pytest.approx(best, abs=1e-12)

    def test_point_mass_law_is_forced(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((2.0,), (1.0,))
        problem = build_lp(spec, INDICATOR, mu)
        solution = solve_lp(problem)
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(0.25, abs=1e-12)
        assert solution.x == pytest.approx(np.ones(4), abs=1e-12)

    def test_handmade_budget_problem(self):
        solution = solve_lp(tiny_problem([[1.0, 1.0]], [1.0], [1.0, 1.0]))
        assert solution.status == "optimal"
        assert solution.value == pytest.approx(1.0, abs=1e-12)

    def test_handmade_corner_preference(self):
        solution = solve_lp(tiny_problem([[1.0, 1.0]], [1.0], [2.0, 1.0]))
        assert solution.value == pytest.approx(2.0, abs=1e-12)
        assert solution.x == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_infeasible_system(self):
        solution = solve_lp(tiny_problem([[1.0]], [-1.0], [0.0]))
        assert solution.status == "infeasible"
        assert np.isnan(solution.value)

    def test_unbounded_system(self):
        with pytest.raises(ValidationError):
            solve_lp(tiny_problem([[0.0]], [0.0], [1.0]))

    def test_exact_arithmetic_agrees(self):
        problem = worked_problem()
        assert solve_lp(problem, exact=True).value == 0.5
        rng = np.random.default_rng(70)
        spec = LatticeSpec(depth=3, dt=1.0)
        mu = random_measure(rng, (1.0, 2.0, 3.0))
        problem = build_lp(spec, ABS, mu)
        float_value = solve_lp(problem).value
        exact_value = solve_lp(problem, exact=True).value
        assert abs(float_value - exact_value) <= 1e-9

    def test_duality_certificates(self):
        rng = np.random.default_rng(71)
        spec = LatticeSpec(depth=3, dt=1.0)
        for cost in (INDICATOR, ABS):
            mu = random_measure(rng, (1.0, 2.0, 3.0))
            solution = solve_lp(build_lp(spec, cost, mu))
            assert solution.reduced_cost_violation <= 1e-9
            assert solution.slackness_violation <= 1e-9
            assert solution.duality_gap <= 1e-9


class TestKernelExtraction:
    def test_round_trip_matches_value_and_law(self):
        rng = np.random.default_rng(72)
        spec = LatticeSpec(depth=3, dt=1.0)
        for cost in (INDICATOR, ABS, IDENTITY):
            mu = random_measure(rng, (1.0, 2.0, 3.0))
            problem = build_lp(spec, cost, mu)
            solution = solve_lp(problem)
            kernel = lp_solution_to_kernel(problem, solution)
            hist = kernel.spec
            marg = marginal_of(kernel, hist)
            assert marg.atoms == mu.atoms
            assert marg.weights == pytest.approx(mu.weights, abs=1e-10)
            got = objective_value(kernel, hist, cost)
            assert got == pytest.approx(solution.value, abs=1e-10)

    def test_worked_problem_kernel(self):
        problem = worked_problem()
        kernel = lp_solution_to_kernel(problem, solve_lp(problem))
        up = [n for n in kernel.q if n.step == 1 and n.history == (1,)][0]
        down = [n for n in kernel.q if n.step == 1 and n.history == (0,)][0]
        assert kernel.q[up] == pytest.approx(1.0, abs=1e-12)
        assert kernel.q[down] == pytest.approx(0.0, abs=1e-12)


class TestOracleValue:
    def test_dominates_every_feasible_kernel(self):
        rng = np.random.default_rng(73)
        spec = LatticeSpec(depth=3, dt=1.0)
        mu = random_measure(rng, (1.0, 2.0, 3.0))
        bound = oracle_value(spec, INDICATOR, mu)
        for _ in range(100):
            kernel = feasible_kernel(spec, mu, rng)
            assert objective_value(kernel, spec, INDICATOR) <= bound + 1e-9

    def test_martingale_identities(self):
        rng = np.random.default_rng(74)
        spec = LatticeSpec(depth=4, dt=0.25)
        for _ in range(3):
            mu = random_measure(rng, (0.25, 0.5, 1.0))
            assert oracle_value(spec, IDENTITY, mu) == pytest.approx(0.0, abs=1e-9)
            square = CostSpec(kind="terminal", name="square")
            assert oracle_value(spec, square, mu) == pytest.approx(mu.mean(), abs=1e-9)

    def test_agrees_with_the_block_solver(self):
        rng = np.random.default_rng(75)
        spec = LatticeSpec(depth=4, dt=0.25)
        for cost in (INDICATOR, ABS):
            mu = random_measure(rng, (0.25, 0.75, 1.0))
            lp = oracle_value(spec, cost, mu)
            dp = solve(spec, cost, mu, resolution=30).root_value
            assert abs(lp - dp) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_block_solver_matches_both_arithmetics(self, data):
        depth = data.draw(st.integers(1, 5), label="depth")
        augment = data.draw(st.booleans(), label="augment_max")
        steps = sorted(data.draw(
            st.lists(st.integers(1, depth), min_size=1, max_size=3, unique=True), label="steps"
        ))
        units = data.draw(
            st.lists(st.integers(1, 9), min_size=len(steps), max_size=len(steps)), label="units"
        )
        level = float(data.draw(st.integers(-depth, depth), label="level"))
        costs = [
            IDENTITY,
            CostSpec(kind="terminal", name="polynomial", params={"coeffs": [2.5]}),
            CostSpec(kind="terminal", name="indicator", params={"threshold": level}),
            ABS,
        ]
        if augment:
            costs.append(CostSpec(kind="running_max", name="indicator",
                                  params={"threshold": abs(level)}))
        cost = data.draw(st.sampled_from(costs), label="cost")
        spec = LatticeSpec(depth=depth, dt=1.0, augment_max=augment)
        mu = DiscreteMeasure([float(s) for s in steps], [u / sum(units) for u in units])
        value = solve(spec, cost, mu, resolution=2).root_value
        assert abs(value - oracle_value(spec, cost, mu, exact=True)) <= 1e-9
        assert abs(value - oracle_value(spec, cost, mu)) <= 1e-7

    def test_overfull_marginal_row_is_infeasible(self):
        # More mass at the first atom than any rule can stop there.
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        problem = build_lp(spec, INDICATOR, mu)
        squeezed = replace(problem, b=problem.b.copy())
        squeezed.b[4] = 3.0
        assert solve_lp(squeezed).status == "infeasible"
