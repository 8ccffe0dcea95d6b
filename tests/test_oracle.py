"""Simplex-based cross-check of the stopping value, plus LP plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcstop import (
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    LpProblem,
    SizeGuardError,
    ValidationError,
    build_lp,
    feasible_kernel,
    lp_solution_to_kernel,
    marginal_of,
    objective_value,
    oracle_value,
    solve,
    solve_lp,
)

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
    n = len(c)
    return LpProblem(
        spec=spec, cost=IDENTITY, mu=mu, steps=(1,),
        var_keys=tuple((0, (j,)) for j in range(n)),
        a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float), row_kinds=tuple("path" for _ in b),
    )


class TestBuildLp:
    def test_worked_problem_dimensions(self):
        problem = worked_problem()
        assert len(problem.var_keys) == 6
        assert problem.a.shape == (6, 6)
        assert problem.row_kinds.count("path") == 4
        assert problem.row_kinds.count("marginal") == 2
        expected_keys = {(0, (0,)), (0, (1,)),
                         (1, (0, 0)), (1, (0, 1)), (1, (1, 0)), (1, (1, 1))}
        assert set(problem.var_keys) == expected_keys

    def test_row_structure(self):
        problem = worked_problem()
        for row, kind in zip(problem.a, problem.row_kinds):
            assert set(np.unique(row)) <= {0.0, 1.0}
        paths = [i for i, k in enumerate(problem.row_kinds) if k == "path"]
        assert all(problem.a[i].sum() == 2 for i in paths)
        assert all(problem.b[i] == 1.0 for i in paths)
        marginals = [i for i, k in enumerate(problem.row_kinds) if k == "marginal"]
        # Marginal rows are scaled by the path count at their step.
        assert problem.a[marginals[0]].sum() == 2
        assert problem.b[marginals[0]] == pytest.approx(1.0)
        assert problem.a[marginals[1]].sum() == 4
        assert problem.b[marginals[1]] == pytest.approx(2.0)

    def test_objective_uses_true_path_weights(self):
        problem = worked_problem()
        coeff = dict(zip(problem.var_keys, problem.c))
        assert coeff[(0, (1,))] == pytest.approx(0.5)
        assert coeff[(0, (0,))] == pytest.approx(0.0)
        assert coeff[(1, (1, 1))] == pytest.approx(0.25)
        assert coeff[(1, (0, 1))] == pytest.approx(0.0)

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
        x = dict(zip(problem.var_keys, solution.x))
        assert x[(0, (1,))] == pytest.approx(1.0, abs=1e-12)
        assert x[(0, (0,))] == pytest.approx(0.0, abs=1e-12)

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
        squeezed = LpProblem(
            spec=problem.spec, cost=problem.cost, mu=problem.mu,
            steps=problem.steps, var_keys=problem.var_keys,
            a=problem.a, b=problem.b.copy(), c=problem.c,
            row_kinds=problem.row_kinds,
        )
        squeezed.b[4] = 3.0
        assert solve_lp(squeezed).status == "infeasible"
