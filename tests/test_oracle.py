"""Simplex-based cross-check of the stopping value, plus LP plumbing."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

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
    ValidationError,
    build_lp,
    feasible_kernel,
    lp_solution_to_kernel,
    marginal_of,
    objective_value,
    solve,
    solve_lp,
)
from dcstop.dpp import AGREE_TOL
from dcstop.lattice import atom_steps, histories, nodes_at_step
from dcstop import oracle
from dcstop.oracle import EXACT_DEPTH_LIMIT, ORACLE_DEPTH_LIMIT, LpSolution, highs
from dcstop.rst import DEAD_MASS

from paper_checks import oracle_value
from conftest import mean, random_measure, reference_simplex, stop_cost

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
IDENTITY = CostSpec(kind="terminal", name="identity")
ABS = CostSpec(kind="terminal", name="abs")


def worked_problem():
    spec = LatticeSpec(depth=2, dt=1.0)
    mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    return build_lp(spec, INDICATOR, mu)


def spy_on_highs(monkeypatch, **overrides):
    """Record each ``HighsLp`` handed to HiGHS; ``overrides`` replace solver methods."""
    seen = []

    class Spy(highs._Highs):
        def passModel(self, lp):
            seen.append(lp)
            return super().passModel(lp)

    for name, method in overrides.items():
        setattr(Spy, name, method)
    monkeypatch.setattr(highs, "_Highs", Spy)
    return seen


def tiny_problem(a, b, c):
    """Wrap a handmade equality-form system in the problem container."""
    spec = LatticeSpec(depth=1, dt=1.0)
    mu = DiscreteMeasure((1.0,), (1.0,))
    return LpProblem(
        spec=spec, mu=mu, steps=(1,),
        a=np.asarray(a, dtype=float), b=np.asarray(b, dtype=float),
        c=np.asarray(c, dtype=float),
    )


def column(steps, i, code):
    """Column of the history with ``code`` in atom ``i``'s block.

    For the last atom ``code`` is the step-``steps[-2]`` prefix.
    """
    return sum(2 ** s for s in steps[:i]) + code


def reference_build_lp(spec, cost, mu):
    """The full leaf-row LP, its columns keyed by ``(atom, history)``: ``(a, b, c)``.

    One path row and one last-atom column per leaf, the marginal rows scaled
    by ``2**step``.  ``build_lp`` merges the leaves under each step-``d``
    prefix (``merged_reference``).
    """
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
        c[j] = stop_cost(cost, hist, node) * 2.0 ** (-steps[i])
    return a, b, c


def merged_reference(spec, cost, mu):
    """The reference LP with each last-atom leaf class merged into its step-``d`` prefix.

    Leaf rows under one prefix agree on the earlier atoms' columns: one row
    stands for them all, with the merged column of its prefix.  The merged
    column's coefficient is the ``math.fsum`` of its leaves' coefficients.
    """
    a, b, c = reference_build_lp(spec, cost, mu)
    steps = tuple(atom_steps(spec, mu.atoms))
    horizon, d = steps[-1], (0, *steps)[-2]
    early, n_leaves, fan = sum(2 ** s for s in steps[:-1]), 2 ** steps[-1], 2 ** (horizon - d)
    firsts = a[:n_leaves:fan, :early]
    assert np.array_equal(a[:n_leaves, :early], np.repeat(firsts, fan, axis=0))
    marginals = np.hstack([a[n_leaves:, :early], np.zeros((len(steps), 2 ** d))])
    marginals[-1, early:] = 1.0
    merged_a = np.vstack([np.hstack([firsts, np.eye(2 ** d)]), marginals])
    merged_b = np.concatenate([np.ones(2 ** d), b[n_leaves:-1], [b[-1] / fan]])
    merged_c = np.concatenate([c[:early], [math.fsum(leaf) for leaf in c[early:].reshape(-1, fan)]])
    return merged_a, merged_b, merged_c


def reference_exact_value(spec, cost, mu) -> Fraction:
    """Exact optimum of the full leaf-row LP, its rounding defect absorbed at ``2**horizon``."""
    a, b, c = reference_build_lp(spec, cost, mu)
    steps = atom_steps(spec, mu.atoms)
    b = [Fraction(v) for v in b]
    defect = 1 - sum(w / 2 ** s for w, s in zip(b[len(b) - len(steps):], steps))
    if defect != 0 and abs(defect) < Fraction(1, 10 ** 9):
        b[-1] += defect * 2 ** steps[-1]
    return oracle._simplex(a, b, c)[0]


def reference_kernel_q(problem, x):
    """The tuple-keyed hazard read-off the shifted codes replaced.

    Each earlier atom's block holds one variable per history of its step, in
    code order; the last atom's block is not read, since it stops surely.
    """
    steps = problem.steps
    keys = [(i, bits) for i, s in enumerate(steps[:-1]) for bits in histories(s)]
    by_node = {key: float(v) for key, v in zip(keys, x)}
    q = {}
    for i, s in enumerate(steps):
        final = i == len(steps) - 1
        for bits in histories(s):
            used = sum(by_node[(j, bits[:steps[j]])] for j in range(i))
            remaining = 1.0 - used
            node = NodeId(step=s, history=bits)
            if final:
                q[node] = 1.0
            elif remaining <= DEAD_MASS:
                q[node] = 0.0
            else:
                q[node] = min(1.0, max(0.0, by_node[(i, bits)] / remaining))
    return q


def assert_hazards_match_the_read_off(problem, x, kernel):
    """Position by position, down to the sign of a zero."""
    want = reference_kernel_q(problem, x)
    assert kernel.spec == LatticeSpec(depth=problem.steps[-1], dt=problem.spec.dt, mode="history")
    assert kernel.atom_times == problem.mu.atoms
    for s, values in zip(problem.steps, kernel.q):
        nodes = nodes_at_step(kernel.spec, s)
        assert [repr(v) for v in values.tolist()] == [repr(want[n]) for n in nodes]


class TestBuildLp:
    def test_worked_problem_dimensions(self):
        problem = worked_problem()
        assert problem.steps == (1, 2)
        assert problem.a.shape == (4, 4)
        # Two path rows, one per step-1 prefix, then two marginal rows.  The
        # first block has 2**1 columns; the last block is indexed by the
        # step-1 prefix too, codes 0-1.
        assert column(problem.steps, 1, 0) == 2
        assert column(problem.steps, 1, 1) == problem.a.shape[1] - 1

    def test_row_structure(self):
        problem = worked_problem()
        assert set(np.unique(problem.a)) <= {0.0, 1.0}
        paths = range(2)
        assert all(problem.a[i].sum() == 2 for i in paths)
        assert all(problem.b[i] == 1.0 for i in paths)
        # Prefix row p holds p in both blocks: the first atom's step is d = 1.
        for prefix in paths:
            assert problem.a[prefix, column(problem.steps, 0, prefix)] == 1.0
            assert problem.a[prefix, column(problem.steps, 1, prefix)] == 1.0
        marginals = [2, 3]
        # Marginal rows are scaled by their block's width, 2**1 for both.
        assert problem.a[marginals[0]].sum() == 2
        assert problem.a[marginals[0], :2].sum() == 2
        assert problem.b[marginals[0]] == pytest.approx(1.0)
        assert problem.a[marginals[1]].sum() == 2
        assert problem.a[marginals[1], 2:].sum() == 2
        assert problem.b[marginals[1]] == pytest.approx(1.0)

    def test_objective_uses_true_path_weights(self):
        problem = worked_problem()
        coeff = problem.c
        assert coeff[column(problem.steps, 0, 0b1)] == pytest.approx(0.5)
        assert coeff[column(problem.steps, 0, 0b0)] == pytest.approx(0.0)
        # The last block sums its prefix's leaves at 2**-2 each: 0b11 pays
        # one, 0b10, 0b01 and 0b00 pay nothing.
        assert coeff[column(problem.steps, 1, 0b1)] == pytest.approx(0.25)
        assert coeff[column(problem.steps, 1, 0b0)] == pytest.approx(0.0)

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
                a, b, c = merged_reference(spec, cost, mu)
                assert np.array_equal(problem.a, a)
                assert np.array_equal(problem.b, b)
                assert np.array_equal(problem.c, c)
                # Masses past one, exact zeros and signed zeros reach every
                # branch of the hazard read-off.
                x = rng.uniform(0.0, 0.7, a.shape[1])
                x[rng.random(x.size) < 0.2] = 0.0
                x[rng.random(x.size) < 0.1] = -0.0
                solution = LpSolution(0.0, x, np.zeros(0), 0.0, 0.0, 0.0)
                assert_hazards_match_the_read_off(
                    problem, x, lp_solution_to_kernel(problem, solution))

    @pytest.mark.parametrize("augment", [False, True])
    @pytest.mark.parametrize("depth", range(1, 9))
    def test_same_optimum_as_the_leaf_row_lp(self, depth, augment):
        # dt = 0.25 keeps every stop cost dyadic, so each prefix's leaf-cost
        # sum is a float and both LPs hold the same rational data.
        rng = np.random.default_rng(90 + depth + 10 * augment)
        spec = LatticeSpec(depth=depth, dt=0.25, augment_max=augment)
        costs = [ABS, CostSpec(kind="running_max", name="identity") if augment else INDICATOR]
        for n_atoms in range(1, min(4, depth) + 1):
            steps = sorted(rng.choice(np.arange(1, depth + 1), n_atoms, replace=False))
            steps[-1] = depth
            mu = random_measure(rng, [0.25 * s for s in sorted(set(steps))])
            # The costs take turns: the full LP's exact solve is the slow part.
            cost = costs[n_atoms % 2]
            problem = build_lp(spec, cost, mu)
            want = reference_exact_value(spec, cost, mu)
            # The exact route's value before its rounding to a float.
            assert oracle._solve_exact(problem)[0] == want
            assert abs(solve_lp(problem).value - float(want)) <= 1e-12

    def test_depth_guard(self):
        spec = LatticeSpec(depth=13, dt=1.0)
        mu = DiscreteMeasure((1.0, 13.0), (0.5, 0.5))
        with pytest.raises(SizeGuardError):
            build_lp(spec, IDENTITY, mu)


class TestSolveLp:
    def test_exact_route_refuses_past_its_depth_limit(self, monkeypatch):
        def simplex(*args):
            raise AssertionError("pivoted before the exact depth guard")

        monkeypatch.setattr(oracle, "_simplex", simplex)
        problem = replace(tiny_problem([[1.0]], [1.0], [1.0]),
                          steps=(EXACT_DEPTH_LIMIT + 1, EXACT_DEPTH_LIMIT + 2))
        with pytest.raises(SizeGuardError, match="last decision step 11 \\(limit 10\\)"):
            solve_lp(problem, exact=True)
        solve_lp(problem)  # the float route takes any depth it is given

    @pytest.mark.parametrize("steps, refused", [
        ((12,), False), ((5, 10, 11), False), ((10, 12), False), ((4, 8, 12), False),
        ((11, 12), True), ((4, 11, 12), True),
    ])
    def test_exact_guard_reads_the_last_decision_step(self, steps, refused):
        if refused:
            with pytest.raises(SizeGuardError, match=f"last decision step {steps[-2]} "):
                oracle.check_exact_depth(steps)
        else:
            oracle.check_exact_depth(steps)

    def test_exact_route_at_horizon_12(self):
        spec = LatticeSpec(depth=12, dt=1.0, augment_max=True)
        problem = build_lp(spec, ABS, DiscreteMeasure((6.0, 12.0), (0.4, 0.6)))
        exact = solve_lp(problem, exact=True)
        assert abs(exact.value - solve_lp(problem).value) <= 1e-9

    @pytest.mark.parametrize("cost", [2.0 ** 31, 2.0 ** 66 * (1 - 2.0 ** -53), 2.0 ** 66, 1e20,
                                      1e306])
    def test_costs_past_highs_bound_go_to_it_scaled(self, monkeypatch, cost):
        seen = spy_on_highs(monkeypatch)
        solution = solve_lp(tiny_problem([[1.0]], [1.0], [cost]))
        assert solution.value == cost
        assert solution.duals[0] == pytest.approx(cost, rel=1e-12)
        handed = seen[0].col_cost_[0]
        if cost < oracle.HIGHS_COST_LIMIT:
            assert handed == -cost
        else:
            assert 0.5 <= -handed < 1.0

    @pytest.mark.parametrize("e", [3e18, 1e19, 4e19])
    def test_costs_where_unscaled_highs_fails_price_like_exact(self, e):
        # Handed to HiGHS unscaled, these objectives end in model status "Solve error".
        spec = LatticeSpec(depth=6, dt=1.0, augment_max=True)
        mu = DiscreteMeasure((2.0, 4.0, 6.0), (0.3, 0.3, 0.4))
        cost = CostSpec(kind="terminal", name="polynomial", params={"coeffs": [0.0, 1.0, e]})
        problem = build_lp(spec, cost, mu)
        assert np.abs(problem.c).max() >= oracle.HIGHS_COST_LIMIT
        got, want = solve_lp(problem), solve_lp(problem, exact=True)
        assert abs(got.value - want.value) <= 1e-12 * abs(want.value)

    @pytest.mark.parametrize("constant", [1e25, 1e306])
    def test_large_constant_costs_price_like_solve(self, constant):
        spec = LatticeSpec(depth=10, dt=1.0)
        mu = DiscreteMeasure((5.0, 10.0), (0.5, 0.5))
        cost = CostSpec(kind="terminal", name="polynomial", params={"coeffs": [constant]})
        solution = solve_lp(build_lp(spec, cost, mu))
        assert solution.value == solve(spec, cost, mu, resolution=2).root_value == constant

    def test_worked_problem_value_and_argmax(self):
        problem = worked_problem()
        solution = solve_lp(problem)
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
        assert solution.value == pytest.approx(0.25, abs=1e-12)
        # One atom: no decision step, one column for the root prefix.
        assert solution.x == pytest.approx([1.0], abs=1e-12)

    def test_handmade_budget_problem(self):
        solution = solve_lp(tiny_problem([[1.0, 1.0]], [1.0], [1.0, 1.0]))
        assert solution.value == pytest.approx(1.0, abs=1e-12)

    def test_handmade_corner_preference(self):
        solution = solve_lp(tiny_problem([[1.0, 1.0]], [1.0], [2.0, 1.0]))
        assert solution.value == pytest.approx(2.0, abs=1e-12)
        assert solution.x == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_infeasible_system(self):
        for exact in (False, True):
            with pytest.raises(ValidationError, match="^LP is infeasible$"):
                solve_lp(tiny_problem([[1.0]], [-1.0], [0.0]), exact=exact)

    def test_unbounded_system(self):
        with pytest.raises(ValidationError, match="^LP is unbounded$"):
            solve_lp(tiny_problem([[0.0]], [0.0], [1.0]))

    def test_other_solver_status_is_a_validation_error(self, monkeypatch):
        status = highs.HighsModelStatus.kSolveError
        words = highs._Highs().modelStatusToString(status)
        spy_on_highs(monkeypatch, getModelStatus=lambda self: status)
        with pytest.raises(ValidationError, match=f"^LP solver failed: {words}$"):
            solve_lp(worked_problem())

    def test_model_highs_cannot_load_is_infeasible(self, monkeypatch):
        spy_on_highs(monkeypatch, passModel=lambda self, lp: highs.HighsStatus.kError)
        with pytest.raises(ValidationError, match="^LP is infeasible$"):
            solve_lp(worked_problem())

    def test_refused_highs_option_is_a_fault(self, monkeypatch):
        # HiGHS takes no feasibility tolerance below 1e-10.
        monkeypatch.setitem(oracle.HIGHS_OPTIONS, "primal_feasibility_tolerance", 1e-11)
        with pytest.raises(RuntimeError, match="refused option primal_feasibility_tolerance"):
            solve_lp(worked_problem())

    def test_every_highs_option_is_taken_and_moves_a_default(self):
        solver = highs._Highs()
        for name, value in oracle.HIGHS_OPTIONS.items():
            status, default = solver.getOptionValue(name)
            assert status == highs.HighsStatus.kOk and default != value, name
            assert solver.setOptionValue(name, value) == highs.HighsStatus.kOk, name

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


def simplex_outcome(simplex, a, b, c):
    """Value, ``x`` and ``y``, or the message of the infeasible or unbounded error."""
    try:
        value, x, y = simplex(a, b, c)
    except ValidationError as exc:
        return str(exc)
    return value, list(x), list(y)


# Dyadic numbers with small numerators, exact as floats.
dyadics = st.builds(lambda k, e: k / 2 ** e, st.integers(-4, 4), st.integers(0, 3))


class TestIntegerRowSimplex:
    """The integer-row tableau pivots exactly as the ``Fraction`` one did."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_fraction_tableau(self, data):
        m = data.draw(st.integers(1, 4), label="rows")
        n = data.draw(st.integers(1, 5), label="columns")
        a = [[data.draw(dyadics) for _ in range(n)] for _ in range(m)]
        c = [data.draw(dyadics) for _ in range(n)]
        if data.draw(st.booleans(), label="feasible by construction"):
            x0 = [abs(data.draw(dyadics)) for _ in range(n)]
            b = [sum(u * v for u, v in zip(row, x0)) for row in a]
        else:
            b = [data.draw(dyadics) for _ in range(m)]
        # Redundant rows: the difference of two rows, or a row twice.
        for _ in range(data.draw(st.integers(0, 2), label="redundant rows")):
            i, j = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, len(a) - 1))
            a.append([u - v for u, v in zip(a[i], a[j])] if i != j else list(a[i]))
            b.append(b[i] - b[j] if i != j else b[i])
        a, b, c = (np.array(v, dtype=float) for v in (a, b, c))
        rational = np.frompyfunc(Fraction, 1, 1)
        want = simplex_outcome(reference_simplex, rational(a), rational(b), rational(c))
        got = simplex_outcome(oracle._simplex, a, [Fraction(v) for v in b], c)
        assert got == want
        if not isinstance(got, str):
            # The duals off the tableau are exact: feasible, and no gap.
            y = got[2]
            assert all(sum(yi * Fraction(aij) for yi, aij in zip(y, col)) >= Fraction(cj)
                       for col, cj in zip(a.T, c))
            assert sum(yi * Fraction(bi) for yi, bi in zip(y, b)) == got[0]

    @pytest.mark.parametrize("a, b, c, status", [
        # x0 + x1 = -1 with x >= 0: the negated row leaves artificial mass.
        ([[1.0, 1.0]], [-1.0], [1.0, 0.0], "infeasible"),
        # -x0 + x1 = 0 lets x0 grow without bound.
        ([[-1.0, 1.0]], [0.0], [1.0, 0.0], "LP is unbounded"),
        # The second row repeats the first: its artificial stays basic at zero.
        ([[1.0, 0.5, 0.0], [1.0, 0.5, 0.0]], [1.0, 1.0], [0.25, 1.0, 0.0], "optimal"),
        # Three negated rows, one redundant: one artificial leaves through a
        # negative pivot, another stays basic.
        ([[0.0, -0.5], [-0.5, -1.0], [-1.0, -1.0]], [-0.5, -1.0, -1.0], [0.5, 1.0], "optimal"),
        ([[0.5, -1.0, 2.0], [1.0, 1.0, 0.0]], [-0.5, 2.0], [1.0, 0.0, -0.25], "optimal"),
    ])
    def test_handmade_cases(self, a, b, c, status):
        a, b, c = (np.array(v, dtype=float) for v in (a, b, c))
        rational = np.frompyfunc(Fraction, 1, 1)
        want = simplex_outcome(reference_simplex, rational(a), rational(b), rational(c))
        got = simplex_outcome(oracle._simplex, a, [Fraction(v) for v in b], c)
        assert got == want
        assert (got if isinstance(got, str) else "optimal").endswith(status)


class TestExactCertificate:
    def problems(self):
        rng = np.random.default_rng(76)
        yield worked_problem()
        for cost in (INDICATOR, ABS, CostSpec(kind="running_max", name="identity")):
            spec = LatticeSpec(depth=4, dt=1.0, augment_max=True)
            yield build_lp(spec, cost, random_measure(rng, (1.0, 3.0, 4.0)))

    def test_reads_exactly_zero(self):
        for problem in self.problems():
            solution = solve_lp(problem, exact=True)
            assert (solution.reduced_cost_violation, solution.slackness_violation,
                    solution.duality_gap) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_a_nudged_dual_is_caught(self, monkeypatch, sign):
        # y_i + d leaves y.b off c.x by exactly d * b_i, and every b_i here is
        # non-zero, so the nudge cannot hide in the gap.
        nudge = sign * Fraction(1, 2 ** 40)
        simplex = oracle._simplex
        for problem in self.problems():
            b = [Fraction(v) for v in problem.b]
            oracle._absorb_rounding_defect(problem, b)
            for i in range(problem.a.shape[0]):
                def nudged(*args, i=i):
                    value, x, y = simplex(*args)
                    y = list(y)
                    y[i] += nudge
                    return value, x, y

                monkeypatch.setattr(oracle, "_simplex", nudged)
                solution = solve_lp(problem, exact=True)
                assert solution.duality_gap == float(abs(nudge) * b[i])
                assert solution.duality_gap > 0.0


class TestKernelExtraction:
    def test_round_trip_matches_value_and_law(self):
        rng = np.random.default_rng(72)
        spec = LatticeSpec(depth=3, dt=1.0)
        for cost in (INDICATOR, ABS, IDENTITY):
            mu = random_measure(rng, (1.0, 2.0, 3.0))
            problem = build_lp(spec, cost, mu)
            solution = solve_lp(problem)
            kernel = lp_solution_to_kernel(problem, solution)
            marg = marginal_of(kernel)
            assert marg.atoms == mu.atoms
            assert marg.weights == pytest.approx(mu.weights, abs=1e-10)
            got = objective_value(kernel, cost)
            assert got == pytest.approx(solution.value, abs=1e-10)

    @pytest.mark.parametrize("exact", [False, True])
    def test_hazards_match_the_read_off_on_solved_polytopes(self, exact):
        rng = np.random.default_rng(74)
        specs = (LatticeSpec(depth=4, dt=1.0), LatticeSpec(depth=4, dt=1.0, augment_max=True),
                 LatticeSpec(depth=4, dt=1.0, mode="history"))
        for spec in specs:
            for cost in (INDICATOR, ABS, IDENTITY):
                for atoms in ((1.0, 2.0, 4.0), (2.0, 3.0, 4.0), (1.0, 4.0)):
                    problem = build_lp(spec, cost, random_measure(rng, atoms))
                    solution = solve_lp(problem, exact=exact)
                    assert_hazards_match_the_read_off(
                        problem, solution.x, lp_solution_to_kernel(problem, solution))

    def test_worked_problem_kernel(self):
        problem = worked_problem()
        kernel = lp_solution_to_kernel(problem, solve_lp(problem))
        # At step 1 the down history has code 0, the up history code 1.
        down, up = kernel.q[0]
        assert up == pytest.approx(1.0, abs=1e-12)
        assert down == pytest.approx(0.0, abs=1e-12)


class TestOracleValue:
    def test_dominates_every_feasible_kernel(self):
        rng = np.random.default_rng(73)
        spec = LatticeSpec(depth=3, dt=1.0)
        mu = random_measure(rng, (1.0, 2.0, 3.0))
        bound = oracle_value(spec, INDICATOR, mu)
        for _ in range(100):
            kernel = feasible_kernel(spec, mu, rng)
            assert objective_value(kernel, INDICATOR) <= bound + 1e-9

    def test_martingale_identities(self):
        rng = np.random.default_rng(74)
        spec = LatticeSpec(depth=4, dt=0.25)
        for _ in range(3):
            mu = random_measure(rng, (0.25, 0.5, 1.0))
            assert oracle_value(spec, IDENTITY, mu) == pytest.approx(0.0, abs=1e-9)
            square = CostSpec(kind="terminal", name="square")
            assert oracle_value(spec, square, mu) == pytest.approx(mean(mu), abs=1e-9)

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
        assert abs(value - solve_lp(build_lp(spec, cost, mu), exact=True).value) <= 1e-9
        assert abs(value - oracle_value(spec, cost, mu)) <= 1e-9

    # Weights across twelve decades.  At HiGHS's default feasibility
    # tolerance (1e-7) the float route refused or mispriced atoms below 3e-8.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_small_weights_agree_across_routes(self, data):
        depth = data.draw(st.integers(2, 9), label="depth")
        augment = data.draw(st.booleans(), label="augment_max")
        dt = data.draw(st.sampled_from([1.0, 0.5, 0.25]), label="dt")
        steps = sorted(data.draw(
            st.lists(st.integers(1, depth), min_size=2, max_size=4, unique=True), label="steps"
        ))
        exponents = data.draw(
            st.lists(st.floats(-12.0, 0.0), min_size=len(steps), max_size=len(steps)),
            label="exponents"
        )
        costs = [ABS, INDICATOR, CostSpec(kind="time", name="identity"),
                 CostSpec(kind="markov", name="square")]
        if augment:
            costs.append(CostSpec(kind="running_max", name="identity"))
        cost = data.draw(st.sampled_from(costs), label="cost")
        spec = LatticeSpec(depth=depth, dt=dt, augment_max=augment)
        weights = 10.0 ** np.array(exponents)
        mu = DiscreteMeasure([s * dt for s in steps], weights / weights.sum())
        value = solve(spec, cost, mu, resolution=2).root_value
        problem = build_lp(spec, cost, mu)
        highs_value = solve_lp(problem).value
        assert abs(value - highs_value) <= AGREE_TOL
        if steps[-2] <= 6:
            exact = solve_lp(problem, exact=True).value
            assert max(abs(exact - value), abs(exact - highs_value)) <= AGREE_TOL

    @pytest.mark.parametrize("augment, steps, weights", [
        (False, (4, 8, ORACLE_DEPTH_LIMIT), (0.3, 0.3, 0.4)),
        (True, (6, ORACLE_DEPTH_LIMIT), (0.4, 0.6)),
    ])
    def test_agreement_at_the_largest_supported_depth(self, augment, steps, weights):
        spec = LatticeSpec(depth=ORACLE_DEPTH_LIMIT, dt=1.0, augment_max=augment)
        mu = DiscreteMeasure([float(s) for s in steps], weights)
        problem = build_lp(spec, ABS, mu)
        solution = solve_lp(problem)
        assert abs(solve(spec, ABS, mu, resolution=2).root_value - solution.value) <= 1e-9
        assert max(solution.reduced_cost_violation, solution.slackness_violation,
                   solution.duality_gap) <= 1e-9
        kernel = lp_solution_to_kernel(problem, solution)
        assert objective_value(kernel, ABS) == pytest.approx(solution.value, abs=1e-10)
        marg = marginal_of(kernel)
        assert marg.atoms == mu.atoms
        assert marg.weights == pytest.approx(mu.weights, abs=1e-10)

    def test_overfull_marginal_row_is_infeasible(self):
        # More mass at the first atom than any rule can stop there.
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        problem = build_lp(spec, INDICATOR, mu)
        squeezed = replace(problem, b=problem.b.copy())
        squeezed.b[len(squeezed.b) - len(problem.steps)] = 3.0
        with pytest.raises(ValidationError, match="^LP is infeasible$"):
            solve_lp(squeezed)
