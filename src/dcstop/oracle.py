"""Linear-programming cross-check for the constrained stopping value.

Randomized stopping schemes on the history tree are captured exactly by one
variable per (atom, node-at-that-atom's-step) pair: the conditional
probability of stopping there given the path so far.  Feasibility is a row
per leaf path (conditional masses sum to one) plus a row per atom (weighted
masses hit the target law).  The optimum over this polytope is the same value
the block solver computes, reached by entirely different means, which is what
makes the comparison worth running.

Every history is addressed by its binary code (see ``lattice.histories``).
Atom ``i`` at step ``s_i`` owns a block of ``2**s_i`` columns, one per code,
and the blocks follow the atom order.  The first ``2**horizon`` rows are the
path rows in leaf-code order; the last ``len(steps)`` rows are the marginal
rows in atom order.  Leaf ``c`` meets atom ``i`` at its prefix ``c >> (horizon
- s_i)``.

The float route solves the LP with HiGHS through ``scipy.optimize.linprog``
(the dual revised simplex of Huangfu & Hall, Math. Prog. Comp. 2018), which
shares no code with the block solver.  ``exact=True`` runs a dense two-phase
Bland simplex over rationals instead.  Either way dcstop recomputes the
optimality certificate itself from the primal ``x`` and the duals: reduced-
cost violation, complementary slackness and duality gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
from scipy.optimize import linprog

from .cost import CostSpec, evaluate
from .errors import NumericalError, SizeGuardError, ValidationError
from .lattice import LatticeSpec, atom_steps, nodes_at_step, state
from .measures import DiscreteMeasure
from .rst import StoppingKernel

ORACLE_DEPTH_LIMIT = 12


@dataclass(frozen=True)
class LpProblem:
    """Equality-form problem: maximize ``c . x`` over ``A x = b, x >= 0``.

    Columns come in one block per atom, ``2**steps[i]`` wide and indexed by
    history code; rows are the leaf paths in code order, then one marginal
    row per atom (see the module docstring).
    """

    spec: LatticeSpec
    cost: CostSpec
    mu: DiscreteMeasure
    steps: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: float
    x: np.ndarray
    duals: np.ndarray
    reduced_cost_violation: float
    slackness_violation: float
    duality_gap: float


def check_oracle_depth(horizon: int) -> None:
    """Refuse a history tree past ``ORACLE_DEPTH_LIMIT`` before building anything."""
    if horizon > ORACLE_DEPTH_LIMIT:
        raise SizeGuardError(
            f"oracle tree has 2^{horizon} paths (limit 2^{ORACLE_DEPTH_LIMIT})"
        )


def build_lp(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> LpProblem:
    """Assemble the history-tree stopping polytope for a target law.

    Marginal rows are scaled by ``2**step`` so every coefficient is a small
    integer; the objective keeps the true path weights.
    """
    steps = tuple(atom_steps(spec, mu.atoms))
    horizon = steps[-1]
    check_oracle_depth(horizon)
    hist = LatticeSpec(depth=horizon, dt=spec.dt, mode="history")
    # First column of each atom's block, then the column count.
    offsets = list(accumulate((2 ** s for s in steps), initial=0))
    leaves = np.arange(2 ** horizon)
    a = np.zeros((leaves.size + len(steps), offsets[-1]))
    b = np.ones(a.shape[0])
    c = np.zeros(a.shape[1])
    for i, s in enumerate(steps):
        a[leaves, offsets[i] + (leaves >> (horizon - s))] = 1.0
        a[leaves.size + i, offsets[i]:offsets[i + 1]] = 1.0
        b[leaves.size + i] = mu.weights[i] * 2 ** s
        c[offsets[i]:offsets[i + 1]] = [
            evaluate(cost, state(hist, node)) * 2.0 ** (-s) for node in nodes_at_step(hist, s)
        ]
    return LpProblem(spec=spec, cost=cost, mu=mu, steps=steps, a=a, b=b, c=c)


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Two-phase dense simplex over ``Fraction`` object arrays, Bland's rule throughout.

    Every comparison is exact, and Bland's rule cannot cycle, so the routine
    terminates.  Returns the status, value, ``x`` and the final basis.
    """
    m, n = a.shape
    flip = np.where(b < 0, -1, 1)
    a = a * flip[:, None]
    b = b * flip
    zero = b[0] * 0
    # Phase 1 tableau: original columns, artificial identity, rhs, and a
    # bottom objective row minimizing the artificial total.
    t = np.full((m + 1, n + m + 1), zero, dtype=a.dtype)
    t[:m, :n] = a
    t[range(m), range(n, n + m)] = zero + 1
    t[:m, -1] = b
    basis = list(range(n, n + m))
    t[m, :n] = -a.sum(axis=0)
    t[m, -1] = -b.sum()

    def pivot(row: int, col: int) -> None:
        t[row] /= t[row, col]
        for i in range(m + 1):
            if i != row and t[i, col] != 0:
                t[i] -= t[i, col] * t[row]

    def run(active: int) -> None:
        while True:
            entering = np.flatnonzero(t[m, :active] < 0)
            if not entering.size:
                return
            enter = int(entering[0])
            leave, best, best_var = -1, np.inf, -1
            for i in range(m):
                if t[i, enter] > 0:
                    ratio = t[i, -1] / t[i, enter]
                    if ratio < best or (ratio == best and basis[i] < best_var):
                        leave, best, best_var = i, ratio, basis[i]
            if leave < 0:
                raise ValidationError("LP is unbounded")
            pivot(leave, enter)
            basis[leave] = enter

    run(n + m)
    # Any artificial mass left means no feasible point.
    if t[m, -1] < 0:
        return "infeasible", zero, np.full(n, zero, dtype=a.dtype), tuple(basis)
    # Drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and harmless, its artificial stays at zero.
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(t[i, :n] != 0)
            if candidates.size:
                pivot(i, int(candidates[0]))
                basis[i] = int(candidates[0])
    t[:, n:n + m] = zero
    t[m, :] = zero
    t[m, :n] = -c
    for i in range(m):
        if basis[i] < n and t[m, basis[i]] != 0:
            t[m] -= t[m, basis[i]] * t[i]
    run(n)
    x = np.full(n, zero, dtype=a.dtype)
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = t[i, -1]
    return "optimal", c @ x, x, tuple(basis)


def _certificate(problem: LpProblem, x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Reduced-cost violation, complementary slackness and duality gap of ``(x, y)``."""
    a, b, c = problem.a, problem.b, problem.c
    rc = c - y @ a
    rc_violation = float(max(0.0, rc.max(initial=0.0)))
    slackness = float(np.max(np.abs(x * rc), initial=0.0))
    gap = float(abs(c @ x - y @ b))
    return rc_violation, slackness, gap


def _absorb_rounding_defect(problem: LpProblem, b_vec: np.ndarray) -> None:
    """Make marginal rows exactly consistent with unit total mass.

    Float-normalized weights can encode a total mass one ulp away from one,
    which over the rationals makes the polytope empty even though the
    intended problem is fine.  A defect below float precision is folded into
    the last marginal row; anything larger is left alone so genuinely
    inconsistent data still surfaces as infeasible.
    """
    steps = problem.steps
    marginals = b_vec[len(b_vec) - len(steps):]
    defect = 1 - sum(w / 2 ** s for w, s in zip(marginals, steps))
    if defect != 0 and abs(defect) < Fraction(1, 10 ** 9):
        b_vec[-1] += defect * 2 ** steps[-1]


def _solve_exact(problem: LpProblem):
    """Status, value, ``x`` and duals (``None`` unless optimal) by the rational simplex."""
    # Fraction(float) is exact, so the rationals encode the float data.
    a, b, c = (np.frompyfunc(Fraction, 1, 1)(v) for v in (problem.a, problem.b, problem.c))
    _absorb_rounding_defect(problem, b)
    status, value, x, basis = _simplex(a, b, c)
    x = x.astype(float)
    if status != "optimal":
        return status, value, x, None
    cols = [j for j in basis if j < problem.a.shape[1]]
    # Solve B^T y = c_B in the least-squares sense; with redundant rows the
    # basis matrix is rectangular but any consistent y certifies optimality.
    try:
        y, *_ = np.linalg.lstsq(problem.a[:, cols].T, problem.c[cols], rcond=None)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"least-squares duals failed on a {len(cols)}-column basis: {exc}") from exc
    return status, value, x, y


def _solve_highs(problem: LpProblem):
    """Status, value, ``x`` and duals (``None`` unless optimal) by HiGHS."""
    res = linprog(-problem.c, A_eq=problem.a, b_eq=problem.b, bounds=(0, None), method="highs")
    if res.status == 2:
        return "infeasible", np.nan, np.zeros(problem.a.shape[1]), None
    if res.status == 3:
        raise ValidationError("LP is unbounded")
    if res.status != 0:
        raise ValidationError(f"LP solver failed: {res.message}")
    return "optimal", problem.c @ res.x, res.x, -res.eqlin.marginals


def solve_lp(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Optimize the stopping polytope and certify the result through duals.

    The float route is HiGHS; ``exact`` switches to the rational Bland
    simplex, whose solution is then rounded to floats.  Either way the
    certificate is recomputed here from ``x`` and the duals.
    """
    status, value, x, y = (_solve_exact if exact else _solve_highs)(problem)
    if status != "optimal":
        return LpSolution(
            status=status, value=float("nan"), x=x,
            duals=np.zeros(problem.a.shape[0]),
            reduced_cost_violation=float("nan"),
            slackness_violation=float("nan"), duality_gap=float("nan"),
        )
    rc_violation, slackness, gap = _certificate(problem, x, y)
    return LpSolution(
        status=status, value=float(value), x=x, duals=y,
        reduced_cost_violation=rc_violation,
        slackness_violation=slackness, duality_gap=gap,
    )


def oracle_value(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> float:
    solution = solve_lp(build_lp(spec, cost, mu))
    if solution.status != "optimal":
        raise ValidationError(f"stopping polytope is {solution.status}")
    return solution.value


def lp_solution_to_kernel(problem: LpProblem, solution: LpSolution) -> StoppingKernel:
    """Convert conditional stop masses back to hazard form.

    The hazard at a node is its stop mass over the mass still alive there;
    dead branches default to zero, the final atom always stops.
    """
    steps = problem.steps
    hist = LatticeSpec(depth=steps[-1], dt=problem.spec.dt, mode="history")
    offsets = list(accumulate((2 ** s for s in steps), initial=0))
    x = np.asarray(solution.x, dtype=float)
    q = []
    for i, s in enumerate(steps[:-1]):
        codes = np.arange(2 ** s)
        # Mass the earlier atoms stopped on each path, added in atom order.
        remaining = 1.0 - sum(x[offsets[j] + (codes >> (s - steps[j]))] for j in range(i))
        dead = remaining <= 1e-12
        ratio = x[offsets[i]:offsets[i + 1]] / np.where(dead, 1.0, remaining)
        # min(1, max(0, ratio)), where a ratio of -0.0 reads as 0.0.
        ratio = np.where(ratio > 0.0, ratio, 0.0)
        q.append(np.where(dead, 0.0, np.where(ratio < 1.0, ratio, 1.0)))
    q.append(np.ones(2 ** steps[-1]))
    return StoppingKernel(hist, problem.mu.atoms, q)
