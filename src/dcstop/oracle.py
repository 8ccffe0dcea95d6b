"""Linear-programming cross-check for the constrained stopping value.

Randomized stopping schemes on the history tree are captured exactly by one
variable per (atom, node-at-that-atom's-step) pair: the conditional
probability of stopping there given the path so far.  Feasibility is a row
per leaf path (conditional masses sum to one) plus a row per atom (weighted
masses hit the target law).  The optimum over this polytope is the same value
the block solver computes, reached by entirely different means, which is what
makes the comparison worth running.

The solver is a dense two-phase simplex with Bland's rule, in either float or
exact rational arithmetic, and reports dual-based optimality residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cost import CostSpec, evaluate
from .errors import SizeGuardError, ValidationError
from .lattice import LatticeSpec, NodeId, atom_steps, histories, state
from .measures import DiscreteMeasure
from .rst import StoppingKernel

ORACLE_DEPTH_LIMIT = 12
PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class LpProblem:
    """Equality-form problem: maximize ``c . x`` over ``A x = b, x >= 0``."""

    spec: LatticeSpec
    cost: CostSpec
    mu: DiscreteMeasure
    steps: tuple[int, ...]
    var_keys: tuple[tuple[int, tuple[int, ...]], ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    row_kinds: tuple[str, ...]


@dataclass(frozen=True)
class LpSolution:
    status: str
    value: float
    x: np.ndarray
    basis: tuple[int, ...]
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
    var_keys: list[tuple[int, tuple[int, ...]]] = []
    col: dict[tuple[int, tuple[int, ...]], int] = {}
    for i, s in enumerate(steps):
        for bits in histories(s):
            col[(i, bits)] = len(var_keys)
            var_keys.append((i, bits))
    n = len(var_keys)
    n_leaves = 2 ** horizon
    m = n_leaves + len(steps)
    a = np.zeros((m, n))
    b = np.zeros(m)
    c = np.zeros(n)
    row_kinds = []
    for leaf, bits in enumerate(histories(horizon)):
        for i, s in enumerate(steps):
            a[leaf, col[(i, bits[:s])]] = 1.0
        b[leaf] = 1.0
        row_kinds.append("path")
    for i, s in enumerate(steps):
        row = n_leaves + i
        for bits in histories(s):
            a[row, col[(i, bits)]] = 1.0
        b[row] = mu.weights[i] * 2 ** s
        row_kinds.append("marginal")
    for j, (i, bits) in enumerate(var_keys):
        node = NodeId(step=steps[i], history=bits)
        c[j] = evaluate(cost, state(hist, node)) * 2.0 ** (-steps[i])
    return LpProblem(
        spec=spec, cost=cost, mu=mu, steps=steps,
        var_keys=tuple(var_keys), a=a, b=b, c=c, row_kinds=tuple(row_kinds),
    )


def _simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray, tol):
    """Two-phase dense simplex, Bland's rule throughout.

    Runs on float arrays with ``tol=PIVOT_TOL`` or on object arrays of
    ``Fraction`` with ``tol=0``, where every comparison below is exact.
    Bland's rule cannot cycle, so the routine terminates in either
    arithmetic.
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
            entering = np.flatnonzero(t[m, :active] < -tol)
            if not entering.size:
                return
            enter = int(entering[0])
            leave, best, best_var = -1, np.inf, -1
            for i in range(m):
                if t[i, enter] > tol:
                    ratio = t[i, -1] / t[i, enter]
                    if ratio < best - tol or (
                        abs(ratio - best) <= tol and basis[i] < best_var
                    ):
                        leave, best, best_var = i, ratio, basis[i]
            if leave < 0:
                raise ValidationError("LP is unbounded")
            pivot(leave, enter)
            basis[leave] = enter

    run(n + m)
    # Artificial mass left above a hundred pivot tolerances (any at all when
    # exact) means no feasible point.
    if t[m, -1] < -100 * tol:
        return "infeasible", zero, np.full(n, zero, dtype=a.dtype), tuple(basis)
    # Drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and harmless, its artificial stays at zero.
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(abs(t[i, :n]) > tol)
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


def _duals(problem: LpProblem, x: np.ndarray, basis) -> tuple[np.ndarray, float, float, float]:
    a, b, c = problem.a, problem.b, problem.c
    cols = [j for j in basis if j < a.shape[1]]
    bmat = a[:, cols]
    cb = c[cols]
    # Solve B^T y = c_B in the least-squares sense; with redundant rows the
    # basis matrix is rectangular but any consistent y certifies optimality.
    y, *_ = np.linalg.lstsq(bmat.T, cb, rcond=None)
    rc = c - y @ a
    rc_violation = float(max(0.0, rc.max(initial=0.0)))
    slackness = float(np.max(np.abs(x * rc), initial=0.0))
    gap = float(abs(c @ x - y @ b))
    return y, rc_violation, slackness, gap


def _absorb_rounding_defect(problem: LpProblem, b_vec: np.ndarray) -> None:
    """Make marginal rows exactly consistent with unit total mass.

    Float-normalized weights can encode a total mass one ulp away from one,
    which over the rationals makes the polytope empty even though the
    intended problem is fine.  A defect below float precision is folded into
    the last marginal row; anything larger is left alone so genuinely
    inconsistent data still surfaces as infeasible.
    """
    marginal_rows = [i for i, kind in enumerate(problem.row_kinds) if kind == "marginal"]
    if len(marginal_rows) != len(problem.steps):
        return
    total = sum(b_vec[row] / 2 ** s for row, s in zip(marginal_rows, problem.steps))
    defect = 1 - total
    if defect != 0 and abs(defect) < Fraction(1, 10 ** 9):
        b_vec[marginal_rows[-1]] += defect * 2 ** problem.steps[-1]


def solve_lp(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Optimize the stopping polytope and certify the result through duals.

    ``exact`` switches to rational arithmetic; the returned solution is then
    rounded to floats but the pivoting itself is exact.
    """
    if exact:
        # Fraction(float) is exact, so the rationals encode the float data.
        a, b, c = (np.frompyfunc(Fraction, 1, 1)(v) for v in (problem.a, problem.b, problem.c))
        _absorb_rounding_defect(problem, b)
        status, value, x, basis = _simplex(a, b, c, tol=0)
        x = x.astype(float)
    else:
        status, value, x, basis = _simplex(problem.a, problem.b, problem.c, tol=PIVOT_TOL)
    value = float(value)
    if status != "optimal":
        return LpSolution(
            status=status, value=float("nan"), x=x, basis=basis,
            duals=np.zeros(problem.a.shape[0]),
            reduced_cost_violation=float("nan"),
            slackness_violation=float("nan"), duality_gap=float("nan"),
        )
    y, rc_violation, slackness, gap = _duals(problem, x, basis)
    return LpSolution(
        status=status, value=value, x=x, basis=basis, duals=y,
        reduced_cost_violation=rc_violation,
        slackness_violation=slackness, duality_gap=gap,
    )


def oracle_value(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure,
                 exact: bool = False) -> float:
    solution = solve_lp(build_lp(spec, cost, mu), exact=exact)
    if solution.status != "optimal":
        raise ValidationError(f"stopping polytope is {solution.status}")
    return solution.value


def lp_solution_to_kernel(problem: LpProblem, solution: LpSolution) -> StoppingKernel:
    """Convert conditional stop masses back to hazard form.

    The hazard at a node is its stop mass over the mass still alive there;
    dead branches default to zero, the final atom always stops.
    """
    steps = problem.steps
    horizon = steps[-1]
    hist = LatticeSpec(depth=horizon, dt=problem.spec.dt, mode="history")
    by_node: dict[tuple[int, tuple[int, ...]], float] = {
        key: float(solution.x[j]) for j, key in enumerate(problem.var_keys)
    }
    q: dict[NodeId, float] = {}
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
    return StoppingKernel(hist, problem.mu.atoms, q)
