"""Linear-programming cross-check for the constrained stopping value.

Randomized stopping schemes on the history tree are captured exactly by one
variable per (atom, history) pair: the conditional probability of stopping
at that atom given the path so far.  The last atom stops surely, so
once the last decision step ``d = steps[-2]`` (0 with one atom) has passed
nothing is left to decide: the last atom's variable is indexed by the path's
step-``d`` prefix, not by its leaf.  Feasibility is a row per step-``d``
prefix (the masses on its path sum to one) plus a row per atom (weighted
masses hit the target law).  The optimum over this polytope is the same value
the block solver computes, reached by entirely different means, which is what
makes the comparison worth running.

Every history is addressed by its binary code (see ``lattice.histories``).
Atom ``i`` owns a block of ``2**t_i`` columns, one per code at its block
step ``t_i``: its own step ``s_i`` for the earlier atoms, ``d`` for the last.
The blocks follow the atom order.  The first ``2**d`` rows are the path rows
in prefix-code order; the last ``len(steps)`` rows are the marginal rows in
atom order.  Prefix ``p`` meets atom ``i`` at ``p >> (d - t_i)``.  Merging
the leaves under one prefix loses nothing: a leaf's path row fixes its
last-atom mass at one minus the earlier masses on its path, which depend on
the leaf only through its step-``d`` prefix.

The float route solves the LP with HiGHS (the dual revised simplex of
Huangfu & Hall, Math. Prog. Comp. 2018), called through scipy's own binding
``scipy.optimize._highspy``, which shares no code with the block solver.
``exact=True`` runs a two-phase Bland simplex on integer rows instead, with
exact duals from its last tableau.
Either way dcstop recomputes the certificate from ``x`` and the duals, in
the route's arithmetic: reduced-cost violation, slackness and duality gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np
from scipy.optimize._highspy import _core as highs

from .cost import CostSpec, cost_overflow, evaluate
from .errors import SizeGuardError, ValidationError, unit_scale
from .lattice import LatticeSpec, atom_steps, states_at_step
from .measures import DiscreteMeasure
from .rst import StoppingKernel, kernel_from_laws

ORACLE_DEPTH_LIMIT = 12
# The exact route's integer tableau grows faster than HiGHS's, and with the
# last decision step d, not the horizon.  On max-augmented lattices (2-core x86
# host) ``abs`` gave 259 x 528 at d = 8 (1.5 s), 516 x 1096 at d = 9 (4.3 s,
# 111 MB peak RSS) and d = 10 (atoms at 5, 10, 11) 33 s at 201 MB; at d = 9 with
# atoms 3, 6, 9, 12, ``running_max`` ``square`` took 22-24 s where ``abs`` took 6 s.
EXACT_DEPTH_LIMIT = 10
# HiGHS reads a cost of 1e20 or more as infinite, and large costs below that
# already make it fail (model status "Solve error" or "Unknown").  Under
# ``HIGHS_OPTIONS``, on 700 random instances (depth 3-8, 2-4 atoms, all
# lattice modes) at quarter powers of two, unscaled solves first failed at a
# largest cost of 2^24 (2^33.75 at HiGHS's default tolerances), and 1,000
# further instances solved at every largest cost up to 2^20.  So from this
# bound on the costs go to it scaled by a power of two into [0.5, 1), and the
# duals come back unscaled.  With this bound, 60 further instances solved at
# every quarter power of two from 2^10 to 2^67.75 (13,920 solves), and at the
# whole powers all priced within 9.1e-16 (relative) of the exact route.
HIGHS_COST_LIMIT = 2.0 ** 20
# Only the settings dcstop chooses; each differs from HiGHS's own default.
# ``output_flag`` off keeps HiGHS silent.  A marginal row's right-hand side is
# ``w_i 2^t_i``, and at HiGHS's default tolerances (1e-7) and presolve an atom
# below about 3e-8 can lose its mass or empty the polytope.  On two draws of
# 756 random instances (depth 2-9, 2-5 atoms, weights scaled down to 1e-12)
# the defaults refused 25 and 18 as infeasible and mispriced 15 and 28 past
# ``AGREE_TOL``.  On the first, tolerances at 1e-10 alone still refused 6 and
# presolve off alone mispriced 11.  Both together refused and mispriced none
# on either draw, and every value came within 3.0e-12 of the block solver.
# 1e-10 is the lowest tolerance HiGHS takes.  An option it refuses is a fault.
HIGHS_OPTIONS = {"output_flag": False, "presolve": "off",
                 "primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
_HIGHS_REFUSALS = {highs.HighsModelStatus.kInfeasible: "LP is infeasible",
                   highs.HighsModelStatus.kModelError: "LP is infeasible",
                   highs.HighsModelStatus.kUnbounded: "LP is unbounded"}


@dataclass(frozen=True)
class LpProblem:
    """Equality-form problem: maximize ``c . x`` over ``A x = b, x >= 0``.

    Columns come in one block per atom, indexed by history code at the
    atom's block step (``_block_steps``); rows are the step-``d`` prefixes in
    code order, then one marginal row per atom (see the module docstring).
    ``steps`` are the atom steps, the last of them the tree's horizon.
    """

    spec: LatticeSpec
    mu: DiscreteMeasure
    steps: tuple[int, ...]
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray


@dataclass(frozen=True)
class LpSolution:
    value: float
    x: np.ndarray
    duals: np.ndarray
    reduced_cost_violation: float
    slackness_violation: float
    duality_gap: float


def check_oracle_depth(horizon: int) -> None:
    """Refuse a history tree past ``ORACLE_DEPTH_LIMIT`` before building anything."""
    if horizon > ORACLE_DEPTH_LIMIT:
        raise SizeGuardError(f"oracle tree has 2^{horizon} paths (limit 2^{ORACLE_DEPTH_LIMIT})")


def check_exact_depth(steps) -> None:
    """Refuse the exact route when the last decision step passes ``EXACT_DEPTH_LIMIT``."""
    if (d := _block_steps(tuple(steps))[-1]) > EXACT_DEPTH_LIMIT:
        raise SizeGuardError(
            f"exact oracle LP branches to its last decision step {d} (limit {EXACT_DEPTH_LIMIT})")


def _block_steps(steps: tuple[int, ...]) -> tuple[int, ...]:
    """The step whose codes index each atom's column block.

    An earlier atom's own step; for the last atom the last decision step
    ``steps[-2]``, or 0 with one atom.
    """
    return steps[:-1] + (steps[-2] if len(steps) > 1 else 0,)


def build_lp(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> LpProblem:
    """Assemble the history-tree stopping polytope for a target law.

    Marginal rows are scaled by the block width ``2**t_i`` so every
    coefficient is a small integer.  The objective keeps the true path
    weights: block ``i``'s coefficient at code ``p`` is ``2**-s_i`` times the
    ``math.fsum`` of the stop costs of the step-``s_i`` histories under ``p``,
    one history for an earlier atom and ``2**(s_i - d)`` leaves for the last.
    A sum past the floats is refused with ``cost.cost_overflow``.
    """
    steps = tuple(atom_steps(spec, mu.atoms))
    horizon = steps[-1]
    check_oracle_depth(horizon)
    hist = LatticeSpec(depth=horizon, dt=spec.dt, mode="history")
    blocks = _block_steps(steps)
    d = blocks[-1]
    # First column of each atom's block, then the column count.
    offsets = list(accumulate((2 ** t for t in blocks), initial=0))
    prefixes = np.arange(2 ** d)
    a = np.zeros((prefixes.size + len(steps), offsets[-1]))
    b = np.ones(a.shape[0])
    c = np.zeros(a.shape[1])
    for i, (s, t) in enumerate(zip(steps, blocks)):
        a[prefixes, offsets[i] + (prefixes >> (d - t))] = 1.0
        a[prefixes.size + i, offsets[i]:offsets[i + 1]] = 1.0
        b[prefixes.size + i] = mu.weights[i] * 2 ** t
        costs = evaluate(cost, states_at_step(hist, s)).reshape(2 ** t, -1)
        try:
            c[offsets[i]:offsets[i + 1]] = [math.fsum(row) * 2.0 ** (-s)
                                            for row in costs.tolist()]
        except OverflowError as exc:
            raise cost_overflow("a sum of stop costs") from exc
    return LpProblem(spec=spec, mu=mu, steps=steps, a=a, b=b, c=c)


def _integers(values) -> tuple[list[int], int]:
    """Numerators over the least common denominator of floats or ``Fraction``s."""
    ratios = [v.as_integer_ratio() for v in values]
    d = math.lcm(*(q for _, q in ratios))
    return [p * (d // q) for p, q in ratios], d


def _simplex(a, b, c):
    """Two-phase Bland simplex, which cannot cycle, exact on rows of Python ints.

    ``a``, ``b``, ``c`` hold floats or ``Fraction``s.  Each tableau row is
    integers over its own positive denominator.  A pivot rewrites only the rows
    with an entry ``f != 0`` in the entering column, as ``R_i p - f R_r`` over
    ``d_i p`` with the gcd divided out (Bareiss, Math. Comp. 1968); the ratio
    test cross-multiplies.  The artificial columns stay through phase 2, barred
    from entering, and the objective row under them is the exact dual ``y``
    (Applegate, Cook, Dash & Espinoza, Oper. Res. Lett. 2007).  Returns the
    optimal value, ``x`` and ``y``; an LP without an optimum raises
    ``ValidationError``.
    """
    m, n = len(b), len(c)
    flip = [-1 if v < 0 else 1 for v in b]
    # Row i is [a_i | e_i | b_i] over its denominator, negated first where b_i < 0.
    rows = [_integers([s * v for v in row] + [int(k == i) for k in range(m)] + [s * r])
            for i, (s, row, r) in enumerate(zip(flip, np.asarray(a).tolist(), b))]
    t, den = [ints for ints, _ in rows], [d for _, d in rows]
    basis = list(range(n, n + m))

    def eliminate(i: int, r: int, col: int) -> None:
        # Row r reads one in col: its numerator there is its denominator.
        p, f = t[r][col], t[i][col]
        row = [u * p - f * v for u, v in zip(t[i], t[r])]
        g = math.gcd(den[i] * p, *row)
        t[i], den[i] = [u // g for u in row], den[i] * p // g

    def pivot(r: int, col: int) -> None:
        g = math.gcd(*t[r]) if t[r][col] > 0 else -math.gcd(*t[r])
        t[r], den[r] = [v // g for v in t[r]], t[r][col] // g
        for i in range(m + 1):
            if i != r and t[i][col]:
                eliminate(i, r, col)
        basis[r] = col

    def price(cost: list[int], d: int) -> None:
        # The objective row minimizing cost / d, reduced against the basis.
        # Phase 1 minimizes the artificial total, phase 2 minimizes -c.
        t[m:], den[m:] = [cost], [d]
        for i, j in enumerate(basis):
            if t[m][j]:
                eliminate(m, i, j)

    def run(active: int) -> None:
        while (enter := next((j for j in range(active) if t[m][j] < 0), None)) is not None:
            leave = -1
            for i in range(m):
                v = t[i][enter]
                # Smallest ratio rhs / v, ties to the smallest basic variable.
                if v > 0 and (leave < 0 or (t[i][-1] * t[leave][enter], basis[i])
                              < (t[leave][-1] * v, basis[leave])):
                    leave = i
            if leave < 0:
                raise ValidationError("LP is unbounded")
            pivot(leave, enter)

    price([0] * n + [1] * m + [0], 1)
    run(n + m)
    # Any artificial mass left means no feasible point.
    if t[m][-1] < 0:
        raise ValidationError("LP is infeasible")
    # Drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and harmless, its artificial stays at zero.
    for i in range(m):
        col = next((j for j in range(n) if t[i][j]), None) if basis[i] >= n else None
        if col is not None:
            pivot(i, col)
    price(*_integers([-v for v in np.asarray(c).tolist()] + [0] * (m + 1)))
    run(n)
    x = {j: Fraction(t[i][-1], den[i]) for i, j in enumerate(basis)}
    x = [x.get(j, Fraction(0)) for j in range(n)]
    y = [s * Fraction(v, den[m]) for s, v in zip(flip, t[m][n:n + m])]
    return Fraction(t[m][-1], den[m]), x, y


def _certificate(ya, b, c, x, y, on=slice(None)) -> tuple:
    """Reduced-cost violation, complementary slackness and duality gap of ``(x, y)``.

    ``ya`` is ``y A``, summed by the caller.  Slackness and the primal value
    read only the columns ``on``, which must hold every nonzero of ``x``.
    """
    rc = c - ya
    x, xc = x[on], c[on]
    return max(0, rc.max(initial=0)), np.max(np.abs(x * rc[on]), initial=0), abs(xc @ x - y @ b)


def _absorb_rounding_defect(problem: LpProblem, b_vec: np.ndarray) -> None:
    """Make marginal rows exactly consistent with unit total mass.

    Float-normalized weights can put the total mass one ulp off one, which
    empties the rational polytope of a fine problem.  A defect below float
    precision goes into the last marginal row; a larger one stays, so
    inconsistent data still comes out infeasible.
    """
    blocks = _block_steps(problem.steps)
    marginals = b_vec[len(b_vec) - len(blocks):]
    defect = 1 - sum(w / 2 ** t for w, t in zip(marginals, blocks))
    if defect != 0 and abs(defect) < Fraction(1, 10 ** 9):
        b_vec[-1] += defect * 2 ** blocks[-1]


def _solve_exact(problem: LpProblem):
    """Value, ``x``, duals and certificate by the integer-row simplex, all rational.

    The certificate sums in ``Fraction``s; ``Y A`` over the nonzeros of ``A``,
    slackness and ``c x`` over the nonzeros of ``x`` only, so every skipped
    term is exactly zero.
    """
    # Fraction(float) is exact, so the rationals encode the float data.
    b = [Fraction(v) for v in problem.b]
    _absorb_rounding_defect(problem, b)
    value, x, y = _simplex(problem.a, b, problem.c)
    rows, cols = np.nonzero(problem.a)
    b_, c_, x_, y_ = (np.array(v, dtype=object)
                      for v in (b, [Fraction(v) for v in problem.c.tolist()], x, y))
    ya = np.zeros(problem.a.shape[1], dtype=object)
    np.add.at(ya, cols, y_[rows] * [Fraction(v) for v in problem.a[rows, cols].tolist()])
    return value, x, y, _certificate(ya, b_, c_, x_, y_, np.flatnonzero(x_))


def _solve_highs(problem: LpProblem):
    """Value, ``x``, duals and certificate by HiGHS, all float.

    One fresh solver per LP, so no state carries between solves.  A model
    HiGHS cannot load counts as a model error, as scipy counts it.
    """
    top = float(np.abs(problem.c).max(initial=0.0))
    scale = unit_scale(top, HIGHS_COST_LIMIT)
    m, n = problem.a.shape
    # Column-major nonzeros, rows ascending within each column.
    cols, rows = np.nonzero(problem.a.T)
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = -scale * problem.c
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, highs.kHighsInf)
    lp.row_lower_ = lp.row_upper_ = problem.b
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kColwise
    matrix.num_col_, matrix.num_row_ = n, m
    matrix.start_ = np.searchsorted(cols, np.arange(n + 1))
    matrix.index_, matrix.value_ = rows, problem.a[rows, cols]
    solver = highs._Highs()
    for name, value in HIGHS_OPTIONS.items():
        if solver.setOptionValue(name, value) != highs.HighsStatus.kOk:
            raise RuntimeError(f"HiGHS refused option {name} = {value!r}")
    loaded = solver.passModel(lp) != highs.HighsStatus.kError
    ran = loaded and solver.run() != highs.HighsStatus.kError
    status = solver.getModelStatus() if loaded else highs.HighsModelStatus.kModelError
    if not ran or status != highs.HighsModelStatus.kOptimal:
        raise ValidationError(_HIGHS_REFUSALS.get(
            status, f"LP solver failed: {solver.modelStatusToString(status)}"))
    solution = solver.getSolution()
    x = np.array(solution.col_value)
    y = -np.array(solution.row_dual) / scale
    residuals = _certificate(y @ problem.a, problem.b, problem.c, x, y)
    return problem.c @ x, x, y, residuals


def solve_lp(problem: LpProblem, exact: bool = False) -> LpSolution:
    """Optimize the stopping polytope and certify the result through duals.

    The float route is HiGHS; ``exact`` switches to the integer-row Bland
    simplex and a rational certificate, refused by ``check_exact_depth``.
    ``x``, value, duals and residuals are rounded to floats last.  Either
    route raises ``ValidationError`` for a polytope without an optimum.
    """
    if exact:
        check_exact_depth(problem.steps)
    value, x, y, residuals = (_solve_exact if exact else _solve_highs)(problem)
    return LpSolution(float(value), np.asarray(x, dtype=float),
                      np.asarray(y, dtype=float), *map(float, residuals))


def lp_solution_to_kernel(problem: LpProblem, solution: LpSolution) -> StoppingKernel:
    """Convert conditional stop masses back to hazard form (``rst.kernel_from_laws``).

    The law at history ``c`` of an earlier atom ``i``'s step gathers, for
    each atom ``j <= i``, the variable of ``c``'s prefix in atom ``j``'s
    block.  The last atom's block is not read: it stops every leaf surely.
    """
    steps = problem.steps
    hist = LatticeSpec(depth=steps[-1], dt=problem.spec.dt, mode="history")
    offsets = list(accumulate((2 ** t for t in _block_steps(steps)), initial=0))
    laws = [np.column_stack([solution.x[offsets[j] + (np.arange(2 ** s) >> (s - steps[j]))]
                             for j in range(i + 1)])
            for i, s in enumerate(steps[:-1])]
    return kernel_from_laws(hist, problem.mu.atoms, laws)
