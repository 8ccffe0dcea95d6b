"""Shared brute-force references and helpers for the test suite.

The references recompute quantities by direct enumeration or in closed form,
one driver path or node at a time, deliberately avoiding the package's
mass-sweep internals so each comparison crosses two independent code paths.
``state`` and ``stop_cost`` price a stop one node at a time, the reference for
``lattice.states_at_step`` and ``cost.evaluate`` on whole steps;
``children`` and ``reference_advance`` walk from a node to its children, the
reference for ``lattice.child_positions`` and ``rst._advance``.  The paper
checks in ``paper_checks.py`` are built on these walks.
``stored_functions`` reads a solved table's atom-step functions, one per
position, ``block_samples`` samples such functions on a simplex grid, and
``check_scaling`` re-derives a solved table's atom-step functions there
through the explicit stop/renormalize quotient.  ``reference_pair_sup`` hulls
every vertex pair, and ``reference_solve`` runs it at every node with nothing
pruned or shared.  ``barrier_value`` prices a barrier rule by a forward
sweep over ``children``, with no hull at all.  ``reference_simplex`` is the
dense ``Fraction`` tableau the exact LP route used to pivot.
``reference_tree_to_kernel`` is the law-tree route's own hazard conversion,
which ``rst.kernel_from_laws`` replaced.  ``heap_row``,
``tree_from_dict`` and ``tree_dict`` key law-tree rows by history bit tuples.
The JSON readers at the end read back what the package and the CLI write.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable

import numpy as np

from dcstop import (
    ConcavePL,
    ConfigError,
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    MvmTree,
    NoChildrenError,
    NodeId,
    PathState,
    SimplexGrid,
    StoppingKernel,
    ValidationError,
    ValueTable,
    atom_steps,
    nodes_at_step,
    perspective,
    root,
)
from dcstop.dpp import _hull_upper, _pieces_from_affine
from dcstop.lattice import heap_history, node_count
from dcstop.measures import ATOM_MERGE_TOL, WEIGHT_TOL


def all_paths(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def history_level(bits: tuple[int, ...]) -> int:
    return 2 * sum(bits) - len(bits)


def history_max_level(bits: tuple[int, ...]) -> int:
    m = 0
    lvl = 0
    for b in bits:
        lvl += 1 if b else -1
        if lvl > m:
            m = lvl
    return m


def state(spec: LatticeSpec, node: NodeId) -> PathState:
    """Driver state at one node, as floats; ``m`` is None when the lattice does not track it."""
    h = spec.step_width
    if node.history is not None:
        return PathState(
            w=history_level(node.history) * h,
            m=history_max_level(node.history) * h,
            t=node.step * spec.dt,
        )
    m = node.max_level * h if node.max_level is not None else None
    return PathState(w=node.level * h, m=m, t=node.step * spec.dt)


def scalar_form(name: str, params) -> Callable[[float], float]:
    """A cost's named form on one float."""
    if name == "identity":
        return lambda x: x
    if name == "square":
        return lambda x: x * x
    if name == "abs":
        return abs
    if name == "positive_part":
        return lambda x: x if x > 0.0 else 0.0
    if name == "indicator":
        k = float(params["threshold"])
        return lambda x: 1.0 if x >= k else 0.0
    coeffs = [float(c) for c in params["coeffs"]]

    def poly(x: float) -> float:
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
    return poly


def reference_cost(cost, st: PathState) -> float:
    """The cost of stopping in one state, on floats."""
    if cost.kind == "terminal":
        return scalar_form(cost.name, cost.params)(st.w)
    if cost.kind == "running_max":
        if st.m is None:
            raise ConfigError("running_max cost on a lattice that does not track the maximum")
        return scalar_form(cost.name, cost.params)(st.m)
    if cost.kind == "time":
        return scalar_form(cost.name, cost.params)(st.t)
    if cost.name == "polynomial2":
        acc = 0.0
        for i, row in enumerate(cost.params["coeffs"]):
            for j, c in enumerate(row):
                acc += float(c) * st.w ** i * st.t ** j
        return acc
    return scalar_form(cost.name, cost.params)(st.w)


def stop_cost(cost, spec: LatticeSpec, node: NodeId) -> float:
    """The cost of stopping at ``node``, priced from the node alone."""
    return reference_cost(cost, state(spec, node))


def children(spec: LatticeSpec, node: NodeId) -> tuple[NodeId, NodeId]:
    """The up and down successors of ``node``, in that order, built from the node alone.

    The reference for ``lattice.child_positions`` and for the node-keyed walks
    the tests keep beside the package's position arrays.
    """
    if node.step >= spec.depth:
        raise NoChildrenError(f"node at step {node.step} is terminal at depth {spec.depth}")
    s = node.step + 1
    if node.history is not None:
        return (
            NodeId(step=s, history=node.history + (1,)),
            NodeId(step=s, history=node.history + (0,)),
        )
    up_level = node.level + 1
    down_level = node.level - 1
    if node.max_level is None:
        return NodeId(step=s, level=up_level), NodeId(step=s, level=down_level)
    return (
        NodeId(step=s, level=up_level, max_level=max(node.max_level, up_level)),
        NodeId(step=s, level=down_level, max_level=node.max_level),
    )


def reference_advance(spec: LatticeSpec, alive) -> dict:
    """Mass one driver step on, node by node: each ``(node, mass)`` sends half to each child.

    The reference for ``rst._advance``; ``mass`` may be a float or an array.
    """
    nxt = {}
    for node, mass in alive:
        for child in children(spec, node):
            nxt[child] = nxt.get(child, 0.0) + 0.5 * mass
    return nxt


def _paths_with_max_at_most(n: int, l: int, m: int) -> int:
    # Reflection at level m+1: walks from 0 to l in n steps touching m+1
    # biject with walks to 2(m+1) - l, so subtract those.
    def comb_end(end: int) -> int:
        num = n + end
        if num % 2 != 0:
            return 0
        k = num // 2
        if k < 0 or k > n:
            return 0
        return math.comb(n, k)

    return comb_end(l) - comb_end(2 * (m + 1) - l)


def paths_with_max(n: int, l: int, m: int) -> int:
    """Number of n-step walks from 0 ending at level ``l`` with running max ``m``."""
    if m < max(l, 0) or m > n:
        return 0
    return _paths_with_max_at_most(n, l, m) - _paths_with_max_at_most(n, l, m - 1)


def node_prob(spec: LatticeSpec, node: NodeId) -> float:
    """Probability of visiting ``node`` (aggregated over histories when recombining), in closed form.

    The reference for the masses the forward sweep ``rst._advance`` carries.
    """
    n = node.step
    if node.history is not None:
        return 0.5 ** n
    if node.max_level is not None:
        return paths_with_max(n, node.level, node.max_level) * 0.5 ** n
    return math.comb(n, (n + node.level) // 2) * 0.5 ** n


def project_to_recombining(spec: LatticeSpec, node: NodeId) -> NodeId:
    """Collapse a history node to its recombining image under ``spec``'s augmentation."""
    if node.history is None:
        return node
    level = history_level(node.history)
    if spec.augment_max:
        return NodeId(step=node.step, level=level, max_level=history_max_level(node.history))
    return NodeId(step=node.step, level=level)


def kernel_node(spec: LatticeSpec, bits: tuple[int, ...]) -> NodeId:
    """The node a kernel keyed on ``spec`` uses for the path prefix ``bits``."""
    node = NodeId(step=len(bits), history=bits)
    if spec.mode != "history":
        node = project_to_recombining(spec, node)
    return node


def kernel_from_dict(spec: LatticeSpec, atom_times, q: dict[NodeId, float]) -> StoppingKernel:
    """A kernel from stop probabilities keyed by node, each put at its node's position."""
    steps = atom_steps(spec, atom_times)
    return StoppingKernel(spec, atom_times, [[q[n] for n in nodes_at_step(spec, s)] for s in steps])


def kernel_dict(kernel: StoppingKernel) -> dict[NodeId, float]:
    """A kernel's stop probabilities keyed by node."""
    return {node: float(v) for s, values in zip(kernel.steps, kernel.q)
            for node, v in zip(nodes_at_step(kernel.spec, s), values)}


def random_kernel(spec: LatticeSpec, atom_times, rng: np.random.Generator) -> StoppingKernel:
    """Uniformly random stop probabilities; the final atom still stops surely."""
    steps = atom_steps(spec, atom_times)
    q = [rng.random(node_count(spec, s)) for s in steps[:-1]]
    return StoppingKernel(spec, atom_times, q + [np.ones(node_count(spec, steps[-1]))])


def brute_kernel_stats(kernel, cost=None):
    """Stopping-law weights and expected cost by per-path enumeration.

    Walks every driver path separately, multiplying hazards along the way;
    each hazard is looked up at the index of the path's node in
    ``nodes_at_step``.  Returns ``(weights, objective)``; the objective is
    None when no cost is given.
    """
    spec = kernel.spec
    steps = atom_steps(spec, kernel.atom_times)
    horizon = steps[-1]
    hist = LatticeSpec(depth=horizon, dt=spec.dt, mode="history")
    nodes = [nodes_at_step(spec, s) for s in steps]
    weights = [0.0] * len(steps)
    objective = 0.0 if cost is not None else None
    p_path = 0.5 ** horizon
    for bits in all_paths(horizon):
        surv = 1.0
        for i, s in enumerate(steps):
            stop = surv * kernel.q[i][nodes[i].index(kernel_node(spec, bits[:s]))]
            surv -= stop
            weights[i] += stop * p_path
            if cost is not None and stop != 0.0:
                objective += stop * p_path * stop_cost(cost, hist, NodeId(step=s, history=bits[:s]))
    return weights, objective


def random_measure(rng: np.random.Generator, times) -> DiscreteMeasure:
    """A random law on the given atom times with all weights bounded away from 0."""
    w = rng.dirichlet(np.ones(len(times))) + 0.02
    return DiscreteMeasure(times, w / w.sum())


def mean(mu: DiscreteMeasure) -> float:
    return sum(t * w for t, w in zip(mu.atoms, mu.weights))


def from_samples(grid, values) -> ConcavePL:
    """Concave envelope of values sampled on a simplex grid, as an exact ``ConcavePL``."""
    vals = np.asarray(values, dtype=float)
    assert vals.shape == (len(grid.points),)
    if grid.k == 1:
        return ConcavePL.constant(float(vals[0]))
    cloud = np.column_stack([grid.fractions[:, : grid.k - 1], vals])
    affine, vert_ids = _hull_upper(cloud)
    verts = np.column_stack([grid.fractions[vert_ids], vals[vert_ids]])
    return ConcavePL(k=grid.k, pieces=unit_simplex_pieces(affine, grid.k), verts=verts)


def unit_simplex_pieces(affine: np.ndarray, k: int) -> np.ndarray:
    """Full-barycentric pieces for an envelope fit over ``x = y[:k-1]`` on the unit simplex."""
    g = np.zeros((affine.shape[0], k))
    g[:, : k - 1] = affine[:, :-1]
    g += affine[:, -1:]
    return g


def stored_functions(table: ValueTable) -> dict:
    """Each atom step's value functions in position order, from ``table.function``."""
    return {s: [table.function(s, p) for p in range(len(table.bases[s]))] for s in table.steps}


def block_samples(spec: LatticeSpec, steps, functions, resolution: int) -> dict:
    """Each block's functions sampled on ``SimplexGrid(k, resolution)``.

    Keyed ``(k, step, node)``, at the block's closing atom step; ``functions[s]``
    lists step ``s``'s functions in position order, as ``stored_functions``
    and ``reference_solve`` give them.
    """
    r, samples = len(steps), {}
    for k in range(1, r + 1):
        s = steps[r - k]
        grid = SimplexGrid(k, resolution).fractions
        for node, f in zip(nodes_at_step(spec, s), functions[s]):
            samples[(k, s, node)] = f.evaluate_batch(grid)
    return samples


def check_scaling(table: ValueTable, cost: CostSpec) -> None:
    """Stored functions must equal the explicit stop/renormalize quotient to 1e-12.

    ``table`` is the solve of its instance under ``cost``.  Each atom-step
    function is sampled on its own ``SimplexGrid(k, table.resolution)`` and
    compared with its perspective's inner pieces.
    """
    steps, r = table.steps, len(table.steps)
    for k in range(2, r + 1):
        s = steps[r - k]
        y = SimplexGrid(k, table.resolution).fractions
        y1, rest = y[:, 0], 1.0 - y[:, 0]
        live = rest > 1e-14
        for p, node in enumerate(nodes_at_step(table.spec, s)):
            f = table.function(s, p)
            vals = f.evaluate_batch(y)
            c = stop_cost(cost, table.spec, node)
            inner = f.pieces[:, 1:]  # perspective's copy of the continuation
            direct = np.full(len(y), c)
            direct[live] = y1[live] * c + rest[live] * np.min(
                (y[live, 1:] / rest[live, None]) @ inner.T, axis=1)
            off = np.flatnonzero(np.abs(direct - vals) > 1e-12)
            if off.size:
                err = abs(direct[off[0]] - vals[off[0]])
                raise AssertionError(
                    f"renormalization identity off by {err:.3e} "
                    f"at block {k}, step {s}, node {node}"
                )


def reference_pair_sup(up: ConcavePL, down: ConcavePL) -> ConcavePL:
    """``pair_sup`` before pruning: every vertex pair goes into the hull."""
    k = up.k
    if k == 1:
        return ConcavePL.constant(0.5 * (up.verts[0, 1] + down.verts[0, 1]))
    sums = (up.verts[:, None, :] + down.verts[None, :, :]).reshape(-1, k + 1)
    affine, vert_ids = _hull_upper(np.column_stack([sums[:, : k - 1], sums[:, k]]))
    return ConcavePL(k=k, pieces=_pieces_from_affine(affine, k), verts=0.5 * sums[vert_ids])


def reference_solve(spec: LatticeSpec, cost, mu: DiscreteMeasure):
    """``solve``'s root function and atom-step functions by memoised recursion over ``children``.

    Every node gets its own update through ``reference_pair_sup``: no pair is
    pruned and no update is shared.  Returns ``(root function, functions)``,
    where ``functions[s]`` lists the functions of atom step ``s`` in position
    order.
    """
    steps = atom_steps(spec, mu.atoms)
    horizon, memo = steps[-1], {}

    def value(node: NodeId) -> ConcavePL:
        if node not in memo:
            if node.step == horizon:
                memo[node] = ConcavePL.constant(stop_cost(cost, spec, node))
            else:
                up, down = children(spec, node)
                f = reference_pair_sup(value(up), value(down))
                if node.step in steps:
                    f = perspective(stop_cost(cost, spec, node), f)
                memo[node] = f
        return memo[node]

    root_fn = value(root(spec))
    return root_fn, {s: [value(node) for node in nodes_at_step(spec, s)] for s in steps}


def barrier_value(spec: LatticeSpec, cost, mu: DiscreteMeasure,
                  priority: Callable[[PathState], float]) -> float:
    """The expected stop cost of the barrier rule that stops the highest ``priority`` first.

    A greedy forward sweep over ``children``, node by node.  At each atom
    step the atom's weight is stopped from the alive mass: whole priority
    levels from the highest down, and the level where the weight runs out
    pro rata, each of its nodes by one fraction.  The rest then moves one
    step on.  ``priority`` reads a node's ``state``; priorities within 1e-9
    are one level.  For costs whose optimum is the hitting time of a barrier
    (Beiglboeck, Eder, Elgert & Schmock, PTRF 2018), the rule with the right
    order attains ``solve``'s value.
    """
    atoms = dict(zip(atom_steps(spec, mu.atoms), mu.weights))
    alive, value = {root(spec): 1.0}, 0.0
    for s in range(max(atoms) + 1):
        if s in atoms:
            prio = {node: priority(state(spec, node)) for node in alive}
            order = sorted(alive, key=prio.get, reverse=True)
            left, i = atoms[s], 0
            while left > 0.0 and i < len(order):
                j = i
                while j < len(order) and prio[order[j]] >= prio[order[i]] - 1e-9:
                    j += 1
                mass = sum(alive[node] for node in order[i:j])
                frac, left = (1.0, left - mass) if mass <= left else (left / mass, 0.0)
                for node in order[i:j]:
                    value += frac * alive[node] * stop_cost(cost, spec, node)
                    alive[node] *= 1.0 - frac
                i = j
        if s < max(atoms):
            alive = reference_advance(spec, alive.items())
    return value


def grid_rows(grid) -> dict[tuple[int, ...], int]:
    """Row of each grid point, keyed by its integer coordinates."""
    return {tuple(p): i for i, p in enumerate(grid.points.tolist())}


def heap_row(bits: tuple[int, ...]) -> int:
    """Heap row of a history: in binary, ``row + 1`` is a leading 1 and then its bits."""
    row = 1
    for b in bits:
        row = 2 * row + b
    return row - 1


def tree_from_dict(dt, atom_times, vectors) -> MvmTree:
    """A law tree from vectors keyed by history bit tuples, each put at its heap row."""
    rows = [vectors[heap_history(h)] for h in range(len(vectors))]
    return MvmTree(dt, atom_times, np.array(rows, dtype=float))


def root_measure(tree: MvmTree) -> DiscreteMeasure:
    """A law tree's root law: its atoms of positive root weight."""
    kept = [(t, w) for t, w in zip(tree.atom_times, tree.vectors[0]) if w > 0.0]
    return DiscreteMeasure([t for t, _ in kept], [w for _, w in kept])


def tree_dict(tree: MvmTree) -> dict[tuple[int, ...], np.ndarray]:
    """A law tree's vectors keyed by history bit tuples."""
    return {heap_history(h): vec for h, vec in enumerate(tree.vectors)}


def moves_only_right(coupling, tol: float = WEIGHT_TOL) -> bool:
    """True when every cell of the coupling sends mass to an equal or later time."""
    for i, row in enumerate(coupling.rows):
        x = coupling.source.atoms[i]
        for j, m in row:
            if m > tol and coupling.target.atoms[j] < x - ATOM_MERGE_TOL:
                return False
    return True


def all_pairs_holder2_constant(cost, spec: LatticeSpec) -> float:
    """``cost.holder2_constant_from_range`` by its definition: the largest ratio over all pairs."""
    h = spec.step_width
    f = scalar_form(cost.name, cost.params)
    if cost.kind == "terminal":
        values = [l * h for l in range(-spec.depth, spec.depth + 1)]
        power = 2
    elif cost.kind == "running_max":
        values = [l * h for l in range(0, spec.depth + 1)]
        power = 2
    else:
        values = [s * spec.dt for s in range(0, spec.depth + 1)]
        power = 1
    best = 0.0
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            ratio = abs(f(x) - f(y)) / (y - x) ** power
            if ratio > best:
                best = ratio
    return best


def reference_simplex(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """The dense ``Fraction`` tableau the integer-row ``oracle._simplex`` replaced.

    Two-phase, Bland's rule throughout, over ``Fraction`` object arrays.

    Every comparison is exact, and Bland's rule cannot cycle, so the routine
    terminates.  The artificial columns stay through phase 2, barred from
    entering, so the objective row under them is the dual ``y``.  Returns the
    value, ``x`` and ``y``; an LP without an optimum raises
    ``ValidationError``.
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
        raise ValidationError("LP is infeasible")
    # Drive leftover artificials out of the basis; a row with no real pivot
    # candidate is redundant and harmless, its artificial stays at zero.
    for i in range(m):
        if basis[i] >= n:
            candidates = np.flatnonzero(t[i, :n] != 0)
            if candidates.size:
                pivot(i, int(candidates[0]))
                basis[i] = int(candidates[0])
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
    return c @ x, x, flip * t[m, n:n + m]


def reference_tree_to_kernel(mvm: MvmTree) -> StoppingKernel:
    """The law-tree route's own hazard rule: dead below 1e-15, ``np.clip`` keeps ``-0.0``."""
    spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    q = []
    for i, s in enumerate(mvm.steps[:-1]):
        level = mvm.vectors[2 ** s - 1:2 ** (s + 1) - 1]
        remaining = 1.0 - level[:, :i].sum(axis=1)
        dead = remaining <= 1e-15
        ratio = level[:, i] / np.where(dead, 1.0, remaining)
        q.append(np.where(dead, 0.0, np.clip(ratio, 0.0, 1.0)))
    q.append(np.ones(2 ** mvm.depth))
    return StoppingKernel(spec, mvm.atom_times, q)


# --- JSON readers: they read back what the package and the CLI write. -------

def history_from_str(text: str) -> tuple[int, ...]:
    return tuple(1 if ch == "U" else 0 for ch in text)


def node_from_json(data: dict) -> NodeId:
    if "history" in data:
        return NodeId(step=data["step"], history=history_from_str(data["history"]))
    return NodeId(step=data["step"], level=data["level"], max_level=data.get("max_level"))


def kernel_from_json(spec: LatticeSpec, data) -> StoppingKernel:
    """Kernel from its JSON form: one ``{"node", "atom_time", "q"}`` entry per node."""
    times = sorted({item["atom_time"] for item in data})
    return kernel_from_dict(spec, times, {node_from_json(item["node"]): item["q"] for item in data})


def mvm_from_json(data: dict) -> MvmTree:
    """Tree from its JSON form, where nodes are keyed by ``U``/``D`` history strings."""
    vectors = {history_from_str(key): vec for key, vec in data["nodes"].items()}
    return tree_from_dict(data["dt"], data["atom_times"], vectors)
