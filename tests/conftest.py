"""Shared brute-force references for the test suite.

Everything here recomputes quantities by direct enumeration, one driver path
at a time, deliberately avoiding the package's mass-sweep internals so each
comparison crosses two independent code paths.
"""

from __future__ import annotations

import itertools

import numpy as np

from dcstop import (
    ConcavePL,
    DiscreteMeasure,
    LatticeSpec,
    MvmTree,
    NoChildrenError,
    NodeId,
    StoppingKernel,
    atom_steps,
    evaluate,
    nodes_at_step,
    project_to_recombining,
    state,
)
from dcstop.dpp import _hull_upper, _pieces_from_affine
from dcstop.lattice import heap_history


def all_paths(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


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
    return {node: float(v) for s, values in zip(kernel.steps(), kernel.q)
            for node, v in zip(nodes_at_step(kernel.spec, s), values)}


def brute_kernel_stats(kernel, spec, cost=None):
    """Stopping-law weights and expected cost by per-path enumeration.

    Walks every driver path separately, multiplying hazards along the way;
    each hazard is looked up at the index of the path's node in
    ``nodes_at_step``.  Returns ``(weights, objective)``; the objective is
    None when no cost is given.
    """
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
                st = state(hist, NodeId(step=s, history=bits[:s]))
                objective += stop * p_path * evaluate(cost, st)
    return weights, objective


def random_measure(rng: np.random.Generator, times) -> DiscreteMeasure:
    """A random law on the given atom times with all weights bounded away from 0."""
    w = rng.dirichlet(np.ones(len(times))) + 0.02
    return DiscreteMeasure(times, w / w.sum())


def from_samples(grid, values) -> ConcavePL:
    """Concave envelope of values sampled on a simplex grid, as an exact ``ConcavePL``."""
    vals = np.asarray(values, dtype=float)
    assert vals.shape == (grid.size,)
    if grid.k == 1:
        return ConcavePL.constant(float(vals[0]))
    cloud = np.column_stack([grid.fractions[:, : grid.k - 1], vals])
    affine, vert_ids = _hull_upper(cloud)
    pieces = _pieces_from_affine(affine, grid.k, total=1.0)
    verts = np.column_stack([grid.fractions[vert_ids], vals[vert_ids]])
    return ConcavePL(k=grid.k, pieces=pieces, verts=verts)


def grid_rows(grid) -> dict[tuple[int, ...], int]:
    """Row of each grid point, keyed by its integer coordinates."""
    return {tuple(p): i for i, p in enumerate(grid.points.tolist())}


def tree_from_dict(dt, atom_times, vectors, start_step=0) -> MvmTree:
    """A law tree from vectors keyed by history bit tuples, each put at its heap row."""
    rows = [vectors[heap_history(h)] for h in range(len(vectors))]
    return MvmTree(dt, atom_times, np.array(rows, dtype=float), start_step=start_step)


def tree_dict(tree: MvmTree) -> dict[tuple[int, ...], np.ndarray]:
    """A law tree's vectors keyed by history bit tuples."""
    return {heap_history(h): vec for h, vec in enumerate(tree.vectors)}
