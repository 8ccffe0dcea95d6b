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
    NodeId,
    atom_steps,
    evaluate,
    project_to_recombining,
    state,
)
from dcstop.dpp import _hull_upper, _pieces_from_affine


def all_paths(n: int) -> list[tuple[int, ...]]:
    return list(itertools.product((0, 1), repeat=n))


def kernel_node(spec: LatticeSpec, bits: tuple[int, ...]) -> NodeId:
    """The node a kernel keyed on ``spec`` uses for the path prefix ``bits``."""
    node = NodeId(step=len(bits), history=bits)
    if spec.mode != "history":
        node = project_to_recombining(spec, node)
    return node


def brute_kernel_stats(kernel, spec, cost=None):
    """Stopping-law weights and expected cost by per-path enumeration.

    Walks every driver path separately, multiplying hazards along the way.
    Returns ``(weights, objective)``; the objective is None when no cost is
    given.
    """
    steps = atom_steps(spec, kernel.atom_times)
    horizon = steps[-1]
    hist = LatticeSpec(depth=horizon, dt=spec.dt, mode="history")
    weights = [0.0] * len(steps)
    objective = 0.0 if cost is not None else None
    p_path = 0.5 ** horizon
    for bits in all_paths(horizon):
        surv = 1.0
        for i, s in enumerate(steps):
            stop = surv * kernel.q[kernel_node(spec, bits[:s])]
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
