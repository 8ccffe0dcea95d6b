"""Trees of conditional stopping-time laws (measure-valued martingales).

Every node of a binary history tree carries a weight vector over a fixed atom
grid: the conditional law of the stopping time given the driver path so far.
Three structural properties make such a tree meaningful:

* martingale: each vector is the mean of its two children,
* adaptedness: once an atom's time has passed, its weight is frozen along
  every descendant,
* initial condition: the root vector is the prescribed law.

The module checks these properties, converts between the trees and
hazard-form stopping kernels, and integrates running payoff along a tree (the
Mayer-form accumulator).

A tree is one array with a row per history, in heap order (see
``lattice.histories``), so checks work on whole steps of rows.  A tree may
start at a positive step (``start_step > 0``); such a subtree is a
continuation below a node, and carries atom times in absolute units.  Readers
compare the atoms' steps (``rel_steps``, from the tree's start), not times,
and ``from_kernel`` and ``accumulate`` walk from atom to atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import CostSpec, evaluate
from .errors import SizeGuardError, ValidationError, is_integer
from .lattice import (
    LatticeSpec,
    NodeId,
    child_positions,
    distinct_steps,
    grid_step,
    heap_history,
    histories,
    history_to_str,
    states_at_step,
)
from .measures import DiscreteMeasure
from .rst import StoppingKernel, kernel_from_laws

MARTINGALE_TOL = 1e-12
# A tree holds 2^(depth + 1) - 1 rows, and its memory and time double with
# each step.  ``dcstop validate`` and ``dcstop policy`` both build one.  On
# four atoms at depth 16 on a 2-core x86 machine, past the imports, validate
# takes 0.06 s at 90 MB peak RSS, and policy 1.5 s at 210 MB, mostly writing
# a 15 MB policy.json (``extract_policy`` takes 0.15 s).  validate took 1 s
# and 180 MB at depth 20.
TREE_DEPTH_LIMIT = 16


def _descendants(row: int, s: int) -> slice:
    """Heap rows ``s`` steps below ``row``; ``_descendants(0, s)`` is step ``s``."""
    return slice(((row + 1) << s) - 1, ((row + 2) << s) - 1)


def _node(row) -> NodeId:
    bits = heap_history(int(row))
    return NodeId(step=len(bits), history=bits)


class MvmTree:
    """Heap-ordered weight vectors over a fixed atom grid.

    ``vectors`` (read-only) has a row per history up to the last atom and a column per atom.
    """

    __slots__ = ("dt", "start_step", "atom_times", "rel_steps", "depth", "vectors")

    def __init__(self, dt: float, atom_times, vectors, start_step: int = 0):
        if not (is_integer(start_step) and start_step >= 0):
            raise ValidationError(f"start_step must be a non-negative integer, got {start_step!r}")
        if not 0 < dt < math.inf:
            raise ValidationError(f"dt must be positive and finite, got {dt!r}")
        times = tuple(float(t) for t in atom_times)
        if not times or not all(math.isfinite(t) for t in times) or any(
                b - a <= 0 for a, b in zip(times, times[1:])):
            raise ValidationError("atom times must be finite, nonempty and strictly increasing")
        rel_steps = []
        for t in times:
            s = grid_step(dt, t)
            if s is None:
                raise ValidationError(f"atom time {t} is not on the step grid with dt={dt}")
            if s < max(start_step, 1):
                raise ValidationError(f"atom time {t} lies before the tree start")
            rel_steps.append(s - start_step)
        depth = distinct_steps(rel_steps, ValidationError)[-1]
        arr = np.array(vectors, dtype=float)
        shape = (2 ** (depth + 1) - 1, len(times))
        if arr.shape != shape:
            raise ValidationError(f"vectors have shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("vectors must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "start_step", int(start_step))
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "rel_steps", tuple(rel_steps))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "vectors", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MvmTree is immutable")

    def root_vector(self) -> np.ndarray:
        return self.vectors[0]


@dataclass(frozen=True)
class MvmViolation:
    node: NodeId
    prop: str
    residual: float


@dataclass(frozen=True)
class MvmReport:
    ok: bool
    violation: Optional[MvmViolation] = None


def validate(mvm: MvmTree, mu: Optional[DiscreteMeasure] = None) -> MvmReport:
    """Check root law, martingale, adaptedness and normalization, in that order.

    Returns the first violation found as ``(node, property, residual)``.
    Within a property the reported node is the first offender in heap order:
    the shallowest, and among those the one with the lowest code.  An
    adaptedness residual is the up child's when that one offends, else the
    down child's.  ``mu``'s atoms meet the tree's by step; one off the grid
    or on no tree atom's step is a root violation of residual 1.0.
    """
    if mu is not None:
        atom_at = {mvm.start_step + r: i for i, r in enumerate(mvm.rel_steps)}
        at = [atom_at.get(grid_step(mvm.dt, a)) for a in mu.atoms]
        res = 1.0
        if None not in at:
            target = np.zeros(len(mvm.atom_times))
            target[at] = mu.weights
            res = float(np.max(np.abs(mvm.root_vector() - target)))
        if res > MARTINGALE_TOL:
            return MvmReport(False, MvmViolation(_node(0), "root", res))
    vec = mvm.vectors
    inner, down, up = vec[: len(vec) // 2], vec[1::2], vec[2::2]
    # Atom i is frozen from step rel_steps[i] on, that is from row 2**rel_steps[i] - 1.
    frozen = np.arange(len(inner))[:, None] >= np.array([2 ** r - 1 for r in mvm.rel_steps])
    drift_up = np.max(np.where(frozen, np.abs(inner - up), 0.0), axis=1)
    drift_down = np.max(np.where(frozen, np.abs(inner - down), 0.0), axis=1)
    low = vec.min(axis=1)
    # Per property, one residual per row, above ``MARTINGALE_TOL`` exactly where the row offends.
    residuals = (
        ("martingale", np.max(np.abs(inner - 0.5 * (up + down)), axis=1)),
        ("adapted", np.where(drift_up > MARTINGALE_TOL, drift_up, drift_down)),
        ("normalized", np.where(low < -MARTINGALE_TOL, -low, np.abs(vec.sum(axis=1) - 1.0))),
    )
    for prop, res in residuals:
        bad = np.flatnonzero(res > MARTINGALE_TOL)
        if bad.size:
            return MvmReport(False, MvmViolation(_node(bad[0]), prop, float(res[bad[0]])))
    return MvmReport(True, None)


def check_tree_depth(horizon: int) -> None:
    """Refuse a law tree past ``TREE_DEPTH_LIMIT`` before anything is solved, built or walked."""
    if horizon > TREE_DEPTH_LIMIT:
        raise SizeGuardError(
            f"law tree walks 2^{horizon} histories (limit 2^{TREE_DEPTH_LIMIT})"
        )


def from_kernel(kernel: StoppingKernel) -> MvmTree:
    """Tree of conditional laws of a kernel's stopping time.

    Leaf vectors are the per-path stopping laws (hazard products along the
    path); interior vectors are backward halving averages, so the martingale
    and freezing properties hold by construction and the root equals the
    kernel marginal.  The tree's step width is the kernel lattice's.
    """
    spec, steps, last = kernel.spec, kernel.steps, kernel.steps[-1]
    check_tree_depth(last)
    # Each history carries its node's position and its own survival from
    # atom to atom, and stops with the hazard read at that position.
    pos, alive, stops = np.zeros(1, dtype=np.intp), np.ones(1), []
    for start, s, qv in zip((0,) + steps, steps, kernel.q):
        for r in range(start, s):
            pos = child_positions(spec, r)[pos].ravel()
        q = qv[pos]
        alive = np.repeat(alive, 2 ** (s - start))
        stops.append(alive * q)
        alive = alive * (1.0 - q)
    stopped = np.column_stack([np.repeat(stop, 2 ** (last - s))
                               for s, stop in zip(steps, stops)])
    vectors = np.empty((2 ** (last + 1) - 1, len(steps)))
    vectors[_descendants(0, last)] = stopped
    for s in range(last - 1, -1, -1):
        stopped = 0.5 * (stopped[1::2] + stopped[0::2])
        vectors[_descendants(0, s)] = stopped
    return MvmTree(spec.dt, kernel.atom_times, vectors)


def to_kernel(mvm: MvmTree) -> StoppingKernel:
    """Hazard-form kernel of the tree, whose rows at each atom step are the laws there."""
    if mvm.start_step != 0:
        raise ValidationError("only full trees (start_step == 0) convert to kernels")
    spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    laws = [mvm.vectors[_descendants(0, s)] for s in mvm.rel_steps[:-1]]
    return kernel_from_laws(spec, mvm.atom_times, laws)


@dataclass(frozen=True)
class Accumulator:
    """Running payoff ``Y`` per node, in heap order: the cost paid at each freeze so far."""

    y: np.ndarray
    depth: int

    def leaf_expectation(self) -> float:
        # Each leaf is weighted before the sum, so finite payoffs cannot
        # overflow it; a power of two scales exactly.
        return math.fsum(self.y[len(self.y) // 2:] * 2.0 ** -self.depth)


def accumulate(mvm: MvmTree, cost: CostSpec) -> Accumulator:
    """Integrate the cost against each path's freezing masses.

    States are derived from the tree's own histories, its ``dt`` and its
    depth.  The expectation of ``Y`` over leaves is the kernel objective of
    the tree.
    """
    if mvm.start_step != 0:
        raise ValidationError("accumulate needs a full tree (start_step == 0)")
    hist_spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    # The cost paid at each atom's step, then each node adds its parent's.
    y = np.zeros(len(mvm.vectors))
    for i, s in enumerate(mvm.rel_steps):
        rows = _descendants(0, s)
        y[rows] = evaluate(cost, states_at_step(hist_spec, s)) * mvm.vectors[rows, i]
    for s in range(1, mvm.depth + 1):
        y[_descendants(0, s)] += np.repeat(y[_descendants(0, s - 1)], 2)
    return Accumulator(y=y, depth=mvm.depth)


def mvm_to_json(mvm: MvmTree) -> dict:
    keys = (history_to_str(bits) for s in range(mvm.depth + 1) for bits in histories(s))
    return {
        "dt": mvm.dt,
        "start_step": mvm.start_step,
        "atom_times": list(mvm.atom_times),
        "nodes": dict(zip(keys, mvm.vectors.tolist())),
    }
