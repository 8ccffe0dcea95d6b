"""Trees of conditional stopping-time laws (measure-valued martingales).

Every node of a binary history tree carries a weight vector over a fixed atom
grid: the conditional law of the stopping time given the driver path so far.
Three structural properties make such a tree meaningful:

* martingale: each vector is the mean of its two children,
* adaptedness: once an atom's time has passed, its weight is frozen along
  every descendant,
* initial condition: the root vector is the prescribed law.

The module checks these properties, converts between the trees and
hazard-form stopping kernels, and integrates the cost along a tree's paths
(``accumulate``, the tree's objective).

A tree is one array with a row per history, in heap order (see
``lattice.histories``), so checks work on whole steps of rows.  Every tree
starts at time 0, and a continuation below a node is a tree on a clock
restarted there.  Readers compare the atoms' steps (``lattice.atom_steps``),
not times, and ``from_kernel`` and ``accumulate`` walk from atom to atom.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import CostSpec, evaluate
from .errors import SizeGuardError, ValidationError
from .lattice import (
    MAX_HISTORY_DEPTH,
    LatticeSpec,
    NodeId,
    atom_steps,
    child_positions,
    grid_step,
    heap_history,
    states_at_step,
)
from .measures import DiscreteMeasure
from .rst import StoppingKernel, kernel_from_laws

MARTINGALE_TOL = 1e-12
# A tree holds 2^(depth + 1) - 1 rows, and its memory and time double with
# each step.  ``dcstop validate`` and ``dcstop policy`` both build one.  On
# four atoms at depth 16 on a 2-core x86 machine, past the imports, validate
# takes 0.06 s at 90 MB peak RSS, and policy 0.3-0.5 s at 160 MB, of which
# ``extract_policy`` takes 0.06-0.15 s and laying out the 15 MB policy.json
# (``mvm_to_json``) 0.13-0.18 s.  validate took 1 s and 180 MB at depth 20.
TREE_DEPTH_LIMIT = 16


def _rows(s: int) -> slice:
    """The heap rows of step ``s``."""
    return slice(2 ** s - 1, 2 ** (s + 1) - 1)


def _node(row) -> NodeId:
    bits = heap_history(int(row))
    return NodeId(step=len(bits), history=bits)


class MvmTree:
    """Heap-ordered weight vectors over a fixed atom grid, from time 0.

    ``steps`` are the atoms' steps of width ``dt``, the last one ``depth``.
    ``vectors`` (read-only) has a row per history up to it and a column per atom.
    """

    __slots__ = ("dt", "atom_times", "steps", "depth", "vectors")

    def __init__(self, dt: float, atom_times, vectors):
        times = tuple(float(t) for t in atom_times)
        steps = tuple(atom_steps(LatticeSpec(MAX_HISTORY_DEPTH, dt, mode="history"), times))
        arr = np.array(vectors, dtype=float)
        shape = (2 ** (steps[-1] + 1) - 1, len(times))
        if arr.shape != shape:
            raise ValidationError(f"vectors have shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValidationError("vectors must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "depth", steps[-1])
        object.__setattr__(self, "vectors", arr)

    def __setattr__(self, name, value):
        raise AttributeError("MvmTree is immutable")


@dataclass(frozen=True)
class MvmViolation:
    node: NodeId
    prop: str
    residual: float


def validate(mvm: MvmTree, mu: Optional[DiscreteMeasure] = None) -> Optional[MvmViolation]:
    """Check root law, martingale, adaptedness and normalization, in that order.

    Returns the first violation found as ``(node, property, residual)``, or
    ``None`` for a valid tree; without ``mu`` the root law goes unchecked.
    Within a property the reported node is the first offender in heap order:
    the shallowest, and among those the one with the lowest code.  An
    adaptedness residual is the up child's when that one offends, else the
    down child's.  ``mu``'s atoms meet the tree's by step; one off the grid
    or on no tree atom's step is a root violation of residual 1.0.
    """
    if mu is not None:
        atom_at = {s: i for i, s in enumerate(mvm.steps)}
        at = [atom_at.get(grid_step(mvm.dt, a)) for a in mu.atoms]
        res = 1.0
        if None not in at:
            target = np.zeros(len(mvm.atom_times))
            target[at] = mu.weights
            res = float(np.max(np.abs(mvm.vectors[0] - target)))
        if res > MARTINGALE_TOL:
            return MvmViolation(_node(0), "root", res)
    vec = mvm.vectors
    inner, down, up = vec[: len(vec) // 2], vec[1::2], vec[2::2]
    # Atom i is frozen from step steps[i] on, that is from row 2**steps[i] - 1.
    frozen = np.arange(len(inner))[:, None] >= np.array([2 ** s - 1 for s in mvm.steps])
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
            return MvmViolation(_node(bad[0]), prop, float(res[bad[0]]))
    return None


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
    vectors[_rows(last)] = stopped
    for s in range(last - 1, -1, -1):
        stopped = 0.5 * (stopped[1::2] + stopped[0::2])
        vectors[_rows(s)] = stopped
    return MvmTree(spec.dt, kernel.atom_times, vectors)


def to_kernel(mvm: MvmTree) -> StoppingKernel:
    """Hazard-form kernel of the tree, whose rows at each atom step are the laws there."""
    spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    laws = [mvm.vectors[_rows(s)] for s in mvm.steps[:-1]]
    return kernel_from_laws(spec, mvm.atom_times, laws)


def accumulate(mvm: MvmTree, cost: CostSpec) -> float:
    """The tree's objective, as its kernel's: the mean over leaves of what each path pays.

    A path pays, atom by atom, the cost at the atom's step times the mass it
    freezes there.  States come from the tree's own histories, ``dt`` and depth.
    """
    spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    paid = np.zeros(1)
    for i, (start, s) in enumerate(zip((0,) + mvm.steps, mvm.steps)):
        paid = np.repeat(paid, 2 ** (s - start)) + \
            evaluate(cost, states_at_step(spec, s)) * mvm.vectors[_rows(s), i]
    # Leaves are weighted before the sum, so finite payoffs cannot overflow it.
    return math.fsum(paid * 2.0 ** -mvm.depth)


class JsonText(str):
    """A document's value already written, one level in, as the document's
    ``json.dumps(document, sort_keys=True, indent=2)`` writes it."""


def _preorder(depth: int) -> tuple[np.ndarray, list[str]]:
    """A tree's heap rows and their ``U``/``D`` keys, in the keys' sorted order.

    ``D`` sorts before ``U`` and a key before its extensions, so that order is
    the pre-order walk with the down child first: the root, then the down
    subtree, then the up one.  Under a new root, a subtree row at step ``s``
    moves on by ``2**s`` in the down subtree and by twice that in the up one.
    """
    rows, step, keys = np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.intp), [""]
    for _ in range(depth):
        width = 2 ** step
        rows = np.concatenate(([0], rows + width, rows + 2 * width))
        step = np.concatenate(([0], step + 1, step + 1))
        keys = ["", *["D" + key for key in keys], *["U" + key for key in keys]]
    return rows, keys


def _json_floats(values: np.ndarray) -> list[str]:
    """Each float's text as ``json`` writes it, each distinct one formatted once.

    Floats are told apart by their bits, so ``-0.0`` keeps its sign, and a
    non-finite one would read ``NaN`` or ``Infinity``.
    """
    bits = values.view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    texts = json.dumps(np.array(distinct, dtype=np.int64).view(float).tolist())[1:-1].split(", ")
    return list(map(dict(zip(distinct, texts)).__getitem__, bits))


def mvm_to_json(mvm: MvmTree) -> dict:
    """The tree's document: ``dt``, ``atom_times`` and ``nodes``, each history's vector by its key.

    ``nodes`` comes written (``JsonText``), straight from the array, its keys
    in their sorted order (``_preorder``).
    """
    rows, keys = _preorder(mvm.depth)
    floats = _json_floats(mvm.vectors[rows].ravel())
    # What goes before each float: a row's key opens its list, and a comma
    # parts the floats within a row.
    heads = [",\n      "] * len(floats)
    heads[::len(mvm.atom_times)] = ["{\n    \"\": [\n      ",
                                    *(f'\n    ],\n    "{key}": [\n      ' for key in keys[1:])]
    parts = [""] * (2 * len(floats))
    parts[::2], parts[1::2] = heads, floats
    return {
        "dt": mvm.dt,
        "atom_times": list(mvm.atom_times),
        "nodes": JsonText("".join(parts) + "\n    ]\n  }"),
    }
