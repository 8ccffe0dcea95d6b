"""Randomized stopping rules on the lattice, in survival/hazard form.

A kernel assigns each node at an atom step a stop probability ``q`` meaning:
conditional on having reached the node without stopping, stop there with
probability ``q``.  The final atom always has ``q = 1``, so the rule is a
probability distribution over the atom times on every path.  Indexing ``q`` by
node position (see ``lattice.nodes_at_step``) makes adaptedness structural: a
decision can only read the node, that is, the path so far.

The module computes exact marginals and objective values by a forward sweep
over per-step arrays, and simulates kernels by a seeded Monte Carlo over node
counts.  A kernel stores its atom steps, and the sweeps walk from atom to
atom: they carry the mass (or the path counts, split binomially) on to the
next atom's step and split it there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostSpec, evaluate
from .errors import SizeGuardError, ValidationError
from .lattice import (
    LatticeSpec,
    atom_steps,
    child_positions,
    node_count,
    node_to_json,
    nodes_at_step,
    states_at_step,
)
from .measures import DiscreteMeasure

Q_SNAP_TOL = 1e-12
# Mass smaller than this is treated as never reaching a node (0/0 -> 0 rule).
DEAD_MASS = 1e-15
# The most paths one Monte Carlo run takes.  The count sampler's cost does not
# grow with it; the cap keeps every node count exact in the float64 scatter
# (far below 2**53) and is the limit the CLI refuses past with exit code 2.
SIM_PATH_LIMIT = 10 ** 8


class StoppingKernel:
    """Hazard-form stopping rule over a fixed atom set on a fixed lattice.

    ``q[i]`` (read-only) holds the stop probability at every node of atom
    ``i``'s step ``steps[i]``, indexed by the node's position there on
    ``spec``.  The kernel carries its lattice and its atom steps, so its
    readers take the kernel alone.
    """

    __slots__ = ("spec", "atom_times", "steps", "q")

    def __init__(self, spec: LatticeSpec, atom_times, q):
        times = tuple(float(t) for t in atom_times)
        steps = atom_steps(spec, times)
        if len(q) != len(steps):
            raise ValidationError(f"kernel has {len(q)} stop arrays for {len(steps)} atoms")
        clean = []
        for s, values in zip(steps, q):
            arr = np.array(values, dtype=float)
            if arr.shape != (node_count(spec, s),):
                raise ValidationError(
                    f"step {s} has {node_count(spec, s)} nodes, got q of shape {arr.shape}")
            final = s == steps[-1]
            # NaN fails every comparison, so it is refused along with the rest.
            ok = (np.abs(arr - 1.0) <= Q_SNAP_TOL if final
                  else (arr >= -Q_SNAP_TOL) & (arr <= 1.0 + Q_SNAP_TOL))
            bad = np.flatnonzero(~ok)
            if bad.size:
                need = "1: the final atom must stop surely" if final else "a number in [0, 1]"
                raise ValidationError(
                    f"q = {arr[bad[0]]} at position {bad[0]} of step {s} must be {need}")
            arr = np.ones(arr.size) if final else np.where(
                arr < 0.0, 0.0, np.where(arr > 1.0, 1.0, arr))
            arr.flags.writeable = False
            clean.append(arr)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "q", tuple(clean))

    def __setattr__(self, name, value):
        raise AttributeError("StoppingKernel is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StoppingKernel):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.atom_times == other.atom_times
            and all(np.array_equal(a, b) for a, b in zip(self.q, other.q))
        )


def _advance(child: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """Mass one driver step on: each position sends half its mass to each child.

    ``child`` is the step's ``lattice.child_positions``; ``mass`` has one
    entry per position.  A node has at most two parents, so each sum has at
    most two terms and comes out the same in any order.
    """
    return np.bincount(child.ravel(), np.repeat(0.5 * mass, 2))


def kernel_from_laws(spec: LatticeSpec, atom_times, laws) -> StoppingKernel:
    """Hazard-form kernel from the stopping laws at each earlier atom step.

    Row ``p`` of ``laws[i]`` holds, for the node at position ``p`` of atom
    ``i``'s step, the mass each atom ``j <= i`` takes given the path there
    (later columns are not read).  The hazard is atom ``i``'s mass over the
    mass still alive, ``1 - sum_{j < i} laws[i][:, j]``, 0 where at most
    ``DEAD_MASS`` is alive, clamped into ``[0, 1]`` with ``-0.0`` read as 0.0.
    The final atom always stops, on every node of its step on ``spec``, so a
    law given for it is not read.
    """
    steps = atom_steps(spec, atom_times)
    q = []
    for i, law in enumerate(laws[:len(steps) - 1]):
        remaining = 1.0 - law[:, :i].sum(axis=1)
        dead = remaining <= DEAD_MASS
        ratio = law[:, i] / np.where(dead, 1.0, remaining)
        q.append(np.where(dead, 0.0, np.where(ratio > 0.0, np.minimum(ratio, 1.0), 0.0)))
    return StoppingKernel(spec, atom_times, q + [np.ones(node_count(spec, steps[-1]))])


def _forward_stops(kernel: StoppingKernel) -> list[np.ndarray]:
    """Sweep the kernel's lattice forward from atom to atom, splitting alive mass at each.

    ``stops[i][p]`` is the mass (path-probability weighted, unconditional)
    stopping at atom i at the node of position ``p``.
    """
    alive = np.ones(1)
    stops = []
    for start, s, qv in zip((0,) + kernel.steps, kernel.steps, kernel.q):
        for r in range(start, s):
            alive = _advance(child_positions(kernel.spec, r), alive)
        stops.append(alive * qv)
        alive = alive * (1.0 - qv)
    return stops


def marginal_of(kernel: StoppingKernel) -> DiscreteMeasure:
    """Law of the stopping time induced by the kernel on its lattice."""
    weights = [math.fsum(stop) for stop in _forward_stops(kernel)]
    return DiscreteMeasure(kernel.atom_times, weights)


def objective_value(kernel: StoppingKernel, cost: CostSpec) -> float:
    """Expected cost at the stop, exactly (forward sweep, no sampling)."""
    terms = []
    for s, stop in zip(kernel.steps, _forward_stops(kernel)):
        live = np.flatnonzero(stop)
        terms += (stop[live] * evaluate(cost, states_at_step(kernel.spec, s))[live]).tolist()
    return math.fsum(terms)


@dataclass(frozen=True)
class SimReport:
    n_paths: int
    seed: int
    empirical_marginal: DiscreteMeasure
    mean: float
    stderr: float


def check_sim_paths(n_paths: int) -> None:
    """Refuse a Monte Carlo run past ``SIM_PATH_LIMIT`` paths before any draw."""
    if n_paths > SIM_PATH_LIMIT:
        raise SizeGuardError(f"simulation of {n_paths} paths (limit {SIM_PATH_LIMIT})")


def _sample_stops(kernel: StoppingKernel, n_paths: int,
                  rng: np.random.Generator) -> list[np.ndarray]:
    """Sampled ``_forward_stops``: ``stops[i][p]`` paths stop at atom ``i``, position ``p``.

    Paths start at the root and walk from atom to atom: per step ``Binomial(alive, 1/2)``
    of a node's paths move up, the rest down; at atom ``i``'s ``Binomial(alive, q[i])`` stop.
    """
    alive = np.array([n_paths], dtype=np.int64)
    stops = []
    for start, s, qv in zip((0,) + kernel.steps, kernel.steps, kernel.q):
        for r in range(start, s):
            up = rng.binomial(alive, 0.5)
            moves = np.column_stack([alive - up, up]).ravel()
            alive = np.bincount(child_positions(kernel.spec, r).ravel(), moves).astype(np.int64)
        stops.append(rng.binomial(alive, qv))
        alive = alive - stops[-1]
    return stops


def simulate(kernel: StoppingKernel, cost: CostSpec, n_paths: int, seed: int) -> SimReport:
    """Monte Carlo estimate of the kernel objective from ``n_paths`` paths.

    The rule reads only the node, so the paths at a node are exchangeable
    and only their count is kept (``_sample_stops``): no array grows with
    ``n_paths``.  The draws come from ``default_rng(seed)`` in a fixed order,
    so the report is a pure function of the kernel, the cost, ``n_paths`` and
    ``seed``.  Deviations from the mean are scaled by a power of two, so that
    costs near the float limit overflow neither moment.
    """
    check_sim_paths(n_paths)
    stops = _sample_stops(kernel, n_paths, np.random.default_rng(seed))
    costs = [evaluate(cost, states_at_step(kernel.spec, s)) for s in kernel.steps]
    count, value = np.concatenate(stops), np.concatenate(costs)
    live = count > 0
    count, value = count[live], value[live]
    # fsum of the rounded shares can land an ulp off a constant payoff.
    mean = min(max(math.fsum(count / n_paths * value), value.min()), value.max())
    stderr = 0.0
    if n_paths > 1:
        dev = value - mean
        scale = math.ldexp(1.0, math.frexp(float(np.abs(dev).max()))[1])
        var = math.fsum(count * (dev / scale) ** 2) / (n_paths - 1)
        stderr = scale * math.sqrt(var / n_paths)
    marginal = DiscreteMeasure(kernel.atom_times, [int(stop.sum()) / n_paths for stop in stops])
    return SimReport(
        n_paths=n_paths, seed=seed, empirical_marginal=marginal,
        mean=mean, stderr=stderr,
    )


def feasible_kernel(spec: LatticeSpec, mu: DiscreteMeasure,
                    rng: np.random.Generator) -> StoppingKernel:
    """Random kernel whose marginal is ``mu``, each hazard array in closed form.

    The alive mass ``a`` walks from atom to atom.  At each atom but the last,
    which stops surely, a random profile ``u``, drawn in position order, sets
    the hazards ``q = w / A * (1 + e * (u / m - 1))`` for the atom's weight
    ``w``, with ``A = sum(a)`` and ``m = a @ u / A``.  Since ``a @ (u / m) = A``,
    the atom stops ``a @ q = w`` for any ``e``; ``e`` is the largest in
    ``[0, 1]`` that keeps ``q <= 1`` at the profile's peak.  An atom whose
    weight takes all the alive mass stops it everywhere.
    """
    steps = atom_steps(spec, mu.atoms)
    alive = np.ones(1)
    q = []
    for start, s, weight in zip([0] + steps, steps[:-1], mu.weights):
        for r in range(start, s):
            alive = _advance(child_positions(spec, r), alive)
        u = 0.1 + 0.9 * rng.random(len(alive))
        total = alive.sum()
        if weight >= total:
            q.append(np.ones(len(alive)))
        else:
            m = alive @ u / total
            # The peak hazard is (weight + e * rise) / total; keep it at most 1.
            room, rise = total - weight, weight * (u.max() / m - 1.0)
            e = 1.0 if room >= rise else room / rise
            q.append(weight / total * (1.0 + e * (u / m - 1.0)))
        alive = alive * (1.0 - q[-1])
    q.append(np.ones(node_count(spec, steps[-1])))
    return StoppingKernel(spec, mu.atoms, q)


def kernel_to_json(kernel: StoppingKernel) -> list[dict]:
    out = []
    for t, s, q in zip(kernel.atom_times, kernel.steps, kernel.q):
        for node, qv in zip(nodes_at_step(kernel.spec, s), q.tolist()):
            out.append({"node": node_to_json(node), "atom_time": t, "q": qv})
    return out
