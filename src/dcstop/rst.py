"""Randomized stopping rules on the lattice, in survival/hazard form.

A kernel assigns each node at an atom step a stop probability ``q`` meaning:
conditional on having reached the node without stopping, stop there with
probability ``q``.  The final atom always has ``q = 1``, so the rule is a
probability distribution over the atom times on every path.  Keying ``q`` by
node makes adaptedness structural: a decision can only read the path so far.

The module computes exact marginals and objective values by a forward sweep,
re-routes stop mass rightward along a monotone coupling (the push-right
construction used by the stability bounds), and simulates kernels with a
seeded vectorized Monte Carlo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import CostSpec, evaluate
from .errors import RightShiftError, SizeGuardError, ValidationError
from .lattice import (
    LatticeSpec,
    NodeId,
    atom_steps,
    children,
    node_from_json,
    node_to_json,
    nodes_at_step,
    root,
    state,
)
from .measures import (
    ATOM_MERGE_TOL,
    DiscreteMeasure,
    MonotoneCoupling,
    measure_to_json,
)

Q_SNAP_TOL = 1e-12
# Mass smaller than this is treated as never reaching a node (0/0 -> 0 rule).
DEAD_MASS = 1e-15
# Fixed Monte Carlo chunk so results depend on the seed only.
SIM_CHUNK = 1 << 17
# Every path's payoff is kept until the end, 8 bytes each: 800 MB at the limit.
SIM_PATH_LIMIT = 10 ** 8


class StoppingKernel:
    """Hazard-form stopping rule over a fixed atom set on a fixed lattice."""

    __slots__ = ("spec", "atom_times", "q")

    def __init__(self, spec: LatticeSpec, atom_times, q: dict[NodeId, float]):
        times = tuple(float(t) for t in atom_times)
        if any(b - a <= 0 for a, b in zip(times, times[1:])):
            raise ValidationError("atom times must be strictly increasing")
        steps = atom_steps(spec, times)
        clean: dict[NodeId, float] = {}
        step_set = set(steps)
        for node, value in q.items():
            if node.step not in step_set:
                raise ValidationError(f"kernel entry at non-atom step {node.step}")
            v = float(value)
            if v < -Q_SNAP_TOL or v > 1.0 + Q_SNAP_TOL:
                raise ValidationError(f"stop probability {v} outside [0, 1] at {node}")
            clean[node] = min(max(v, 0.0), 1.0)
        for i, s in enumerate(steps):
            for node in nodes_at_step(spec, s):
                if node not in clean:
                    raise ValidationError(f"kernel missing entry for {node}")
                if i == len(steps) - 1:
                    if abs(clean[node] - 1.0) > Q_SNAP_TOL:
                        raise ValidationError(
                            f"final atom must stop surely, got q={clean[node]} at {node}"
                        )
                    clean[node] = 1.0
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "q", clean)

    def __setattr__(self, name, value):
        raise AttributeError("StoppingKernel is immutable")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StoppingKernel):
            return NotImplemented
        return (
            self.spec == other.spec
            and self.atom_times == other.atom_times
            and self.q == other.q
        )

    def steps(self) -> list[int]:
        return atom_steps(self.spec, self.atom_times)


def _check_same_lattice(kernel: StoppingKernel, spec: LatticeSpec):
    if kernel.spec != spec:
        raise ValidationError("kernel was built for a different lattice")


def _advance(spec: LatticeSpec, alive) -> dict:
    """Mass one driver step on: each ``(node, mass)`` sends half to each child.

    Children are filled in the order the pairs come, up before down, and
    ``mass`` may be a float or an array of masses.
    """
    nxt = {}
    for node, mass in alive:
        for child in children(spec, node):
            nxt[child] = nxt.get(child, 0.0) + 0.5 * mass
    return nxt


def _forward_stops(kernel: StoppingKernel, spec: LatticeSpec) -> list[dict[NodeId, float]]:
    """Sweep the lattice forward, splitting alive mass at every atom step.

    ``stops[i]`` maps node -> mass stopping at atom i (path-probability
    weighted, unconditional).
    """
    steps = kernel.steps()
    last = steps[-1]
    alive: dict[NodeId, float] = {root(spec): 1.0}
    stops: list[dict[NodeId, float]] = []
    for s in range(0, last + 1):
        if s in steps:
            stopped: dict[NodeId, float] = {}
            for node, mass in alive.items():
                qv = kernel.q[node]
                stopped[node] = mass * qv
                alive[node] = mass * (1.0 - qv)
            stops.append(stopped)
        if s < last:
            alive = _advance(spec, ((node, mass) for node, mass in alive.items() if mass != 0.0))
    return stops


def marginal_of(kernel: StoppingKernel, spec: LatticeSpec) -> DiscreteMeasure:
    """Law of the stopping time induced by the kernel."""
    _check_same_lattice(kernel, spec)
    stops = _forward_stops(kernel, spec)
    weights = [sum(d.values()) for d in stops]
    return DiscreteMeasure(kernel.atom_times, weights)


def objective_value(kernel: StoppingKernel, spec: LatticeSpec, cost: CostSpec) -> float:
    """Expected cost at the stop, exactly (forward sweep, no sampling)."""
    _check_same_lattice(kernel, spec)
    stops = _forward_stops(kernel, spec)
    total = 0.0
    for stopped in stops:
        for node, mass in stopped.items():
            if mass != 0.0:
                total += mass * evaluate(cost, state(spec, node))
    return total


def push_right(kernel: StoppingKernel, spec: LatticeSpec,
               coupling: MonotoneCoupling) -> StoppingKernel:
    """Re-route every stop decision rightward along ``coupling``.

    The coupling's source must be the kernel's marginal; its target becomes
    the new marginal.  Each unit of mass stopped at a source atom continues
    and stops at its coupled target time, split across the future subtree
    proportionally to path probability, so the realized expected shift equals
    the coupling cost exactly.
    """
    new_kernel, _ = push_right_with_shift(kernel, spec, coupling)
    return new_kernel


def push_right_with_shift(kernel: StoppingKernel, spec: LatticeSpec,
                          coupling: MonotoneCoupling) -> tuple[StoppingKernel, float]:
    """``push_right`` plus the realized expected shift ``E|tau' - tau|``."""
    _check_same_lattice(kernel, spec)
    source = marginal_of(kernel, spec)
    if len(source) != len(coupling.source) or any(
        abs(a - b) > ATOM_MERGE_TOL or abs(u - v) > 1e-9
        for a, b, u, v in zip(
            source.atoms, coupling.source.atoms, source.weights, coupling.source.weights
        )
    ):
        raise ValidationError("coupling source does not match the kernel marginal")
    target = coupling.target
    src_steps = kernel.steps()
    tgt_steps = atom_steps(spec, target.atoms)
    for i, row in enumerate(coupling.rows):
        for j, m in row:
            if m > 0.0 and target.atoms[j] < source.atoms[i] - ATOM_MERGE_TOL:
                raise RightShiftError(
                    f"coupling moves mass left: {source.atoms[i]} -> {target.atoms[j]}"
                )
    # Per source atom: fractions of its stop mass going to each target atom.
    fractions: list[list[tuple[int, float]]] = []
    for i, row in enumerate(coupling.rows):
        wi = source.weights[i]
        fractions.append([(j, m / wi) for j, m in row if m > 0.0])

    last = tgt_steps[-1]
    # alive[node]: mass still run by the old kernel; earm[node][j]: mass headed
    # to stop at target atom j.
    alive: dict[NodeId, float] = {root(spec): 1.0}
    earm: dict[NodeId, np.ndarray] = {root(spec): np.zeros(len(target))}
    new_q: dict[NodeId, float] = {}
    shift = 0.0
    for s in range(0, last + 1):
        if s in src_steps:
            i = src_steps.index(s)
            for node, mass in alive.items():
                qv = kernel.q[node]
                delta = mass * qv
                alive[node] = mass - delta
                if delta != 0.0:
                    marks = earm[node]
                    for j, frac in fractions[i]:
                        part = delta * frac
                        marks[j] += part
                        shift += part * abs(target.atoms[j] - source.atoms[i])
        if s in tgt_steps:
            j = tgt_steps.index(s)
            final = j == len(tgt_steps) - 1
            for node in list(earm):
                marks = earm[node]
                total_alive = alive[node] + sum(marks[jj] for jj in range(j, len(marks)))
                stopping = marks[j]
                marks[j] = 0.0
                if final:
                    new_q[node] = 1.0
                elif total_alive <= DEAD_MASS:
                    new_q[node] = 0.0
                else:
                    new_q[node] = min(1.0, stopping / total_alive)
        if s < last:
            alive = _advance(spec, alive.items())
            earm = _advance(spec, earm.items())
    return StoppingKernel(spec, target.atoms, new_q), shift


@dataclass(frozen=True)
class SimReport:
    n_paths: int
    seed: int
    empirical_marginal: DiscreteMeasure
    mean: float
    stderr: float

    def to_json(self) -> dict:
        return {
            "n_paths": self.n_paths,
            "seed": self.seed,
            "empirical_marginal": measure_to_json(self.empirical_marginal),
            "mean": self.mean,
            "stderr": self.stderr,
        }


def _encode_levels(levels: np.ndarray, step: int) -> np.ndarray:
    return (levels + step) // 2


def _atom_lookups(kernel: StoppingKernel, spec: LatticeSpec, cost: CostSpec):
    """Per atom step: dense arrays mapping an encoded node to (q, cost)."""
    steps = kernel.steps()
    lookups = []
    for s in steps:
        nodes = nodes_at_step(spec, s)
        if spec.mode == "history":
            size = 1 << s
        elif spec.augment_max:
            size = (s + 1) * (s + 1)
        else:
            size = s + 1
        q_arr = np.full(size, np.nan)
        c_arr = np.full(size, np.nan)
        # History nodes come in code order, so there a node's index is its code.
        for idx, node in enumerate(nodes):
            if spec.mode != "history":
                idx = (node.level + s) // 2
                if spec.augment_max:
                    idx = idx * (s + 1) + node.max_level
            q_arr[idx] = kernel.q[node]
            c_arr[idx] = evaluate(cost, state(spec, node))
        lookups.append((s, q_arr, c_arr))
    return lookups


def check_sim_paths(n_paths: int) -> None:
    """Refuse a Monte Carlo run past ``SIM_PATH_LIMIT`` paths before any draw."""
    if n_paths > SIM_PATH_LIMIT:
        raise SizeGuardError(f"simulation of {n_paths} paths (limit {SIM_PATH_LIMIT})")


def simulate(kernel: StoppingKernel, spec: LatticeSpec, cost: CostSpec,
             n_paths: int, seed: int) -> SimReport:
    """Monte Carlo estimate of the kernel objective.

    One uniform is drawn per path per atom step (whether or not the path is
    still alive), so the draw stream and therefore the result is a pure
    function of ``seed`` and ``n_paths``.
    """
    _check_same_lattice(kernel, spec)
    check_sim_paths(n_paths)
    lookups = _atom_lookups(kernel, spec, cost)
    last = lookups[-1][0]
    rng = np.random.default_rng(seed)
    counts = np.zeros(len(kernel.atom_times), dtype=np.int64)
    payoff_chunks = []
    done = 0
    while done < n_paths:
        chunk = min(SIM_CHUNK, n_paths - done)
        levels = np.zeros(chunk, dtype=np.int64)
        maxes = np.zeros(chunk, dtype=np.int64)
        codes = np.zeros(chunk, dtype=np.int64)
        active = np.ones(chunk, dtype=bool)
        payoff = np.zeros(chunk)
        atom_idx = 0
        for s in range(1, last + 1):
            ups = rng.random(chunk) < 0.5
            levels += np.where(ups, 1, -1)
            np.maximum(maxes, levels, out=maxes)
            if spec.mode == "history":
                codes = (codes << 1) | ups.astype(np.int64)
            step_s, q_arr, c_arr = lookups[atom_idx]
            if s == step_s:
                if spec.mode == "history":
                    enc = codes
                elif spec.augment_max:
                    enc = _encode_levels(levels, s) * (s + 1) + maxes
                else:
                    enc = _encode_levels(levels, s)
                u = rng.random(chunk)
                stop_now = active & (u < q_arr[enc])
                payoff[stop_now] = c_arr[enc[stop_now]]
                counts[atom_idx] += int(stop_now.sum())
                active &= ~stop_now
                atom_idx += 1
                if atom_idx == len(lookups):
                    break
        payoff_chunks.append(payoff)
        done += chunk
    payoffs = np.concatenate(payoff_chunks)
    mean = float(payoffs.mean())
    stderr = float(payoffs.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    kept = [(t, c) for t, c in zip(kernel.atom_times, counts) if c > 0]
    marginal = DiscreteMeasure([t for t, _ in kept], [c / n_paths for _, c in kept])
    return SimReport(
        n_paths=n_paths, seed=seed, empirical_marginal=marginal,
        mean=mean, stderr=stderr,
    )


def random_kernel(spec: LatticeSpec, atom_times, rng: np.random.Generator) -> StoppingKernel:
    """Uniformly random stop probabilities; the final atom still stops surely."""
    steps = atom_steps(spec, atom_times)
    q: dict[NodeId, float] = {}
    for i, s in enumerate(steps):
        for node in nodes_at_step(spec, s):
            q[node] = 1.0 if i == len(steps) - 1 else float(rng.random())
    return StoppingKernel(spec, atom_times, q)


def feasible_kernel(spec: LatticeSpec, mu: DiscreteMeasure,
                    rng: np.random.Generator) -> StoppingKernel:
    """Random kernel whose marginal is exactly ``mu`` (water-filling repair).

    At each atom a random profile is scaled, capping at one, until the stopped
    mass hits the required weight; the scaling equation is piecewise linear in
    the factor and solved exactly.
    """
    steps = atom_steps(spec, mu.atoms)
    alive: dict[NodeId, float] = {root(spec): 1.0}
    q: dict[NodeId, float] = {}
    cur = 0
    for i, s in enumerate(steps):
        for _ in range(s - cur):
            alive = _advance(spec, alive.items())
        cur = s
        if i == len(steps) - 1:
            for node in nodes_at_step(spec, s):
                q[node] = 1.0
            continue
        nodes = list(alive.keys())
        profile = {n: 0.1 + 0.9 * float(rng.random()) for n in nodes}
        lam = _solve_waterfill([(alive[n], profile[n]) for n in nodes], mu.weights[i])
        for node in nodes_at_step(spec, s):
            q[node] = min(1.0, lam * profile[node]) if node in alive else 0.0
        for n in nodes:
            alive[n] *= 1.0 - q[n]
    return StoppingKernel(spec, mu.atoms, q)


def _solve_waterfill(pairs: list[tuple[float, float]], target: float) -> float:
    """Smallest ``lam`` with ``sum_k a_k * min(1, lam * p_k) = target``."""
    total = sum(a for a, _ in pairs)
    if target > total + 1e-12:
        raise ValidationError(f"cannot stop mass {target}, only {total} alive")
    if target <= 0.0:
        return 0.0
    # Walk the cap points 1/p in order; between them the stopped mass is
    # linear in lam with the not-yet-capped slope.
    items = sorted((1.0 / p, a, p) for a, p in pairs if p > 0.0)
    slope = sum(a * p for _, a, p in items)
    lo = 0.0
    g_lo = 0.0
    for bp, a, p in items:
        if slope > 0.0:
            lam = lo + (target - g_lo) / slope
            if lam <= bp:
                return lam
        g_lo += slope * (bp - lo)
        lo = bp
        slope -= a * p
    if slope > 0.0:
        return lo + (target - g_lo) / slope
    return lo


def kernel_to_json(kernel: StoppingKernel) -> list[dict]:
    steps = kernel.steps()
    out = []
    for i, s in enumerate(steps):
        for node in nodes_at_step(kernel.spec, s):
            out.append({
                "node": node_to_json(node),
                "atom_time": kernel.atom_times[i],
                "q": kernel.q[node],
            })
    return out


def kernel_from_json(spec: LatticeSpec, data) -> StoppingKernel:
    try:
        times = sorted({float(item["atom_time"]) for item in data})
        q = {node_from_json(item["node"]): float(item["q"]) for item in data}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed kernel payload: {exc}") from exc
    return StoppingKernel(spec, times, q)
