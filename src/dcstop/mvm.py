"""Trees of conditional stopping-time laws (measure-valued martingales).

Every node of a binary history tree carries a weight vector over a fixed atom
grid: the conditional law of the stopping time given the driver path so far.
Three structural properties make such a tree meaningful:

* martingale: each vector is the mean of its two children,
* adaptedness: once an atom's time has passed, its weight is frozen along
  every descendant,
* initial condition: the root vector is the prescribed law.

The module converts between these trees and hazard-form stopping kernels,
detects terminating (pure) trees, splices a continuation tree into a node
through a monotone-coupling reweighting, and integrates running payoff along
the tree (the Mayer-form accumulator).

Trees are always indexed by full histories.  A tree may start at a positive
step (``start_step > 0``); such subtrees act as continuations for splicing and
carry atom times in absolute units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cost import CostSpec, evaluate
from .errors import SizeGuardError, SpliceError, ValidationError
from .lattice import (
    LatticeSpec,
    NodeId,
    histories,
    history_from_str,
    history_to_str,
    node_of_history,
    state,
)
from .measures import (
    DiscreteMeasure,
    is_right_shift_of,
    monotone_coupling,
)
from .rst import DEAD_MASS, StoppingKernel

MARTINGALE_TOL = 1e-12
SPLICE_TOL = 1e-9
# ``from_kernel`` walks every history in Python: 2^16 of them take a few seconds.
TREE_DEPTH_LIMIT = 16

Bits = tuple[int, ...]


def _bits_node(bits: Bits) -> NodeId:
    return NodeId(step=len(bits), history=bits)


class MvmTree:
    """History-indexed tree of weight vectors over a fixed atom grid."""

    __slots__ = ("dt", "start_step", "atom_times", "rel_steps", "depth", "vectors")

    def __init__(self, dt: float, atom_times, vectors: dict[Bits, np.ndarray],
                 start_step: int = 0):
        if not dt > 0:
            raise ValidationError(f"dt must be positive, got {dt!r}")
        times = tuple(float(t) for t in atom_times)
        if not times or any(b - a <= 0 for a, b in zip(times, times[1:])):
            raise ValidationError("atom times must be nonempty and strictly increasing")
        rel_steps = []
        for t in times:
            s = round(t / dt)
            if abs(s * dt - t) > 1e-9:
                raise ValidationError(f"atom time {t} is not on the step grid with dt={dt}")
            r = s - start_step
            if r < 0 or (start_step == 0 and r < 1):
                raise ValidationError(f"atom time {t} lies before the tree start")
            rel_steps.append(r)
        depth = rel_steps[-1]
        clean: dict[Bits, np.ndarray] = {}
        for bits, vec in vectors.items():
            arr = np.asarray(vec, dtype=float)
            if arr.shape != (len(times),):
                raise ValidationError(
                    f"vector at {bits} has shape {arr.shape}, expected ({len(times)},)"
                )
            clean[tuple(bits)] = arr
        for s in range(depth + 1):
            missing = 2 ** s - sum(1 for b in clean if len(b) == s)
            if missing:
                raise ValidationError(f"{missing} node vectors missing at step {s}")
        if any(len(b) > depth for b in clean):
            raise ValidationError(f"vectors present beyond the last atom step {depth}")
        object.__setattr__(self, "dt", float(dt))
        object.__setattr__(self, "start_step", int(start_step))
        object.__setattr__(self, "atom_times", times)
        object.__setattr__(self, "rel_steps", tuple(rel_steps))
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "vectors", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MvmTree is immutable")

    def root_vector(self) -> np.ndarray:
        return self.vectors[()]

    def root_measure(self) -> DiscreteMeasure:
        vec = self.root_vector()
        kept = [(t, w) for t, w in zip(self.atom_times, vec) if w > 0.0]
        return DiscreteMeasure([t for t, _ in kept], [w for _, w in kept])

    def leaves(self) -> list[Bits]:
        return [b for b in self.vectors if len(b) == self.depth]


@dataclass(frozen=True)
class MvmViolation:
    node: NodeId
    prop: str
    residual: float


@dataclass(frozen=True)
class MvmReport:
    ok: bool
    violation: Optional[MvmViolation] = None


def validate(mvm: MvmTree, mu: Optional[DiscreteMeasure] = None,
             tol: float = MARTINGALE_TOL) -> MvmReport:
    """Check root law, martingale, adaptedness and normalization, in that order.

    Returns the first violation found as ``(node, property, residual)``.
    The scan is breadth-first from the root so the reported node is the
    shallowest offender for its property.
    """
    if mu is not None:
        target = np.zeros(len(mvm.atom_times))
        lookup = {t: w for t, w in zip(mu.atoms, mu.weights)}
        for i, t in enumerate(mvm.atom_times):
            for a, w in list(lookup.items()):
                if abs(a - t) <= 1e-9:
                    target[i] = w
                    del lookup[a]
        if lookup:
            return MvmReport(False, MvmViolation(_bits_node(()), "root", 1.0))
        res = float(np.max(np.abs(mvm.root_vector() - target)))
        if res > tol:
            return MvmReport(False, MvmViolation(_bits_node(()), "root", res))
    by_step: dict[int, list[Bits]] = {}
    for bits in mvm.vectors:
        by_step.setdefault(len(bits), []).append(bits)
    for s in range(mvm.depth):
        for bits in sorted(by_step[s]):
            vec = mvm.vectors[bits]
            up = mvm.vectors[bits + (1,)]
            down = mvm.vectors[bits + (0,)]
            res = float(np.max(np.abs(vec - 0.5 * (up + down))))
            if res > tol:
                return MvmReport(False, MvmViolation(_bits_node(bits), "martingale", res))
    for s in range(mvm.depth):
        frozen = [i for i, r in enumerate(mvm.rel_steps) if r <= s]
        if not frozen:
            continue
        for bits in sorted(by_step[s]):
            vec = mvm.vectors[bits]
            for child in (bits + (1,), bits + (0,)):
                cvec = mvm.vectors[child]
                res = max(abs(float(vec[i] - cvec[i])) for i in frozen)
                if res > tol:
                    return MvmReport(False, MvmViolation(_bits_node(bits), "adapted", res))
    for s in range(mvm.depth + 1):
        for bits in sorted(by_step[s]):
            vec = mvm.vectors[bits]
            if float(vec.min()) < -tol:
                return MvmReport(
                    False, MvmViolation(_bits_node(bits), "normalized", -float(vec.min()))
                )
            res = abs(float(vec.sum()) - 1.0)
            if res > tol:
                return MvmReport(False, MvmViolation(_bits_node(bits), "normalized", res))
    return MvmReport(True, None)


def check_tree_depth(horizon: int) -> None:
    """Refuse a law tree past ``TREE_DEPTH_LIMIT`` before any kernel is built or walked."""
    if horizon > TREE_DEPTH_LIMIT:
        raise SizeGuardError(
            f"law tree from a kernel walks 2^{horizon} histories (limit 2^{TREE_DEPTH_LIMIT})"
        )


def from_kernel(kernel: StoppingKernel, spec: LatticeSpec) -> MvmTree:
    """Tree of conditional laws of a kernel's stopping time.

    Leaf vectors are the per-path stopping laws (hazard products along the
    path); interior vectors are backward halving averages, so the martingale
    and freezing properties hold by construction and the root equals the
    kernel marginal.
    """
    steps = kernel.steps()
    last = steps[-1]
    check_tree_depth(last)
    r = len(kernel.atom_times)
    vectors: dict[Bits, np.ndarray] = {}

    def leaf_vector(bits: Bits) -> np.ndarray:
        vec = np.zeros(r)
        surv = 1.0
        for i, s in enumerate(steps):
            qv = 1.0 if i == r - 1 else kernel.q[node_of_history(spec, bits[:s])]
            vec[i] = surv * qv
            surv *= 1.0 - qv
        return vec

    for bits in histories(last):
        vectors[bits] = leaf_vector(bits)
    for s in range(last - 1, -1, -1):
        for bits in histories(s):
            vectors[bits] = 0.5 * (vectors[bits + (1,)] + vectors[bits + (0,)])
    return MvmTree(spec.dt, kernel.atom_times, vectors)


def to_kernel(mvm: MvmTree) -> StoppingKernel:
    """Hazard-form kernel read off the tree's frozen coordinates.

    At a node sitting at atom ``i``, the stop probability is the newly frozen
    weight divided by the not-yet-stopped mass; unreachable branches (0/0)
    get ``q = 0`` except at the final atom, which always stops.
    """
    if mvm.start_step != 0:
        raise ValidationError("only full trees (start_step == 0) convert to kernels")
    spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    q: dict[NodeId, float] = {}
    for i, s in enumerate(mvm.rel_steps):
        final = i == len(mvm.rel_steps) - 1
        for bits, vec in mvm.vectors.items():
            if len(bits) != s:
                continue
            remaining = 1.0 - float(vec[:i].sum())
            if remaining <= DEAD_MASS:
                q[_bits_node(bits)] = 1.0 if final else 0.0
            elif final:
                q[_bits_node(bits)] = 1.0
            else:
                q[_bits_node(bits)] = min(1.0, max(0.0, float(vec[i]) / remaining))
    return StoppingKernel(spec, mvm.atom_times, q)


@dataclass(frozen=True)
class TerminationReport:
    terminating: bool
    tau: Optional[dict[Bits, float]]
    first_diffuse: Optional[NodeId]


def termination(mvm: MvmTree, tol: float = MARTINGALE_TOL) -> TerminationReport:
    """A tree terminates when every leaf law is a point mass.

    For a terminating adapted tree the per-path stopping time is the atom
    carrying the unit weight, and the induced kernel is pure (all hazards 0
    or 1); conversely pure kernels produce terminating trees.
    """
    tau: dict[Bits, float] = {}
    for bits in mvm.leaves():
        vec = mvm.vectors[bits]
        top = int(np.argmax(vec))
        if vec[top] < 1.0 - tol:
            return TerminationReport(False, None, _bits_node(bits))
        tau[bits] = mvm.atom_times[top]
    return TerminationReport(True, tau, None)


def extract_continuation(base: MvmTree, bits: Bits) -> MvmTree:
    """The renormalized strict-future law tree rooted at ``bits``.

    Splicing this back into the same node reproduces ``base`` exactly.
    """
    bits = tuple(bits)
    if bits not in base.vectors:
        raise SpliceError(f"node {bits} not in the tree")
    abs_step = base.start_step + len(bits)
    future = [i for i, r in enumerate(base.rel_steps) if r > len(bits)]
    y = base.vectors[bits]
    mass = float(sum(y[i] for i in future))
    if mass <= SPLICE_TOL:
        raise SpliceError(f"no future mass at node {bits}")
    keep = [i for i in future if y[i] > DEAD_MASS]
    times = [base.atom_times[i] for i in keep]
    vectors: dict[Bits, np.ndarray] = {}
    for nb, vec in base.vectors.items():
        if len(nb) >= len(bits) and nb[:len(bits)] == bits:
            rel = nb[len(bits):]
            vectors[rel] = np.array([vec[i] for i in keep]) / mass
    # The subtree may extend past the continuation's own last atom; those
    # fully frozen tails are dropped and rebuilt on splice.
    last_rel = round(times[-1] / base.dt) - abs_step
    vectors = {b: v for b, v in vectors.items() if len(b) <= last_rel}
    return MvmTree(base.dt, times, vectors, start_step=abs_step)


def splice(base: MvmTree, bits: Bits, continuation: MvmTree) -> MvmTree:
    """Replace the future of ``base`` below ``bits`` by ``continuation``.

    The frozen past coordinates at the node are kept.  The continuation's laws
    are mapped onto the base atom grid through the monotone coupling between
    the continuation's root law and the node's renormalized future law; this
    requires the latter to be a right shift of the former.  Incompatible root
    laws raise ``SpliceError``.
    """
    bits = tuple(bits)
    if bits not in base.vectors:
        raise SpliceError(f"node {bits} not in the tree")
    abs_step = base.start_step + len(bits)
    if continuation.start_step != abs_step:
        raise SpliceError(
            f"continuation starts at step {continuation.start_step}, node sits at {abs_step}"
        )
    if abs(continuation.dt - base.dt) > 1e-15:
        raise SpliceError("continuation uses a different step width")
    t = abs_step * base.dt
    if continuation.atom_times[0] <= t + 1e-9:
        raise SpliceError("continuation atoms must lie strictly after the splice time")
    future = [i for i, r in enumerate(base.rel_steps) if r > len(bits)]
    y = base.vectors[bits]
    mass = float(sum(y[i] for i in future))
    if mass <= SPLICE_TOL:
        raise SpliceError(f"no future mass at node {bits}")
    keep = [i for i in future if y[i] > DEAD_MASS]
    node_future = DiscreteMeasure(
        [base.atom_times[i] for i in keep], [y[i] / mass for i in keep]
    )
    zeta = continuation.root_measure()
    if not is_right_shift_of(node_future, zeta, tol=SPLICE_TOL):
        raise SpliceError(
            "continuation root law is not coupled-compatible with the node's future law"
        )
    coupling = monotone_coupling(zeta, node_future)
    # Row-stochastic transfer matrix from continuation atoms to base atoms.
    transfer = np.zeros((len(continuation.atom_times), len(base.atom_times)))
    zeta_index = {}
    for k, t_src in enumerate(zeta.atoms):
        for j, t_cont in enumerate(continuation.atom_times):
            if abs(t_cont - t_src) <= 1e-9:
                zeta_index[k] = j
    for k, row in enumerate(coupling.rows):
        j = zeta_index[k]
        wk = zeta.weights[k]
        for cell, m in row:
            transfer[j, keep[cell]] += m / wk
    past_part = np.array([y[i] if i not in future else 0.0 for i in range(len(y))])

    new_vectors = dict(base.vectors)
    depth_below = base.depth - len(bits)
    frontier = [()]
    for s in range(depth_below + 1):
        next_frontier = []
        for rel in frontier:
            if rel in continuation.vectors:
                cont_vec = continuation.vectors[rel]
            else:
                cont_vec = continuation.vectors[rel[:continuation.depth]]
            new_vectors[bits + rel] = past_part + mass * (cont_vec @ transfer)
            if s < depth_below:
                next_frontier.extend((rel + (1,), rel + (0,)))
        frontier = next_frontier
    return MvmTree(base.dt, base.atom_times, new_vectors, start_step=base.start_step)


@dataclass(frozen=True)
class Accumulator:
    """Running payoff ``Y`` along the tree: ``y0`` plus cost paid at each freeze."""

    y0: float
    y: dict[Bits, float]
    depth: int

    def leaf_expectation(self) -> float:
        total = sum(v for b, v in self.y.items() if len(b) == self.depth)
        return total / 2 ** self.depth


def accumulate(mvm: MvmTree, spec: LatticeSpec, cost: CostSpec, y0: float = 0.0) -> Accumulator:
    """Integrate the cost against each path's freezing masses.

    ``spec`` supplies the step width consistency check; states are derived
    from the tree's own histories.  The expectation of ``Y`` over leaves is
    ``y0`` plus the kernel objective of the tree.
    """
    if mvm.start_step != 0:
        raise ValidationError("accumulate needs a full tree (start_step == 0)")
    if abs(spec.dt - mvm.dt) > 1e-15:
        raise ValidationError("lattice step width differs from the tree's")
    hist_spec = LatticeSpec(depth=mvm.depth, dt=mvm.dt, mode="history")
    step_to_atom = {r: i for i, r in enumerate(mvm.rel_steps)}
    y: dict[Bits, float] = {(): y0}
    order = sorted(mvm.vectors, key=len)
    for bits in order:
        if not bits:
            continue
        val = y[bits[:-1]]
        i = step_to_atom.get(len(bits))
        if i is not None:
            st = state(hist_spec, _bits_node(bits))
            val += evaluate(cost, st) * float(mvm.vectors[bits][i])
        y[bits] = val
    return Accumulator(y0=y0, y=y, depth=mvm.depth)


def mvm_to_json(mvm: MvmTree) -> dict:
    nodes = {
        history_to_str(bits): [float(v) for v in vec]
        for bits, vec in sorted(mvm.vectors.items(), key=lambda kv: (len(kv[0]), kv[0]))
    }
    return {
        "dt": mvm.dt,
        "start_step": mvm.start_step,
        "atom_times": list(mvm.atom_times),
        "nodes": nodes,
    }


def mvm_from_json(data: dict) -> MvmTree:
    try:
        dt = float(data["dt"])
        atom_times = [float(t) for t in data["atom_times"]]
        raw = data["nodes"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed tree payload: {exc}") from exc
    vectors: dict[Bits, np.ndarray] = {}
    for key, vec in raw.items():
        vectors[history_from_str(key)] = np.asarray(vec, dtype=float)
    return MvmTree(dt, atom_times, vectors, start_step=int(data.get("start_step", 0)))
