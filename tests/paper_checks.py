"""The checks of the paper's argument, each defined once, for the tests that run them.

No command runs them, so they are not part of the package.  Each works over
the package's public types, one node or path at a time (``children``,
``stop_cost`` and ``reference_advance`` in ``conftest.py``), not through the
package's position arrays, so it crosses the code it checks: the dynamic
programming principle (``check_dpp``), pure rules (``strong_value``,
``termination``), conditioning and gluing of law trees
(``extract_continuation``, ``splice``), rightward transport
(``push_right_with_shift``, ``push_right_identity_check``) and concavity in
the target law (``concavity_check``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

import dcstop.dpp as dpp
from dcstop import (
    ConfigError,
    CostSpec,
    DcstopError,
    DiscreteMeasure,
    LatticeSpec,
    MvmTree,
    NodeId,
    StoppingKernel,
    ValueTable,
    atom_steps,
    build_lp,
    marginal_of,
    root,
    solve_lp,
    w1_distance,
)
from dcstop.lattice import heap_history, histories
from dcstop.measures import WEIGHT_TOL, _cdf_walk
from dcstop.mvm import MARTINGALE_TOL
from dcstop.rst import DEAD_MASS

from conftest import (
    children,
    kernel_dict,
    kernel_from_dict,
    reference_advance,
    root_measure,
    stop_cost,
    tree_dict,
    tree_from_dict,
)

SPLICE_TOL = 1e-9
BLEND_TOL = 1e-9
SHIFT_TOL = 1e-12


class SpliceError(DcstopError):
    """A continuation tree cannot be attached at the requested node."""


class RightShiftError(DcstopError):
    """A coupling moves mass leftward where only rightward moves are allowed."""


def oracle_value(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> float:
    """The float LP route's value."""
    return solve_lp(build_lp(spec, cost, mu)).value


@dataclass(frozen=True)
class MonotoneCoupling:
    """The quantile coupling of ``source`` and ``target``, as ``monotone_coupling`` builds it.

    ``rows[i]`` lists ``(target_index, mass)`` cells for source atom ``i`` in
    increasing target index.  Row sums reproduce the source weights and
    column sums the target weights, both within ``WEIGHT_TOL``, and no two
    cells cross: the support is monotone in both indices.
    """

    source: DiscreteMeasure
    target: DiscreteMeasure
    rows: tuple[tuple[tuple[int, float], ...], ...]

    def cost(self) -> float:
        """Transport cost ``sum m * |t_source - t_target|`` of the coupling."""
        return sum(m * abs(self.source.atoms[i] - self.target.atoms[j])
                   for i, row in enumerate(self.rows) for j, m in row)


def monotone_coupling(source: DiscreteMeasure, target: DiscreteMeasure) -> MonotoneCoupling:
    """Quantile coupling: align the two CDFs and pair off mass in time order.

    The result is the unique coupling with monotone support; its cost equals
    ``w1_distance(source, target)``.
    """
    rows: list[list[tuple[int, float]]] = [[] for _ in range(len(source))]
    i = j = 0
    left_i = source.weights[0]
    left_j = target.weights[0]
    while True:
        m = min(left_i, left_j)
        if m > 0.0:
            rows[i].append((j, m))
        left_i -= m
        left_j -= m
        # Advance whichever side ran out; on exact ties advance both.
        if left_i <= WEIGHT_TOL:
            i += 1
            if i < len(source):
                left_i = source.weights[i]
        if left_j <= WEIGHT_TOL:
            j += 1
            if j < len(target):
                left_j = target.weights[j]
        if i >= len(source) or j >= len(target):
            break
    return MonotoneCoupling(source, target, tuple(map(tuple, rows)))


def is_right_shift_of(target: DiscreteMeasure, source: DiscreteMeasure,
                      tol: float = WEIGHT_TOL) -> bool:
    """True when ``target`` is reachable from ``source`` by moving mass right.

    Equivalent to first-order stochastic dominance: the target CDF never
    exceeds the source CDF by more than ``tol`` at any atom of either.
    """
    return all(ft <= fs + tol for _, fs, ft in _cdf_walk(source, target))


def check_dpp(table: ValueTable, cost: CostSpec,
              theta: Callable[[LatticeSpec, NodeId], bool]) -> float:
    """The residual of the dynamic programming identity across the frontier ``theta``.

    ``table`` is the solve of its instance under ``cost``.

    A memoised recursion from the root recomputes the root value, stopping
    wherever ``theta`` fires, or at the last atom, to read the solver's stored
    function there (at an atom step, the pre-decision boundary function).  No
    pair is pruned and no update shared, so the check crosses ``pair_sup``'s
    pruning.  The identity holds when the residual is at most ``AGREE_TOL``.
    """
    spec, horizon, reps = table.spec, table.steps[-1], table.reps
    memo = {}

    def u(node):
        if node not in memo:
            if node.step == horizon or theta(spec, node):
                memo[node] = reps[(node.step, node)]
            else:
                up, down = children(spec, node)
                # Read through the module, so a test that patches it counts the calls.
                cont = dpp.pair_sup(u(up), u(down))
                if node.step in table.steps:
                    cont = dpp.perspective(stop_cost(cost, spec, node), cont)
                memo[node] = cont
        return memo[node]

    recomputed = u(root(spec)).evaluate(np.asarray(table.mu.weights, dtype=float))
    return abs(recomputed - table.root_value)


def strong_value(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> float:
    """Best objective over non-randomized stopping rules, by exhaustion.

    A pure rule sends each node's surviving mass to a single atom, so a
    subtree's contribution is summarized by the vector of leaf-mass units it
    assigns to each atom.  A memoised recursion from the root merges each
    node's two children by convolving these vectors, keeping the best value
    per vector.  Returns ``-inf`` when the target law is not representable in
    units of ``2**-horizon``.
    """
    steps = atom_steps(spec, mu.atoms)
    r, horizon = len(steps), steps[-1]
    target = []
    for w in mu.weights:
        scaled = w * 2 ** horizon
        if abs(scaled - round(scaled)) > 1e-9:
            return float("-inf")
        target.append(int(round(scaled)))
    memo = {}

    def best(node):
        if node not in memo:
            s, out = node.step, {}
            if s in steps:
                vec = [0] * r
                vec[steps.index(s)] = 2 ** (horizon - s)
                out[tuple(vec)] = stop_cost(cost, spec, node) * 2.0 ** (-s)
            if s < horizon:
                up, down = children(spec, node)
                for vu, valu in best(up).items():
                    for vd, vald in best(down).items():
                        vec = tuple(a + b for a, b in zip(vu, vd))
                        if out.get(vec, float("-inf")) < valu + vald:
                            out[vec] = valu + vald
            memo[node] = out
        return memo[node]

    return best(root(spec)).get(tuple(target), float("-inf"))


@dataclass(frozen=True)
class TerminationReport:
    """``tau`` holds each leaf's stopping time, leaves in code order."""

    terminating: bool
    tau: Optional[np.ndarray]
    first_diffuse: Optional[NodeId]


def termination(mvm: MvmTree) -> TerminationReport:
    """A tree terminates when every leaf law is a point mass.

    For a terminating adapted tree the per-path stopping time is the atom
    carrying the unit weight, and the induced kernel is pure (all hazards 0
    or 1); conversely pure kernels produce terminating trees.
    """
    first_leaf = len(mvm.vectors) // 2
    leaves = mvm.vectors[first_leaf:]
    diffuse = np.flatnonzero(leaves.max(axis=1) < 1.0 - MARTINGALE_TOL)
    if diffuse.size:
        leaf = heap_history(first_leaf + int(diffuse[0]))
        return TerminationReport(False, None, NodeId(step=len(leaf), history=leaf))
    return TerminationReport(True, np.array(mvm.atom_times)[np.argmax(leaves, axis=1)], None)


def _future(base: MvmTree, bits: tuple[int, ...]):
    """Vectors by history; at ``bits``: the vector, its atoms ahead, their mass, those alive."""
    vectors = tree_dict(base)
    if bits not in vectors:
        raise SpliceError(f"node {bits} not in the tree")
    y = vectors[bits]
    future = [i for i, s in enumerate(base.steps) if s > len(bits)]
    mass = float(sum(y[i] for i in future))
    if mass <= SPLICE_TOL:
        raise SpliceError(f"no future mass at node {bits}")
    return vectors, y, future, mass, [i for i in future if y[i] > DEAD_MASS]


def _clock(tree: MvmTree, n: int, atoms) -> list[float]:
    """The times of ``tree``'s ``atoms`` on a clock restarted at step ``n``."""
    return [(tree.steps[i] - n) * tree.dt for i in atoms]


def extract_continuation(base: MvmTree, bits) -> MvmTree:
    """The renormalized strict-future law tree rooted at ``bits``, in the node's own clock.

    Splicing it back into the same node reproduces ``base``.  The frozen
    tails past the continuation's own last atom are dropped; ``splice``
    rebuilds them.
    """
    bits = tuple(bits)
    vectors, _, _, mass, keep = _future(base, bits)
    sub = {rel: vectors[bits + rel][keep] / mass
           for s in range(base.steps[keep[-1]] - len(bits) + 1) for rel in histories(s)}
    return tree_from_dict(base.dt, _clock(base, len(bits), keep), sub)


def splice(base: MvmTree, bits, continuation: MvmTree) -> MvmTree:
    """Replace the future of ``base`` below ``bits`` by ``continuation``.

    The frozen past coordinates at the node are kept.  The continuation's laws,
    in the node's own clock, are mapped onto the base atom grid through the
    monotone coupling between the continuation's root law and the node's
    renormalized future law in that clock, which must be a right shift of it,
    else ``SpliceError``.
    """
    bits = tuple(bits)
    vectors, y, future, mass, keep = _future(base, bits)
    if abs(continuation.dt - base.dt) > 1e-15:
        raise SpliceError("continuation uses a different step width")
    node_future = DiscreteMeasure(_clock(base, len(bits), keep), [y[i] / mass for i in keep])
    zeta = root_measure(continuation)
    if not is_right_shift_of(node_future, zeta, tol=SPLICE_TOL):
        raise SpliceError(
            "continuation root law is not coupled-compatible with the node's future law"
        )
    # Row-stochastic transfer matrix from continuation atoms to base atoms;
    # continuation atom live[k] is zeta's atom k.
    live = np.flatnonzero(continuation.vectors[0] > 0.0)
    transfer = np.zeros((len(continuation.atom_times), len(base.atom_times)))
    for j, w, row in zip(live, zeta.weights, monotone_coupling(zeta, node_future).rows):
        for cell, m in row:
            transfer[j, keep[cell]] += m / w
    past = np.array([0.0 if i in future else y[i] for i in range(len(y))])
    cont = tree_dict(continuation)
    new = dict(vectors)
    for s in range(base.depth - len(bits) + 1):
        if s <= continuation.depth:
            level = [past + mass * (cont[rel] @ transfer) for rel in histories(s)]
        else:
            # Past the continuation's last atom each node repeats its parent's law.
            level = [level[code >> 1] for code in range(2 ** s)]
        new.update((bits + rel, vec) for rel, vec in zip(histories(s), level))
    return tree_from_dict(base.dt, base.atom_times, new)


def push_right_with_shift(kernel: StoppingKernel,
                          target: DiscreteMeasure) -> tuple[StoppingKernel, float]:
    """Re-route every stop decision rightward, onto the stopping-time law ``target``.

    Mass moves along the monotone coupling of the kernel's marginal with
    ``target``, which becomes the new marginal; ``RightShiftError`` when that
    coupling moves mass left.  Each unit of mass stopped at a source atom
    continues and stops at its coupled target time, split across the future
    subtree proportionally to path probability, so the realized expected
    shift equals the coupling cost.  Returns the new kernel, on the kernel's
    lattice, and that shift, ``E|tau' - tau|``.
    """
    spec = kernel.spec
    source = marginal_of(kernel)
    tgt_steps = atom_steps(spec, target.atoms)
    # Per kernel atom: fractions of its stop mass going to each target atom;
    # none for an atom where the kernel never stops, which the marginal drops.
    rows = dict(zip(source.atoms, zip(source.weights, monotone_coupling(source, target).rows)))
    fractions = []
    for t, s in zip(kernel.atom_times, kernel.steps):
        weight, row = rows.get(t, (1.0, ()))
        fractions.append([(j, m / weight) for j, m in row if m > 0.0])
        for j, _ in fractions[-1]:
            if tgt_steps[j] < s:
                raise RightShiftError(f"coupling moves mass left: {t} -> {target.atoms[j]}")

    q = kernel_dict(kernel)
    # alive[node]: mass still run by the old kernel; earm[node][j]: mass
    # headed to stop at target atom j.  At each target step, alive plus the
    # mass headed there or later is the mass still alive.
    alive = {root(spec): 1.0}
    earm = {root(spec): np.zeros(len(target))}
    new_q, shift, last = {}, 0.0, tgt_steps[-1]
    for s in range(last + 1):
        if s in kernel.steps:
            i = kernel.steps.index(s)
            for node, mass in alive.items():
                delta = mass * q[node]
                alive[node] = mass - delta
                for j, frac in fractions[i]:
                    earm[node][j] += delta * frac
                    shift += delta * frac * abs(target.atoms[j] - kernel.atom_times[i])
        if s in tgt_steps:
            j = tgt_steps.index(s)
            for node, marks in earm.items():
                remaining = alive[node] + sum(marks[j:])
                if j == len(tgt_steps) - 1:
                    new_q[node] = 1.0
                else:
                    new_q[node] = 0.0 if remaining <= DEAD_MASS else min(1.0, marks[j] / remaining)
                marks[j] = 0.0
        if s < last:
            alive = reference_advance(spec, alive.items())
            earm = reference_advance(spec, earm.items())
    return kernel_from_dict(spec, target.atoms, new_q), shift


def push_right_identity_check(kernel: StoppingKernel,
                              targets: Sequence[DiscreteMeasure]) -> tuple[dict, ...]:
    """Pushing outward must cost exactly the transport distance.

    The kernel's marginal is coupled monotonically to each target; the
    rewired kernel must realize that coupling's cost as its mean time shift
    and land on the target exactly.
    """
    source = marginal_of(kernel)
    rows = []
    for target in targets:
        moved, shift = push_right_with_shift(kernel, target)
        w1 = w1_distance(source, target)
        err = w1_distance(marginal_of(moved), target)
        rows.append({"shift": shift, "w1": w1, "marginal_error": err,
                     "ok": abs(shift - w1) <= SHIFT_TOL and err <= 1e-9})
    return tuple(rows)


def blend_measures(mu1: DiscreteMeasure, mu2: DiscreteMeasure, lam: float) -> DiscreteMeasure:
    atoms = list(mu1.atoms) + list(mu2.atoms)
    weights = [lam * w for w in mu1.weights] + [(1.0 - lam) * w for w in mu2.weights]
    return DiscreteMeasure(atoms, weights)


def concavity_check(spec: LatticeSpec, cost: CostSpec,
                    mu1: DiscreteMeasure, mu2: DiscreteMeasure,
                    lambdas: Sequence[float],
                    value_fn: Optional[Callable] = None) -> tuple[dict, ...]:
    """Blending target laws can only help: value(blend) >= blend of values.

    Defaults to the LP oracle for the values so the probe stays independent
    of the block solver; pass ``value_fn`` to probe another route.
    """
    if value_fn is None:
        def value_fn(m: DiscreteMeasure) -> float:
            return oracle_value(spec, cost, m)

    v1, v2 = value_fn(mu1), value_fn(mu2)
    rows = []
    for lam in lambdas:
        if not 0.0 <= lam <= 1.0:
            raise ConfigError(f"blend weight must sit in [0, 1], got {lam}")
        lhs = value_fn(blend_measures(mu1, mu2, lam))
        rhs = lam * v1 + (1.0 - lam) * v2
        margin = lhs - rhs
        rows.append({"lam": lam, "blend_value": lhs, "mixed_values": rhs, "margin": margin,
                     "ok": margin >= -BLEND_TOL})
    return tuple(rows)
