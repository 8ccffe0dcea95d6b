"""Backward-induction solver over renormalized stop-mass simplices.

Between consecutive atoms of the target law, the only freedom left to an
admissible stopping scheme is how the renormalized vector of future stop
masses splits across the driver's up and down moves; the split must average
back to the parent vector.  The solver therefore works block by block, one
block per remaining-atom count ``k``:

* within a block, one driver step maps a value function ``V`` on the
  ``k``-simplex to ``sup`` over mean-preserving splits of the average of the
  children's values (``pair_sup``),
* at the next atom, the first simplex coordinate is paid out at the current
  state's cost and the rest is renormalized into the ``(k-1)``-block
  (``perspective``).

Value functions stay piecewise linear and concave throughout, so they are
carried exactly: as a min of affine pieces (for evaluation) plus the vertex
set of their hypograph (for the Minkowski construction behind ``pair_sup``).
Simplex grids only enter when sampling the stored tables and estimating a
resolution-based slack; the root value itself does not depend on the grid.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, combinations
from math import comb
from typing import Callable, Optional

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull

from .cost import CostSpec, evaluate
from .errors import ConfigError, SizeGuardError
from .lattice import (
    LatticeSpec,
    NodeId,
    atom_steps,
    children,
    histories,
    node_of_history,
    nodes_at_step,
    root,
    state,
)
from .measures import DiscreteMeasure
from .mvm import MvmTree

GRID_SIZE_LIMIT = 1_000_000
PAIR_CLOUD_LIMIT = 4_000_000
POLICY_DEPTH_LIMIT = 12
PURE_DEPTH_LIMIT = 12
PURE_TABLE_LIMIT = 500_000
UPPER_FACET_TOL = 1e-12
SLACK_FLOOR = 1e-9


class SimplexGrid:
    """All length-``k`` compositions of ``resolution``, in descending lexicographic order.

    Grid points are integer vectors summing to the resolution; ``fractions``
    divides them through.  The solver samples its tables on these points and
    reads the table slack off neighbouring points.
    """

    __slots__ = ("k", "resolution", "points", "fractions")

    def __init__(self, k: int, resolution: int):
        if not (isinstance(k, int) and k >= 1):
            raise ConfigError(f"dimension must be a positive int, got {k!r}")
        if not (isinstance(resolution, int) and resolution >= 1):
            raise ConfigError(f"resolution must be a positive int, got {resolution!r}")
        n = comb(resolution + k - 1, k - 1)
        if n > GRID_SIZE_LIMIT:
            raise SizeGuardError(
                f"simplex grid would hold {n} points (limit {GRID_SIZE_LIMIT}); "
                "lower the resolution"
            )
        # Stars and bars: bar positions in ascending lexicographic order give the
        # compositions in ascending order, so the reversed rows descend.
        bars = np.fromiter(
            chain.from_iterable(combinations(range(resolution + k - 1), k - 1)),
            dtype=np.int64, count=n * (k - 1),
        ).reshape(n, k - 1)[::-1]
        ends = np.full((n, 1), -1, dtype=np.int64)
        pts = np.diff(np.hstack([ends, bars, ends + resolution + k]), axis=1) - 1
        self.k = k
        self.resolution = resolution
        self.points = pts
        self.fractions = pts.astype(float) / resolution

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def max_adjacent_diff(self, values) -> float:
        """Largest value change across one unit of grid mass transfer.

        Each point is keyed by its first ``k - 1`` coordinates in base
        ``resolution + 1``; the keys strictly descend with the rows, so moving
        one unit from coordinate ``i`` to ``j`` is a key offset found by binary
        search.  NaN differences are skipped.
        """
        vals = np.asarray(values, dtype=float)
        k, base = self.k, self.resolution + 1
        # Python-int keys only when base ** (k - 1) would overflow int64.
        wide = base ** (k - 1) > np.iinfo(np.int64).max
        weight = np.array([base ** e for e in range(k - 2, -1, -1)] + [0],
                          dtype=object if wide else np.int64)
        keys = self.points @ weight
        ascending = -keys
        worst = 0.0
        for i in range(k):
            rows = np.flatnonzero(self.points[:, i] > 0)
            for j in range(k):
                if i != j:
                    nbr = np.searchsorted(ascending, -(keys[rows] - weight[i] + weight[j]))
                    diffs = np.abs(vals[rows] - vals[nbr])
                    worst = float(np.fmax.reduce(diffs, initial=worst))
        return worst


def _upper_hull_2d(xs: np.ndarray, vs: np.ndarray) -> list[int]:
    """Indices of the upper concave chain of ``(x, v)`` points, x ascending."""
    best: dict[float, int] = {}
    for i in np.lexsort((vs, xs)):
        best[float(xs[i])] = int(i)
    cand = [best[x] for x in sorted(best)]
    chain: list[int] = []
    for i in cand:
        while len(chain) >= 2:
            a, b = chain[-2], chain[-1]
            cross = (xs[b] - xs[a]) * (vs[i] - vs[a]) - (vs[b] - vs[a]) * (xs[i] - xs[a])
            if cross >= 0.0:
                chain.pop()
            else:
                break
        chain.append(i)
    return chain


@dataclass(frozen=True)
class ConcavePL:
    """Concave piecewise-linear function on the ``k``-simplex, carried exactly.

    ``pieces`` holds rows ``g`` with value ``min_g g . y`` in full barycentric
    coordinates.  ``verts`` holds the hypograph's extreme points as
    ``(y, value)`` rows of width ``k + 1``.  ``prov`` optionally records, per
    vertex, the up/down source points that produced it in a pair supremum.
    """

    k: int
    pieces: np.ndarray
    verts: np.ndarray
    prov: Optional[np.ndarray] = None

    @staticmethod
    def constant(value: float) -> ConcavePL:
        return ConcavePL(
            k=1,
            pieces=np.array([[float(value)]]),
            verts=np.array([[1.0, float(value)]]),
        )

    def evaluate(self, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.min(self.pieces @ y))

    def evaluate_batch(self, ys: np.ndarray) -> np.ndarray:
        return np.min(ys @ self.pieces.T, axis=1)

    def argmin_piece(self, y) -> int:
        vals = self.pieces @ np.asarray(y, dtype=float)
        return int(np.argmin(vals))


def _hull_upper(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper envelope of a (d+1)-dim point cloud (last axis is the value).

    Returns ``(affine, vert_ids)`` where ``affine`` rows are
    ``(a, beta)`` with envelope ``min_a a . x + beta`` over the x-projection.
    A sentinel far below the cloud keeps the hull full-dimensional even when
    the data is affine.
    """
    d = points.shape[1] - 1
    if d == 1:
        chain = _upper_hull_2d(points[:, 0], points[:, 1])
        affine = []
        for a, b in zip(chain, chain[1:]):
            xa, va = points[a]
            xb, vb = points[b]
            slope = (vb - va) / (xb - xa)
            affine.append((slope, va - slope * xa))
        if not affine:
            affine.append((0.0, float(points[chain[0], 1])))
        return np.array(affine), np.array(chain)
    span = float(points[:, -1].max() - points[:, -1].min())
    sentinel = np.concatenate(
        [points[:, :-1].mean(axis=0), [points[:, -1].min() - 10.0 * (span + 1.0)]]
    )
    hull = ConvexHull(np.vstack([points, sentinel]))
    sid = points.shape[0]
    eqs = hull.equations
    upper = eqs[:, d] > UPPER_FACET_TOL
    affine = []
    vert_ids: set[int] = set()
    for fi in np.flatnonzero(upper):
        n = eqs[fi]
        a = -n[:d] / n[d]
        beta = -n[d + 1] / n[d]
        simplex = hull.simplices[fi]
        if sid in simplex:
            continue
        affine.append(np.concatenate([a, [beta]]))
        vert_ids.update(int(i) for i in simplex)
    order = sorted(vert_ids)
    return np.array(affine), np.array(order)


def _pieces_from_affine(affine: np.ndarray, k: int, total: float) -> np.ndarray:
    """Full-barycentric pieces for an envelope fit over ``x = y[:k-1] * total``.

    The cloud lives on ``sum(coords) == total``; the returned pieces evaluate
    the function on the unit simplex directly.
    """
    a = affine[:, :-1]
    beta = affine[:, -1] / total
    g = np.zeros((affine.shape[0], k))
    g[:, : k - 1] = a
    g += beta[:, None]
    return g


def pair_sup(up: ConcavePL, down: ConcavePL, want_prov: bool = False) -> ConcavePL:
    """Best mean-preserving split of a driver step.

    ``W(y) = sup {(Vu(p) + Vd(q)) / 2 : (p + q) / 2 = y}`` for concave
    piecewise-linear ``Vu, Vd``: the hypograph of ``2 W(. / 2)`` is the
    Minkowski sum of the two hypographs, so its vertices are sums of vertex
    pairs and one upper hull finishes the job.
    """
    if up.k != down.k:
        raise ConfigError("pair supremum needs matching dimensions")
    k = up.k
    if k == 1:
        w = 0.5 * (up.verts[0, 1] + down.verts[0, 1])
        out = ConcavePL.constant(w)
        if want_prov:
            out = ConcavePL(
                k=1, pieces=out.pieces, verts=out.verts,
                prov=np.array([[1.0, 1.0]]),
            )
        return out
    nu, nd = up.verts.shape[0], down.verts.shape[0]
    if nu * nd > PAIR_CLOUD_LIMIT:
        raise SizeGuardError(
            f"pair cloud of {nu * nd} points exceeds {PAIR_CLOUD_LIMIT}"
        )
    yu = up.verts[:, :k]
    yd = down.verts[:, :k]
    sums = (up.verts[:, None, :] + down.verts[None, :, :]).reshape(-1, k + 1)
    cloud = np.column_stack([sums[:, : k - 1], sums[:, k]])
    affine, vert_ids = _hull_upper(cloud)
    pieces = _pieces_from_affine(affine, k, total=2.0)
    verts = np.column_stack([0.5 * sums[vert_ids, :k], 0.5 * sums[vert_ids, k]])
    prov = None
    if want_prov:
        iu, idn = np.divmod(vert_ids, nd)
        prov = np.column_stack([yu[iu], yd[idn]])
    return ConcavePL(k=k, pieces=pieces, verts=verts, prov=prov)


def perspective(stop_value: float, inner: ConcavePL) -> ConcavePL:
    """Atom decision: pay ``stop_value`` on the first coordinate, renormalize
    the rest into ``inner``.

    ``B(y) = y1 * stop_value + (1 - y1) * inner(y')``; in full barycentric
    coordinates each inner piece simply gains a leading coefficient, and the
    hypograph is the cone joining the apex ``(e1, stop_value)`` to the inner
    hypograph embedded at ``y1 = 0``.
    """
    k = inner.k + 1
    pieces = np.column_stack([np.full(inner.pieces.shape[0], stop_value), inner.pieces])
    base = np.column_stack([
        np.zeros(inner.verts.shape[0]),
        inner.verts[:, : inner.k],
        inner.verts[:, inner.k],
    ])
    apex = np.zeros((1, k + 1))
    apex[0, 0] = 1.0
    apex[0, k] = stop_value
    return ConcavePL(k=k, pieces=pieces, verts=np.vstack([apex, base]))


@dataclass(frozen=True)
class ValueTable:
    """Solver output: root value, exact value functions and their grid samples.

    ``reps`` maps ``(step, node)`` to the exact concave value function there.
    ``tables`` maps ``(k, step, node)`` to that function sampled on the rows of
    ``SimplexGrid(k, resolution).points`` at the block's closing atom step: the
    pre-decision value of holding a renormalized ``k``-atom future law.  The
    tables feed ``digest`` and ``slack``, the largest value difference between
    adjacent grid points across all tables (at least ``SLACK_FLOOR``), a
    Lipschitz-times-mesh bound on anything one grid step can move.
    """

    spec: LatticeSpec
    cost: CostSpec
    mu: DiscreteMeasure
    resolution: int
    steps: tuple[int, ...]
    root_value: float
    tables: dict[tuple[int, int, NodeId], np.ndarray]
    slack: float
    digest: str
    reps: dict[tuple[int, NodeId], ConcavePL] = field(repr=False)


def _mu_vector(mu: DiscreteMeasure) -> np.ndarray:
    return np.asarray(mu.weights, dtype=float)


def _continuation(spec: LatticeSpec, node: NodeId, rep: Callable[[NodeId], ConcavePL],
                  want_prov: bool = False) -> ConcavePL:
    """Value of holding on at ``node``: the pair supremum of its children's ``rep``."""
    up, down = children(spec, node)
    return pair_sup(rep(up), rep(down), want_prov=want_prov)


def _bellman(spec: LatticeSpec, cost: CostSpec, node: NodeId,
             rep: Callable[[NodeId], ConcavePL], at_atom: bool) -> ConcavePL:
    """One backward step: the continuation, then the atom decision at an atom step."""
    cont = _continuation(spec, node, rep)
    if at_atom:
        return perspective(evaluate(cost, state(spec, node)), cont)
    return cont


def solve(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure,
          resolution: int, debug: bool = False) -> ValueTable:
    """Exact block backward induction for the constrained stopping value.

    ``resolution`` only controls the sampled tables and the reported slack;
    the root value is computed from the exact piecewise-linear
    representations.  ``debug`` re-derives every boundary table entry through
    the explicit renormalization quotient and insists the two routes agree to
    1e-12.
    """
    if not (isinstance(resolution, int) and resolution >= 1):
        raise ConfigError(f"resolution must be a positive int, got {resolution!r}")
    steps = atom_steps(spec, mu.atoms)
    r = len(steps)
    horizon = steps[-1]
    step_of_atom = {s: i for i, s in enumerate(steps)}
    # Built first so that an oversized resolution fails before the induction.
    grids = {k: SimplexGrid(k, resolution) for k in range(1, r + 1)}
    reps: dict[tuple[int, NodeId], ConcavePL] = {}

    def rep(node: NodeId) -> ConcavePL:
        return reps[(node.step, node)]

    for s in range(horizon, -1, -1):
        for node in nodes_at_step(spec, s):
            if s == horizon:
                reps[(s, node)] = ConcavePL.constant(evaluate(cost, state(spec, node)))
            else:
                reps[(s, node)] = _bellman(spec, cost, node, rep, s in step_of_atom)

    root_value = reps[(0, root(spec))].evaluate(_mu_vector(mu))

    tables: dict[tuple[int, int, NodeId], np.ndarray] = {}
    slack = SLACK_FLOOR
    for k in range(1, r + 1):
        s = steps[r - k]
        grid = grids[k]
        for node in nodes_at_step(spec, s):
            vals = reps[(s, node)].evaluate_batch(grid.fractions)
            tables[(k, s, node)] = vals
            slack = max(slack, grid.max_adjacent_diff(vals))

    if debug:
        _check_scaling(spec, cost, rep, tables, grids)

    h = hashlib.sha256()
    for key in sorted(tables, key=lambda t: (t[0], t[1], repr(t[2]))):
        h.update(repr(key).encode())
        h.update(np.round(tables[key], 12).tobytes())
    h.update(f"{root_value:.12e}".encode())

    return ValueTable(
        spec=spec, cost=cost, mu=mu, resolution=resolution,
        steps=tuple(steps), root_value=root_value, tables=tables,
        slack=slack, digest=h.hexdigest(), reps=reps,
    )


def _check_scaling(spec, cost, rep, tables, grids):
    """Boundary entries must equal the explicit stop/renormalize quotient."""
    for (k, s, node), vals in tables.items():
        if k == 1:
            continue
        y = grids[k].fractions
        c = evaluate(cost, state(spec, node))
        inner = _continuation(spec, node, rep)
        y1, rest = y[:, 0], 1.0 - y[:, 0]
        live = rest > 1e-14
        direct = np.full(len(y), c)
        direct[live] = y1[live] * c + rest[live] * inner.evaluate_batch(
            y[live, 1:] / rest[live, None])
        off = np.flatnonzero(np.abs(direct - vals) > 1e-12)
        if off.size:
            err = abs(direct[off[0]] - vals[off[0]])
            raise AssertionError(
                f"renormalization identity off by {err:.3e} "
                f"at block {k}, step {s}, node {node}"
            )


@dataclass(frozen=True)
class DppReport:
    residual: float
    slack: float
    ok: bool


def check_dpp(table: ValueTable, theta: Callable[[LatticeSpec, NodeId], bool]) -> DppReport:
    """Verify the dynamic-programming identity across a stopping frontier.

    The root value is recomputed by backward induction that terminates early
    wherever ``theta`` fires, substituting the solver's stored value function
    there (at an atom step this is the pre-decision boundary function).  The
    residual must sit within the table's slack; a frontier past the last atom
    degenerates into a full recomputation.
    """
    spec = table.spec
    horizon = table.steps[-1]
    memo: dict[NodeId, ConcavePL] = {}

    def u(node: NodeId) -> ConcavePL:
        if node not in memo:
            if node.step == horizon or theta(spec, node):
                memo[node] = table.reps[(node.step, node)]
            else:
                memo[node] = _bellman(spec, table.cost, node, u, node.step in table.steps)
        return memo[node]

    recomputed = u(root(spec)).evaluate(_mu_vector(table.mu))
    residual = abs(recomputed - table.root_value)
    return DppReport(residual=residual, slack=table.slack, ok=residual <= table.slack)


def _facet_split(w: ConcavePL, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Recover an optimal up/down split at ``y`` from pair-sup provenance.

    The doubled point ``2y`` lies in some face of the Minkowski hull; writing
    it as a convex combination of that face's vertices and pulling the
    combination back through each vertex's source pair yields split points
    achieving the supremum exactly.  The face may be a merged polygon, so the
    combination is found by nonnegative least squares.  Ties between pieces
    pick the lowest index.
    """
    k = w.k
    if k == 1:
        return np.array([1.0]), np.array([1.0])
    target = 2.0 * y
    vals = w.verts[:, k]
    # Active vertices: those lying on the minimizing piece's hyperplane.
    piece = w.pieces[w.argmin_piece(y)]
    on_piece = np.abs(w.verts[:, :k] @ piece - vals) <= 1e-9 * (1.0 + np.abs(vals))
    ids = np.flatnonzero(on_piece)
    a = np.vstack([2.0 * w.verts[ids, :k].T, np.ones(len(ids))])
    b = np.concatenate([target, [1.0]])
    lam, rnorm = nnls(a, b)
    total = lam.sum()
    if rnorm > 1e-8 or total <= 0.0:
        return y.copy(), y.copy()
    lam /= total
    prov = w.prov[ids]
    p = lam @ prov[:, :k]
    q = lam @ prov[:, k:]
    return p, q


def check_policy_depth(horizon: int) -> None:
    """Refuse a policy tree past ``POLICY_DEPTH_LIMIT``; cheap enough to run before ``solve``."""
    if horizon > POLICY_DEPTH_LIMIT:
        raise SizeGuardError(
            f"policy extraction walks 2^{horizon} histories (limit 2^{POLICY_DEPTH_LIMIT})"
        )


def extract_policy(table: ValueTable) -> MvmTree:
    """Forward sweep turning the solved tables into an explicit law tree.

    Each history node carries its frozen stop masses plus the remaining
    (unnormalized) future law; driver steps split the remainder through the
    optimal pair-sup facet, atom steps freeze the leading coordinate.  The
    result is a valid adapted martingale tree whose objective matches the
    root value.
    """
    spec = table.spec
    steps = table.steps
    r = len(steps)
    horizon = steps[-1]
    check_policy_depth(horizon)
    step_of_atom = {s: i for i, s in enumerate(steps)}
    split_memo: dict[NodeId, ConcavePL] = {}

    def split_fn(bits: tuple[int, ...]) -> ConcavePL:
        node = node_of_history(spec, bits)
        if node not in split_memo:
            split_memo[node] = _continuation(
                spec, node, lambda child: table.reps[(child.step, child)], want_prov=True
            )
        return split_memo[node]

    vectors: dict[tuple[int, ...], np.ndarray] = {}
    # Per history of step s, in code order: the unnormalized future law and
    # the frozen stop masses.  Code c's children are 2c (down) and 2c + 1 (up).
    remaining = [_mu_vector(table.mu).copy()]
    frozen = [np.zeros(r)]
    for s in range(horizon + 1):
        i = step_of_atom.get(s)
        live = [j for j in range(r) if steps[j] > s]
        next_remaining, next_frozen = [], []
        for bits, rem, fro in zip(histories(s), remaining, frozen):
            if i is not None:
                fro = fro.copy()
                rem = rem.copy()
                fro[i] += rem[i]
                rem[i] = 0.0
            vectors[bits] = fro + rem
            if s == horizon:
                continue
            mass = float(rem[live].sum())
            if mass <= 1e-14:
                rem_up = rem_dn = rem
            else:
                y = rem[live] / mass
                p, q = _facet_split(split_fn(bits), y)
                rem_up = rem.copy()
                rem_dn = rem.copy()
                rem_up[live] = mass * p
                rem_dn[live] = 2.0 * rem[live] - rem_up[live]
            next_remaining += [rem_dn, rem_up]
            next_frozen += [fro, fro]
        remaining, frozen = next_remaining, next_frozen
    return MvmTree(spec.dt, table.mu.atoms, vectors)


def strong_value(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure) -> float:
    """Best objective over non-randomized stopping rules, by exhaustion.

    A pure rule sends each node's surviving mass to a single atom, so a
    subtree's contribution is summarized by the vector of leaf-mass units it
    assigns to each atom.  The recursion merges children by convolving these
    vectors, keeping the best value per vector.  Returns ``-inf`` when the
    target law is not representable in units of ``2**-horizon``.
    """
    steps = atom_steps(spec, mu.atoms)
    r = len(steps)
    horizon = steps[-1]
    if horizon > PURE_DEPTH_LIMIT:
        raise SizeGuardError(f"pure-rule search limited to horizon {PURE_DEPTH_LIMIT}")
    units = 2 ** horizon
    target = []
    for w in mu.weights:
        scaled = w * units
        if abs(scaled - round(scaled)) > 1e-9:
            return float("-inf")
        target.append(int(round(scaled)))
    step_of_atom = {s: i for i, s in enumerate(steps)}
    memo: dict[tuple[int, NodeId], dict[tuple[int, ...], float]] = {}

    def best(s: int, node: NodeId) -> dict[tuple[int, ...], float]:
        key = (s, node)
        if key in memo:
            return memo[key]
        out: dict[tuple[int, ...], float] = {}
        i = step_of_atom.get(s)
        if i is not None:
            vec = [0] * r
            vec[i] = 2 ** (horizon - s)
            out[tuple(vec)] = evaluate(cost, state(spec, node)) * 2.0 ** (-s)
        if s < horizon:
            up, down = children(spec, node)
            bu, bd = best(s + 1, up), best(s + 1, down)
            for vu, valu in bu.items():
                for vd, vald in bd.items():
                    vec = tuple(a + b for a, b in zip(vu, vd))
                    val = valu + vald
                    if out.get(vec, float("-inf")) < val:
                        out[vec] = val
            if len(out) > PURE_TABLE_LIMIT:
                raise SizeGuardError(
                    f"pure-rule table grew past {PURE_TABLE_LIMIT} entries"
                )
        memo[key] = out
        return out

    table = best(0, root(spec))
    return table.get(tuple(target), float("-inf"))
