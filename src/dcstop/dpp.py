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
set of their hypograph (for the Minkowski construction behind ``pair_sup``),
each vertex with the rows of the two input vertices it is the midpoint of.
``pair_sup`` drops, before the hull, pairs that cannot be vertices of that
Minkowski sum, by two necessary conditions that leave the hull unchanged:

* a vertex of a Minkowski sum splits uniquely into vertices of its summands.
  Each child is the pair supremum of its own two children, so the node's sum
  has four grandchild summands, and where the up child's input ``a`` and the
  down child's input ``b`` are one function ``B`` (a slot ``(a, b)``), a
  vertex of the sum takes the same vertex of ``B`` twice.  On a recombining
  lattice the up child's down input and the down child's up input are one
  node, the slot ``(1, 0)``; at a max-augmented node on its running maximum,
  under a cost whose base depends only on the drawdown, both children's up
  inputs have drawdown 0 and share one base, the slot ``(0, 0)``.  So only
  pairs that name the same ``B`` row in ``src`` on every such slot go in, by
  one exact equality mask per slot with no tolerance, together with every
  pair on a perspective's apex row;
* the summands of a vertex share a supporting slope, so pairs whose boxes of
  supporting slopes are disjoint go out.

Simplex grids only enter when a solved table's ``slack`` is read; the root
value and every agreement check never build one.

Every induction here works on node positions (see ``lattice.nodes_at_step``):
``bases[s][p]`` and ``shifts[s][p]`` belong to the node at position ``p`` of
step ``s``, ``lattice.child_positions`` gives its children's positions one
step on, and ``lattice.states_at_step`` the states a step's stop costs are
read at.  ``NodeId`` only names nodes as the keys of ``reps``.

A node's update reads only its children's functions one step later, so the
updates of one step are independent.  Value functions live on the simplex,
where the masses sum to 1, so adding a constant to both children adds it to
the parent: ``pair_sup(U + a, D + b) = pair_sup(U, D) + (a + b) / 2`` and
``perspective(v, f + c) = perspective(v - c, f) + c``.  The induction
(``_bases``) therefore carries each position as a base function plus a
float shift, and a solved table keeps just those (``ValueTable.function``
adds them): the horizon's constants are one zero base shifted by the stop
costs, and a node's shift is the mean of its children's.  A base is named
by its vertex array, and nodes whose children hold the same two bases, in
either order, and whose stop values less their shifts have the same bits
share one update.  ``pair_sup`` is symmetric in its inputs, so a node whose
children hold an earlier node's two bases in swapped order gets that
update's mirror (``ConcavePL.mirror``): the same arrays with the ``src``
columns swapped.  Which updates are shared depends only on exact bit
equality, so a missed share costs time and never changes a value.  Each
step's slope boxes are computed once per base vertex array, before the
step above reads them.  ``_bases`` runs a large step's
updates on a thread pool and places them by position once the step is
done; every value is the one a serial pass computes.  Only qhull's own run,
inside ``_hull_upper``, releases the GIL.  The rest of an update holds it:
the pair mask and box gathers, the ``k = 2`` chain and the dedupe of hull
rows are small-array numpy and Python calls, so the pool speeds up only the
qhull share of a step.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations
from math import comb, isfinite
from typing import Iterator, Optional

import numpy as np
from scipy.optimize import nnls
from scipy.spatial import ConvexHull, QhullError

from .cost import CostSpec, cost_overflow, evaluate
from .errors import ConfigError, NumericalError, SizeGuardError, unit_scale
from .lattice import (
    LatticeSpec,
    NodeId,
    atom_steps,
    child_positions,
    node_count,
    nodes_at_step,
    states_at_step,
)
from .measures import DiscreteMeasure
from .mvm import MvmTree, check_tree_depth

GRID_SIZE_LIMIT = 1_000_000
# Nodes up to the last atom.  Recombining depth 1000 (501,501 nodes, one atom)
# solves in 3-4 s on a 2-core x86 host; max-augmented lattices pass the limit
# at depth 227.
LATTICE_NODE_LIMIT = 1_000_000
PAIR_CLOUD_LIMIT = 4_000_000
# qhull fails (QH6154, or no upper facet) on a cloud whose values dwarf its
# width in [0, 2]: on a max-augmented depth-6 ``polynomial [0, 1, 1e12]``
# instance the first failing cloud spanned 2^42.9 in value, where 2^39.5
# still passed.  From this bound on, the value column goes to qhull scaled
# by a power of two into [0.5, 1).
HULL_SPAN_LIMIT = 2.0 ** 32
UPPER_FACET_TOL = 1e-12
SLACK_FLOOR = 1e-9
# Absolute bound on how far two routes to one value may differ.
AGREE_TOL = 1e-9
# Summed pair count (``nu * nd`` over a step's nodes) from which a step's
# Bellman updates go to the thread pool; smaller steps cost less than the
# hand-off.
POOL_PAIR_CUTOFF = 20_000


def check_grid_size(k: int, resolution: int) -> int:
    """Point count of ``SimplexGrid(k, resolution)``, refusing one past ``GRID_SIZE_LIMIT``."""
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
    return n


class SimplexGrid:
    """All length-``k`` compositions of ``resolution``, in descending lexicographic order.

    Grid points are integer vectors summing to the resolution; ``fractions``
    divides them through.  ``ValueTable.slack`` samples the stored functions
    on these points and reads the slack off neighbouring points.
    """

    __slots__ = ("k", "resolution", "points", "fractions")

    def __init__(self, k: int, resolution: int):
        n = check_grid_size(k, resolution)
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


def _upper_hull_2d(xs: list[float], vs: list[float]) -> list[int]:
    """Indices of the upper concave chain of ``(x, v)`` points, x ascending."""
    best: dict[float, int] = {}
    for i in np.lexsort((vs, xs)).tolist():
        best[xs[i]] = i
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
    ``(y, value)`` rows of width ``k + 1``.  ``src`` holds, per vertex of a
    pair supremum, the rows of the up and down inputs' ``verts`` whose
    midpoint it is; a perspective keeps its inner function's rows and puts
    ``-1`` on its apex.  It is None for a function built otherwise.
    """

    k: int
    pieces: np.ndarray
    verts: np.ndarray
    src: Optional[np.ndarray] = None

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

    def mirror(self) -> ConcavePL:
        """This pair supremum with its inputs swapped: ``src``'s columns trade places.

        The function and its arrays are this one's: ``pair_sup`` is
        symmetric, and each vertex row is still the midpoint of its own up
        row and down row.
        """
        return ConcavePL(self.k, self.pieces, self.verts, self.src[:, ::-1])


def _hull_upper(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Upper envelope of a (d+1)-dim point cloud (last axis is the value).

    Returns ``(affine, vert_ids)`` where ``affine`` rows are
    ``(a, beta)`` with envelope ``min_a a . x + beta`` over the x-projection,
    and ``vert_ids`` are the ascending rows of the upper facets' vertices.
    A sentinel far below the cloud keeps the hull full-dimensional even when
    the data is affine; facets touching it are not upper facets.  qhull gives
    every triangle of a merged facet the same hyperplane, bit for bit, so
    repeated rows of ``affine`` are dropped (first occurrence kept, in order):
    the minimum, and the lowest index attaining it, stay the same.  A value
    span of ``HULL_SPAN_LIMIT`` or more goes to qhull scaled by a power of
    two, and ``affine`` comes back unscaled.
    """
    d = points.shape[1] - 1
    if d == 1:
        # Python floats round each operation as numpy's float64 does.
        xs, vs = points[:, 0].tolist(), points[:, 1].tolist()
        chain = _upper_hull_2d(xs, vs)
        affine = []
        for a, b in zip(chain, chain[1:]):
            slope = (vs[b] - vs[a]) / (xs[b] - xs[a])
            affine.append((slope, vs[a] - slope * xs[a]))
        if not affine:
            affine.append((0.0, vs[chain[0]]))
        return np.array(affine), np.array(chain)
    span = float(points[:, -1].max() - points[:, -1].min())
    scale = unit_scale(span, HULL_SPAN_LIMIT)
    if scale != 1.0:
        points = np.column_stack([points[:, :-1], scale * points[:, -1]])
        span *= scale
    sentinel = np.concatenate(
        [points[:, :-1].mean(axis=0), [points[:, -1].min() - 10.0 * (span + 1.0)]]
    )
    try:
        hull = ConvexHull(np.vstack([points, sentinel]))
    except QhullError as exc:
        raise NumericalError(
            f"qhull failed on a cloud of {points.shape[0]} points for k = {d + 1}: "
            f"{str(exc).strip().splitlines()[0]}"
        ) from exc
    eqs, simplices = hull.equations, hull.simplices
    upper = (eqs[:, d] > UPPER_FACET_TOL) & (simplices != points.shape[0]).all(axis=1)
    if not upper.any():
        raise NumericalError(f"qhull found no upper facet on a cloud of {points.shape[0]} "
                             f"points for k = {d + 1}")
    eqs = eqs[upper]
    affine = -eqs[:, [*range(d), d + 1]] / eqs[:, d:d + 1]
    affine /= scale
    # Each row is keyed by its bytes, with -0.0 read as 0.0 as a float
    # comparison reads it, so the rows kept are those of ``np.unique(affine,
    # axis=0)``; that call takes several times as long.
    keys = np.ascontiguousarray(affine + 0.0).view(f"V{affine.itemsize * affine.shape[1]}")
    first: dict = {}
    for i, key in enumerate(keys.ravel().tolist()):
        first.setdefault(key, i)
    on_upper = np.zeros(points.shape[0] + 1, dtype=bool)
    on_upper[simplices[upper]] = True
    return affine[list(first.values())], np.flatnonzero(on_upper)


def _pieces_from_affine(affine: np.ndarray, k: int) -> np.ndarray:
    """Full-barycentric pieces for an envelope fit over a pair cloud ``x = 2 y[:k-1]``.

    The cloud lives on ``sum(coords) == 2``; the returned pieces evaluate
    the function on the unit simplex directly.
    """
    a = affine[:, :-1]
    beta = affine[:, -1] / 2.0
    g = np.zeros((affine.shape[0], k))
    g[:, : k - 1] = a
    g += beta[:, None]
    return g


def _slope_boxes(f: ConcavePL) -> tuple[np.ndarray, np.ndarray]:
    """Per vertex of ``f``, a box around every slope that supports its hypograph there.

    Slopes live in the pair cloud's coordinates ``x = y[:k-1]``, where piece
    ``g`` has slope ``g[:k-1] - g[k-1]``.  The slopes supporting ``f`` at a
    vertex are the convex hull of its active pieces' slopes (``|g . y - v|
    <= 1e-9 (1 + |v|)``) plus the simplex's normal cone there: a zero ``y_j``
    (``j < k``) admits any larger slope in coordinate ``j``, a zero ``y_k``
    any smaller slope in every coordinate.  So the box bounds the active
    slopes and opens those sides; a vertex with no active piece gets every
    slope.  ``f``'s vertices must span the whole simplex, as every function
    the solver builds does.
    """
    k = f.k
    y, v = f.verts[:, :k], f.verts[:, k]
    gap = y @ f.pieces.T
    gap -= v[:, None]
    active = np.abs(gap, out=gap) <= 1e-9 * (1.0 + np.abs(v))[:, None]
    row, col = np.nonzero(active)
    slopes = (f.pieces[:, : k - 1] - f.pieces[:, k - 1:])[col]
    lo = np.full((len(v), k - 1), -np.inf)
    hi = np.full((len(v), k - 1), np.inf)
    rows, starts = np.unique(row, return_index=True)
    lo[rows] = np.minimum.reduceat(slopes, starts, axis=0)
    hi[rows] = np.maximum.reduceat(slopes, starts, axis=0)
    hi[y[:, : k - 1] <= 0.0] = np.inf
    lo[y[:, k - 1] <= 0.0] = -np.inf
    return lo, hi


def pair_sup(up: ConcavePL, down: ConcavePL, shared: tuple[tuple[int, int], ...] = (),
             boxes: Optional[tuple] = None) -> ConcavePL:
    """Best mean-preserving split of a driver step.

    ``W(y) = sup {(Vu(p) + Vd(q)) / 2 : (p + q) / 2 = y}`` for concave
    piecewise-linear ``Vu, Vd``: the hypograph of ``2 W(. / 2)`` is the
    Minkowski sum of the two hypographs, so its vertices are sums of vertex
    pairs and one upper hull finishes the job.  Each output vertex records
    its pair's rows in ``src``.

    Only a few pairs are vertices, and two necessary conditions drop most of
    the others before the hull, so no vertex of the hull is lost:

    * ``shared`` lists the slots ``(a, b)`` on which ``up``'s input ``a`` and
      ``down``'s input ``b`` (0 up, 1 down, as in ``src``) were one function
      ``B``.  On such a slot a pair is ``(b + c) / 2 + (b' + e) / 2``, in
      either order within each half, with ``b, b'`` vertices of ``hyp B``
      (under a perspective, on its base).  A vertex of a Minkowski sum splits
      uniquely into points of the summands, and for ``b != b'`` the midpoint
      ``m = (b + b') / 2``, also in ``hyp B``, splits the same sum a second
      way, as ``(m + c) / 2 + (m + e) / 2``; so it is no vertex.  One exact
      equality mask per slot, with no tolerance, keeps the pairs with
      ``up.src[:, a] == down.src[:, b]`` on every slot, and every pair on a
      perspective's apex row (``src`` row ``-1``), which is no such sum.
    * A sum ``u + d`` is on the upper hull only if one slope supports both
      summands at once: their normal cones meet (Fukuda, J. Symb. Comp.
      2004).  For ``k > 2`` the cloud keeps just the pairs whose slope boxes
      overlap in every coordinate, with a margin of ``1e-7 (1 + max |g|)``.
      ``boxes``, when given, is ``(_slope_boxes(up), _slope_boxes(down))``:
      ``_bases`` computes each base's boxes once, although it is the up
      input of one update and the down input of another.  Without it they
      are computed here.  At ``k = 2`` clouds are small and their hull is a
      sorted chain, so this test is skipped.

    The kept pairs stay in row-major order.  ``PAIR_CLOUD_LIMIT`` bounds
    ``nu * nd`` before any pair work, so every array built here, a shared
    call's ``nu x nd`` masks included, holds at most that many pairs.  Inputs
    whose largest or smallest values sum past the floats are refused before
    any pair is summed.
    """
    if up.k != down.k:
        raise ConfigError("pair supremum needs matching dimensions")
    # Python floats, whose overflowing sum is inf without a warning.
    vu, vd = up.verts[:, -1], down.verts[:, -1]
    if not (isfinite(float(vu.max()) + float(vd.max()))
            and isfinite(float(vu.min()) + float(vd.min()))):
        raise cost_overflow("a sum of stop costs")
    k = up.k
    if k == 1:
        w = 0.5 * (up.verts[0, 1] + down.verts[0, 1])
        return ConcavePL(k=1, pieces=np.array([[w]]), verts=np.array([[1.0, w]]),
                         src=np.zeros((1, 2), dtype=np.intp))
    nu, nd = up.verts.shape[0], down.verts.shape[0]
    if nu * nd > PAIR_CLOUD_LIMIT:
        raise SizeGuardError(
            f"pair cloud of {nu * nd} points exceeds {PAIR_CLOUD_LIMIT}"
        )
    # Candidate pairs, as two index arrays: flat when shared, else two that
    # broadcast against each other.
    if shared:
        (a, b), *rest = shared
        keep = up.src[:, a, None] == down.src[:, b]
        for a, b in rest:
            keep &= up.src[:, a, None] == down.src[:, b]
        # An apex row, ``-1`` in both ``src`` columns, passes every slot.
        keep[up.src[:, 0] < 0] = True
        keep[:, down.src[:, 0] < 0] = True
        # Flat indices, row-major; a 2-D ``np.nonzero`` takes several times as long.
        iu, idn = np.divmod(np.flatnonzero(keep), nd)
    else:
        iu, idn = np.arange(nu)[:, None], np.arange(nd)
    if k > 2:
        # One gather per box side.  The margin goes on the boxes before the
        # gather: the same sums, over a function's rows and not its pairs.
        (lo_u, hi_u), (lo_d, hi_d) = boxes or (_slope_boxes(up), _slope_boxes(down))
        margin = 1e-7 * (1.0 + max(np.abs(up.pieces).max(), np.abs(down.pieces).max()))
        meet = ((lo_u[iu] <= (hi_d + margin)[idn]).all(axis=-1)
                & (lo_d[idn] <= (hi_u + margin)[iu]).all(axis=-1))
        iu, idn = np.broadcast_to(iu, meet.shape)[meet], np.broadcast_to(idn, meet.shape)[meet]
    elif not shared:
        iu, idn = np.divmod(np.arange(nu * nd), nd)
    # The cloud drops the last simplex coordinate; it is added in place, so
    # one cloud-sized temporary is alive at a time.
    cols = [*range(k - 1), k]
    cloud = up.verts[:, cols][iu]
    cloud += down.verts[:, cols][idn]
    affine, vert_ids = _hull_upper(cloud)
    iu, idn = iu[vert_ids], idn[vert_ids]
    return ConcavePL(k=k, pieces=_pieces_from_affine(affine, k),
                     verts=0.5 * (up.verts[iu] + down.verts[idn]),
                     src=np.column_stack([iu, idn]))


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
    src = None if inner.src is None else np.vstack([[-1, -1], inner.src])
    return ConcavePL(k=k, pieces=pieces, verts=np.vstack([apex, base]), src=src)


def _continuation(f: ConcavePL, atom: bool) -> ConcavePL:
    """The pair supremum inside a stored function: ``f``, or its perspective's inner part."""
    if not atom:
        return f
    return ConcavePL(k=f.k - 1, pieces=f.pieces[:, 1:], verts=f.verts[1:, 1:], src=f.src[1:])


@dataclass(frozen=True)
class ValueTable:
    """Solver output: root value, exact value functions and the grid slack.

    The node at position ``p`` of step ``s`` has the exact concave value
    function ``bases[s][p] + shifts[s][p]`` (``function``), the base and
    shift that ``_bases`` yields.  A base's ``src`` rows refer to the bases
    of its children; a shift moves no ``y`` column, so they name the same
    points of the children's functions.  ``reps`` reads the functions keyed
    by ``(step, node)``.  ``slack`` samples each block's functions on
    ``SimplexGrid(k, resolution)`` at the block's closing atom step and
    returns the largest value difference between adjacent grid points (at
    least ``SLACK_FLOOR``), a Lipschitz-times-mesh bound on anything one
    grid step can move; it is computed on first read.
    """

    spec: LatticeSpec
    mu: DiscreteMeasure
    resolution: int
    steps: tuple[int, ...]
    root_value: float
    bases: tuple[tuple[ConcavePL, ...], ...] = field(repr=False)
    shifts: tuple[np.ndarray, ...] = field(repr=False)

    def function(self, s: int, p: int) -> ConcavePL:
        """The value function at position ``p`` of step ``s``, with its base's ``src``."""
        return _shifted(self.bases[s][p], float(self.shifts[s][p]))

    @property
    def reps(self) -> dict[tuple[int, NodeId], ConcavePL]:
        """Each node's ``function`` keyed by ``(step, node)``, built on each read."""
        return {(s, node): self.function(s, p) for s in range(len(self.bases))
                for p, node in enumerate(nodes_at_step(self.spec, s))}

    @cached_property
    def slack(self) -> float:
        """The grid slack; each distinct base vertex array and shift is sampled once."""
        r, slack = len(self.steps), SLACK_FLOOR
        for k in range(1, r + 1):
            s = self.steps[r - k]
            grid = SimplexGrid(k, self.resolution)
            keys = zip((id(b.verts) for b in self.bases[s]), self.shifts[s].view(np.int64).tolist())
            for p in {key: p for p, key in enumerate(keys)}.values():
                slack = max(slack, grid.max_adjacent_diff(
                    self.function(s, p).evaluate_batch(grid.fractions)))
        return slack


def _mu_vector(mu: DiscreteMeasure) -> np.ndarray:
    return np.asarray(mu.weights, dtype=float)


def _bellman(up: ConcavePL, down: ConcavePL, stop_value: Optional[float],
             shared: tuple[tuple[int, int], ...], boxes: Optional[tuple]) -> ConcavePL:
    """The children's pair supremum, then the atom decision if ``stop_value`` is given."""
    cont = pair_sup(up, down, shared, boxes)
    return cont if stop_value is None else perspective(stop_value, cont)


def _shifted(f: ConcavePL, shift: float) -> ConcavePL:
    """``f + shift``, with ``f``'s ``src``.

    Pieces are barycentric, so ``shift`` goes on every coefficient, and on
    the value column of ``verts``.  A sum past the floats is refused.
    """
    # Python floats, whose overflowing sum is inf without a warning.
    for a in (f.pieces, f.verts[:, -1]):
        if not (isfinite(float(a.max()) + shift) and isfinite(float(a.min()) + shift)):
            raise cost_overflow("a sum of stop costs")
    verts = f.verts.copy()
    verts[:, -1] += shift
    return ConcavePL(f.k, f.pieces + shift, verts, f.src)


def _stop_values(spec: LatticeSpec, cost: CostSpec, s: int, steps) -> Optional[np.ndarray]:
    """The cost of stopping at each position of step ``s``; None off the atom steps."""
    return evaluate(cost, states_at_step(spec, s)) if s in steps else None


def check_lattice_size(spec: LatticeSpec, horizon: int) -> None:
    """Refuse more than ``LATTICE_NODE_LIMIT`` nodes up to ``horizon``; cheap at any depth."""
    total = 0
    for s in range(horizon + 1):
        total += node_count(spec, s)
        if total > LATTICE_NODE_LIMIT:
            raise SizeGuardError(
                f"lattice holds more than {LATTICE_NODE_LIMIT} nodes up to step {horizon}; "
                "lower the depth or the last atom time"
            )


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bases(spec: LatticeSpec, cost: CostSpec, steps) -> Iterator[tuple]:
    """The backward induction on base functions, one step at a time from the horizon.

    Yields ``(s, bases, shifts)``: ``bases`` is a tuple and ``shifts`` a
    float array, and the node at position ``p`` of step ``s`` has the value
    function ``bases[p] + shifts[p]``.  The horizon's bases are one zero
    constant, shifted by the stop costs.  A node above reads its up child's
    ``(U, a)`` and its down child's ``(D, b)``; its shift is ``(a + b) / 2``
    and its base ``_bellman(U, D, stop - shift)``, since on the simplex
    ``pair_sup(U + a, D + b) = pair_sup(U, D) + (a + b) / 2`` and
    ``perspective(v, f + c) = perspective(v - c, f) + c``.  A shift or
    relative stop value past the floats is refused before any key is formed.

    A base is named by its vertex array, and positions with one key (the up
    child's base array, the down child's, the bits of the relative stop
    value, None off the atom steps) share one update.  A key whose swap
    (down, up, bits) came at an earlier position is that update's mirror:
    the position gets ``ConcavePL.mirror`` of the swap's base, built after
    the step's updates, whose swapped ``src`` columns refer to its own
    children's bases.  The inputs of each base of the step just yielded are
    kept (swapped for a mirror), and an update passes ``pair_sup`` as
    ``shared`` every slot ``(a, b)``, in ascending order, on which its up
    child's input ``a`` and its down child's input ``b`` are one vertex
    array.  Before a step's updates run, ``_slope_boxes`` runs once per
    distinct vertex array of the step below with ``k > 2``, and each update
    gets its inputs' boxes.

    A step whose summed pair count ``nu * nd`` over its distinct updates
    (from the children's vertex counts, before pruning) reaches
    ``POOL_PAIR_CUTOFF`` runs them on a thread pool.  Smaller steps, and
    every step on a single CPU, run serially.  The pool has one thread per
    CPU this process may use (``os.sched_getaffinity``, else
    ``os.cpu_count()``), is built on the first such step and is closed when
    the induction ends.  Each update is deterministic and the results are
    placed by node position (see the module docstring) after the step, so
    bases and errors are those of a serial pass, bit for bit: the first
    failing position raises.
    """
    horizon = steps[-1]
    shifts = _stop_values(spec, cost, horizon, steps)
    bases = (ConcavePL.constant(0.0),) * len(shifts)
    # id of each base of the step just yielded -> the (up, down) bases of its
    # update, swapped for a mirror; empty for the horizon's zero.
    inputs: dict = {}
    workers = _cpu_count()
    pool = None
    try:
        yield horizon, bases, shifts
        for s in range(horizon - 1, -1, -1):
            child = child_positions(spec, s)
            stops = _stop_values(spec, cost, s, steps)
            # An overflowing sum is inf, refused here before any key is formed.
            with np.errstate(over="ignore"):
                total = shifts[child[:, 1]] + shifts[child[:, 0]]
                shifts = 0.5 * total
                rel = shifts if stops is None else stops - shifts
            if not (np.isfinite(total).all() and np.isfinite(rel).all()):
                raise cost_overflow("a sum of stop costs")
            if stops is None:
                rel = bits = [None] * len(shifts)
            else:
                # Keyed by their bits, so that 0.0 and -0.0 stay apart.
                rel, bits = rel.tolist(), rel.view(np.int64).tolist()
            ups, downs = [bases[p] for p in child[:, 1]], [bases[p] for p in child[:, 0]]
            keys = [(id(u.verts), id(d.verts), b) for u, d, b in zip(ups, downs, bits)]
            # Position of the first node with each distinct key, in position order.
            first: dict = {}
            for p, key in enumerate(keys):
                first.setdefault(key, p)
            # A key whose swap came first is that update's mirror.
            twins = [key for key, p in first.items()
                     if first.get((key[1], key[0], key[2]), p) >= p]
            args = [[col[first[key]] for key in twins] for col in (ups, downs, rel)]
            args.append([tuple((a, b) for a in (0, 1) for b in (0, 1)
                               if inputs[id(u)][a].verts is inputs[id(d)][b].verts)
                         if inputs else () for u, d in zip(*args[:2])])
            boxes: dict = {}
            for f in bases:
                if f.k > 2 and id(f.verts) not in boxes:
                    boxes[id(f.verts)] = _slope_boxes(f)
            args.append([(boxes[id(u.verts)], boxes[id(d.verts)]) if boxes else None
                         for u, d in zip(*args[:2])])
            pairs = sum(u.verts.shape[0] * d.verts.shape[0] for u, d in zip(*args[:2]))
            pooled = workers > 1 and pairs >= POOL_PAIR_CUTOFF
            if pooled and pool is None:
                pool = ThreadPoolExecutor(workers)
            results = list((pool.map if pooled else map)(_bellman, *args))
            made = dict(zip(twins, results))
            inputs = {id(f): (u, d) for f, u, d in zip(results, *args[:2])}
            for key, p in first.items():
                if key not in made:
                    f = made[key] = made[key[1], key[0], key[2]].mirror()
                    inputs[id(f)] = (ups[p], downs[p])
            # Placed once the step is done: every update reads step s + 1 only.
            bases = tuple(made[key] for key in keys)
            yield s, bases, shifts
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def solve(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure,
          resolution: int) -> ValueTable:
    """Exact block backward induction for the constrained stopping value.

    ``resolution`` only sets the grid that ``slack`` samples; the root value
    is computed from the exact piecewise-linear representations, and a grid
    past ``GRID_SIZE_LIMIT`` is refused when ``slack`` is read.  The table
    keeps each step's bases and shifts as ``_bases`` yields them; the root
    value is the root's base plus its shift, evaluated at ``mu``'s weights.
    """
    steps = atom_steps(spec, mu.atoms)
    check_lattice_size(spec, steps[-1])
    # ``_bases`` yields the steps from the horizon down to 0.
    _, bases, shifts = zip(*reversed(list(_bases(spec, cost, steps))))
    root = _shifted(bases[0][0], float(shifts[0][0]))
    return ValueTable(
        spec=spec, mu=mu, resolution=resolution, steps=tuple(steps),
        root_value=root.evaluate(_mu_vector(mu)), bases=bases, shifts=shifts,
    )


def _facet_split(w: ConcavePL, up: ConcavePL, y: np.ndarray) -> np.ndarray:
    """The up child's point of an optimal split at ``y``, from ``w = pair_sup(up, down)``.

    The doubled point ``2y`` lies in some face of the Minkowski hull; writing
    it as a convex combination of that face's vertices and pulling the
    combination back through each vertex's up row (``w.src[:, 0]``) yields
    the up split point; the down one is ``2y`` minus it.  Together they
    achieve the supremum exactly.  The face may be a merged polygon, so the
    combination is found by nonnegative least squares.  Ties between pieces
    pick the lowest index.  Only ``up``'s ``y`` columns are read, which a
    shift leaves as they are, so ``up`` may be the child's base.
    """
    k = w.k
    if k == 1:
        return np.array([1.0])
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
        raise NumericalError(f"no facet vertices split {y.tolist()}: least-squares "
                             f"residual {rnorm:.3e}, weight {total:.3e}")
    lam /= total
    return lam @ up.verts[w.src[ids, 0], :k]


def extract_policy(table: ValueTable) -> MvmTree:
    """Forward sweep turning the solved value functions into an explicit law tree.

    Each history node carries the stop masses of the atoms already passed,
    which stay frozen, plus the (unnormalized) law of the atoms still ahead,
    which each driver step splits through the optimal pair-sup facet.  The
    pair supremum is the one inside a visited node's ``table.function``
    (``_continuation``), read with its ``src`` rows into the up child's base.
    The result is a valid adapted martingale tree whose objective matches the
    root value.

    The split at a history depends only on its state: its node position and
    the normalized law of the atoms still ahead.  Each step keys its rows in
    one array pass, a row's position and its law's bits read as one bytes
    object, and ``_facet_split`` runs once per distinct key, at its first
    row, in row order; a history whose live mass is 1e-14 or less is not
    split.  Rows with one key hand ``_facet_split`` the same bits, and every
    other operation is the elementwise arithmetic of a per-history loop, so
    the tree is bit for bit the one that loop builds, down to the first
    ``NumericalError``.
    """
    spec = table.spec
    steps = table.steps
    horizon = steps[-1]
    check_tree_depth(horizon)
    # One row per history in heap order: row h has its children at rows
    # 2h + 1 (down) and 2h + 2 (up).  ``at`` holds each row's node position.
    vectors = np.empty((2 ** (horizon + 1) - 1, len(steps)))
    vectors[0] = _mu_vector(table.mu)
    at = np.zeros(1, dtype=np.intp)
    for s in range(horizon):
        # The atoms still ahead are the columns from ``first`` on.
        first = sum(step <= s for step in steps)
        child, nxt = child_positions(spec, s), table.bases[s + 1]
        rows = vectors[2 ** s - 1: 2 ** (s + 1) - 1]
        kids = vectors[2 ** (s + 1) - 1: 2 ** (s + 2) - 1].reshape(-1, 2, len(steps))
        kids[:] = rows[:, None]
        ahead = rows[:, first:]
        mass = ahead.sum(axis=1)
        split = np.flatnonzero(mass > 1e-14)
        law = ahead[split] / mass[split, None]
        # A row's key is its position and its law's bits, read as one bytes
        # object; ``heads`` maps each key to its first row, in row order.
        keyed = np.column_stack((at[split], law.view(np.int64)))
        keys = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1]))).ravel().tolist()
        heads = {}
        for row, key in enumerate(keys):
            heads.setdefault(key, row)
        pos, conts, points = at[split].tolist(), {}, np.empty_like(law)
        for row in heads.values():
            p = pos[row]
            if p not in conts:
                conts[p] = _continuation(table.function(s, p), s in steps)
            points[row] = _facet_split(conts[p], nxt[child[p, 1]], law[row])
        up = mass[split, None] * points[list(map(heads.__getitem__, keys))]
        kids[split, 1, first:] = up
        kids[split, 0, first:] = 2.0 * ahead[split] - up
        at = child[at].ravel()
    return MvmTree(spec.dt, table.mu.atoms, vectors)
