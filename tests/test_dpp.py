"""Backward induction solver: grids, envelopes, value tables, policies."""

from __future__ import annotations

import dataclasses
import gc
import itertools
import sys
import threading
import time
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcstop import (
    ConcavePL,
    ConfigError,
    CostSpec,
    DiscreteMeasure,
    LatticeSpec,
    SimplexGrid,
    SizeGuardError,
    accumulate,
    build_lp,
    extract_policy,
    marginal_of,
    nodes_at_step,
    pair_sup,
    perspective,
    solve,
    solve_lp,
    to_kernel,
    validate,
)

import dcstop.dpp as dpp
from dcstop.dpp import AGREE_TOL, _hull_upper
from dcstop.errors import NumericalError
from dcstop.lattice import child_positions
from dcstop.measures import measure_from_json
from dcstop.mvm import TREE_DEPTH_LIMIT
from paper_checks import check_dpp, oracle_value, strong_value, termination
from conftest import (
    barrier_value,
    block_samples,
    brute_kernel_stats,
    check_scaling,
    from_samples,
    grid_rows,
    heap_row,
    kernel_from_dict,
    mean,
    random_measure,
    reference_pair_sup,
    reference_solve,
    state,
    stop_cost,
    stored_functions,
    unit_simplex_pieces,
)

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
IDENTITY = CostSpec(kind="terminal", name="identity")
SQUARE = CostSpec(kind="terminal", name="square")
ABS = CostSpec(kind="terminal", name="abs")


def worked_instance():
    spec = LatticeSpec(depth=2, dt=1.0)
    mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
    return spec, INDICATOR, mu


def random_simplex_points(rng, k, n):
    return rng.dirichlet(np.ones(k), size=n)


class TestSimplexGrid:
    @pytest.mark.parametrize("k,resolution", [(1, 5), (2, 7), (3, 4), (4, 3)])
    def test_size_counts_compositions(self, k, resolution):
        grid = SimplexGrid(k, resolution)
        assert len(grid.points) == comb(resolution + k - 1, k - 1)
        assert (grid.points.sum(axis=1) == resolution).all()
        assert (grid.points >= 0).all()
        assert np.allclose(grid.fractions.sum(axis=1), 1.0)

    @pytest.mark.parametrize("k,resolution", [(1, 5), (2, 7), (3, 4), (4, 3), (3, 12)])
    def test_points_descend_lexicographically(self, k, resolution):
        grid = SimplexGrid(k, resolution)
        brute = sorted((p for p in itertools.product(range(resolution + 1), repeat=k)
                        if sum(p) == resolution), reverse=True)
        assert grid.points.tolist() == [list(p) for p in brute]

    def test_max_adjacent_diff_hand_example(self):
        grid = SimplexGrid(2, 2)
        rows = grid_rows(grid)
        order = [rows[key] for key in [(2, 0), (1, 1), (0, 2)]]
        values = np.empty(3)
        values[order] = [0.0, 1.0, 3.0]
        assert grid.max_adjacent_diff(values) == pytest.approx(2.0, abs=0)

    # (70, 1): the base-2 keys of 70 coordinates overflow int64.
    @pytest.mark.parametrize("k,resolution", [(1, 3), (2, 1), (2, 9), (3, 2), (3, 11),
                                              (4, 1), (4, 6), (70, 1)])
    def test_max_adjacent_diff_matches_the_pairwise_loop(self, k, resolution):
        rng = np.random.default_rng(67)
        grid = SimplexGrid(k, resolution)
        for scale in (1e-6, 1.0, 1e6):
            values = scale * rng.normal(size=len(grid.points))
            assert grid.max_adjacent_diff(values) == pairwise_max_adjacent_diff(grid, values)
        values[::3] = np.nan
        assert grid.max_adjacent_diff(values) == pairwise_max_adjacent_diff(grid, values)

    def test_single_coordinate_grid_is_trivial(self):
        grid = SimplexGrid(1, 9)
        assert len(grid.points) == 1
        assert grid.max_adjacent_diff([4.2]) == 0.0

    def test_guards(self):
        with pytest.raises(ConfigError):
            SimplexGrid(2, 0)
        with pytest.raises(ConfigError):
            SimplexGrid(0, 5)
        with pytest.raises(SizeGuardError):
            SimplexGrid(3, 2000)


def pairwise_max_adjacent_diff(grid, values):
    """Reference slack: every point against each one-unit transfer, one pair at a time."""
    rows = grid_rows(grid)
    worst = 0.0
    for idx, p in enumerate(grid.points):
        for i in range(grid.k):
            if p[i] == 0:
                continue
            for j in range(grid.k):
                if i == j:
                    continue
                q = p.copy()
                q[i] -= 1
                q[j] += 1
                other = rows.get(tuple(q.tolist()))
                if other is not None and other > idx:
                    worst = max(worst, abs(float(values[idx] - values[other])))
    return worst


class TestEnvelope:
    def test_constant(self):
        w = ConcavePL.constant(2.5)
        assert w.k == 1
        assert w.evaluate([1.0]) == 2.5

    def test_dominates_samples_and_matches_concave_data(self):
        grid = SimplexGrid(3, 6)
        rows = np.array([[1.0, 0.0, 0.5], [0.2, 0.8, 0.1]])
        concave = (grid.fractions @ rows.T).min(axis=1)
        w = from_samples(grid, concave)
        at_grid = w.evaluate_batch(grid.fractions)
        assert (at_grid >= concave - 1e-12).all()
        assert at_grid == pytest.approx(concave, abs=1e-12)

    def test_strictly_lifts_convex_data(self):
        grid = SimplexGrid(2, 4)
        values = np.abs(grid.fractions[:, 0] - 0.5)
        w = from_samples(grid, values)
        assert w.evaluate([0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)

    def test_batch_matches_pointwise(self):
        rng = np.random.default_rng(52)
        grid = SimplexGrid(3, 5)
        w = from_samples(grid, rng.normal(size=len(grid.points)))
        ys = random_simplex_points(rng, 3, 10)
        batch = w.evaluate_batch(ys)
        single = [w.evaluate(y) for y in ys]
        assert batch == pytest.approx(single, abs=1e-12)

    def test_argmin_piece_attains_the_value(self):
        rng = np.random.default_rng(53)
        grid = SimplexGrid(3, 5)
        w = from_samples(grid, rng.normal(size=len(grid.points)))
        for y in random_simplex_points(rng, 3, 10):
            row = w.pieces[w.argmin_piece(y)]
            assert float(row @ y) == pytest.approx(w.evaluate(y), abs=1e-12)


def brute_grid_pair_sup(grid, vu, vd):
    """Best grid-pair randomization per grid point, by full enumeration."""
    rows = grid_rows(grid)
    out = np.full(len(grid.points), -np.inf)
    for t, target in enumerate(grid.points):
        doubled = 2 * target
        for i, p in enumerate(grid.points):
            j = rows.get(tuple((doubled - p).tolist()))
            if j is not None:
                out[t] = max(out[t], 0.5 * (vu[i] + vd[j]))
    return out


class TestPairSup:
    def test_worked_two_coordinate_example(self):
        grid = SimplexGrid(2, 10)
        vu = grid.fractions[:, 0]
        vd = 1.0 - grid.fractions[:, 0]
        w = pair_sup(from_samples(grid, vu), from_samples(grid, vd))
        for y1 in np.linspace(0.0, 1.0, 21):
            expect = min(y1 + 0.5, 1.5 - y1)
            assert w.evaluate([y1, 1.0 - y1]) == pytest.approx(expect, abs=1e-12)
        brute = brute_grid_pair_sup(grid, vu, vd)
        assert w.evaluate_batch(grid.fractions) == pytest.approx(brute, abs=1e-12)

    def test_dominates_average_and_brute_pairs(self):
        rng = np.random.default_rng(54)
        grid = SimplexGrid(3, 4)
        vu = rng.normal(size=len(grid.points))
        vd = rng.normal(size=len(grid.points))
        w = pair_sup(from_samples(grid, vu), from_samples(grid, vd))
        got = w.evaluate_batch(grid.fractions)
        assert (got >= 0.5 * (vu + vd) - 1e-12).all()
        assert (got >= brute_grid_pair_sup(grid, vu, vd) - 1e-12).all()
        assert got.max() <= 0.5 * (vu.max() + vd.max()) + 1e-12

    def test_midpoint_concave(self):
        rng = np.random.default_rng(55)
        grid = SimplexGrid(3, 4)
        w = pair_sup(from_samples(grid, rng.normal(size=len(grid.points))),
                     from_samples(grid, rng.normal(size=len(grid.points))))
        for a, b in zip(random_simplex_points(rng, 3, 20),
                        random_simplex_points(rng, 3, 20)):
            mid = 0.5 * (a + b)
            assert w.evaluate(mid) >= 0.5 * (w.evaluate(a) + w.evaluate(b)) - 1e-12

    def test_self_pair_is_a_fixpoint_on_concave_data(self):
        grid = SimplexGrid(3, 5)
        rows = np.array([[0.5, -0.2, 1.0], [0.0, 0.9, 0.3]])
        concave = (grid.fractions @ rows.T).min(axis=1)
        w = from_samples(grid, concave)
        again = pair_sup(w, w).evaluate_batch(grid.fractions)
        assert again == pytest.approx(concave, abs=1e-12)

    def test_mismatched_dimensions(self):
        grids = SimplexGrid(2, 2), SimplexGrid(3, 2)
        w2, w3 = (from_samples(grid, np.zeros(len(grid.points))) for grid in grids)
        with pytest.raises(ConfigError, match="matching dimensions"):
            pair_sup(w2, w3)

    def test_one_step_sup_concavifies_inputs_first(self):
        grid = SimplexGrid(2, 4)
        convex = np.abs(grid.fractions[:, 0] - 0.5)
        w = from_samples(grid, convex)
        got = pair_sup(w, w).evaluate_batch(grid.fractions)
        assert got.min() >= 0.5 - 1e-12


def random_concave(rng, k: int, kind: str, levels: bool) -> ConcavePL:
    """A concave PL function on the ``k``-simplex whose vertices span it.

    ``points``: the corners plus random points, about a third of their
    coordinates zeroed, so many lie on faces.  ``grid``: a coarse simplex
    grid, boundary included.  ``perspective``: an apex over a random
    ``(k-1)``-function embedded at ``y1 = 0``.  ``levels`` draws the values
    from three levels, which makes wide flat facets, as indicator costs do.
    """
    if k == 1:
        return ConcavePL.constant(float(rng.normal()))
    if kind == "perspective":
        return perspective(float(rng.normal()), random_concave(rng, k - 1, "points", levels))
    if kind == "grid":
        pts = SimplexGrid(k, int(rng.integers(1, 5))).fractions
    else:
        pts = rng.dirichlet(np.ones(k), size=int(rng.integers(0, 12)))
        pts[rng.random(pts.shape) < 0.3] = 0.0
        pts = pts[pts.sum(axis=1) > 0]
        pts = np.vstack([np.eye(k), pts / pts.sum(axis=1, keepdims=True)])
    vals = rng.integers(0, 3, len(pts)).astype(float) if levels else rng.normal(size=len(pts))
    affine, ids = _hull_upper(np.column_stack([pts[:, : k - 1], vals]))
    return ConcavePL(k=k, pieces=unit_simplex_pieces(affine, k),
                     verts=np.column_stack([pts[ids], vals[ids]]))


def sorted_rows(a: np.ndarray) -> np.ndarray:
    return a[np.lexsort(a.T[::-1])]


def assert_same_vertex_rows(got: ConcavePL, ref: ConcavePL, tol: float) -> None:
    """Each vertex row of either function is one of the other's to ``tol``, or on its envelope.

    A point on a flat face, such as ``a + b + b' + c`` with a linear ``b``,
    may pass as a vertex on one side only; such a row must lie on the other
    side's envelope, to the 1e-9 that ``_slope_boxes`` allows for a vertex on
    a piece.
    """
    k = got.k
    for a, b in ((got, ref), (ref, got)):
        gap = np.abs(a.verts[:, None, :] - b.verts[None, :, :]).max(axis=2).min(axis=1)
        extra = a.verts[gap > tol]
        np.testing.assert_allclose(b.evaluate_batch(extra[:, :k]), extra[:, k],
                                   rtol=0, atol=1e-9)


def assert_same_hull(got: ConcavePL, ref: ConcavePL) -> None:
    """One hypograph: vertex rows and grid values agree to ``1e-12 (1 + max |v|)``.

    qhull rounds a facet's hyperplane differently in two clouds of one hull,
    by up to about 1e-12 relative to the values, whether or not a pair was
    pruned (seen on nested pair suprema).  Rows are matched as
    ``assert_same_vertex_rows`` does.
    """
    k = got.k
    tol = 1e-12 * (1.0 + np.abs(ref.verts[:, k]).max())
    assert_same_vertex_rows(got, ref, tol)
    grid = SimplexGrid(k, 12).fractions
    np.testing.assert_allclose(got.evaluate_batch(grid), ref.evaluate_batch(grid),
                               rtol=0, atol=tol)


ALL_SLOTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def slot_id(slots) -> str:
    """A test id for a ``shared`` tuple: ``()`` and ``((1, 0),)`` keep their ids as False and True."""
    return {(): "False", ((1, 0),): "True"}.get(slots) or "-".join(f"{a}{b}" for a, b in slots)


class TestPrunedPairCloud:
    KINDS = ("points", "grid", "perspective")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4), st.sampled_from(KINDS),
           st.sampled_from(KINDS), st.booleans())
    def test_matches_the_all_pairs_hull(self, seed, k, kind_up, kind_down, levels):
        rng = np.random.default_rng(seed)
        up = random_concave(rng, k, kind_up, levels)
        down = random_concave(rng, k, kind_down, levels)
        got = pair_sup(up, down)
        ref = reference_pair_sup(up, down)
        assert got.verts.shape == ref.verts.shape
        np.testing.assert_allclose(sorted_rows(got.verts), sorted_rows(ref.verts),
                                   rtol=0, atol=1e-12)
        grid = SimplexGrid(k, 12).fractions
        np.testing.assert_allclose(got.evaluate_batch(grid), ref.evaluate_batch(grid),
                                   rtol=0, atol=1e-12)
        p, q = up.verts[got.src[:, 0], :k], down.verts[got.src[:, 1], :k]
        np.testing.assert_allclose(0.5 * (p + q), got.verts[:, :k], rtol=0, atol=1e-12)
        np.testing.assert_allclose(0.5 * (up.evaluate_batch(p) + down.evaluate_batch(q)),
                                   got.verts[:, k], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_hull_pieces_are_distinct(self, k, levels):
        # Flat clouds make qhull triangulate each merged facet into many
        # triangles that share one hyperplane.
        grid = SimplexGrid(k, 6)
        vals = np.minimum(np.floor(levels * grid.fractions[:, 0]), levels - 1.0)
        affine, _ = _hull_upper(np.column_stack([grid.fractions[:, : k - 1], vals]))
        assert np.unique(affine, axis=0).shape == affine.shape
        assert affine.shape[0] == levels
        w = from_samples(grid, vals)
        out = pair_sup(w, w)
        assert np.unique(out.pieces, axis=0).shape == out.pieces.shape

    @staticmethod
    def first_rows(affine: np.ndarray) -> np.ndarray:
        """``affine`` without repeated rows, first occurrences in order, as ``np.unique`` reads them."""
        return affine[np.sort(np.unique(affine, axis=0, return_index=True)[1])]

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("levels", [2, 3])
    def test_repeated_hull_rows_are_kept_once_in_order(self, monkeypatch, k, levels):
        # Merged facets: qhull gives each of their triangles one hyperplane.
        grid = SimplexGrid(k, 6)
        vals = np.minimum(np.floor(levels * grid.fractions[:, 0]), levels - 1.0)
        cloud = np.column_stack([grid.fractions[:, : k - 1], vals])
        hulls, convex_hull = [], dpp.ConvexHull

        def spy(points):
            hulls.append(convex_hull(points))
            return hulls[-1]

        monkeypatch.setattr(dpp, "ConvexHull", spy)
        affine, ids = _hull_upper(cloud)
        d = k - 1
        eqs, simplices = hulls[0].equations, hulls[0].simplices
        upper = (eqs[:, d] > dpp.UPPER_FACET_TOL) & (simplices != cloud.shape[0]).all(axis=1)
        raw = np.column_stack([-eqs[upper, :d] / eqs[upper, d:d + 1],
                               -eqs[upper, d + 1] / eqs[upper, d]])
        assert raw.shape[0] > affine.shape[0]
        assert affine.tobytes() == self.first_rows(raw).tobytes()
        assert ids.tolist() == np.unique(simplices[upper]).tolist()

    def test_rows_that_differ_by_the_sign_of_zero_are_one_row(self, monkeypatch):
        # A stand-in hull whose upper facets fit rows that differ only by
        # -0.0 against 0.0, repeat out of order, and differ for real.
        cloud = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 1.0], [0.0, 2.0, 1.0], [1.0, 1.0, 0.5]])
        eqs = np.array([[0.0, -0.0, 1.0, -1.0],
                        [-0.0, 0.0, 1.0, -1.0],
                        [0.5, 0.0, 1.0, -2.0],
                        [-0.0, -0.0, 1.0, -1.0],
                        [0.5, -0.0, 1.0, -2.0],
                        [0.0, 0.0, -1.0, 0.0]])
        simplices = np.array([[0, 1, 3], [1, 2, 3], [0, 2, 3], [0, 1, 2], [1, 2, 3], [0, 1, 4]])
        monkeypatch.setattr(dpp, "ConvexHull",
                            lambda points: SimpleNamespace(equations=eqs, simplices=simplices))
        affine, ids = _hull_upper(cloud)
        raw = np.column_stack([-eqs[:5, :2] / eqs[:5, 2:3], -eqs[:5, 3] / eqs[:5, 2]])
        assert affine.shape == (2, 3)
        assert affine.tobytes() == self.first_rows(raw).tobytes()
        assert ids.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("k", [3, 4])
    def test_a_wide_value_span_is_one_hull_scaled(self, k):
        # Values spanning [0.5, 1) go to qhull as they are; the same cloud
        # times 2^40 goes scaled back to them, so its pieces are the first
        # cloud's times 2^40, bit for bit, and its vertices the same rows.
        grid = SimplexGrid(k, 6)
        x = grid.fractions[:, : k - 1]
        vals = -((x - 0.3) ** 2).sum(axis=1)
        vals = 0.75 * (vals - vals.min()) / np.ptp(vals)
        assert 0.5 <= np.ptp(vals) < 1.0
        affine, ids = _hull_upper(np.column_stack([x, vals]))
        big_affine, big_ids = _hull_upper(np.column_stack([x, vals * 2.0 ** 40]))
        assert big_ids.tobytes() == ids.tobytes()
        assert big_affine.tobytes() == (affine * 2.0 ** 40).tobytes()

    @staticmethod
    def cloud_rows(monkeypatch, up, down, shared):
        """``pair_sup(up, down, shared)`` and the cloud its hull saw."""
        clouds = []

        def spy(cloud):
            clouds.append(cloud.copy())
            return _hull_upper(cloud)

        monkeypatch.setattr(dpp, "_hull_upper", spy)
        out = pair_sup(up, down, shared)
        monkeypatch.undo()
        return out, clouds[0]

    @staticmethod
    def expected_cloud(up, down, shared):
        """The cloud ``pair_sup(up, down, shared)`` should build, one pair at a time.

        Pairs go in row-major order; ``(i, j)`` is kept when either row is an
        apex's ``-1`` or ``up.src[i, a] == down.src[j, b]`` on every slot
        ``(a, b)`` of ``shared``, and for ``k > 2`` the two slope boxes must
        overlap by ``pair_sup``'s margin.
        """
        k = up.k
        if k > 2:
            lo_u, hi_u = dpp._slope_boxes(up)
            lo_d, hi_d = dpp._slope_boxes(down)
            margin = 1e-7 * (1.0 + max(np.abs(up.pieces).max(), np.abs(down.pieces).max()))
        rows = []
        for i in range(up.verts.shape[0]):
            for j in range(down.verts.shape[0]):
                apex = up.src[i, 0] < 0 or down.src[j, 0] < 0
                if not (apex or all(up.src[i, a] == down.src[j, b] for a, b in shared)):
                    continue
                if k > 2 and not ((lo_u[i] <= hi_d[j] + margin)
                                  & (lo_d[j] <= hi_u[i] + margin)).all():
                    continue
                rows.append(np.delete(up.verts[i], k - 1) + np.delete(down.verts[j], k - 1))
        return np.array(rows)

    @staticmethod
    def summands(slots) -> list[int]:
        """Which summand each of ``(up's up, up's down, down's up, down's down)`` input is.

        Each slot ``(a, b)`` makes up's input ``a`` and down's input ``b``
        one summand; summands are numbered in order of first appearance, so
        the slot ``(1, 0)`` gives ``A, B, B, C``.
        """
        label = [0, 1, 2, 3]
        for a, b in slots:
            old, new = label[2 + b], label[a]
            label = [new if x == old else x for x in label]
        first: dict = {}
        return [first.setdefault(x, len(first)) for x in label]

    def shared_inputs(self, rng, k, kinds, levels, atom, slots=((1, 0),)):
        """``up`` and ``down``, two pair suprema whose inputs coincide on ``slots``.

        Each summand is a ``random_concave`` of the next kind of ``kinds``; at
        the slot ``(1, 0)`` these are ``pair_sup(A, B)`` and ``pair_sup(B, C)``.
        Both go under a perspective if ``atom``.
        """
        label = self.summands(slots)
        fs = [random_concave(rng, k, kind, levels) for kind in kinds[:max(label) + 1]]
        up, down = pair_sup(fs[label[0]], fs[label[1]]), pair_sup(fs[label[2]], fs[label[3]])
        if atom:
            up, down = perspective(float(rng.normal()), up), perspective(float(rng.normal()), down)
        return up, down

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
           st.tuples(*[st.sampled_from(KINDS)] * 3), st.booleans(), st.booleans())
    def test_shared_grandchild_filter_matches_the_all_pairs_hull(self, seed, k, kinds, levels,
                                                                 atom):
        up, down = self.shared_inputs(np.random.default_rng(seed), k, kinds, levels, atom)
        assert_same_hull(pair_sup(up, down, ((1, 0),)), reference_pair_sup(up, down))

    # Each slot alone, and sets of them: one summand shared in two slots
    # (``(0, 0), (0, 1)``), two summands shared (with ``(0, 0), (1, 1)`` up
    # and down are one function, with ``(0, 1), (1, 0)`` mirrors) and one
    # summand in all four.
    SLOT_SETS = [((0, 0),), ((0, 1),), ((1, 0),), ((1, 1),), ((0, 0), (0, 1)),
                 ((0, 0), (1, 1)), ((0, 1), (1, 0)), ALL_SLOTS]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
           st.tuples(*[st.sampled_from(KINDS)] * 3), st.booleans(), st.booleans(),
           st.sampled_from(SLOT_SETS), st.booleans())
    def test_every_shared_slot_matches_the_all_pairs_hull(self, seed, k, kinds, levels, atom,
                                                          slots, share):
        up, down = self.shared_inputs(np.random.default_rng(seed), k, kinds, levels, atom,
                                      slots)
        assert_same_hull(pair_sup(up, down, slots), reference_pair_sup(up, down))
        # The caller's slope boxes give the bytes of the boxes made inside.
        shared = slots if share else ()
        own = pair_sup(up, down, shared)
        handed = pair_sup(up, down, shared, (dpp._slope_boxes(up), dpp._slope_boxes(down)))
        for a, b in ((own.pieces, handed.pieces), (own.verts, handed.verts),
                     (own.src, handed.src)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    # The slot ``(1, 0)`` keeps the ids it had as ``shared=True``.
    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("atom, slots", [
        pytest.param(atom, slots, id=f"{atom}" if slots == ((1, 0),) else f"{atom}-{slot_id(slots)}")
        for slots in SLOT_SETS for atom in (False, True)])
    def test_shared_grandchild_filter_drops_pairs(self, monkeypatch, k, atom, slots):
        rng = np.random.default_rng(80 + k)
        for kinds in itertools.product(("points", "grid"), repeat=3):
            up, down = self.shared_inputs(rng, k, kinds, False, atom, slots)
            got, kept = self.cloud_rows(monkeypatch, up, down, slots)
            plain, all_kept = self.cloud_rows(monkeypatch, up, down, ())
            assert len(kept) < len(all_kept)
            assert_same_hull(got, plain)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("atom", [False, True])
    @pytest.mark.parametrize("shared", [(), *SLOT_SETS], ids=slot_id)
    def test_the_hull_gets_the_kept_pairs_in_row_major_order(self, monkeypatch, k, atom,
                                                             shared):
        # The cloud's rows and their order fix qhull's output bit for bit.
        # Under a perspective both sides have an apex, so apex x apex pairs
        # are among them.  The unshared call gets the inputs of the slot
        # ``(1, 0)``.
        rng = np.random.default_rng(90 + k)
        for kinds in itertools.product(self.KINDS, repeat=3):
            up, down = self.shared_inputs(rng, k - atom, kinds, False, atom, shared or ((1, 0),))
            _, cloud = self.cloud_rows(monkeypatch, up, down, shared)
            expected = self.expected_cloud(up, down, shared)
            assert cloud.shape == expected.shape
            assert cloud.tobytes() == expected.tobytes()

    def test_the_cloud_guard_fires_before_any_pair_work(self, monkeypatch):
        grid = SimplexGrid(3, 2)
        w = from_samples(grid, np.random.default_rng(7).normal(size=len(grid.points)))
        n = w.verts.shape[0] ** 2

        def pair_work(*args):
            raise AssertionError("pair work ran")

        monkeypatch.setattr(dpp, "_slope_boxes", pair_work)
        monkeypatch.setattr(dpp, "_hull_upper", pair_work)
        monkeypatch.setattr(dpp, "PAIR_CLOUD_LIMIT", n - 1)
        with pytest.raises(SizeGuardError, match=rf"^pair cloud of {n} points exceeds {n - 1}$"):
            pair_sup(w, w)
        monkeypatch.setattr(dpp, "PAIR_CLOUD_LIMIT", n)
        with pytest.raises(AssertionError, match="pair work ran"):
            pair_sup(w, w)


class TestSolveMatchesTheAllPairsReference:
    COSTS = (ABS, CostSpec(kind="terminal", name="positive_part"), INDICATOR,
             CostSpec(kind="running_max", name="identity"))

    # At dt = 1 the shifts are dyadic and whole families of nodes share a
    # base; at dt = 0.5 and 0.3 the levels are multiples of sqrt(dt) and fewer do.
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 8), st.integers(2, 4),
           st.booleans(), st.sampled_from(range(4)), st.sampled_from((1.0, 0.5, 0.3)))
    def test_tables_and_root_vertex_count(self, seed, depth, atoms, augment, cost, dt):
        rng = np.random.default_rng(seed)
        cost = self.COSTS[cost]
        spec = LatticeSpec(depth=depth, dt=dt,
                           augment_max=augment or cost.kind == "running_max")
        steps = np.sort(rng.choice(np.arange(1, depth + 1), min(atoms, depth), replace=False))
        mu = random_measure(rng, tuple(float(s) * dt for s in steps))
        table = solve(spec, cost, mu, resolution=6)
        root_fn, functions = reference_solve(spec, cost, mu)
        tables = block_samples(spec, table.steps, stored_functions(table), 6)
        expected = block_samples(spec, table.steps, functions, 6)
        assert tables.keys() == expected.keys()
        for key, vals in expected.items():
            np.testing.assert_allclose(tables[key], vals, rtol=0, atol=1e-12)
        # Off dt = 1 a point on a flat face may pass as a vertex on one side
        # only (the k = 2 chain drops a collinear point by a rounded cross
        # product), so there the rows are matched and not counted.
        assert_same_hull(table.function(0, 0), root_fn)
        if dt == 1.0:
            assert table.function(0, 0).verts.shape == root_fn.verts.shape
        assert table.root_value == pytest.approx(root_fn.evaluate(mu.weights), abs=1e-12)


def exact_inner() -> ConcavePL:
    """``min(0.4 y1 + 1.1 y2, y1 + 0.2 y2)`` on the 2-simplex, kinked at ``y1 = 0.6``."""
    return ConcavePL(
        k=2,
        pieces=np.array([[0.4, 1.1], [1.0, 0.2]]),
        verts=np.array([[1.0, 0.0, 0.4], [0.6, 0.4, 0.68], [0.0, 1.0, 0.2]]),
    )


class TestAtomBoundary:
    def test_all_mass_on_the_atom_skips_the_table(self):
        huge = ConcavePL(k=2, pieces=np.array([[1e9, -1e9], [-1e9, 1e9]]),
                         verts=np.array([[0.5, 0.5, 0.0]]))
        assert perspective(3.25, huge).evaluate([1.0, 0.0, 0.0]) == 3.25

    def test_no_mass_on_the_atom_reads_the_table(self):
        inner = ConcavePL(k=2, pieces=np.array([[2.0, 0.0]]),
                          verts=np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 0.0]]))
        got = perspective(99.0, inner).evaluate([0.0, 0.25, 0.75])
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_even_split_against_zero_table(self):
        cone = perspective(1.0, ConcavePL.constant(0.0))
        assert cone.evaluate([0.5, 0.5]) == pytest.approx(0.5, abs=0)

    def test_matches_perspective_everywhere(self):
        rng = np.random.default_rng(56)
        inner = exact_inner()
        cone = perspective(0.8, inner)
        for y in random_simplex_points(rng, 3, 25):
            y1 = y[0]
            direct = y1 * 0.8 + (1.0 - y1) * inner.evaluate(y[1:] / (1.0 - y1))
            assert cone.evaluate(y) == pytest.approx(direct, abs=1e-12)
        for vert in cone.verts:
            assert cone.evaluate(vert[:3]) == pytest.approx(vert[3], abs=1e-12)

    def test_perspective_apex_value(self):
        inner = ConcavePL.constant(-7.0)
        cone = perspective(2.0, inner)
        assert cone.evaluate([1.0, 0.0]) == pytest.approx(2.0, abs=1e-12)
        assert cone.evaluate([0.0, 1.0]) == pytest.approx(-7.0, abs=1e-12)
        assert cone.evaluate([0.5, 0.5]) == pytest.approx(-2.5, abs=1e-12)


class TestBarrierRules:
    """``solve`` against ``barrier_value`` on costs whose optimum is a barrier's hitting time.

    Each cost's priority order is measured, not derived: on the lattices of
    ``CASES`` with two to four evenly spaced atoms, ``random_measure`` seeds
    0 and 1 and ``dt`` 1 and 0.5, ``solve`` matched these rules to 1.8e-15,
    and the reversed orders missed by 0.27 or more.
    """

    # name -> (cost, augment_max, priority): larger |x| first (Root's
    # barrier) for abs; larger drawdown m - x first for the running maximum,
    # whose E M = E (M - X) is the cost of a reflected walk.
    ORDERS = {
        "abs": (ABS, False, lambda st: abs(st.w)),
        "running_max": (CostSpec(kind="running_max", name="identity"), True,
                        lambda st: st.m - st.w),
    }
    CASES = [("abs", 24, 3), ("abs", 40, 4), ("running_max", 16, 3), ("running_max", 20, 4)]

    def instance(self, name, depth, atoms, dt):
        cost, augment, priority = self.ORDERS[name]
        spec = LatticeSpec(depth=depth, dt=dt, augment_max=augment)
        steps = [round(depth * i / atoms) for i in range(1, atoms + 1)]
        mu = random_measure(np.random.default_rng(depth), tuple(s * dt for s in steps))
        return spec, cost, mu, priority

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("name, depth, atoms", CASES)
    def test_solve_attains_the_barrier_value(self, name, depth, atoms, dt):
        spec, cost, mu, priority = self.instance(name, depth, atoms, dt)
        value = solve(spec, cost, mu, resolution=2).root_value
        assert value == pytest.approx(barrier_value(spec, cost, mu, priority), abs=AGREE_TOL)

    @pytest.mark.parametrize("dt", [1.0, 0.5])
    @pytest.mark.parametrize("name, depth, atoms", CASES)
    def test_the_reversed_order_misses_the_value(self, name, depth, atoms, dt):
        spec, cost, mu, priority = self.instance(name, depth, atoms, dt)
        value = solve(spec, cost, mu, resolution=2).root_value
        assert barrier_value(spec, cost, mu, lambda st: -priority(st)) < value - 0.1


class TestSolve:
    def test_worked_instance_value(self):
        spec, cost, mu = worked_instance()
        for resolution in (2, 50):
            table = solve(spec, cost, mu, resolution=resolution)
            assert table.root_value == pytest.approx(0.5, abs=1e-12)

    def test_martingale_cost_prices_to_zero(self):
        rng = np.random.default_rng(57)
        spec = LatticeSpec(depth=4, dt=0.25)
        for _ in range(5):
            mu = random_measure(rng, (0.25, 0.75, 1.0))
            table = solve(spec, IDENTITY, mu, resolution=3)
            assert table.root_value == pytest.approx(0.0, abs=1e-12)

    def test_square_cost_prices_to_mean_time(self):
        rng = np.random.default_rng(58)
        spec = LatticeSpec(depth=4, dt=0.25)
        for resolution in (1, 37):
            mu = random_measure(rng, (0.5, 0.75, 1.0))
            table = solve(spec, SQUARE, mu, resolution=resolution)
            assert table.root_value == pytest.approx(mean(mu), abs=1e-12)

    def test_depth_40_root_value(self):
        # The benchmark's recombining depth-40 instance with atoms at 10, 20,
        # 30 and 40 and its seed-1 weights; the value solved with the
        # all-pairs cloud.
        mu = measure_from_json([
            {"t": 10.0, "w": 0.3266544690657706}, {"t": 20.0, "w": 0.21765980504932836},
            {"t": 30.0, "w": 0.17245760322207904}, {"t": 40.0, "w": 0.28322812266282205},
        ])
        table = solve(LatticeSpec(depth=40, dt=1.0), ABS, mu, resolution=10)
        assert table.root_value == pytest.approx(4.477089540248194, rel=0, abs=1e-12)

    @pytest.mark.parametrize("e", [12, 13, 15, 18, 30, 100, 300])
    def test_the_value_scale_does_not_matter(self, e):
        # polynomial [0, 1, 10^e] prices every rule at 10^e E[tau] = 4.2e{e}.
        # On the raw clouds qhull failed from e = 12 on (QH6154, or no upper
        # facet); scaled by a power of two they are one hull.
        spec = LatticeSpec(depth=6, dt=1.0, augment_max=True)
        mu = DiscreteMeasure((2.0, 4.0, 6.0), (0.3, 0.3, 0.4))
        cost = CostSpec(kind="terminal", name="polynomial",
                        params={"coeffs": [0.0, 1.0, float(f"1e{e}")]})
        exact = solve_lp(build_lp(spec, cost, mu), exact=True).value
        value = solve(spec, cost, mu, resolution=20).root_value
        assert abs(value - exact) <= 2 * np.spacing(exact)

    def test_root_value_ignores_resolution(self):
        rng = np.random.default_rng(59)
        spec = LatticeSpec(depth=3, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        coarse = solve(spec, ABS, mu, resolution=2)
        fine = solve(spec, ABS, mu, resolution=40)
        assert fine.root_value == pytest.approx(coarse.root_value, abs=1e-15)
        assert fine.root_value >= coarse.root_value - 1e-12

    def test_renormalization_identity_holds(self):
        rng = np.random.default_rng(60)
        spec = LatticeSpec(depth=3, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        table = solve(spec, ABS, mu, resolution=7)
        check_scaling(table, ABS)
        assert table.root_value >= 0.0

    def test_scaling_check_catches_a_corrupted_table_entry(self):
        rng = np.random.default_rng(60)
        spec = LatticeSpec(depth=3, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        table = solve(spec, ABS, mu, resolution=7)
        check_scaling(table, ABS)
        # Lower the stop coefficient of every piece of one 3-block function:
        # its values move by 1e-9 y1, its continuation pieces do not.
        s = table.steps[0]
        f = table.bases[s][0]
        bases = list(table.bases)
        bases[s] = (dataclasses.replace(f, pieces=f.pieces - [1e-9, 0.0, 0.0]), *bases[s][1:])
        with pytest.raises(AssertionError, match="renormalization identity off by"):
            check_scaling(dataclasses.replace(table, bases=tuple(bases)), ABS)

    # Recorded before the grid layer was rebuilt on arrays; any change to the
    # order of the grid points, the sampling or the slack shows here.
    @pytest.mark.parametrize("spec, cost, mu, resolution, slack", [
        (LatticeSpec(depth=2, dt=1.0), INDICATOR, DiscreteMeasure((1.0, 2.0), (0.5, 0.5)), 40,
         0.012500000000000178),
        (LatticeSpec(depth=4, dt=1.0, augment_max=True),
         CostSpec(kind="running_max", name="identity"),
         DiscreteMeasure((1.0, 3.0, 4.0), (0.25, 0.25, 0.5)), 200,
         0.006250000000000311),
    ])
    def test_golden_slack(self, spec, cost, mu, resolution, slack):
        assert solve(spec, cost, mu, resolution=resolution).slack == slack

    def test_terminal_atom_tables_match_the_cost(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=4)
        tables = block_samples(spec, table.steps, stored_functions(table), table.resolution)
        for node in nodes_at_step(spec, 2):
            vals = tables[(1, 2, node)]
            assert vals.shape == (1,)
            assert vals[0] == stop_cost(cost, spec, node)

    def test_tables_are_midpoint_concave(self):
        rng = np.random.default_rng(61)
        spec = LatticeSpec(depth=3, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        table = solve(spec, INDICATOR, mu, resolution=6)
        for (k, _, _), vals in block_samples(spec, table.steps, stored_functions(table),
                                             table.resolution).items():
            if k < 2:
                continue
            grid = SimplexGrid(k, table.resolution)
            rows = grid_rows(grid)
            for _ in range(20):
                i, j = rng.integers(0, len(grid.points), size=2)
                doubled = grid.points[i] + grid.points[j]
                if (doubled % 2).any():
                    continue
                m = rows.get(tuple((doubled // 2).tolist()))
                if m is None:
                    continue
                assert vals[m] >= 0.5 * (vals[i] + vals[j]) - 1e-12

    def test_history_and_recombining_agree(self):
        rng = np.random.default_rng(62)
        mu = random_measure(rng, (1.0, 3.0))
        flat = solve(LatticeSpec(depth=3, dt=1.0), ABS, mu, resolution=5)
        full = solve(LatticeSpec(depth=3, dt=1.0, mode="history"), ABS, mu, resolution=5)
        assert full.root_value == pytest.approx(flat.root_value, abs=1e-12)

    def test_slack_floor_for_constant_tables(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        table = solve(spec, CostSpec(kind="time", name="indicator",
                                     params={"threshold": 0.0}), mu, resolution=5)
        assert table.slack == 1e-9

    def test_agrees_with_exhaustive_optimum_on_the_worked_instance(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=10)
        assert table.root_value == pytest.approx(strong_value(spec, cost, mu), abs=1e-12)
        assert table.root_value == pytest.approx(oracle_value(spec, cost, mu), abs=1e-12)

    # ``solve`` builds no grid, so its root value takes any resolution; the
    # grid guard meets an API caller when ``slack`` is read.
    def test_bad_resolution(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=0)
        with pytest.raises(ConfigError, match="resolution must be a positive int"):
            table.slack

    def test_slack_refuses_a_grid_past_the_limit(self):
        mu = DiscreteMeasure((1.0, 2.0, 3.0), (0.2, 0.3, 0.5))
        table = solve(LatticeSpec(depth=3, dt=1.0), SQUARE, mu, resolution=2000)
        assert table.root_value == pytest.approx(mean(mu), abs=1e-12)
        with pytest.raises(SizeGuardError, match="simplex grid would hold 2003001 points"):
            table.slack

    @pytest.mark.parametrize("last, refused", [(3.0, False), (4.0, True)])
    def test_lattice_size_guard_counts_nodes_up_to_the_last_atom(self, monkeypatch, last, refused):
        # Steps 0..3 of a recombining lattice hold 1 + 2 + 3 + 4 = 10 nodes.
        monkeypatch.setattr(dpp, "LATTICE_NODE_LIMIT", 10)
        mu = DiscreteMeasure((1.0, last), (0.5, 0.5))
        if refused:
            with pytest.raises(SizeGuardError, match="more than 10 nodes up to step 4"):
                solve(LatticeSpec(depth=10, dt=1.0), ABS, mu, resolution=4)
        else:
            assert solve(LatticeSpec(depth=10, dt=1.0), ABS, mu, resolution=4).steps == (1, 3)


def recorded_bases(monkeypatch) -> dict:
    """Each step's ``(bases, shifts)`` as ``solve`` reads them from ``dpp._bases``.

    Keyed by step; each entry also lists the ``pair_sup`` calls that step's
    updates made, as the ``(up, down, shared)`` arguments, filled once the
    step is read.
    """
    seen, calls = {}, []
    bases, original = dpp._bases, dpp.pair_sup

    def recording_pair_sup(up, down, shared=(), boxes=None):
        calls.append((up, down, shared))
        return original(up, down, shared, boxes)

    def recording(*args):
        done = 0
        for s, b, t in bases(*args):
            seen[s] = (b, t, calls[done:])
            done = len(calls)
            yield s, b, t

    monkeypatch.setattr(dpp, "pair_sup", recording_pair_sup)
    monkeypatch.setattr(dpp, "_bases", recording)
    return seen


def expected_shifts(spec, cost, steps) -> dict:
    """Each step's shifts by the definition: the horizon's stop costs, then children's means."""
    horizon = steps[-1]
    shifts = {horizon: dpp._stop_values(spec, cost, horizon, steps).tolist()}
    for s in range(horizon - 1, -1, -1):
        shifts[s] = [0.5 * (shifts[s + 1][up] + shifts[s + 1][down])
                     for down, up in child_positions(spec, s).tolist()]
    return shifts


def relative_stops(spec, cost, steps, s, shifts) -> list:
    """The bits of each position's stop value minus its shift; None off the atom steps."""
    stops = dpp._stop_values(spec, cost, s, steps)
    if stops is None:
        return [None] * len(shifts)
    return [(v - t).hex() for v, t in zip(stops.tolist(), shifts)]


class TestSharedGrandchildFlag:
    """``solve`` passes ``shared`` to ``pair_sup`` exactly where the children share a grandchild."""

    # Away from the horizon, children on a recombining lattice always share
    # the grandchild between them, the slot (1, 0).  On a max-augmented
    # lattice they do under a terminal cost, whose stored functions do not
    # depend on the maximum, and only sometimes under a running-max cost.
    # There, at a node on its running maximum (m == w) both children's up
    # children have drawdown 0, and under the identity they hold one base:
    # the slot (0, 0).  Under the square, whose functions depend on the
    # maximum itself, no two of its grandchildren hold one base: the flag is
    # (), and ``pair_sup`` takes its unshared path.  ``on_max`` lists the flags
    # of such nodes two steps or more below the horizon, where all four
    # grandchildren are one zero.
    @pytest.mark.parametrize("spec, cost, atoms, inner, on_max", [
        (LatticeSpec(depth=10, dt=1.0), ABS, (3.0, 6.0, 8.0, 10.0), {True}, set()),
        (LatticeSpec(depth=10, dt=1.0, augment_max=True), CostSpec(kind="running_max", name="identity"),
         (3.0, 7.0, 10.0), {True, False}, {((0, 0),), ALL_SLOTS}),
        (LatticeSpec(depth=9, dt=1.0, augment_max=True), INDICATOR, (2.0, 5.0, 9.0), {True},
         {((1, 0),), ALL_SLOTS}),
        (LatticeSpec(depth=12, dt=1.0, augment_max=True), CostSpec(kind="running_max", name="square"),
         (3.0, 6.0, 9.0, 12.0), {True, False}, {(), ALL_SLOTS}),
    ], ids=["recombining-abs", "max-running_max", "max-indicator", "max-running_max-square"])
    def test_flags_match_the_definition(self, monkeypatch, spec, cost, atoms, inner, on_max):
        seen = recorded_bases(monkeypatch)
        table = solve(spec, cost, random_measure(np.random.default_rng(62), atoms), resolution=4)
        horizon, shifts = table.steps[-1], expected_shifts(spec, cost, table.steps)
        bases = {s: b for s, (b, _, _) in seen.items()}
        calls = [(id(u.verts), id(d.verts), shared)
                 for s in range(horizon) for u, d, shared in seen[s][2]]
        # One call per key (up child's base array, down child's, bits of the
        # stop value less the shift) whose swap does not come earlier in its
        # step, flagged on each slot (a, b) where the up child's input a and
        # the down child's input b (0 up, 1 down) are one base array.
        want, max_flags = [], set()
        for s in range(horizon):
            assert seen[s][1].tolist() == shifts[s]
            below = child_positions(spec, s + 1) if s + 1 < horizon else None
            first = {}
            for p, ((down, up), bits) in enumerate(zip(
                    child_positions(spec, s).tolist(),
                    relative_stops(spec, cost, table.steps, s, shifts[s]))):
                key = (id(bases[s + 1][up].verts), id(bases[s + 1][down].verts), bits)
                flag = () if below is None else tuple(
                    (a, b) for a in (0, 1) for b in (0, 1)
                    if bases[s + 2][below[up, 1 - a]].verts is bases[s + 2][below[down, 1 - b]].verts)
                first.setdefault(key, (p, flag))
                node = nodes_at_step(spec, s)[p]
                if below is not None and node.max_level == node.level:
                    max_flags.add(first[key][1])
            for (u, d, bits), (p, flag) in first.items():
                if first.get((d, u, bits), (p,))[0] >= p:
                    want.append((u, d, flag))
        assert Counter(calls) == Counter(want)
        # Next to the horizon nothing is flagged; every horizon base is one zero.
        last = {id(f.verts) for f in bases[horizon]}
        assert len(last) == 1 and bases[horizon][0].verts.tolist() == [[1.0, 0.0]]
        assert {shared for up, _, shared in calls if up in last} == {()}
        assert {(1, 0) in shared for up, _, shared in calls if up not in last} == inner
        assert max_flags == on_max


class TestMirrors:
    """A node whose children hold another node's two bases in swapped order gets its mirror."""

    CASES = [
        (LatticeSpec(depth=12, dt=1.0), ABS, (3.0, 6.0, 9.0, 12.0)),
        (LatticeSpec(depth=12, dt=1.0), SQUARE, (4.0, 8.0, 12.0)),
        (LatticeSpec(depth=10, dt=1.0, augment_max=True), ABS, (3.0, 6.0, 10.0)),
    ]
    IDS = ["recombining-abs", "recombining-square", "max-abs"]
    # Under square every node of a step holds one base, so none is a mirror.
    MIRRORED = [(*case, mirrored) for case, mirrored in zip(CASES, (True, False, True))]

    @staticmethod
    def distinct_bases(spec, seen, horizon):
        """Each distinct base below the horizon, with its children's bases and its step."""
        out = {}
        for s in range(horizon):
            for f, (down, up) in zip(seen[s][0], child_positions(spec, s).tolist()):
                out.setdefault(id(f), (s, f, seen[s + 1][0][up], seen[s + 1][0][down]))
        return list(out.values())

    @pytest.mark.parametrize("spec, cost, atoms, mirrored",
                             MIRRORED, ids=IDS)
    def test_every_stored_function_is_its_own_inputs_pair_sup(self, monkeypatch, spec, cost,
                                                             atoms, mirrored):
        seen = recorded_bases(monkeypatch)
        table = solve(spec, cost, random_measure(np.random.default_rng(71), atoms), resolution=4)
        mirrors = 0
        for s, f, up, down in self.distinct_bases(spec, seen, table.steps[-1]):
            cont = dpp._continuation(f, s in table.steps)
            k = cont.k
            np.testing.assert_array_equal(
                cont.verts, 0.5 * (up.verts[cont.src[:, 0]] + down.verts[cont.src[:, 1]]))
            grid = SimplexGrid(k, 12).fractions
            np.testing.assert_allclose(cont.evaluate_batch(grid),
                                       pair_sup(up, down).evaluate_batch(grid), rtol=0, atol=1e-12)
            mirrors += any(g.verts is f.verts and g is not f for g in seen[s][0])
        assert bool(mirrors) == mirrored

    @pytest.mark.parametrize("spec, cost, atoms, mirrored",
                             MIRRORED, ids=IDS)
    def test_pair_sup_runs_once_per_unordered_key(self, monkeypatch, spec, cost, atoms,
                                                  mirrored):
        seen = recorded_bases(monkeypatch)
        table = solve(spec, cost, random_measure(np.random.default_rng(72), atoms), resolution=4)
        ordered, unordered = set(), set()
        for s in range(table.steps[-1]):
            bits = relative_stops(spec, cost, table.steps, s, seen[s][1].tolist())
            for p, (down, up) in enumerate(child_positions(spec, s).tolist()):
                u, d = (id(seen[s + 1][0][q].verts) for q in (up, down))
                ordered.add((s, u, d, bits[p]))
                unordered.add((s, min(u, d), max(u, d), bits[p]))
        calls = sum(len(c) for _, _, c in seen.values())
        assert calls == len(unordered)
        assert (len(unordered) < len(ordered)) == mirrored

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("spec, cost, atoms", CASES, ids=IDS)
    def test_solved_tables_hold_no_boxes(self, monkeypatch, spec, cost, atoms, workers):
        # Only step s's updates read step s + 1's boxes, so none outlives the
        # induction: the solved table refers to no box array.
        alive = []

        def spy(f):
            boxes = slope_boxes(f)
            alive.extend(weakref.ref(a) for a in boxes)
            return boxes

        slope_boxes = dpp._slope_boxes
        monkeypatch.setattr(dpp, "_slope_boxes", spy)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: workers)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", 0)
        table = solve(spec, cost, random_measure(np.random.default_rng(73), atoms), resolution=4)
        gc.collect()
        assert alive and table.bases
        assert not [ref for ref in alive if ref() is not None]


class TestShiftedBases:
    """``solve`` carries a position as a base plus a shift, and stores their sum."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(2, 4),
           st.sampled_from(TestPrunedPairCloud.KINDS), st.sampled_from(TestPrunedPairCloud.KINDS),
           st.booleans())
    def test_pair_sup_moves_with_its_inputs(self, seed, k, kind_up, kind_down, levels):
        # The vertex rows move by (a + b) / 2 to 1e-12.  The pieces are
        # qhull's hyperplanes of another cloud, and on thin facets they miss
        # their own vertices: over 6,000 draws the grid values moved by up to
        # 3.1e-11 where the vertex rows agreed to 3.3e-16.  So the grid
        # values are held to the bar for two routes to one value.
        rng = np.random.default_rng(seed)
        up, down = random_concave(rng, k, kind_up, levels), random_concave(rng, k, kind_down, levels)
        a, b = (float(x) for x in rng.normal(scale=4.0, size=2))
        plain = pair_sup(up, down)
        moved = dpp._shifted(pair_sup(dpp._shifted(up, a), dpp._shifted(down, b)), -(a + b) / 2)
        assert_same_vertex_rows(moved, plain, 1e-12)
        grid = SimplexGrid(k, 12).fractions
        np.testing.assert_allclose(moved.evaluate_batch(grid), plain.evaluate_batch(grid),
                                   rtol=0, atol=AGREE_TOL)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4),
           st.sampled_from(TestPrunedPairCloud.KINDS), st.booleans())
    def test_perspective_moves_with_its_inner_function(self, seed, k, kind, levels):
        rng = np.random.default_rng(seed)
        f = random_concave(rng, k, kind, levels)
        v, c = (float(x) for x in rng.normal(scale=4.0, size=2))
        grid = SimplexGrid(k + 1, 12).fractions
        np.testing.assert_allclose(perspective(v, dpp._shifted(f, c)).evaluate_batch(grid),
                                   perspective(v - c, f).evaluate_batch(grid) + c,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("spec, cost, atoms", [
        *TestMirrors.CASES,
        (LatticeSpec(depth=12, dt=0.3), ABS, (0.9, 2.1, 3.6)),
        (LatticeSpec(depth=10, dt=0.5, augment_max=True), CostSpec(kind="running_max", name="identity"),
         (1.5, 3.5, 5.0)),
    ], ids=[*TestMirrors.IDS, "recombining-abs-dt0.3", "max-running_max-dt0.5"])
    def test_each_stored_function_is_its_base_plus_its_shift(self, monkeypatch, spec, cost,
                                                             atoms):
        # The table keeps the bases and shifts the induction yields, and a
        # node's function keeps its base's src, so a mirror's rows name its
        # own children's vertices.
        seen = recorded_bases(monkeypatch)
        table = solve(spec, cost, random_measure(np.random.default_rng(74), atoms), resolution=4)
        functions = [[table.function(s, p) for p in range(len(bs))]
                     for s, bs in enumerate(table.bases)]
        for s, fs in enumerate(functions):
            bases, shifts, _ = seen[s]
            assert table.bases[s] is bases and table.shifts[s] is shifts
            assert shifts.tolist() == expected_shifts(spec, cost, table.steps)[s]
            for f, base, shift in zip(fs, bases, shifts.tolist()):
                assert f.src is base.src
                assert f.pieces.tobytes() == (base.pieces + shift).tobytes()
                assert f.verts[:, :-1].tobytes() == base.verts[:, :-1].tobytes()
                assert f.verts[:, -1].tobytes() == (base.verts[:, -1] + shift).tobytes()
            if s < table.steps[-1]:
                nxt = functions[s + 1]
                for f, (down, up) in zip(fs, child_positions(spec, s).tolist()):
                    cont = dpp._continuation(f, s in table.steps)
                    mid = 0.5 * (nxt[up].verts[cont.src[:, 0]] + nxt[down].verts[cont.src[:, 1]])
                    np.testing.assert_array_equal(cont.verts[:, :-1], mid[:, :-1])
                    np.testing.assert_allclose(cont.verts[:, -1], mid[:, -1], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cost, value", [(IDENTITY, lambda mu: 0.0), (SQUARE, mean)],
                             ids=["identity", "square"])
    def test_affine_anchors_run_one_update_per_step(self, monkeypatch, cost, value):
        # Under the identity or square cost on a recombining lattice at
        # dt = 1, every node's shift is its own stop cost plus one constant
        # per step, so every node of a step holds one base.
        seen = recorded_bases(monkeypatch)
        mu = random_measure(np.random.default_rng(75), (6.0, 12.0, 18.0, 24.0))
        table = solve(LatticeSpec(depth=24, dt=1.0), cost, mu, resolution=4)
        for s, (bases, _, calls) in seen.items():
            assert len({id(b) for b in bases}) == 1
            assert len([up for up, _, _ in calls if up.k >= 2]) <= 1
        assert table.root_value == pytest.approx(value(mu), abs=1e-12)

    def test_a_shift_past_the_floats_is_refused(self):
        huge = CostSpec(kind="terminal", name="polynomial", params={"coeffs": [1e308, 1e307]})
        mu = DiscreteMeasure((2.0, 4.0), (0.5, 0.5))
        with pytest.raises(ConfigError, match="^cost: a sum of stop costs is not a finite float$"):
            solve(LatticeSpec(depth=4, dt=1.0), huge, mu, resolution=4)
        with pytest.raises(ConfigError, match="^cost: a sum of stop costs is not a finite float$"):
            dpp._shifted(ConcavePL.constant(1e308), 1e308)


class TestParallelSteps:
    """``solve`` runs large steps on a thread pool; results must be the serial ones."""

    @staticmethod
    def pool_counter(monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return ThreadPoolExecutor(*args, **kwargs)

        monkeypatch.setattr(dpp, "ThreadPoolExecutor", counting)
        return built

    # Eight workers is more threads than cores; the short switch interval
    # makes the threads interleave often.
    @pytest.mark.parametrize("workers", [2, 8])
    @pytest.mark.parametrize("spec, cost, mu", [
        (LatticeSpec(depth=24, dt=1.0), ABS,
         random_measure(np.random.default_rng(61), (6.0, 12.0, 18.0, 24.0))),
        (LatticeSpec(depth=12, dt=1.0, augment_max=True), CostSpec(kind="running_max", name="identity"),
         random_measure(np.random.default_rng(61), (4.0, 8.0, 12.0))),
        (LatticeSpec(depth=16, dt=1.0), SQUARE,
         random_measure(np.random.default_rng(61), (4.0, 8.0, 12.0, 16.0))),
        # test_cli.py's ``EDGE_CONFIGS["policy16"]``: the shallowest
        # four-atom law tree whose solve runs pooled steps.
        (LatticeSpec(depth=16, dt=1.0, augment_max=True), INDICATOR,
         DiscreteMeasure((4.0, 8.0, 12.0, 16.0), (0.1, 0.3, 0.2, 0.4))),
    ], ids=["abs24", "running_max12", "square16", "indicator_max16"])
    def test_pooled_steps_match_the_serial_pass(self, monkeypatch, spec, cost, mu, workers):
        monkeypatch.setattr(dpp, "_cpu_count", lambda: 1)
        serial = solve(spec, cost, mu, resolution=10)
        built = self.pool_counter(monkeypatch)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: workers)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", 0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = solve(spec, cost, mu, resolution=10)
        finally:
            sys.setswitchinterval(interval)
        assert built == [(workers,)]
        assert [len(fs) for fs in pooled.bases] == [len(fs) for fs in serial.bases]
        for s, (fs, gs) in enumerate(zip(serial.bases, pooled.bases)):
            assert pooled.shifts[s].tobytes() == serial.shifts[s].tobytes(), s
            for p, (f, g) in enumerate(zip(fs, gs)):
                assert g.pieces.tobytes() == f.pieces.tobytes(), (s, p)
                assert g.verts.tobytes() == f.verts.tobytes(), (s, p)
                # ``src`` drives the shared-grandchild mask and ``extract_policy``.
                assert (g.src is None) == (f.src is None), (s, p)
                assert f.src is None or g.src.tobytes() == f.src.tobytes(), (s, p)
        # Positions share one vertex array, as twin and mirror, alike.
        for fs, gs in zip(serial.bases, pooled.bases):
            assert ([[q for q, h in enumerate(fs) if h.verts is f.verts] for f in fs]
                    == [[q for q, h in enumerate(gs) if h.verts is g.verts] for g in gs])
        assert pooled.root_value == serial.root_value
        assert pooled.slack == serial.slack
        # A policy reads each visited node's function and its up child's base.
        if pooled.steps[-1] <= TREE_DEPTH_LIMIT:
            assert (extract_policy(pooled).vectors.tobytes()
                    == extract_policy(serial).vectors.tobytes())

    # Atoms at 3 and 6 under the cube cost: each node at step 3 has the shift
    # x^3 + 9x, so its stop value less its shift, -9x, names the node, and
    # each holds its own update.
    FAILING = (LatticeSpec(depth=6, dt=1.0),
               CostSpec(kind="terminal", name="polynomial", params={"coeffs": [0, 0, 0, 1]}),
               DiscreteMeasure((3.0, 6.0), (0.5, 0.5)))

    @staticmethod
    def fail_positions_1_and_3(monkeypatch):
        """Make position 1 (x = -1) of ``FAILING``'s step 3 fail late and position 3 (x = 3) early."""
        original = dpp.perspective

        def failing(stop_value, inner):
            if stop_value == 9.0:
                time.sleep(0.05)
                raise SizeGuardError("position 1")
            if stop_value == -27.0:
                raise SizeGuardError("position 3")
            return original(stop_value, inner)

        monkeypatch.setattr(dpp, "perspective", failing)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_lowest_failing_node_raises(self, monkeypatch, workers):
        # The error must be position 1's, as in the serial loop.
        self.fail_positions_1_and_3(monkeypatch)
        built = self.pool_counter(monkeypatch)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: workers)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", 0)
        with pytest.raises(SizeGuardError, match="^position 1$"):
            solve(*self.FAILING, resolution=4)
        assert len(built) == (workers > 1)

    @pytest.mark.parametrize("fails", [False, True], ids=["solved", "raised"])
    def test_the_pool_threads_are_gone_when_solve_returns(self, monkeypatch, fails):
        if fails:
            self.fail_positions_1_and_3(monkeypatch)
        built = self.pool_counter(monkeypatch)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: 2)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", 0)
        before = set(threading.enumerate())
        if fails:
            with pytest.raises(SizeGuardError, match="^position 1$"):
                solve(*self.FAILING, resolution=4)
        else:
            solve(*self.FAILING, resolution=4)
        assert built == [(2,)]
        assert [t.name for t in threading.enumerate() if t not in before] == []

    @pytest.mark.parametrize("workers, cutoff", [(1, 0), (2, 10 ** 9)])
    def test_no_pool_on_one_cpu_or_below_the_cutoff(self, monkeypatch, workers, cutoff):
        built = self.pool_counter(monkeypatch)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: workers)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", cutoff)
        mu = random_measure(np.random.default_rng(62), (4.0, 8.0, 12.0))
        solve(LatticeSpec(depth=12, dt=1.0), ABS, mu, resolution=4)
        assert built == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_slope_boxes_are_built_once_per_stored_function(self, monkeypatch, workers):
        # Each base's vertex array is the up input of one update and the down
        # input of another; its boxes are built once, before the step above
        # runs, and each update with k > 2 is handed its inputs' boxes.
        built, given = [], []

        def spy(f):
            boxes = slope_boxes(f)
            built.append((id(f.verts), boxes))
            return boxes

        def handed(up, down, shared=(), boxes=None):
            given.append((up, down, boxes))
            return recording(up, down, shared, boxes)

        slope_boxes = dpp._slope_boxes
        monkeypatch.setattr(dpp, "_slope_boxes", spy)
        monkeypatch.setattr(dpp, "_cpu_count", lambda: workers)
        monkeypatch.setattr(dpp, "POOL_PAIR_CUTOFF", 0)
        seen = recorded_bases(monkeypatch)
        recording = dpp.pair_sup
        monkeypatch.setattr(dpp, "pair_sup", handed)
        mu = random_measure(np.random.default_rng(63), (3.0, 6.0, 9.0, 12.0))
        solve(LatticeSpec(depth=12, dt=1.0), ABS, mu, resolution=4)
        boxes = dict(built)
        assert built and len(boxes) == len(built)
        # Every vertex array with k > 2 that a later update reads: all but the root's step.
        assert boxes.keys() == {id(f.verts) for s, (bs, _, _) in seen.items() if s > 0
                                for f in bs if f.k > 2}
        # The boxes each input was handed, a mirror's included, are its own.
        assert given
        for up, down, got in given:
            if up.k <= 2:
                assert got is None
                continue
            for f, (lo, hi) in zip((up, down), got):
                fresh_lo, fresh_hi = slope_boxes(f)
                assert lo.tobytes() == fresh_lo.tobytes() and hi.tobytes() == fresh_hi.tobytes()

    def test_cpu_count_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(dpp.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dpp.os, "cpu_count", lambda: 8)
        assert dpp._cpu_count() == 1

    @pytest.mark.parametrize("count, workers", [(3, 3), (None, 1)])
    def test_cpu_count_without_an_affinity_mask(self, monkeypatch, count, workers):
        monkeypatch.delattr(dpp.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(dpp.os, "cpu_count", lambda: count)
        assert dpp._cpu_count() == workers


THETAS = {
    "first_step": lambda spec, node: node.step >= 1,
    "hit_or_cap": lambda spec, node: (
        (node.level is not None and node.level >= 1) or node.step >= 2
    ),
    "above_start": lambda spec, node: state(spec, node).w > 0.0,
    "past_horizon": lambda spec, node: node.step >= 99,
}


class TestCheckDpp:
    def test_worked_instance_residuals(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=4)
        for theta in THETAS.values():
            assert check_dpp(table, cost, theta) <= AGREE_TOL

    def test_builds_no_grid(self, monkeypatch):
        def grid(*args, **kwargs):
            raise AssertionError("a simplex grid was built")

        monkeypatch.setattr(dpp, "SimplexGrid", grid)
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=40)
        for theta in THETAS.values():
            assert check_dpp(table, cost, theta) <= AGREE_TOL

    def test_degenerate_frontier_recomputes_exactly(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=4)
        assert check_dpp(table, cost, THETAS["past_horizon"]) <= 1e-12

    def test_random_instance_residuals(self):
        rng = np.random.default_rng(63)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = random_measure(rng, (0.5, 0.75, 1.0))
        table = solve(spec, ABS, mu, resolution=5)
        for theta in THETAS.values():
            assert check_dpp(table, ABS, theta) <= AGREE_TOL


REFERENCE_LATTICES = [
    (LatticeSpec(depth=5, dt=1.0), ABS),
    (LatticeSpec(depth=5, dt=1.0, augment_max=True), CostSpec(kind="running_max", name="identity")),
    (LatticeSpec(depth=5, dt=1.0, mode="history"), INDICATOR),
]


class TestPositionLoopsMatchTheRecursions:
    """``check_dpp`` and ``strong_value`` on recombining, max-augmented and history lattices."""

    @pytest.mark.parametrize("spec, cost", REFERENCE_LATTICES)
    @pytest.mark.parametrize("theta", list(THETAS), ids=list(THETAS))
    def test_check_dpp_residual_and_pair_sup_calls(self, monkeypatch, spec, cost, theta):
        mu = random_measure(np.random.default_rng(67), (2.0, 3.0, 5.0))
        table = solve(spec, cost, mu, resolution=6)
        calls = []
        original = dpp.pair_sup

        def counting(up, down, *args):
            calls.append(1)
            return original(up, down, *args)

        monkeypatch.setattr(dpp, "pair_sup", counting)
        assert check_dpp(table, cost, THETAS[theta]) <= AGREE_TOL
        assert calls

    @pytest.mark.parametrize("spec, cost", REFERENCE_LATTICES)
    @pytest.mark.parametrize("atoms, weights", [
        ((2.0, 5.0), (0.25, 0.75)),
        ((1.0, 3.0, 5.0), (0.5, 0.25, 0.25)),
        ((1.0, 3.0, 5.0), (0.125, 0.25, 0.625)),  # no pure rule stops 1/8 at step 1
        ((2.0, 5.0), (1 / 3, 2 / 3)),  # not in units of 2**-5
    ])
    def test_strong_value(self, spec, cost, atoms, weights):
        mu = DiscreteMeasure(atoms, weights)
        got = strong_value(spec, cost, mu)
        if weights[0] in (0.125, 1 / 3):
            assert got == float("-inf")
        else:
            assert got == pytest.approx(brute_pure_value(spec, cost, mu), abs=1e-12)


def reference_extract_policy(table, states=None):
    """``extract_policy`` as a loop over histories, one facet split per history.

    ``states``, when given, gathers ``(step, position, law bytes)`` of each
    split in call order.
    """
    spec, steps = table.spec, table.steps
    horizon = steps[-1]
    vectors = np.empty((2 ** (horizon + 1) - 1, len(steps)))
    vectors[0] = table.mu.weights
    at = np.zeros(1, dtype=np.intp)
    for s in range(horizon):
        live = [j for j, step in enumerate(steps) if step > s]
        child = child_positions(spec, s)
        for h, pos in enumerate(at.tolist(), start=2 ** s - 1):
            vec = vectors[h]
            vectors[2 * h + 1] = vectors[2 * h + 2] = vec
            mass = float(vec[live].sum())
            if mass > 1e-14:
                y = vec[live] / mass
                if states is not None:
                    states.append((s, pos, y.tobytes()))
                cont = dpp._continuation(table.function(s, pos), s in steps)
                p = dpp._facet_split(cont, table.function(s + 1, child[pos, 1]), y)
                vectors[2 * h + 2, live] = mass * p
                vectors[2 * h + 1, live] = 2.0 * vec[live] - vectors[2 * h + 2, live]
        at = child[at].ravel()
    return vectors


POLICY_COSTS = (ABS, INDICATOR, CostSpec(kind="running_max", name="identity"), IDENTITY, SQUARE)


def policy_instance(depth, mode):
    """A seeded instance at ``depth``: 1-4 atoms, the last at ``depth``, sometimes a zero weight."""
    rng = np.random.default_rng(100 * depth + len(mode))
    spec = LatticeSpec(depth=depth, dt=1.0, augment_max=mode == "max",
                       mode="history" if mode == "history" else "recombining")
    cost = POLICY_COSTS[(depth + len(mode)) % len(POLICY_COSTS)]
    if mode == "recombining" and cost.kind == "running_max":
        cost = SQUARE
    k = int(rng.integers(1, min(4, depth) + 1))
    steps = sorted(rng.choice(np.arange(1, depth), size=k - 1, replace=False).tolist()) + [depth]
    weights = rng.dirichlet(np.ones(k))
    if k > 1 and depth % 3 == 0:
        weights[rng.integers(0, k - 1)] = 0.0
    return spec, cost, DiscreteMeasure(steps, weights / weights.sum())


class TestExtractPolicy:
    @pytest.mark.parametrize("mode", ["recombining", "max", "history"])
    @pytest.mark.parametrize("depth", range(1, 13))
    def test_matches_the_per_history_loop_bit_for_bit(self, depth, mode):
        spec, cost, mu = policy_instance(depth, mode)
        table = solve(spec, cost, mu, resolution=5)
        assert extract_policy(table).vectors.tobytes() == reference_extract_policy(table).tobytes()

    def test_a_failed_split_raises_where_the_loop_does(self, monkeypatch):
        table = solve(*policy_instance(9, "max"), resolution=5)
        states = []
        reference_extract_policy(table, states)
        # Fail at every law first split halfway through the loop or later, so
        # the first failure also tells the order of the splits.
        half = len(states) // 2
        bad = ({(2.0 * np.frombuffer(y)).tobytes() for _, _, y in states[half:]}
               - {(2.0 * np.frombuffer(y)).tobytes() for _, _, y in states[:half]})
        original = dpp.nnls

        def failing(a, b):
            lam, rnorm = original(a, b)
            return (lam, 1.0) if b[:-1].tobytes() in bad else (lam, rnorm)

        monkeypatch.setattr(dpp, "nnls", failing)
        with pytest.raises(NumericalError) as want:
            reference_extract_policy(table)
        with pytest.raises(NumericalError) as got:
            extract_policy(table)
        assert str(got.value) == str(want.value)

    def test_one_facet_split_per_state(self, monkeypatch):
        table = solve(*policy_instance(10, "max"), resolution=5)
        states = []
        reference_extract_policy(table, states)
        calls = []
        original = dpp._facet_split

        def counting(w, up, y):
            calls.append(1)
            return original(w, up, y)

        monkeypatch.setattr(dpp, "_facet_split", counting)
        extract_policy(table)
        assert len(calls) == len(set(states)) < len(states)

    def test_worked_instance_structure(self):
        spec, cost, mu = worked_instance()
        tree = extract_policy(solve(spec, cost, mu, resolution=3))
        assert tree.vectors[heap_row(())] == pytest.approx((0.5, 0.5), abs=1e-12)
        assert tree.vectors[heap_row((1,))] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert tree.vectors[heap_row((0,))] == pytest.approx((0.0, 1.0), abs=1e-12)
        assert termination(tree).terminating

    def test_policy_validates_and_attains_the_value(self):
        rng = np.random.default_rng(64)
        spec = LatticeSpec(depth=4, dt=0.25)
        for cost in (INDICATOR, ABS, SQUARE):
            mu = random_measure(rng, (0.25, 0.75, 1.0))
            table = solve(spec, cost, mu, resolution=25)
            tree = extract_policy(table)
            assert validate(tree, mu=mu) is None
            got = accumulate(tree, cost)
            assert got >= table.root_value - AGREE_TOL
            assert got <= oracle_value(spec, cost, mu) + 1e-9

    def test_deterministic(self):
        spec, cost, mu = worked_instance()
        table = solve(spec, cost, mu, resolution=5)
        a = extract_policy(table)
        b = extract_policy(table)
        assert np.array_equal(a.vectors, b.vectors)

    def test_round_trip_to_kernel(self):
        rng = np.random.default_rng(65)
        spec = LatticeSpec(depth=3, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        tree = extract_policy(solve(spec, INDICATOR, mu, resolution=20))
        kernel = to_kernel(tree)
        marg = marginal_of(kernel)
        assert marg.atoms == mu.atoms
        assert marg.weights == pytest.approx(mu.weights, abs=1e-9)

    def test_depth_guard(self):
        spec = LatticeSpec(depth=17, dt=1.0)
        mu = DiscreteMeasure((1.0, 17.0), (0.5, 0.5))
        table = solve(spec, IDENTITY, mu, resolution=2)
        with pytest.raises(SizeGuardError, match=r"2\^17 histories \(limit 2\^16\)"):
            extract_policy(table)

    @pytest.mark.parametrize("residual, weights", [(1e-6, [0.5, 0.5]), (0.0, [0.0, 0.0])])
    def test_a_failed_facet_split_raises(self, monkeypatch, residual, weights):
        # A least-squares residual past 1e-8, or no weight, is a numerical
        # failure, not an unsplit node.
        table = solve(*worked_instance(), resolution=5)
        monkeypatch.setattr(dpp, "nnls", lambda a, b: (np.array(weights), residual))
        with pytest.raises(NumericalError, match="least-squares residual"):
            extract_policy(table)


def brute_pure_value(spec, cost, mu):
    """Exhaustive scan over deterministic rules with the exact target law."""
    steps = sorted(set(round(t / spec.dt) for t in mu.atoms))
    interior = [n for s in steps[:-1] for n in nodes_at_step(spec, s)]
    final = {n: 1.0 for n in nodes_at_step(spec, steps[-1])}
    best = float("-inf")
    for choice in itertools.product((0.0, 1.0), repeat=len(interior)):
        q = dict(zip(interior, choice))
        q.update(final)
        kernel = kernel_from_dict(spec, mu.atoms, q)
        weights, objective = brute_kernel_stats(kernel, cost)
        if max(abs(a - b) for a, b in zip(weights, mu.weights)) <= 1e-12:
            best = max(best, objective)
    return best


class TestStrongValue:
    def test_worked_instance(self):
        spec, cost, mu = worked_instance()
        assert strong_value(spec, cost, mu) == pytest.approx(0.5, abs=1e-12)

    def test_unrepresentable_law_is_unattainable(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (1 / 3, 2 / 3))
        assert strong_value(spec, INDICATOR, mu) == float("-inf")

    def test_martingale_cost(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        assert strong_value(spec, IDENTITY, mu) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.25, 0.75), (0.75, 0.25)])
    def test_matches_exhaustive_scan_depth2(self, weights):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), weights)
        for cost in (INDICATOR, ABS):
            assert strong_value(spec, cost, mu) == pytest.approx(
                brute_pure_value(spec, cost, mu), abs=1e-12)

    def test_matches_exhaustive_scan_depth3(self):
        spec = LatticeSpec(depth=3, dt=1.0)
        for weights in [(0.25, 0.25, 0.5), (0.5, 0.25, 0.25), (0.125, 0.25, 0.625)]:
            mu = DiscreteMeasure((1.0, 2.0, 3.0), weights)
            assert strong_value(spec, ABS, mu) == pytest.approx(
                brute_pure_value(spec, ABS, mu), abs=1e-12)

    def test_never_beats_the_randomized_value(self):
        rng = np.random.default_rng(66)
        spec = LatticeSpec(depth=3, dt=1.0)
        for _ in range(5):
            units = rng.multinomial(8, [1 / 3] * 3) / 8.0
            if (units == 0.0).any():
                continue
            mu = DiscreteMeasure((1.0, 2.0, 3.0), units)
            pure = strong_value(spec, INDICATOR, mu)
            table = solve(spec, INDICATOR, mu, resolution=8)
            assert pure <= table.root_value + 1e-12
