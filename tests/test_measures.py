"""Transport geometry of discrete laws: distances, couplings, orders."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from dcstop import (
    ConfigError,
    CoverageError,
    DiscreteMeasure,
    ValidationError,
    ceiling_project,
    measure_from_json,
    measure_to_json,
    w1_distance,
)
from dcstop.measures import WEIGHT_TOL

from paper_checks import is_right_shift_of, monotone_coupling
from conftest import mean, moves_only_right

# Random measures for property tests: up to 5 atoms on a coarse positive grid
# so exact ties between atom times are common (the hard case for sweeps).
measures = st.builds(
    lambda pairs: DiscreteMeasure(
        [t for t, _ in pairs],
        [w / sum(p[1] for p in pairs) for _, w in pairs],
    ),
    st.dictionaries(
        st.integers(min_value=1, max_value=12).map(lambda k: k * 0.5),
        st.integers(min_value=1, max_value=9).map(float),
        min_size=1,
        max_size=5,
    ).map(lambda d: sorted(d.items())),
)


def delta(t: float) -> DiscreteMeasure:
    return DiscreteMeasure([t], [1.0])


class TestDistance:
    def test_point_mass_translation(self):
        assert w1_distance(delta(2.0), delta(5.0)) == pytest.approx(3.0, abs=1e-15)

    def test_uniform_right_shift(self):
        a = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        b = DiscreteMeasure([2.0, 4.0], [0.5, 0.5])
        assert w1_distance(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_partial_mass_move(self):
        a = DiscreteMeasure([1.0, 2.0], [0.25, 0.75])
        assert w1_distance(a, delta(2.0)) == pytest.approx(0.25, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(measures, measures)
    def test_matches_external_reference(self, a, b):
        ref = wasserstein_distance(a.atoms, b.atoms, a.weights, b.weights)
        assert w1_distance(a, b) == pytest.approx(ref, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(measures, measures, measures)
    def test_triangle_and_symmetry(self, a, b, c):
        assert abs(w1_distance(a, b) - w1_distance(b, a)) <= 1e-10
        assert w1_distance(a, c) <= w1_distance(a, b) + w1_distance(b, c) + 1e-10

    @settings(max_examples=100, deadline=None)
    @given(measures)
    def test_zero_iff_equal(self, a):
        assert w1_distance(a, a) == 0.0


class TestMonotoneCoupling:
    def test_single_cell(self):
        c = monotone_coupling(delta(1.0), delta(2.0))
        assert c.rows == (((0, 1.0),),)
        assert c.cost() == pytest.approx(1.0, abs=1e-15)

    def test_identity_coupling_is_diagonal(self):
        a = DiscreteMeasure([1.0, 2.0, 4.0], [0.2, 0.5, 0.3])
        c = monotone_coupling(a, a)
        assert c.cost() == 0.0
        for i, row in enumerate(c.rows):
            assert row == ((i, a.weights[i]),)

    def test_two_to_one_support(self):
        # With a single target atom there is exactly one coupling, so the
        # enumeration of candidates is trivial and the answer forced.
        a = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        c = monotone_coupling(a, delta(2.0))
        assert c.rows == (((0, 0.5),), ((0, 0.5),))
        assert c.cost() == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(measures, measures)
    def test_cost_attains_distance(self, a, b):
        assert monotone_coupling(a, b).cost() == pytest.approx(
            w1_distance(a, b), abs=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(measures, measures)
    def test_rows_are_a_monotone_coupling(self, a, b):
        # What a coupling must be: the rows reproduce both marginals, every
        # cell names a target atom, and the support never crosses.
        c = monotone_coupling(a, b)
        assert (c.source, c.target) == (a, b)
        assert len(c.rows) == len(a)
        cols = [0.0] * len(b)
        last = -1
        for i, row in enumerate(c.rows):
            targets = [j for j, _ in row]
            assert targets == sorted(set(targets))
            assert all(0 <= j < len(b) and m > 0.0 for j, m in row)
            assert abs(sum(m for _, m in row) - a.weights[i]) <= WEIGHT_TOL
            if row:
                assert targets[0] >= last
                last = targets[-1]
            for j, m in row:
                cols[j] += m
        for j, col in enumerate(cols):
            assert abs(col - b.weights[j]) <= WEIGHT_TOL


class TestRightShiftOrder:
    def test_later_point_mass(self):
        assert is_right_shift_of(delta(2.0), delta(1.0))

    def test_mass_would_move_left(self):
        spread = DiscreteMeasure([1.0, 3.0], [0.5, 0.5])
        assert not is_right_shift_of(delta(2.0), spread)

    def test_reflexive(self):
        mu = DiscreteMeasure([1.0, 2.0], [0.3, 0.7])
        assert is_right_shift_of(mu, mu)

    @settings(max_examples=200, deadline=None)
    @given(measures, measures)
    def test_equivalent_to_rightward_coupling(self, a, b):
        # The order holds exactly when the quantile coupling never moves
        # mass to an earlier time, in both directions.
        assert is_right_shift_of(b, a) == moves_only_right(monotone_coupling(a, b))


class TestCeilingProject:
    def test_moves_up_to_next_grid_point(self):
        mu = DiscreteMeasure([0.5, 1.7], [0.5, 0.5])
        assert ceiling_project(mu, [1.0, 2.0]) == DiscreteMeasure([1.0, 2.0], [0.5, 0.5])

    def test_on_grid_atom_stays(self):
        assert ceiling_project(delta(1.0), [1.0, 2.0]) == delta(1.0)

    def test_atom_above_grid(self):
        with pytest.raises(CoverageError):
            ceiling_project(delta(3.0), [1.0, 2.0])

    @settings(max_examples=200, deadline=None)
    @given(measures)
    def test_projection_is_right_shift_within_mesh(self, mu):
        grid = [1.0, 2.5, 4.0, 6.0, 8.0]
        out = ceiling_project(mu, grid)
        assert is_right_shift_of(out, mu)
        mesh = max(b - a for a, b in zip([0.0] + grid, grid))
        assert w1_distance(mu, out) <= mesh + 1e-12

    def test_bad_grid(self):
        with pytest.raises(CoverageError):
            ceiling_project(delta(1.0), [])
        with pytest.raises(CoverageError):
            ceiling_project(delta(1.0), [2.0, 2.0])


class TestConstruction:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([1.0, 2.0], [0.5, 0.6])

    def test_negative_weight(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([1.0, 2.0], [1.2, -0.2])

    @pytest.mark.parametrize("atoms, weights", [
        ((1.0, 2.0), (math.nan, 1.0)),
        ((1.0, math.inf), (0.5, 0.5)),
    ])
    def test_non_finite_rejected(self, atoms, weights):
        with pytest.raises(ValidationError):
            DiscreteMeasure(atoms, weights)

    def test_atoms_strictly_positive(self):
        with pytest.raises(ValidationError):
            DiscreteMeasure([0.0, 1.0], [0.5, 0.5])

    @pytest.mark.parametrize("t", [-1.0, 0.0])
    def test_a_zero_weight_atom_is_checked_before_it_is_dropped(self, t):
        with pytest.raises(ValidationError, match=f"^atoms must be strictly positive, got {t}$"):
            DiscreteMeasure([t, 2.0], [0.0, 1.0])

    def test_one_weight_per_atom(self):
        with pytest.raises(ValidationError, match="equal length"):
            DiscreteMeasure([1.0, 2.0], [1.0])

    def test_no_atoms(self):
        with pytest.raises(ValidationError, match="at least one atom"):
            DiscreteMeasure([], [])

    def test_all_weights_zero(self):
        with pytest.raises(ValidationError, match="all weights are zero"):
            DiscreteMeasure([1.0, 2.0], [0.0, 0.0])

    def test_near_duplicate_atoms_merge(self):
        mu = DiscreteMeasure([1.0, 1.0 + 1e-12, 2.0], [0.25, 0.25, 0.5])
        assert mu.atoms == (1.0, 2.0)
        assert mu.weights == (0.5, 0.5)

    def test_zero_weight_atoms_dropped(self):
        mu = DiscreteMeasure([1.0, 2.0, 3.0], [0.5, 0.0, 0.5])
        assert mu.atoms == (1.0, 3.0)

    def test_unsorted_input_sorted(self):
        mu = DiscreteMeasure([3.0, 1.0], [0.25, 0.75])
        assert mu.atoms == (1.0, 3.0)
        assert mu.weights == (0.75, 0.25)

    def test_immutable(self):
        mu = delta(1.0)
        with pytest.raises(AttributeError):
            mu.atoms = (2.0,)

    def test_mean(self):
        mu = DiscreteMeasure([1.0, 3.0], [0.25, 0.75])
        assert mean(mu) == pytest.approx(2.5, abs=1e-15)

    def test_a_measure_equals_no_other_type(self):
        mu = delta(1.0)
        assert mu.__eq__((1.0,)) is NotImplemented
        assert mu != (1.0,)

    def test_repr(self):
        mu = DiscreteMeasure([1.0, 2.5], [0.25, 0.75])
        assert repr(mu) == "DiscreteMeasure(0.25*d(1), 0.75*d(2.5))"


class TestJson:
    def test_round_trip(self):
        mu = DiscreteMeasure([1.0, 2.0, 3.5], [0.2, 0.3, 0.5])
        assert measure_from_json(measure_to_json(mu)) == mu

    def test_small_ingest_error_renormalized(self):
        data = [{"t": 1.0, "w": 0.5 + 2e-10}, {"t": 2.0, "w": 0.5}]
        mu = measure_from_json(data)
        assert math.isclose(sum(mu.weights), 1.0, abs_tol=1e-15)

    def test_large_ingest_error_rejected(self):
        with pytest.raises(ValidationError):
            measure_from_json([{"t": 1.0, "w": 0.5}, {"t": 2.0, "w": 0.6}])

    def test_malformed_entries_rejected(self):
        with pytest.raises(ValidationError):
            measure_from_json([{"w": 1.0}])

    def test_an_unknown_key_is_refused(self):
        # A misspelled "t" is named, not reported as a missing one.
        with pytest.raises(ConfigError, match="^unknown key 'time'$"):
            measure_from_json([{"t": 1.0, "w": 0.5}, {"time": 2.0, "w": 0.5}])
