"""Continuity, concavity and transport identities of the solved value."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from dcstop import (
    ConfigError,
    CostSpec,
    CoverageError,
    DiscreteMeasure,
    LatticeSpec,
    ceiling_project,
    convergence_sweep,
    feasible_kernel,
    marginal_of,
    rows_to_csv,
    solve,
    w1_distance,
)

import dcstop.stability as stability
from dcstop.dpp import AGREE_TOL

from paper_checks import (
    blend_measures,
    concavity_check,
    oracle_value,
    push_right_identity_check,
)
from conftest import mean, random_measure

INDICATOR = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
SQUARE = CostSpec(kind="terminal", name="square")

DYADIC_GRIDS = ([1.0], [0.5, 1.0], [0.25, 0.5, 0.75, 1.0])


class TestConvergenceSweep:
    def test_law_already_on_the_coarsest_grid(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((1.0,), (1.0,))
        rows = convergence_sweep(spec, INDICATOR, mu, DYADIC_GRIDS)
        assert all(row["within"] for row in rows)
        for row in rows:
            assert row["value_gap"] == pytest.approx(0.0, abs=1e-12)
            assert row["w1_to_fine"] == pytest.approx(0.0, abs=1e-12)

    def test_square_cost_gap_equals_mean_shift(self):
        rng = np.random.default_rng(80)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = random_measure(rng, (0.3, 0.6, 0.9))
        rows = convergence_sweep(spec, SQUARE, mu, DYADIC_GRIDS)
        assert all(row["within"] for row in rows)
        fine = ceiling_project(mu, DYADIC_GRIDS[-1])
        for n, row in enumerate(rows):
            mu_n = ceiling_project(mu, DYADIC_GRIDS[n])
            assert row["value"] == pytest.approx(mean(mu_n), abs=1e-12)
            assert row["value_gap"] == pytest.approx(row["w1_to_fine"], abs=1e-12)
            assert row["w1_gap"] == pytest.approx(w1_distance(mu, mu_n), abs=1e-12)
        assert rows[-1]["value"] == pytest.approx(mean(fine), abs=1e-12)

    def test_the_modulus_ranges_up_to_the_horizon(self):
        # No stop reaches past step 2, so neither do the constant's states:
        # over all 10,000 levels, row 0's bound read 9999.500000002.
        spec = LatticeSpec(depth=10_000, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        rows = convergence_sweep(spec, SQUARE, mu, ([2.0], [1.0, 2.0]))
        assert all(row["within"] for row in rows)
        assert rows[0]["bound"] == pytest.approx(1.500000002, abs=1e-12)

    def test_a_row_passes_within_its_bound_and_no_further(self, monkeypatch):
        # A constant modulus puts row 0's bound 5e-13 below its gap of 1/2.
        # The bound already carries 2 AGREE_TOL for the two solves, and no
        # further slack is granted.
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        grids = ([2.0], [1.0, 2.0])
        gap = convergence_sweep(spec, SQUARE, mu, grids)[0]["value_gap"]
        monkeypatch.setattr(stability, "modulus",
                            lambda cost, spec: lambda w: gap - 2.0 * AGREE_TOL - 5e-13)
        rows = convergence_sweep(spec, SQUARE, mu, grids)
        row = rows[0]
        assert (row["value_gap"], gap) == (0.5, 0.5)
        assert 0.0 < row["value_gap"] - row["bound"] < 1e-12
        assert (row["within"], rows[1]["within"]) == (False, True)

    def test_indicator_cost_refinement(self):
        rng = np.random.default_rng(81)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = random_measure(rng, (0.3, 0.55, 0.8))
        rows = convergence_sweep(spec, INDICATOR, mu, DYADIC_GRIDS)
        assert all(row["within"] for row in rows)
        gaps = [row["value_gap"] for row in rows]
        slack = 2e-2
        assert all(a >= b - slack for a, b in zip(gaps, gaps[1:]))
        assert rows[-1]["value_gap"] == 0.0

    def test_custom_value_route_agrees(self):
        rng = np.random.default_rng(82)
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = random_measure(rng, (0.3, 0.6))
        rows = convergence_sweep(spec, INDICATOR, mu, DYADIC_GRIDS)
        for grid, row in zip(DYADIC_GRIDS, rows):
            via_lp = oracle_value(spec, INDICATOR, ceiling_project(mu, grid))
            assert row["value"] == pytest.approx(via_lp, abs=1e-9)

    def test_non_nested_grids_rejected(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((1.0,), (1.0,))
        with pytest.raises(ConfigError):
            convergence_sweep(spec, INDICATOR, mu, ([0.75, 1.0], [0.5, 1.0]))
        with pytest.raises(ConfigError):
            convergence_sweep(spec, INDICATOR, mu, ())

    def test_grid_must_cover_the_support(self):
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((1.0,), (1.0,))
        with pytest.raises(CoverageError):
            convergence_sweep(spec, INDICATOR, mu, ([0.5],))

    def test_cost_without_modulus_rejected(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0,), (1.0,))
        cost = CostSpec(kind="markov", name="abs")
        with pytest.raises(ConfigError):
            convergence_sweep(spec, cost, mu, ([1.0],))


class TestConcavity:
    def test_linear_value_blends_exactly(self):
        spec = LatticeSpec(depth=3, dt=0.5)
        mu1 = DiscreteMeasure((0.5, 1.0), (0.5, 0.5))
        mu2 = DiscreteMeasure((1.0, 1.5), (0.25, 0.75))
        rows = concavity_check(spec, SQUARE, mu1, mu2, (0.0, 0.25, 0.5, 1.0))
        assert all(row["ok"] for row in rows)
        for row in rows:
            assert row["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_identical_laws_blend_to_themselves(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        rows = concavity_check(spec, INDICATOR, mu, mu, (0.5,))
        assert rows[0]["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_point_mass_blend_has_a_strict_margin(self):
        # Pinning the stop time at either end is worth 1/2 and 1/4; letting
        # the rule randomize between the two steps recovers 1/2, a strict
        # eighth above the mixture of the pinned values.
        spec = LatticeSpec(depth=2, dt=1.0)
        mu1 = DiscreteMeasure((1.0,), (1.0,))
        mu2 = DiscreteMeasure((2.0,), (1.0,))
        rows = concavity_check(spec, INDICATOR, mu1, mu2, (0.5,))
        assert all(row["ok"] for row in rows)
        row = rows[0]
        assert row["blend_value"] == pytest.approx(0.5, abs=1e-9)
        assert row["mixed_values"] == pytest.approx(0.375, abs=1e-9)
        assert row["margin"] == pytest.approx(0.125, abs=1e-9)

    def test_rational_blend_sweep_on_random_laws(self):
        rng = np.random.default_rng(83)
        spec = LatticeSpec(depth=3, dt=1.0)
        lambdas = (0.0, 0.25, 0.5, 0.75, 1.0)
        for _ in range(3):
            mu1 = random_measure(rng, (1.0, 2.0, 3.0))
            mu2 = random_measure(rng, (1.0, 3.0))
            rows = concavity_check(spec, INDICATOR, mu1, mu2, lambdas)
            assert all(row["ok"] for row in rows)
            assert rows[0]["margin"] == pytest.approx(0.0, abs=1e-9)
            assert rows[-1]["margin"] == pytest.approx(0.0, abs=1e-9)

    def test_solver_route_matches_oracle_route(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu1 = DiscreteMeasure((1.0,), (1.0,))
        mu2 = DiscreteMeasure((2.0,), (1.0,))

        def dp_route(m):
            return solve(spec, INDICATOR, m, resolution=20).root_value

        via_dp = concavity_check(spec, INDICATOR, mu1, mu2, (0.5,), value_fn=dp_route)
        assert via_dp[0]["margin"] == pytest.approx(0.125, abs=1e-9)

    def test_blend_weight_out_of_range(self):
        spec = LatticeSpec(depth=2, dt=1.0)
        mu = DiscreteMeasure((1.0,), (1.0,))
        with pytest.raises(ConfigError):
            concavity_check(spec, INDICATOR, mu, mu, (1.5,))

    def test_blend_measures_merges_shared_atoms(self):
        mu1 = DiscreteMeasure((1.0, 2.0), (0.5, 0.5))
        mu2 = DiscreteMeasure((2.0,), (1.0,))
        blend = blend_measures(mu1, mu2, 0.5)
        assert blend.atoms == (1.0, 2.0)
        assert blend.weights == pytest.approx((0.25, 0.75), abs=1e-12)


class TestUpperSemicontinuity:
    def test_vanishing_mass_perturbation_never_jumps_up(self):
        # Laws drifting to a point mass at the first step: the limit value may
        # exceed the sequence but the sequence must not exceed the limit by
        # more than the transport modulus allows.
        spec = LatticeSpec(depth=2, dt=1.0)
        limit = DiscreteMeasure((1.0,), (1.0,))
        v_limit = oracle_value(spec, INDICATOR, limit)
        for n in (2, 4, 8, 16):
            mu_n = DiscreteMeasure((1.0, 2.0), (1.0 - 1.0 / n, 1.0 / n))
            v_n = oracle_value(spec, INDICATOR, mu_n)
            w1 = w1_distance(mu_n, limit)
            assert v_n <= v_limit + w1 + 1e-9
        closest = DiscreteMeasure((1.0, 2.0), (1.0 - 1.0 / 16, 1.0 / 16))
        assert oracle_value(spec, INDICATOR, closest) == pytest.approx(v_limit, abs=1e-9)


class TestShiftIdentity:
    def test_marginal_itself_and_later_grids(self):
        rng = np.random.default_rng(84)
        spec = LatticeSpec(depth=4, dt=0.5)
        mu = random_measure(rng, (0.5, 1.0, 1.5))
        kernel = feasible_kernel(spec, mu, rng)
        marg = marginal_of(kernel)
        targets = [
            marg,
            ceiling_project(marg, [1.0, 2.0]),
            ceiling_project(marg, [2.0]),
        ]
        rows = push_right_identity_check(kernel, targets)
        assert all(row["ok"] for row in rows)
        first = rows[0]
        assert first["shift"] == pytest.approx(0.0, abs=1e-12)
        assert first["w1"] == pytest.approx(0.0, abs=1e-12)
        for row in rows:
            assert row["shift"] == pytest.approx(row["w1"], abs=1e-12)
            assert row["marginal_error"] <= 1e-9


class TestReportOutput:
    def test_csv_round_trip(self, tmp_path):
        spec = LatticeSpec(depth=4, dt=0.25)
        mu = DiscreteMeasure((1.0,), (1.0,))
        rows = convergence_sweep(spec, INDICATOR, mu, DYADIC_GRIDS)
        path = tmp_path / "sweep.csv"
        rows_to_csv(rows, str(path))
        with open(path, newline="") as fh:
            read = list(csv.DictReader(fh))
        assert len(read) == len(rows)
        assert set(read[0]) == set(rows[0])
        assert float(read[0]["value_gap"]) == rows[0]["value_gap"]

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            rows_to_csv([], str(tmp_path / "empty.csv"))
