"""Command-line pipelines: outputs, determinism, exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.spatial import QhullError

import dcstop
from dcstop import LatticeSpec, MvmViolation, NodeId, objective_value, validate
from dcstop import cli
from dcstop.cli import main

from conftest import kernel_from_json, mvm_from_json


def base_config() -> dict:
    return {
        "lattice": {"depth": 2, "dt": 1.0, "mode": "recombining", "augment_max": False},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": 1.0, "w": 0.5}, {"t": 2.0, "w": 0.5}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 20000},
        "stability": {"grids": [[2.0], [1.0, 2.0]]},
    }


# The Quick start config of README.md.
README_CONFIG = {
    "lattice": {"depth": 2, "dt": 1.0},
    "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
    "measure": [{"t": 1.0, "w": 0.5}, {"t": 2.0, "w": 0.5}],
    "solver": {"resolution": 40},
    "seed": 7,
    "simulate": {"paths": 100000},
    "stability": {"grids": [[2.0], [1.0, 2.0]]},
}


COMMANDS = ("solve", "policy", "oracle", "compare", "simulate", "stability", "validate")


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("DCSTOP_OUT", str(out))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(base_config()))
    return config_path, out


def read_result(out):
    with open(out / "result.json") as fh:
        return json.load(fh)


class TestSolve:
    def test_happy_path(self, workspace):
        config_path, out = workspace
        assert main(["solve", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert payload["resolution"] == 20
        assert payload["atom_steps"] == [1, 2]
        assert payload["slack"] >= 1e-9
        assert "table_digest" not in payload
        assert "config_digest" in payload
        assert "version" in payload

    def test_rerun_is_byte_identical(self, workspace):
        config_path, out = workspace
        assert main(["solve", str(config_path)]) == 0
        first = (out / "result.json").read_bytes()
        assert main(["solve", str(config_path)]) == 0
        assert (out / "result.json").read_bytes() == first

    @pytest.mark.parametrize("off", [0.0, 1e-6])
    def test_a_multiple_of_a_large_step_is_on_the_grid(self, workspace, capsys, off):
        # 3 * dt is 300000000.29999995 in floats, 1 ulp (6e-8) from the time
        # 300000000.3 and past TIME_SNAP_TOL; a time 1e-6 dt away is no multiple.
        config_path, out = workspace
        dt = 100000000.1
        t = 300000000.3 + off * dt
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 3, "dt": dt},
            "measure": [{"t": dt, "w": 0.5}, {"t": t, "w": 0.5}]}))
        if off:
            assert main(["solve", str(config_path)]) == 2
            assert capsys.readouterr().err == (
                f"invalid input: time {t} is not on the step grid with dt={dt}\n")
        else:
            assert main(["solve", str(config_path)]) == 0
            assert read_result(out)["atom_steps"] == [1, 3]


class TestPolicy:
    def test_emits_a_valid_optimal_tree(self, workspace):
        config_path, out = workspace
        assert main(["policy", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["residual"] <= 1e-9
        assert payload["policy_objective"] == pytest.approx(payload["value"], abs=1e-9)
        with open(out / "policy.json") as fh:
            doc = json.load(fh)
        tree = mvm_from_json(doc)
        from dcstop import DiscreteMeasure
        assert validate(tree, mu=DiscreteMeasure((1.0, 2.0), (0.5, 0.5))) is None

    def test_finite_costs_whose_leaf_sum_passes_the_floats(self, workspace):
        # 2^10 leaves of cost 1e306 sum past the floats; their mean does not.
        config_path, out = workspace
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 10, "dt": 1.0},
            "cost": {"kind": "terminal", "name": "polynomial", "params": {"coeffs": [1e306]}},
            "measure": [{"t": 5.0, "w": 0.5}, {"t": 10.0, "w": 0.5}]}))
        assert main(["policy", str(config_path)]) == 0
        payload = read_result(out)
        assert (payload["value"], payload["policy_objective"]) == (1e306, 1e306)

    @pytest.mark.parametrize("command, written", [("policy", "policy.json"),
                                                  ("stability", "table.csv")])
    def test_a_refused_run_leaves_no_earlier_output(self, workspace, command, written):
        config_path, out = workspace
        assert main([command, str(config_path)]) == 0
        assert (out / written).exists()
        config_path.write_text(json.dumps({**base_config(), "solver": {"resolution": 10 ** 6}}))
        assert main([command, str(config_path)]) == 2
        assert sorted(os.listdir(out)) == []


class TestOracle:
    def test_float_pivoting(self, workspace):
        config_path, out = workspace
        assert main(["oracle", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["status"] == "optimal"
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert payload["exact"] is False
        assert payload["duality_gap"] <= 1e-9
        assert payload["variables"] == 4
        hist = LatticeSpec(depth=2, dt=1.0, mode="history")
        kernel = kernel_from_json(hist, payload["kernel"])
        from dcstop import CostSpec
        cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
        assert objective_value(kernel, cost) == pytest.approx(0.5, abs=1e-9)

    def test_exact_pivoting(self, workspace):
        config_path, out = workspace
        assert main(["oracle", str(config_path), "--exact"]) == 0
        payload = read_result(out)
        assert payload["value"] == 0.5
        assert payload["exact"] is True
        # The rational duals certify the rational optimum with no residual.
        text = (out / "result.json").read_text()
        for key in ("duality_gap", "reduced_cost_violation", "slackness_violation"):
            assert f'"{key}": 0.0' in text


class TestCompare:
    def test_routes_agree(self, workspace):
        config_path, out = workspace
        assert main(["compare", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["agree"] is True
        assert payload["difference"] <= payload["tolerance"]

    # The bound is the flat AGREE_TOL, whatever the value (0.5, then 1.5) or
    # the sampled tables (varying, then constant).
    @pytest.mark.parametrize("changes,tolerance", [
        ({}, 1e-9),
        ({"cost": {"kind": "terminal", "name": "square"}}, 1e-9),
        ({"cost": {"kind": "terminal", "name": "abs"},
          "lattice": {"depth": 4, "dt": 1.0, "augment_max": True},
          "measure": [{"t": 3.0, "w": 0.5}, {"t": 4.0, "w": 0.5}]}, 1e-9),
    ], ids=["value-below-one", "value-1.5", "slack-cap"])
    def test_tolerance_is_relative_to_the_value(self, workspace, changes, tolerance):
        config_path, out = workspace
        config_path.write_text(json.dumps({**base_config(), **changes}))
        assert main(["compare", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["tolerance"] == pytest.approx(tolerance, rel=1e-12)
        assert payload["difference"] <= payload["tolerance"]


class TestLargeConstantCosts:
    # HiGHS reads a cost of 1e20 or more as infinite; the float LP scales them.
    @pytest.mark.parametrize("constant", [1e25, 1e306])
    @pytest.mark.parametrize("command", ["compare", "oracle", "simulate"])
    def test_the_float_oracle_prices_them(self, workspace, command, constant):
        config_path, out = workspace
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 10, "dt": 1.0},
            "cost": {"kind": "terminal", "name": "polynomial", "params": {"coeffs": [constant]}},
            "measure": [{"t": 5.0, "w": 0.5}, {"t": 10.0, "w": 0.5}]}))
        assert main([command, str(config_path)]) == 0
        payload = read_result(out)
        value = {"compare": "oracle_value", "oracle": "value", "simulate": "expected"}[command]
        assert payload[value] == constant


class TestSimulate:
    def test_seeded_run(self, workspace):
        config_path, out = workspace
        assert main(["simulate", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["n_paths"] == 20000
        assert payload["seed"] == 7
        assert payload["deviation"] <= 4.0 * payload["stderr"]
        first = (out / "result.json").read_bytes()
        assert main(["simulate", str(config_path)]) == 0
        assert (out / "result.json").read_bytes() == first

    def test_a_refused_run_leaves_no_earlier_result(self, workspace):
        config_path, out = workspace
        assert main(["policy", str(config_path)]) == 0
        assert (out / "result.json").exists()
        config_path.write_text(json.dumps({**base_config(), "simulate": {"paths": 10 ** 12}}))
        assert main(["simulate", str(config_path)]) == 2
        assert sorted(os.listdir(out)) == []

    @pytest.mark.parametrize("lattice, cost, t", [
        ({"depth": 1, "dt": 0.3, "augment_max": True}, {"kind": "time", "name": "identity"}, 0.3),
        ({"depth": 1, "dt": 0.5}, {"kind": "terminal", "name": "abs"}, 0.5),
    ])
    def test_a_payoff_every_path_pays_alike_has_no_spread(self, workspace, lattice, cost, t):
        # The mean of equal payoffs is that payoff, not the sum of 1000
        # rounded shares an ulp away, so no spread reads off the rounding.
        config_path, out = workspace
        config_path.write_text(json.dumps({
            "lattice": lattice, "cost": cost, "measure": [{"t": t, "w": 1.0}],
            "seed": 4, "simulate": {"paths": 1000}}))
        assert main(["simulate", str(config_path)]) == 0
        payload = read_result(out)
        assert (payload["mean"], payload["stderr"]) == (payload["expected"], 0.0)


class TestStability:
    def test_sweep_and_csv(self, workspace):
        config_path, out = workspace
        assert main(["stability", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["all_within"] is True
        assert payload["levels"] == 2
        table = (out / "table.csv").read_text().strip().splitlines()
        assert len(table) == 3  # header plus one line per grid

    def test_each_distinct_law_is_solved_once(self, tmp_path, monkeypatch):
        # The README grids project onto two laws, the finer of which is also
        # the reference value.
        solved, solve = [], dcstop.dpp.solve

        def counting(spec, cost, mu, resolution):
            solved.append(mu)
            return solve(spec, cost, mu, resolution)

        monkeypatch.setattr("dcstop.dpp.solve", counting)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(README_CONFIG))
        assert main(["stability", str(path)]) == 0
        assert len(solved) == len(set(solved)) == 2
        assert read_result(tmp_path)["levels"] == 2

    def test_deep_lattice_with_early_atoms_finishes(self, tmp_path):
        # The depth-20000 lattice reaches far past the atoms at steps 5 and 10;
        # the modulus constant scans the levels up to the horizon only (an
        # all-pairs scan of all 40001 levels once outlasted a 10 s timeout).
        config = {
            "lattice": {"depth": 20000, "dt": 1.0},
            "cost": {"kind": "terminal", "name": "abs"},
            "measure": [{"t": 5.0, "w": 0.5}, {"t": 10.0, "w": 0.5}],
            "solver": {"resolution": 20},
            "stability": {"grids": [[10.0], [5.0, 10.0]]},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        src = str(Path(dcstop.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from dcstop.cli import main; sys.exit(main())",
             "stability", str(path)],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": src, "DCSTOP_OUT": str(tmp_path)},
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert read_result(tmp_path)["all_within"] is True


class TestValidate:
    def test_feasibility_witness(self, workspace):
        config_path, out = workspace
        assert main(["validate", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["ok"] is True
        assert payload["atom_steps"] == [1, 2]

    def test_rerun_is_byte_identical(self, workspace):
        config_path, out = workspace
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 6, "dt": 1.0, "augment_max": True},
            "measure": [{"t": 2.0, "w": 0.3}, {"t": 4.0, "w": 0.3}, {"t": 6.0, "w": 0.4}]}))
        assert main(["validate", str(config_path)]) == 0
        first = (out / "result.json").read_bytes()
        assert main(["validate", str(config_path)]) == 0
        assert (out / "result.json").read_bytes() == first


# The four-atom weights of the depth-40 instances.
WEIGHTS40 = (0.21356950974843217, 0.29684989146271784, 0.41039060019339013, 0.07918999859545982)
# Instances at the edge of what the commands take, each in full.
EDGE_CONFIGS = {
    # The exact oracle on a 35-row, 68-column LP.
    "exact7": {
        "lattice": {"depth": 7, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": 2.0, "w": 0.3}, {"t": 5.0, "w": 0.3}, {"t": 7.0, "w": 0.4}],
    },
    # Costs read at the step's time, which every node of a step shares: a
    # time-kind square and a markov polynomial in (w, t), at dt = 0.5.
    "time": {
        "lattice": {"depth": 6, "dt": 0.5, "augment_max": True},
        "cost": {"kind": "time", "name": "square"},
        "measure": [{"t": 1.0, "w": 0.25}, {"t": 2.0, "w": 0.35}, {"t": 3.0, "w": 0.4}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 100000},
    },
    "markov": {
        "lattice": {"depth": 6, "dt": 0.5},
        "cost": {"kind": "markov", "name": "polynomial2",
                 "params": {"coeffs": [[0.0, 0.5], [1.0, -0.25], [0.5]]}},
        "measure": [{"t": 1.0, "w": 0.25}, {"t": 2.0, "w": 0.35}, {"t": 3.0, "w": 0.4}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 100000},
    },
    # The largest history tree the float oracle takes (ORACLE_DEPTH_LIMIT).
    "deep": {
        "lattice": {"depth": 12, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "terminal", "name": "abs"},
        "measure": [{"t": 6.0, "w": 0.4}, {"t": 12.0, "w": 0.6}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 100000},
    },
    # deep's horizon on the recombining lattice.
    "flat12": {
        "lattice": {"depth": 12, "dt": 1.0},
        "cost": {"kind": "terminal", "name": "abs"},
        "measure": [{"t": 6.0, "w": 0.4}, {"t": 12.0, "w": 0.6}],
        "solver": {"resolution": 20},
    },
    # The deepest law tree (TREE_DEPTH_LIMIT), on four atoms.
    "tree": {
        "lattice": {"depth": 16, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "terminal", "name": "abs"},
        "measure": [{"t": 4.0, "w": 0.1}, {"t": 8.0, "w": 0.4},
                    {"t": 12.0, "w": 0.2}, {"t": 16.0, "w": 0.3}],
        "solver": {"resolution": 10},
        "seed": 7,
    },
    # Solves past the benchmark's instances.  The recombining depth-40
    # four-atom indicator instance that its deep workload leaves out for
    # cost: the solver's largest pair clouds (3.1M pairs before pruning).
    "indicator40": {
        "lattice": {"depth": 40, "dt": 1.0},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": t, "w": w} for t, w in zip((10.0, 20.0, 30.0, 40.0), WEIGHTS40)],
        "solver": {"resolution": 10},
    },
    # Max-augmented depth 20: children that share a grandchild function, and
    # nodes that share one update, on a lattice where positions alone do not
    # say which functions are one.
    "max20": {
        "lattice": {"depth": 20, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": 5.0, "w": 0.1}, {"t": 10.0, "w": 0.3},
                    {"t": 15.0, "w": 0.2}, {"t": 20.0, "w": 0.4}],
        "solver": {"resolution": 10},
    },
    # indicator40's symmetric twin: under abs, the node at -x has the
    # children of the node at x in swapped order, so it stores that update's
    # mirror.
    "abs40": {
        "lattice": {"depth": 40, "dt": 1.0},
        "cost": {"kind": "terminal", "name": "abs"},
        "measure": [{"t": t, "w": w} for t, w in zip((10.0, 20.0, 30.0, 40.0), WEIGHTS40)],
        "solver": {"resolution": 10},
    },
    # A running_max identity cost: V(w, m) = w + G(m - w), so nodes whose
    # values differ by a constant share one base function and one update.
    "maxrm20": {
        "lattice": {"depth": 20, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "running_max", "name": "identity"},
        "measure": [{"t": 5.0, "w": 0.1}, {"t": 10.0, "w": 0.3},
                    {"t": 15.0, "w": 0.2}, {"t": 20.0, "w": 0.4}],
        "solver": {"resolution": 10},
    },
    # A running_max square cost, whose stored functions depend on the maximum
    # itself: a node on its running maximum has no two grandchildren that
    # hold one base, so its pair_sup calls take the unshared path, at k = 2
    # and at k > 2.
    "maxsq12": {
        "lattice": {"depth": 12, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "running_max", "name": "square"},
        "measure": [{"t": 3.0, "w": 0.1}, {"t": 6.0, "w": 0.3},
                    {"t": 9.0, "w": 0.2}, {"t": 12.0, "w": 0.4}],
        "solver": {"resolution": 10},
    },
    # policy reads each visited node's function and its up child's base: the
    # shallowest four-atom law tree whose solve runs pooled steps.
    "policy16": {
        "lattice": {"depth": 16, "dt": 1.0, "augment_max": True},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": 4.0, "w": 0.1}, {"t": 8.0, "w": 0.3},
                    {"t": 12.0, "w": 0.2}, {"t": 16.0, "w": 0.4}],
        "solver": {"resolution": 10},
    },
    # Atoms lighter than HiGHS's default feasibility tolerance of 1e-7.  At
    # that tolerance the float oracle found the first LP infeasible, and
    # priced the second 1.2e-8 above E[tau] = 1.500000021, the value of
    # every feasible rule.
    "light_markov": {
        "lattice": {"depth": 9, "dt": 0.5},
        "cost": {"kind": "markov", "name": "square"},
        "measure": [{"t": 1.5, "w": 1.1545962543411864e-08}, {"t": 4.0, "w": 0.9999999859280698},
                    {"t": 4.5, "w": 2.525967651122065e-09}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 100000},
    },
    "light_time": {
        "lattice": {"depth": 7, "dt": 1.0},
        "cost": {"kind": "time", "name": "identity"},
        "measure": [{"t": 1.0, "w": 0.5}, {"t": 2.0, "w": 0.5 - 6e-9},
                    {"t": 4.0, "w": 3e-9}, {"t": 7.0, "w": 3e-9}],
        "solver": {"resolution": 20},
        "seed": 7,
        "simulate": {"paths": 100000},
    },
}
# Values in result.json held to 1e-12, by (instance, command).  abs40's
# value was solved before mirrors existed and maxrm20's before bases were
# shared; both slacks were sampled before the table kept bases and shifts.
PINS = {
    ("indicator40", "solve"): {"value": 0.6005032747646508},
    ("abs40", "solve"): {"value": 4.362215235084616, "slack": 0.6617126464843759},
    ("maxrm20", "solve"): {"value": 2.9506595611572264, "slack": 0.408203125},
    ("maxsq12", "solve"): {"value": 9.30029296875},
}
INSTANCES = {"readme": README_CONFIG, **EDGE_CONFIGS}


class TestEdgeInstances:
    def run(self, workspace, name, *argv):
        config_path, out = workspace
        config_path.write_text(json.dumps(INSTANCES[name]))
        assert main([argv[0], str(config_path), *argv[1:]]) == 0
        return read_result(out)

    @pytest.mark.parametrize("name, argv", [
        *(("readme", command) for command in COMMANDS),
        *((name, command) for name in ("time", "markov")
          for command in ("compare", "policy", "simulate", "oracle --exact")),
        *(("deep", command) for command in ("compare", "simulate", "policy", "validate")),
        ("flat12", "policy"),
        ("tree", "validate"),
        ("tree", "policy"),
        *((name, "solve") for name in ("indicator40", "max20", "abs40", "maxrm20")),
        ("policy16", "policy"),
        *(("maxsq12", command) for command in ("solve", "compare", "policy")),
        *((name, command) for name in ("light_markov", "light_time")
          for command in ("oracle", "compare", "simulate")),
    ])
    def test_exits_0(self, workspace, name, argv):
        payload = self.run(workspace, name, *argv.split())
        if argv == "compare":
            assert payload["agree"] is True
        for key, pin in PINS.get((name, argv), {}).items():
            assert abs(payload[key] - pin) <= 1e-12, (key, payload[key])

    # sha256 of policy.json as json.dumps(sort_keys=True, indent=2) wrote it
    # (Python 3.11, numpy 2.4, scipy 1.17), before it was written from the
    # tree's array: the bytes must not change.
    @pytest.mark.parametrize("name, digest", [
        ("readme", "b8d49595cba3fd98fefc7c9f8cb80499c7180042546e5195c5f34f5e0e74c08c"),
        ("tree", "48c8f9a91a9e1110808c221050515a6f82a9e03b36395e76b3b45b8ae3662129"),
    ])
    def test_policy_json_bytes_are_pinned(self, workspace, name, digest):
        config_path, out = workspace
        config_path.write_text(json.dumps(INSTANCES[name]))
        assert main(["policy", str(config_path)]) == 0
        assert hashlib.sha256((out / "policy.json").read_bytes()).hexdigest() == digest

    # sha256 of the Quick start's stability outputs (Python 3.11, numpy 2.4,
    # scipy 1.17): table.csv holds the sweep's rows, and result.json's
    # all_within reads their ``within``.
    @pytest.mark.parametrize("name, digest", [
        ("table.csv", "a23ea40559e7cd5df788da4ba5341976b9a7b8c1805182b7c071b4a317800e80"),
        ("result.json", "6f1bddc1e31dff8fac8aa46f0ea2dca53b5769758d1fd9df55b08a2c5b7be45e"),
    ])
    def test_stability_output_bytes_are_pinned(self, workspace, name, digest):
        out = workspace[1]
        self.run(workspace, "readme", "stability")
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_maxsq12_runs_the_unshared_pair_path(self, workspace, monkeypatch):
        dims, pair_sup = [], dcstop.dpp.pair_sup

        def spy(up, down, shared=(), boxes=None):
            if not shared:
                dims.append(up.k)
            return pair_sup(up, down, shared, boxes)

        monkeypatch.setattr("dcstop.dpp.pair_sup", spy)
        self.run(workspace, "maxsq12", "solve")
        assert 2 in dims and max(dims) > 2

    @pytest.mark.parametrize("name", ["exact7", "deep"])
    def test_exact_oracle_certifies_the_float_value(self, workspace, name):
        # The exact route is bounded by the last decision step (6 on deep),
        # not by the horizon.  Its rational certificate reads exactly zero.
        flt = self.run(workspace, name, "oracle")
        exact = self.run(workspace, name, "oracle", "--exact")
        for key in ("duality_gap", "reduced_cost_violation", "slackness_violation"):
            assert (type(exact[key]), exact[key]) == (float, 0.0)
        assert abs(exact["value"] - flt["value"]) <= 1e-9

    def test_the_history_lp_branches_to_the_last_decision_step(self, workspace):
        # deep's last decision step is 6: two blocks of 2^6 columns, not one
        # of 2^6 and one of 2^12.
        assert self.run(workspace, "deep", "oracle")["variables"] == 128


class TestLargeValueScales:
    # polynomial [0, 1, 10^e] prices every rule at 10^e E[tau] = 4.2e{e}.
    # Both commands exited 2 when qhull failed on these clouds.  The flat
    # AGREE_TOL is below one ulp of such values, so the gate may fail (exit
    # 3), by a few ulps.
    @pytest.mark.parametrize("e", [12, 13, 15, 18, 30, 100, 300])
    @pytest.mark.parametrize("command", ["compare", "policy"])
    def test_no_refusal(self, workspace, capsys, command, e):
        config_path, out = workspace
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 6, "dt": 1.0, "augment_max": True},
            "cost": {"kind": "terminal", "name": "polynomial",
                     "params": {"coeffs": [0.0, 1.0, float(f"1e{e}")]}},
            "measure": [{"t": 2.0, "w": 0.3}, {"t": 4.0, "w": 0.3}, {"t": 6.0, "w": 0.4}]}))
        code = main([command, str(config_path)])
        err = capsys.readouterr().err
        ulps = 4 * np.spacing(4.2 * 10.0 ** e)
        if command == "compare":
            assert code in (0, 3), err
            assert read_result(out)["difference"] <= ulps
        else:
            off = re.fullmatch(r"verification failed: policy objective off the solved value "
                               r"by (\S+)\n", err)
            assert (code, err) == (0, "") or (code == 3 and off and float(off[1]) <= ulps), err


class TestConfigErrors:
    def write(self, tmp_path, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        assert main(["solve", str(tmp_path / "absent.json")]) == 2
        assert "config" in capsys.readouterr().err

    # The output path names a file, or lies beneath one.
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_an_output_path_that_is_no_directory_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         below):
        blocker = tmp_path / "out"
        blocker.write_text("a file")
        monkeypatch.setenv("DCSTOP_OUT", str(blocker / below))
        assert main(["solve", self.write(tmp_path, base_config())]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: DCSTOP_OUT: {blocker / below} is not a usable "
                              "directory (")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "out"]
        assert blocker.read_text() == "a file"

    def test_unparsable_json(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_measure_section(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        del config["measure"]
        assert main(["solve", self.write(tmp_path, config)]) == 2
        assert "measure" in capsys.readouterr().err

    def test_too_many_atoms(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["lattice"]["depth"] = 6
        config["measure"] = [{"t": float(i), "w": 0.2} for i in range(1, 6)]
        assert main(["solve", self.write(tmp_path, config)]) == 2
        assert "atoms" in capsys.readouterr().err

    def test_off_grid_atom(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["measure"] = [{"t": 1.5, "w": 1.0}]
        assert main(["solve", self.write(tmp_path, config)]) == 2
        capsys.readouterr()

    # At dt = 1e-10 the two atoms merged into one and the off-grid 1.5e-10
    # snapped onto a step; both commands ran on and exited 0.
    @pytest.mark.parametrize("measure", [[{"t": 2e-10, "w": 0.5}, {"t": 4e-10, "w": 0.5}],
                                         [{"t": 1.5e-10, "w": 1.0}]])
    @pytest.mark.parametrize("command", ["solve", "oracle"])
    def test_a_step_too_fine_to_keep_atoms_apart_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         command, measure):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = {**base_config(), "lattice": {"depth": 4, "dt": 1e-10}, "measure": measure}
        assert main([command, self.write(tmp_path, config)]) == 2
        assert "lattice: dt must exceed 3e-09, got 1e-10" in capsys.readouterr().err

    def test_bad_resolution(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["solver"]["resolution"] = "many"
        assert main(["solve", self.write(tmp_path, config)]) == 2
        assert "resolution" in capsys.readouterr().err

    # Each section replacement holds one "@", written as the raw JSON token.
    @pytest.mark.parametrize("sections, token", [
        ({"measure": [{"t": 1.0, "w": "@"}, {"t": 2.0, "w": 1.0}]}, "NaN"),
        ({"measure": [{"t": 1.0, "w": 0.5}, {"t": "@", "w": 0.5}]}, "1e999"),
        ({"measure": [{"t": 2.0, "w": "@"}]}, "true"),
        ({"lattice": {"depth": "@", "dt": 1.0}, "measure": [{"t": 1.0, "w": 1.0}]}, "true"),
        ({"lattice": {"depth": "@", "dt": 1.0}}, "2.7"),
        ({"lattice": {"depth": 2, "dt": 1.0, "augment_max": "@"}}, '"no"'),
        ({"cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": "@"}}},
         "NaN"),
        ({"cost": {"kind": "terminal", "name": "polynomial", "params": {"coeffs": ["@"]}}},
         "true"),
    ])
    def test_malformed_numbers_exit_2(self, tmp_path, monkeypatch, capsys, sections, token):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = {**base_config(), **sections}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config).replace('"@"', token))
        assert main(["solve", str(path)]) == 2
        assert "invalid input" in capsys.readouterr().err

    # Containers of the wrong shape: lists for objects, objects for lists,
    # strings whose characters would be read as items.
    MEASURE_SHAPE = "measure: must be a list of objects with 't' and 'w'"
    POLYNOMIAL2_SHAPE = "cost: polynomial2 cost needs params['coeffs'] as a list of number lists"

    @pytest.mark.parametrize("section, value, message", [
        ("measure", [[1.0, 0.5], [2.0, 0.5]], MEASURE_SHAPE),
        ("measure", {"t": 1.0, "w": 1.0}, MEASURE_SHAPE),
        ("measure", [{"t": 1.0, "w": 0.5}, "tw"], MEASURE_SHAPE),
        ("measure", [{"t": 2.0}], MEASURE_SHAPE),
        ("measure", "tw", MEASURE_SHAPE),
        ("cost", {"kind": "markov", "name": "polynomial2", "params": {"coeffs": [{"10": 1.0}]}},
         POLYNOMIAL2_SHAPE),
        ("cost", {"kind": "markov", "name": "polynomial2", "params": {"coeffs": [[0.5], "12"]}},
         POLYNOMIAL2_SHAPE),
        ("cost", {"kind": "markov", "name": "polynomial2", "params": {"coeffs": {"0": [1.0]}}},
         POLYNOMIAL2_SHAPE),
        ("cost", {"kind": "terminal", "name": "polynomial", "params": {"coeffs": "12"}},
         "cost: polynomial cost needs params['coeffs'] as a number list"),
        # Each message names its section once.
        ("lattice", {"depth": 2}, "lattice: missing field 'dt'"),
        ("lattice", [2, 1.0], "lattice: must be an object"),
        ("cost", {"kind": "terminal"}, "cost: missing field 'name'"),
        ("cost", "indicator", "cost: must be an object"),
    ])
    def test_malformed_containers_exit_2(self, tmp_path, monkeypatch, capsys, section, value,
                                         message):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = {**base_config(), section: value}
        assert main(["solve", self.write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert os.listdir(tmp_path) == ["bad.json"]

    @pytest.mark.parametrize("command", ["solve", "validate"])
    def test_a_zero_weight_atom_before_time_zero_exits_2(self, tmp_path, monkeypatch, capsys,
                                                         command):
        # Dropped with its zero weight before its time was read, it exited 0.
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["measure"].append({"t": -1.0, "w": 0.0})
        assert main([command, self.write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: measure: atoms must be strictly positive, got -1.0\n")
        assert os.listdir(tmp_path) == ["bad.json"]

    # One misspelled key per section, and two keys that are not settings.
    @pytest.mark.parametrize("section, key, value", [
        ("config", "sede", 7),
        ("lattice", "augmentmax", True),
        ("cost", "parms", {"threshold": 1.0}),
        ("cost", "holder2_constant", 1e9),
        ("measure", "weight", 0.5),
        ("solver", "resolutoin", 200),
        ("solver", "debug", True),
        ("simulate", "path", 10),
        ("stability", "grid", [[2.0]]),
    ])
    @pytest.mark.parametrize("command", ["solve", "oracle", "stability"])
    def test_unknown_key_exits_2(self, tmp_path, monkeypatch, capsys, command, section, key,
                                 value):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        if section == "config":
            config[key] = value
        elif section == "measure":
            config["measure"][-1][key] = value
        else:
            config[section][key] = value
        assert main([command, self.write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == f"invalid input: {section}: unknown key {key!r}\n"
        assert not (tmp_path / "result.json").exists()

    def test_a_config_that_is_no_object_exits_2(self, workspace, capsys):
        config_path, out = workspace
        config_path.write_text(json.dumps([base_config()]))
        assert main(["solve", str(config_path)]) == 2
        assert capsys.readouterr().err == "invalid input: config: top level must be an object\n"
        assert os.listdir(out) == []

    # The keys a config takes are read off SETTINGS, so one new row is all a
    # new setting needs, in a section that exists or in a new one.
    @pytest.mark.parametrize("section", ["simulate", "batch"])
    def test_a_new_settings_row_takes_its_key(self, tmp_path, monkeypatch, section):
        row = (section, "chunk", 1, cli._count(1), f"{section}: chunk must be a positive integer")
        monkeypatch.setattr(cli, "SETTINGS", cli.SETTINGS + (row,))
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config.setdefault(section, {})["chunk"] = 4
        assert main(["solve", self.write(tmp_path, config)]) == 0

    @pytest.mark.parametrize("command", ["solve", "oracle", "stability"])
    def test_unread_cost_parameter_exits_2(self, tmp_path, monkeypatch, capsys, command):
        # positive_part reads no threshold; it used to solve max(w, 0) and exit 0.
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["cost"] = {"kind": "terminal", "name": "positive_part",
                          "params": {"threshold": 1.0}}
        assert main([command, self.write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: cost: positive_part cost reads no params['threshold']\n")
        assert not (tmp_path / "result.json").exists()

    # dict() would read a list of pairs, such as [["threshold", 1.0]], as the
    # object {"threshold": 1.0}; every value that is not an object is refused.
    @pytest.mark.parametrize("params", [[], [["threshold", 1.0]], None, "ab", 5])
    def test_non_object_cost_params_exit_2(self, tmp_path, monkeypatch, capsys, params):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["cost"]["params"] = params
        assert main(["solve", self.write(tmp_path, config)]) == 2
        assert capsys.readouterr().err == "invalid input: cost: params must be an object\n"
        assert not (tmp_path / "result.json").exists()

    def test_a_history_lattice_with_augment_max_exits_2(self, workspace, capsys):
        config_path, out = workspace
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": 2, "dt": 1.0, "augment_max": True,
                                         "mode": "history"}}))
        assert main(["solve", str(config_path)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: lattice: augment_max applies to recombining lattices only: "
            "a history node already carries its running maximum\n")
        assert not (out / "result.json").exists()

    @pytest.mark.parametrize("command, sections, message", [
        ("simulate", {"seed": -1}, "seed: must be a non-negative integer"),
        ("validate", {"seed": -1}, "seed: must be a non-negative integer"),
        ("stability", {"stability": {"grids": [[2.0], ["a", 2.0]]}},
         "stability: grid time must be a finite number, got 'a'"),
        ("stability", {"stability": {"grids": [[2.0], [True, 2.0]]}},
         "stability: grid time must be a finite number, got True"),
        ("stability", {"stability": {}}, "stability: needs a grids list"),
        ("stability", {"stability": {"grids": [[2.0], 2.0]}},
         "stability: grids must be a list of time lists"),
        ("stability", {"stability": {"grids": 2.0}},
         "stability: grids must be a list of time lists"),
    ])
    def test_holes_of_the_running_command_exit_2(self, tmp_path, monkeypatch, capsys,
                                                 command, sections, message):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = self.write(tmp_path, {**base_config(), **sections})
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert os.listdir(tmp_path) == ["bad.json"]

    # Each setting is checked whichever command runs, also one that never reads it.
    @pytest.mark.parametrize("sections, message", [
        ({"seed": -1}, "seed: must be a non-negative integer"),
        ({"solver": 5}, "solver: must be an object"),
        ({"solver": {"resolution": 0}}, "solver: resolution must be a positive integer"),
        ({"simulate": {"paths": 0}}, "simulate: paths must be a positive integer"),
        ({"stability": {"grids": [["a"]]}},
         "stability: grid time must be a finite number, got 'a'"),
    ], ids=["seed", "solver", "resolution", "paths", "grids"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_every_command_checks_every_setting(self, workspace, capsys, command, sections,
                                                message):
        config_path, out = workspace
        config_path.write_text(json.dumps({**base_config(), **sections}))
        assert main([command, str(config_path)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert not (out / "result.json").exists()


class TestGuardsBeforeWork:
    @pytest.mark.parametrize("command, depth, expensive, message", [
        ("compare", 13, "dcstop.dpp.solve", "oracle tree has 2^13 paths (limit 2^12)"),
        ("policy", 17, "dcstop.dpp.solve", "law tree walks 2^17 histories (limit 2^16)"),
        ("validate", 17, "dcstop.cli.feasible_kernel",
         "law tree walks 2^17 histories (limit 2^16)"),
        # The float oracle takes depth 12; the exact route stops at the last
        # decision step, 11 here.
        ("oracle --exact", 12, "dcstop.cli.build_lp",
         "exact oracle LP branches to its last decision step 11 (limit 10)"),
    ])
    def test_depth_guard_fires_first(self, tmp_path, monkeypatch, capsys,
                                     command, depth, expensive, message):
        def expensive_call(*args, **kwargs):
            raise AssertionError("the expensive call ran before the depth guard")

        monkeypatch.setattr(expensive, expensive_call)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["lattice"]["depth"] = depth
        config["measure"] = [{"t": depth - 1.0, "w": 0.5}, {"t": float(depth), "w": 0.5}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([*command.split(), str(path)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("command", ["solve", "stability"])
    @pytest.mark.parametrize("lattice, atoms", [
        ({"depth": 100000, "dt": 1.0}, [100000.0]),
        ({"depth": 400, "dt": 1.0, "augment_max": True}, [200.0, 400.0]),
    ])
    def test_lattice_size_guard_fires_first(self, tmp_path, monkeypatch, capsys,
                                            command, lattice, atoms):
        def expensive_call(*args, **kwargs):
            raise AssertionError("the expensive call ran before the lattice size guard")

        monkeypatch.setattr("dcstop.dpp.SimplexGrid", expensive_call)
        monkeypatch.setattr("dcstop.stability.modulus", expensive_call)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["lattice"] = lattice
        config["measure"] = [{"t": t, "w": 1.0 / len(atoms)} for t in atoms]
        config["stability"] = {"grids": [atoms]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"invalid input: lattice holds more than 1000000 nodes up to step {int(atoms[-1])}; "
            "lower the depth or the last atom time\n")

    # Every command refuses the grid, whether it builds one or not.
    @pytest.mark.parametrize("command", COMMANDS)
    def test_grid_size_guard_fires_first(self, tmp_path, monkeypatch, capsys, command):
        def expensive_call(*args, **kwargs):
            raise AssertionError("the command ran before the grid size guard")

        for name in ("dcstop.dpp.solve", "dcstop.cli.convergence_sweep", "dcstop.cli.build_lp",
                     "dcstop.cli.feasible_kernel"):
            monkeypatch.setattr(name, expensive_call)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path / "out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**README_CONFIG, "solver": {"resolution": 10 ** 6}}))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "invalid input: simplex grid would hold 1000001 points (limit 1000000); "
            "lower the resolution\n")
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize("command", ["compare", "policy", "stability"])
    def test_gates_build_no_grid(self, tmp_path, monkeypatch, command):
        def grid(*args, **kwargs):
            raise AssertionError("a simplex grid was built")

        monkeypatch.setattr("dcstop.dpp.SimplexGrid", grid)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(README_CONFIG))
        assert main([command, str(path)]) == 0

    def test_path_guard_fires_first(self, tmp_path, monkeypatch, capsys):
        def build_lp(*args, **kwargs):
            raise AssertionError("the LP was built before the path guard")

        monkeypatch.setattr("dcstop.cli.build_lp", build_lp)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["simulate"]["paths"] = 10 ** 12
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err == \
            "invalid input: simulation of 1000000000000 paths (limit 100000000)\n"


class TestNumericalFailures:
    """A failing numerical routine is a typed error with exit 2, not a traceback."""

    def write(self, tmp_path, monkeypatch, config):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_qhull_error(self, tmp_path, monkeypatch, capsys):
        def hull(*args, **kwargs):
            raise QhullError("QH6154 Qhull precision error: initial simplex is flat\nmore")

        monkeypatch.setattr("dcstop.dpp.ConvexHull", hull)
        config = base_config()
        config["lattice"]["depth"] = 3
        config["measure"] = [{"t": 1.0, "w": 0.25}, {"t": 2.0, "w": 0.25}, {"t": 3.0, "w": 0.5}]
        assert main(["solve", self.write(tmp_path, monkeypatch, config)]) == 2
        assert re.fullmatch(
            r"invalid input: qhull failed on a cloud of \d+ points for k = 3: "
            r"QH6154 Qhull precision error: initial simplex is flat\n",
            capsys.readouterr().err)

    def test_a_hull_with_no_upper_facet_exits_2(self, tmp_path, monkeypatch, capsys):
        # Every facet faces down, as qhull can report for a cloud whose values
        # dwarf its width.
        monkeypatch.setattr("dcstop.dpp.ConvexHull", lambda points: SimpleNamespace(
            equations=np.array([[0.0, 0.0, -1.0, 0.0]]), simplices=np.array([[0, 1, 2]])))
        config = base_config()
        config["lattice"]["depth"] = 3
        config["measure"] = [{"t": 1.0, "w": 0.25}, {"t": 2.0, "w": 0.25}, {"t": 3.0, "w": 0.5}]
        assert main(["solve", self.write(tmp_path, monkeypatch, config)]) == 2
        assert re.fullmatch(r"invalid input: qhull found no upper facet on a cloud of \d+ "
                            r"points for k = 3\n", capsys.readouterr().err)

    def test_a_failed_facet_split_exits_2(self, workspace, monkeypatch, capsys):
        config_path, out = workspace
        monkeypatch.setattr("dcstop.dpp.nnls", lambda a, b: (np.zeros(a.shape[1]), 1.0))
        assert main(["policy", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: no facet vertices split [")
        assert "least-squares residual 1.000e+00, weight 0.000e+00" in err
        assert not (out / "policy.json").exists()


STOP, SUMS, CONSTANT = (f"cost: {what} is not a finite float" for what in (
    "a stop cost", "a sum of stop costs", "the continuity constant"))
# name: ((form, coeffs), depth, refusal by the commands that price a stop, by
# stability).  Stop costs past the floats (big, and mk through the polynomial2
# branch), finite stop costs whose sums are not (huge), finite stop costs and
# shifts whose step-1 update sums two apexes of -1e308 (msum: the solver's
# pair supremum refuses it, and the LP's sum), and a cost whose continuity
# constant passes the floats only on levels no atom reaches (far: solve
# prices it, and stability's constant ranges up to the horizon only).
OVERFLOW_COSTS = {
    "big": (("polynomial", [0, 0, 1e308]), 4, STOP, CONSTANT),
    "mk": (("polynomial2", [[0], [0], [1e308]]), 4, STOP, "no modulus route for markov costs"),
    "huge": (("polynomial", [1e308, 1e307]), 4, SUMS, SUMS),
    "msum": (("polynomial2", [[-8.333333333333333e+307, 0, 8.333333333333333e+306]]), 4, SUMS,
             "no modulus route for markov costs"),
    "far": (("polynomial", [0, 0, 1e306]), 200, None, None),
}


class TestCostsPastTheFloats:
    @pytest.mark.parametrize("name", sorted(OVERFLOW_COSTS))
    @pytest.mark.parametrize("argv", [[c] for c in COMMANDS] + [["oracle", "--exact"]],
                             ids=" ".join)
    def test_refused_with_exit_2(self, workspace, capsys, name, argv):
        config_path, out = workspace
        (form, coeffs), depth, refusal, modulus_refusal = OVERFLOW_COSTS[name]
        config_path.write_text(json.dumps({
            **base_config(), "lattice": {"depth": depth, "dt": 1.0},
            "cost": {"kind": "markov" if form == "polynomial2" else "terminal", "name": form,
                     "params": {"coeffs": coeffs}},
            "measure": [{"t": 2.0, "w": 0.5}, {"t": 4.0, "w": 0.5}],
            "stability": {"grids": [[4.0], [2.0, 4.0]]}}))
        code = main([argv[0], str(config_path), *argv[1:]])
        refusal = modulus_refusal if argv[0] == "stability" else refusal
        if argv[0] == "validate":  # the feasibility witness prices no stop
            assert code == 0
        elif refusal:
            assert (code, capsys.readouterr().err) == (2, f"invalid input: {refusal}\n")
        elif argv[0] == "solve":
            assert (code, read_result(out)["value"]) == (0, 3e306)
        elif argv[0] == "stability":
            assert (code, read_result(out)["all_within"]) == (0, True)
        else:  # the float LP may refuse costs this large, but not crash
            assert code in (0, 2)
        for path in out.glob("*"):
            assert not re.search("nan|inf", path.read_text(), re.IGNORECASE)

    def test_a_power_that_overflows_exits_2(self, workspace, capsys):
        # ``**`` on Python floats raises where numpy would give inf.
        config_path, out = workspace
        config_path.write_text(json.dumps({
            "lattice": {"depth": 1, "dt": 1e250},
            "cost": {"kind": "markov", "name": "polynomial2",
                     "params": {"coeffs": [[0], [0], [0], [1]]}},
            "measure": [{"t": 1e250, "w": 1.0}]}))
        assert main(["solve", str(config_path)]) == 2
        assert capsys.readouterr().err == f"invalid input: {STOP}\n"
        assert not (out / "result.json").exists()


class TestVerificationFailure:
    def test_an_internal_assertion_is_no_failed_verification(self, workspace, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("internal")

        monkeypatch.setattr("dcstop.dpp.solve", solve)
        config_path, _ = workspace
        with pytest.raises(AssertionError, match="internal"):
            main(["solve", str(config_path)])

    def test_zero_modulus_constant_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        # A zero continuity constant shrinks every bound to 2 AGREE_TOL; the
        # half-step projection gap is far larger, so the sweep must report
        # failure, not paper over it.
        monkeypatch.setattr("dcstop.cost.holder2_constant_from_range", lambda cost, spec: 0.0)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config()))
        assert main(["stability", str(path)]) == 3
        assert "verification failed" in capsys.readouterr().err
        with open(tmp_path / "result.json") as fh:
            assert json.load(fh)["all_within"] is False

    # A failed tree check writes what the command computed, then exits 3.
    @pytest.mark.parametrize("command, message, files, payload", [
        ("policy", 'policy tree violates martingale at {"step": 1, "history": "U"} '
         "(residual 1.000e-03)", ["policy.json", "result.json"],
         {"value": pytest.approx(0.5, abs=1e-9)}),
        ("validate", "witness tree violates martingale (residual 1.000e-03)", ["result.json"],
         {"ok": False, "atom_steps": [1, 2]}),
    ], ids=["policy", "validate"])
    def test_a_failed_tree_check_writes_its_outputs_first(self, workspace, monkeypatch, capsys,
                                                          command, message, files, payload):
        violation = MvmViolation(NodeId(step=1, history=(1,)), "martingale", 1e-3)
        monkeypatch.setattr(cli, "validate", lambda tree, mu: violation)
        config_path, out = workspace
        assert main([command, str(config_path)]) == 3
        assert capsys.readouterr().err == f"verification failed: {message}\n"
        assert sorted(os.listdir(out)) == files
        result = read_result(out)
        assert {key: result[key] for key in payload} == payload

    def test_a_simulated_mean_past_six_stderr_fails(self, workspace, monkeypatch, capsys):
        simulate = cli.simulate

        def biased(kernel, cost, n_paths, seed):
            report = simulate(kernel, cost, n_paths, seed)
            return dataclasses.replace(
                report, mean=objective_value(kernel, cost) + 7.0 * report.stderr)

        monkeypatch.setattr(cli, "simulate", biased)
        config_path, out = workspace
        assert main(["simulate", str(config_path)]) == 3
        assert capsys.readouterr().err == "verification failed: simulated mean off by 7.0 stderr\n"
        assert os.listdir(out) == ["result.json"]
        result = read_result(out)
        assert result["deviation"] == pytest.approx(7.0 * result["stderr"], rel=1e-9)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "dcstop" in capsys.readouterr().out

    def test_parser_is_built_once(self, workspace, monkeypatch):
        def build_parser():
            raise AssertionError("main built a parser")

        monkeypatch.setattr("dcstop.cli.build_parser", build_parser)
        config_path, out = workspace
        assert main(["solve", str(config_path)]) == 0
        assert read_result(out)["value"] == pytest.approx(0.5, abs=1e-9)

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
