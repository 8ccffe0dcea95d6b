"""Command-line pipelines: outputs, determinism, exit codes."""

from __future__ import annotations

import json

import pytest

from dcstop import (
    LatticeSpec,
    kernel_from_json,
    mvm_from_json,
    objective_value,
    validate,
)
from dcstop.cli import main


def base_config() -> dict:
    return {
        "lattice": {"depth": 2, "dt": 1.0, "mode": "recombining", "augment_max": False},
        "cost": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
        "measure": [{"t": 1.0, "w": 0.5}, {"t": 2.0, "w": 0.5}],
        "solver": {"resolution": 20, "debug": True},
        "seed": 7,
        "simulate": {"paths": 20000},
        "stability": {"grids": [[2.0], [1.0, 2.0]]},
    }


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
        assert len(payload["table_digest"]) == 64
        assert "config_digest" in payload
        assert "version" in payload

    def test_rerun_is_byte_identical(self, workspace):
        config_path, out = workspace
        assert main(["solve", str(config_path)]) == 0
        first = (out / "result.json").read_bytes()
        assert main(["solve", str(config_path)]) == 0
        assert (out / "result.json").read_bytes() == first


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
        report = validate(tree, mu=DiscreteMeasure((1.0, 2.0), (0.5, 0.5)))
        assert report.ok


class TestOracle:
    def test_float_pivoting(self, workspace):
        config_path, out = workspace
        assert main(["oracle", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["status"] == "optimal"
        assert payload["value"] == pytest.approx(0.5, abs=1e-9)
        assert payload["exact"] is False
        assert payload["duality_gap"] <= 1e-9
        assert payload["variables"] == 6
        hist = LatticeSpec(depth=2, dt=1.0, mode="history")
        kernel = kernel_from_json(hist, payload["kernel"])
        from dcstop import CostSpec
        cost = CostSpec(kind="terminal", name="indicator", params={"threshold": 1.0})
        assert objective_value(kernel, hist, cost) == pytest.approx(0.5, abs=1e-9)

    def test_exact_pivoting(self, workspace):
        config_path, out = workspace
        assert main(["oracle", str(config_path), "--exact"]) == 0
        payload = read_result(out)
        assert payload["value"] == 0.5
        assert payload["exact"] is True


class TestCompare:
    def test_routes_agree(self, workspace):
        config_path, out = workspace
        assert main(["compare", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["agree"] is True
        assert payload["difference"] <= payload["tolerance"]


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


class TestStability:
    def test_sweep_and_csv(self, workspace):
        config_path, out = workspace
        assert main(["stability", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["all_within"] is True
        assert payload["levels"] == 2
        table = (out / "table.csv").read_text().strip().splitlines()
        assert len(table) == 3  # header plus one line per grid


class TestValidate:
    def test_feasibility_witness(self, workspace):
        config_path, out = workspace
        assert main(["validate", str(config_path)]) == 0
        payload = read_result(out)
        assert payload["ok"] is True
        assert payload["atom_steps"] == [1, 2]


class TestConfigErrors:
    def write(self, tmp_path, config):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        return str(path)

    def test_missing_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        assert main(["solve", str(tmp_path / "absent.json")]) == 2
        assert "config" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command, sections, message", [
        ("simulate", {"seed": -1}, "seed: must be a non-negative integer"),
        ("validate", {"seed": -1}, "seed: must be a non-negative integer"),
        ("stability", {"stability": {"grids": [[2.0], ["a", 2.0]]}},
         "stability: grid time must be a finite number, got 'a'"),
        ("stability", {"stability": {"grids": [[2.0], [True, 2.0]]}},
         "stability: grid time must be a finite number, got True"),
    ])
    def test_holes_of_the_running_command_exit_2(self, tmp_path, monkeypatch, capsys,
                                                 command, sections, message):
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        path = self.write(tmp_path, {**base_config(), **sections})
        assert main([command, path]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


class TestGuardsBeforeWork:
    @pytest.mark.parametrize("command, depth, expensive, message", [
        ("compare", 13, "dcstop.dpp.solve", "oracle tree has 2^13 paths (limit 2^12)"),
        ("policy", 13, "dcstop.dpp.solve",
         "policy extraction walks 2^13 histories (limit 2^12)"),
        ("validate", 17, "dcstop.rst.feasible_kernel",
         "law tree from a kernel walks 2^17 histories (limit 2^16)"),
    ])
    def test_depth_guard_fires_first(self, tmp_path, monkeypatch, capsys,
                                     command, depth, expensive, message):
        def expensive_call(*args, **kwargs):
            raise AssertionError("the expensive call ran before the depth guard")

        monkeypatch.setattr(expensive, expensive_call)
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["lattice"]["depth"] = depth
        config["measure"] = [{"t": 1.0, "w": 0.5}, {"t": float(depth), "w": 0.5}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"invalid input: {message}\n"


class TestVerificationFailure:
    def test_zero_modulus_constant_fails_the_sweep(self, tmp_path, monkeypatch, capsys):
        # Claiming a zero continuity constant shrinks every bound to the
        # solver slacks; the half-step projection gap is far larger, so the
        # sweep must report failure, not paper over it.
        monkeypatch.setenv("DCSTOP_OUT", str(tmp_path))
        config = base_config()
        config["cost"]["holder2_constant"] = 0.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["stability", str(path)]) == 3
        assert "verification failed" in capsys.readouterr().err
        with open(tmp_path / "result.json") as fh:
            assert json.load(fh)["all_within"] is False


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "dcstop" in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        capsys.readouterr()
