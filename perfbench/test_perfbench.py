"""The benchmark's own tests, on its smoke mode (one tiny instance per workload).

Run from the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str) -> tuple[dict, dict]:
    """Run the benchmark; return its final JSON line and its results file."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke", "--seconds", "0", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    record = next(line for line in lines if line.startswith("record: ")).split(": ", 1)[1]
    return json.loads(lines[-1]), json.loads((ROOT / record).read_text())


def test_declared_metrics_match_the_code():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.GATED)
    declared = {m["name"]: m for m in BENCHMARK["per_layer"]}
    assert list(declared) == [name for name, _, _ in PER_LAYER]
    for name, unit, better in PER_LAYER:
        assert (declared[name]["unit"], declared[name]["better"]) == (unit, better)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    summary, results = bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] == 3 * sum(len(i.commands)
                                           for i in workloads.instances(workload, smoke=True))
    gated = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == gated
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    assert {k: v["unit"] for k, v in results["metrics"].items()} == {
        name: unit for name, unit in run.END_TO_END}
    assert results["metrics"]["failed_frac"]["value"] == 0
    record = results["run"]
    for key in ("git_sha", "nproc", "cpu_model", "python", "numpy", "scipy", "seed",
                "attempted", "failed"):
        assert key in record
    assert record["blas_threads"] == "1"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_matches_untraced_output(workload):
    summary, results = bench("--workload", workload, "--seed", "3", "--trace", "1")
    assert summary["correct"] and summary["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == declared
    untraced, traced = results["workloads"][0]["passes"]
    assert [op["hash"] for op in traced["ops"]] == [op["hash"] for op in untraced["ops"]]
    assert traced["restored"]
    # The anchor block makes every layer work in every workload.
    for name, unit, _ in PER_LAYER:
        if unit in ("s", "count"):
            assert summary["metrics"][name]["value"] > 0, name


def test_wrong_reference_counts_as_failure(tmp_path):
    ref = json.loads((HERE / "reference.json").read_text())
    key = workloads.instances("sweep", smoke=True)[0].key
    ref["keys"][key] = [[g + 1e-3 for g in piece] for piece in ref["keys"][key]]
    wrong = tmp_path / "reference.json"
    wrong.write_text(json.dumps(ref))
    summary, results = bench("--workload", "sweep", "--seed", "3", "--trace", "0",
                             "--reference", str(wrong))
    assert not summary["correct"]
    # compare and oracle --exact on that key, in each of the three passes
    assert summary["failed"] == 6
    assert all(key in line for line in results["workloads"][0]["failures"])
    assert results["metrics"]["failed_frac"]["value"] == 6 / summary["attempted"]


def test_wrappers_restore_the_original_functions():
    import dcstop.cli as cli
    import dcstop.dpp as dpp
    import dcstop.oracle as oracle

    names = [(cli, "main"), (cli, "build_lp"), (oracle, "solve_lp"), (dpp, "pair_sup"),
             (dpp, "nodes_at_step")]
    methods = [(dpp.SimplexGrid, "max_adjacent_diff"), (dpp.ConcavePL, "evaluate_batch")]
    before = [getattr(o, a) for o, a in names] + [o.__dict__[a] for o, a in methods]
    tracer = Tracer()
    tracer.install()
    during = [getattr(o, a) for o, a in names] + [o.__dict__[a] for o, a in methods]
    assert all(x is not y for x, y in zip(before, during))
    dpp.SimplexGrid(2, 3).max_adjacent_diff([0.0, 1.0, 2.0, 3.0])
    assert tracer.uninstall()
    after = [getattr(o, a) for o, a in names] + [o.__dict__[a] for o, a in methods]
    assert all(x is y for x, y in zip(before, after))
    assert [s[0] for s in tracer.spans] == ["dpp.grid.build", "dpp.slack"]


def test_missing_sources_fail_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in HERE.iterdir():
        if path.is_file():
            (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
