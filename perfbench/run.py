"""dcstop benchmark: three CLI workloads, end-to-end and per-layer figures.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` runs untraced passes, each in a fresh interpreter, until
``--seconds`` have gone by (at least three), and reports each op at its
median over the passes.
``--trace 1`` runs one untraced and one traced pass of the same seed and ops
and reports the per-layer figures of the traced one.  ``--workload all`` runs
the three workloads in turn.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A full
record of the run goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

MIN_PASSES = 3
RUN_BUDGET_S = 150.0        # start no pass that could end past this
# (metric, unit): the end-to-end figures, all from untraced passes, lower is
# better.  BENCHMARK.json gates only GATED: raw wall_s drifts with the host's
# load, and a command's sum is anchor-sized where the workload does not run it.
END_TO_END = (
    ("wall_ref_s", "s"),
    ("wall_s", "s"),
    ("host_slowdown", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    *((f"{cmd}_s", "s") for cmd in COMMANDS),
    ("failed_frac", "ratio"),
)
GATED = ("wall_ref_s", "setup_s", "peak_rss_mb")


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def spawn_pass(workload: str, seed: int, trace: int, smoke: bool, reference: Path,
               scratch: Path, timeout: float) -> dict:
    """Run one pass in a fresh interpreter and return its report."""
    work = Path(tempfile.mkdtemp(prefix="pass-", dir=scratch))
    out = work / "report.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--reference", str(reference),
           "--work", str(work), "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd += ["--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not out.exists():
        raise HarnessError(f"{workload} pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    report = json.loads(out.read_text())
    shutil.rmtree(work)
    return report


def failures(passes: list[dict]) -> list[str]:
    """Failed ops over all passes; an op whose output hash differs from the
    first pass's fails too, as does a traced pass that left a wrapper behind."""
    first = [op["hash"] for op in passes[0]["ops"]]
    out = []
    for n, p in enumerate(passes):
        if not p["restored"]:
            out.append(f"pass {n}: tracing wrappers not restored")
        for op, h in zip(p["ops"], first):
            if op["error"] is not None:
                out.append(f"pass {n} {op['cmd']} {op['key']}: {op['error']}")
            elif op["hash"] != h:
                out.append(f"pass {n} {op['cmd']} {op['key']}: output differs from pass 0")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
                 reference: Path, scratch: Path) -> dict:
    start = time.monotonic()

    def one(traced: int) -> dict:
        left = RUN_BUDGET_S + 25.0 - (time.monotonic() - start)
        return spawn_pass(workload, seed, traced, smoke, reference, scratch, max(left, 1.0))

    if trace:
        passes = [one(0), one(1)]
    else:
        passes = [one(0)]
        while True:
            elapsed = time.monotonic() - start
            longest = max(p["wall_s"] + p["setup_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed >= seconds:
                break
            if elapsed + 1.5 * longest > RUN_BUDGET_S:
                break
            passes.append(one(0))

    attempted = sum(len(p["ops"]) for p in passes)
    failed_ops = failures(passes)
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        untraced, traced = passes
        units = {name: unit for name, unit, _ in PER_LAYER}
        layer = dict(traced["per_layer"])
        ref_wall = lambda p: sum(op["seconds"] / op["slowdown"] for op in p["ops"])  # noqa: E731
        layer["trace.overhead_frac"] = ref_wall(traced) / ref_wall(untraced) - 1.0
        metrics = {name: (layer[name], units[name]) for name, _, _ in PER_LAYER}
    else:
        # Each op's time is its median over the passes, so a burst of host
        # load that slows part of one pass does not move the figure; for
        # wall_ref_s each time is first divided by the host slowdown measured
        # around that op.
        n = len(passes[0]["ops"])
        op_s = [statistics.median(p["ops"][i]["seconds"] for p in passes) for i in range(n)]
        ref_s = [statistics.median(p["ops"][i]["seconds"] / p["ops"][i]["slowdown"]
                                   for p in passes) for i in range(n)]
        med = lambda key: statistics.median(p[key] for p in passes)  # noqa: E731
        metrics["wall_ref_s"] = (sum(ref_s), "s")
        metrics["wall_s"] = (sum(op_s), "s")
        metrics["host_slowdown"] = (med("slowdown"), "ratio")
        metrics["setup_s"] = (med("setup_s"), "s")
        metrics["peak_rss_mb"] = (med("peak_rss_mb"), "MB")
        for cmd in COMMANDS:
            total = sum(t for t, op in zip(op_s, passes[0]["ops"]) if op["cmd"] == cmd)
            metrics[f"{cmd}_s"] = (total, "s")
        metrics["failed_frac"] = (len(failed_ops) / attempted, "ratio")
    return {
        "workload": workload,
        "passes": passes,
        "attempted": attempted,
        "failures": failed_ops,
        "metrics": metrics,
    }


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """Digest of the program's sources, which identifies it where git does not."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, results: list[dict]) -> dict:
    versions = results[0]["passes"][0]["versions"]
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "blas_threads": results[0]["passes"][0]["blas_threads"],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="untraced passes continue until this much time has gone by")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny instance per workload, for the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="recorded reference values (see record_reference.py)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a nonnegative integer")

    if not (ROOT / "src" / "dcstop" / "__init__.py").is_file():
        print(f"error: no dcstop sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not args.reference.is_file():
        print(f"error: no reference file {args.reference}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        results = [run_workload(w, args.seed, args.seconds, args.trace, args.smoke,
                                args.reference, scratch) for w in names]
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = run_record(args, results)
    metrics = {}
    prefixes = [""] if len(results) == 1 else [f"{r['workload']}." for r in results]
    for prefix, r in zip(prefixes, results):
        for name, (value, unit) in r["metrics"].items():
            metrics[prefix + name] = {"value": value, "unit": unit}
            print(f"{r['workload']:>6}  {name:<32} {value:.6g} {unit}")
        for line in r["failures"][:20]:
            print(f"{r['workload']:>6}  FAILED {line}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    tag = "smoke-" if args.smoke else ""
    out = out_dir / f"{tag}{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"run": record, "metrics": metrics, "workloads": results},
                              indent=1) + "\n")
    print(f"record: {out.relative_to(ROOT)}")

    reported = [name for name, _, _ in PER_LAYER] if args.trace else GATED
    summary = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {prefix + name: metrics[prefix + name]
                    for prefix in prefixes for name in reported},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
