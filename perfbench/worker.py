"""One pass over a workload's ops, in a fresh interpreter.

``run.py`` starts one worker per pass, so imports are paid in every pass and
no state of the program survives from one pass to the next.  The worker
imports dcstop from the checkout's ``src``, writes the configs, drives
``dcstop.cli.main(argv)`` in process as a single closed-loop client, then
hashes and checks every op's output and writes a JSON report to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SOLVER_TOL = 1e-9   # solver values against the recorded reference
ORACLE_TOL = 1e-6   # oracle values; dcstop.cli.COMPARE_TOL when recorded
OUTPUTS = ("result.json", "policy.json")


def expected_value(inst: workloads.Instance, w: list[float], reference: dict) -> float:
    """Closed form for an anchor, else the recorded root function at ``w``.

    The solver's root value is ``min_g g . w`` over the pieces of its root
    function, which depends on the key alone, so one recorded piece set per
    key gives the reference value for every seed.
    """
    if inst.cost == "identity":
        return 0.0
    if inst.cost == "square":
        return sum(t * x for t, x in zip(inst.steps, w))
    pieces = reference[inst.key]
    return min(sum(g_i * x for g_i, x in zip(g, w)) for g in pieces)


def check(cmd: str, result: dict, want: float) -> str | None:
    """Why an op's ``result.json`` is wrong, or None when it is right."""
    fields = {
        "solve": (("value", SOLVER_TOL),),
        "compare": (("solver_value", SOLVER_TOL), ("oracle_value", ORACLE_TOL)),
        "oracle_exact": (("value", ORACLE_TOL),),
        "policy": (("value", SOLVER_TOL),),
        "simulate": (("expected", ORACLE_TOL),),
    }[cmd]
    for field, tol in fields:
        got = result.get(field)
        if not isinstance(got, float) or not abs(got - want) <= tol:
            return f"{field} = {got!r}, reference {want!r} (tolerance {tol:g})"
    if cmd == "compare" and result.get("agree") is not True:
        return "compare reports disagreement"
    if cmd == "oracle_exact" and result.get("status") != "optimal":
        return f"oracle status {result.get('status')!r}"
    return None


class SpeedProbe:
    """Host slowdown, sampled between ops and outside their timed regions.

    On a shared host the same pass runs 20-70% slower for minutes at a time
    while neighbours load the machine, which no statistic over one run can
    remove.  Four fixed kernels that use no dcstop code are timed before
    every op and after the last one: an interpreter loop, tuple-keyed dict
    lookups like the grid slack loop, a qhull hull like ``pair_sup``, and row
    operations on a 4.8 MB array like the dense simplex.  A sample's factor
    is the geometric mean over the kernels of time / reference time, so 1.0
    means the reference speed.
    """

    # Kernel times on a lightly loaded 2-core Intel Xeon (Python 3.11, numpy 2.4).
    REFERENCE_S = {"interp": 0.9e-3, "lookup": 1.6e-3, "hull": 2.4e-3, "rows": 1.2e-3}

    def __init__(self):
        import numpy as np
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(0)
        points = rng.random((800, 4))
        table = rng.random((400, 1500))
        index = {(i, j, 200 - i - j): i for i in range(200) for j in range(200 - i)}
        keys = np.array(list(index)[:1500], dtype=np.int64)

        def interp():
            acc = 0
            for i in range(15_000):
                acc += i * i % 7

        def lookup():
            for p in keys:
                q = p.copy()
                q[0] += 1
                q[1] -= 1
                index.get(tuple(q.tolist()))

        def hull():
            ConvexHull(points)

        def rows():
            t = table.copy()
            for i in range(0, 400, 2):
                t[i] -= 0.5 * t[i + 1]

        self.kernels = {"interp": interp, "lookup": lookup, "hull": hull, "rows": rows}
        self.factors: list[float] = []
        self.seconds = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        ratios = []
        for name, kernel in self.kernels.items():
            t0 = time.perf_counter()
            kernel()
            ratios.append((time.perf_counter() - t0) / self.REFERENCE_S[name])
        self.factors.append(math.prod(ratios) ** (1.0 / len(ratios)))
        self.seconds += time.perf_counter() - start


def argv_of(cmd: str, path: str) -> list[str]:
    return ["oracle", "--exact", path] if cmd == "oracle_exact" else [cmd, path]


def run_pass(args) -> dict:
    import numpy
    import scipy

    import dcstop
    import dcstop.cli as cli

    if not Path(dcstop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"dcstop imported from {dcstop.__file__}, not from {ROOT / 'src'}")
    insts = workloads.instances(args.workload, args.smoke)
    work = Path(args.work)
    ops = []
    for i, inst in enumerate(insts):
        path = work / f"cfg{i}.json"
        path.write_text(json.dumps(workloads.config(args.seed, inst)))
        for cmd in inst.commands:
            out = work / f"op{len(ops)}"
            out.mkdir()
            ops.append((inst, cmd, argv_of(cmd, str(path)), str(out)))

    # Set-up ends here; the speed probe and the trace are the benchmark's own.
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    probe = SpeedProbe()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    sink = io.StringIO()
    records = []
    clock = time.perf_counter
    pass_start = clock()
    for i, (inst, cmd, argv, out) in enumerate(ops):
        os.environ["DCSTOP_OUT"] = out
        tracer.op = i
        sink.seek(0)
        sink.truncate()
        error = None
        probe.sample()
        start = clock()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # an op that crashes is a failed op; the pass goes on
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        seconds = clock() - start
        if rc != 0 and error is None:
            error = f"exit code {rc}: {sink.getvalue().strip()[-300:]}"
        records.append({"key": inst.key, "cmd": cmd, "seconds": seconds, "rc": rc, "error": error})
    probe.sample()
    wall_s = clock() - pass_start - probe.seconds
    # An op's slowdown is the mean of the samples taken just before and after it.
    for rec, before, after in zip(records, probe.factors, probe.factors[1:]):
        rec["slowdown"] = (before + after) / 2
    restored = tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reference = json.loads(Path(args.reference).read_text())["keys"]
    out_bytes = 0
    for (inst, cmd, _, out), rec in zip(ops, records):
        digest = hashlib.sha256()
        for name in OUTPUTS:
            path = Path(out) / name
            if path.exists():
                data = path.read_bytes()
                out_bytes += len(data)
                digest.update(name.encode() + b"\0" + data)
        rec["hash"] = digest.hexdigest()
        if rec["error"] is not None:
            continue
        try:
            result = json.loads((Path(out) / "result.json").read_text())
            w = workloads.weights(args.seed, inst)
            rec["error"] = check(cmd, result, expected_value(inst, w, reference))
        except (OSError, ValueError, KeyError) as exc:
            rec["error"] = f"unreadable output or no reference: {type(exc).__name__}: {exc}"
        if cmd == "policy" and rec["error"] is None and not (Path(out) / "policy.json").exists():
            rec["error"] = "policy.json missing"

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "slowdown": statistics.median(probe.factors),
        "ops": records,
        "restored": restored,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "dcstop": dcstop.__version__,
        },
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    if args.trace:
        report["per_layer"] = tracer.metrics(out_bytes)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--reference", required=True)
    parser.add_argument("--work", required=True, help="empty directory for configs and outputs")
    parser.add_argument("--out", required=True, help="where to write the JSON report")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process started")
    args = parser.parse_args(argv)
    report = run_pass(args)
    Path(args.out).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
