"""Record the reference root functions the benchmark checks values against.

For every non-anchor instance key of every workload (full and smoke), store
the pieces ``g`` of the solver's root function; the value of a target law
``w`` is ``min_g g . w``.  Run from the root of the repository:

    python3 perfbench/record_reference.py

It rewrites ``perfbench/reference.json``.  Record once per intended change of
the program's values; a run whose values leave these references fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from dcstop import CostSpec, DiscreteMeasure, LatticeSpec, root, solve  # noqa: E402


def root_pieces(inst: workloads.Instance) -> list[list[float]]:
    spec = LatticeSpec(depth=inst.depth, dt=1.0, augment_max=inst.lattice == "max")
    c = workloads.COSTS[inst.cost]
    cost = CostSpec(kind=c["kind"], name=c["name"], params=c.get("params", {}))
    n = len(inst.steps)
    mu = DiscreteMeasure([float(s) for s in inst.steps], [1.0 / n] * n)
    table = solve(spec, cost, mu, resolution=1)
    return table.reps[(0, root(spec))].pieces.tolist()


def main() -> int:
    keys = {}
    for workload in workloads.WORKLOADS:
        for smoke in (False, True):
            for inst in workloads.instances(workload, smoke):
                if inst.cost not in workloads.ANCHORS and inst.key not in keys:
                    keys[inst.key] = root_pieces(inst)
                    print(f"{inst.key}: {len(keys[inst.key])} pieces", flush=True)
    out = HERE / "reference.json"
    out.write_text(json.dumps({"keys": keys}, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
