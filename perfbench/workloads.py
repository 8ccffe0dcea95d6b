"""Instances and ops of the benchmark workloads.

An instance is one CLI config.  Its key is (lattice, cost, atom steps): the
block induction depends on nothing else, so no key appears twice in a pass and
a memo kept across calls cannot show a gain that a CLI user, who starts one
process per command, would never see.  The seed only draws the target-law
weights, so every seed does the same induction work and the figures of
different seeds are comparable.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

COSTS = {
    "abs": {"kind": "terminal", "name": "abs"},
    "positive_part": {"kind": "terminal", "name": "positive_part"},
    "indicator": {"kind": "terminal", "name": "indicator", "params": {"threshold": 1.0}},
    "running_max": {"kind": "running_max", "name": "identity"},
    # Closed-form anchors: the walk is a martingale, so the identity cost
    # prices to 0 and the square cost to E[tau] (dt = 1).
    "identity": {"kind": "terminal", "name": "identity"},
    "square": {"kind": "terminal", "name": "square"},
}
ANCHORS = ("identity", "square")
COMMANDS = ("solve", "compare", "oracle_exact", "policy", "simulate")
WORKLOADS = ("sweep", "deep", "oracle")


@dataclass(frozen=True)
class Instance:
    lattice: str                # "max" (max-augmented) or "rec" (recombining)
    depth: int
    cost: str                   # a key of COSTS
    steps: tuple[int, ...]      # atom steps; the last one is the horizon
    resolution: int
    commands: tuple[str, ...]   # run in this order, each one op
    paths: int = 0              # Monte Carlo paths for ``simulate``

    @property
    def key(self) -> str:
        return f"{self.lattice}{self.depth}/{self.cost}/{','.join(map(str, self.steps))}"


def even_steps(depth: int, atoms: int) -> tuple[int, ...]:
    """Atom steps spread evenly up to ``depth``; the costliest spacing for pair_sup."""
    return tuple(round(depth * i / atoms) for i in range(1, atoms + 1))


def anchor_block() -> list[Instance]:
    """Both anchors on a small lattice, through every command.

    Every workload runs it, so every command and layer is exercised (and
    checked against a closed form) in every workload.
    """
    return [Instance("max", 4, cost, (2, 3, 4), 20, COMMANDS, paths=100_000)
            for cost in ANCHORS]


def sweep(smoke: bool = False) -> list[Instance]:
    """Acceptance criterion 03's family: many small instances, grid-bound."""
    if smoke:
        return [Instance("max", 2, "indicator", (1, 2), 20, ("compare", "oracle_exact"))]
    subsets = [c for n in (2, 3) for c in itertools.combinations((1, 2, 3, 4), n)]
    costs = ("abs", "positive_part", "indicator", "running_max")
    return [Instance("max", steps[-1], cost, steps, 200, ("compare", "oracle_exact"))
            for cost in costs for steps in subsets]


# (lattice, depth, atoms, cost); depth 40 with 4 atoms and indicator is left
# out because that one solve takes about 45 s.
DEEP = (
    ("rec", 40, 4, "abs"),
    ("rec", 40, 3, "indicator"),
    ("rec", 32, 4, "abs"),
    ("rec", 24, 3, "abs"),
    ("max", 20, 4, "running_max"),
    ("max", 20, 4, "indicator"),
    ("max", 18, 3, "running_max"),
    ("max", 16, 4, "running_max"),
    ("max", 16, 3, "abs"),
)


def deep(smoke: bool = False) -> list[Instance]:
    """Few large instances past the oracle's depth guard: pair_sup-bound."""
    if smoke:
        return [Instance("rec", 6, "abs", (2, 4, 6), 10, ("solve",))]
    out = [Instance(lat, d, cost, even_steps(d, n), 10, ("solve",)) for lat, d, n, cost in DEEP]
    # The anchors again at solver depth, where only ``solve`` runs.
    out += [Instance("rec", 24, cost, even_steps(24, 4), 10, ("solve",)) for cost in ANCHORS]
    return out


# (depth, atoms, cost).  Depth 12 is left out because one LP there takes
# 22-25 s; depth 11 because its 73 MB dense tableau outgrows the cache and its
# LP time swings by +-20% with the host's memory traffic.
ORACLE = (
    (10, 3, "abs"),
    (10, 4, "indicator"),
    (10, 3, "running_max"),
)


def oracle(smoke: bool = False) -> list[Instance]:
    """Mid-depth instances whose float LP dominates; the only policy/Monte Carlo load."""
    cmds = ("compare", "policy", "simulate")
    if smoke:
        return [Instance("max", 4, "abs", (2, 4), 20, cmds, paths=10_000)]
    return [Instance("max", d, cost, even_steps(d, n), 20, cmds, paths=1_000_000)
            for d, n, cost in ORACLE]


def instances(workload: str, smoke: bool = False) -> list[Instance]:
    family = {"sweep": sweep, "deep": deep, "oracle": oracle}[workload]
    out = family(smoke) + anchor_block()
    if len({inst.key for inst in out}) != len(out):
        raise ValueError(f"{workload}: an instance key repeats")
    return out


def weights(seed: int, inst: Instance) -> list[float]:
    """Target-law weights for ``inst``, a pure function of the seed and the key."""
    salt = int.from_bytes(hashlib.sha256(inst.key.encode()).digest()[:8], "little")
    rng = np.random.default_rng([seed, salt])
    w = rng.dirichlet(np.ones(len(inst.steps))) + 0.02
    return [float(x) for x in w / w.sum()]


def config(seed: int, inst: Instance) -> dict:
    """The CLI config of ``inst`` under ``seed``."""
    w = weights(seed, inst)
    out = {
        "lattice": {"depth": inst.depth, "dt": 1.0, "augment_max": inst.lattice == "max"},
        "cost": COSTS[inst.cost],
        "measure": [{"t": float(s), "w": x} for s, x in zip(inst.steps, w)],
        "solver": {"resolution": inst.resolution},
        "seed": seed,
    }
    if inst.paths:
        out["simulate"] = {"paths": inst.paths}
    return out
