"""The convergence sweep that ties the solver to its continuity estimate.

The sweep projects a fine target law onto nested coarser time grids, solves
each instance on the same lattice, and compares the value gaps against the
cost's uniform-continuity modulus of the transport distance.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from typing import Sequence

from . import dpp
from .cost import CostSpec, modulus
from .errors import ConfigError
from .lattice import LatticeSpec, atom_steps
from .measures import ATOM_MERGE_TOL, DiscreteMeasure, ceiling_project, w1_distance


def _nested(coarse: Sequence[float], fine: Sequence[float]) -> bool:
    return all(any(abs(t - u) <= ATOM_MERGE_TOL for u in fine) for t in coarse)


def convergence_sweep(spec: LatticeSpec, cost: CostSpec, mu: DiscreteMeasure,
                      grids: Sequence[Sequence[float]], resolution: int) -> tuple[dict, ...]:
    """Return the sweep's rows, one per grid coarse to fine.

    A row holds its projected law's value gap to the finest proxy, the gap's
    modulus bound, and ``within`` when the gap sits inside the bound.
    ``grids`` must be nested coarse-to-fine and every grid must cover the
    target law's support from above, so each projected law is a right shift
    of the target and all comparisons happen on one lattice.  The reference
    value belongs to the finest computable proxy, the projection onto the
    last grid, never to a continuum limit.  Each row's bound is
    ``modulus(W1 to that proxy) + 2 AGREE_TOL``, the modulus taken over the
    states reachable by the latest projected horizon; values come from the block
    solver, which solves each distinct projected law once, the finest first.
    """
    if not grids:
        raise ConfigError("need at least one grid to sweep")
    for a, b in zip(grids, grids[1:]):
        if not _nested(a, b):
            raise ConfigError("stability grids must be nested coarse-to-fine")
    projected = [ceiling_project(mu, grid) for grid in grids]
    horizon = max(atom_steps(spec, m.atoms)[-1] for m in projected)
    # Before the modulus constant, which takes time linear in the horizon: no
    # solve stops past it, so neither do the states the constant ranges over.
    dpp.check_lattice_size(spec, horizon)
    phi = modulus(cost, replace(spec, depth=horizon))
    mu_fine = projected[-1]
    values = {m: dpp.solve(spec, cost, m, resolution).root_value
              for m in dict.fromkeys([mu_fine, *projected])}
    v_fine = values[mu_fine]
    rows = []
    for n, (grid, mu_n) in enumerate(zip(grids, projected)):
        w1_to_fine = w1_distance(mu_n, mu_fine)
        v_n = values[mu_n]
        bound = phi(w1_to_fine) + 2.0 * dpp.AGREE_TOL
        value_gap = abs(v_n - v_fine)
        rows.append({
            "n": n,
            "grid_size": len(grid),
            "w1_gap": w1_distance(mu, mu_n),
            "w1_to_fine": w1_to_fine,
            "value": v_n,
            "value_fine": v_fine,
            "value_gap": value_gap,
            "bound": bound,
            "within": value_gap <= bound,
        })
    return tuple(rows)


def rows_to_csv(rows: Sequence[dict], path: str) -> None:
    if not rows:
        raise ConfigError("no rows to write")
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
