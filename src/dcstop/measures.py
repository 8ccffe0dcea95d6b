"""Finitely supported probability measures on the positive time axis.

Measures here play the role of stopping-time laws.  The module provides the
first-order transport geometry the rest of the package leans on: the
Wasserstein-1 distance and ceiling projection onto a coarser time grid.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import pairwise
from typing import Sequence

from .errors import CoverageError, ValidationError, finite_number, refuse_unknown_keys

# Weights must reproduce a probability vector to this accuracy.
WEIGHT_TOL = 1e-12
# Atoms closer than this are considered the same time point and merged.
ATOM_MERGE_TOL = 1e-9
# Ingestion (JSON) accepts weight sums off by up to this and renormalizes.
INGEST_TOL = 1e-9


class DiscreteMeasure:
    """Probability measure ``sum_i w_i * delta_{t_i}`` with ``t_i > 0``.

    Atoms are kept sorted and strictly increasing; atoms closer than
    ``ATOM_MERGE_TOL`` are merged (keeping the smaller time) and zero-weight
    atoms are dropped.  Every atom time must be positive, a dropped one
    included.  Weights must be nonnegative and sum to one within
    ``WEIGHT_TOL``.
    """

    __slots__ = ("atoms", "weights")

    def __init__(self, atoms: Sequence[float], weights: Sequence[float]):
        if len(atoms) != len(weights):
            raise ValidationError("atoms and weights must have equal length")
        if not atoms:
            raise ValidationError("a measure needs at least one atom")
        pairs = sorted(zip((float(t) for t in atoms), (float(w) for w in weights)))
        merged_t: list[float] = []
        merged_w: list[float] = []
        for t, w in pairs:
            if not (math.isfinite(t) and math.isfinite(w)):
                raise ValidationError(f"non-finite atom {t} or weight {w}")
            if t <= 0.0:
                raise ValidationError(f"atoms must be strictly positive, got {t}")
            if w < -WEIGHT_TOL:
                raise ValidationError(f"negative weight {w} at atom {t}")
            w = max(w, 0.0)
            if merged_t and t - merged_t[-1] < ATOM_MERGE_TOL:
                merged_w[-1] += w
            else:
                merged_t.append(t)
                merged_w.append(w)
        kept = [(t, w) for t, w in zip(merged_t, merged_w) if w > 0.0]
        if not kept:
            raise ValidationError("all weights are zero")
        total = sum(w for _, w in kept)
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValidationError(f"weights sum to {total!r}, expected 1 within {WEIGHT_TOL}")
        object.__setattr__(self, "atoms", tuple(t for t, _ in kept))
        object.__setattr__(self, "weights", tuple(w for _, w in kept))

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteMeasure is immutable")

    def __len__(self) -> int:
        return len(self.atoms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.atoms == other.atoms and self.weights == other.weights

    def __hash__(self) -> int:
        return hash((self.atoms, self.weights))

    def __repr__(self) -> str:
        body = ", ".join(f"{w:.6g}*d({t:.6g})" for t, w in zip(self.atoms, self.weights))
        return f"DiscreteMeasure({body})"


def _cdf_walk(a: DiscreteMeasure, b: DiscreteMeasure):
    """``(t, F_a(t), F_b(t))`` at every atom ``t`` of either measure, in time order."""
    fa = fb = 0.0
    ia = ib = 0
    for t in sorted(set(a.atoms) | set(b.atoms)):
        while ia < len(a) and a.atoms[ia] <= t:
            fa += a.weights[ia]
            ia += 1
        while ib < len(b) and b.atoms[ib] <= t:
            fb += b.weights[ib]
            ib += 1
        yield t, fa, fb


def w1_distance(a: DiscreteMeasure, b: DiscreteMeasure) -> float:
    """Wasserstein-1 distance: the area between the CDFs, ``sum |F_a - F_b| dt``."""
    total = 0.0
    for (left, fa, fb), (right, _, _) in pairwise(_cdf_walk(a, b)):
        total += abs(fa - fb) * (right - left)
    return total


def ceiling_project(mu: DiscreteMeasure, grid: Sequence[float]) -> DiscreteMeasure:
    """Push every atom of ``mu`` up to the smallest grid point at or above it.

    The result is a right shift of ``mu`` and moves each atom by less than the
    local grid mesh.  Raises ``CoverageError`` when an atom lies above the top
    of the grid.  Atoms already on the grid (within ``ATOM_MERGE_TOL``) stay.
    """
    pts = [float(g) for g in grid]
    if not pts:
        raise CoverageError("empty grid")
    if any(b - a <= 0 for a, b in zip(pts, pts[1:])):
        raise CoverageError("grid points must be strictly increasing")
    atoms = []
    for t in mu.atoms:
        k = bisect_left(pts, t - ATOM_MERGE_TOL)
        if k >= len(pts):
            raise CoverageError(f"atom {t} lies above the last grid point {pts[-1]}")
        atoms.append(pts[k])
    return DiscreteMeasure(atoms, mu.weights)


def measure_to_json(mu: DiscreteMeasure) -> list[dict[str, float]]:
    return [{"t": t, "w": w} for t, w in zip(mu.atoms, mu.weights)]


def measure_from_json(data: Sequence[dict]) -> DiscreteMeasure:
    """Read ``[{"t": ..., "w": ...}, ...]``, renormalizing small ingest error."""
    for item in data if isinstance(data, (list, tuple)) else ():
        refuse_unknown_keys(item, ("t", "w"))
    if not isinstance(data, (list, tuple)) or not all(
            isinstance(item, dict) and "t" in item and "w" in item for item in data):
        raise ValidationError("must be a list of objects with 't' and 'w'")
    atoms = [finite_number(item["t"], "atom time") for item in data]
    weights = [finite_number(item["w"], "weight") for item in data]
    total = sum(weights)
    if abs(total - 1.0) > INGEST_TOL:
        raise ValidationError(f"ingested weights sum to {total!r}, beyond tolerance {INGEST_TOL}")
    if total != 1.0 and total > 0:
        weights = [w / total for w in weights]
    return DiscreteMeasure(atoms, weights)
