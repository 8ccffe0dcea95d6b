"""Fair-coin binomial lattice for the scaled random-walk driver.

The driver takes steps of ``+-sqrt(dt)`` with probability one half each.  Two
indexings are supported: ``recombining`` nodes carry the walk level (optionally
augmented with the running maximum level), ``history`` nodes carry the full
bit string of moves.  ``states_at_step`` gives the path state of a whole step
at once, as arrays over its positions, read off the node coordinates alone, so
a history node and its recombining image carry the same ``(w, m, t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

import numpy as np

from .errors import (
    ConfigError,
    CoverageError,
    NoChildrenError,
    ValidationError,
    finite_number,
    refuse_unknown_keys,
)
from .measures import ATOM_MERGE_TOL

MODES = ("recombining", "history")
# Full history enumeration beyond this depth is refused outright.
MAX_HISTORY_DEPTH = 20
# Times must sit on the step grid to within this absolute slack.  ``grid_step``
# and ``atom_steps`` are the one rule by which every layer, kernels and law
# trees included, maps times to steps.
TIME_SNAP_TOL = 1e-9


@dataclass(frozen=True)
class LatticeSpec:
    """Size and indexing of a lattice: ``depth`` steps of width ``dt``."""

    depth: int
    dt: float
    augment_max: bool = False
    mode: str = "recombining"

    def __post_init__(self):
        if isinstance(self.depth, bool) or not isinstance(self.depth, int) or self.depth < 1:
            raise ConfigError(f"depth must be a positive integer, got {self.depth!r}")
        # Wider steps keep times on distinct steps apart by more than the
        # measures' merge slack, and snap no time onto two steps.
        if finite_number(self.dt, "dt") <= ATOM_MERGE_TOL + 2 * TIME_SNAP_TOL:
            raise ConfigError(f"dt must exceed {ATOM_MERGE_TOL + 2 * TIME_SNAP_TOL:.1g}, "
                              f"got {self.dt!r}")
        if not isinstance(self.augment_max, bool):
            raise ConfigError(f"augment_max must be a boolean, got {self.augment_max!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "history" and self.augment_max:
            raise ConfigError("augment_max applies to recombining lattices only: "
                              "a history node already carries its running maximum")
        if self.mode == "history" and self.depth > MAX_HISTORY_DEPTH:
            raise ConfigError(
                f"history mode supports depth <= {MAX_HISTORY_DEPTH}, got {self.depth}"
            )

    @property
    def step_width(self) -> float:
        return math.sqrt(self.dt)


@dataclass(frozen=True)
class NodeId:
    """A lattice node, a label for its position, as ``nodes_at_step`` builds it.

    Recombining nodes store ``level`` (and ``max_level`` when the lattice is
    augmented); history nodes store the ``step`` move bits, bit 1 meaning an
    up move.  ``level`` obeys ``|level| <= step`` and ``level == step (mod 2)``;
    ``max_level`` obeys ``max(level, 0) <= max_level <= (step + level) // 2``.
    Only ``nodes_at_step`` and ``mvm._node`` build nodes, so none is checked here.
    """

    step: int
    level: Optional[int] = None
    max_level: Optional[int] = None
    history: Optional[tuple[int, ...]] = None


@dataclass(frozen=True)
class PathState:
    """Driver state over a step's positions: position ``w``, running max ``m``, time ``t``."""

    w: np.ndarray
    m: Optional[np.ndarray]
    t: np.ndarray


def root(spec: LatticeSpec) -> NodeId:
    return nodes_at_step(spec, 0)[0]


def nodes_at_step(spec: LatticeSpec, step: int) -> list[NodeId]:
    """All nodes of positive probability at ``step``, in position order.

    A node's *position* is its index in this list, and every per-step array
    (kernel hazards, child maps, Monte Carlo states, the solver's value
    functions) is indexed by it.  A
    history node's position is its binary code (see ``histories``), a plain
    recombining node's is ``(level + step) // 2``, and a max-augmented node's
    is its rank in the order of ``(level, max_level)``.
    """
    if step < 0 or step > spec.depth:
        raise CoverageError(f"step {step} outside lattice of depth {spec.depth}")
    if spec.mode == "history":
        return [NodeId(step=step, history=bits) for bits in histories(step)]
    if spec.augment_max:
        return [NodeId(step=step, level=level, max_level=m) for level, m in _level_max(step)]
    return [NodeId(step=step, level=level) for level in range(-step, step + 1, 2)]


def _level_max(step: int) -> list[tuple[int, int]]:
    """``(level, max_level)`` of every max-augmented node at ``step``, in position order."""
    # A walk that peaks at m and ends at level l makes at least m + (m - l) moves.
    return [(level, m) for level in range(-step, step + 1, 2)
            for m in range(max(level, 0), (step + level) // 2 + 1)]


def node_count(spec: LatticeSpec, step: int) -> int:
    """``len(nodes_at_step(spec, step))``, without building the nodes."""
    if spec.mode == "history":
        return 2 ** step
    # A max-augmented walk ending at level 2j - step can peak at min(j, step - j) + 1 levels.
    return step + 1 + (step * step // 4 if spec.augment_max else 0)


def child_positions(spec: LatticeSpec, step: int) -> np.ndarray:
    """Where each node of ``step`` moves one step on, as an ``(n, 2)`` int array.

    Row ``p`` holds the positions at ``step + 1`` of the down child (column 0)
    and of the up child (column 1) of the node at position ``p``, so a path
    at ``pos`` that moves ``up_bit`` lands at ``child[pos, up_bit]``.  Every
    node at ``step + 1`` is the child of one or two nodes, never more.
    """
    if step < 0 or step >= spec.depth:
        raise NoChildrenError(f"step {step} has no children at depth {spec.depth}")
    if spec.mode == "history":
        return 2 * np.arange(2 ** step)[:, None] + np.arange(2)
    if not spec.augment_max:
        return np.arange(step + 1)[:, None] + np.arange(2)
    index = {pair: p for p, pair in enumerate(_level_max(step + 1))}
    return np.array([[index[level - 1, m], index[level + 1, max(m, level + 1)]]
                     for level, m in _level_max(step)])


def histories(n: int) -> Iterator[tuple[int, ...]]:
    """Every ``n``-move bit string, in the order of its binary code.

    The code of a history reads its moves as binary digits, first move
    highest, up = 1.  So the prefix of code ``c`` at an earlier step ``s`` is
    ``c >> (n - s)``, and the children of ``c`` are ``2c`` (down) and
    ``2c + 1`` (up).  This yields code order, the bit tuples' lexicographic
    order; array code names histories by code (``np.arange``) or heap row.

    An array over a whole history tree lists its steps one after another, in
    heap order: history ``c`` of step ``s`` is row ``2**s - 1 + c``, the
    children of row ``h`` are rows ``2h + 1`` (down) and ``2h + 2`` (up), and a
    node's descendants at any later step fill one contiguous run of rows.
    """
    return product((0, 1), repeat=n)


def heap_history(row: int) -> tuple[int, ...]:
    """The history at heap row ``row``: in binary, ``row + 1`` is a leading 1 and then its bits."""
    return tuple(int(ch) for ch in bin(row + 1)[3:])


def history_to_str(bits: tuple[int, ...]) -> str:
    """A bit string as ``U``/``D`` letters, the form every JSON payload uses."""
    return "".join("U" if b else "D" for b in bits)


def states_at_step(spec: LatticeSpec, step: int) -> PathState:
    """Driver state at every node of ``step``, as arrays in position order.

    ``t`` is broadcast, and ``m`` is None unless the lattice tracks the maximum.
    """
    if step < 0 or step > spec.depth:
        raise CoverageError(f"step {step} outside lattice of depth {spec.depth}")
    if spec.mode == "history":
        level = top = np.zeros(1, dtype=np.int64)
        for _ in range(step):  # history c moves to 2c (down) and 2c + 1 (up)
            level = (level[:, None] + [-1, 1]).ravel()
            top = np.maximum(np.repeat(top, 2), level)
    elif spec.augment_max:
        level, top = np.array(_level_max(step)).T
    else:
        level, top = np.arange(-step, step + 1, 2), None
    h = spec.step_width
    return PathState(level * h, None if top is None else top * h,
                     np.broadcast_to(step * spec.dt, level.shape))


def grid_step(dt: float, t: float) -> Optional[int]:
    """The step within ``TIME_SNAP_TOL``, or 4 ulps of ``t``, of time ``t`` on the grid of width ``dt``.

    None when there is none.  For a time written as ``s`` times a step
    written as ``dt``, reading ``dt``, reading ``t`` and forming ``s * dt``
    each round once, each by at most 2^-53 of the exact ``|s * dt|``.  That
    is below ``math.ulp(t)`` to first order, so the three together miss by
    under 3 ulps plus terms of order 2^-106, and 4 ulps cover them.  Below
    ``|t| = 2^21``, 4 ulps are under ``TIME_SNAP_TOL``, which decides alone.
    """
    s = round(t / dt) if math.isfinite(t / dt) else None
    tol = max(TIME_SNAP_TOL, 4.0 * math.ulp(t))
    return s if s is not None and abs(s * dt - t) <= tol else None


def time_to_step(spec: LatticeSpec, t: float) -> int:
    """Map a time onto the step grid, refusing off-grid times."""
    s = grid_step(spec.dt, t)
    if s is None:
        raise CoverageError(f"time {t} is not on the step grid with dt={spec.dt}")
    if s < 0 or s > spec.depth:
        raise CoverageError(f"time {t} maps to step {s}, outside depth {spec.depth}")
    return s


def atom_steps(spec: LatticeSpec, atoms) -> list[int]:
    """Steps of increasing atom times, each on the grid from the first step on, none shared."""
    if not atoms or any(b - a <= 0 for a, b in zip(atoms, atoms[1:])):
        raise ValidationError("atom times must be nonempty and strictly increasing")
    steps = []
    for t in atoms:
        s = time_to_step(spec, t)
        if s < 1:
            raise CoverageError(f"atom time {t} must lie at or after the first step")
        steps.append(s)
    if len(set(steps)) != len(steps):
        raise CoverageError("atom times collide on the step grid")
    return steps


def spec_from_json(data: dict) -> LatticeSpec:
    if not isinstance(data, dict):
        raise ConfigError("must be an object")
    refuse_unknown_keys(data, ("depth", "dt", "augment_max", "mode"))
    try:
        depth = data["depth"]
        dt = data["dt"]
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}") from exc
    return LatticeSpec(
        depth=depth,
        dt=finite_number(dt, "dt"),
        augment_max=data.get("augment_max", False),
        mode=data.get("mode", "recombining"),
    )


def node_to_json(node: NodeId) -> dict:
    if node.history is not None:
        return {"step": node.step, "history": history_to_str(node.history)}
    out = {"step": node.step, "level": node.level}
    if node.max_level is not None:
        out["max_level"] = node.max_level
    return out
