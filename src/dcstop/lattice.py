"""Fair-coin binomial lattice for the scaled random-walk driver.

The driver takes steps of ``+-sqrt(dt)`` with probability one half each.  Two
indexings are supported: ``recombining`` nodes carry the walk level (optionally
augmented with the running maximum level), ``history`` nodes carry the full
bit string of moves.  Probabilities, children and per-node path state are
derived from the node alone, so the two views agree on every functional of
``(w, m)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

from .errors import ConfigError, CoverageError, NoChildrenError, ValidationError, finite_number

MODES = ("recombining", "history")
# Full history enumeration beyond this depth is refused outright.
MAX_HISTORY_DEPTH = 20
# Times must sit on the step grid to within this absolute slack.
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
        if finite_number(self.dt, "dt") <= 0:
            raise ConfigError(f"dt must be positive, got {self.dt!r}")
        if not isinstance(self.augment_max, bool):
            raise ConfigError(f"augment_max must be a boolean, got {self.augment_max!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "history" and self.depth > MAX_HISTORY_DEPTH:
            raise ConfigError(
                f"history mode supports depth <= {MAX_HISTORY_DEPTH}, got {self.depth}"
            )

    @property
    def step_width(self) -> float:
        return math.sqrt(self.dt)


@dataclass(frozen=True)
class NodeId:
    """A lattice node.

    Recombining nodes store ``level`` (and ``max_level`` when the lattice is
    augmented); history nodes store the move bit string, bit 1 meaning an up
    move.  ``level`` obeys ``|level| <= step`` and ``level == step (mod 2)``;
    ``max_level`` obeys ``max(level, 0) <= max_level <= step``.
    """

    step: int
    level: Optional[int] = None
    max_level: Optional[int] = None
    history: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.step < 0:
            raise ValidationError(f"step must be nonnegative, got {self.step}")
        if (self.level is None) == (self.history is None):
            raise ValidationError("exactly one of level or history must be set")
        if self.history is not None:
            if self.max_level is not None:
                raise ValidationError("history nodes derive max_level, do not store it")
            if len(self.history) != self.step:
                raise ValidationError(
                    f"history length {len(self.history)} does not match step {self.step}"
                )
            if any(b not in (0, 1) for b in self.history):
                raise ValidationError("history bits must be 0 or 1")
            return
        if abs(self.level) > self.step or (self.level + self.step) % 2 != 0:
            raise ValidationError(
                f"level {self.level} unreachable at step {self.step}"
            )
        if self.max_level is not None:
            if not max(self.level, 0) <= self.max_level <= self.step:
                raise ValidationError(
                    f"max_level {self.max_level} inconsistent with level {self.level} "
                    f"at step {self.step}"
                )


@dataclass(frozen=True)
class PathState:
    """Driver state at a node: position ``w``, running max ``m``, time ``t``."""

    w: float
    m: Optional[float]
    t: float


def root(spec: LatticeSpec) -> NodeId:
    if spec.mode == "history":
        return NodeId(step=0, history=())
    if spec.augment_max:
        return NodeId(step=0, level=0, max_level=0)
    return NodeId(step=0, level=0)


def history_level(bits: tuple[int, ...]) -> int:
    return 2 * sum(bits) - len(bits)


def history_max_level(bits: tuple[int, ...]) -> int:
    m = 0
    lvl = 0
    for b in bits:
        lvl += 1 if b else -1
        if lvl > m:
            m = lvl
    return m


def children(spec: LatticeSpec, node: NodeId) -> tuple[NodeId, NodeId]:
    """The up and down successors of ``node``, in that order."""
    if node.step >= spec.depth:
        raise NoChildrenError(f"node at step {node.step} is terminal at depth {spec.depth}")
    s = node.step + 1
    if node.history is not None:
        return (
            NodeId(step=s, history=node.history + (1,)),
            NodeId(step=s, history=node.history + (0,)),
        )
    up_level = node.level + 1
    down_level = node.level - 1
    if node.max_level is None:
        return NodeId(step=s, level=up_level), NodeId(step=s, level=down_level)
    return (
        NodeId(step=s, level=up_level, max_level=max(node.max_level, up_level)),
        NodeId(step=s, level=down_level, max_level=node.max_level),
    )


def _paths_with_max_at_most(n: int, l: int, m: int) -> int:
    # Reflection at level m+1: walks from 0 to l in n steps touching m+1
    # biject with walks to 2(m+1) - l, so subtract those.
    def comb_end(end: int) -> int:
        num = n + end
        if num % 2 != 0:
            return 0
        k = num // 2
        if k < 0 or k > n:
            return 0
        return math.comb(n, k)

    return comb_end(l) - comb_end(2 * (m + 1) - l)


def paths_with_max(n: int, l: int, m: int) -> int:
    """Number of n-step walks from 0 ending at level ``l`` with running max ``m``."""
    if m < max(l, 0) or m > n:
        return 0
    return _paths_with_max_at_most(n, l, m) - _paths_with_max_at_most(n, l, m - 1)


def node_prob(spec: LatticeSpec, node: NodeId) -> float:
    """Probability of visiting ``node`` (aggregated over histories when recombining)."""
    n = node.step
    if node.history is not None:
        return 0.5 ** n
    if node.max_level is not None:
        return paths_with_max(n, node.level, node.max_level) * 0.5 ** n
    return math.comb(n, (n + node.level) // 2) * 0.5 ** n


def nodes_at_step(spec: LatticeSpec, step: int) -> list[NodeId]:
    """All nodes of positive probability at ``step``, in a fixed deterministic order."""
    if step < 0 or step > spec.depth:
        raise CoverageError(f"step {step} outside lattice of depth {spec.depth}")
    if spec.mode == "history":
        return [NodeId(step=step, history=bits) for bits in histories(step)]
    out = []
    for level in range(-step, step + 1, 2):
        if spec.augment_max:
            for m in range(max(level, 0), step + 1):
                if paths_with_max(step, level, m) > 0:
                    out.append(NodeId(step=step, level=level, max_level=m))
        else:
            out.append(NodeId(step=step, level=level))
    return out


def histories(n: int) -> Iterator[tuple[int, ...]]:
    """Every ``n``-move bit string, in the order of its binary code.

    The code of a history reads its moves as binary digits, first move
    highest, up = 1.  So the prefix of code ``c`` at an earlier step ``s`` is
    ``c >> (n - s)``, and the children of ``c`` are ``2c`` (down) and
    ``2c + 1`` (up).  Every walk over a step's histories goes through here,
    in this order, which is the lexicographic order of the bit tuples.
    """
    return product((0, 1), repeat=n)


def history_to_str(bits: tuple[int, ...]) -> str:
    """A bit string as ``U``/``D`` letters, the form every JSON payload uses."""
    return "".join("U" if b else "D" for b in bits)


def history_from_str(text: str) -> tuple[int, ...]:
    if any(ch not in "UD" for ch in text):
        raise ValidationError(f"history string must use U/D, got {text!r}")
    return tuple(1 if ch == "U" else 0 for ch in text)


def state(spec: LatticeSpec, node: NodeId) -> PathState:
    """Physical driver state at a node; ``m`` is None when the lattice does not track it."""
    h = spec.step_width
    if node.history is not None:
        return PathState(
            w=history_level(node.history) * h,
            m=history_max_level(node.history) * h,
            t=node.step * spec.dt,
        )
    m = node.max_level * h if node.max_level is not None else None
    return PathState(w=node.level * h, m=m, t=node.step * spec.dt)


def project_to_recombining(spec: LatticeSpec, node: NodeId) -> NodeId:
    """Collapse a history node to its recombining image under ``spec``'s augmentation."""
    if node.history is None:
        return node
    level = history_level(node.history)
    if spec.augment_max:
        return NodeId(step=node.step, level=level, max_level=history_max_level(node.history))
    return NodeId(step=node.step, level=level)


def node_of_history(spec: LatticeSpec, bits: tuple[int, ...]) -> NodeId:
    """The node of ``spec`` that the driver path prefix ``bits`` reaches."""
    node = NodeId(step=len(bits), history=bits)
    return node if spec.mode == "history" else project_to_recombining(spec, node)


def time_to_step(spec: LatticeSpec, t: float) -> int:
    """Map a time onto the step grid, refusing off-grid times."""
    ratio = t / spec.dt
    if not math.isfinite(ratio):
        raise CoverageError(f"time {t} is not on the step grid with dt={spec.dt}")
    s = round(ratio)
    if abs(s * spec.dt - t) > TIME_SNAP_TOL:
        raise CoverageError(f"time {t} is not on the step grid with dt={spec.dt}")
    if s < 0 or s > spec.depth:
        raise CoverageError(f"time {t} maps to step {s}, outside depth {spec.depth}")
    return s


def atom_steps(spec: LatticeSpec, atoms) -> list[int]:
    """Steps of the given atom times; atoms must be distinct grid times >= one step."""
    steps = []
    for t in atoms:
        s = time_to_step(spec, t)
        if s < 1:
            raise CoverageError(f"atom time {t} must lie at or after the first step")
        steps.append(s)
    if len(set(steps)) != len(steps):
        raise CoverageError("atom times collide on the step grid")
    return steps


def spec_to_json(spec: LatticeSpec) -> dict:
    return {
        "depth": spec.depth,
        "dt": spec.dt,
        "augment_max": spec.augment_max,
        "mode": spec.mode,
    }


def spec_from_json(data: dict) -> LatticeSpec:
    if not isinstance(data, dict):
        raise ConfigError("lattice config must be an object")
    try:
        depth = data["depth"]
        dt = data["dt"]
    except KeyError as exc:
        raise ConfigError(f"lattice config missing field {exc}") from exc
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


def node_from_json(data: dict) -> NodeId:
    if "history" in data:
        return NodeId(step=int(data["step"]), history=history_from_str(data["history"]))
    return NodeId(
        step=int(data["step"]),
        level=int(data["level"]),
        max_level=int(data["max_level"]) if "max_level" in data else None,
    )
