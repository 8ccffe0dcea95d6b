"""Payoff functionals evaluated at a stop.

A cost is a small named recipe rather than arbitrary code: a kind saying which
part of the path state it reads (terminal position, running max, time, or the
Markov pair ``(w, t)``) and a named scalar form with parameters.  Custom costs
are polynomial coefficient lists only.

For stability bounds the module also produces a modulus of continuity in the
expected stopping-time shift: ``phi(x) = C*x`` for terminal costs that are
2-Hoelder with constant ``C`` on the lattice's reachable range, ``4*C*x`` for
running-max costs (Doob), and ``C*x`` for time costs Lipschitz with constant
``C``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, finite_number, refuse_unknown_keys
from .lattice import LatticeSpec, PathState

KINDS = ("terminal", "running_max", "time", "markov")
SCALAR_NAMES = ("identity", "square", "abs", "positive_part", "indicator", "polynomial")
# markov costs may additionally use a bivariate polynomial in (w, t).
MARKOV_NAMES = SCALAR_NAMES + ("polynomial2",)
# The params each named form reads; any other key is refused, not dropped.
PARAMS = {"indicator": ("threshold",), "polynomial": ("coeffs",), "polynomial2": ("coeffs",)}


@dataclass(frozen=True)
class CostSpec:
    kind: str
    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"cost kind must be one of {KINDS}, got {self.kind!r}")
        allowed = MARKOV_NAMES if self.kind == "markov" else SCALAR_NAMES
        if self.name not in allowed:
            raise ConfigError(f"cost name {self.name!r} not in {allowed} for kind {self.kind!r}")
        for key in self.params:
            if key not in PARAMS.get(self.name, ()):
                raise ConfigError(f"{self.name} cost reads no params[{key!r}]")
        if self.name == "indicator":
            if "threshold" not in self.params:
                raise ConfigError("indicator cost needs params['threshold']")
            finite_number(self.params["threshold"], "indicator threshold")
        if self.name == "polynomial":
            coeffs = self.params.get("coeffs")
            if not coeffs or not isinstance(coeffs, (list, tuple)):
                raise ConfigError("polynomial cost needs params['coeffs'] as a number list")
            for c in coeffs:
                finite_number(c, "polynomial coefficient")
        if self.name == "polynomial2":
            coeffs = self.params.get("coeffs")
            # A string or an object has a length too, but its items are characters or keys.
            if (not coeffs or not isinstance(coeffs, (list, tuple))
                    or not all(isinstance(row, (list, tuple)) for row in coeffs)):
                raise ConfigError("polynomial2 cost needs params['coeffs'] as a list of number lists")
            for row in coeffs:
                for c in row:
                    finite_number(c, "polynomial2 coefficient")


def _scalar_fn(name: str, params: Mapping) -> Callable[[np.ndarray], np.ndarray]:
    """The named form, elementwise on an array, with the floats of one-value arithmetic."""
    if name == "identity":
        return lambda x: x
    if name == "square":
        return lambda x: x * x
    if name == "abs":
        return np.abs
    if name == "positive_part":
        return lambda x: np.where(x > 0.0, x, 0.0)
    if name == "indicator":
        k = float(params["threshold"])
        return lambda x: np.where(x >= k, 1.0, 0.0)
    if name == "polynomial":
        coeffs = [float(c) for c in params["coeffs"]]
        def poly(x: np.ndarray) -> np.ndarray:
            acc = 0.0
            for c in reversed(coeffs):
                acc = acc * x + c
            return acc
        return poly
    raise ConfigError(f"unknown scalar cost name {name!r}")


def _polynomial2(coeffs, w: float, t: float) -> float:
    acc = 0.0
    for i, row in enumerate(coeffs):
        for j, c in enumerate(row):
            acc += float(c) * w ** i * t ** j
    return acc


def cost_overflow(what: str) -> ConfigError:
    """The error for ``what`` of a cost that left the floats: an infinity or a NaN."""
    return ConfigError(f"cost: {what} is not a finite float")


def evaluate(cost: CostSpec, st: PathState) -> np.ndarray:
    """Cost of stopping at each node of a step, from its ``lattice.states_at_step``.

    A cost that is not a finite float at some node is refused (``cost_overflow``).
    """
    if cost.kind == "running_max" and st.m is None:
        raise ConfigError("running_max cost on a lattice that does not track the maximum; "
                          "set augment_max=True")
    # markov scalar forms read the position, like terminal ones.
    x = {"terminal": st.w, "running_max": st.m, "time": st.t, "markov": st.w}[cost.kind]
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cost.name == "polynomial2":
                # Node by node: numpy's power rounds unlike the C pow that ``**`` calls.
                values = np.array([_polynomial2(cost.params["coeffs"], w, t)
                                   for w, t in zip(st.w.tolist(), st.t.tolist())])
            else:
                values = _scalar_fn(cost.name, cost.params)(x)
    except OverflowError as exc:  # ``**`` on Python floats raises where numpy gives inf
        raise cost_overflow("a stop cost") from exc
    if not np.isfinite(values).all():
        raise cost_overflow("a stop cost")
    return values


def modulus(cost: CostSpec, spec: LatticeSpec) -> Callable[[float], float]:
    """Modulus ``phi`` bounding ``|E c(tau) - E c(rho)|`` by ``phi(E|tau - rho|)``.

    The constant is ``holder2_constant_from_range`` on ``spec``, which raises
    ``ConfigError`` for markov costs: they have no modulus route.
    """
    c = holder2_constant_from_range(cost, spec)
    if cost.kind == "running_max":
        # Doob's L2 inequality turns the terminal constant into 4c.
        return lambda x: 4.0 * c * x
    return lambda x: c * x


def holder2_constant_from_range(cost: CostSpec, spec: LatticeSpec) -> float:
    """Smallest constant making the cost 2-Hoelder (terminal, running max) or
    Lipschitz (time) on the states reachable within ``spec``.

    The constant is exact for the discrete reachable range, which is all the
    stability bounds need; it is not a statement about the continuum limit.
    """
    h = spec.step_width
    if cost.kind == "terminal":
        values = [l * h for l in range(-spec.depth, spec.depth + 1)]
        power = 2
    elif cost.kind == "running_max":
        values = [l * h for l in range(0, spec.depth + 1)]
        power = 2
    elif cost.kind == "time":
        values = [s * spec.dt for s in range(0, spec.depth + 1)]
        power = 1
    else:
        raise ConfigError("no modulus route for markov costs")
    with np.errstate(over="ignore", invalid="ignore"):
        f = _scalar_fn(cost.name, cost.params)(np.array(values)).tolist()
    # The grid is uniform and power >= 1, so adjacent points attain the
    # largest ratio over all pairs: for points k steps apart, |f(x) - f(y)| is
    # at most k times the largest adjacent difference, and (k * mesh) ** power
    # at least k times mesh ** power.  The power stays Python's, see ``evaluate``.
    c = max(abs(fx - fy) / (y - x) ** power
            for x, y, fx, fy in zip(values, values[1:], f, f[1:]))
    if not np.isfinite([c] + f).all():  # ``max`` skips a NaN difference, so f too
        raise cost_overflow("the continuity constant")
    return c


def cost_from_json(data: dict) -> CostSpec:
    if not isinstance(data, dict):
        raise ConfigError("must be an object")
    refuse_unknown_keys(data, ("kind", "name", "params"))
    try:
        kind = data["kind"]
        name = data["name"]
    except KeyError as exc:
        raise ConfigError(f"missing field {exc}") from exc
    params = data.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object")
    return CostSpec(kind=str(kind), name=str(name), params=dict(params))
