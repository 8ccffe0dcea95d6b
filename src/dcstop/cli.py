"""Command-line front end: solve, verify and simulate from a JSON config.

One config file describes an instance (lattice, cost, target law, solver
options); each subcommand reads it, runs one pipeline and writes its results
as JSON (plus CSV for sweeps) into the current directory, or into
``$DCSTOP_OUT`` when set.  Outputs are deterministic for a fixed config and
seed: keys are sorted and every file embeds the config digest and package
version.

Exit codes: 0 on success, 2 for configuration or validation problems, a key
that its section does not take included (the message points at the offending
config section), 3 when a verification residual exceeds its tolerance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .cost import cost_from_json
from .errors import ConfigError, DcstopError, finite_number, is_integer
from .lattice import atom_steps, spec_from_json
from .measures import measure_from_json, measure_to_json
from .mvm import accumulate, check_tree_depth, from_kernel, mvm_to_json, to_kernel, validate
from .oracle import build_lp, check_oracle_depth, lp_solution_to_kernel, solve_lp
from .rst import check_sim_paths, kernel_to_json, marginal_of, objective_value, simulate
from .stability import convergence_sweep, rows_to_csv

MAX_ATOMS = 4
# The keys each config section takes ("measure" per entry; cost params are
# free-form).  Any other key is refused, so a misspelling cannot fall back to
# a default.
SECTION_KEYS = {
    "config": ("lattice", "cost", "measure", "solver", "seed", "simulate", "stability"),
    "lattice": ("depth", "dt", "augment_max", "mode"),
    "cost": ("kind", "name", "params"),
    "measure": ("t", "w"),
    "solver": ("resolution",),
    "simulate": ("paths",),
    "stability": ("grids",),
}


class _Failure(Exception):
    """Verification failed; carries the residual for the error message."""


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    _refuse_unknown_keys("config", raw)
    for key in ("lattice", "cost", "solver", "simulate", "stability"):
        _refuse_unknown_keys(key, raw.get(key))
    entries = raw.get("measure")
    for item in entries if isinstance(entries, list) else ():
        _refuse_unknown_keys("measure", item)
    return raw


def _refuse_unknown_keys(where: str, obj) -> None:
    """Refuse any key that section ``where`` does not take.

    A section that is not an object is left to the command that reads it.
    """
    if isinstance(obj, dict):
        for key in obj:
            if key not in SECTION_KEYS[where]:
                raise ConfigError(f"{where}: unknown key {key!r}")


def _section(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"{key}: missing")
    return config[key]


def _parse_instance(config: dict):
    try:
        spec = spec_from_json(_section(config, "lattice"))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"lattice: {exc}") from exc
    try:
        cost = cost_from_json(_section(config, "cost"))
    except (ConfigError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cost: {exc}") from exc
    try:
        mu = measure_from_json(_section(config, "measure"))
    except (DcstopError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"measure: {exc}") from exc
    if len(mu.atoms) > MAX_ATOMS:
        raise ConfigError(f"measure: more than {MAX_ATOMS} atoms unsupported")
    return spec, cost, mu


def _resolution(config: dict) -> int:
    solver = config.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver: must be an object")
    resolution = solver.get("resolution", 40)
    if not is_integer(resolution) or resolution < 1:
        raise ConfigError("solver: resolution must be a positive integer")
    return resolution


def _seed(config: dict) -> int:
    seed = config.get("seed", 0)
    if not is_integer(seed) or seed < 0:
        raise ConfigError("seed: must be a non-negative integer")
    return seed


def _config_digest(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _out_dir() -> str:
    out = os.environ.get("DCSTOP_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _emit(name: str, payload: dict, config: dict) -> str:
    payload = dict(payload)
    payload["config_digest"] = _config_digest(config)
    payload["version"] = __version__
    path = os.path.join(_out_dir(), name)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


def _echo(payload: dict) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, float):
            print(f"{key}: {value:.12g}")
        elif isinstance(value, (str, int, bool)):
            print(f"{key}: {value}")


def cmd_solve(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    resolution = _resolution(config)
    from .dpp import solve

    table = solve(spec, cost, mu, resolution)
    payload = {
        "value": table.root_value,
        "slack": table.slack,
        "resolution": table.resolution,
        "atom_steps": list(table.steps),
        "table_digest": table.digest,
    }
    _emit("result.json", payload, config)
    _echo(payload)
    return 0


def cmd_policy(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    resolution = _resolution(config)
    from .dpp import AGREE_TOL, check_policy_depth, extract_policy, solve

    check_policy_depth(atom_steps(spec, mu.atoms)[-1])
    table = solve(spec, cost, mu, resolution)
    tree = extract_policy(table)
    report = validate(tree, mu)
    if not report.ok:
        v = report.violation
        raise _Failure(f"policy tree violates {v.prop} at {v.node} (residual {v.residual:.3e})")
    acc = accumulate(tree, spec, cost)
    residual = abs(acc.leaf_expectation() - table.root_value)
    if residual > AGREE_TOL:
        raise _Failure(f"policy objective off the solved value by {residual:.3e}")
    payload = {
        "value": table.root_value,
        "policy_objective": acc.leaf_expectation(),
        "residual": residual,
    }
    _emit("policy.json", mvm_to_json(tree), config)
    _emit("result.json", payload, config)
    _echo(payload)
    return 0


def _solve_polytope(spec, cost, mu, exact: bool):
    """The history-tree LP and its solution; a polytope with no optimum is bad input."""
    problem = build_lp(spec, cost, mu)
    solution = solve_lp(problem, exact=exact)
    if solution.status != "optimal":
        raise ConfigError(f"measure: stopping polytope is {solution.status}")
    return problem, solution


def cmd_oracle(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    problem, solution = _solve_polytope(spec, cost, mu, exact=args.exact)
    payload = {
        "value": solution.value,
        "status": solution.status,
        "kernel": kernel_to_json(lp_solution_to_kernel(problem, solution)),
        "duality_gap": solution.duality_gap,
        "reduced_cost_violation": solution.reduced_cost_violation,
        "slackness_violation": solution.slackness_violation,
        "variables": problem.a.shape[1],
        "exact": bool(args.exact),
    }
    _emit("result.json", payload, config)
    _echo(payload)
    return 0


def cmd_compare(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    resolution = _resolution(config)
    from .dpp import AGREE_TOL, solve
    from .oracle import oracle_value

    check_oracle_depth(atom_steps(spec, mu.atoms)[-1])
    table = solve(spec, cost, mu, resolution)
    reference = oracle_value(spec, cost, mu)
    difference = abs(table.root_value - reference)
    payload = {
        "solver_value": table.root_value,
        "oracle_value": reference,
        "difference": difference,
        "tolerance": AGREE_TOL,
        "agree": difference <= AGREE_TOL,
    }
    _emit("result.json", payload, config)
    _echo(payload)
    if difference > AGREE_TOL:
        raise _Failure(f"solver and oracle disagree by {difference:.3e}")
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    sim = config.get("simulate", {})
    if not isinstance(sim, dict):
        raise ConfigError("simulate: must be an object")
    n_paths = sim.get("paths", 100_000)
    if not is_integer(n_paths) or n_paths < 1:
        raise ConfigError("simulate: paths must be a positive integer")
    check_sim_paths(n_paths)
    seed = _seed(config)
    kernel = lp_solution_to_kernel(*_solve_polytope(spec, cost, mu, exact=False))
    hist = kernel.spec
    expected = objective_value(kernel, hist, cost)
    report = simulate(kernel, hist, cost, n_paths, seed)
    deviation = abs(report.mean - expected)
    payload = {
        "expected": expected,
        "mean": report.mean,
        "stderr": report.stderr,
        "deviation": deviation,
        "n_paths": report.n_paths,
        "seed": report.seed,
        "empirical_marginal": measure_to_json(report.empirical_marginal),
    }
    _emit("result.json", payload, config)
    _echo(payload)
    if report.stderr > 0 and deviation > 6.0 * report.stderr:
        raise _Failure(f"simulated mean off by {deviation / report.stderr:.1f} stderr")
    return 0


def cmd_stability(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    resolution = _resolution(config)
    stab = _section(config, "stability")
    if not isinstance(stab, dict) or "grids" not in stab:
        raise ConfigError("stability: needs a grids list")
    grids = stab["grids"]
    if not isinstance(grids, list) or not all(isinstance(g, list) for g in grids):
        raise ConfigError("stability: grids must be a list of time lists")
    grids = [[finite_number(t, "stability: grid time") for t in g] for g in grids]
    report = convergence_sweep(spec, cost, mu, grids, resolution)
    rows_to_csv(report.rows, os.path.join(_out_dir(), "table.csv"))
    payload = {"all_within": report.all_within, "levels": len(report.rows)}
    _emit("result.json", payload, config)
    _echo(payload)
    if not report.all_within:
        raise _Failure("a convergence row exceeded its modulus bound")
    return 0


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    spec, cost, mu = _parse_instance(config)
    _resolution(config)
    steps = atom_steps(spec, mu.atoms)
    check_tree_depth(steps[-1])
    from .rst import feasible_kernel

    kernel = feasible_kernel(spec, mu, np.random.default_rng(_seed(config)))
    tree = from_kernel(kernel, spec)
    report = validate(tree, mu)
    if not report.ok:
        v = report.violation
        raise _Failure(f"witness tree violates {v.prop} (residual {v.residual:.3e})")
    round_trip = to_kernel(tree)
    marg = marginal_of(round_trip, round_trip.spec)
    payload = {
        "ok": True,
        "atom_steps": list(steps),
        "witness_marginal": measure_to_json(marg),
    }
    _emit("result.json", payload, config)
    _echo(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcstop",
        description="solver and checks for stopping a binomial driver "
                    "under a prescribed stopping-time law",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, exact_flag=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="path to the instance config JSON")
        if exact_flag:
            p.add_argument("--exact", action="store_true",
                           help="pivot in exact rational arithmetic")
        p.set_defaults(func=fn)

    add("solve", cmd_solve, "run the block solver, write root value and tables digest")
    add("policy", cmd_policy, "solve and emit an explicit optimal law tree")
    add("oracle", cmd_oracle, "solve the instance by linear programming", exact_flag=True)
    add("compare", cmd_compare, "run both routes and require agreement")
    add("simulate", cmd_simulate, "Monte Carlo check of an oracle-derived policy")
    add("stability", cmd_stability, "value gaps along nested grid projections")
    add("validate", cmd_validate, "parse the config and verify a feasibility witness")
    return parser


# Built once per process: in-process callers run ``main`` many times.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (_Failure, AssertionError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 3
    except DcstopError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
