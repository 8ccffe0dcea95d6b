"""Command-line front end: solve, verify and simulate from a JSON config.

One config file describes an instance (lattice, cost, target law) and its
settings.  ``main`` is the one pipeline of every subcommand: it removes
every ``OUTPUT_FILES`` entry an earlier command left, loads the config,
parses the instance, checks every ``SETTINGS`` row and the largest
simplex grid's size whichever command runs, runs the command and writes its
payload as ``result.json`` (after ``policy.json`` or ``table.csv``) into the
current directory, or into ``$DCSTOP_OUT`` when set, and only then reports a
verification failure.
Outputs are deterministic for a fixed config and seed: keys are sorted and
every file embeds the config digest and version.

Exit codes: 0 on success, 2 for configuration or validation problems, a key
that its section does not take and a ``$DCSTOP_OUT`` that cannot be a
directory included (the message points at the offending config section), 3
when a verification residual exceeds its tolerance (the outputs are written).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import __version__, dpp
from .cost import cost_from_json
from .errors import ConfigError, DcstopError, finite_number, is_integer, refuse_unknown_keys
from .lattice import atom_steps, node_to_json, spec_from_json
from .measures import measure_from_json, measure_to_json
from .mvm import (JsonText, accumulate, check_tree_depth, from_kernel, mvm_to_json, to_kernel,
                  validate)
from .oracle import (build_lp, check_exact_depth, check_oracle_depth, lp_solution_to_kernel,
                     solve_lp)
from .rst import (check_sim_paths, feasible_kernel, kernel_to_json, marginal_of, objective_value,
                  simulate)
from .stability import convergence_sweep, rows_to_csv

MAX_ATOMS = 4
# Every file a command writes into the output directory.
OUTPUT_FILES = ("result.json", "policy.json", "table.csv")
# The instance sections, each read by its parser, which refuses a key it does
# not read.  The top level's other keys and the settings sections' keys come
# from ``SETTINGS``.
PARSERS = {"lattice": spec_from_json, "cost": cost_from_json, "measure": measure_from_json}


def _load_config(path: str) -> dict:
    """The config, its top-level and settings keys checked against ``SETTINGS``."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON ({exc.msg} at line {exc.lineno})") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    top, sections = list(PARSERS), {}
    for section, key, *_ in SETTINGS:
        top.append(key if section is None else section)
        if section is not None:
            sections.setdefault(section, []).append(key)
    refuse_unknown_keys(raw, top, "config")
    for section, taken in sections.items():
        refuse_unknown_keys(raw.get(section), taken, section)
    return raw


def _parse_instance(config: dict):
    """The lattice, cost and target law; an error names the section it is in."""
    parsed = []
    for key, parse in PARSERS.items():
        if key not in config:
            raise ConfigError(f"{key}: missing")
        try:
            parsed.append(parse(config[key]))
        except (KeyError, TypeError, ValueError) as exc:  # DcstopError included
            raise ConfigError(f"{key}: {exc}") from exc
    spec, cost, mu = parsed
    if len(mu.atoms) > MAX_ATOMS:
        raise ConfigError(f"measure: more than {MAX_ATOMS} atoms unsupported")
    return spec, cost, mu


def _count(least: int):
    return lambda value: value if is_integer(value) and value >= least else None


def _time_lists(grids):
    if not isinstance(grids, list) or not all(isinstance(g, list) for g in grids):
        return None
    return [[finite_number(t, "stability: grid time") for t in g] for g in grids]


# Every setting a command reads: (section or None for the top level, key,
# default, check, message).  ``check`` maps a given value to its checked form,
# or to None for a bad one.  ``main`` checks every row for every command.
SETTINGS = (
    ("solver", "resolution", 40, _count(1), "solver: resolution must be a positive integer"),
    ("simulate", "paths", 100_000, _count(1), "simulate: paths must be a positive integer"),
    (None, "seed", 0, _count(0), "seed: must be a non-negative integer"),
    ("stability", "grids", None, _time_lists, "stability: grids must be a list of time lists"),
)


def _settings(config: dict) -> SimpleNamespace:
    """The checked value of every ``SETTINGS`` row, by key."""
    values = {}
    for section, key, default, check, message in SETTINGS:
        where = config if section is None else config.get(section, {})
        if not isinstance(where, dict):
            raise ConfigError(f"{section}: must be an object")
        if key not in where:
            values[key] = default
        elif (value := check(where[key])) is not None:
            values[key] = value
        else:
            raise ConfigError(message)
    return SimpleNamespace(**values)


def _out_dir() -> str:
    """The output directory, ``$DCSTOP_OUT`` or the current one, made when missing.

    Every ``OUTPUT_FILES`` entry an earlier command left is removed: a command
    that exits 2 writes nothing, so no earlier output may stay.  A path that
    cannot be that directory is bad input.
    """
    out = os.environ.get("DCSTOP_OUT", ".")
    try:
        os.makedirs(out, exist_ok=True)
        for name in OUTPUT_FILES:
            Path(out, name).unlink(missing_ok=True)
    except OSError as exc:
        raise ConfigError(f"DCSTOP_OUT: {out} is not a usable directory ({exc.strerror})") from exc
    return out


def render(document: dict) -> str:
    """``json.dumps(document, sort_keys=True, indent=2) + "\\n"``, byte for byte.

    A ``JsonText`` value (the law tree's ``nodes``) comes written: it goes
    where ``json.dumps`` writes ``null`` for it, on the one line that opens
    with two spaces and its key.
    """
    written = {key: value for key, value in document.items() if isinstance(value, JsonText)}
    text = json.dumps({**document, **dict.fromkeys(written)}, sort_keys=True, indent=2)
    for key, value in written.items():
        field = f"\n  {json.dumps(key)}: "
        text = text.replace(field + "null", field + value, 1)
    return text + "\n"


def _emit(out: str, name: str, payload: dict, digest: str) -> None:
    document = {**payload, "config_digest": digest, "version": __version__}
    with open(os.path.join(out, name), "w") as fh:
        fh.write(render(document))


def _echo(payload: dict) -> None:
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, float):
            print(f"{key}: {value:.12g}")
        elif isinstance(value, (str, int, bool)):
            print(f"{key}: {value}")


class _Outcome(NamedTuple):
    """What a command hands back to ``main``, which writes and reports it."""
    payload: dict         # written as result.json and echoed
    failure: str = ""     # a verification failure, reported once every file is written
    files: tuple = ()     # (name, document) pairs written before result.json


def cmd_solve(args, spec, cost, mu, settings) -> _Outcome:
    table = dpp.solve(spec, cost, mu, settings.resolution)
    return _Outcome({
        "value": table.root_value,
        "slack": table.slack,
        "resolution": table.resolution,
        "atom_steps": list(table.steps),
    })


def cmd_policy(args, spec, cost, mu, settings) -> _Outcome:
    check_tree_depth(atom_steps(spec, mu.atoms)[-1])
    table = dpp.solve(spec, cost, mu, settings.resolution)
    tree = dpp.extract_policy(table)
    v = validate(tree, mu)
    objective = accumulate(tree, cost)
    residual = abs(objective - table.root_value)
    failure = ""
    if v is not None:
        failure = (f"policy tree violates {v.prop} at {json.dumps(node_to_json(v.node))} "
                   f"(residual {v.residual:.3e})")
    elif residual > dpp.AGREE_TOL:
        failure = f"policy objective off the solved value by {residual:.3e}"
    return _Outcome({
        "value": table.root_value,
        "policy_objective": objective,
        "residual": residual,
    }, failure, files=(("policy.json", mvm_to_json(tree)),))


def cmd_oracle(args, spec, cost, mu, settings) -> _Outcome:
    if args.exact:
        check_exact_depth(atom_steps(spec, mu.atoms))
    problem = build_lp(spec, cost, mu)
    solution = solve_lp(problem, exact=args.exact)
    return _Outcome({
        "value": solution.value,
        "status": "optimal",
        "kernel": kernel_to_json(lp_solution_to_kernel(problem, solution)),
        "duality_gap": solution.duality_gap,
        "reduced_cost_violation": solution.reduced_cost_violation,
        "slackness_violation": solution.slackness_violation,
        "variables": problem.a.shape[1],
        "exact": bool(args.exact),
    })


def cmd_compare(args, spec, cost, mu, settings) -> _Outcome:
    check_oracle_depth(atom_steps(spec, mu.atoms)[-1])
    table = dpp.solve(spec, cost, mu, settings.resolution)
    reference = solve_lp(build_lp(spec, cost, mu)).value
    difference = abs(table.root_value - reference)
    agree = difference <= dpp.AGREE_TOL
    payload = {
        "solver_value": table.root_value,
        "oracle_value": reference,
        "difference": difference,
        "tolerance": dpp.AGREE_TOL,
        "agree": agree,
    }
    return _Outcome(payload, "" if agree else f"solver and oracle disagree by {difference:.3e}")


def cmd_simulate(args, spec, cost, mu, settings) -> _Outcome:
    check_sim_paths(settings.paths)
    problem = build_lp(spec, cost, mu)
    kernel = lp_solution_to_kernel(problem, solve_lp(problem))
    expected = objective_value(kernel, cost)
    report = simulate(kernel, cost, settings.paths, settings.seed)
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
    if report.stderr > 0 and deviation > 6.0 * report.stderr:
        return _Outcome(payload, f"simulated mean off by {deviation / report.stderr:.1f} stderr")
    return _Outcome(payload)


def cmd_stability(args, spec, cost, mu, settings) -> _Outcome:
    if settings.grids is None:
        raise ConfigError("stability: needs a grids list")
    rows = convergence_sweep(spec, cost, mu, settings.grids)
    rows_to_csv(rows, os.path.join(args.out, "table.csv"))
    ok = all(row["within"] for row in rows)
    return _Outcome({"all_within": ok, "levels": len(rows)},
                    "" if ok else "a convergence row exceeded its modulus bound")


def cmd_validate(args, spec, cost, mu, settings) -> _Outcome:
    steps = atom_steps(spec, mu.atoms)
    check_tree_depth(steps[-1])
    kernel = feasible_kernel(spec, mu, np.random.default_rng(settings.seed))
    tree = from_kernel(kernel)
    v = validate(tree, mu)
    return _Outcome({
        "ok": v is None,
        "atom_steps": list(steps),
        "witness_marginal": measure_to_json(marginal_of(to_kernel(tree))),
    }, "" if v is None else f"witness tree violates {v.prop} (residual {v.residual:.3e})")


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

    add("solve", cmd_solve, "run the block solver, write root value and grid slack")
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
        args.out = _out_dir()
        config = _load_config(args.config)
        spec, cost, mu = _parse_instance(config)
        settings = _settings(config)
        # The largest grid a solved table's ``slack`` samples, refused for
        # every command: a config is valid or not whichever command runs it.
        dpp.check_grid_size(len(mu.atoms), settings.resolution)
        outcome = args.func(args, spec, cost, mu, settings)
    except DcstopError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(canon.encode()).hexdigest()
    for name, document in outcome.files:
        _emit(args.out, name, document, digest)
    _emit(args.out, "result.json", outcome.payload, digest)
    _echo(outcome.payload)
    if outcome.failure:
        print(f"verification failed: {outcome.failure}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
