"""Per-layer spans, recorded by wrapping dcstop's public names from outside.

Each wrapper replaces a name at the module (or class) its callers look it up
in, records one span per call (name, start, end, parent span, op id) and keeps
every span in memory until the pass ends.  Counts come from arguments and
return values.  Nothing inside ``src/`` knows about the trace.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict

# (metric, unit, better): every per-layer metric a traced run reports.
PER_LAYER = (
    ("dpp.slack.s", "s", "lower"),
    ("dpp.slack.calls", "count", "lower"),
    ("dpp.table.sample_s", "s", "lower"),
    ("dpp.table.entries", "count", "lower"),
    ("dpp.grid.build_s", "s", "lower"),
    ("dpp.pair_sup.s", "s", "lower"),
    ("dpp.pair_sup.calls", "count", "lower"),
    ("dpp.pair_sup.cloud_pts", "count", "lower"),
    ("dpp.pair_sup.cloud_pts_max", "count", "lower"),
    ("dpp.pair_sup.verts_out", "count", "lower"),
    ("dpp.pair_sup.yield", "ratio", "higher"),
    ("dpp.perspective.s", "s", "lower"),
    ("dpp.solve.s", "s", "lower"),
    ("dpp.solve.self_s", "s", "lower"),
    ("dpp.solve.calls", "count", "lower"),
    ("oracle.build_lp.s", "s", "lower"),
    ("oracle.solve_lp.s", "s", "lower"),
    ("oracle.lp.rows_max", "count", "lower"),
    ("oracle.lp.cols_max", "count", "lower"),
    ("oracle.lp.nnz_max", "count", "lower"),
    ("oracle.lp.dense_mb_max", "MB", "lower"),
    ("oracle.to_kernel.s", "s", "lower"),
    ("oracle.cert.max_residual", "abs", "lower"),
    ("oracle.solve_lp_exact.s", "s", "lower"),
    ("rst.simulate.s", "s", "lower"),
    ("rst.simulate.paths", "count", "higher"),
    ("rst.simulate.paths_per_s", "1/s", "higher"),
    ("rst.objective_value.s", "s", "lower"),
    ("dpp.extract_policy.s", "s", "lower"),
    ("dpp.extract_policy.tree_nodes", "count", "lower"),
    ("mvm.validate.s", "s", "lower"),
    ("mvm.accumulate.s", "s", "lower"),
    ("lattice.nodes_at_step.s", "s", "lower"),
    ("lattice.nodes_at_step.calls", "count", "lower"),
    ("lattice.nodes", "count", "lower"),
    ("cost.evaluate.calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.out_bytes", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """Span and counter store for one pass; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.maxes: dict[str, float] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, owner, attr: str, name, observe=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, 0.0, 0.0, stack[-1] if stack else -1, self.op])
            stack.append(idx)
            start = clock()
            try:
                out = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if observe is not None:
                observe(args, kwargs, out)
            return out

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap each layer's public names where the CLI path looks them up."""
        import dcstop.cli as cli
        import dcstop.dpp as dpp
        import dcstop.mvm as mvm
        import dcstop.oracle as oracle
        import dcstop.rst as rst

        count, top = self.counts, self.maxes

        def on_pair_sup(args, kwargs, out):
            up, down = args[0], args[1]
            pts = up.verts.shape[0] * down.verts.shape[0]
            count["cloud_pts"] += pts
            count["verts_out"] += out.verts.shape[0]
            top["cloud_pts"] = max(top["cloud_pts"], pts)

        def on_build_lp(args, kwargs, out):
            rows, cols = out.a.shape
            top["rows"] = max(top["rows"], rows)
            top["cols"] = max(top["cols"], cols)
            top["nnz"] = max(top["nnz"], int((out.a != 0).sum()))
            top["dense_mb"] = max(top["dense_mb"], out.a.nbytes / 1e6)

        def on_solve_lp(args, kwargs, out):
            worst = max(out.reduced_cost_violation, out.slackness_violation, out.duality_gap)
            if not math.isnan(worst):
                top["residual"] = max(top["residual"], worst)

        def on_simulate(args, kwargs, out):
            count["paths"] += out.n_paths

        def on_extract(args, kwargs, out):
            count["tree_nodes"] += len(out.vectors)

        def on_nodes(args, kwargs, out):
            count["nodes"] += len(out)

        def on_sample(args, kwargs, out):
            count["entries"] += out.shape[0]

        def lp_name(args, kwargs):
            exact = kwargs.get("exact", args[1] if len(args) > 1 else False)
            return "oracle.solve_lp_exact" if exact else "oracle.solve_lp"

        self._wrap(cli, "main", "cli.main")
        self._wrap(dpp, "solve", "dpp.solve")
        self._wrap(dpp, "pair_sup", "dpp.pair_sup", on_pair_sup)
        self._wrap(dpp, "perspective", "dpp.perspective")
        self._wrap(dpp, "extract_policy", "dpp.extract_policy", on_extract)
        self._wrap(dpp.SimplexGrid, "__init__", "dpp.grid.build")
        self._wrap(dpp.SimplexGrid, "max_adjacent_diff", "dpp.slack")
        self._wrap(dpp.ConcavePL, "evaluate_batch", "dpp.table.sample", on_sample)
        for mod in (cli, oracle):
            self._wrap(mod, "build_lp", "oracle.build_lp", on_build_lp)
            self._wrap(mod, "solve_lp", lp_name, on_solve_lp)
        self._wrap(cli, "lp_solution_to_kernel", "oracle.to_kernel")
        self._wrap(cli, "simulate", "rst.simulate", on_simulate)
        self._wrap(cli, "objective_value", "rst.objective_value")
        self._wrap(cli, "validate", "mvm.validate")
        self._wrap(cli, "accumulate", "mvm.accumulate")
        for mod in (dpp, rst):
            self._wrap(mod, "nodes_at_step", "lattice.nodes_at_step", on_nodes)
        for mod in (dpp, oracle, rst, mvm):
            self._wrap(mod, "evaluate", "cost.evaluate")

    def uninstall(self) -> bool:
        """Put every original back; True when each name is the original again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)) is original
            for owner, attr, original in self._patches
        )
        self._patches.clear()
        return restored

    def metrics(self, out_bytes: int) -> dict[str, float]:
        """Per-layer figures of the pass, keyed like ``PER_LAYER`` (overhead excluded)."""
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c, m = self.counts, self.maxes
        simulate_s = total["rst.simulate"]
        return {
            "dpp.slack.s": total["dpp.slack"],
            "dpp.slack.calls": calls["dpp.slack"],
            "dpp.table.sample_s": total["dpp.table.sample"],
            "dpp.table.entries": c["entries"],
            "dpp.grid.build_s": total["dpp.grid.build"],
            "dpp.pair_sup.s": total["dpp.pair_sup"],
            "dpp.pair_sup.calls": calls["dpp.pair_sup"],
            "dpp.pair_sup.cloud_pts": c["cloud_pts"],
            "dpp.pair_sup.cloud_pts_max": m["cloud_pts"],
            "dpp.pair_sup.verts_out": c["verts_out"],
            "dpp.pair_sup.yield": c["verts_out"] / c["cloud_pts"] if c["cloud_pts"] else 0.0,
            "dpp.perspective.s": total["dpp.perspective"],
            "dpp.solve.s": total["dpp.solve"],
            "dpp.solve.self_s": own["dpp.solve"],
            "dpp.solve.calls": calls["dpp.solve"],
            "oracle.build_lp.s": total["oracle.build_lp"],
            "oracle.solve_lp.s": total["oracle.solve_lp"],
            "oracle.lp.rows_max": m["rows"],
            "oracle.lp.cols_max": m["cols"],
            "oracle.lp.nnz_max": m["nnz"],
            "oracle.lp.dense_mb_max": m["dense_mb"],
            "oracle.to_kernel.s": total["oracle.to_kernel"],
            "oracle.cert.max_residual": m["residual"],
            "oracle.solve_lp_exact.s": total["oracle.solve_lp_exact"],
            "rst.simulate.s": simulate_s,
            "rst.simulate.paths": c["paths"],
            "rst.simulate.paths_per_s": c["paths"] / simulate_s if simulate_s else 0.0,
            "rst.objective_value.s": total["rst.objective_value"],
            "dpp.extract_policy.s": total["dpp.extract_policy"],
            "dpp.extract_policy.tree_nodes": c["tree_nodes"],
            "mvm.validate.s": total["mvm.validate"],
            "mvm.accumulate.s": total["mvm.accumulate"],
            "lattice.nodes_at_step.s": total["lattice.nodes_at_step"],
            "lattice.nodes_at_step.calls": calls["lattice.nodes_at_step"],
            "lattice.nodes": c["nodes"],
            "cost.evaluate.calls": calls["cost.evaluate"],
            "cli.self_s": own["cli.main"],
            "cli.out_bytes": out_bytes,
        }
