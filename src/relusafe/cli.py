"""Command-line surface tying the pipeline together.

Subcommands: ``build-graph``, ``verify``, ``refine``, ``simulate``,
``render``, ``compare``.  Outputs are CSV or PPM files.  The exit code is
nonzero whenever a soundness check fails (a Monte-Carlo estimate exceeding
a bound beyond sampling noise).
"""

from __future__ import annotations

import argparse
import csv
import io
import sys

import numpy as np

from . import graph as graph_mod
from . import montecarlo, refine, render, verifier
from .graph import UNSAFE, cell_node
from .scenario import ScenarioError, dump_scenario, load_scenario

# Library errors that end a command with a one-line message, not a traceback.
ERRORS = {
    montecarlo.MonteCarloError: "monte-carlo",
    refine.RefinementError: "refinement",
    graph_mod.GraphError: "graph",
    ScenarioError: "scenario",
    verifier.VerifierError: "verifier",
}


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise SystemExit(f"file error: {exc}") from None


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(f"file error: {exc}") from None


def _load_pair(args):
    scenario = load_scenario(_read(args.scenario))
    graph = graph_mod.load_graph(_read(args.graph), scenario)
    return scenario, graph


def _resolve_cell(scenario, token):
    for i, cell in enumerate(scenario.partition):
        if cell.id == token:
            return i
    try:
        index = int(token)
    except ValueError:
        raise SystemExit(f"unknown cell {token!r}")
    if not (0 <= index < scenario.num_cells):
        raise SystemExit(f"cell index {index} out of range")
    return index


def cmd_build_graph(args):
    scenario = load_scenario(_read(args.scenario))
    graph = graph_mod.build_graph(scenario, dq=args.dq, jobs=args.jobs)
    _write(args.out, graph_mod.save_graph(graph))
    print(f"wrote {args.out}: {len(graph.nodes)} nodes, "
          f"{sum(len(r) for r in graph.edges.values())} edges")
    return 0


def cmd_verify(args):
    scenario, graph = _load_pair(args)
    bounds = verifier.verify(graph, scenario, horizon=args.horizon,
                             p=args.merge_p, mode=args.mode)
    _write(args.out, verifier.bounds_to_csv(bounds, scenario))
    print(f"wrote {args.out}: mode={args.mode} horizon={args.horizon} "
          f"merges={len(bounds.merges)}")
    return 0


def cmd_refine(args):
    scenario, graph = _load_pair(args)
    if args.auto:
        if not args.bounds:
            raise SystemExit("--auto needs --bounds")
        bounds = verifier.bounds_from_csv(_read(args.bounds), scenario)
        source, edge = refine.select_target(graph, bounds, k=bounds.horizon)
        target = edge.target
    else:
        if args.cell is None or args.target is None:
            raise SystemExit("need --auto or both --cell and --target")
        bounds = None  # refine_cell does not read them
        source = cell_node(_resolve_cell(scenario, args.cell))
        target = UNSAFE if args.target == "unsafe" else \
            cell_node(_resolve_cell(scenario, args.target))
    result = refine.refine_cell(scenario, graph, bounds, source, target,
                                steps=args.steps)
    out_scenario, out_graph = args.out.split(",", 1)
    if not result.plan.committed:
        print(f"no refinement applied: {result.plan.note}")
        return 1
    _write(out_scenario, dump_scenario(result.scenario))
    _write(out_graph, graph_mod.save_graph(result.graph))
    print(f"split {source} toward {target}; wrote {out_scenario}, {out_graph}")
    return 0


def cmd_simulate(args):
    scenario = load_scenario(_read(args.scenario))
    index = _resolve_cell(scenario, args.cell)
    est = montecarlo.estimate_true_pk(scenario, index, args.k, args.n, args.seed)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["cell_id", "k", "n_samples", "hit_fraction", "stddev"])
    writer.writerow([est.cell, est.horizon, est.n_samples,
                     repr(est.hit_fraction), repr(est.stddev)])
    text = buf.getvalue()
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_render(args):
    scenario = load_scenario(_read(args.scenario))
    bounds = verifier.bounds_from_csv(_read(args.bounds), scenario)
    render.render_heatmap(bounds, args.k, scenario, args.out, width=args.width)
    print(f"wrote {args.out}")
    return 0


def cmd_compare(args):
    scenario, graph = _load_pair(args)
    T = args.horizon
    configs = {}
    configs["plain"] = verifier.verify(graph, scenario, T, args.merge_p, "naive")
    configs["merge_tpn"] = verifier.verify(graph, scenario, T, args.merge_p, "merge+tpn")

    source, edge = refine.select_target(graph, configs["merge_tpn"], k=T)
    result = refine.refine_cell(scenario, graph, configs["merge_tpn"], source,
                                edge.target, steps=args.steps)
    configs["refined_plain"] = verifier.verify(result.graph, result.scenario,
                                               T, args.merge_p, "naive")
    configs["refined_merge_tpn"] = verifier.verify(result.graph, result.scenario,
                                                   T, args.merge_p, "merge+tpn")
    # A cell's bound is the max over the cells covering it in that configuration.
    identity = tuple((i,) for i in range(scenario.num_cells))
    cell_maps = {"plain": identity, "merge_tpn": identity,
                 "refined_plain": result.cell_map, "refined_merge_tpn": result.cell_map}

    def value(mode, i, k):
        return max(configs[mode].per_k[k][cell_node(j)] for j in cell_maps[mode][i])

    if args.cell is not None:
        probe = _resolve_cell(scenario, args.cell)
    elif result.plan.committed:
        # Lacking a flag, probe a cell adjacent to the refined one.
        split_index = source.cells[0]
        probe = split_index + 1 if split_index + 1 < scenario.num_cells \
            else split_index - 1
    else:
        probe = 0

    modes = list(cell_maps)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "cell_id", "k"] + modes + ["mc_estimate"])
    for i, cell in enumerate(scenario.partition):
        values = [value(mode, i, T) for mode in modes]
        writer.writerow(["bound", cell.id, T] + [repr(v) for v in values] + [""])
    for agg_name, agg in (("mean", np.mean), ("max", np.max)):
        cols = [float(agg([value(mode, i, T) for i in range(scenario.num_cells)]))
                for mode in modes]
        writer.writerow([agg_name, "", T] + [repr(v) for v in cols] + [""])

    violations = 0
    curve = montecarlo.estimate_true_pk_curve(scenario, probe, T, args.n, args.seed)
    for k in range(1, T + 1):
        est = curve[k]
        row = ["mc", scenario.partition[probe].id, k]
        for mode in modes:
            v = value(mode, probe, k)
            row.append(repr(v))
            if est.hit_fraction > v + 4.0 * est.stddev:
                violations += 1
        row.append(repr(est.hit_fraction))
        writer.writerow(row)
    _write(args.out, buf.getvalue())
    print(f"wrote {args.out}; soundness violations: {violations}")
    return 2 if violations else 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="relusafe",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="estimate all transition bounds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--dq", type=float, default=0.01)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("verify", help="propagate safety bounds over a horizon")
    p.add_argument("--graph", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--merge-p", type=float, default=0.01)
    p.add_argument("--mode", choices=verifier.MODES, default="merge+tpn")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("refine", help="split a cell to tighten its bounds")
    p.add_argument("--scenario", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--bounds", help="bounds CSV that --auto picks the target from")
    p.add_argument("--auto", action="store_true")
    p.add_argument("--cell")
    p.add_argument("--target")
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--out", required=True, help="scenario and graph paths, comma separated")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("simulate", help="Monte-Carlo estimate of a cell's risk")
    p.add_argument("--scenario", required=True)
    p.add_argument("--cell", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("render", help="rasterize per-cell bounds to PPM")
    p.add_argument("--scenario", required=True)
    p.add_argument("--bounds", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--width", type=int, default=360)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("compare", help="all four configurations plus MC ground truth")
    p.add_argument("--scenario", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--horizon", type=int, default=6)
    p.add_argument("--merge-p", type=float, default=0.01)
    p.add_argument("--steps", type=int, default=4)
    p.add_argument("--cell", help="designated cell for the MC sweep")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERRORS) as exc:
        label = next(name for cls, name in ERRORS.items() if isinstance(exc, cls))
        raise SystemExit(f"{label} error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
