"""relusafe benchmark: generated scenarios through the whole user pipeline.

Usage, from the repository root::

    python3 perfbench/run.py --workload demo5 --seed 1 --seconds 32 --trace 0

A run takes one scenario from ``make_demo_scenario`` through the pipeline a
user runs:

1. setup    ``make_demo_scenario`` (which validates the scenario)
2. build    ``build_graph(scenario, dq)``, ``jobs`` left at its default
3. verify   ``verify`` in modes "naive" and "merge+tpn"
4. refine   ``select_target(k=T)``, ``refine_cell``, then ``verify`` of the
            refined graph in mode "merge+tpn"
5. falsify  ``estimate_true_pk`` for every cell at ``k = T``

Workloads (grid, hidden widths):

* ``demo5`` 5, [8, 8]: the acceptance scenario; LP, verifier merging and
  Monte-Carlo all take a visible share.
* ``deep3`` 3, [16, 16, 16]: few cells, deep net, large LPs; linprog
  dominates, the verifier and Monte-Carlo barely show.
* ``grid6`` 6, [8, 8]: many cells, shallow net, small LPs; pruning,
  merging, validation and falsification dominate.  Not listed in
  ``BENCHMARK.json``: a pass takes 35-40 s on a 2-core machine, so a traced
  run takes about two minutes and a full set of runs of all three
  workloads no longer fits the benchmark's time budget.  It stays runnable
  for confirming claims about pruning and merging by hand.

Timing (``--trace 0``).  Wall time on a shared 2-core machine drifts by a
third or more over tens of seconds, so every stage is repeated until it has
run for its share of ``--seconds`` (a quarter each for build, verify,
refine and falsify; always at least once) and reports the median time per
call.  ``pipeline_s`` is the sum of the four stage medians; the stage
medians are printed and recorded but are not end-to-end metrics, because
each spreads by 15-30% between runs where their sum spreads far less.
Set-up is repeated for ``SETUP_SECONDS`` at the start and at the end of the
run and reports the median of all of them.

Seeds.  ``--seed`` draws the Monte-Carlo streams.  The scenario comes from
``make_demo_scenario(seed=--scenario-seed)``, default 0 (the acceptance
scenario); 1 is held out for confirming claims.  The library seed is not
tied to ``--seed`` because it moves the work and the bounds far more than
any bound a benchmark could hold: across library seeds 0-9, demo5's mean
merge+tpn bound ranges from 0.44 to 0.83.

Tracing (``--trace 1``).  One traced pass, one untraced pass and a second
traced pass, each calling every stage once, with ``jobs=1`` in the traced
ones.  Per-layer metrics come from the first traced pass; the run fails
unless both traced passes give identical counters and all three give the
same bound fingerprint.

Every pass is gated: each Monte-Carlo estimate must not exceed the naive,
merge+tpn and refined merge+tpn bound of its cell by more than four
standard deviations, merge+tpn must not exceed naive for any cell and
horizon, and every edge bound must lie in [dq, 1].  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 1 when a gate
fails.  ``falsify_pass_frac`` is the share of those checks that passed; a
pass whose stage raises counts all of its checks as failed.  Environment,
bound fingerprint and, for traced runs, every span go to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"

# Small dense matrices only; BLAS threads would add noise, not speed.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOADS = {
    "demo5": (5, (8, 8)),
    "grid6": (6, (8, 8)),
    "deep3": (3, (16, 16, 16)),
}
# Acceptance settings of the pipeline, identical for every workload.
OBSTACLES = [((6.5, 2.5), (7.5, 3.5))]
DQ = 0.01
HORIZON = 9
MERGE_P = 0.01
REFINE_STEPS = 4
MC_TRAJECTORIES = 2000          # binomial sigma <= 1.2% per estimate
MC_SIGMAS = 4.0
DOMINANCE_TOL = 1e-12           # summation-order rounding between value functions
SETUP_SECONDS = 1.0

DEFAULT_SEED = 1
DEFAULT_SCENARIO_SEED = 0
HELD_OUT_SCENARIO_SEED = 1

STAGES = ("build", "verify", "refine", "falsify")
TIME_UNITS = ("s", "ms", "1/s")


class Checks:
    """Correctness gate tally; failures keep a short message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, message, *args):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message % args)

    def fail_all(self, count, message):
        self.attempted += count
        self.failed += count
        self.messages.append(message)


def planned_checks(cells):
    """Gate checks of one pass over ``cells`` cells whose refinement commits."""
    edges = cells * (cells + 1) + 1
    refined_edges = (cells + 1) * (cells + 2) + 1
    return edges + refined_edges + cells * HORIZON + 3 * cells


def repeat(fn, seconds):
    """Call ``fn`` until ``seconds`` have passed, at least once.

    Returns the first call's result and every call's duration.
    """
    times = []
    result = None
    while not times or sum(times) < seconds:
        gc.collect()
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
        if len(times) == 1:
            result = out
    return result, times


def make_scenario(rs, workload, scenario_seed):
    grid, widths = WORKLOADS[workload]
    return rs.make_demo_scenario(grid, list(widths), seed=scenario_seed, obstacles=OBSTACLES)


def mc_seed(rs, seed):
    """Monte-Carlo base seed; cell ``i`` uses ``mc_seed + i``, so seeds must not be adjacent."""
    return int(rs.montecarlo.stream(seed, 0).integers(1 << 62))


def gate_edges(graph, checks):
    for node, row in graph.edges.items():
        for e in row:
            checks.record(graph.dq <= e.bound <= 1.0,
                          "edge %s->%s bound %r outside [dq, 1]", node, e.target, e.bound)


def run_pass(rs, args, checks, stage_seconds=0.0, setup_seconds=0.0, tracer=None, jobs=None):
    """One pipeline pass.

    Returns (durations per stage, fingerprint, bound_mean); each stage is
    repeated for ``stage_seconds`` and set-up for ``setup_seconds``.
    """
    durations = {}

    def stage(name, fn, seconds=stage_seconds):
        with tracer.span(f"stage.{name}") if tracer else nullcontext():
            out, durations[name] = repeat(fn, seconds)
        return out

    def build():
        if jobs is None:
            return rs.build_graph(scenario, DQ)
        return rs.build_graph(scenario, DQ, jobs=jobs)

    def refine():
        source, edge = rs.select_target(graph, tight, k=HORIZON)
        result = rs.refine_cell(scenario, graph, tight, source, edge.target, steps=REFINE_STEPS)
        return source, result, rs.verify(result.graph, result.scenario, HORIZON, MERGE_P,
                                         mode="merge+tpn")

    base_seed = mc_seed(rs, args.seed)
    scenario = stage("setup", lambda: make_scenario(rs, args.workload, args.scenario_seed),
                     setup_seconds)
    cells = scenario.num_cells
    graph = stage("build", build)
    naive, tight = stage("verify", lambda: (
        rs.verify(graph, scenario, HORIZON, MERGE_P, mode="naive"),
        rs.verify(graph, scenario, HORIZON, MERGE_P, mode="merge+tpn")))
    source, result, refined = stage("refine", refine)
    estimates = stage("falsify", lambda: [
        rs.estimate_true_pk(scenario, i, HORIZON, MC_TRAJECTORIES, base_seed + i)
        for i in range(cells)])

    node = rs.cell_node
    split = source.cells[0] if result.plan.committed else None

    def refined_bound(i):
        # The split cell's bound is the max over its two halves.
        if split is None or i < split:
            return refined.per_k[HORIZON][node(i)]
        if i == split:
            return max(refined.per_k[HORIZON][node(i)], refined.per_k[HORIZON][node(i + 1)])
        return refined.per_k[HORIZON][node(i + 1)]

    gate_edges(graph, checks)
    gate_edges(result.graph, checks)
    for k in range(1, HORIZON + 1):
        for i in range(cells):
            a, b = tight.per_k[k][node(i)], naive.per_k[k][node(i)]
            checks.record(a <= b + DOMINANCE_TOL,
                          "k=%d cell %d: merge+tpn %r above naive %r", k, i, a, b)
    for i, est in enumerate(estimates):
        for label, bound in (("naive", naive.per_k[HORIZON][node(i)]),
                             ("merge+tpn", tight.per_k[HORIZON][node(i)]),
                             ("refined merge+tpn", refined_bound(i))):
            checks.record(est.hit_fraction <= bound + MC_SIGMAS * est.stddev,
                          "cell %d: estimate %r +- %r above %s bound %r",
                          i, est.hit_fraction, est.stddev, label, bound)

    def summary(bounds, nodes):
        values = [bounds.per_k[HORIZON][v] for v in nodes]
        return {"mean": statistics.fmean(values), "max": max(values)}

    edge_bounds = [e.bound for v in graph.cell_nodes() for e in graph.edges[v]]
    fingerprint = {
        "graph_sha256": hashlib.sha256(rs.save_graph(graph).encode()).hexdigest(),
        "edge_bound_sum": math.fsum(edge_bounds),
        "edge_bound_max": max(edge_bounds),
        "per_k_T": {
            "naive": summary(naive, graph.cell_nodes()),
            "merge+tpn": summary(tight, graph.cell_nodes()),
            "refined merge+tpn": summary(refined, result.graph.cell_nodes()),
        },
    }
    bound_mean = statistics.fmean(tight.per_k[k][v] for k in range(1, HORIZON + 1)
                                  for v in graph.cell_nodes())
    return durations, fingerprint, bound_mean


def pipeline_seconds(durations):
    return sum(statistics.median(durations[s]) for s in STAGES)


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(np):
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def untraced_run(rs, args, checks):
    durations, fingerprint, bound_mean = run_pass(
        rs, args, checks, stage_seconds=args.seconds / len(STAGES), setup_seconds=SETUP_SECONDS)
    _, late_setups = repeat(lambda: make_scenario(rs, args.workload, args.scenario_seed),
                            SETUP_SECONDS)
    metrics = {
        "setup_s": (statistics.median(durations["setup"] + late_setups), "s"),
        "pipeline_s": (pipeline_seconds(durations), "s"),
        "bound_mean": (bound_mean, "prob"),
        "falsify_pass_frac": (1.0 - checks.failed / checks.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    record = {"fingerprint": fingerprint,
              "stages_s": {name: statistics.median(durations[name]) for name in STAGES},
              "calls": {name: len(times) for name, times in durations.items()}}
    return metrics, record


def traced_run(rs, args, checks, spans):
    """Two traced passes around one untraced pass, so drift cancels in the overhead."""
    def traced_pass():
        tracer = spans.Tracer()
        tracer.install()
        try:
            durations, fingerprint, _ = run_pass(rs, args, checks, tracer=tracer, jobs=1)
        finally:
            tracer.uninstall()
        return tracer, durations, fingerprint, spans.layer_metrics(tracer.spans)

    tracer, durations, fingerprint, metrics = traced_pass()
    plain, plain_print, _ = run_pass(rs, args, checks)
    _, durations2, fingerprint2, metrics2 = traced_pass()

    def counters(m):
        return {k: v for k, (v, unit) in m.items() if unit not in TIME_UNITS}

    first, second = counters(metrics), counters(metrics2)
    checks.record(first == second, "traced passes disagree on counters: %s",
                  sorted(k for k in first if first[k] != second[k]))
    checks.record(fingerprint == fingerprint2 == plain_print,
                  "bound fingerprints differ between passes: %s / %s / %s",
                  fingerprint, plain_print, fingerprint2)
    for name in STAGES:
        metrics[f"stage.{name}_s"] = (plain[name][0], "s")
    traced_s = 0.5 * (pipeline_seconds(durations) + pipeline_seconds(durations2))
    metrics["trace_overhead_s"] = (traced_s - pipeline_seconds(plain), "s")
    record = {"fingerprint": fingerprint,
              "untraced_pipeline_s": pipeline_seconds(plain),
              "traced_pipeline_s": [pipeline_seconds(durations), pipeline_seconds(durations2)],
              "spans": tracer.dump()}
    return metrics, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=DEFAULT_SCENARIO_SEED,
                        help=f"make_demo_scenario seed; {HELD_OUT_SCENARIO_SEED} is held out")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "relusafe" / "__init__.py").is_file():
        print(f"perfbench: no relusafe sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(src))
    import numpy as np
    import relusafe as rs
    import spans

    checks = Checks()
    try:
        if args.trace:
            metrics, record = traced_run(rs, args, checks, spans)
        else:
            metrics, record = untraced_run(rs, args, checks)
    except Exception:
        traceback.print_exc()
        grid, _ = WORKLOADS[args.workload]
        checks.fail_all(planned_checks(grid * grid) * (3 if args.trace else 1),
                        "a pipeline stage raised")
        metrics, record = {}, {}

    env = environment(np)
    print("env " + json.dumps(env))
    for key in ("fingerprint", "stages_s"):
        if key in record:
            print(f"{key} " + json.dumps(record[key]))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for message in checks.messages:
        print("FAILED " + message, file=sys.stderr)
    correct = checks.failed == 0 and bool(metrics)

    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "scenario_seed": args.scenario_seed, "environment": env,
                   "checks": {"attempted": checks.attempted, "failed": checks.failed,
                              "messages": checks.messages},
                   "metrics": {k: v for k, (v, _) in metrics.items()}, **record}, fh)

    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
