"""Outside-in tracing of relusafe's layers for the benchmark's traced run.

A :class:`Tracer` replaces the module attribute of each public layer
function with a timing wrapper, in every ``relusafe`` module that holds a
reference to it: several modules import names directly (``refine`` does
``from .smc import solve``; ``graph``, ``verifier`` and ``scenario`` import
``is_empty_intersection``), so patching the defining module alone would
miss their calls.  A span records name, start, end, parent and a few
attributes read from the call's arguments and return value.  Spans stay in
memory; :func:`layer_metrics` folds one pass's spans into the per-layer
metrics and :meth:`Tracer.dump` writes them out when the run ends.

Span names are ``<module>.<function>`` of the defining module.  A function
referenced from another module gets ``@<that module>`` appended, so the
same geometry test can be told apart as a graph prune test, a verifier
merge-separation test or a scenario disjointness test.
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ATTRS = range(5)


def _lp_attrs(args, kwargs, out):
    lp = args[0]
    return {"rows": len(lp.rows), "vars": lp.num_vars,
            "opt": lp.objective is not None,
            "infeasible": type(out).__name__ == "Infeasible"}


def _smc_attrs(args, kwargs, out):
    return {"status": out.status, "nodes": out.nodes, "lp_calls": out.lp_calls}


def _verify_attrs(args, kwargs, out):
    return {"mode": out.mode, "merges": len(out.merges)}


def _refine_attrs(args, kwargs, out):
    return {"translations": len(out.plan.translations)}


def _simulate_attrs(args, kwargs, out):
    states, _ = out
    return {"steps": int(states.shape[0]) * (int(states.shape[1]) - 1)}


def _graph_attrs(args, kwargs, out):
    pairs = pruned = 0
    bounds = []
    for node in out.cell_nodes():
        for edge in out.edges[node]:
            bounds.append(edge.bound)
            # A sink edge is one prune-or-bisect decision per unsafe piece.
            methods = [rec[4] for rec in edge.pieces] if edge.method == "unsafe" else [edge.method]
            pairs += len(methods)
            pruned += methods.count("pruned")
    return {"pairs": pairs, "pruned": pruned, "bound_sum": math.fsum(bounds),
            "bound_max": max(bounds)}


# (defining module, function, attribute extractor)
TRACED = (
    ("linprog", "solve", _lp_attrs),
    ("smc", "solve", _smc_attrs),
    ("smc", "build_encoding", None),
    ("geometry", "is_empty_intersection", None),
    ("scenario", "make_demo_scenario", None),
    ("scenario", "validate_scenario", None),
    ("graph", "build_graph", _graph_attrs),
    ("verifier", "verify", _verify_attrs),
    ("refine", "select_target", None),
    ("refine", "refine_cell", _refine_attrs),
    ("refine", "find_witness", None),
    ("montecarlo", "estimate_true_pk", None),
    ("montecarlo", "sample_in_polytope", None),
    ("montecarlo", "simulate_batch", _simulate_attrs),
)


class Tracer:
    """In-memory span recorder that patches relusafe from outside."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, out)
            return out
        return traced

    def install(self):
        """Patch every reference to each traced function in loaded relusafe modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "relusafe" or name.startswith("relusafe.")}
        for home, func, attrs in TRACED:
            original = getattr(modules[f"relusafe.{home}"], func)
            for mod_name, mod in modules.items():
                site = mod_name.rpartition(".")[2]
                for attr, value in list(vars(mod).items()):
                    if value is not original:
                        continue
                    name = f"{home}.{func}" if site in (home, "relusafe") else f"{home}.{func}@{site}"
                    setattr(mod, attr, self._wrap(name, original, attrs))
                    self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def dump(self):
        """Spans as JSON-ready rows ``[name, start_s, end_s, parent, attrs]``."""
        t0 = self.spans[0][START] if self.spans else 0.0
        return [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[ATTRS]]
                for s in self.spans]


def tail_percentile(count, min_beyond=10):
    """Highest listed percentile with at least ``min_beyond`` samples above it."""
    for pct in (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0):
        if count * (1.0 - pct / 100.0) >= min_beyond:
            return pct
    return 50.0


def percentile(values, pct):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``.

    Stage spans (``stage.<name>``) opened by the benchmark attribute layer
    work to the pipeline step that caused it.
    """
    n = len(spans)
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_time = [dur[i] - child[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    stage = []
    for i in range(n):
        names = [spans[i][NAME]] + list(ancestors(i))
        stage.append(next((a for a in names if a.startswith("stage.")), ""))

    def pick(name, in_stage=None, under=None):
        return [i for i in range(n)
                if spans[i][NAME] == name
                and (in_stage is None or stage[i] == f"stage.{in_stage}")
                and (under is None or under in ancestors(i))]

    def total(idx, times=dur):
        return float(sum(times[i] for i in idx))

    def attr(i, key):
        return spans[i][ATTRS][key]

    def from_any_site(name):
        return [i for i in range(n) if spans[i][NAME].partition("@")[0] == name]

    lps = pick("linprog.solve")
    smcs = from_any_site("smc.solve")
    encodings = from_any_site("smc.build_encoding")
    builds = pick("graph.build_graph", "build")
    verifies = pick("verifier.verify")
    sims = pick("montecarlo.simulate_batch")
    query_ms = [1000.0 * dur[i] for i in smcs]
    tail = tail_percentile(len(query_ms))
    pairs = sum(attr(i, "pairs") for i in builds)
    bisected = pairs - sum(attr(i, "pruned") for i in builds)
    build_smc = [i for i in smcs if stage[i] == "stage.build"]
    prunes = pick("geometry.is_empty_intersection@graph", "build")
    seps = pick("geometry.is_empty_intersection@verifier")
    sim_s = total(sims)

    out = {
        "linprog.calls": (len(lps), "count"),
        "linprog.self_s": (total(lps, self_time), "s"),
        "linprog.ms_per_call": (1000.0 * total(lps) / max(len(lps), 1), "ms"),
        "linprog.rows_mean": (sum(attr(i, "rows") for i in lps) / max(len(lps), 1), "count"),
        "linprog.vars_mean": (sum(attr(i, "vars") for i in lps) / max(len(lps), 1), "count"),
        "linprog.opt_calls": (sum(attr(i, "opt") for i in lps), "count"),
        "linprog.infeasible_frac": (sum(attr(i, "infeasible") for i in lps) / max(len(lps), 1), "ratio"),
        "smc.calls": (len(smcs), "count"),
        "smc.sat": (sum(attr(i, "status") == "sat" for i in smcs), "count"),
        "smc.unsat": (sum(attr(i, "status") == "unsat" for i in smcs), "count"),
        "smc.unknown": (sum(attr(i, "status") == "unknown" for i in smcs), "count"),
        "smc.nodes": (sum(attr(i, "nodes") for i in smcs), "count"),
        "smc.lp_per_query": (sum(attr(i, "lp_calls") for i in smcs) / max(len(smcs), 1), "count"),
        "smc.self_s": (total(smcs + encodings, self_time), "s"),
        "smc.query_ms.p50": (percentile(query_ms, 50.0) if query_ms else 0.0, "ms"),
        "smc.query_ms.tail": (percentile(query_ms, tail) if query_ms else 0.0, "ms"),
        "smc.query_ms.tail_pct": (tail, "%"),
        "graph.pairs": (pairs, "count"),
        "graph.pruned": (pairs - bisected, "count"),
        "graph.bisected": (bisected, "count"),
        "graph.smc_per_bisected_edge": (len(build_smc) / max(bisected, 1), "count"),
        "graph.prune_tests": (len(prunes), "count"),
        "graph.prune_s": (total(prunes), "s"),
        "graph.self_s": (total(builds, self_time), "s"),
        "graph.edge_bound_sum": (sum(attr(i, "bound_sum") for i in builds), "prob"),
        "graph.edge_bound_max": (max((attr(i, "bound_max") for i in builds), default=0.0), "prob"),
        "verifier.naive_s": (total([i for i in verifies if stage[i] == "stage.verify"
                                    and attr(i, "mode") == "naive"]), "s"),
        "verifier.merge_tpn_s": (total([i for i in verifies if stage[i] == "stage.verify"
                                        and attr(i, "mode") == "merge+tpn"]), "s"),
        "verifier.self_s": (total(verifies, self_time), "s"),
        "verifier.sep_tests": (len(seps), "count"),
        "verifier.sep_s": (total(seps), "s"),
        "verifier.merges": (sum(attr(i, "merges") for i in verifies), "count"),
        "refine.witness_s": (total(pick("refine.find_witness", "refine")), "s"),
        "refine.translations": (sum(attr(i, "translations")
                                    for i in pick("refine.refine_cell", "refine")), "count"),
        "refine.smc_calls": (sum(stage[i] == "stage.refine" for i in smcs), "count"),
        "refine.reverify_s": (total([i for i in verifies if stage[i] == "stage.refine"]), "s"),
        "montecarlo.sample_s": (total(pick("montecarlo.sample_in_polytope")), "s"),
        "montecarlo.simulate_s": (sim_s, "s"),
        "montecarlo.steps_per_s": (sum(attr(i, "steps") for i in sims) / sim_s if sim_s else 0.0, "1/s"),
        "scenario.validate_s": (total(pick("scenario.validate_scenario", "setup")), "s"),
        "scenario.validate_lps": (len(pick("linprog.solve", "setup", "scenario.validate_scenario")), "count"),
    }
    return out
