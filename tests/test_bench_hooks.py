"""The benchmark's tracing hooks against the library they patch.

``perfbench/spans.py`` patches relusafe's layer functions from outside and
reads the objects passing through them (``lp.rows``, ``lp.num_vars`` and
``lp.objective`` of every LP, SMC outcomes, graphs, bounds).  Running its
tracer around a small pipeline here makes a change to those objects fail in
the test suite rather than only in a benchmark run.
"""

import json
from pathlib import Path

import pytest

import relusafe as rs
from relusafe import linprog

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import spans
    return spans


def test_layer_metrics_cover_the_benchmark(spans):
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("stage.setup"):  # conftest's small_scenario, validation traced
            scenario = rs.make_demo_scenario(3, [6, 4], seed=2,
                                             obstacles=[((5.9, 1.9), (7.8, 3.4))])
        with tracer.span("stage.build"):
            graph = rs.build_graph(scenario, 0.2, jobs=1)
        with tracer.span("stage.verify"):
            rs.verify(graph, scenario, 4, 0.05, mode="naive")
            tight = rs.verify(graph, scenario, 4, 0.05, mode="merge+tpn")
        with tracer.span("stage.refine"):
            source, edge = rs.select_target(graph, tight, k=4)
            result = rs.refine_cell(scenario, graph, tight, source, edge.target, steps=2)
            rs.verify(result.graph, result.scenario, 4, 0.05, mode="merge+tpn")
        with tracer.span("stage.falsify"):
            rs.estimate_true_pk(scenario, 0, 4, 200, 11)
    finally:
        tracer.uninstall()

    metrics = spans.layer_metrics(tracer.spans)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # Stage times and the tracing overhead come from the benchmark's own
    # timers, not from the spans.
    wanted = {m["name"] for m in declared
              if not (m["name"].startswith("stage.") or m["name"] == "trace_overhead_s")}
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
    assert metrics["linprog.calls"][0] > 0
    assert metrics["linprog.rows_mean"][0] > 0 and metrics["linprog.vars_mean"][0] > 0
    assert linprog.solve.__name__ == "solve"  # the tracer restored what it patched
