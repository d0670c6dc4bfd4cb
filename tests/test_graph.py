"""Transition graph: the closed-form threshold bracket, its replay by the
reach-query oracle, pruning guarantees, unsafe-edge decomposition, build
structure, and document persistence."""

import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import linprog
from relusafe import montecarlo as mc
from relusafe import refine as rf
from relusafe import scenario as sc
from relusafe import smc
from relusafe.geometry import (QUANTILE_ERROR, Polytope, augmented_set, gaussian_cdf,
                               gaussian_quantile, is_empty_intersection)


def edge_tail(scenario, cell, region, dq):
    """The tail :func:`gr.estimate_edges` gives the pair ``(cell, region)``."""
    return gr.estimate_edges(scenario, [gr.CellReach(scenario, cell)], [region], dq)[0][0]


def fixed_slack(monkeypatch, z_star):
    """Make every slack query read ``z_star``."""
    monkeypatch.setattr(smc, "max_slacks", lambda queries, sigma: [
        [(z_star, None, None)] * len(targets) for _, targets in queries])


def test_bisection_trace_always_unsat(small_scenario, monkeypatch):
    """No piece reaches the target: the bracket is ``(0, dq)``, and only
    ``dq``'s quantile is asked."""
    seen = []
    true_quantile = gr.gaussian_quantile

    def spy(q):
        seen.append(q)
        return true_quantile(q)

    monkeypatch.setattr(gr, "gaussian_quantile", spy)
    fixed_slack(monkeypatch, -np.inf)
    cell = small_scenario.partition[0]
    tail = edge_tail(small_scenario, cell, small_scenario.partition[1].region, 0.1)
    assert seen == [0.1]
    assert tail == (0.1, 0.0, 0.1, "smc")


def test_bisection_always_sat(small_scenario, monkeypatch):
    """A failed slack LP reads ``z* = +inf``: the bound is one."""
    fixed_slack(monkeypatch, np.inf)
    cell = small_scenario.partition[0]
    tail = edge_tail(small_scenario, cell, small_scenario.partition[1].region, 0.1)
    assert tail == (1.0, math.nextafter(1.0, 0.0), 1.0, "smc")


@pytest.mark.parametrize("z_star", [-np.inf, -40.0, -38.0, -8.0, -1.0, 0.0, 1.0, 6.6,
                                    7.5, 8.2, 8.3, 40.0, np.inf])
@pytest.mark.parametrize("dq", [0.01, 1e-6])
def test_threshold_bracket_rounding_contract(z_star, dq):
    """Across the range of ``z*``: +-inf, values where the CDF rounds to
    zero (-40) or one (8.3, 40), and values where it rounds up past its
    quantile next to one (6.6, 7.5, 8.2).  ``q_hi`` is at least ``dq`` and
    its quantile lies above the tolerance band, or it is one; ``q_lo``'s
    quantile lies below the band, or it is zero; and the gap is at most
    ``dq``."""
    tol = 2e-7
    q_lo, q_hi = gr.threshold_bracket(z_star, tol, dq)
    assert dq <= q_hi <= 1.0 and 0.0 <= q_lo < 1.0
    assert q_hi == 1.0 or gaussian_quantile(q_hi) > z_star + tol
    assert q_lo == 0.0 or gaussian_quantile(q_lo) <= z_star - tol
    assert q_hi - q_lo <= dq
    cdf_hi = gaussian_cdf(z_star + tol + QUANTILE_ERROR)
    cdf_lo = gaussian_cdf(z_star - tol - QUANTILE_ERROR)
    if cdf_hi >= 1.0:
        assert q_hi == 1.0
    if cdf_hi <= dq:
        assert q_hi == dq
    if cdf_lo == 0.0:
        assert q_lo == 0.0
    if cdf_lo >= 1.0:
        assert q_lo == math.nextafter(1.0, 0.0)


def replay_edge(scenario, cell, region, tail, dq):
    """Check ``tail``, the edge tail of ``(cell, region)``, against the
    reach-query oracle: a pruned pair's reach box misses the region's
    augmented set at ``dq``; any other has ``bound == q_hi >= dq``, a gap
    of at most ``dq``, an unsatisfiable query at ``q_hi`` unless it is one
    and a satisfiable one at ``q_lo`` unless it is zero.  Returns the DPLL
    node counts of the replayed queries."""
    sigma = scenario.dynamics.sigma
    bound, q_lo, q_hi, method = tail
    if method == "pruned":
        assert tail == (dq, 0.0, dq, "pruned")
        assert is_empty_intersection(gr.reach_box(scenario, cell),
                                     augmented_set(region, dq, sigma))
        return []
    assert method == "smc"
    assert bound == q_hi >= dq
    assert q_hi - q_lo <= dq
    problem = smc.build_encoding(scenario, cell, region)
    nodes = []
    for q, status in ((q_hi, "unsat"), (q_lo, "sat")):
        if 0.0 < q < 1.0:
            out = smc.solve(problem.with_target(augmented_set(region, q, sigma)))
            assert out.status == status, f"{status} expected at q={q}"
            nodes.append(out.nodes)
    return nodes


def dense_scenario(seed):
    """The 5x5 demo grid under a random dense [8, 8] controller: Gaussian
    weights scaled by fan-in, no zero rows, so few neurons are pre-forced."""
    base = sc.make_demo_scenario(5, [8, 8], seed=0)
    rng = np.random.default_rng(seed)
    layers, prev = [], base.controller.input_dim
    for width in (8, 8, base.controller.output_dim):
        layers.append((rng.normal(size=(width, prev)) / np.sqrt(prev),
                       0.5 * rng.normal(size=width)))
        prev = width
    net = sc.ReluNetwork(layers=tuple(layers), input_dim=base.controller.input_dim)
    return sc.Scenario(dynamics=base.dynamics, controller=net,
                       workspace=base.workspace, partition=base.partition)


def forbid_oracle(monkeypatch):
    """Make the reach-query oracle and its encoding raise when called."""
    def refuse(*args, **kwargs):
        raise AssertionError("the reach-query oracle was called")

    monkeypatch.setattr(smc, "solve", refuse)
    monkeypatch.setattr(smc, "build_encoding", refuse)


def test_grid_walk_equals_oracle_bisection(small_scenario):
    """Every pair and unsafe piece of the small scenario, at dq 0.05: the
    oracle replays each bracket."""
    dq = 0.05
    regions = ([t.region for t in small_scenario.partition]
               + gr.unsafe_pieces(small_scenario.workspace))
    for cell in small_scenario.partition:
        reach = gr.CellReach(small_scenario, cell)
        row = gr.estimate_edges(small_scenario, [reach], regions, dq)[0]
        for region, tail in zip(regions, row):
            replay_edge(small_scenario, cell, region, tail, dq)


def test_grid_walk_equals_oracle_bisection_dense_controller(monkeypatch):
    """Two source rows where the cell splits into several pieces: the
    estimate asks no oracle, and replaying its brackets makes the oracle
    branch."""
    scenario = dense_scenario(1)
    dq = 0.05
    regions = [t.region for t in scenario.partition]
    for i in (21, 23):
        cell = scenario.partition[i]
        reach = gr.CellReach(scenario, cell)
        assert len(reach.pieces) >= 3
        with monkeypatch.context() as patch:
            forbid_oracle(patch)
            row = gr.estimate_edges(scenario, [reach], regions, dq)[0]
        assert sum(e[3] == "smc" for e in row) >= 3
        nodes = [n for region, tail in zip(regions, row)
                 for n in replay_edge(scenario, cell, region, tail, dq)]
        assert max(nodes) > 1


def test_tie_is_decided_by_the_oracle(small_scenario, monkeypatch):
    """A target shifted so that z* sits on the quantile of 0.5, a tie the
    estimate once sent to the oracle: now the bracket straddles 0.5, the
    estimate asks no oracle, and the oracle replays the bracket."""
    dq = 0.05
    cell = small_scenario.partition[4]
    sigma = small_scenario.dynamics.sigma
    region = small_scenario.partition[5].region
    reach = gr.CellReach(small_scenario, cell)
    z_star = smc.max_slack(reach.pieces, [region], sigma)[0][0]
    assert np.isfinite(z_star)
    spread = np.sqrt((region.A ** 2) @ (sigma ** 2))
    tied = Polytope(region.A, region.b - z_star * spread)
    assert abs(smc.max_slack(reach.pieces, [tied], sigma)[0][0] - gr.gaussian_quantile(0.5)) \
        <= smc.slack_tolerance(tied, sigma)

    with monkeypatch.context() as patch:
        forbid_oracle(patch)
        ((tail,),) = gr.estimate_edges(small_scenario, [reach], [tied], dq)
    assert tail[1] < 0.5 < tail[2]
    replay_edge(small_scenario, cell, tied, tail, dq)


def test_build_asks_no_oracle_at_a_fine_dq(demo_scenario, monkeypatch):
    """At dq 1e-6 the threshold grid put 36 of the demo build's thresholds
    within the tolerance band of z* and sent them to the oracle; the build
    now never calls the oracle or its encoding."""
    forbid_oracle(monkeypatch)
    graph = gr.build_graph(demo_scenario, 1e-6)
    assert all(e.bound >= 1e-6 for row in graph.edges.values() for e in row)


def zero_controller_scenario(sigma=1e-3, grid=2):
    """Identity dynamics, u = 0 everywhere: every cell is absorbing."""
    layers = ((np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2)))
    net = sc.ReluNetwork(layers=layers, input_dim=2)
    side = 2.0 * grid
    ws = sc.Workspace(domain=Polytope.box([0, 0], [side, side]), obstacles=(),
                      position_projection=(0, 1))
    cells = tuple(
        sc.PartitionCell(id=f"c{grid * i + j}",
                         region=Polytope.box([2 * i, 2 * j], [2 * i + 2, 2 * j + 2]),
                         C=np.eye(2), c=np.zeros(2))
        for i in range(grid) for j in range(grid))
    dyn = sc.SystemDynamics(A=np.eye(2), B=np.eye(2),
                            sigma=np.array([sigma, sigma]))
    return sc.Scenario(dynamics=dyn, controller=net, workspace=ws, partition=cells)


def test_absorbing_self_loop_bound():
    scenario = zero_controller_scenario()
    dq = 0.05
    cell = scenario.partition[0]
    bound = edge_tail(scenario, cell, cell.region, dq)[0]
    assert bound >= 1.0 - dq
    # Ground truth: a state at the cell center stays put almost surely.
    est = mc.estimate_transition(scenario, np.array([1.0, 1.0]),
                                 cell.region, 10000, seed=4)
    assert est.hit_fraction > 0.999
    assert est.hit_fraction <= bound + 4 * max(est.stddev, 1e-4)


def test_prune_far_pair_and_containing_target(small_scenario):
    dq = 0.05
    far_i, far_j = small_scenario.partition[0], small_scenario.partition[8]
    assert edge_tail(small_scenario, far_i, far_j.region, dq) == (dq, 0.0, dq, "pruned")
    # A target containing the reach box can never be pruned.
    lo, hi = gr.reach_box(small_scenario, far_i).bounding_box()
    big = Polytope.box(lo - 1, hi + 1)
    assert edge_tail(small_scenario, far_i, big, dq)[3] == "smc"


@pytest.mark.parametrize("seed", range(5))
def test_prune_implies_floor_bound(seed):
    """Whenever the filter fires, the pair's bracket, computed without the
    filter, bounds it by ``dq`` as well."""
    scenario = sc.make_demo_scenario(3, [6, 4], seed=seed)
    rng = np.random.default_rng(seed)
    dq = 0.05
    sigma = scenario.dynamics.sigma
    fired = 0
    pairs = rng.permutation(
        [(i, j) for i in range(scenario.num_cells) for j in range(scenario.num_cells)])
    for i, j in pairs[:10]:
        cell_i, region = scenario.partition[i], scenario.partition[j].region
        if edge_tail(scenario, cell_i, region, dq)[3] == "pruned":
            fired += 1
            z_star = smc.max_slack(smc.affine_pieces(scenario, cell_i), [region], sigma)[0][0]
            tol = smc.slack_tolerance(region, sigma)
            assert gr.threshold_bracket(z_star, tol, dq)[1] == dq
    assert fired >= 1  # the sampled pairs always include distant ones


def test_unsafe_pieces_box_domain_no_obstacles():
    scenario = zero_controller_scenario()
    pieces = gr.unsafe_pieces(scenario.workspace)
    assert len(pieces) == 4  # one per reversed domain face


def test_unsafe_bound_deep_inside_small_noise():
    scenario = zero_controller_scenario(sigma=1e-3, grid=3)
    dq = 0.05
    pieces = gr.unsafe_pieces(scenario.workspace)
    interior = scenario.partition[4]  # [2,4]^2, two cell-widths from any face
    bound = gr.sink_edge(scenario, interior, dq).bound
    assert bound <= len(pieces) * dq + 1e-12


def test_unsafe_bound_large_noise_near_edge(small_scenario):
    """With noise comparable to the domain, a corner cell almost surely can
    leave: bound close to one, and above the worst sampled state."""
    loud = sc.Scenario(
        dynamics=sc.SystemDynamics(A=small_scenario.dynamics.A,
                                   B=small_scenario.dynamics.B,
                                   sigma=np.array([2.5, 2.5])),
        controller=small_scenario.controller,
        workspace=small_scenario.workspace,
        partition=small_scenario.partition)
    corner = loud.partition[0]
    bound = gr.sink_edge(loud, corner, dq=0.05).bound
    assert bound >= 0.9
    unsafe_region = Polytope([[-1.0, 0.0]], [0.0])  # x0 <= 0 piece
    est = mc.estimate_transition(loud, np.array([0.05, 0.05]),
                                 unsafe_region, 10000, seed=8)
    assert est.hit_fraction <= bound + 4 * est.stddev


def test_build_graph_single_cell():
    scenario = sc.make_demo_scenario(1, [4], seed=0)
    graph = gr.build_graph(scenario, dq=0.1)
    assert len(graph.nodes) == 2
    row = graph.edges[gr.cell_node(0)]
    assert {str(e.target) for e in row} == {"cell:0", "unsafe"}
    sink_row = graph.edges[gr.UNSAFE]
    assert len(sink_row) == 1 and sink_row[0].bound == 1.0


def test_small_graph_structure(small_graph, small_scenario):
    cells = small_scenario.num_cells
    assert len(small_graph.nodes) == cells + 1
    for i in range(cells):
        row = small_graph.edges[gr.cell_node(i)]
        assert len(row) == cells + 1
        assert row[-1].target == gr.UNSAFE
        for e in row:
            assert small_graph.dq - 1e-15 <= e.bound <= 1.0


def test_outgoing_mass_at_least_one(small_graph, small_scenario):
    """Pointwise transition probabilities sum to one, so the bounds must."""
    for i in range(small_scenario.num_cells):
        total = sum(e.bound for e in small_graph.edges[gr.cell_node(i)])
        assert total >= 1.0 - 1e-9


def test_bisection_contract_replay(small_graph, small_scenario):
    """Brackets: q_hi unsatisfiable, q_lo satisfiable, gap at most dq."""
    dq = small_graph.dq
    sigma = small_scenario.dynamics.sigma
    checked = 0
    for i in range(small_scenario.num_cells):
        for e in small_graph.edges[gr.cell_node(i)]:
            if e.method != "smc" or e.target.kind != "cell" or checked >= 6:
                continue
            checked += 1
            assert e.q_hi - e.q_lo <= dq + 1e-12
            cell = small_scenario.partition[i]
            region = small_scenario.partition[e.target.cells[0]].region
            if e.q_hi < 1.0:
                out = smc.solve(smc.build_encoding(
                    cell=cell, scenario=small_scenario,
                    target_aug=augmented_set(region, e.q_hi, sigma)))
                assert out.status == "unsat"
            if e.q_lo > 0.0:
                out = smc.solve(smc.build_encoding(
                    cell=cell, scenario=small_scenario,
                    target_aug=augmented_set(region, e.q_lo, sigma)))
                assert out.status == "sat"
    assert checked > 0


def test_halving_dq_never_loosens(small_scenario):
    cell_i = small_scenario.partition[4]
    region = small_scenario.partition[5].region
    coarse = edge_tail(small_scenario, cell_i, region, 0.1)[0]
    fine = edge_tail(small_scenario, cell_i, region, 0.05)[0]
    assert fine <= coarse + 1e-12


def assert_same_graph(loaded, built):
    """Every node, header field and edge field of ``built`` is in ``loaded``,
    bit for bit; sink pieces are compared by their region's ``A`` and ``b``
    and their record fields."""
    assert loaded.nodes == built.nodes
    assert (loaded.dq, loaded.scenario_sha256) == (built.dq, built.scenario_sha256)
    assert list(loaded.edges) == list(built.edges)
    for source, row in built.edges.items():
        assert len(loaded.edges[source]) == len(row)
        for again, e in zip(loaded.edges[source], row):
            assert (again.target, again.bound, again.q_lo, again.q_hi, again.method) == \
                (e.target, e.bound, e.q_lo, e.q_hi, e.method)
            assert len(again.pieces) == len(e.pieces)
            for (region2, *rec2), (region, *rec) in zip(again.pieces, e.pieces):
                assert rec2 == rec
                np.testing.assert_array_equal(region2.A, region.A)
                np.testing.assert_array_equal(region2.b, region.b)
    assert loaded.regions == built.regions
    np.testing.assert_array_equal(loaded.sigma, built.sigma)


def test_save_load_roundtrip(small_graph, small_scenario):
    doc = gr.save_graph(small_graph)
    assert_same_graph(gr.load_graph(doc, small_scenario), small_graph)


def test_save_load_roundtrip_demo(loaded_demo_graph, demo_graph):
    assert any(e.pieces for e in demo_graph.edges[gr.cell_node(0)])
    assert_same_graph(loaded_demo_graph, demo_graph)


def test_truncated_document_fails_checksum(small_graph, small_scenario):
    doc = gr.save_graph(small_graph)
    with pytest.raises(gr.GraphChecksumError):
        gr.load_graph(doc[: len(doc) // 2], small_scenario)


def test_version_mismatch_rejected(small_graph, small_scenario):
    doc = gr.save_graph(small_graph)
    head, _, payload = doc.partition("\n")
    bad = head.replace(gr.GRAPH_FORMAT, "relusafe-graph-v999") + "\n" + payload
    with pytest.raises(gr.GraphVersionError):
        gr.load_graph(bad, small_scenario)


def resigned(doc, edit, **header_fields):
    """``doc`` with ``edit`` applied in place to its edge entries and
    ``header_fields`` set, under a recomputed payload checksum."""
    head, _, payload = doc.partition("\n")
    header, body = json.loads(head), json.loads(payload)
    edit(body["edges"])
    payload = json.dumps(body, indent=0)
    header.update(header_fields, payload_sha256=hashlib.sha256(payload.encode()).hexdigest())
    return json.dumps(header) + "\n" + payload


def v1_projection(doc):
    """The document the v1 format wrote for the same graph: the header under
    the v1 tag, and ``(source, target, bound)`` triples."""
    def to_triples(edges):
        edges[:] = [entry[:3] for entry in edges]
    return resigned(doc, to_triples, format="relusafe-graph-v1")


def test_v1_document_rejected(small_graph, small_scenario):
    with pytest.raises(gr.GraphVersionError, match="relusafe-graph-v1"):
        gr.load_graph(v1_projection(gr.save_graph(small_graph)), small_scenario)


def unknown_method(edges):
    edges[0][5] = "bisected"


def short_entry(edges):
    del edges[0][3:]


def unknown_piece_method(edges):
    sink = next(entry for entry in edges if entry[5] == "unsafe")
    sink[6][0][5] = "bisected"


def merged_target(edges):
    edges[0][1] = "merged:1+2"


def merged_method(edges):
    edges[0][5] = "merged"


@pytest.mark.parametrize("edit, message", [
    (unknown_method, "unknown edge method"),
    (short_entry, "malformed edge entry"),
    (unknown_piece_method, "unknown edge method"),
    (merged_target, "bad node literal 'merged:1\\+2'"),
    (merged_method, "unknown edge method 'merged'"),
])
def test_load_rejects_bad_edge_entry(small_graph, small_scenario, edit, message):
    doc = gr.save_graph(small_graph)
    # Re-signing an unedited payload gives the same document.
    assert resigned(doc, lambda edges: None) == doc
    with pytest.raises(gr.GraphError, match=message):
        gr.load_graph(resigned(doc, edit), small_scenario)


def edit_first_edge(**change):
    def edit(edges):
        row = edges[gr.cell_node(0)]
        row[0] = replace(row[0], **change)
    return edit


def merged_source(edges):
    edges[gr.merged_node([1, 2])] = list(edges[gr.cell_node(0)])


def sink_piece_method(edges):
    sink = edges[gr.cell_node(0)][-1]
    piece = sink.pieces[0][:4] + ("bisected",)
    edges[gr.cell_node(0)][-1] = replace(sink, pieces=(piece,) + sink.pieces[1:])


@pytest.mark.parametrize("edit, message", [
    (edit_first_edge(method="merged"), "unknown edge method 'merged'"),
    (edit_first_edge(target=gr.merged_node([1, 2])), "merged nodes"),
    (merged_source, "merged nodes"),
    (sink_piece_method, "unknown edge method 'bisected'"),
], ids=["merged-method", "merged-target", "merged-source", "piece-method"])
def test_save_rejects_what_load_refuses(small_graph, edit, message):
    """An in-memory graph with a merged node or an unknown method fails at
    the write, not at the load of the document it would have written."""
    edges = {source: list(row) for source, row in small_graph.edges.items()}
    edit(edges)
    with pytest.raises(gr.GraphError, match=message):
        gr.save_graph(replace(small_graph, edges=edges))


@pytest.mark.parametrize("payload", ['{"nodes": []}', '{"nodes": [], "edges": 5}',
                                     "not json", "[]"])
def test_load_rejects_malformed_payload(small_graph, small_scenario, payload):
    """A payload that passes its checksum but is not a graph body."""
    header = json.loads(gr.save_graph(small_graph).partition("\n")[0])
    header["payload_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
    with pytest.raises(gr.GraphError, match="malformed graph document"):
        gr.load_graph(json.dumps(header) + "\n" + payload, small_scenario)


def test_load_rejects_non_object_header(small_graph, small_scenario):
    payload = gr.save_graph(small_graph).partition("\n")[2]
    with pytest.raises(gr.GraphError, match="JSON object"):
        gr.load_graph("[]\n" + payload, small_scenario)


def test_dq_recorded_in_header(small_scenario):
    g1 = gr.build_graph(sc.make_demo_scenario(1, [4], seed=0), dq=0.1)
    g2 = gr.build_graph(sc.make_demo_scenario(1, [4], seed=0), dq=0.2)
    h1 = gr.save_graph(g1).partition("\n")[0]
    h2 = gr.save_graph(g2).partition("\n")[0]
    assert h1 != h2 and '"dq": 0.1' in h1 and '"dq": 0.2' in h2


def test_hash_mismatch_detected(small_graph):
    other = sc.make_demo_scenario(2, [6, 4], seed=9)
    doc = gr.save_graph(small_graph)
    with pytest.raises(gr.GraphError, match="hash"):
        gr.load_graph(doc, other)


def test_build_hashes_the_scenario_once(small_scenario, monkeypatch):
    """``build_graph`` leaves the digest to ``bind_scenario``, which hashes
    the scenario once and records it; a bound graph still rejects another
    scenario."""
    calls = []
    real = gr.scenario_sha256

    def counting(scenario):
        calls.append(scenario)
        return real(scenario)

    monkeypatch.setattr(gr, "scenario_sha256", counting)
    graph = gr.build_graph(small_scenario, dq=0.2, jobs=1)
    assert calls == [small_scenario]
    assert graph.scenario_sha256 == real(small_scenario)
    with pytest.raises(gr.GraphError, match="hash"):
        graph.bind_scenario(sc.make_demo_scenario(2, [6, 4], seed=9))


def test_scenario_is_dumped_once_per_object(monkeypatch):
    """The digest is kept on the scenario object: another build and a load
    of the same scenario dump it no more, and the refined scenario, a new
    object, is dumped once."""
    calls = []
    real = sc.dump_scenario
    monkeypatch.setattr(sc, "dump_scenario", lambda scenario: calls.append(scenario)
                        or real(scenario))
    scenario = sc.make_demo_scenario(2, [6, 4], seed=9)
    graph = gr.build_graph(scenario, dq=0.2)
    assert calls == [scenario]
    gr.build_graph(scenario, dq=0.2)
    gr.load_graph(gr.save_graph(graph), scenario)
    assert calls == [scenario]
    result = rf.refine_cell(scenario, graph, None, gr.cell_node(0), gr.cell_node(0), steps=3)
    assert result.plan.committed and calls == [scenario, result.scenario]


def test_parallel_build_matches_serial(small_scenario):
    """Each of 1, 2 and 3 jobs gives the same graph bytes; 2 jobs split the
    nine rows unevenly."""
    serial = gr.save_graph(gr.build_graph(small_scenario, dq=0.2, jobs=1))
    for jobs in (2, 3):
        assert gr.save_graph(gr.build_graph(small_scenario, dq=0.2, jobs=jobs)) == serial


def test_build_runs_two_batches_in_bounded_chunks(demo_scenario, monkeypatch):
    """A one-job build gives all its rows one prune batch and one slack
    batch, and ``solve_many`` runs each in lockstep chunks of at most
    ``LOCKSTEP_CHUNK`` members: as many chunks as those two batches need,
    not a batch per row."""
    batches, chunks = [], []
    many, lockstep = linprog.solve_many, linprog._solve_lockstep
    monkeypatch.setattr(linprog, "solve_many",
                        lambda lps: batches.append(len(lps)) or many(lps))
    monkeypatch.setattr(linprog, "_solve_lockstep",
                        lambda lps: chunks.append(len(lps)) or lockstep(lps))
    gr.build_graph(demo_scenario, dq=0.01)
    prune, slack = [size for size in batches if size >= linprog.LOCKSTEP_MIN]
    cells = demo_scenario.num_cells
    assert prune == cells * (cells + len(gr.unsafe_pieces(demo_scenario.workspace)))
    size = linprog.LOCKSTEP_CHUNK
    assert max(chunks) <= size < slack
    assert len(chunks) == -(-prune // size) - (-slack // size)


@pytest.fixture(scope="module")
def deep3_graph():
    """The benchmark's deep3 workload: few cells, a deep net, large LPs."""
    scenario = sc.make_demo_scenario(3, [16, 16, 16], seed=0,
                                     obstacles=[((6.5, 2.5), (7.5, 3.5))])
    return gr.build_graph(scenario, dq=0.01)


@pytest.fixture(scope="module")
def refined_demo_graph(demo_scenario, demo_graph):
    result = rf.refine_cell(demo_scenario, demo_graph, None, gr.cell_node(15),
                            gr.cell_node(16), steps=4)
    assert result.plan.committed
    return result.graph


@pytest.mark.parametrize("fixture, v1_digest, digest", [
    ("demo_graph", "6d0b62fe2dd99c911cc586b76678628c361471ffb27fa62e454b76ee7f6f1bdb",
     "a91cf840a769c7aa1d0cbb44ad5bec6832f16709082e9dc6e1dd64bf18249898"),
    ("small_graph", "30a659a4425c32a2c107752f764ad93d9a84124b2350da250b135d739b19468b",
     "b2f5a2af101a7329628a754ad6d570a8976f8bfd60531e631b5019b3cec4734e"),
    ("deep3_graph", "1bc89c89a02366958319dea159db10a1d3493dd0578c48637cf39ed4334411a1",
     "4ac45d2ffd63813573e63d205371f1f58b9f8d1c0db2f8f6db309d077e36e56f"),
    ("refined_demo_graph", "86a996f9c48ff744aef2db8ea84ee9d8fb5b043d51e7ad5a7fd4c1fef537f1ae",
     "95ff7612b3c10ed36fe393446e679407284ccadb51dddc02223470ee5b9a5cf9"),
], ids=["demo_graph", "small_graph", "deep3_graph", "refined_demo_graph"])
def test_saved_graph_bytes_pinned(request, fixture, v1_digest, digest):
    """Every bound follows from the prune LPs' verdicts and the slack LPs'
    ``z*`` alone; a solver change that keeps them keeps these bytes.  The
    document's v1 projection, ``(source, target, bound)`` triples, pins the
    bounds apart from the brackets."""
    doc = gr.save_graph(request.getfixturevalue(fixture))
    assert hashlib.sha256(v1_projection(doc).encode()).hexdigest() == v1_digest
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
