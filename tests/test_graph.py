"""Transition graph: threshold-grid mechanics, equality with a bisection
driven by the reach-query oracle, pruning guarantees, unsafe-edge
decomposition, build structure, and document persistence."""

import hashlib

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import montecarlo as mc
from relusafe import scenario as sc
from relusafe import smc
from relusafe.geometry import Polytope, augmented_set, is_empty_intersection


def test_bisection_floor_values():
    assert gr.bisection_floor(0.1) == pytest.approx(0.0625)
    assert gr.bisection_floor(0.01) == pytest.approx(1 / 128)
    assert gr.bisection_floor(0.5) == pytest.approx(0.5)


def test_bisection_trace_always_unsat(small_scenario, monkeypatch):
    seen = []
    true_quantile = gr.gaussian_quantile

    def spy(q):
        seen.append(q)
        return true_quantile(q)

    monkeypatch.setattr(gr, "gaussian_quantile", spy)
    monkeypatch.setattr(smc, "max_slack", lambda *a: (-np.inf, None, None))
    cell = small_scenario.partition[0]
    bound = gr.estimate_bound(small_scenario, cell, small_scenario.partition[1], 0.1)
    assert seen == [0.5, 0.25, 0.125, 0.0625]
    assert bound == pytest.approx(0.0625)


def test_bisection_always_sat(small_scenario, monkeypatch):
    monkeypatch.setattr(smc, "max_slack", lambda *a: (np.inf, None, None))
    cell = small_scenario.partition[0]
    bound = gr.estimate_bound(small_scenario, cell, small_scenario.partition[1], 0.1)
    assert bound == 1.0


def reference_edge(scenario, cell, region, dq):
    """The edge tuple of a threshold bisection that asks the reach-query
    oracle at every step, after the same prune test."""
    sigma = scenario.dynamics.sigma
    if is_empty_intersection(gr.reach_box(scenario, cell),
                             augmented_set(region, gr.bisection_floor(dq), sigma)):
        return dq, 0.0, dq, "pruned"
    problem = smc.build_encoding(scenario, cell, region)
    q_lo, q_hi = 0.0, 1.0
    while q_hi - q_lo > dq:
        q = 0.5 * (q_lo + q_hi)
        if smc.solve(problem.with_target(augmented_set(region, q, sigma))).is_sat:
            q_lo = q
        else:
            q_hi = q
    return max(q_hi, dq), q_lo, q_hi, "smc"


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


def test_grid_walk_equals_oracle_bisection(small_scenario):
    """Every pair and unsafe piece of the small scenario, at dq 0.05."""
    dq = 0.05
    for cell in small_scenario.partition:
        reach = gr.CellReach(small_scenario, cell)
        regions = ([t.region for t in small_scenario.partition]
                   + gr.unsafe_pieces(small_scenario.workspace))
        for region in regions:
            assert (gr.estimate_edge(small_scenario, cell, region, dq, reach)
                    == reference_edge(small_scenario, cell, region, dq))


def test_grid_walk_equals_oracle_bisection_dense_controller(monkeypatch):
    """Two source rows where the cell splits into several pieces and the
    oracle has to branch."""
    scenario = dense_scenario(1)
    dq = 0.05
    nodes = []
    real_solve = smc.solve

    def counting_solve(*args, **kwargs):
        out = real_solve(*args, **kwargs)
        nodes.append(out.nodes)
        return out

    monkeypatch.setattr(smc, "solve", counting_solve)
    for i in (21, 23):
        cell = scenario.partition[i]
        reach = gr.CellReach(scenario, cell)
        assert len(reach.pieces) >= 3
        row = [gr.estimate_edge(scenario, cell, t.region, dq, reach) for t in scenario.partition]
        assert not nodes  # no grid point fell within the tie tolerance
        assert row == [reference_edge(scenario, cell, t.region, dq) for t in scenario.partition]
        assert sum(e[3] == "smc" for e in row) >= 3
        assert max(nodes) > 1
        nodes.clear()


def test_tie_is_decided_by_the_oracle(small_scenario, monkeypatch):
    """A target shifted so that z* sits exactly on the first grid quantile."""
    dq = 0.05
    cell = small_scenario.partition[4]
    sigma = small_scenario.dynamics.sigma
    region = small_scenario.partition[5].region
    reach = gr.CellReach(small_scenario, cell)
    z_star = smc.max_slack(reach.pieces, region, sigma)[0]
    assert np.isfinite(z_star)
    spread = np.sqrt((region.A ** 2) @ (sigma ** 2))
    tied = Polytope(region.A, region.b - z_star * spread)
    assert abs(smc.max_slack(reach.pieces, tied, sigma)[0] - gr.gaussian_quantile(0.5)) \
        <= smc.slack_tolerance(tied, sigma)

    asked = []
    real_solve = smc.solve

    def spy(problem, *args, **kwargs):
        asked.append(problem.target)
        return real_solve(problem, *args, **kwargs)

    monkeypatch.setattr(smc, "solve", spy)
    edge = gr.estimate_edge(small_scenario, cell, tied, dq, reach)
    assert len(asked) == 1
    np.testing.assert_array_equal(asked[0].b, augmented_set(tied, 0.5, sigma).b)
    monkeypatch.setattr(smc, "solve", real_solve)
    assert edge == reference_edge(small_scenario, cell, tied, dq)


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
    bound = gr.estimate_bound(scenario, cell, cell, dq)
    assert bound >= 1.0 - dq
    # Ground truth: a state at the cell center stays put almost surely.
    est = mc.estimate_transition(scenario, np.array([1.0, 1.0]),
                                 cell.region, 10000, seed=4)
    assert est.hit_fraction > 0.999
    assert est.hit_fraction <= bound + 4 * max(est.stddev, 1e-4)


def test_prune_far_pair_and_containing_target(small_scenario):
    far_i, far_j = small_scenario.partition[0], small_scenario.partition[8]
    assert gr.prune_test(small_scenario, far_i, far_j, dq=0.05)
    # A target containing the reach box can never be pruned.
    box = gr.reach_box(small_scenario, far_i)
    lo, hi = box.bounding_box()
    big = sc.PartitionCell(id="big", region=Polytope.box(lo - 1, hi + 1),
                           C=np.eye(2), c=np.zeros(2))
    assert not gr.prune_test(small_scenario, far_i, big, dq=0.05)


@pytest.mark.parametrize("seed", range(5))
def test_prune_implies_floor_bound(seed):
    """Whenever the filter fires, the bisection bottoms out at the grid floor."""
    scenario = sc.make_demo_scenario(3, [6, 4], seed=seed)
    rng = np.random.default_rng(seed)
    dq = 0.05
    floor = gr.bisection_floor(dq)
    fired = 0
    pairs = rng.permutation(
        [(i, j) for i in range(scenario.num_cells) for j in range(scenario.num_cells)])
    for i, j in pairs[:10]:
        cell_i, cell_j = scenario.partition[i], scenario.partition[j]
        if gr.prune_test(scenario, cell_i, cell_j, dq):
            fired += 1
            assert gr.estimate_bound(scenario, cell_i, cell_j, dq) == pytest.approx(floor)
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
    cell_j = small_scenario.partition[5]
    coarse = gr.estimate_bound(small_scenario, cell_i, cell_j, 0.1)
    fine = gr.estimate_bound(small_scenario, cell_i, cell_j, 0.05)
    assert fine <= coarse + 1e-12


def test_save_load_roundtrip(small_graph, small_scenario):
    doc = gr.save_graph(small_graph)
    again = gr.load_graph(doc, small_scenario)
    assert again.dq == small_graph.dq
    assert again.q_threshold_floor == small_graph.q_threshold_floor
    for v in small_graph.edges:
        for e in small_graph.edges[v]:
            assert again.edge(v, e.target).bound == e.bound  # bit exact


def test_truncated_document_fails_checksum(small_graph):
    doc = gr.save_graph(small_graph)
    with pytest.raises(gr.GraphChecksumError):
        gr.load_graph(doc[: len(doc) // 2])


def test_version_mismatch_rejected(small_graph):
    doc = gr.save_graph(small_graph)
    head, _, payload = doc.partition("\n")
    bad = head.replace(gr.GRAPH_FORMAT, "relusafe-graph-v999") + "\n" + payload
    with pytest.raises(gr.GraphVersionError):
        gr.load_graph(bad)


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


def test_parallel_build_matches_serial(small_scenario):
    serial = gr.build_graph(small_scenario, dq=0.2, jobs=1)
    parallel = gr.build_graph(small_scenario, dq=0.2, jobs=2)
    for v in serial.edges:
        for e in serial.edges[v]:
            twin = parallel.edge(v, e.target)
            assert twin.bound == e.bound and twin.q_lo == e.q_lo


@pytest.mark.parametrize("fixture, digest", [
    ("demo_graph", "9b1317cc90aea2cece19f9a143da8f1849892c46e81d64a8182e2e445af97794"),
    ("small_graph", "0da4221cf010fdf9aa2eb86b8da7e2179a8033a3d09744dbbfb32982db80b1d7"),
])
def test_saved_graph_bytes_pinned(request, fixture, digest):
    """Every bound follows from sat/unsat verdicts alone; a solver change that
    keeps every verdict keeps these bytes."""
    doc = gr.save_graph(request.getfixturevalue(fixture))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
