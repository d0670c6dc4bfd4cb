"""Refinement: witness extraction, hyperplane construction, the split
transaction, and target selection."""

from dataclasses import replace

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import linprog
from relusafe import montecarlo as mc
from relusafe import refine as rf
from relusafe import scenario as sc
from relusafe import smc
from relusafe import verifier as vf
from relusafe.geometry import Polytope, augmented_set, chebyshev_center, gaussian_cdf
from relusafe.scenario import validate_scenario


@pytest.fixture(scope="module")
def refinable(small_scenario, small_graph):
    bounds = vf.verify(small_graph, small_scenario, horizon=4, p=0.05,
                       mode="merge+tpn")
    return small_scenario, small_graph, bounds


def witnessed_edges(scenario, graph, sources):
    """``(source, edge, region, witness)`` for every edge out of ``sources``
    that has a witness; the sink edge's region is its dominant piece."""
    for source in sources:
        for edge in graph.edges[source]:
            try:
                witness = rf.find_witness(scenario, graph, source, edge.target)
            except rf.RefinementError as exc:
                assert not isinstance(exc, rf.StaleGraphError)
                assert "precision floor" in str(exc)
                continue
            if edge.target == gr.UNSAFE:
                region = max(edge.pieces, key=lambda rec: rec[1])[0]
            else:
                region = scenario.partition[edge.target.cells[0]].region
            yield source, edge, region, witness


def test_find_witness_asks_no_oracle(refinable, monkeypatch):
    """The witness comes from the affine pieces: neither the reach-query
    encoding nor its DPLL oracle is called, from any module."""
    scenario, graph, _ = refinable
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    oracle = {smc.solve: "solve", smc.build_encoding: "build_encoding"}
    for module in (smc, rf):
        for attr, value in list(vars(module).items()):
            if callable(value) and value in oracle:
                monkeypatch.setattr(module, attr, spy(oracle[value], value))
    found = list(witnessed_edges(scenario, graph, graph.cell_nodes()))
    assert any(edge.target == gr.UNSAFE for _, edge, _, _ in found)
    assert sum(edge.target != gr.UNSAFE for _, edge, _, _ in found) >= 5
    assert calls == []


def test_find_witness_reads_the_argmax_piece(demo_scenario, demo_graph):
    """On every witnessable cell and sink edge of the first four demo rows,
    the witness lies in the source cell, its successor is the closed loop's,
    and that successor's noise-normalised depth in the target is ``z*``."""
    sigma = demo_scenario.dynamics.sigma
    seen = 0
    for source, edge, region, (x, x_next) in witnessed_edges(
            demo_scenario, demo_graph, demo_graph.cell_nodes()[:4]):
        cell = demo_scenario.partition[source.cells[0]]
        assert cell.region.contains(x, tol=1e-7)
        stepped = sc.closed_loop_mean_step(demo_scenario, x, cell)
        np.testing.assert_allclose(stepped, x_next, rtol=0.0, atol=1e-9)
        spread = np.sqrt((region.A ** 2) @ sigma ** 2)
        depth = min(float(np.min((region.b - region.A @ x_next) / spread)), smc.SLACK_CAP)
        (z_star, _, _), = smc.max_slack(gr.CellReach(demo_scenario, cell).pieces, [region], sigma)
        assert depth == pytest.approx(z_star, rel=0.0, abs=1e-9)
        seen += 1
    assert seen >= 10


def test_find_witness_raises_stale_above_the_reach(demo_scenario, demo_graph):
    """An edge whose satisfiable threshold is raised above anything the
    source cell reaches has no witness: the graph is stale."""
    scenario, graph = demo_scenario, demo_graph
    source, edgerec = next((source, e) for source in graph.cell_nodes()
                           for e in graph.edges[source]
                           if e.method == "smc" and 0.0 < e.q_lo and e.q_hi < 1.0)
    rf.find_witness(scenario, graph, source, edgerec.target)
    raised = replace(edgerec, q_lo=0.5 * (edgerec.q_hi + 1.0))
    edges = dict(graph.edges)
    edges[source] = [raised if e is edgerec else e for e in graph.edges[source]]
    stale = replace(graph, edges=edges)
    with pytest.raises(rf.StaleGraphError):
        rf.find_witness(scenario, stale, source, edgerec.target)


def test_find_witness_reports_slack_lp_failure(refinable, monkeypatch):
    """A numerical failure of the slack LP is a refinement error, not a
    stale graph."""
    scenario, graph, _ = refinable
    source, edgerec = pick_strong_edge(graph)
    real_solve = linprog.solve

    def broken(lp, *args, **kwargs):
        if lp.objective is not None:
            raise linprog.LpNumericalError("injected fault")
        return real_solve(lp, *args, **kwargs)

    def broken_batch(lps):
        """solve_many as its contract states it: each member's solve, with
        a numerical failure in the member's slot."""
        out = []
        for lp in lps:
            try:
                out.append(broken(lp))
            except linprog.LpNumericalError as exc:
                out.append(exc)
        return out

    monkeypatch.setattr(linprog, "solve", broken)
    monkeypatch.setattr(linprog, "solve_many", broken_batch)
    with pytest.raises(rf.RefinementError) as info:
        rf.find_witness(scenario, graph, source, edgerec.target)
    assert not isinstance(info.value, rf.StaleGraphError)


def test_propose_hyperplane_basic():
    hp = rf.propose_hyperplane(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(hp.normal, [1.0, 0.0])
    assert hp.offset == 0.0


def test_propose_hyperplane_stationary():
    with pytest.raises(rf.StationaryWitnessError):
        rf.propose_hyperplane(np.array([1.0, 1.0]), np.array([1.0, 1.0]))


def test_propose_hyperplane_identities(rng):
    for _ in range(25):
        x = rng.normal(size=3)
        x_next = x + rng.normal(size=3)
        if np.linalg.norm(x_next - x) < 1e-9:
            continue
        hp = rf.propose_hyperplane(x, x_next)
        assert np.linalg.norm(hp.normal) == pytest.approx(1.0, abs=1e-12)
        assert hp.normal @ x == pytest.approx(hp.offset, abs=1e-9)


def pick_strong_edge(graph):
    best = None
    for source in graph.cell_nodes():
        for e in graph.edges[source]:
            if e.target.kind == "cell" and e.method == "smc" and e.q_lo > 0.5:
                if best is None or e.bound > best[1].bound:
                    best = (source, e)
    assert best is not None
    return best


def test_find_witness_satisfies_memberships(refinable):
    scenario, graph, _ = refinable
    source, edgerec = pick_strong_edge(graph)
    x, x_next = rf.find_witness(scenario, graph, source, edgerec.target)
    cell = scenario.partition[source.cells[0]]
    assert cell.region.contains(x, tol=1e-6)
    stepped = sc.closed_loop_mean_step(scenario, x, cell, tol=1e-6)
    assert np.allclose(stepped, x_next)


def test_find_witness_probability_near_bound(refinable):
    """The witness state's real transition probability reaches the recorded
    satisfiable threshold, up to sampling noise."""
    scenario, graph, _ = refinable
    source, edgerec = pick_strong_edge(graph)
    x, _ = rf.find_witness(scenario, graph, source, edgerec.target)
    target_region = scenario.partition[edgerec.target.cells[0]].region
    est = mc.estimate_transition(scenario, x, target_region, 10000, seed=11)
    assert est.hit_fraction >= edgerec.bound - graph.dq - 4 * max(est.stddev, 1e-4)


def test_find_witness_rejects_floor_edges(refinable):
    scenario, graph, _ = refinable
    for source in graph.cell_nodes():
        for e in graph.edges[source]:
            if e.method == "pruned":
                with pytest.raises(rf.RefinementError):
                    rf.find_witness(scenario, graph, source, e.target)
                return
    pytest.skip("no pruned edge in the small graph")


def test_refine_single_step_keeps_witness_side(refinable):
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=1)
    assert result.plan.committed
    assert len(result.plan.translations) == 1
    idx = source.cells[0]
    target_new = max(result.cell_map[edgerec.target.cells[0]])
    witness_side = result.graph.edge(gr.cell_node(idx), gr.cell_node(target_new))
    # The witness stays in sub-cell "a": its bound cannot drop below the
    # parent's by more than requantization slack.
    assert witness_side.bound >= edgerec.bound - 2 * graph.dq - 1e-12


def test_refine_cell_full_round(refinable):
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=4)
    assert result.plan.committed
    new_scenario, new_graph = result.scenario, result.graph

    validate_scenario(new_scenario)  # split partition still disjoint + covering
    assert new_scenario.num_cells == scenario.num_cells + 1

    idx = source.cells[0]
    target_new = gr.cell_node(max(result.cell_map[edgerec.target.cells[0]]))
    for sub in (idx, idx + 1):
        e = new_graph.edge(gr.cell_node(sub), target_new)
        # Sub-problems are restrictions: bounds never exceed the parent's.
        assert e.bound <= edgerec.bound + 1e-12
    # Both directions plus sink edges exist for the new cells.
    for sub in (idx, idx + 1):
        row = new_graph.edges[gr.cell_node(sub)]
        assert len(row) == new_scenario.num_cells + 1
        assert row[-1].target == gr.UNSAFE


def test_refined_bounds_never_exceed_parent(refinable):
    """Every outgoing bound of each sub-cell stays at or below the parent
    cell's bound for the same target."""
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=3)
    halves = result.cell_map[source.cells[0]]
    for old_target, (t_new, *_) in enumerate(result.cell_map):
        if t_new in halves:
            continue  # self / sibling: no parent analogue
        parent = graph.edge(source, gr.cell_node(old_target))
        for sub in halves:
            e = result.graph.edge(gr.cell_node(sub), gr.cell_node(t_new))
            assert e.bound <= parent.bound + 1e-12


def test_cell_map_of_committed_split(refinable):
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=1)
    assert result.plan.committed
    idx = source.cells[0]
    expected = tuple((i,) if i < idx else (i, i + 1) if i == idx else (i + 1,)
                     for i in range(scenario.num_cells))
    assert result.cell_map == expected
    # The new indices tile the refined partition, each old region kept or split.
    assert sorted(j for new in result.cell_map for j in new) == \
        list(range(result.scenario.num_cells))
    for old, new in enumerate(result.cell_map):
        if len(new) == 1:
            assert result.scenario.partition[new[0]] is scenario.partition[old]


def test_cell_map_is_identity_without_split(refinable, monkeypatch):
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)

    def degenerate(region, planes):
        return [rf.DegenerateSplitError("forced") for _ in planes]

    monkeypatch.setattr(rf, "split_many", degenerate)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=3)
    assert not result.plan.committed
    assert result.scenario is scenario and result.graph is graph
    assert result.cell_map == tuple((i,) for i in range(scenario.num_cells))


def test_refined_graph_equals_fresh_build(small_scenario):
    """Refinement re-estimates exactly what a fresh build of the refined
    scenario would estimate, in the same row order: the saved bytes match
    for the split of every cell (cell 7's halves are 7 and 8).  The built
    graph refines from the reach it kept, and a saved and reloaded copy,
    which kept none, refines to the same bytes, witness and probes."""
    dq = 0.2  # a coarse grid keeps the nine fresh builds cheap
    graph = gr.build_graph(small_scenario, dq)
    assert set(graph.reach) == set(graph.cell_nodes())
    for i in range(small_scenario.num_cells):
        node = gr.cell_node(i)
        loaded = gr.load_graph(gr.save_graph(graph), small_scenario)
        assert not loaded.reach
        result = rf.refine_cell(small_scenario, graph, None, node, node, steps=3)
        again = rf.refine_cell(small_scenario, loaded, None, node, node, steps=3)
        assert result.plan.committed
        fresh = gr.build_graph(result.scenario, dq)
        assert gr.save_graph(result.graph) == gr.save_graph(fresh), f"cell {i}"
        assert gr.save_graph(again.graph) == gr.save_graph(fresh), f"cell {i}, loaded"
        assert again.plan.translations == result.plan.translations
        assert again.plan.witness_x.tobytes() == result.plan.witness_x.tobytes()
        assert again.plan.witness_x_next.tobytes() == result.plan.witness_x_next.tobytes()
        assert set(result.graph.reach) == set(result.graph.cell_nodes())


def test_select_target_prefers_large_cells():
    regions = {0: Polytope.box([0, 0], [4, 4]),
               1: Polytope.box([4, 0], [6, 2])}
    edges = {
        gr.cell_node(0): [gr.Edge(gr.cell_node(1), 0.5, q_lo=0.4)],
        gr.cell_node(1): [gr.Edge(gr.cell_node(0), 0.5, q_lo=0.4)],
        gr.UNSAFE: [gr.Edge(gr.UNSAFE, 1.0)],
    }
    graph = gr.TransitionGraph(
        nodes=[gr.cell_node(0), gr.cell_node(1), gr.UNSAFE], edges=edges,
        dq=0.01,
        regions={gr.cell_node(i): r for i, r in regions.items()},
        sigma=np.array([0.3, 0.3]))
    bounds = vf.SafetyBounds(horizon=1, merge_p=None, mode="naive", per_k=[
        {gr.cell_node(0): 0.0, gr.cell_node(1): 0.0, gr.UNSAFE: 1.0},
        {gr.cell_node(0): 0.5, gr.cell_node(1): 0.5, gr.UNSAFE: 1.0},
    ])
    source, edge = rf.select_target(graph, bounds, k=1)
    assert source == gr.cell_node(0)  # larger Chebyshev radius wins


def test_select_target_prefers_dominant_unsafe_edge():
    region = Polytope.box([0, 0], [2, 2])
    edges = {
        gr.cell_node(0): [gr.Edge(gr.cell_node(1), 0.1, q_lo=0.05),
                          gr.Edge(gr.UNSAFE, 0.9, method="unsafe", pieces=(
                              (Polytope([[-1.0, 0.0]], [0.0]), 0.9, 0.85, 0.9, "smc"),))],
        gr.cell_node(1): [gr.Edge(gr.cell_node(0), 0.1, q_lo=0.05)],
        gr.UNSAFE: [gr.Edge(gr.UNSAFE, 1.0)],
    }
    graph = gr.TransitionGraph(
        nodes=[gr.cell_node(0), gr.cell_node(1), gr.UNSAFE], edges=edges,
        dq=0.01,
        regions={gr.cell_node(0): region,
                 gr.cell_node(1): Polytope.box([2, 0], [4, 2])},
        sigma=np.array([0.3, 0.3]))
    bounds = vf.SafetyBounds(horizon=1, merge_p=None, mode="naive", per_k=[
        {gr.cell_node(0): 0.0, gr.cell_node(1): 0.0, gr.UNSAFE: 1.0},
        {gr.cell_node(0): 0.3, gr.cell_node(1): 0.3, gr.UNSAFE: 1.0},
    ])
    source, edge = rf.select_target(graph, bounds, k=1)
    assert edge.target == gr.UNSAFE


def test_find_witness_rejects_sink_edge_without_pieces(refinable):
    scenario, graph, _ = refinable
    source = graph.cell_nodes()[0]
    edges = dict(graph.edges)
    edges[source] = [replace(e, pieces=()) if e.target == gr.UNSAFE else e
                     for e in graph.edges[source]]
    bare = replace(graph, edges=edges)
    with pytest.raises(rf.RefinementError, match="no unsafe piece records"):
        rf.find_witness(scenario, bare, source, gr.UNSAFE)


def test_loaded_graph_selects_and_refines_like_the_built_one(
        demo_scenario, demo_graph, demo_bounds, loaded_demo_graph):
    """From its own bounds, the loaded demo graph picks the built graph's
    split at k = 6 and 9, and refining it writes the same bytes."""
    bounds = demo_bounds["merge+tpn"]
    loaded_bounds = vf.verify(loaded_demo_graph, demo_scenario, horizon=bounds.horizon,
                              p=bounds.merge_p, mode="merge+tpn")

    def choice(graph, bounds, k):
        source, edge = rf.select_target(graph, bounds, k=k)
        return source, edge.target, edge.bound, edge.q_lo, edge.q_hi, edge.method

    for k in (6, 9):
        assert choice(loaded_demo_graph, loaded_bounds, k) == choice(demo_graph, bounds, k)
    source, edge = rf.select_target(demo_graph, bounds, k=6)
    built = rf.refine_cell(demo_scenario, demo_graph, None, source, edge.target)
    loaded = rf.refine_cell(demo_scenario, loaded_demo_graph, None, source, edge.target)
    assert built.plan.committed
    assert gr.save_graph(loaded.graph) == gr.save_graph(built.graph)


def test_select_target_deterministic(demo_graph, demo_bounds):
    bounds = demo_bounds["merge+tpn"]
    first = rf.select_target(demo_graph, bounds, k=6)
    second = rf.select_target(demo_graph, bounds, k=6)
    assert first[0] == second[0]
    assert first[1].target == second[1].target


def test_chebyshev_radius_drops_after_split(refinable):
    scenario, graph, bounds = refinable
    source, edgerec = pick_strong_edge(graph)
    result = rf.refine_cell(scenario, graph, bounds, source, edgerec.target, steps=2)
    idx = source.cells[0]
    _, parent_radius = chebyshev_center(scenario.partition[idx].region)
    for sub in (idx, idx + 1):
        _, r = chebyshev_center(result.scenario.partition[sub].region)
        assert r <= parent_radius + 1e-9


def test_find_witness_dominates_the_oracle_leaf_witness(demo_scenario, demo_graph):
    """find_witness returns a successor at least as deep in the target's
    chance set, in noise-normalized slack, as the leaf witness of the
    reach query at a threshold well below the edge's, ``Phi(z* - 1)``,
    and deeper on some edge."""
    sigma = demo_scenario.dynamics.sigma

    def depth(aug, x_next):
        spread = np.sqrt((aug.A ** 2) @ sigma ** 2)
        return float(np.min((aug.b - aug.A @ x_next) / spread))

    gains = []
    for source in demo_graph.cell_nodes()[:4]:
        cell = demo_scenario.partition[source.cells[0]]
        for edge in demo_graph.edges[source]:
            if edge.method != "smc" or edge.bound <= demo_graph.dq:
                continue
            region = demo_scenario.partition[edge.target.cells[0]].region
            reach = demo_graph.cell_reach(demo_scenario, source)
            z_star = smc.max_slack(reach.pieces, [region], sigma)[0][0]
            q = gaussian_cdf(z_star - 1.0)
            if not 0.0 < q < 1.0:
                continue
            aug = augmented_set(region, q, sigma)
            leaf = smc.solve(smc.build_encoding(demo_scenario, cell, aug))
            _, x_next = rf.find_witness(demo_scenario, demo_graph, source, edge.target)
            gains.append(depth(aug, x_next) - depth(aug, leaf.witness_x_next))
    assert gains and min(gains) >= -1e-6
    assert max(gains) > 1e-3
