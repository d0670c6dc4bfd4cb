"""Bound propagation: the plain and normalized steps, merging gates,
mode dominance, and CSV round trips."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import linprog
from relusafe import refine as rf
from relusafe import rowstack
from relusafe import scenario as sc
from relusafe import verifier as vf
from relusafe.geometry import Polytope
from tests.conftest import DEMO_OBSTACLE


def edge(i, bound):
    return gr.Edge(gr.cell_node(i), bound)


def synthetic_graph(rows, sigma=None, regions=None):
    """Graph from {owner_index: [(target_index_or_'unsafe', bound), ...]}."""
    edges = {}
    nodes = set()
    for owner, row in rows.items():
        onode = gr.cell_node(owner)
        nodes.add(onode)
        lst = []
        for target, bound in row:
            tnode = gr.UNSAFE if target == "unsafe" else gr.cell_node(target)
            nodes.add(tnode)
            lst.append(gr.Edge(tnode, bound))
        edges[onode] = lst
    edges[gr.UNSAFE] = [gr.Edge(gr.UNSAFE, 1.0)]
    nodes.add(gr.UNSAFE)
    graph = gr.TransitionGraph(nodes=sorted(nodes), edges=edges, dq=0.01)
    if sigma is not None:
        graph.sigma = np.asarray(sigma, dtype=float)
    if regions is not None:
        graph.regions = {gr.cell_node(i): r for i, r in regions.items()}
    return graph


def test_init_p0_obstacle_free():
    scenario = sc.make_demo_scenario(2, [6, 4], seed=4)
    p0 = vf.init_p0(scenario)
    assert all(p0[gr.cell_node(i)] == 0.0 for i in range(4))
    assert p0[gr.UNSAFE] == 1.0


def test_init_p0_flags_obstacle_cells(demo_scenario):
    from relusafe.geometry import cell_unsafe_overlap
    p0 = vf.init_p0(demo_scenario)
    for i, cell in enumerate(demo_scenario.partition):
        expected = cell_unsafe_overlap(cell.region, demo_scenario.workspace)
        assert p0[gr.cell_node(i)] == (1.0 if expected else 0.0)
    assert p0[gr.cell_node(16)] == 1.0  # holds the demo obstacle


def test_naive_step_trivials():
    g = synthetic_graph({0: [(1, 1.0)], 1: []})
    bounds = {gr.cell_node(1): 1.0, gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    assert vf.naive_step(g, bounds)[gr.cell_node(0)] == 1.0

    g = synthetic_graph({0: [(1, 0.5), (2, 0.5)], 1: [], 2: []})
    bounds = {gr.cell_node(1): 0.0, gr.cell_node(2): 1.0,
              gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    assert vf.naive_step(g, bounds)[gr.cell_node(0)] == pytest.approx(0.5)

    g = synthetic_graph({0: [(1, 0.9), (2, 0.9)], 1: [], 2: []})
    bounds = {gr.cell_node(1): 1.0, gr.cell_node(2): 1.0,
              gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    assert vf.naive_step(g, bounds)[gr.cell_node(0)] == 1.0  # clamped


def test_tpn_worked_example():
    g = synthetic_graph({0: [(1, 0.6), (2, 0.6), (3, 0.6)],
                         1: [], 2: [], 3: []})
    bounds = {gr.cell_node(1): 0.1, gr.cell_node(2): 0.5, gr.cell_node(3): 1.0,
              gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    tpn = vf.tpn_step(g, bounds)[gr.cell_node(0)]
    naive = vf.naive_step(g, bounds)[gr.cell_node(0)]
    assert abs(tpn - 0.8) <= 1e-12
    assert abs(naive - 0.96) <= 1e-12


def test_tpn_equals_naive_at_unit_mass():
    g = synthetic_graph({0: [(1, 0.3), (2, 0.7)], 1: [], 2: []})
    bounds = {gr.cell_node(1): 0.2, gr.cell_node(2): 0.9,
              gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    assert (vf.tpn_step(g, bounds)[gr.cell_node(0)]
            == pytest.approx(vf.naive_step(g, bounds)[gr.cell_node(0)]))


def test_tpn_single_full_neighbor():
    g = synthetic_graph({0: [(1, 1.0)], 1: []})
    bounds = {gr.cell_node(1): 0.37, gr.cell_node(0): 0.0, gr.UNSAFE: 1.0}
    assert vf.tpn_step(g, bounds)[gr.cell_node(0)] == pytest.approx(0.37)


def test_tpn_never_exceeds_naive(rng):
    for _ in range(200):
        n = int(rng.integers(1, 7))
        row = [(i + 1, float(rng.uniform(0.01, 1.0))) for i in range(n)]
        g = synthetic_graph({0: row, **{i + 1: [] for i in range(n)}})
        bounds = {gr.cell_node(i + 1): float(rng.uniform(0, 1)) for i in range(n)}
        bounds[gr.cell_node(0)] = 0.0
        bounds[gr.UNSAFE] = 1.0
        tpn = vf.tpn_step(g, bounds)[gr.cell_node(0)]
        naive = vf.naive_step(g, bounds)[gr.cell_node(0)]
        assert tpn <= naive + 1e-12
        mass = sum(b for _, b in row)
        if mass > 1.0 and min(bounds[gr.cell_node(i + 1)] for i in range(n)) > 0:
            assert tpn <= 1.0 + 1e-12


def merge_pass(graph, owner, p, bounds_k, normalize=False):
    """One merging step of ``owner``'s row alone: (its merge records as
    ``(member_x, member_y, merged, new_bound)``, its propagated value)."""
    stack = rowstack.RowStack([owner], [graph.edges[owner]])
    sep = stack.separation(vf._separation(graph, p))
    values = [vf.node_bound(bounds_k, node) for node in stack.nodes]
    (value,), records = stack.step(values, normalize, sep, p)
    return [(r.members[0], r.members[1], r.merged, r.new_bound) for r in records], value


def strip_scenario(regions, sigma):
    """Row of cells for merge tests: owner in the middle."""
    graph = synthetic_graph(
        {0: [(1, 0.5), (2, 0.5), ("unsafe", 0.01)], 1: [], 2: []},
        sigma=sigma,
        regions={0: regions[0], 1: regions[1], 2: regions[2]})
    return graph


def test_merge_pass_merges_far_pair():
    regions = {0: Polytope.box([4, 0], [6, 1]),
               1: Polytope.box([0, 0], [2, 1]),
               2: Polytope.box([8, 0], [10, 1])}
    graph = strip_scenario(regions, sigma=[0.3, 0.3])
    bounds = {gr.cell_node(0): 0.0, gr.cell_node(1): 0.9, gr.cell_node(2): 0.9,
              gr.UNSAFE: 1.0}
    records, value = merge_pass(graph, gr.cell_node(0), 0.01, bounds)
    assert records == [(gr.cell_node(1), gr.cell_node(2), gr.merged_node([1, 2]),
                        pytest.approx(0.51))]  # max(0.5, 0.5) + p
    assert value == pytest.approx(0.01 * 1.0 + 0.51 * 0.9)
    # The graph is untouched.
    assert all(e.target.kind != "merged" for e in graph.edges[gr.cell_node(0)])


def test_separation_lp_failure_reads_not_separated(monkeypatch):
    """An emptiness LP of the separation test that fails numerically
    leaves its pair unseparated: no merge, and no error out of the
    verifier.  Pairs the intervals decide keep their verdict."""
    regions = {0: Polytope.box([4, 0], [6, 1]),
               1: Polytope.box([0, 0], [2, 1]),
               # Oblique, so its pairs go to the LP.
               2: Polytope.box([8, 0], [10, 1]).with_extra([1.0, 1.0], 10.5)}
    graph = strip_scenario(regions, sigma=[0.3, 0.3])
    bounds = {gr.cell_node(0): 0.0, gr.cell_node(1): 0.9, gr.cell_node(2): 0.9,
              gr.UNSAFE: 1.0}
    clean = vf._separation(graph, 0.01)
    assert clean[0, 1] and clean[1, 2] and clean[0, 2]
    assert len(merge_pass(graph, gr.cell_node(0), 0.01, bounds)[0]) == 1

    def failing_solve(lp):
        raise linprog.LpNumericalError("injected fault")

    monkeypatch.setattr(linprog, "solve", failing_solve)
    monkeypatch.setattr(linprog, "solve_many",
                        lambda lps: [linprog.LpNumericalError("injected fault") for _ in lps])
    faulty = vf._separation(graph, 0.01)
    assert faulty[0, 1] and faulty[1, 0]
    assert not faulty[1:, 2].any() and not faulty[2, :].any()
    plain = 0.5 * 0.9 + 0.5 * 0.9 + 0.01 * 1.0   # the row, summed in row order
    assert merge_pass(graph, gr.cell_node(0), 0.01, bounds) == ([], plain)


def test_refined_demo5_under_lp_failure_pins_and_refuses(demo_scenario, monkeypatch):
    """With every infeasibility certificate failing its audit, nothing
    proves the refined demo5 scenario's oblique halves safe or its cells
    disjoint: ``verify`` pins the halves at one instead of raising, and
    validation refuses the scenario."""
    graph = gr.build_graph(demo_scenario, 0.01)
    bounds = vf.verify(graph, demo_scenario, 9)
    source, edge = rf.select_target(graph, bounds, k=9)
    result = rf.refine_cell(demo_scenario, graph, bounds, source, edge.target, steps=4)
    halves = [gr.cell_node(i) for i, cell in enumerate(result.scenario.partition)
              if cell.id in ("c15a", "c15b")]
    assert len(halves) == 2
    assert all(result.scenario.partition[v.cells[0]].region.axis_bounds() is None
               for v in halves)
    clean = vf.verify(result.graph, result.scenario, 9)
    assert all(clean.per_k[0][v] == 0.0 for v in halves)
    monkeypatch.setattr(linprog, "_farkas_holds",
                        lambda weights, A, b, tol: np.zeros(len(weights), dtype=bool))
    faulty = vf.verify(result.graph, result.scenario, 9)
    assert all(faulty.per_k[k][v] == 1.0 for k in range(10) for v in halves)
    assert all(0.0 <= faulty.per_k[k][v] <= 1.0 for k in range(10) for v in faulty.cell_nodes())
    with pytest.raises(sc.ScenarioError, match="could not be proven"):
        sc.validate_scenario(result.scenario)


def test_merge_pass_respects_overlapping_augments():
    regions = {0: Polytope.box([4, 0], [6, 1]),
               1: Polytope.box([0, 0], [2, 1]),
               2: Polytope.box([2, 0], [4, 1])}   # adjacent to cell 1
    graph = strip_scenario(regions, sigma=[0.3, 0.3])
    bounds = {gr.cell_node(0): 0.0, gr.cell_node(1): 0.9, gr.cell_node(2): 0.9,
              gr.UNSAFE: 1.0}
    assert merge_pass(graph, gr.cell_node(0), 0.01, bounds)[0] == []


def test_merge_pass_respects_improvement_gate():
    regions = {0: Polytope.box([4, 0], [6, 1]),
               1: Polytope.box([0, 0], [2, 1]),
               2: Polytope.box([8, 0], [10, 1])}
    graph = synthetic_graph(
        {0: [(1, 0.01), (2, 0.9)], 1: [], 2: []},
        sigma=[0.3, 0.3], regions=regions)
    bounds = {gr.cell_node(0): 0.0, gr.cell_node(1): 0.0, gr.cell_node(2): 1.0,
              gr.UNSAFE: 1.0}
    # Replacement bound max(0.9 + 0.2, 0.4) would not beat 0.01*0 + 0.9*1.
    assert merge_pass(graph, gr.cell_node(0), 0.2, bounds) == ([], 0.9)


def test_verify_horizon_zero_is_init(demo_graph, demo_scenario):
    bounds = vf.verify(demo_graph, demo_scenario, horizon=0, mode="naive")
    assert bounds.per_k[0] == vf.init_p0(demo_scenario)


def test_verify_rejects_bad_mode(demo_graph, demo_scenario):
    with pytest.raises(vf.VerifierError):
        vf.verify(demo_graph, demo_scenario, horizon=1, mode="magic")


def test_dominance_on_demo(demo_bounds):
    naive = demo_bounds["naive"]
    for mode in ("merge", "tpn", "merge+tpn"):
        other = demo_bounds[mode]
        for k in range(naive.horizon + 1):
            for node in naive.cell_nodes():
                assert other.per_k[k][node] <= naive.per_k[k][node] + 1e-12


def test_tpn_strictly_tighter_with_excess_mass(demo_graph, demo_bounds):
    """Prop-3 strictness: some node with edge mass above one improves."""
    naive = demo_bounds["naive"]
    tpn = demo_bounds["tpn"]
    heavy = [v for v in demo_graph.cell_nodes()
             if sum(e.bound for e in demo_graph.edges[v]) > 1.0]
    assert heavy
    k = naive.horizon
    assert any(tpn.per_k[k][v] < naive.per_k[k][v] - 1e-12 for v in heavy)


def test_bounds_monotone_in_horizon(demo_bounds):
    for mode in ("naive", "tpn", "merge+tpn"):
        bounds = demo_bounds[mode]
        for k in range(bounds.horizon):
            for node in bounds.cell_nodes():
                assert bounds.per_k[k + 1][node] >= bounds.per_k[k][node] - 1e-12


def test_unsafe_cells_stay_pinned(demo_bounds):
    for mode, bounds in demo_bounds.items():
        for node, v0 in bounds.per_k[0].items():
            if v0 >= 1.0:
                assert all(bounds.per_k[k][node] == 1.0
                           for k in range(bounds.horizon + 1))


def test_merge_records_on_demo(demo_bounds):
    merged = demo_bounds["merge+tpn"].merges
    assert merged
    for rec in merged:
        assert rec.merged.kind == "merged"
        assert 0.0 < rec.new_bound <= 1.0
        assert rec.owner.kind == "cell"


def test_csv_roundtrip(demo_bounds, demo_scenario):
    bounds = demo_bounds["merge+tpn"]
    text = vf.bounds_to_csv(bounds, demo_scenario)
    again = vf.bounds_from_csv(text, demo_scenario)
    assert again.horizon == bounds.horizon
    for k in range(bounds.horizon + 1):
        for node in bounds.cell_nodes():
            assert again.per_k[k][node] == bounds.per_k[k][node]


def test_csv_rejects_unknown_cell(demo_scenario):
    with pytest.raises(vf.VerifierError):
        vf.bounds_from_csv("cell_id,k,bound\nnope,0,0.5\n", demo_scenario)


def small_csv(scenario, edit=lambda rows: None):
    """Bounds CSV of every cell at k = 0 and 1, with ``edit`` applied to
    its rows (lists of strings, the header first)."""
    rows = [["cell_id", "k", "bound"]] + [[cell.id, str(k), "0.25"]
                                           for k in (0, 1) for cell in scenario.partition]
    edit(rows)
    return "".join(",".join(row) + "\n" for row in rows)


def drop_bound_column(rows):
    rows[:] = [row[:2] for row in rows]


def set_field(line, column, text):
    def edit(rows):
        rows[line][column] = text
    return edit


def repeat_row(rows):
    rows.append(list(rows[1]))


@pytest.mark.parametrize("edit, message", [
    (drop_bound_column, "lacks column"),
    (set_field(2, 1, "1.5"), "bad k"),
    (set_field(2, 1, "one"), "bad k"),
    (set_field(2, 2, "high"), "bad k .* or bound"),
    (repeat_row, "repeated row"),
    (set_field(3, 2, "nan"), "outside"),
    (set_field(3, 2, "1.5"), "outside"),
    (set_field(3, 2, "-0.25"), "outside"),
], ids=["no-bound-column", "fractional-k", "word-k", "word-bound", "repeated-row",
        "nan-bound", "bound-above-one", "negative-bound"])
def test_csv_rejects_malformed_file(edit, message):
    scenario = sc.make_demo_scenario(2, [6, 4], seed=4)
    assert vf.bounds_from_csv(small_csv(scenario), scenario).horizon == 1
    with pytest.raises(vf.VerifierError, match=message):
        vf.bounds_from_csv(small_csv(scenario, edit), scenario)


def test_merge_pass_tie_breaks_to_larger_target_pair():
    """Equal slack on (1, 2) and (3, 4): the larger (target_x, target_y) wins."""
    # Grown by 2.33 per side at p = 0.01, sigma = 1: only 1-2 and 3-4 stay
    # apart; the long cells 3 and 4 reach into both 1 and 2.
    regions = {0: Polytope.box([5, 0], [7, 1]),
               1: Polytope.box([0, 0], [2, 1]),
               2: Polytope.box([10, 0], [12, 1]),
               3: Polytope.box([0, 3], [12, 4]),
               4: Polytope.box([0, -4], [12, -3])}
    graph = synthetic_graph(
        {0: [(1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5)], 1: [], 2: [], 3: [], 4: []},
        sigma=[1.0, 1.0], regions=regions)
    bounds = {gr.cell_node(i): 0.9 for i in range(1, 5)}
    bounds[gr.cell_node(0)] = 0.0
    bounds[gr.UNSAFE] = 1.0
    records, _ = merge_pass(graph, gr.cell_node(0), 0.01, bounds)
    assert [record[:3] for record in records] == [
        (gr.cell_node(3), gr.cell_node(4), gr.merged_node([3, 4])),
        (gr.cell_node(1), gr.cell_node(2), gr.merged_node([1, 2]))]


@pytest.mark.parametrize("mode", ["merge", "merge+tpn"])
@pytest.mark.parametrize("p", [0.0, -0.1, 0.5, 0.7])
def test_verify_rejects_merge_threshold_outside_open_half(demo_graph, demo_scenario,
                                                         mode, p):
    with pytest.raises(vf.VerifierError, match="merge threshold"):
        vf.verify(demo_graph, demo_scenario, horizon=2, p=p, mode=mode)


@pytest.mark.parametrize("mode", ["naive", "tpn"])
def test_verify_ignores_merge_threshold_without_merging(demo_graph, demo_scenario, mode):
    bounds = vf.verify(demo_graph, demo_scenario, horizon=1, p=0.7, mode=mode)
    assert bounds.merges == [] and bounds.merge_p is None


# SHA-256 of bounds_to_csv and of the merge records (one line per record,
# "horizon owner member0 member1 merged repr(new_bound)") for the demo graph
# at horizon 9, p = 0.01.
DEMO_DIGESTS = {
    "naive": ("2c7648c4f4b5c841bdafa740e0be08615238e6f0017161c7696cad6fefd56014", 0, None),
    "merge": ("90576f09c3554f6589161d91c862d4137a7e58d3d0a63bdc01a0e0d9a1eaaa08", 2294,
              "ef4ee8aa851b8722123784d15b5ec31fec0abd24adca5b90432b4ce76873fb2b"),
    "tpn": ("d1ddc116fa27a2747298f6d57012aae738d943e86210cbac991abb35f9109b9b", 0, None),
    "merge+tpn": ("11cad1a10fa21723d973b81a1253cb6209a756a21aa3b91769d89b3e2e757316", 1873,
                  "c5bedc6df1db940511d037547e21c56cf4a9ff3c9c1e1d5de403da7c75b6ec25"),
}


def assert_demo_digests(bounds, scenario, mode):
    csv_digest, num_merges, merge_digest = DEMO_DIGESTS[mode]
    assert hashlib.sha256(vf.bounds_to_csv(bounds, scenario).encode()).hexdigest() \
        == csv_digest
    lines = [f"{r.horizon} {r.owner} {r.members[0]} {r.members[1]} {r.merged} "
             f"{r.new_bound!r}" for r in bounds.merges]
    assert len(lines) == num_merges
    if lines:
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == merge_digest


@pytest.mark.parametrize("mode", vf.MODES)
def test_demo_bounds_and_merges_pinned(demo_bounds, demo_scenario, mode):
    assert_demo_digests(demo_bounds[mode], demo_scenario, mode)


@pytest.mark.parametrize("mode", vf.MODES)
def test_loaded_demo_graph_bounds_pinned(loaded_demo_graph, demo_scenario, mode):
    """A graph loaded from its saved document verifies to the same bounds
    and merges as the built one."""
    bounds = vf.verify(loaded_demo_graph, demo_scenario, horizon=9, p=0.01, mode=mode)
    assert_demo_digests(bounds, demo_scenario, mode)


def reference_merge_owner(row, p, bounds_k, regions, sigma):
    """Scalar greedy merge over the row, written independently of verifier:
    the largest positive slack among separated pairs first, ties to the
    larger (target_x, target_y)."""
    from relusafe.geometry import augmented_set, is_empty_intersection

    def separated(x, y):
        return all(is_empty_intersection(
            augmented_set(regions[gr.cell_node(a)], p, sigma),
            augmented_set(regions[gr.cell_node(b)], p, sigma))
            for a in x.cells for b in y.cells)

    row = list(row)
    merged = []
    while True:
        best = None
        for xi in range(len(row)):
            for yi in range(xi + 1, len(row)):
                ex, ey = row[xi], row[yi]
                if gr.UNSAFE in (ex.target, ey.target):
                    continue
                vx = vf.node_bound(bounds_k, ex.target)
                vy = vf.node_bound(bounds_k, ey.target)
                nb = min(1.0, max(max(ex.bound, ey.bound) + p, 2.0 * p))
                slack = (ex.bound * vx + ey.bound * vy) - nb * max(vx, vy)
                if slack > 0.0 and separated(ex.target, ey.target):
                    key = (slack, ex.target, ey.target)
                    if best is None or key > best[0]:
                        best = (key, xi, yi, nb)
        if best is None:
            return row, merged
        _, xi, yi, nb = best
        node = gr.merged_node(row[xi].target.cells + row[yi].target.cells)
        merged.append((row[xi].target, row[yi].target, node, nb))
        del row[yi], row[xi]
        row.append(gr.Edge(node, nb, method="merged"))


def test_merge_pass_matches_scalar_reference(rng):
    levels = [0.0, 0.3, 0.9, 1.0]
    for _ in range(40):
        n = int(rng.integers(2, 7))
        corners = rng.integers(0, 10, size=(n + 1, 2)).astype(float)
        regions = {i: Polytope.box(c, c + 1.0) for i, c in enumerate(corners)}
        targets = [(i, float(rng.choice([0.1, 0.25, 0.5, 0.6]))) for i in range(1, n + 1)]
        targets.insert(int(rng.integers(0, n)), ("unsafe", 0.01))
        graph = synthetic_graph({0: targets, **{i: [] for i in range(1, n + 1)}},
                                sigma=[0.3, 0.3], regions=regions)
        owner = gr.cell_node(0)
        for p in (float(rng.choice([0.01, 0.05, 0.2])), 0.001):
            bounds = {gr.cell_node(i): float(rng.choice(levels)) for i in range(n + 1)}
            bounds[gr.UNSAFE] = 1.0
            want_row, want = reference_merge_owner(graph.edges[owner], p, bounds,
                                                   graph.regions, graph.sigma)
            for normalize, value in ((False, reference_naive_value),
                                     (True, reference_tpn_value)):
                assert merge_pass(graph, owner, p, bounds, normalize) \
                    == (want, value(want_row, bounds))


@pytest.mark.parametrize("mode", vf.MODES)
def test_small_blocks_reproduce_demo_digests(demo_graph, demo_scenario, monkeypatch, mode):
    """Blocks of two owners merge and propagate like one block of all 25
    (each owner scores its 26 * 25 / 2 target pairs and one sentinel)."""
    monkeypatch.setattr(rowstack, "_PAIR_BUDGET", 2 * (26 * 25 // 2 + 1))
    bounds = vf.verify(demo_graph, demo_scenario, horizon=9, p=0.01, mode=mode)
    assert_demo_digests(bounds, demo_scenario, mode)


# --------------------------------------------------------------------------
# verify's lockstep merging against the per-owner scalar reference.


def reference_naive_value(row, bounds_k):
    total = sum(e.bound * vf.node_bound(bounds_k, e.target) for e in row)
    return min(1.0, max(0.0, total))


def reference_tpn_value(row, bounds_k):
    mass = sum(e.bound for e in row)
    if mass <= 1.0:
        return reference_naive_value(row, bounds_k)
    ranked = sorted(
        ((vf.node_bound(bounds_k, e.target), e.target, e.bound) for e in row),
        key=lambda item: (item[0], item[1].kind, item[1].cells),
    )
    n = len(ranked)
    # Largest suffix of worst-ranked targets whose edge mass still fits in 1.
    suffix = 0.0
    m_hat = n  # 1-indexed position whose bound absorbs the leftover mass
    for i in range(n - 1, 0, -1):
        if suffix + ranked[i][2] > 1.0:
            break
        suffix += ranked[i][2]
        m_hat = i
    m_hat -= 1  # index of kappa(m_hat) in 0-based terms
    value = sum(pk * w for pk, _, w in ranked[m_hat + 1:])
    value += (1.0 - suffix) * ranked[m_hat][0]
    return min(1.0, max(0.0, value))


def reference_verify(graph, scenario, horizon, p, mode):
    """Step by step: each owner's row merged on its own by
    reference_merge_owner, then valued by the scalar formulas."""
    merge = mode in ("merge", "merge+tpn")
    value = reference_tpn_value if mode in ("tpn", "merge+tpn") else reference_naive_value
    per_k = [vf.init_p0(scenario)]
    records = []
    for k in range(1, horizon + 1):
        prev, new = per_k[-1], {gr.UNSAFE: 1.0}
        for owner in graph.cell_nodes():
            row = graph.edges[owner]
            if merge:
                row, merged = reference_merge_owner(row, p, prev, graph.regions, graph.sigma)
                records += [(k, owner, *m) for m in merged]
            new[owner] = 1.0 if per_k[0][owner] >= 1.0 else value(row, prev)
        per_k.append(new)
    return per_k, records


def record_tuples(records):
    return [(r.horizon, r.owner, r.members[0], r.members[1], r.merged, r.new_bound)
            for r in records]


@pytest.fixture()
def cached_emptiness(monkeypatch):
    """Memoize the reference's pairwise emptiness LPs by polytope data."""
    from relusafe import geometry
    real, cache = geometry.is_empty_intersection, {}

    def cached(a, b):
        key = (a.A.tobytes(), a.b.tobytes(), b.A.tobytes(), b.b.tobytes())
        if key not in cache:
            cache[key] = real(a, b)
        return cache[key]

    monkeypatch.setattr(geometry, "is_empty_intersection", cached)


@pytest.fixture(scope="module")
def grid4():
    """4x4 grid whose four corner cells and one inner cell are pinned unsafe:
    far-apart targets of equal value, so equal bounds give equal slacks."""
    corners = [((x, y), (x + 0.5, y + 0.5)) for x in (0.5, 9.0) for y in (0.5, 9.0)]
    return sc.make_demo_scenario(4, [6, 4], seed=3, obstacles=corners + [DEMO_OBSTACLE])


def random_graph(rng, scenario):
    """Every cell owns a row of 0-8 distinct cell targets with bounds from a
    small set (so slacks and ranks tie), the sink at a random place in most
    rows; some rows hold fewer than two groups."""
    cells = scenario.num_cells
    rows = {}
    for owner in range(cells):
        size = int(rng.choice([0, 1, 2, 5, 8]))
        row = [(int(t), float(rng.choice([0.05, 0.25, 0.5])))
               for t in rng.choice(cells, size=size, replace=False)]
        if rng.random() < 0.7:
            row.insert(int(rng.integers(0, len(row) + 1)), ("unsafe", 0.01))
        rows[owner] = row
    return synthetic_graph(rows).bind_scenario(scenario)


@pytest.mark.parametrize("budget", [None, 1])
def test_verify_matches_per_owner_reference(grid4, rng, monkeypatch, cached_emptiness,
                                            budget):
    """Records in order and every per_k float equal the per-owner scalar
    reference, in all four modes, with one block or one owner per block."""
    if budget is not None:
        monkeypatch.setattr(rowstack, "_PAIR_BUDGET", budget)
    for _ in range(4):
        graph = random_graph(rng, grid4)
        p = float(rng.choice([0.01, 0.05, 0.2]))
        for mode in vf.MODES:
            bounds = vf.verify(graph, grid4, horizon=3, p=p, mode=mode)
            per_k, records = reference_verify(graph, grid4, 3, p, mode)
            assert bounds.per_k == per_k
            assert record_tuples(bounds.merges) == records


@pytest.mark.parametrize("targets", [
    [gr.merged_node([1, 2]), gr.cell_node(1)],
    [gr.cell_node(2), gr.cell_node(3), gr.cell_node(2)],
    [gr.UNSAFE, gr.cell_node(1), gr.UNSAFE],
], ids=["merged", "repeated-cell", "repeated-sink"])
def test_rows_beyond_distinct_cells_and_one_sink_rejected(targets):
    """A hand-built row holding a merged or a repeated target is refused by
    every mode and by both single steps, not propagated."""
    scenario = sc.make_demo_scenario(2, [6, 4], seed=4)
    graph = synthetic_graph({i: [] for i in range(4)}).bind_scenario(scenario)
    graph.edges[gr.cell_node(0)] = [gr.Edge(t, 0.25) for t in targets]
    bounds = vf.init_p0(scenario)
    for mode in vf.MODES:
        with pytest.raises(vf.VerifierError, match="distinct cell targets"):
            vf.verify(graph, scenario, horizon=2, mode=mode)
    for step in (vf.naive_step, vf.tpn_step):
        with pytest.raises(vf.VerifierError, match="distinct cell targets"):
            step(graph, bounds)


def test_saturated_horizons_repeat_the_last_step(monkeypatch, cached_emptiness):
    """Once two horizons agree on every node, later steps are copies of the
    last one (records relabelled), and equal the step-by-step reference."""
    scenario = sc.make_demo_scenario(3, [16, 16, 16], seed=0, obstacles=[DEMO_OBSTACLE])
    graph = gr.build_graph(scenario, dq=0.01)
    computed = []
    step = rowstack.RowStack.step
    monkeypatch.setattr(rowstack.RowStack, "step",
                        lambda self, *args, **kw: computed.append(1) or step(self, *args, **kw))
    for mode in vf.MODES:
        computed.clear()
        bounds = vf.verify(graph, scenario, horizon=9, p=0.01, mode=mode)
        per_k, records = reference_verify(graph, scenario, 9, 0.01, mode)
        assert bounds.per_k == per_k
        assert record_tuples(bounds.merges) == records
        if mode == "merge+tpn":
            assert bounds.merges and per_k[2] == per_k[3] and len(computed) < 9


def test_merge_tpn_memory_stays_bounded():
    """144 owners with full rows (145 targets) verify in a few MB: owners
    are scored block by block, never all at once (that would be about 12 MB
    per score array)."""
    scenario = sc.make_demo_scenario(12, [6, 4], seed=0, obstacles=[DEMO_OBSTACLE])
    rng = np.random.default_rng(5)
    cells = range(scenario.num_cells)
    graph = synthetic_graph({o: [(t, float(rng.choice([0.01, 0.02, 0.05]))) for t in cells]
                             + [("unsafe", 0.05)] for o in cells}).bind_scenario(scenario)
    tracemalloc.start()
    try:
        vf.verify(graph, scenario, horizon=1, p=0.01, mode="merge+tpn")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6
