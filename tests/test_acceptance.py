"""Acceptance criteria, one test per criterion, each printing a PASS line.

The workload is the 5x5 demo scenario (session fixtures in conftest).  The
Monte-Carlo criteria are the package's falsifiers: an estimate above a bound
by more than four binomial standard deviations fails the suite.
"""

import itertools
import time

import numpy as np

from relusafe import graph as gr
from relusafe import linprog
from relusafe import montecarlo as mc
from relusafe import refine as rf
from relusafe import render
from relusafe import scenario as sc
from relusafe import smc
from relusafe import verifier as vf
from relusafe.geometry import augmented_set
from tests.conftest import DEMO_HORIZON
from tests.test_smc import random_instance

N_MC = 10_000
ACCEPTANCE_LINES = []


def report(number, text):
    line = f"ACCEPTANCE {number} PASS: {text}"
    print(line)
    ACCEPTANCE_LINES.append(line)


def edge_rows(graph):
    for source in graph.cell_nodes():
        for edge in graph.edges[source]:
            yield source, edge


def test_criterion_1_smc_exactness_oracle():
    """Solver verdict equals exhaustive activation enumeration, 50 instances."""
    start = time.time()
    rng = np.random.default_rng(2024)
    agreements = 0
    for trial in range(50):
        scenario, cell, aug = random_instance(rng, max_neurons=10)
        problem = smc.build_encoding(scenario, cell, aug)
        verdict = smc.solve(problem)
        assert verdict.status in ("sat", "unsat"), f"budget hit on trial {trial}"
        brute = any(
            smc.check_pattern(problem, np.array(bits))
            for bits in itertools.product([False, True], repeat=problem.num_neurons))
        assert (verdict.status == "sat") == brute, f"disagreement on trial {trial}"
        agreements += 1
    elapsed = time.time() - start
    assert agreements == 50
    assert elapsed < 300.0, f"exactness oracle took {elapsed:.0f}s"
    report(1, f"50/50 agreement with exhaustive enumeration in {elapsed:.0f}s")


def test_criterion_2_bisection_contract(demo_graph, demo_scenario):
    """Per edge: bracket gap <= dq, unsat at q_hi (or 1), sat at q_lo (or 0)."""
    dq = demo_graph.dq
    sigma = demo_scenario.dynamics.sigma

    def replay(cell, region, q):
        aug = augmented_set(region, q, sigma)
        return smc.solve(smc.build_encoding(demo_scenario, cell, aug)).status

    checked = 0
    for source, edge in edge_rows(demo_graph):
        cell = demo_scenario.partition[source.cells[0]]
        if edge.target.kind == "cell":
            records = [(demo_scenario.partition[edge.target.cells[0]].region,
                        edge.q_lo, edge.q_hi)]
        else:
            records = [(piece, q_lo, q_hi)
                       for piece, _, q_lo, q_hi, _ in edge.pieces]
        for region, q_lo, q_hi in records:
            checked += 1
            assert q_hi - q_lo <= dq + 1e-12
            if q_hi < 1.0:
                assert replay(cell, region, q_hi) == "unsat", \
                    f"{source}->{edge.target}: sat at q_hi={q_hi}"
            if q_lo > 0.0:
                assert replay(cell, region, q_lo) == "sat", \
                    f"{source}->{edge.target}: unsat at q_lo={q_lo}"
    assert checked >= demo_scenario.num_cells ** 2
    report(2, f"bisection contract held on {checked} brackets")


def test_criterion_3_transition_bound_soundness(demo_graph, demo_scenario):
    """Max over 200 sampled source states of MC transition probability stays
    below each edge bound plus four binomial deviations."""
    ws = demo_scenario.workspace
    dom = ws.domain
    lifted = ws.lifted_obstacles()
    dyn = demo_scenario.dynamics
    violations = []
    for i in range(demo_scenario.num_cells):
        cell = demo_scenario.partition[i]
        starts = mc.sample_in_polytope(cell.region, 200, mc.stream(300 + i, 0))
        d = starts @ cell.C.T + cell.c
        u = sc.nn_forward_batch(demo_scenario.controller, d)
        means = starts @ dyn.A.T + u @ dyn.B.T
        draws = mc.stream(301, i + 1).normal(size=(N_MC, 2)) * dyn.sigma
        pts = (means[:, None, :] + draws[None, :, :]).reshape(-1, 2)
        for edge in demo_graph.edges[gr.cell_node(i)]:
            if edge.target.kind == "cell":
                region = demo_scenario.partition[edge.target.cells[0]].region
                inside = region.contains_many(pts, tol=0.0)
            else:
                inside = np.any(pts @ dom.A.T - dom.b > 1e-9, axis=1)
                for obs in lifted:
                    inside |= obs.contains_many(pts, tol=0.0)
            worst = float(inside.reshape(200, N_MC).mean(axis=1).max())
            sd = np.sqrt(worst * (1.0 - worst) / N_MC)
            if worst > edge.bound + 4.0 * sd:
                violations.append((str(gr.cell_node(i)), str(edge.target),
                                   worst, edge.bound))
    assert not violations, violations
    report(3, f"all {sum(len(demo_graph.edges[v]) for v in demo_graph.cell_nodes())} "
              f"edges sound at 200 states x {N_MC} draws")


def test_criterion_4_safety_bound_soundness(demo_bounds, demo_scenario):
    """MC within-k unsafe fraction never exceeds any mode's bound, k=1..9."""
    start = time.time()
    violations = []
    for i in range(demo_scenario.num_cells):
        starts = mc.sample_in_polytope(demo_scenario.partition[i].region, N_MC,
                                       mc.stream(400 + i, 0))
        _, first_hit = mc.simulate_batch(demo_scenario, starts, DEMO_HORIZON,
                                         seed=400 + i, base_index=1)
        node = gr.cell_node(i)
        for k in range(1, DEMO_HORIZON + 1):
            frac = float(np.mean(first_hit <= k))
            sd = np.sqrt(frac * (1.0 - frac) / N_MC)
            for mode, bounds in demo_bounds.items():
                if frac > bounds.per_k[k][node] + 4.0 * sd:
                    violations.append((str(node), k, mode, frac,
                                       bounds.per_k[k][node]))
    elapsed = time.time() - start
    assert not violations, violations
    assert elapsed < 900.0, f"safety soundness sweep took {elapsed:.0f}s"
    report(4, f"within-k soundness for 4 modes, k=1..{DEMO_HORIZON}, "
              f"{N_MC} trajectories/cell in {elapsed:.0f}s")


def test_criterion_5_dominance(demo_graph, demo_bounds):
    naive = demo_bounds["naive"]
    both = demo_bounds["merge+tpn"]
    for k in range(DEMO_HORIZON + 1):
        for node in naive.cell_nodes():
            assert both.per_k[k][node] <= naive.per_k[k][node] + 1e-12
    merge_fired = bool(both.merges)
    heavy_mass = any(sum(e.bound for e in demo_graph.edges[v]) > 1.0
                     for v in demo_graph.cell_nodes())
    assert merge_fired or heavy_mass
    strict = [node for node in naive.cell_nodes()
              if both.per_k[DEMO_HORIZON][node]
              < naive.per_k[DEMO_HORIZON][node] - 1e-12]
    assert strict, "tightened bounds nowhere strictly better"
    report(5, f"merge+tpn <= naive everywhere; strictly better on "
              f"{len(strict)} cells at k={DEMO_HORIZON}")


def test_criterion_6_normalization_worked_example():
    owner = gr.cell_node(0)
    targets = [gr.cell_node(i) for i in (1, 2, 3)]
    edges = {owner: [gr.Edge(t, 0.6) for t in targets], gr.UNSAFE: []}
    for t in targets:
        edges[t] = []
    graph = gr.TransitionGraph(nodes=[owner, *targets, gr.UNSAFE], edges=edges,
                               dq=0.01)
    bounds_k = {targets[0]: 0.1, targets[1]: 0.5, targets[2]: 1.0,
                owner: 0.0, gr.UNSAFE: 1.0}
    tpn = vf.tpn_step(graph, bounds_k)[owner]
    naive = vf.naive_step(graph, bounds_k)[owner]
    assert abs(tpn - 0.8) <= 1e-12
    assert abs(naive - 0.96) <= 1e-12
    report(6, f"worked normalization example: tpn={tpn}, naive={naive}")


def test_criterion_7_refinement_effectiveness(demo_graph, demo_scenario,
                                              demo_bounds):
    """One auto-selected split strictly lowers the refined region's 6-step
    bound and moves no bound up by more than requantization slack."""
    base = vf.verify(demo_graph, demo_scenario, horizon=6, p=0.01,
                     mode="merge+tpn")
    source, edge = rf.select_target(demo_graph, base, k=6)
    result = rf.refine_cell(demo_scenario, demo_graph, base, source,
                            edge.target, steps=4)
    assert result.plan.committed
    after = vf.verify(result.graph, result.scenario, horizon=6, p=0.01,
                      mode="merge+tpn")
    idx = source.cells[0]
    old_region_bound = base.per_k[6][gr.cell_node(idx)]
    sub_bounds = [after.per_k[6][gr.cell_node(idx)],
                  after.per_k[6][gr.cell_node(idx + 1)]]
    assert max(sub_bounds) <= old_region_bound + 1e-12
    assert min(sub_bounds) < old_region_bound - 1e-12, \
        "split did not strictly tighten the refined region"
    slack = demo_graph.dq + 1e-12
    for i_old in range(demo_scenario.num_cells):
        if i_old == idx:
            continue
        i_new = i_old if i_old < idx else i_old + 1
        for k in range(7):
            assert (after.per_k[k][gr.cell_node(i_new)]
                    <= base.per_k[k][gr.cell_node(i_old)] + slack), \
                f"cell {i_old} bound rose beyond dq slack at k={k}"
    report(7, f"refining {source}->{edge.target}: region bound "
              f"{old_region_bound:.3f} -> {min(sub_bounds):.3f}/{max(sub_bounds):.3f}")


def test_criterion_8_certificate_audit(demo_scenario):
    """Every infeasibility produced by a full graph build carries a Farkas
    certificate that passes the independent machine check, whether its LP
    was solved alone or in a ``solve_many`` batch.  A batch of one is
    solved by ``solve``, so each result is audited once, by identity."""
    audited = {}  # id -> result, kept alive so that ids stay unique
    original, original_many = linprog.solve, linprog.solve_many

    def audit(lp, res):
        if isinstance(res, linprog.Infeasible) and id(res) not in audited:
            audited[id(res)] = res
            assert linprog.check_certificate(lp, res.certificate), \
                "certificate failed the audit"
            y = np.array([e.weight for e in res.certificate])
            assert np.all(y >= 0.0)
        return res

    def audited_solve(lp, **kwargs):
        return audit(lp, original(lp, **kwargs))

    def audited_solve_many(lps):
        lps = list(lps)
        return [audit(lp, res) for lp, res in zip(lps, original_many(lps))]

    linprog.solve, linprog.solve_many = audited_solve, audited_solve_many
    try:
        gr.build_graph(demo_scenario, dq=0.05)
    finally:
        linprog.solve, linprog.solve_many = original, original_many
    assert len(audited) > 100
    report(8, f"{len(audited)} infeasibility certificates verified")


def test_criterion_9_horizon_sweep_renders(demo_bounds, demo_scenario, tmp_path):
    bounds = demo_bounds["merge+tpn"]
    digests = {}
    for k in (3, 6, 9):
        first = tmp_path / f"sweep_{k}_a.ppm"
        second = tmp_path / f"sweep_{k}_b.ppm"
        render.render_heatmap(bounds, k, demo_scenario, first)
        render.render_heatmap(bounds, k, demo_scenario, second)
        assert first.read_bytes() == second.read_bytes()
        digests[k] = first.read_bytes()
    assert digests[3] != digests[6] != digests[9]
    report(9, "T in {3,6,9} heatmaps rendered pixel-identically twice")
