"""Reach-query solver: structure of the encoding, agreement with exhaustive
activation enumeration, threshold monotonicity, witness validity."""

import itertools

import numpy as np
import pytest

from relusafe import graph as gr
from relusafe import linprog, smc
from relusafe import scenario as sc
from relusafe.geometry import Polytope, augmented_set


def constant_controller(value, input_dim=2):
    """u identically ``value`` via a dead hidden layer."""
    m = len(value)
    layers = ((np.zeros((1, input_dim)), np.zeros(1)),
              (np.zeros((m, 1)), np.asarray(value, dtype=float)))
    return sc.ReluNetwork(layers=layers, input_dim=input_dim)


def plain_scenario(net, lo=(-5, -5), hi=(5, 5), sigma=(0.5, 0.5)):
    ws = sc.Workspace(domain=Polytope.box(lo, hi), obstacles=(),
                      position_projection=(0, 1))
    cell = sc.PartitionCell(id="c", region=Polytope.box(lo, hi),
                            C=np.eye(2), c=np.zeros(2))
    dyn = sc.SystemDynamics(A=np.eye(2), B=np.eye(2), sigma=np.array(sigma))
    return sc.Scenario(dynamics=dyn, controller=net, workspace=ws,
                       partition=(cell,)), cell


def random_instance(rng, max_neurons=8):
    n, m = 2, int(rng.integers(1, 3))
    total = int(rng.integers(2, max_neurons + 1))
    widths = []
    while total > 0:
        w = int(rng.integers(1, min(total, 4) + 1))
        widths.append(w)
        total -= w
    q_d = int(rng.integers(1, 4))
    layers = []
    prev = q_d
    for w in widths:
        layers.append((rng.normal(size=(w, prev)), rng.normal(size=w)))
        prev = w
    layers.append((rng.normal(size=(m, prev)), rng.normal(size=m)))
    net = sc.ReluNetwork(layers=tuple(layers), input_dim=q_d)
    dyn = sc.SystemDynamics(A=0.5 * rng.normal(size=(n, n)) + np.eye(n),
                            B=rng.normal(size=(n, m)),
                            sigma=rng.uniform(0.2, 1.0, size=n))
    lo = rng.uniform(-3, 0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    cell = sc.PartitionCell(id="x", region=Polytope.box(lo, hi),
                            C=rng.normal(size=(q_d, n)), c=rng.normal(size=q_d))
    ws = sc.Workspace(domain=Polytope.box(lo - 5, hi + 5), obstacles=(),
                      position_projection=(0, 1))
    scenario = sc.Scenario(dynamics=dyn, controller=net, workspace=ws,
                           partition=(cell,))
    t_lo = rng.uniform(-4, 2, size=n)
    target = Polytope.box(t_lo, t_lo + rng.uniform(0.5, 4.0, size=n))
    q = float(rng.uniform(0.05, 0.95))
    return scenario, cell, augmented_set(target, q, dyn.sigma)


def exhaustive_verdict(problem):
    for bits in itertools.product([False, True], repeat=problem.num_neurons):
        if smc.check_pattern(problem, np.array(bits)):
            return True
    return False


def test_single_neuron_structure():
    net = sc.ReluNetwork(layers=((np.array([[1.0, 0.0]]), np.array([0.0])),
                                 (np.array([[1.0], [0.0]]), np.zeros(2))),
                         input_dim=2)
    scenario, cell = plain_scenario(net)
    problem = smc.build_encoding(scenario, cell, Polytope.box([-1, -1], [1, 1]))
    assert problem.num_neurons == 1
    active = problem.lp_for_assignment({0: True})
    inactive = problem.lp_for_assignment({0: False})
    relaxed = problem.lp_for_assignment({})
    assert list(active.labels[-2:]) == [("act_eq", 0), ("act_ge", 0)]
    assert list(inactive.labels[-2:]) == [("inact_eq", 0), ("inact_le", 0)]
    assert list(relaxed.labels[-2:]) == [("rlx_pos", 0), ("rlx_ub", 0)]
    assert list(active.eq[-2:]) == list(inactive.eq[-2:]) == [True, False]
    assert not relaxed.eq[-2:].any()


def test_constraint_count_on_demo_pair(demo_scenario):
    """Rows: per-face source + target memberships, n dynamics equalities,
    one affine equality per hidden neuron, m output equalities."""
    cell_i, cell_j = demo_scenario.partition[6], demo_scenario.partition[7]
    problem = smc.build_encoding(demo_scenario, cell_i, cell_j.region)
    n = demo_scenario.dynamics.n
    m = demo_scenario.dynamics.m
    neurons = demo_scenario.controller.num_neurons
    expected = (cell_i.region.num_halfspaces + n + neurons + m)
    assert len(problem.base.rows) == expected
    assert len(problem.target_rows.rows) == cell_j.region.num_halfspaces
    assert problem.base.eq.sum() == n + neurons + m  # expand to 2 rows each in <=-form
    lp = problem.lp_for_assignment({})
    assert len(lp.rows) == expected + cell_j.region.num_halfspaces + 2 * neurons
    assert lp.num_vars == problem.num_vars == 2 * n + m + 2 * neurons


def test_contradictory_target_unsat():
    scenario, cell = plain_scenario(constant_controller([0.0, 0.0]))
    empty = Polytope([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0])  # x<=0 and x>=1
    out = smc.solve(smc.build_encoding(scenario, cell, empty))
    assert out.status == "unsat"


def test_constant_controller_sat_and_unsat():
    scenario, cell = plain_scenario(constant_controller([1.0, 0.0]))
    reachable = Polytope.box([0.5, -1.0], [2.5, 1.0])   # contains x+(1,0) picks
    out = smc.solve(smc.build_encoding(scenario, cell, reachable))
    assert out.status == "sat"
    shifted = Polytope.box([20.0, -1.0], [22.0, 1.0])   # beyond reach
    out = smc.solve(smc.build_encoding(scenario, cell, shifted))
    assert out.status == "unsat"


@pytest.mark.parametrize("seed", range(6))
def test_agreement_with_enumeration(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        scenario, cell, aug = random_instance(rng)
        problem = smc.build_encoding(scenario, cell, aug)
        verdict = smc.solve(problem)
        assert verdict.status in ("sat", "unsat")
        assert (verdict.status == "sat") == exhaustive_verdict(problem)
        bare = smc.solve(problem, presolve=False)
        assert bare.status == verdict.status


@pytest.mark.parametrize("seed", range(4))
def test_affine_pieces_agree_with_network_and_oracle(seed):
    """A sampled state away from every neuron tie lies in exactly one piece,
    whose affine map gives the network's successor; and ``z* >= 0`` against
    a target holds exactly when the oracle finds the target reachable."""
    rng = np.random.default_rng(seed)
    decided = 0
    for _ in range(6):
        scenario, cell, aug = random_instance(rng)
        dyn = scenario.dynamics
        pieces = smc.affine_pieces(scenario, cell)
        lo, hi = cell.region.bounding_box()
        for x in rng.uniform(lo, hi, size=(50, len(lo))):
            u, t = sc.nn_evaluate(scenario.controller, cell.measure(x))
            if np.min(np.abs(t)) < 1e-6:
                continue
            home = [p for p in pieces if np.all(p.A @ x <= p.b + 1e-9)]
            assert len(home) == 1
            np.testing.assert_allclose(home[0].M @ x + home[0].m,
                                       dyn.A @ x + dyn.B @ u, atol=1e-9)
        z_star = smc.max_slack(pieces, aug, dyn.sigma)[0]
        if abs(z_star) > smc.slack_tolerance(aug, dyn.sigma):
            decided += 1
            verdict = smc.solve(smc.build_encoding(scenario, cell, aug))
            assert (z_star > 0.0) == verdict.is_sat
    assert decided


def test_witness_validity(rng):
    found = 0
    while found < 10:
        scenario, cell, aug = random_instance(rng)
        problem = smc.build_encoding(scenario, cell, aug)
        out = smc.solve(problem)
        if out.status != "sat":
            continue
        found += 1
        assert cell.region.contains(out.witness_x, tol=1e-6)
        stepped = sc.closed_loop_mean_step(scenario, out.witness_x, cell, tol=1e-6)
        norms = np.linalg.norm(aug.A, axis=1)
        assert np.max((aug.A @ stepped - aug.b) / norms) <= smc.WITNESS_TOL
        assert np.allclose(stepped, out.witness_x_next)
        _, t_vals = sc.nn_evaluate(scenario.controller, cell.measure(out.witness_x))
        for j in range(problem.num_neurons):
            if abs(t_vals[j]) > smc.TIE_TOL:
                assert bool(t_vals[j] > 0.0) == bool(out.pattern[j])


def test_check_pattern_replays_witness(rng):
    while True:
        scenario, cell, aug = random_instance(rng)
        problem = smc.build_encoding(scenario, cell, aug)
        out = smc.solve(problem)
        if out.status == "sat":
            assert smc.check_pattern(problem, out.pattern)
            return


def test_check_pattern_rejects_forced_active_neurons():
    """A first layer biased far positive can never be all-inactive."""
    layers = ((np.zeros((2, 2)), np.array([3.0, 4.0])),
              (np.eye(2), np.zeros(2)))
    net = sc.ReluNetwork(layers=layers, input_dim=2)
    scenario, cell = plain_scenario(net)
    problem = smc.build_encoding(scenario, cell, Polytope.box([-9, -9], [9, 9]))
    assert not smc.check_pattern(problem, np.array([False, False]))
    assert smc.check_pattern(problem, np.array([True, True]))


def test_check_pattern_enumeration_consistency(rng):
    """Every pattern the solver could have used is LP-checkable; the solver
    verdict matches the disjunction over patterns."""
    scenario, cell, aug = random_instance(rng, max_neurons=5)
    problem = smc.build_encoding(scenario, cell, aug)
    verdict = smc.solve(problem).status == "sat"
    any_pattern = any(
        smc.check_pattern(problem, np.array(bits))
        for bits in itertools.product([False, True], repeat=problem.num_neurons))
    assert verdict == any_pattern


def test_unsat_monotone_in_threshold(rng):
    """Unsat at q stays unsat at any larger threshold."""
    checked = 0
    while checked < 8:
        scenario, cell, _ = random_instance(rng)
        target = Polytope.box([-1.5, -1.5], [1.5, 1.5])
        sigma = scenario.dynamics.sigma
        q = float(rng.uniform(0.2, 0.7))
        problem = smc.build_encoding(scenario, cell,
                                     augmented_set(target, q, sigma))
        if smc.solve(problem).status != "unsat":
            continue
        checked += 1
        for q_hi in (q + 0.1, q + 0.2):
            if q_hi >= 1.0:
                continue
            out = smc.solve(problem.with_target(augmented_set(target, q_hi, sigma)))
            assert out.status == "unsat"


def test_budget_exhaustion_reports_unknown():
    rng = np.random.default_rng(3)
    scenario, cell, aug = random_instance(rng)
    problem = smc.build_encoding(scenario, cell, aug)
    out = smc.solve(problem, node_budget=1, presolve=False)
    if out.status == "unknown":
        assert out.is_sat  # treated as satisfiable downstream
    else:
        assert out.nodes <= 1


@pytest.mark.parametrize("site", ["lp", "witness"])
def test_numerical_failure_is_unknown_and_conservative(small_scenario, monkeypatch, site):
    """A numerical failure inside a query, injected at every call in turn,
    yields "unknown" rather than a crash.  In edge estimation, injected at
    every LP in turn (prune test, emptiness and slack LPs), it never raises
    and never gives a bound or bracket below the fault-free one: an
    undecided prune test brackets the pair, a failed emptiness LP keeps its
    piece and a failed slack LP counts as z* = +inf."""
    module, name, error = {
        "lp": (linprog, "solve", linprog.LpNumericalError),
        "witness": (smc, "_make_witness", smc.SmcNumericalError),
    }[site]
    real = getattr(module, name)
    calls = []
    fail_at = 0

    def faulty(*args, **kwargs):
        calls.append(None)
        if len(calls) == fail_at:
            raise error("injected fault")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, faulty)
    cell = small_scenario.partition[4]
    sigma = small_scenario.dynamics.sigma

    fail_at = 1
    problem = smc.build_encoding(small_scenario, cell,
                                 augmented_set(cell.region, 0.5, sigma))
    assert smc.solve(problem).status == "unknown"
    assert calls

    moved = 0
    for target in (4, 5):  # all-sat and all-unsat brackets at dq = 0.05
        region = small_scenario.partition[target].region
        calls.clear()
        fail_at = 0
        clean = gr.estimate_edge(small_scenario, cell, region, 0.05)
        assert clean[3] == "smc"
        for fail_at in range(1, len(calls) + 1):
            calls.clear()
            out = gr.estimate_edge(small_scenario, cell, region, 0.05)
            assert out[3] == "smc"
            assert all(got >= want for got, want in zip(out[:3], clean[:3]))
            moved += out != clean
    assert moved or site == "witness"


def test_dump_names_all_neurons(demo_scenario):
    cell = demo_scenario.partition[0]
    problem = smc.build_encoding(demo_scenario, cell,
                                 demo_scenario.partition[1].region)
    text = problem.dump()
    assert "neuron 15" in text
    assert "tgt" in text and "dyn" in text
