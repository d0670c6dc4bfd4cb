"""Simulation: determinism, noise statistics, stream independence, and the
per-cell estimator."""

import hashlib

import numpy as np
import pytest

from relusafe import montecarlo as mc
from relusafe import scenario as sc
from relusafe.geometry import EPS_GEO, STRICT_MARGIN, Polytope
from tests.conftest import DEMO_OBSTACLE


def test_same_seed_same_trajectory(demo_scenario):
    a = mc.simulate(demo_scenario, [1.0, 1.0], 9, seed=42)
    b = mc.simulate(demo_scenario, [1.0, 1.0], 9, seed=42)
    assert np.array_equal(a.states, b.states)
    assert a.unsafe_hit == b.unsafe_hit
    c = mc.simulate(demo_scenario, [1.0, 1.0], 9, seed=43)
    assert not np.array_equal(a.states, c.states)


def test_near_zero_noise_matches_mean_iterates(demo_scenario):
    quiet = sc.Scenario(
        dynamics=sc.SystemDynamics(A=demo_scenario.dynamics.A,
                                   B=demo_scenario.dynamics.B,
                                   sigma=np.array([1e-12, 1e-12])),
        controller=demo_scenario.controller,
        workspace=demo_scenario.workspace,
        partition=demo_scenario.partition)
    x0 = np.array([1.3, 1.7])
    traj = mc.simulate(quiet, x0, 5, seed=0)
    x = x0
    for t in range(5):
        idx = quiet.cell_index_many(x[None, :])[0]
        x = sc.closed_loop_mean_step(quiet, x, quiet.partition[idx])
        assert np.allclose(traj.states[t + 1], x, atol=1e-9)


def test_trajectory_shape_and_hold_after_exit():
    """Once no cell contains the state the rollout freezes but keeps k+1 rows."""
    layers = ((np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2)))
    net = sc.ReluNetwork(layers=layers, input_dim=2)
    ws = sc.Workspace(domain=Polytope.box([0, 0], [2, 2]), obstacles=(),
                      position_projection=(0, 1))
    cell = sc.PartitionCell(id="c", region=Polytope.box([0, 0], [2, 2]),
                            C=np.eye(2), c=np.zeros(2))
    loud = sc.Scenario(dynamics=sc.SystemDynamics(A=np.eye(2), B=np.eye(2),
                                                  sigma=np.array([50.0, 50.0])),
                       controller=net, workspace=ws, partition=(cell,))
    traj = mc.simulate(loud, [1.0, 1.0], 6, seed=1)
    assert traj.states.shape == (7, 2)
    assert traj.unsafe_hit is not None and traj.unsafe_hit <= 1
    after = traj.states[traj.unsafe_hit + 1:]
    if len(after) > 1:
        assert np.allclose(after, after[0])


def test_noise_variance_matches_sigma(demo_scenario):
    sigma = demo_scenario.dynamics.sigma
    draws = np.concatenate(
        [mc.stream(5, 1 + i).normal(size=(1000, 2)) * sigma for i in range(100)])
    assert draws.shape[0] == 100000
    var = draws.var(axis=0)
    assert np.all(np.abs(var - sigma ** 2) <= 0.03 * sigma ** 2)


def test_streams_uncorrelated():
    """10^4 trajectory pairs, correlating the whole noise sequences so the
    estimator noise (1/sqrt(pairs * length)) sits well inside the 0.01 gate."""
    n_pairs = 10000
    length = 18
    left = np.empty((n_pairs, length))
    right = np.empty((n_pairs, length))
    for i in range(n_pairs):
        left[i] = mc.stream(7, 1 + 2 * i).normal(size=length)
        right[i] = mc.stream(7, 2 + 2 * i).normal(size=length)
    corr = np.corrcoef(left.ravel(), right.ravel())[0, 1]
    assert abs(corr) < 0.01


def test_single_rollout_is_a_batch_of_one(demo_scenario):
    x0s = np.array([[1.0, 1.0], [5.0, 5.0], [8.5, 3.5]])
    for i in range(3):
        solo = mc.simulate(demo_scenario, x0s[i], 6, seed=21, index=i)
        states, _ = mc.simulate_batch(demo_scenario, x0s[i:i + 1], 6, seed=21,
                                      base_index=1 + i)
        assert np.array_equal(solo.states, states[0])


def test_estimate_k0_safe_cell(demo_scenario):
    est = mc.estimate_true_pk(demo_scenario, 12, k=0, n=500, seed=2)
    assert est.hit_fraction == 0.0
    assert est.stddev == 0.0


def test_estimate_cell_inside_obstacle():
    ws = sc.Workspace(domain=Polytope.box([0, 0], [4, 4]),
                      obstacles=(Polytope.box([0.5, 0.5], [3.5, 3.5]),),
                      position_projection=(0, 1))
    layers = ((np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2)))
    cells = (sc.PartitionCell(id="a", region=Polytope.box([0, 0], [2, 4]),
                              C=np.eye(2), c=np.zeros(2)),
             sc.PartitionCell(id="b", region=Polytope.box([2, 0], [4, 4]),
                              C=np.eye(2), c=np.zeros(2)))
    scenario = sc.Scenario(
        dynamics=sc.SystemDynamics(A=np.eye(2), B=np.eye(2),
                                   sigma=np.array([0.3, 0.3])),
        controller=sc.ReluNetwork(layers=layers, input_dim=2),
        workspace=ws, partition=cells)
    inner = sc.PartitionCell(id="inner", region=Polytope.box([1.0, 1.0], [3.0, 3.0]),
                             C=np.eye(2), c=np.zeros(2))
    est = mc.estimate_true_pk(scenario, inner, k=0, n=300, seed=6)
    assert est.hit_fraction == 1.0


def test_estimate_stddev_formula(demo_scenario):
    est = mc.estimate_true_pk(demo_scenario, 21, k=9, n=4000, seed=13)
    f = est.hit_fraction
    assert est.stddev == pytest.approx(np.sqrt(f * (1 - f) / 4000))


def test_sampler_roughly_uniform():
    box = Polytope.box([0.0, 0.0], [2.0, 4.0])
    pts = mc.sample_in_polytope(box, 4000, mc.stream(3, 0))
    assert np.all(box.contains_many(pts))
    assert np.allclose(pts.mean(axis=0), [1.0, 2.0], atol=0.15)
    # Spread should approach the uniform stddev (width / sqrt(12)).
    assert np.allclose(pts.std(axis=0), [2 / np.sqrt(12), 4 / np.sqrt(12)],
                       atol=0.15)


@pytest.mark.parametrize("width", [1.0, 20.0])
def test_sampler_draws_independent(width):
    """Consecutive starts are uncorrelated, however elongated the cell
    (4000 points: one standard error of the lag-1 correlation is 0.016)."""
    pts = mc.sample_in_polytope(Polytope.box([0.0, 0.0], [width, 1.0]), 4000,
                                mc.stream(11, 0))
    for axis in range(2):
        lag1 = np.corrcoef(pts[:-1, axis], pts[1:, axis])[0, 1]
        assert abs(lag1) < 0.05


def test_sampler_uniform_on_elongated_box():
    pts = mc.sample_in_polytope(Polytope.box([0.0, 0.0], [100.0, 1.0]), 4000,
                                mc.stream(12, 0))
    assert np.allclose(pts.mean(axis=0), [50.0, 0.5], rtol=0.03, atol=0.0)
    assert np.allclose(pts.std(axis=0), np.array([100.0, 1.0]) / np.sqrt(12),
                       rtol=0.03, atol=0.0)


def test_sampler_triangle_centroid():
    tri = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]),
                   np.array([0.0, 0.0, 1.0]))
    pts = mc.sample_in_polytope(tri, 4000, mc.stream(13, 0))
    assert np.all(tri.contains_many(pts, tol=0.0))
    # Per-axis stddev of the mean is sqrt(1/18 / 4000) = 0.0037.
    assert np.allclose(pts.mean(axis=0), [1 / 3, 1 / 3], atol=0.015)


@pytest.mark.parametrize("poly", [
    Polytope(np.array([[0.0, 1.0], [0.0, -1.0]]), np.array([1.0, 0.0])),  # strip
    Polytope(np.array([[0.0, 1.0]]), np.array([1.0])),                    # half-plane
    Polytope.box([0.0, 0.0], [1.0, 1.0]).with_extra([1.0, 0.0], -1.0),    # empty
    Polytope.box([0.0, 0.0], [1.0, 1.0]).with_extra([1.0, 0.0], 0.0),     # flat
], ids=["strip", "half-plane", "empty", "flat"])
def test_sampler_rejects_unsamplable(poly):
    with pytest.raises(mc.MonteCarloError):
        mc.sample_in_polytope(poly, 10, mc.stream(0, 0))


def free_scenario():
    """Identity dynamics, no control, a domain nothing leaves: each step adds
    exactly its noise."""
    layers = ((np.zeros((1, 2)), np.zeros(1)), (np.zeros((2, 1)), np.zeros(2)))
    big = Polytope.box([-1e3, -1e3], [1e3, 1e3])
    return sc.Scenario(
        dynamics=sc.SystemDynamics(A=np.eye(2), B=np.zeros((2, 2)),
                                   sigma=np.array([0.3, 0.7])),
        controller=sc.ReluNetwork(layers=layers, input_dim=2),
        workspace=sc.Workspace(domain=big, obstacles=(), position_projection=(0, 1)),
        partition=(sc.PartitionCell(id="all", region=big, C=np.eye(2), c=np.zeros(2)),))


def test_noise_contract_is_one_time_major_draw():
    """A batch adds stream(seed, base_index) drawn as one (k, N, n) block,
    scaled by sigma, step t reading row t; a single rollout adds stream
    (seed, 1 + index) drawn as (k, n)."""
    free = free_scenario()
    sigma = free.dynamics.sigma
    x0s = np.array([[0.0, 0.0], [1.5, -2.0], [10.0, 3.0]])
    states, first_hit = mc.simulate_batch(free, x0s, 5, seed=31, base_index=7)
    assert np.all(first_hit == 6)
    noise = mc.stream(31, 7).normal(size=(5, 3, 2)) * sigma
    for t in range(5):
        assert np.array_equal(states[:, t + 1], states[:, t] + noise[t])
    solo = mc.simulate(free, x0s[1], 5, seed=31, index=4)
    noise = mc.stream(31, 5).normal(size=(5, 2)) * sigma
    assert np.array_equal(solo.states[1:], solo.states[:-1] + noise)


def test_batch_noise_uncorrelated_across_trajectories():
    """10^4 pairs of adjacent trajectories in one batch, correlating their
    whole noise sequences so the estimator noise (1/sqrt(pairs * length))
    sits well inside the 0.01 gate."""
    n_pairs = 10000
    free = free_scenario()
    states, _ = mc.simulate_batch(free, np.zeros((2 * n_pairs, 2)), 9, seed=7)
    noise = np.diff(states, axis=1) / free.dynamics.sigma
    corr = np.corrcoef(noise[0::2].ravel(), noise[1::2].ravel())[0, 1]
    assert abs(corr) < 0.01


def test_curve_entries_match_single_horizon_estimates(demo_scenario):
    curve = mc.estimate_true_pk_curve(demo_scenario, 21, k=9, n=1000, seed=5)
    assert [e.horizon for e in curve] == list(range(10))
    for k, est in enumerate(curve):
        assert est == mc.estimate_true_pk(demo_scenario, 21, k=k, n=1000, seed=5)


@pytest.mark.parametrize("cell, k", [(0, -1), (25, 3), (-1, 3)])
def test_estimate_rejects_bad_input(demo_scenario, cell, k):
    with pytest.raises(mc.MonteCarloError):
        mc.estimate_true_pk(demo_scenario, cell, k=k, n=10, seed=0)


def test_initial_state_outside_domain_rejected(demo_scenario):
    with pytest.raises(mc.MonteCarloError):
        mc.simulate(demo_scenario, [99.0, 99.0], 3, seed=0)


def test_initial_state_of_wrong_length_rejected(demo_scenario):
    with pytest.raises(mc.MonteCarloError, match="not \\(N, 2\\)"):
        mc.simulate(demo_scenario, [1.0, 2.0, 3.0], 3, seed=0)


def test_bound_truth_gap_widens_with_horizon(demo_scenario, demo_bounds):
    """Trend check: the conservatism (bound minus MC estimate) grows with
    the horizon for an interior cell."""
    from relusafe.graph import cell_node

    bounds = demo_bounds["merge+tpn"]
    starts = mc.sample_in_polytope(demo_scenario.partition[12].region, 4000,
                                   mc.stream(900, 0))
    _, first_hit = mc.simulate_batch(demo_scenario, starts, 9, seed=900)
    gaps = []
    for k in (1, 5, 9):
        frac = float(np.mean(first_hit <= k))
        gaps.append(bounds.per_k[k][cell_node(12)] - frac)
    assert gaps[0] <= gaps[1] <= gaps[2]


def reference_batch(scenario, x0s, k, seed):
    """simulate_batch row-major and without the package's batch layers: each
    live state's measurement map gathered from its own cell, a per-cell
    first-match lookup, and the test's own network pass, domain test and
    obstacle test."""
    dyn, ws = scenario.dynamics, scenario.workspace
    noise = mc.stream(seed, 1).normal(size=(k, len(x0s), dyn.n)) * dyn.sigma
    Cs = np.stack([cell.C for cell in scenario.partition])
    cs = np.stack([cell.c for cell in scenario.partition])

    def cell_index(x):
        idx = np.full(len(x), -1)
        for j in range(scenario.num_cells - 1, -1, -1):
            region = scenario.partition[j].region
            idx[np.all(x @ region.A.T - region.b <= EPS_GEO, axis=1)] = j
        return idx

    def network(d):
        for W, w in scenario.controller.layers[:-1]:
            d = np.maximum(d @ W.T + w, 0.0)
        W, w = scenario.controller.layers[-1]
        return d @ W.T + w

    def unsafe(x, idx):
        bad = (idx < 0) | np.any(x @ ws.domain.A.T - ws.domain.b > STRICT_MARGIN, axis=1)
        pos = x[:, list(ws.position_projection)]
        for obs in ws.obstacles:
            bad |= np.all(pos @ obs.A.T - obs.b <= 0.0, axis=1)
        return bad

    x = np.array(x0s, dtype=float)
    states, idx = [x], cell_index(x)
    first_hit = np.where(unsafe(x, idx), 0, k + 1)
    for t in range(k):
        live = idx >= 0
        u = np.zeros((len(x), dyn.m))
        if np.any(live):
            d = np.einsum("ipn,in->ip", Cs[idx[live]], x[live]) + cs[idx[live]]
            u[live] = network(d)
        step = x @ dyn.A.T + u @ dyn.B.T + noise[t]
        step[~live] = x[~live]
        x = step
        states.append(x)
        idx = cell_index(x)
        first_hit = np.where(unsafe(x, idx) & (first_hit > t + 1), t + 1, first_hit)
    return np.stack(states, axis=1), first_hit


def test_measurement_maps_match_per_cell_reference(demo_scenario, small_scenario):
    """Generated scenarios share one measurement map, applied by one matrix
    product per step; states and first hits equal the per-cell gather bit
    for bit.  A partition with one different map still uses each cell's own."""
    cell = demo_scenario.partition[12]
    mixed = sc.Scenario(dynamics=demo_scenario.dynamics, controller=demo_scenario.controller,
                        workspace=demo_scenario.workspace,
                        partition=demo_scenario.partition[:12] + (sc.PartitionCell(
                            id=cell.id, region=cell.region, C=2.0 * cell.C, c=cell.c + 0.5),)
                        + demo_scenario.partition[13:])
    for scenario in (demo_scenario, small_scenario, mixed):
        for index in range(0, scenario.num_cells, 4):
            starts = mc.sample_in_polytope(scenario.partition[index].region, 300,
                                           mc.stream(index, 0))
            states, first_hit = mc.simulate_batch(scenario, starts, 9, seed=index)
            want_states, want_hit = reference_batch(scenario, starts, 9, seed=index)
            assert np.array_equal(states, want_states)
            assert np.array_equal(first_hit, want_hit)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (4, 1)])
def test_simulate_batch_rejects_misshapen_starts(demo_scenario, shape):
    with pytest.raises(mc.MonteCarloError):
        mc.simulate_batch(demo_scenario, np.ones(shape), 3, seed=0)


def test_simulate_batch_of_no_starts_is_empty(demo_scenario):
    states, first_hit = mc.simulate_batch(demo_scenario, np.empty((0, 2)), 3, seed=0)
    assert states.shape == (0, 4, 2) and first_hit.shape == (0,)


def digest(array):
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


@pytest.mark.parametrize("workload, cell, digests", [
    ("demo5", 0, ("c31b27ae9f92efba818af695fedf808d8b0644a74236b3a44badf9504bbe15e4",
                  "cf9336c5c0ecb6603804f4ecabda5f7409e3666935cf2430857697c608492555",
                  "b393978842a0fa3d3e1470196f098f473f9678e72463cb65ec4ab5581856c2e4")),
    ("demo5", 16, ("c962d8ff1a334ebc3aac922786723e1f3a78709934445eb33a0fd1bbd5b9e972",
                   "1084eef7e6bae2fea20f2d8eb24e5530b38997ad7a79819b5911e539a8ea3f88",
                   "98c8cb424a86308297ab3aab16a71ea59f4e572313e7c18225f777cd580a4904")),
    ("demo5", 21, ("f4b956926a7fec8958a08fd55c02dbcd319bc496a5ab27fc3be59b4472faae1a",
                   "8c158a5d6b3aef8e9ecc01f02bf4f0c3eaa2521514f7e5874b9904277ffd2037",
                   "3e034c601ab44b7e43d31fe02aa63f43870b9439e4bbbcd3d1424ff52103a140")),
    ("deep3", 3, ("85ad95ede237fc0af7f136e1223c7b946b309122dd6a1c09a32340a7c60a5808",
                  "8875541f4947d82dbb7978e15acdbfb9b9cba7dc665a3e95e3e3b74b36779ff0",
                  "b41566327ca06dc45c352d3fc80d8f4997f867fca2e64a72736c977b46daf9c4")),
    ("deep3", 6, ("f993860e69e26376866a91d76272532089af7acf59ea5af9def6b53a9e8bf7c6",
                  "74d0df364dafd35a20f737afd93d4c10d133bf6958e19e5531ceb7db7c707c72",
                  "defcd1191a390e32c6a2815f29303889b4c586360368f7d4f4b771999f60d15f")),
])
def test_falsifier_bytes_pinned(request, workload, cell, digests):
    """SHA-256 of a 2 000-rollout, 9-step batch's states (as (N, k+1, n) in C
    order) and first hits (int64), and of the estimate curve's
    ``(hit_fraction, stddev)`` pairs, from uniform starts in one cell."""
    if workload == "demo5":
        scenario = request.getfixturevalue("demo_scenario")
    else:
        scenario = sc.make_demo_scenario(3, [16, 16, 16], seed=0, obstacles=[DEMO_OBSTACLE])
    seed = 100 + cell
    starts = mc.sample_in_polytope(scenario.partition[cell].region, 2000, mc.stream(seed, 0))
    states, first_hit = mc.simulate_batch(scenario, starts, 9, seed)
    curve = mc.estimate_true_pk_curve(scenario, cell, 9, 2000, seed)
    values = np.array([(est.hit_fraction, est.stddev) for est in curve])
    assert (digest(states), digest(first_hit.astype(np.int64)), digest(values)) == digests


def test_mixed_maps_and_dead_trajectories_pinned(demo_scenario):
    """SHA-256 of a batch on demo5 with cell 12's measurement map changed
    and cell 6 removed, from starts over [1, 5]^2: trajectories in the hole
    are dead from the start and others die later, so steps gather the live
    states and their own cells' maps, and the dead ones hold position."""
    cells = list(demo_scenario.partition)
    mid = cells[12]
    cells[12] = sc.PartitionCell(id=mid.id, region=mid.region, C=2.0 * mid.C, c=mid.c + 0.5)
    del cells[6]
    holed = sc.Scenario(dynamics=demo_scenario.dynamics, controller=demo_scenario.controller,
                        workspace=demo_scenario.workspace, partition=tuple(cells))
    assert not holed.measurement_maps[2]
    starts = mc.sample_in_polytope(Polytope.box([1.0, 1.0], [5.0, 5.0]), 2000, mc.stream(77, 0))
    states, first_hit = mc.simulate_batch(holed, starts, 9, 77)
    dead = holed.cell_index_many(states[:, 4]) < 0
    assert 0 < np.count_nonzero(dead) < len(dead)
    assert np.array_equal(states[dead, 5], states[dead, 4])
    assert (digest(states), digest(first_hit.astype(np.int64))) == (
        "474e0a401d18e694265d713c57ab73e5eaa09f0ea67e8db002cddd92cb5587e2",
        "0ec5323cc6dfc76b57ab62bf57e550c3d98ddb53ebb7f55de9c596a03e83bbe5")


def test_two_state_slots_keep_the_last_states_and_hits(demo_scenario):
    """``history=False`` keeps the last two states of the full rollout in
    alternating slots and the same first hits; rollouts of other shapes in
    between, which replace the thread's step buffers, change nothing."""
    starts = mc.sample_in_polytope(demo_scenario.partition[16].region, 300, mc.stream(5, 0))
    full, hits = mc.simulate_batch(demo_scenario, starts, 7, 5)
    mc.simulate_batch(demo_scenario, starts[:40], 3, 6)
    two, two_hits = mc.simulate_batch(demo_scenario, starts, 7, 5, history=False)
    assert two.shape == (300, 2, 2)
    assert np.array_equal(two_hits, hits)
    assert two[:, 7 % 2].tobytes() == full[:, 7].tobytes()
    assert two[:, 1 - 7 % 2].tobytes() == full[:, 6].tobytes()
    again, _ = mc.simulate_batch(demo_scenario, starts, 7, 5)
    assert again.tobytes() == full.tobytes()
