"""Scenario documents, network evaluation, the closed-loop mean step, and
the demo fixture generator."""

import json

import numpy as np
import pytest

from relusafe import scenario as sc
from relusafe.geometry import EPS_GEO, STRICT_MARGIN, Hyperplane, Polytope, split
from tests.conftest import DEMO_OBSTACLE

MINIMAL_DOC = {
    "format": sc.SCENARIO_FORMAT,
    "dynamics": {"A": [[1.0]], "B": [[1.0]], "sigma": [0.5], "noise_kind": "stddev"},
    "controller": {
        "input_dim": 1,
        "layers": [
            {"W": [[1.0]], "w": [0.0]},
            {"W": [[1.0]], "w": [0.0]},
        ],
    },
    "workspace": {
        "domain": [{"a": [1.0], "b": 1.0}, {"a": [-1.0], "b": 1.0}],
        "obstacles": [],
        "position_projection": [0],
    },
    "partition": [
        {"id": "only", "halfspaces": [{"a": [1.0], "b": 1.0}, {"a": [-1.0], "b": 1.0}]},
    ],
}


def test_minimal_single_cell_document():
    scenario = sc.load_scenario(json.dumps(MINIMAL_DOC))
    assert scenario.num_cells == 1
    assert len(scenario.controller.layers) == 2  # one hidden layer + output
    assert scenario.controller.num_neurons == 1


def test_zero_sigma_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["dynamics"]["sigma"] = [0.0]
    with pytest.raises(sc.ScenarioError, match="sigma must be positive"):
        sc.load_scenario(json.dumps(doc))


def test_single_integrator_with_32_neurons_accepted():
    """2-D single integrator, three hidden layers, 32 neurons total."""
    rng = np.random.default_rng(0)
    widths = (12, 12, 8)
    assert sum(widths) == 32
    layers = []
    prev = 2
    for w in widths:
        layers.append({"W": (0.1 * rng.normal(size=(w, prev))).tolist(),
                       "w": (0.1 * rng.normal(size=w)).tolist()})
        prev = w
    layers.append({"W": (0.1 * rng.normal(size=(2, prev))).tolist(),
                   "w": [0.0, 0.0]})
    doc = {
        "format": sc.SCENARIO_FORMAT,
        "dynamics": {"A": [[1, 0], [0, 1]], "B": [[1, 0], [0, 1]],
                     "sigma": [0.5, 0.5], "noise_kind": "stddev"},
        "controller": {"input_dim": 2, "layers": layers},
        "workspace": {
            "domain": [{"a": [1, 0], "b": 4.0}, {"a": [-1, 0], "b": 0.0},
                       {"a": [0, 1], "b": 4.0}, {"a": [0, -1], "b": 0.0}],
            "obstacles": [],
            "position_projection": [0, 1],
        },
        "partition": [
            {"id": "west", "halfspaces": [
                {"a": [1, 0], "b": 2.0}, {"a": [-1, 0], "b": 0.0},
                {"a": [0, 1], "b": 4.0}, {"a": [0, -1], "b": 0.0}]},
            {"id": "east", "halfspaces": [
                {"a": [1, 0], "b": 4.0}, {"a": [-1, 0], "b": -2.0},
                {"a": [0, 1], "b": 4.0}, {"a": [0, -1], "b": 0.0}]},
        ],
    }
    scenario = sc.load_scenario(json.dumps(doc))
    assert np.array_equal(scenario.dynamics.A, np.eye(2))
    assert np.array_equal(scenario.dynamics.B, np.eye(2))
    assert scenario.controller.num_neurons == 32
    assert len(scenario.controller.hidden_widths) == 3
    # Mean step follows x' = x + f(d(x)).
    x = np.array([1.0, 1.0])
    u, _ = sc.nn_forward(scenario.controller, x)
    stepped = sc.closed_loop_mean_step(scenario, x, scenario.partition[0])
    assert np.allclose(stepped, x + u)


def test_overlapping_cells_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["partition"].append({"id": "clone", "halfspaces":
                             [{"a": [1.0], "b": 0.5}, {"a": [-1.0], "b": 1.0}]})
    with pytest.raises(sc.ScenarioError, match="overlap"):
        sc.load_scenario(json.dumps(doc))


def test_unbounded_cell_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["partition"][0]["halfspaces"] = [{"a": [1.0], "b": 1.0}]
    with pytest.raises(sc.ScenarioError):
        sc.load_scenario(json.dumps(doc))


def test_malformed_document():
    with pytest.raises(sc.ScenarioError, match="unparseable"):
        sc.load_scenario("{not json")


def test_nn_forward_negative_preactivation():
    net = sc.ReluNetwork(layers=((np.array([[1.0]]), np.array([0.0])),
                                 (np.array([[1.0]]), np.array([0.0]))), input_dim=1)
    u, pattern = sc.nn_forward(net, np.array([-1.0]))
    assert u[0] == 0.0
    assert pattern.tolist() == [False]


def test_nn_forward_identity_passthrough():
    net = sc.ReluNetwork(layers=((np.array([[1.0]]), np.array([0.0])),
                                 (np.array([[1.0]]), np.array([0.0]))), input_dim=1)
    u, pattern = sc.nn_forward(net, np.array([2.0]))
    assert u[0] == 2.0
    assert pattern.tolist() == [True]


def reference_forward(layers, d):
    """Layer-by-layer evaluation written independently of nn_forward."""
    h = list(d)
    for idx, (W, w) in enumerate(layers):
        out = []
        for i in range(len(w)):
            acc = w[i]
            for j3 in range(len(h)):
                acc += W[i][j3] * h[j3]
            out.append(acc)
        if idx < len(layers) - 1:
            out = [v if v > 0 else 0.0 for v in out]
        h = out
    return np.array(h)


def test_nn_forward_against_reference(rng):
    layers = ((rng.normal(size=(4, 3)), rng.normal(size=4)),
              (rng.normal(size=(3, 4)), rng.normal(size=3)),
              (rng.normal(size=(2, 3)), rng.normal(size=2)))
    net = sc.ReluNetwork(layers=layers, input_dim=3)
    for _ in range(100):
        d = rng.normal(size=3)
        u, pattern = sc.nn_forward(net, d)
        assert np.allclose(u, reference_forward(layers, d), atol=1e-12)
        # Pattern consistency: the pattern-fixed affine composition
        # reproduces u exactly.
        h = d
        pos = 0
        for W, w in layers[:-1]:
            t = W @ h + w
            mask = pattern[pos:pos + len(w)]
            pos += len(w)
            h = np.where(mask, t, 0.0)
        W, w = layers[-1]
        assert np.array_equal(W @ h + w, u)


def test_nn_evaluate_preactivations(rng):
    layers = ((rng.normal(size=(4, 3)), rng.normal(size=4)),
              (rng.normal(size=(3, 4)), rng.normal(size=3)),
              (rng.normal(size=(2, 3)), rng.normal(size=2)))
    net = sc.ReluNetwork(layers=layers, input_dim=3)
    for _ in range(20):
        d = rng.normal(size=3)
        u, t = sc.nn_evaluate(net, d)
        assert t.shape == (7,)
        first = layers[0][0] @ d + layers[0][1]
        assert np.array_equal(t[:4], first)
        assert np.array_equal(t[4:], layers[1][0] @ np.maximum(first, 0.0) + layers[1][1])
        u_fwd, pattern = sc.nn_forward(net, d)
        assert np.array_equal(u, u_fwd)
        assert np.array_equal(pattern, t > 0.0)


def test_nn_forward_dimension_mismatch():
    net = sc.ReluNetwork(layers=((np.eye(2), np.zeros(2)),
                                 (np.eye(2), np.zeros(2))), input_dim=2)
    with pytest.raises(sc.ScenarioError):
        sc.nn_forward(net, np.zeros(3))
    for D in (np.zeros(2), np.zeros((4, 3))):
        with pytest.raises(sc.ScenarioError):
            sc.nn_forward_batch(net, D)


def test_batch_forward_matches_single(rng):
    net = sc.make_demo_scenario(2, [6, 4], seed=5).controller
    D = rng.uniform(0, 10, size=(50, 2))
    batch = sc.nn_forward_batch(net, D)
    for i in range(50):
        single, _ = sc.nn_forward(net, D[i])
        assert np.allclose(batch[i], single, atol=1e-12)


def test_mean_step_zero_input_matrix():
    scenario = sc.load_scenario(json.dumps(MINIMAL_DOC))
    frozen = sc.Scenario(
        dynamics=sc.SystemDynamics(A=np.eye(1), B=np.zeros((1, 1)),
                                   sigma=np.array([0.5])),
        controller=scenario.controller, workspace=scenario.workspace,
        partition=scenario.partition)
    x = np.array([0.25])
    cell = frozen.partition[0]
    assert sc.closed_loop_mean_step(frozen, x, cell) == pytest.approx(x)


def test_mean_step_constant_controller():
    layers = ((np.zeros((2, 2)), np.array([5.0, 0.0])),
              (np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([-4.0, 0.0])))
    net = sc.ReluNetwork(layers=layers, input_dim=2)  # u = (1, 0) everywhere
    ws = sc.Workspace(domain=Polytope.box([-5, -5], [5, 5]), obstacles=(),
                      position_projection=(0, 1))
    cell = sc.PartitionCell(id="all", region=Polytope.box([-5, -5], [5, 5]),
                            C=np.eye(2), c=np.zeros(2))
    scenario = sc.Scenario(dynamics=sc.SystemDynamics(A=np.eye(2), B=np.eye(2),
                                                      sigma=np.array([1.0, 1.0])),
                           controller=net, workspace=ws, partition=(cell,))
    x = np.array([1.0, 2.0])
    assert np.allclose(sc.closed_loop_mean_step(scenario, x, cell), [2.0, 2.0])


def test_mean_step_outside_cell_rejected(demo_scenario):
    with pytest.raises(sc.ScenarioError, match="outside cell"):
        sc.closed_loop_mean_step(demo_scenario, np.array([9.0, 9.0]),
                                 demo_scenario.partition[0])


def test_mean_step_deterministic(demo_scenario):
    cell = demo_scenario.partition[12]
    x = np.array([5.1, 4.9])
    a = sc.closed_loop_mean_step(demo_scenario, x, cell)
    b = sc.closed_loop_mean_step(demo_scenario, x, cell)
    assert np.array_equal(a, b)


def test_demo_single_cell():
    scenario = sc.make_demo_scenario(1, [2], seed=3)
    assert scenario.num_cells == 1
    u, _ = sc.nn_forward(scenario.controller, np.array([5.0, 5.0]))
    assert np.all(np.isfinite(u))


def test_demo_grid_tiles_exactly():
    scenario = sc.make_demo_scenario(5, [8, 8], seed=1)
    assert scenario.num_cells == 25
    # Tiling is part of load validation; also check corners directly.
    lo, hi = scenario.partition[0].region.bounding_box()
    assert np.allclose(lo, [0, 0]) and np.allclose(hi, [2, 2])
    lo, hi = scenario.partition[24].region.bounding_box()
    assert np.allclose(lo, [8, 8]) and np.allclose(hi, [10, 10])


def test_demo_net_is_zero_at_goal():
    scenario = sc.make_demo_scenario(4, [8, 8], seed=9)
    W0, w0 = scenario.controller.layers[0]
    gain = -W0[0, 0]
    umax = (w0[0] - w0[1]) / 2.0
    goal = np.array([(w0[0] - umax) / gain, (w0[2] - umax) / gain])
    u, _ = sc.nn_forward(scenario.controller, goal)
    assert np.allclose(u, 0.0, atol=1e-9)


def test_demo_rejects_tiny_first_layer():
    with pytest.raises(ValueError):
        sc.make_demo_scenario(2, [1], seed=0)


def test_roundtrip_preserves_hash(demo_scenario):
    text = sc.dump_scenario(demo_scenario)
    again = sc.load_scenario(text)
    assert sc.scenario_sha256(again) == sc.scenario_sha256(demo_scenario)


def row_major_inside(poly, points, tol=EPS_GEO):
    """Halfspace test on the (N, rows) products ``points @ A.T``."""
    return np.all(points @ poly.A.T - poly.b <= tol, axis=1)


def first_match_reference(scenario, points):
    """Per-cell first-match lookup, row-major."""
    idx = np.full(len(points), -1, dtype=int)
    for k in range(scenario.num_cells - 1, -1, -1):
        idx[row_major_inside(scenario.partition[k].region, points)] = k
    return idx


def spy_contains_many(monkeypatch):
    """Record every :meth:`Polytope.contains_many` call, the per-cell loop's test."""
    calls = []
    real = Polytope.contains_many
    monkeypatch.setattr(Polytope, "contains_many",
                        lambda self, *a, **k: calls.append(self) or real(self, *a, **k))
    return calls


def lookup_points(scenario, rng):
    """Random points over and around the domain, and points on every face
    of the box partition and at +-1 ulp, +-0.5, +-1 and +-2 EPS_GEO of it,
    with +-1 ulp around the +-EPS_GEO boundary of the membership test."""
    faces = np.unique(np.concatenate(
        [np.concatenate(cell.region.bounding_box()) for cell in scenario.partition]))
    up, down = np.inf, -np.inf
    near = [faces, np.nextafter(faces, up), np.nextafter(faces, down)]
    for shift in np.array([0.5, 1.0, 2.0]) * EPS_GEO:
        near += [faces + shift, faces - shift]
    for edge in (faces + EPS_GEO, faces - EPS_GEO):
        near += [np.nextafter(edge, up), np.nextafter(edge, down)]
    on_faces = np.concatenate(near)
    free = rng.uniform(-1.0, 11.0, size=len(on_faces))
    return np.vstack([rng.uniform(-1.0, 11.0, size=(3000, 2)),
                      np.column_stack([on_faces, free]),
                      np.column_stack([free, on_faces]),
                      np.stack(np.meshgrid(on_faces, on_faces), axis=-1).reshape(-1, 2)])


def split_partition(scenario):
    """The demo grid with its centre cell split at x = 5 into two boxes."""
    cells = list(scenario.partition)
    mid = cells[12]
    halves = [sc.PartitionCell(id=f"{mid.id}{tag}", region=Polytope.box(lo, hi),
                               C=mid.C, c=mid.c)
              for tag, lo, hi in (("a", [4.0, 4.0], [5.0, 6.0]), ("b", [5.0, 4.0], [6.0, 6.0]))]
    return sc.Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                       workspace=scenario.workspace,
                       partition=tuple(cells[:12] + halves + cells[13:]))


def test_cell_index_many_stacked_matches_first_match(demo_scenario, rng, monkeypatch):
    points = lookup_points(demo_scenario, rng)
    want = first_match_reference(demo_scenario, points)
    calls = spy_contains_many(monkeypatch)
    got = demo_scenario.cell_index_many(points)
    assert not calls  # one shared halfspace matrix: the rank table
    assert got.tolist() == want.tolist()
    assert (got == -1).any() and (got >= 0).any()


def test_cell_index_many_mixed_matrices_fall_back(demo_scenario, rng, monkeypatch):
    cells = list(demo_scenario.partition)
    first = cells[0]
    cells[0] = sc.PartitionCell(id=first.id, region=first.region.with_extra([1.0, 1.0], 5.0),
                                C=first.C, c=first.c)
    mixed = sc.Scenario(dynamics=demo_scenario.dynamics, controller=demo_scenario.controller,
                        workspace=demo_scenario.workspace, partition=tuple(cells))
    points = lookup_points(demo_scenario, rng)
    want = first_match_reference(mixed, points)
    calls = spy_contains_many(monkeypatch)
    assert mixed.cell_index_many(points).tolist() == want.tolist()
    assert calls  # the per-cell loop


@pytest.mark.parametrize("partition", ["deep3", "grid6", "split"])
def test_cell_index_many_rank_table_matches_first_match(demo_scenario, partition, rng,
                                                        monkeypatch):
    if partition == "split":
        scenario = split_partition(demo_scenario)
    else:
        grid, widths = {"deep3": (3, [16, 16, 16]), "grid6": (6, [8, 8])}[partition]
        scenario = sc.make_demo_scenario(grid, widths, seed=0)
    points = lookup_points(scenario, rng)
    want = first_match_reference(scenario, points)
    calls = spy_contains_many(monkeypatch)
    assert scenario.cell_index_many(points).tolist() == want.tolist()
    assert not calls


def test_cell_index_many_non_finite_and_empty(demo_scenario):
    """NaN and infinite coordinates fail the membership test (-1), however
    they reach the table, and an empty input gives an empty index array."""
    bad = np.array([np.nan, np.inf, -np.inf])
    inner = np.full(3, 3.0)
    points = np.vstack([np.column_stack([bad, inner]), np.column_stack([inner, bad]),
                        np.stack(np.meshgrid(bad, bad), axis=-1).reshape(-1, 2)])
    with np.errstate(invalid="ignore"):
        want = first_match_reference(demo_scenario, points)
        got = demo_scenario.cell_index_many(points)
    assert (want == -1).all()
    assert got.tolist() == want.tolist()
    empty = demo_scenario.cell_index_many(np.empty((0, 2)))
    assert empty.shape == (0,) and empty.dtype == int


def row_major_forward(net, D):
    H = D
    for W, w in net.layers[:-1]:
        H = np.maximum(H @ W.T + w, 0.0)
    W, w = net.layers[-1]
    return H @ W.T + w


@pytest.mark.parametrize("layer", ["contains_many", "cell_index_many", "in_obstacle_many",
                                   "nn_forward_batch"])
def test_batch_layers_accept_either_layout(demo_scenario, rng, layer):
    """Each batch layer equals its row-major reference on C-ordered points,
    on a transposed view of an (n, N) array, with NaN and +-inf rows, and on
    an empty batch.  Points on a 1/8 grid (many on faces) and a net with
    integer weights keep every sum exact, so summation order cannot matter."""
    bad = np.array([np.nan, np.inf, -np.inf])
    inner = np.full(3, 3.0)
    points = np.vstack([rng.integers(-8, 88, size=(400, 2)) / 8.0,
                        np.column_stack([bad, inner]), np.column_stack([inner, bad]),
                        np.stack(np.meshgrid(bad, bad), axis=-1).reshape(-1, 2)])
    tri = Polytope(np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), np.array([-1.0, -2.0, 9.0]))
    ws = demo_scenario.workspace
    net = sc.ReluNetwork(layers=tuple((rng.integers(-3, 4, size=(rows, cols)).astype(float),
                                       rng.integers(-3, 4, size=rows).astype(float))
                                      for rows, cols in ((6, 2), (5, 6), (2, 5))), input_dim=2)
    got, want = {
        "contains_many": (tri.contains_many, lambda p: row_major_inside(tri, p)),
        "cell_index_many": (demo_scenario.cell_index_many,
                            lambda p: first_match_reference(demo_scenario, p)),
        "in_obstacle_many": (ws.in_obstacle_many,
                             lambda p: np.any([row_major_inside(obs, p[:, [0, 1]], tol=0.0)
                                               for obs in ws.obstacles], axis=0)),
        "nn_forward_batch": (lambda p: sc.nn_forward_batch(net, p),
                             lambda p: row_major_forward(net, p)),
    }[layer]
    with np.errstate(invalid="ignore"):
        expect = want(points)
        for batch in (points, np.ascontiguousarray(points.T).T, points[:0]):
            result = got(batch)
            assert result.shape == expect[:len(batch)].shape
            assert np.array_equal(result, expect[:len(batch)], equal_nan=True)
    assert len(np.unique(expect)) > 1


def box_grid(scenario, grid):
    """``scenario`` with its partition replaced by a ``grid x grid`` box grid."""
    edges = np.linspace(0.0, 10.0, grid + 1)
    cells = tuple(sc.PartitionCell(id=f"c{i}_{j}",
                                   region=Polytope.box([edges[i], edges[j]],
                                                       [edges[i + 1], edges[j + 1]]),
                                   C=np.eye(2), c=np.zeros(2))
                  for i in range(grid) for j in range(grid))
    return sc.Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                       workspace=scenario.workspace, partition=cells)


def test_cell_index_many_32x32_grid_stays_on_the_table(demo_scenario, rng, monkeypatch):
    """A 32x32 grid needs a 70x70 table: 2 cuts per cell edge, 2 per domain
    edge and 2 per obstacle edge on each axis, plus the NaN rank."""
    fine = box_grid(demo_scenario, 32)
    points = rng.uniform(-1.0, 11.0, size=(500, 2))
    want = first_match_reference(fine, points)
    calls = spy_contains_many(monkeypatch)
    assert fine.cell_index_many(points).tolist() == want.tolist()
    assert not calls
    assert len(fine._axis_table[2]) == 70 * 70


def test_cell_index_many_over_the_cap_uses_the_loop(demo_scenario, rng, monkeypatch):
    """A table above the cap (demo5's is 16x16) gives way to the per-cell loop."""
    monkeypatch.setattr(sc, "_RANK_TABLE_CAP", 16 * 16 - 1)
    capped = box_grid(demo_scenario, 5)
    points = lookup_points(capped, rng)
    want = first_match_reference(capped, points)
    calls = spy_contains_many(monkeypatch)
    assert capped.cell_index_many(points).tolist() == want.tolist()
    assert calls
    assert capped._axis_table is None


@pytest.mark.parametrize("tol", [0.0, EPS_GEO, STRICT_MARGIN])
def test_pass_threshold_is_the_exact_boundary(rng, tol):
    """The test ``a - u <= tol`` holds at the threshold and fails one ulp
    above, also for offsets near the tolerance, where ``u + tol`` can round
    to either side of the boundary."""
    tiny = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-12.0, -6.0, 2000)
    offsets = np.concatenate([[0.0, -0.0, 1.0, -2.5, 1e-300], rng.uniform(-20.0, 20.0, 2000),
                              rng.integers(-80, 80, 200) / 8.0, tiny])
    for u in offsets.tolist():
        t = sc._pass_threshold(u, tol)
        assert t - u <= tol < np.nextafter(t, np.inf) - u


def unsafe_reference(scenario, points):
    """No cell, a domain row violated by more than STRICT_MARGIN, or a
    position in a closed obstacle; row-major."""
    ws = scenario.workspace
    bad = first_match_reference(scenario, points) < 0
    bad |= ~row_major_inside(ws.domain, points, tol=STRICT_MARGIN)
    for obs in ws.obstacles:
        bad |= row_major_inside(obs, points[:, list(ws.position_projection)], tol=0.0)
    return bad


def classifier_points(scenario, rng):
    """Every offset of a cell, domain or obstacle row, its nextafter
    neighbours, the offsets +-EPS_GEO and +-STRICT_MARGIN with their
    nextafter neighbours, NaN and +-inf, crossed with each other and with
    random coordinates, and random points over and around the domain."""
    ws = scenario.workspace
    polys = [cell.region for cell in scenario.partition] + [ws.domain] + ws.lifted_obstacles()
    faces = np.unique(np.concatenate([np.abs(poly.b) for poly in polys]
                                     + [np.concatenate(poly.bounding_box()) for poly in polys]))
    up, down = np.inf, -np.inf
    near = [faces, np.nextafter(faces, up), np.nextafter(faces, down)]
    for tol in (EPS_GEO, STRICT_MARGIN):
        for edge in (faces + tol, faces - tol):
            near += [edge, np.nextafter(edge, up), np.nextafter(edge, down)]
    special = np.concatenate(near + [[np.nan, np.inf, -np.inf]])
    free = rng.uniform(-1.0, 11.0, size=len(special))
    return np.vstack([rng.uniform(-1.0, 11.0, size=(2000, 2)),
                      np.column_stack([special, free]), np.column_stack([free, special]),
                      np.stack(np.meshgrid(special, special), axis=-1).reshape(-1, 2)])


def two_obstacles(scenario):
    """``scenario`` in a workspace with two obstacles, one of them flush with a cell face."""
    ws = sc.Workspace(domain=scenario.workspace.domain,
                      obstacles=(Polytope.box([6.5, 2.5], [7.5, 3.5]),
                                 Polytope.box([2.0, 6.25], [3.125, 8.0])),
                      position_projection=(0, 1))
    return sc.Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                       workspace=ws, partition=scenario.partition)


def oblique_refinement(scenario):
    """The demo grid with its centre cell cut along x + y = 10 (not boxes)."""
    cells = list(scenario.partition)
    mid = cells[12]
    halves = [sc.PartitionCell(id=f"{mid.id}{tag}", region=half, C=mid.C, c=mid.c)
              for tag, half in zip("ab", split(mid.region, Hyperplane([1.0, 1.0], 10.0)))]
    return sc.Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                       workspace=scenario.workspace,
                       partition=tuple(cells[:12] + halves + cells[13:]))


@pytest.mark.parametrize("case", ["demo5", "deep3", "grid6", "split", "two_obstacles",
                                  "oblique"])
def test_classify_many_matches_row_major_rules(demo_scenario, rng, monkeypatch, case):
    """Cell index and unsafe flag equal the per-row tests bit for bit on
    points at and around every test's boundary; the oblique refinement
    takes the per-cell loop, every other case the per-axis table."""
    obstacle = [DEMO_OBSTACLE]
    scenario = {
        "demo5": lambda: demo_scenario,
        "deep3": lambda: sc.make_demo_scenario(3, [16, 16, 16], seed=0, obstacles=obstacle),
        "grid6": lambda: sc.make_demo_scenario(6, [8, 8], seed=0, obstacles=obstacle),
        "split": lambda: split_partition(demo_scenario),
        "two_obstacles": lambda: two_obstacles(demo_scenario),
        "oblique": lambda: oblique_refinement(demo_scenario),
    }[case]()
    points = classifier_points(scenario, rng)
    with np.errstate(invalid="ignore"):
        want_cell = first_match_reference(scenario, points)
        want_unsafe = unsafe_reference(scenario, points)
        calls = spy_contains_many(monkeypatch)
        for batch in (points, np.ascontiguousarray(points.T).T):
            cell_idx, unsafe = scenario.classify_many(batch)
            assert cell_idx.tolist() == want_cell.tolist()
            assert unsafe.tolist() == want_unsafe.tolist()
    assert bool(calls) == (case == "oblique")
    assert (scenario._axis_table is None) == (case == "oblique")
    assert want_unsafe.any() and not want_unsafe.all()
    assert len(np.unique(want_cell[~want_unsafe])) == scenario.num_cells


def test_thin_hole_between_grid_samples_rejected(demo_scenario):
    """Cell 0 shrunk to [0, 1.95] x [0, 2] leaves a 0.05-wide hole that no
    point of the 40-per-axis coverage grid hits; the volume bound finds it."""
    cells = list(demo_scenario.partition)
    first = cells[0]
    cells[0] = sc.PartitionCell(id=first.id, region=Polytope.box([0.0, 0.0], [1.95, 2.0]),
                                C=first.C, c=first.c)
    holed = sc.Scenario(dynamics=demo_scenario.dynamics, controller=demo_scenario.controller,
                        workspace=demo_scenario.workspace, partition=tuple(cells))
    with pytest.raises(sc.ScenarioError, match="does not cover the domain"):
        sc.validate_scenario(holed)
