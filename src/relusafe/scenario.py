"""Problem instances: dynamics, ReLU controller, workspace, partition.

A :class:`Scenario` is a full verification problem: a discrete-time linear
system ``x' = A x + B u + w`` with diagonal Gaussian noise, a feed-forward
ReLU controller fed by a per-cell affine measurement ``d(x) = C x + c``, a
polytopic workspace with obstacles, and a convex partition of the domain.
Scenarios are immutable after load and safe to share across workers.

The on-disk form is a single self-contained JSON document (see
:func:`load_scenario`); all reals are decimal and parsed as 64-bit floats.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (EPS_GEO, STRICT_MARGIN, GeometryError, Polytope, box_pairs,
                       is_empty_intersection, outside_facets)

SCENARIO_FORMAT = "relusafe-scenario-v1"
# Most entries of a cell lookup table (8 MB); larger partitions loop over their cells.
_RANK_TABLE_CAP = 1 << 20
# Points per axis of the grid on which validation checks coverage of the domain.
COVERAGE_SAMPLES = 40


class ScenarioError(Exception):
    """Malformed or internally inconsistent scenario document."""


@dataclass(frozen=True, eq=False)
class SystemDynamics:
    """``x' = A x + B u + w`` with ``w ~ N(0, diag(sigma^2))`` per axis."""

    A: np.ndarray
    B: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        if A.shape[0] != A.shape[1] or A.shape[0] < 1:
            raise ScenarioError("dynamics: A must be square, n >= 1")
        n = A.shape[0]
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if B.shape[0] != n or B.shape[1] < 1:
            raise ScenarioError("dynamics: B must be n x m with m >= 1")
        sigma = np.asarray(self.sigma, dtype=float).reshape(-1)
        if sigma.shape != (n,):
            raise ScenarioError("dynamics: sigma must have one entry per state axis")
        if np.any(sigma <= 0.0) or not np.all(np.isfinite(sigma)):
            raise ScenarioError("dynamics: sigma must be positive")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(B))):
            raise ScenarioError("dynamics: A, B must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Fully connected ReLU net: ReLU after every layer except the last.

    ``layers`` holds (W, w) pairs; the final pair is the affine output layer,
    so a net with L hidden layers has L + 1 entries.
    """

    layers: tuple
    input_dim: int

    def __post_init__(self):
        if len(self.layers) < 2:
            raise ScenarioError("controller: need at least one hidden layer plus output")
        if self.input_dim < 1:
            raise ScenarioError("controller: input_dim must be positive")
        prev = self.input_dim
        fixed = []
        for k, (W, w) in enumerate(self.layers):
            W = np.atleast_2d(np.asarray(W, dtype=float))
            w = np.asarray(w, dtype=float).reshape(-1)
            if W.shape[1] != prev:
                raise ScenarioError(
                    f"controller layer {k}: weight columns {W.shape[1]} != previous width {prev}")
            if w.shape != (W.shape[0],):
                raise ScenarioError(f"controller layer {k}: bias length mismatch")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(w))):
                raise ScenarioError(f"controller layer {k}: non-finite weights")
            fixed.append((W, w))
            prev = W.shape[0]
        object.__setattr__(self, "layers", tuple(fixed))

    @property
    def output_dim(self):
        return self.layers[-1][0].shape[0]

    @property
    def hidden_widths(self):
        return tuple(W.shape[0] for W, _ in self.layers[:-1])

    @property
    def num_neurons(self):
        return int(sum(self.hidden_widths))


def nn_evaluate(net, d):
    """Evaluate the network; returns (u, t).

    ``t`` concatenates the hidden-layer pre-activations in layer-major order.
    """
    d = np.asarray(d, dtype=float).reshape(-1)
    if d.shape != (net.input_dim,):
        raise ScenarioError(f"network input length {d.shape[0]} != {net.input_dim}")
    h = d
    pre = []
    for W, w in net.layers[:-1]:
        t = W @ h + w
        pre.append(t)
        h = np.maximum(t, 0.0)
    W, w = net.layers[-1]
    return W @ h + w, np.concatenate(pre)


def nn_forward(net, d):
    """Evaluate the network; returns (u, pattern).

    ``pattern`` concatenates the per-neuron strict activation flags
    (pre-activation > 0) over the hidden layers in layer-major order.
    Ties at exactly zero count as inactive.
    """
    u, t = nn_evaluate(net, d)
    return u, t > 0.0


def nn_forward_batch(net, D):
    """Vectorized forward pass for an (N, input_dim) batch; returns (N, m)."""
    H = np.asarray(D, dtype=float)
    for W, w in net.layers[:-1]:
        H = np.maximum(H @ W.T + w, 0.0)
    W, w = net.layers[-1]
    return H @ W.T + w


@dataclass(frozen=True, eq=False)
class Workspace:
    """Polytopic state domain, obstacles in position space, and the projection."""

    domain: Polytope
    obstacles: tuple
    position_projection: tuple

    def __post_init__(self):
        obstacles = tuple(self.obstacles)
        proj = tuple(int(i) for i in self.position_projection)
        n = self.domain.dim
        if len(proj) < 1 or len(set(proj)) != len(proj) or any(i < 0 or i >= n for i in proj):
            raise ScenarioError("workspace: position_projection must select distinct state axes")
        lo, hi = self.domain.bounding_box()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ScenarioError("workspace: domain must be bounded")
        for k, obs in enumerate(obstacles):
            if obs.dim != len(proj):
                raise ScenarioError(f"workspace: obstacle {k} dimension != position dimension")
            if obs.is_empty():
                raise ScenarioError(f"workspace: obstacle {k} is empty")
        object.__setattr__(self, "obstacles", obstacles)
        object.__setattr__(self, "position_projection", proj)

    def lifted_obstacles(self):
        """Obstacles as state-space polytopes through the position projection.

        The polytopes are built once per workspace, so their memoized data
        (bounding and axis boxes) is shared by every caller.
        """
        return list(self._lifted)

    @cached_property
    def _lifted(self):
        n = self.domain.dim
        out = []
        for obs in self.obstacles:
            A = np.zeros((obs.num_halfspaces, n))
            for j, axis in enumerate(self.position_projection):
                A[:, axis] = obs.A[:, j]
            out.append(Polytope(A, obs.b.copy()))
        return tuple(out)

    def project(self, x):
        x = np.asarray(x, dtype=float)
        return x[..., list(self.position_projection)]

    def in_obstacle_many(self, points):
        """Mask of the (N, n) states whose position lies in some (closed) obstacle."""
        pos = self.project(points)
        inside = np.zeros(len(pos), dtype=bool)
        for obs in self.obstacles:
            inside |= obs.contains_many(pos, tol=0.0)
        return inside


@dataclass(frozen=True, eq=False)
class PartitionCell:
    """A convex partition piece with its affine measurement map d(x) = C x + c."""

    id: str
    region: Polytope
    C: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        C = np.atleast_2d(np.asarray(self.C, dtype=float))
        c = np.asarray(self.c, dtype=float).reshape(-1)
        if C.shape[1] != self.region.dim:
            raise ScenarioError(f"cell {self.id}: measurement C column count != state dim")
        if c.shape != (C.shape[0],):
            raise ScenarioError(f"cell {self.id}: measurement offset length mismatch")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "c", c)

    def measure(self, x):
        return self.C @ np.asarray(x, dtype=float) + self.c


@dataclass(frozen=True, eq=False)
class Scenario:
    dynamics: SystemDynamics
    controller: ReluNetwork
    workspace: Workspace
    partition: tuple

    def __post_init__(self):
        object.__setattr__(self, "partition", tuple(self.partition))

    def cell(self, index):
        return self.partition[index]

    @cached_property
    def _rank_table(self):
        """``(A, thresholds, strides, table)`` for the rank-table lookup, else None.

        Requires every cell region ``k`` to be ``A x <= b_k`` for one matrix
        ``A``.  ``thresholds[r]`` holds, for the distinct values of
        ``b_k[r]`` in ascending order, the largest ``a`` that passes the
        membership test against each.  A point with ``a = A[r] . x`` fails
        exactly the offsets whose threshold lies below ``a``, a prefix of
        them, so cell ``k`` holds it in row ``r`` exactly when the rank of
        ``b_k[r]`` is at least that count, and the first cell holding it is
        ``table[counts @ strides]``.  None also when the table would have
        more than ``_RANK_TABLE_CAP`` entries.
        """
        if not self.partition:
            return None
        A = self.partition[0].region.A
        if not all(np.array_equal(cell.region.A, A) for cell in self.partition):
            return None
        b = np.stack([cell.region.b for cell in self.partition])
        thresholds = []
        ranks = np.empty(b.shape, dtype=int)
        for r in range(A.shape[0]):
            # Sorted in Python: the few offsets do not justify paging in
            # NumPy's sort kernels, which adds a quarter megabyte of memory.
            values = sorted(set(b[:, r].tolist()))
            thresholds.append(np.array([_pass_threshold(v) for v in values]))
            ranks[:, r] = np.searchsorted(values, b[:, r])
        shape = tuple(len(t) + 1 for t in thresholds)
        if math.prod(shape) > _RANK_TABLE_CAP:
            return None
        table = np.full(shape, -1, dtype=int)
        # Each cell holds a box of count tuples; the lowest index is written last.
        for k in range(len(b) - 1, -1, -1):
            table[tuple(slice(0, j + 1) for j in ranks[k])] = k
        return A, thresholds, np.array(table.strides) // table.itemsize, table.ravel()

    @property
    def num_cells(self):
        return len(self.partition)

    def cell_index_many(self, points):
        """Index of the first cell containing each of the (N, n) points, -1 if none.

        Membership is :meth:`Polytope.contains_many`'s test
        ``a - b <= EPS_GEO`` per halfspace row, so a point on a shared face
        belongs to the lower-indexed cell, and a NaN coordinate or a point
        outside every cell gives -1.  When every cell has the same halfspace
        matrix (a grid of boxes), the points are multiplied by it once; per
        row, a binary search against exact per-offset thresholds of that
        test counts the cells' distinct offsets a point fails, and a table
        over those counts gives the first matching cell.  The indices are
        the per-cell loop's, with temporaries of O(N x rows).  Other
        partitions, and those whose table would be too large, loop over the
        cells.
        """
        points = np.asarray(points, dtype=float)
        if self._rank_table is not None:
            A, thresholds, strides, table = self._rank_table
            products = points @ A.T
            flat = np.zeros(len(points), dtype=int)
            for r, t in enumerate(thresholds):
                # Offsets whose threshold lies below the point fail it; NaN fails all.
                flat += np.searchsorted(t, products[:, r]) * strides[r]
            return table[flat]
        idx = np.full(len(points), -1, dtype=int)
        rest = np.arange(len(points))
        for k, cell in enumerate(self.partition):
            inside = cell.region.contains_many(points[rest])
            idx[rest[inside]] = k
            rest = rest[~inside]
            if not len(rest):
                break
        return idx


def _pass_threshold(u):
    """Largest ``a`` with ``a - u <= EPS_GEO`` in floating point.

    ``a - u`` rounds monotonically in ``a``, so the test holds exactly for
    ``a`` up to the threshold and fails above it (and for NaN).  Rounding
    puts ``u + EPS_GEO`` next to the threshold, and the test itself moves
    it onto the exact boundary.
    """
    t = u + EPS_GEO
    while t - u > EPS_GEO:
        t = math.nextafter(t, -math.inf)
    while math.nextafter(t, math.inf) - u <= EPS_GEO:
        t = math.nextafter(t, math.inf)
    return t


def closed_loop_mean_step(scenario, X, cell, tol=1e-7):
    """Noise-free successor of the closed loop: ``A X + B f(C X + c)``.

    ``X`` must lie in the cell whose measurement map is applied
    (tolerance-checked); deterministic for identical inputs.
    """
    X = np.asarray(X, dtype=float).reshape(-1)
    if not cell.region.contains(X, tol=tol):
        raise ScenarioError(f"state {X} outside cell {cell.id}")
    u, _ = nn_forward(scenario.controller, cell.measure(X))
    dyn = scenario.dynamics
    return dyn.A @ X + dyn.B @ u


def validate_scenario(scenario):
    """Check the cross-cutting scenario invariants, raising on the first failure.

    Pairwise cell disjointness is decided on regions shrunk by the strict
    margin, containment of every cell in the domain against the domain's
    margin-shifted outsides; :func:`relusafe.geometry.box_pairs` decides
    the axis-aligned pairs, and the rest go to emptiness and support LPs.
    Full coverage of the domain is checked on a deterministic grid of
    sample points (an exact polyhedral union test would need region
    differencing, which this package does not carry).  When the domain and
    every cell are axis-aligned, the covered volume must also reach the
    domain's up to a relative 1e-9, by the Bonferroni lower bound
    ``sum vol(cell & domain) - sum over pairs vol(cell_i & cell_j)``, which
    catches a hole thinner than the sample grid.
    """
    dyn = scenario.dynamics
    net = scenario.controller
    if net.output_dim != dyn.m:
        raise ScenarioError("controller output dimension != input matrix columns")
    if scenario.workspace.domain.dim != dyn.n:
        raise ScenarioError("workspace domain dimension != state dimension")
    ids = set()
    for cell in scenario.partition:
        if cell.id in ids:
            raise ScenarioError(f"duplicate cell id {cell.id!r}")
        ids.add(cell.id)
        if cell.region.dim != dyn.n:
            raise ScenarioError(f"cell {cell.id}: region dimension != state dimension")
        if cell.C.shape[0] != net.input_dim:
            raise ScenarioError(f"cell {cell.id}: measurement dimension != controller input")
        lo, hi = cell.region.bounding_box()
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ScenarioError(f"cell {cell.id}: region unbounded")

    cells = scenario.partition
    regions = [cell.region for cell in cells]
    dom = scenario.workspace.domain
    inside, leaves, _ = box_pairs(regions, outside_facets(dom, STRICT_MARGIN))
    for i, f in zip(*np.nonzero(~(inside | leaves))):
        leaves[i, f] = regions[i].extreme(dom.A[f], "max") > dom.b[f] + STRICT_MARGIN
    shrunk = [Polytope(r.A, r.b - STRICT_MARGIN) for r in regions]
    apart, overlap, _ = box_pairs(shrunk, shrunk)
    overlap = np.triu(overlap, 1)
    for i, j in zip(*np.nonzero(np.triu(~(apart | overlap), 1))):
        overlap[i, j] = not is_empty_intersection(shrunk[i], shrunk[j])
    bad = np.nonzero(leaves.any(axis=1) | overlap.any(axis=1))[0]
    if len(bad):
        i = bad[0]
        if leaves[i].any():
            raise ScenarioError(f"cell {cells[i].id}: leaves the domain")
        j = int(np.argmax(overlap[i]))
        raise ScenarioError(f"cells {cells[i].id} and {cells[j].id} overlap")

    lo, hi = dom.bounding_box()
    axes = [np.linspace(lo[d], hi[d], COVERAGE_SAMPLES) for d in range(dyn.n)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, dyn.n)
    in_domain = dom.contains_many(mesh, tol=-1e-6)
    pts = mesh[in_domain]
    covered = np.zeros(len(pts), dtype=bool)
    for cell in cells:
        covered |= cell.region.contains_many(pts, tol=1e-7)
    if not np.all(covered):
        missing = pts[~covered][0]
        raise ScenarioError(f"partition does not cover the domain near {missing}")

    if dom.axis_bounds() is not None and all(r.axis_bounds() is not None for r in regions):
        def volume(widths):
            return np.prod(np.maximum(widths, 0.0), axis=-1)

        total = float(np.prod(hi - lo))
        area = volume(box_pairs(regions, [dom])[2]).sum()
        area -= np.triu(volume(box_pairs(regions, regions)[2]), 1).sum()
        if area < total * (1.0 - 1e-9):
            raise ScenarioError(f"partition does not cover the domain: its cells are proven "
                                f"to cover only {area!r} of the volume {total!r}")
    return scenario


# --------------------------------------------------------------------------
# Serialization


def _poly_to_doc(poly):
    return [{"a": row.tolist(), "b": float(off)} for row, off in zip(poly.A, poly.b)]


def _poly_from_doc(doc, what):
    try:
        A = [np.asarray(h["a"], dtype=float) for h in doc]
        b = [float(h["b"]) for h in doc]
        return Polytope(np.array(A), np.array(b))
    except (KeyError, TypeError, GeometryError) as exc:
        raise ScenarioError(f"{what}: bad halfspace list ({exc})") from exc


def dump_scenario(scenario):
    """Serialize to the canonical JSON document (the hashing authority)."""
    doc = {
        "format": SCENARIO_FORMAT,
        "dynamics": {
            "A": scenario.dynamics.A.tolist(),
            "B": scenario.dynamics.B.tolist(),
            "sigma": scenario.dynamics.sigma.tolist(),
            "noise_kind": "stddev",
        },
        "controller": {
            "input_dim": scenario.controller.input_dim,
            "layers": [{"W": W.tolist(), "w": w.tolist()} for W, w in scenario.controller.layers],
        },
        "workspace": {
            "domain": _poly_to_doc(scenario.workspace.domain),
            "obstacles": [_poly_to_doc(o) for o in scenario.workspace.obstacles],
            "position_projection": list(scenario.workspace.position_projection),
        },
        "partition": [
            {
                "id": cell.id,
                "halfspaces": _poly_to_doc(cell.region),
                "C": cell.C.tolist(),
                "c": cell.c.tolist(),
            }
            for cell in scenario.partition
        ],
    }
    return json.dumps(doc, indent=1)


def scenario_sha256(scenario):
    return hashlib.sha256(dump_scenario(scenario).encode()).hexdigest()


def load_scenario(text, validate=True):
    """Parse and validate a scenario document.

    Raises :class:`ScenarioError` naming the offending element on malformed
    documents, dimension mismatches, overlapping or unbounded cells.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"unparseable scenario document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    if doc.get("format") != SCENARIO_FORMAT:
        raise ScenarioError(f"unknown scenario format {doc.get('format')!r}")
    for section in ("dynamics", "controller", "workspace", "partition"):
        if section not in doc:
            raise ScenarioError(f"missing section {section!r}")

    dyn_doc = doc["dynamics"]
    if dyn_doc.get("noise_kind") != "stddev":
        raise ScenarioError("dynamics: noise_kind must be 'stddev'")
    A = np.atleast_2d(np.asarray(dyn_doc.get("A"), dtype=float))
    n = A.shape[0]
    B = np.atleast_2d(np.asarray(dyn_doc.get("B"), dtype=float))
    sigma = np.asarray(dyn_doc.get("sigma"), dtype=float)
    if np.any(sigma <= 0.0):
        raise ScenarioError("dynamics: sigma must be positive")
    dynamics = SystemDynamics(A=A, B=B, sigma=sigma)

    ctrl_doc = doc["controller"]
    layers = []
    for k, layer in enumerate(ctrl_doc.get("layers", [])):
        try:
            layers.append((np.atleast_2d(np.asarray(layer["W"], dtype=float)),
                           np.asarray(layer["w"], dtype=float)))
        except (KeyError, TypeError) as exc:
            raise ScenarioError(f"controller layer {k}: {exc}") from exc
    controller = ReluNetwork(layers=tuple(layers), input_dim=int(ctrl_doc.get("input_dim", 0)))

    ws_doc = doc["workspace"]
    workspace = Workspace(
        domain=_poly_from_doc(ws_doc.get("domain", []), "workspace domain"),
        obstacles=tuple(_poly_from_doc(o, f"obstacle {k}")
                        for k, o in enumerate(ws_doc.get("obstacles", []))),
        position_projection=tuple(ws_doc.get("position_projection", range(n))),
    )

    cells = []
    for k, cd in enumerate(doc["partition"]):
        cid = str(cd.get("id", f"c{k}"))
        region = _poly_from_doc(cd.get("halfspaces", []), f"cell {cid}")
        if "C" in cd:
            C = np.atleast_2d(np.asarray(cd["C"], dtype=float))
            c = np.asarray(cd.get("c", np.zeros(C.shape[0])), dtype=float)
        else:
            C = np.eye(n)
            c = np.zeros(n)
        cells.append(PartitionCell(id=cid, region=region, C=C, c=c))

    scenario = Scenario(dynamics=dynamics, controller=controller,
                        workspace=workspace, partition=tuple(cells))
    if validate:
        validate_scenario(scenario)
    return scenario


# --------------------------------------------------------------------------
# Demo fixture generator


def make_demo_scenario(grid, widths, seed=0, obstacles=None, size=10.0):
    """A 2-D single-integrator scenario on a ``grid x grid`` box partition.

    The controller is a hand-built ReLU net implementing the saturated
    go-to-goal law ``u_d = clamp(gain * (goal_d - x_d), +-umax)`` exactly
    (piecewise-linear construction, no training):  each axis uses the neuron
    pair relu(v + umax), relu(v - umax) in the first hidden layer, identity
    pass-through channels afterwards, and the output combination
    ``u = relu(v + umax) - relu(v - umax) - umax``.  If the first layer has
    room for only one neuron per axis the law degrades to the lower clamp
    ``max(v, -umax)``, which is still zero at the goal and bounded on the
    domain.  Extra width is filled with inert neurons.

    ``seed`` jitters goal, gain, control limit and noise level so distinct
    seeds give distinct but equally well-behaved instances.  Measurements
    are the identity map on every cell.  ``obstacles`` is an optional list
    of ``((x0, y0), (x1, y1))`` boxes.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    widths = [int(w) for w in widths]
    if any(w < 1 for w in widths):
        raise ValueError("layer widths must be positive")
    m = 2
    rng = np.random.Generator(np.random.Philox(key=np.array([seed & (2**64 - 1), 0],
                                                            dtype=np.uint64)))
    goal = size / 2.0 + rng.uniform(-size / 10.0, size / 10.0, size=2)
    gain = float(rng.uniform(0.45, 0.6))
    umax = float(rng.uniform(0.9, 1.1))
    sigma_val = float(rng.uniform(0.22, 0.32))

    if widths[0] >= 2 * m:
        used = 2 * m  # exact clamp: one (v+umax, v-umax) pair per axis
    elif widths[0] >= m:
        used = m  # lower clamp only
    else:
        raise ValueError(f"first layer width {widths[0]} below the {m} needed for 2-D control")
    if any(w < used for w in widths[1:]):
        raise ValueError(f"every layer needs width >= {used} for pass-through")

    W0 = np.zeros((widths[0], 2))
    w0 = np.zeros(widths[0])
    per_axis = used // m
    for d in range(m):
        for k in range(per_axis):
            row = d * per_axis + k
            W0[row, d] = -gain
            w0[row] = gain * goal[d] + (umax if k == 0 else -umax)
    layers = [(W0, w0)]
    prev = widths[0]
    for width in widths[1:]:
        W = np.zeros((width, prev))
        W[:used, :used] = np.eye(used)
        layers.append((W, np.zeros(width)))
        prev = width
    Wout = np.zeros((m, prev))
    wout = np.zeros(m)
    for d in range(m):
        Wout[d, d * per_axis] = 1.0
        if per_axis == 2:
            Wout[d, d * per_axis + 1] = -1.0
        wout[d] = -umax
    layers.append((Wout, wout))

    controller = ReluNetwork(layers=tuple(layers), input_dim=2)
    dynamics = SystemDynamics(A=np.eye(2), B=np.eye(2),
                              sigma=np.array([sigma_val, sigma_val]))

    obstacle_polys = []
    for (p0, p1) in (obstacles or []):
        lo = np.minimum(p0, p1).astype(float)
        hi = np.maximum(p0, p1).astype(float)
        obstacle_polys.append(Polytope.box(lo, hi))
    workspace = Workspace(domain=Polytope.box([0.0, 0.0], [size, size]),
                          obstacles=tuple(obstacle_polys),
                          position_projection=(0, 1))

    step = size / grid
    cells = []
    for i in range(grid):
        for j in range(grid):
            lo = np.array([i * step, j * step])
            hi = np.array([(i + 1) * step, (j + 1) * step])
            cells.append(PartitionCell(id=f"c{i * grid + j}",
                                       region=Polytope.box(lo, hi),
                                       C=np.eye(2), c=np.zeros(2)))

    scenario = Scenario(dynamics=dynamics, controller=controller,
                        workspace=workspace, partition=tuple(cells))
    return validate_scenario(scenario)
