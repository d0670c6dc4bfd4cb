"""Geometry: quantile accuracy, augmented sets against Monte-Carlo
probabilities, emptiness, splitting, Chebyshev data, unsafe overlap."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from relusafe import geometry, linprog
from relusafe.geometry import (Hyperplane, Polytope, augmented_set,
                               cell_unsafe_overlap, chebyshev_center,
                               gaussian_quantile, is_empty_intersection, split)
from relusafe.montecarlo import stream


def normal_cdf_by_quadrature(z, steps=200001):
    """Independent Phi via Simpson integration of the density on [-12, z]."""
    xs = np.linspace(-12.0, z, steps)
    density = np.exp(-0.5 * xs ** 2) / math.sqrt(2.0 * math.pi)
    h = xs[1] - xs[0]
    weights = np.ones(steps)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.sum(weights * density) * h / 3.0)


def test_quantile_median():
    assert gaussian_quantile(0.5) == 0.0


def test_quantile_inverts_quadrature_cdf():
    phi_one = normal_cdf_by_quadrature(1.0)
    assert gaussian_quantile(phi_one) == pytest.approx(1.0, abs=1e-6)
    assert gaussian_quantile(0.8413447) == pytest.approx(1.0, abs=1e-6)


def test_quantile_antisymmetry():
    for q in (0.01, 0.2, 0.37, 0.49):
        assert gaussian_quantile(q) == pytest.approx(-gaussian_quantile(1.0 - q), abs=1e-12)
    # Next to one, 1 - q is exact and the upper tail is the lower one negated.
    for q in (2.0 ** -53, 100 * 2.0 ** -53):
        assert gaussian_quantile(1.0 - q) == -gaussian_quantile(q)


def test_quantile_matches_scipy_everywhere():
    qs = np.concatenate([np.linspace(1e-6, 1 - 1e-6, 997),
                         [1e-9, 1e-12, 1 - 1e-9, 1 - 100 * 2.0 ** -53, 1 - 2.0 ** -53]])
    for q in qs:
        assert abs(gaussian_quantile(float(q)) - ndtri(q)) <= 1e-9


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1])
def test_quantile_domain(bad):
    with pytest.raises(ValueError):
        gaussian_quantile(bad)


def test_augmented_halfspace_one_dimensional():
    phi_one = normal_cdf_by_quadrature(1.0)
    poly = Polytope([[1.0, 0.0]], [0.0])
    aug = augmented_set(poly, phi_one, [1.0, 1.0])
    assert aug.b[0] == pytest.approx(-1.0, abs=1e-9)


def test_augmented_identity_at_half():
    poly = Polytope.box([0, 0], [2, 3])
    aug = augmented_set(poly, 0.5, [0.7, 0.4])
    assert np.allclose(aug.b, poly.b)


def test_augmented_grows_below_half(rng):
    for _ in range(20):
        poly = Polytope(rng.normal(size=(6, 2)), rng.normal(size=6))
        sigma = rng.uniform(0.1, 2.0, size=2)
        aug = augmented_set(poly, 0.2, sigma)
        assert np.all(aug.b >= poly.b)


def test_augmented_monotone_in_q(rng):
    for _ in range(20):
        poly = Polytope(rng.normal(size=(5, 3)), rng.normal(size=5))
        sigma = rng.uniform(0.1, 1.5, size=3)
        lo, hi = sorted(rng.uniform(0.05, 0.95, size=2))
        if hi - lo < 1e-3:
            continue
        aug_lo = augmented_set(poly, lo, sigma)
        aug_hi = augmented_set(poly, hi, sigma)
        assert np.all(aug_hi.b <= aug_lo.b + 1e-12)


def test_chance_constraint_soundness_by_monte_carlo():
    """A mean tight at one face of the augmented set satisfies that face
    with probability q, within four binomial deviations at 1e5 draws."""
    sigma = np.array([0.8, 0.5])
    poly = Polytope.box([0.0, 0.0], [50.0, 50.0])  # far faces irrelevant
    for q in (0.25, 0.6, 0.9):
        aug = augmented_set(poly, q, sigma)
        # Tight at face x0 <= 50: mean sits exactly on the shifted boundary.
        mean = np.array([aug.b[0], 25.0])
        draws = mean + stream(5, 1).normal(size=(100000, 2)) * sigma
        frac = float(np.mean(draws[:, 0] <= 50.0))
        sd = math.sqrt(q * (1 - q) / 100000)
        assert abs(frac - q) <= 4 * sd


def test_exclusion_outside_augmented_set():
    """Means outside the augmented set land in the polytope w.p. < q."""
    sigma = np.array([0.6, 0.6])
    poly = Polytope.box([0.0, 0.0], [4.0, 4.0])
    q = 0.7
    aug = augmented_set(poly, q, sigma)
    rng = stream(9, 0)
    tested = 0
    while tested < 10:
        mean = rng.uniform(-2.0, 6.0, size=2)
        if aug.contains(mean):
            continue
        tested += 1
        draws = mean + rng.normal(size=(100000, 2)) * sigma
        frac = float(np.mean(poly.contains_many(draws, tol=0.0)))
        assert frac < q + 4 * math.sqrt(q * (1 - q) / 100000)


def test_empty_intersection_trivials():
    left = Polytope([[1.0]], [0.0])
    right = Polytope([[-1.0]], [-1.0])   # x >= 1
    assert is_empty_intersection(left, right)
    overlapping = Polytope([[-1.0]], [0.0])  # x >= 0
    assert not is_empty_intersection(Polytope([[1.0]], [1.0]), overlapping)


def test_empty_intersection_of_far_augmented_cells():
    """Boxes separated by more than twice the augmented growth stay disjoint."""
    sigma = np.array([0.3, 0.3])
    p = 0.05
    growth = abs(gaussian_quantile(p)) * float(np.max(sigma))
    gap = 2 * growth + 0.5
    a = Polytope.box([0.0, 0.0], [1.0, 1.0])
    b = Polytope.box([1.0 + gap, 0.0], [2.0 + gap, 1.0])
    assert is_empty_intersection(augmented_set(a, p, sigma),
                                 augmented_set(b, p, sigma))


def test_split_unit_square():
    square = Polytope.box([0, 0], [1, 1])
    lower, upper = split(square, Hyperplane(np.array([1.0, 0.0]), 0.5))
    for part in (lower, upper):
        _, radius = chebyshev_center(part)
        assert radius == pytest.approx(0.25, abs=1e-9)
    assert lower.num_halfspaces == square.num_halfspaces + 1
    assert upper.num_halfspaces == square.num_halfspaces + 1


def test_split_outside_is_degenerate():
    square = Polytope.box([0, 0], [1, 1])
    with pytest.raises(geometry.DegenerateSplitError):
        split(square, Hyperplane(np.array([1.0, 0.0]), 2.0))


@pytest.mark.parametrize("slot, raises", [(0, True), (1, False), (2, True)])
def test_split_many_reads_each_cut_lower_first(monkeypatch, slot, raises):
    """The interiors of all cuts share one batch and are read as split
    reads them: the first cut's lower interior is empty, so its upper test
    is never read, and a numerical failure raises when it is read."""
    square = Polytope.box([0, 0], [1, 1])
    planes = [Hyperplane(np.array([1.0, 0.0]), offset) for offset in (-1.0, 0.5)]
    real = linprog.solve_many

    def faulty(lps):
        out = real(lps)
        out[slot] = linprog.LpNumericalError("injected")
        return out

    monkeypatch.setattr(linprog, "solve_many", faulty)
    if raises:
        with pytest.raises(linprog.LpNumericalError, match="injected"):
            geometry.split_many(square, planes)
    else:
        degenerate, parts = geometry.split_many(square, planes)
        assert isinstance(degenerate, geometry.DegenerateSplitError)
        assert [part.num_halfspaces for part in parts] == [5, 5]


def random_bounded_polytope(rng, n, rows):
    A = np.vstack([rng.normal(size=(rows, n)), np.eye(n), -np.eye(n)])
    x0 = rng.normal(size=n)
    b = A @ x0 + np.concatenate([rng.uniform(0.5, 2.0, size=rows),
                                 np.full(2 * n, 5.0)])
    return Polytope(A, b)


def test_split_shrinks_chebyshev_radius(rng):
    for _ in range(15):
        poly = random_bounded_polytope(rng, 2, 8)
        center, radius = chebyshev_center(poly)
        normal = rng.normal(size=2)
        normal /= np.linalg.norm(normal)
        plane = Hyperplane(normal, float(normal @ center))
        lower, upper = split(poly, plane)
        for part in (lower, upper):
            _, r = chebyshev_center(part)
            assert r <= radius + 1e-9


def test_chebyshev_unit_square():
    center, radius = chebyshev_center(Polytope.box([0, 0], [1, 1]))
    assert np.allclose(center, [0.5, 0.5], atol=1e-9)
    assert radius == pytest.approx(0.5, abs=1e-9)


def test_chebyshev_center_memoized(monkeypatch):
    poly = Polytope.box([0, 0], [2, 1])
    center, radius = chebyshev_center(poly)
    center[:] = 99.0  # the caller owns the returned center

    def no_solve(lp):
        raise AssertionError("chebyshev_center solved an LP again")

    monkeypatch.setattr(geometry.linprog, "solve", no_solve)
    again, radius_again = chebyshev_center(poly)
    assert radius_again == radius == pytest.approx(0.5, abs=1e-9)
    assert again[1] == pytest.approx(0.5, abs=1e-9) and 0.5 <= again[0] <= 1.5


def test_chebyshev_empty_polytope():
    empty = Polytope([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0 and x >= 1
    with pytest.raises(geometry.EmptyPolytopeError):
        chebyshev_center(empty)


def test_chebyshev_slack_covers_radius(rng):
    for _ in range(15):
        poly = random_bounded_polytope(rng, 3, 7)
        center, radius = chebyshev_center(poly)
        slack = poly.b - poly.A @ center
        assert np.all(slack >= radius * np.linalg.norm(poly.A, axis=1) - 1e-7)


def test_unsafe_overlap_trivials(small_scenario):
    ws = small_scenario.workspace
    inside = Polytope.box([4.0, 6.0], [5.0, 7.0])
    assert not cell_unsafe_overlap(inside, ws)
    straddling = Polytope.box([5.0, 2.0], [6.5, 3.0])  # crosses obstacle face
    assert cell_unsafe_overlap(straddling, ws)
    sticking_out = Polytope.box([9.0, 4.0], [10.5, 5.0])
    assert cell_unsafe_overlap(sticking_out, ws)


def test_unsafe_overlap_matches_sampling(demo_scenario):
    """LP piecewise test vs 1e4-point membership sampling per cell."""
    ws = demo_scenario.workspace
    lifted = ws.lifted_obstacles()
    rng = stream(77, 0)
    for cell in demo_scenario.partition:
        lo, hi = cell.region.bounding_box()
        pts = rng.uniform(lo, hi, size=(10000, 2))
        pts = pts[cell.region.contains_many(pts)]
        sampled = False
        for obs in lifted:
            sampled |= bool(np.any(obs.contains_many(pts, tol=0.0)))
        outside = np.any(pts @ ws.domain.A.T - ws.domain.b > 1e-6, axis=1)
        sampled |= bool(np.any(outside))
        decided = cell_unsafe_overlap(cell.region, ws)
        # Sampling can miss a sliver but must never contradict a negative.
        if sampled:
            assert decided
        if not decided:
            assert not sampled


def lp_bounding_box(poly):
    """The support-LP bounding box, computed without the closed form."""
    lo = np.empty(poly.dim)
    hi = np.empty(poly.dim)
    for d in range(poly.dim):
        e = np.zeros(poly.dim)
        e[d] = 1.0
        lo[d] = poly.extreme(e, "min")
        hi[d] = poly.extreme(e, "max")
    return lo, hi


def test_axis_bounds_of_boxes_and_oblique_polytopes():
    box = Polytope.box([0.0, -1.0], [2.0, 3.0])
    lo, hi = box.axis_bounds()
    assert lo.tolist() == [0.0, -1.0] and hi.tolist() == [2.0, 3.0]
    assert box.axis_bounds() is box.axis_bounds()  # memoized
    # Redundant and scaled rows: the tightest b / a per side wins.
    redundant = Polytope([[2.0, 0.0], [1.0, 0.0], [-4.0, 0.0], [0.0, 1.0]], [3.0, 2.0, 2.0, 5.0])
    lo, hi = redundant.axis_bounds()
    assert lo.tolist() == [-0.5, -math.inf] and hi.tolist() == [1.5, 5.0]
    assert Polytope([[1.0, 1.0], [-1.0, 0.0]], [1.0, 0.0]).axis_bounds() is None


def test_bounding_box_closed_form_equals_lp_bit_for_bit(demo_scenario, small_scenario,
                                                        demo_graph, demo_bounds):
    from relusafe import refine, scenario as sc
    scenarios = [demo_scenario, small_scenario,
                 sc.make_demo_scenario(3, [16, 16, 16], seed=0, obstacles=[((6.5, 2.5), (7.5, 3.5))]),
                 sc.make_demo_scenario(5, [8, 8], seed=1, obstacles=[((6.5, 2.5), (7.5, 3.5))])]
    polys = [s.workspace.domain for s in scenarios]
    polys += [cell.region for s in scenarios for cell in s.partition]
    # Refined halves: the pipeline's witness split and an axis-aligned cut.
    source, edge = refine.select_target(demo_graph, demo_bounds["merge+tpn"], k=9)
    result = refine.refine_cell(demo_scenario, demo_graph, demo_bounds["merge+tpn"],
                                source, edge.target, steps=4)
    polys += [result.scenario.partition[i].region for i in result.cell_map[source.cells[0]]]
    for cell in demo_scenario.partition:
        lo, _ = cell.region.axis_bounds()
        polys += split(cell.region, Hyperplane(np.array([1.0, 0.0]), float(lo[0]) + 0.3))
    axis_aligned = 0
    for poly in polys:
        closed = poly.bounding_box()
        axis_aligned += poly.axis_bounds() is not None
        for got, want in zip(closed, lp_bounding_box(poly)):
            assert got.tobytes() == want.tobytes()
    assert axis_aligned >= len(polys) - 2


def interval_verdict(p1, p2):
    """The :func:`box_pairs` verdict: "empty", "nonempty" or None (undecided)."""
    disjoint, overlapping, _ = geometry.box_pairs([p1], [p2])
    return "empty" if disjoint[0, 0] else "nonempty" if overlapping[0, 0] else None


@pytest.mark.parametrize("shift, decided", [
    (0.0, False),                          # touching faces
    (0.5 * geometry.BOX_BAND, False),      # gaps inside the band
    (2.0 * geometry.BOX_BAND, True),
    (-0.5 * geometry.BOX_BAND, False),     # overlaps inside the band
    (-2.0 * geometry.BOX_BAND, True),
    (geometry.STRICT_MARGIN, True),
])
def test_box_pairs_agree_with_lp_on_adversarial_boxes(shift, decided):
    left = Polytope.box([0.0, 0.0], [1.0, 1.0])
    right = Polytope.box([1.0 + shift, 0.5], [2.0, 3.0])
    half = Polytope([[-1.0, 0.0]], [-(1.0 + shift)])  # x >= 1 + shift, unbounded
    for a, b in ((left, right), (right, left), (left, half), (half, left)):
        verdict = interval_verdict(a, b)
        assert (verdict is not None) == decided
        if decided:
            assert (verdict == "empty") == is_empty_intersection(a, b)
            assert (verdict == "empty") == (shift > 0.0)


def test_box_pairs_leave_non_box_pairs_undecided():
    box = Polytope.box([0.0, 0.0], [1.0, 1.0])
    far = Polytope([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [30.0, -10.0, -10.0])
    disjoint, overlapping, widths = geometry.box_pairs([box, far], [box, far])
    assert disjoint.tolist() == [[False, False], [False, False]]
    assert overlapping.tolist() == [[True, False], [False, False]]
    assert widths.shape == (2, 2, 2)
    assert geometry.box_pairs([], [])[0].shape == (0, 0)


def test_domain_edge_decided_by_intervals(demo_scenario):
    """A cell tiling the domain edge is STRICT_MARGIN away from the domain's
    margin-shifted outside: decided disjoint without an LP."""
    dom = demo_scenario.workspace.domain
    regions = [cell.region for cell in demo_scenario.partition]
    outsides = geometry.outside_facets(dom, geometry.STRICT_MARGIN)
    disjoint, _, widths = geometry.box_pairs(regions, outsides)
    assert disjoint.all()
    touching = np.isclose(widths.min(axis=2), -geometry.STRICT_MARGIN, rtol=0.0, atol=1e-12)
    assert touching.sum() == 4 * 5  # five cells along each of the four edges


@pytest.mark.parametrize("workload", ["demo5", "deep3", "small"])
def test_every_pipeline_interval_verdict_equals_lp(workload, request, monkeypatch):
    """Spy on every :func:`box_pairs` call of a scenario → verify → refine →
    verify pipeline: each pair it decides must get the LP's verdict."""
    from relusafe import graph as gr
    from relusafe import refine, scenario as sc, verifier
    calls = []
    real = geometry.box_pairs

    def spy(polys1, polys2):
        out = real(polys1, polys2)
        calls.append((list(polys1), list(polys2), out[0], out[1]))
        return out

    for module in (geometry, sc):
        monkeypatch.setattr(module, "box_pairs", spy)
    obstacle = [((6.5, 2.5), (7.5, 3.5))]
    if workload == "demo5":
        scenario = sc.make_demo_scenario(5, [8, 8], seed=0, obstacles=obstacle)
        graph = request.getfixturevalue("demo_graph")
    elif workload == "deep3":
        scenario = sc.make_demo_scenario(3, [16, 16, 16], seed=0, obstacles=obstacle)
        graph = gr.build_graph(scenario, 0.01)
    else:
        scenario = sc.make_demo_scenario(3, [6, 4], seed=2, obstacles=[((5.9, 1.9), (7.8, 3.4))])
        graph = request.getfixturevalue("small_graph")
    bounds = verifier.verify(graph, scenario, 3, 0.01, mode="merge+tpn")
    source, edge = refine.select_target(graph, bounds, k=3)
    result = refine.refine_cell(scenario, graph, bounds, source, edge.target, steps=2)
    verifier.verify(result.graph, result.scenario, 3, 0.01, mode="merge+tpn")

    checked = undecided = 0
    for polys1, polys2, disjoint, overlapping in calls:
        for i, p in enumerate(polys1):
            for j, q in enumerate(polys2):
                if not (disjoint[i, j] or overlapping[i, j]):
                    undecided += 1
                    continue
                assert p.axis_bounds() is not None and q.axis_bounds() is not None
                assert disjoint[i, j] == is_empty_intersection(p, q)
                checked += 1
    assert checked > undecided > 0


def mixed_polys(rng, count):
    """Boxes on a coarse grid, touching or apart, every third one cut by a
    random oblique halfspace through its center."""
    polys = []
    for k in range(count):
        lo = rng.integers(0, 5, size=2).astype(float)
        size = rng.integers(1, 3, size=2)
        box = Polytope.box(lo, lo + size)
        if k % 3 == 2:
            normal = rng.normal(size=2)
            box = box.with_extra(normal, normal @ (lo + 0.5 * size) + rng.uniform(0.0, 0.5))
        polys.append(box)
    return polys


def pairwise_lp(polys1, polys2):
    return np.array([[is_empty_intersection(p, q) for q in polys2] for p in polys1])


def test_disjoint_pairs_equal_pairwise_lp(rng):
    """Both forms give the LP's verdict on every pair; the same-list form
    reads False on its diagonal, which a distinct equal list decides."""
    polys, others = mixed_polys(rng, 15), mixed_polys(rng, 8)
    disjoint, overlapping, _ = geometry.box_pairs(polys, others)
    assert disjoint.any() and overlapping.any() and not (disjoint | overlapping).all()
    assert np.array_equal(geometry.disjoint_pairs(polys, others), pairwise_lp(polys, others))
    want = pairwise_lp(polys, polys)
    assert np.array_equal(geometry.disjoint_pairs(polys, list(polys)), want)
    np.fill_diagonal(want, False)
    assert np.array_equal(geometry.disjoint_pairs(polys, polys), want)
    assert want.any() and not want.all()
    assert geometry.disjoint_pairs([], []).shape == (0, 0)
    assert geometry.disjoint_pairs([], others).shape == (0, 8)


@pytest.mark.parametrize("same", [True, False])
def test_disjoint_pairs_failed_lp_reads_not_disjoint(rng, monkeypatch, same):
    """An emptiness LP that fails numerically reads "not disjoint"; the
    pairs the intervals decide keep their verdict, and the interval
    verdicts themselves are left as box_pairs returned them."""
    polys = mixed_polys(rng, 15)
    others = polys if same else mixed_polys(rng, 8)
    clean = geometry.disjoint_pairs(polys, others)
    returned = []
    real = geometry.box_pairs

    def spy(polys1, polys2):
        out = real(polys1, polys2)
        returned.append((out[0], out[0].copy()))
        return out

    monkeypatch.setattr(geometry, "box_pairs", spy)
    monkeypatch.setattr(linprog, "solve_many",
                        lambda lps: [linprog.LpNumericalError("injected") for _ in lps])
    faulty = geometry.disjoint_pairs(polys, others)
    ((array, copy),) = returned
    assert np.array_equal(array, copy)
    disjoint, overlapping, _ = real(polys, others)
    decided = disjoint | overlapping
    assert np.array_equal(faulty[decided], clean[decided])
    assert not faulty[~decided].any() and clean[~decided].any()


def test_containment_verdict_matches_support_lp(rng):
    """Away from ties, a cell meets the domain's margin-shifted outside of
    a row exactly when its support LP along that row exceeds the row's
    offset by the margin (the test validation asked before both became
    one emptiness question)."""
    dom = Polytope.box([0.0, 0.0], [10.0, 10.0]).with_extra([1.0, 1.0], 17.0)
    outsides = geometry.outside_facets(dom, geometry.STRICT_MARGIN)
    cells = []
    for _ in range(40):
        lo = rng.uniform(-1.0, 9.0, size=2)
        normal = rng.normal(size=2)
        box = Polytope.box(lo, lo + rng.uniform(0.5, 3.0, size=2))
        cells.append(box.with_extra(normal, normal @ (lo + 0.25) + rng.uniform(0.0, 1.0)))
    leaves = ~geometry.disjoint_pairs(cells, outsides)
    compared = []
    for i, cell in enumerate(cells):
        for f in range(dom.num_halfspaces):
            above = cell.extreme(dom.A[f], "max") - (dom.b[f] + geometry.STRICT_MARGIN)
            if abs(above) > 1e-6:
                assert leaves[i, f] == (above > 0.0)
                compared.append(above > 0.0)
    assert len(compared) > 150 and 0 < sum(compared) < len(compared)
