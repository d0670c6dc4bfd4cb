"""Witness-driven cell splitting to tighten transition bounds.

A high transition bound is pinned to the worst-case states of the source
cell: those whose successor lies deepest in the target's chance set.  The
witness is the one the affine pieces give (:func:`relusafe.smc.max_slack`),
the state whose successor reaches the largest noise-normalised slack ``z*``
over all pieces.  Splitting the cell by a hyperplane perpendicular to the
witness motion, translated away from the witness, isolates those states in
one sub-cell so the other's bound drops.  The split is exact, so the partition
stays valid; every edge touching the split cell is re-estimated, which keeps
the refined graph sound regardless of how well the hyperplane was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import (DegenerateSplitError, Hyperplane, chebyshev_center,
                       gaussian_quantile, split_many)
from .graph import (UNSAFE, CellReach, Edge, TransitionGraph, cell_node, estimate_edges,
                    sink_from_tails, source_rows, unsafe_pieces)
from .scenario import PartitionCell, Scenario
from .smc import max_slack, slack_tolerance


class RefinementError(Exception):
    pass


class StaleGraphError(RefinementError):
    """The graph no longer matches the scenario: no state of the source cell
    reaches the edge's last satisfiable threshold."""


class StationaryWitnessError(RefinementError):
    """Witness successor equals the witness; no motion direction to cut along."""


@dataclass
class RefinementPlan:
    cell: object
    edge_target: object
    witness_x: np.ndarray | None = None
    witness_x_next: np.ndarray | None = None
    hyperplane: Hyperplane | None = None
    translations: list = field(default_factory=list)  # (offset, resulting bound)
    chosen_offset: float | None = None
    committed: bool = False
    note: str = ""


@dataclass
class RefinementResult:
    """Refined scenario and graph.  ``cell_map[i]`` is the tuple of new cell
    indices covering old cell ``i``: both halves for the split cell, one
    index for every other cell, the identity when nothing was split."""

    scenario: Scenario
    graph: TransitionGraph
    plan: RefinementPlan
    cell_map: tuple


def _bracket(source, edge):
    """``(q_lo, q_hi, region)``: the bracket of ``edge`` and None; for a
    sink edge, the bracket and region of its dominant (largest-bound)
    unsafe piece."""
    if edge.target != UNSAFE:
        return edge.q_lo, edge.bound, None
    if not edge.pieces:
        raise RefinementError(f"sink edge of {source} has no unsafe piece records")
    region, _, q_lo, q_hi, _ = max(edge.pieces, key=lambda rec: rec[1])
    return q_lo, q_hi, region


def _at_floor(graph, source, edge):
    """True for an edge at the precision floor, which has no witness: its
    bound, or its dominant unsafe piece's ``q_hi``, is at most ``dq``."""
    return _bracket(source, edge)[1] <= graph.dq


def find_witness(scenario, graph, source, target):
    """The state of ``source`` whose successor lies deepest in ``target``,
    as ``(X, X_next)``.

    ``X`` is the state whose successor ``X_next`` reaches ``z*``, the
    largest noise-normalised slack in the target region over all of the
    source cell's affine pieces (:func:`relusafe.smc.max_slack`); the slack
    against the augmented set at any threshold differs by a constant, so
    the same state is the deepest there.  For sink edges the dominant
    unsafe piece is used.  The pieces are the ones the graph keeps for
    ``source`` (:meth:`relusafe.graph.TransitionGraph.cell_reach`).
    Raises :class:`StaleGraphError` when ``z*`` falls short of the edge's
    satisfiable threshold ``q_lo`` (the graph predates a scenario change),
    and :class:`RefinementError` for edges at the precision floor
    (:func:`_at_floor`), for sink edges without piece records, or when the
    slack LP fails numerically.
    """
    edge = graph.edge(source, target)
    if edge is None:
        raise RefinementError(f"no edge {source} -> {target}")
    if _at_floor(graph, source, edge):
        raise RefinementError(f"edge {source} -> {target} sits at the precision floor")
    q, _, region = _bracket(source, edge)
    if region is None:
        region = scenario.partition[target.cells[0]].region
    sigma = scenario.dynamics.sigma
    reach = graph.cell_reach(scenario, source)
    z_star, x, x_next = max_slack(reach.pieces, [region], sigma)[0]
    if z_star == np.inf:
        raise RefinementError(f"edge {source} -> {target}: slack LP failed numerically")
    if q > 0.0 and z_star < gaussian_quantile(q) - slack_tolerance(region, sigma):
        raise StaleGraphError(f"edge {source} -> {target}: no witness at q={q}")
    return x, x_next


def propose_hyperplane(x, x_next):
    """Unit-normal hyperplane through ``x`` perpendicular to the motion."""
    x = np.asarray(x, dtype=float).reshape(-1)
    x_next = np.asarray(x_next, dtype=float).reshape(-1)
    direction = x_next - x
    norm = float(np.linalg.norm(direction))
    if norm <= 1e-12:
        raise StationaryWitnessError("witness does not move")
    normal = direction / norm
    return Hyperplane(normal=normal, offset=float(normal @ x))


def _fallback_hyperplane(region):
    """Longest-axis bisector, for stationary witnesses."""
    lo, hi = region.bounding_box()
    axis = int(np.argmax(hi - lo))
    normal = np.zeros(region.dim)
    normal[axis] = 1.0
    return Hyperplane(normal=normal, offset=float(0.5 * (lo[axis] + hi[axis])))


def refine_cell(scenario, graph, bounds, source, target, steps=4):
    """Split ``source`` to shrink its bound toward ``target``; returns the
    refined scenario and graph plus the plan that was executed.

    Tries ``steps`` equally spaced hyperplane translations from the witness
    toward the far side of the cell, keeps the one minimizing the bound of
    the sub-cell away from the witness, and re-estimates every edge touching
    the split cell, in both directions, plus the two new sink edges.  When
    every translation fails to cut the cell the call is a no-op carrying a
    report in the plan.

    ``bounds`` is not read (pass None).  The parameter stays in its place
    because the benchmark (``perfbench/run.py``) passes it positionally.
    """
    if steps < 1:
        raise RefinementError("steps must be >= 1")
    idx = source.cells[0]
    cell = scenario.partition[idx]
    plan = RefinementPlan(cell=source, edge_target=target)

    x, x_next = find_witness(scenario, graph, source, target)
    plan.witness_x, plan.witness_x_next = x, x_next
    try:
        hp = propose_hyperplane(x, x_next)
    except StationaryWitnessError:
        hp = _fallback_hyperplane(cell.region)
    plan.hyperplane = hp

    region = cell.region
    (lo,), (hi,) = region.extremes([hp.normal])
    c0 = float(hp.normal @ x)
    downward = (c0 - lo) >= (hi - c0)  # cut on the roomier side, away from x
    far = lo if downward else hi
    margin = 1e-6 * max(1.0, hi - lo)

    # One half per translation that cuts the cell: the half away from the
    # witness is a probe.  The cuts are tested in one batch, and the edges
    # of all probes are estimated at once.
    offsets = [c0 + (far - c0) * (t / steps) for t in range(steps)]
    offsets = [offset for offset in offsets
               if not (offset - lo <= margin or hi - offset <= margin)]
    cuts = split_many(region, [Hyperplane(normal=hp.normal, offset=offset) for offset in offsets])
    splits, probes = [], []
    for offset, parts in zip(offsets, cuts):
        if isinstance(parts, DegenerateSplitError):
            continue
        lower, upper = parts
        near, away = (upper, lower) if downward else (lower, upper)
        splits.append((offset, near))
        probes.append(CellReach(scenario, PartitionCell(id=f"{cell.id}b", region=away,
                                                        C=cell.C, c=cell.c)))
    if not probes:
        plan.note = "all translations degenerate; partition unchanged"
        return RefinementResult(scenario=scenario, graph=graph, plan=plan,
                                cell_map=tuple((i,) for i in range(scenario.num_cells)))
    if target == UNSAFE:
        pieces = unsafe_pieces(scenario.workspace)
        values = [sink_from_tails(pieces, tails).bound
                  for tails in estimate_edges(scenario, probes, pieces, graph.dq)]
    else:
        regions = [scenario.partition[target.cells[0]].region]
        values = [tails[0][0] for tails in estimate_edges(scenario, probes, regions, graph.dq)]
    plan.translations = [(float(offset), float(value))
                         for (offset, _), value in zip(splits, values)]
    best = min(range(len(probes)), key=values.__getitem__)  # the first of equal values

    plan.chosen_offset = float(splits[best][0])
    cell_near = PartitionCell(id=f"{cell.id}a", region=splits[best][1], C=cell.C, c=cell.c)
    away = probes[best]
    new_cells = (scenario.partition[:idx] + (cell_near, away.cell)
                 + scenario.partition[idx + 1:])
    new_scenario = Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                            workspace=scenario.workspace, partition=new_cells)
    cell_map = tuple((i,) if i < idx else (i, i + 1) if i == idx else (i + 1,)
                     for i in range(scenario.num_cells))
    reach = {cell_node(new): graph.cell_reach(scenario, cell_node(old))
             for old, news in enumerate(cell_map) if len(news) == 1 for new in news}
    reach[cell_node(idx + 1)] = away
    new_graph = _rebuild_graph(new_scenario, graph, cell_map, reach)
    plan.committed = True
    return RefinementResult(scenario=new_scenario, graph=new_graph, plan=plan,
                            cell_map=cell_map)


def _rebuild_graph(new_scenario, graph, cell_map, reach):
    """The graph ``build_graph`` would give on the refined scenario.

    ``reach`` holds the :class:`~relusafe.graph.CellReach` of every new
    cell it knows, the ones the old graph kept for the unsplit cells and
    the probe's for the half away from the witness; the new graph keeps
    them, and the other half's.  The rows of the two halves are estimated
    afresh in one :func:`~relusafe.graph.source_rows` call, and every
    unsplit row's edges into the halves come from one
    :func:`~relusafe.graph.estimate_edges` call for all of those rows, so
    each call's prune LPs run as one batch and its slack LPs as another;
    all other edges are copied from the old graph through ``cell_map``.
    """
    dq = graph.dq
    halves = next(new for new in cell_map if len(new) == 2)
    old_index = {new: old for old, news in enumerate(cell_map) for new in news}
    reach = dict(reach)
    for j in halves:
        node = cell_node(j)
        if node not in reach:
            reach[node] = CellReach(new_scenario, new_scenario.partition[j])
    unsplit = [i for i in range(new_scenario.num_cells) if i not in halves]
    into_halves = dict(zip(unsplit, estimate_edges(
        new_scenario, [reach[cell_node(i)] for i in unsplit],
        [new_scenario.partition[j].region for j in halves], dq)))
    half_rows = dict(zip(halves, source_rows(
        new_scenario, [new_scenario.partition[j] for j in halves], dq,
        [reach[cell_node(j)] for j in halves])))
    edges = {}
    for i in range(new_scenario.num_cells):
        if i in halves:
            edges[cell_node(i)] = half_rows[i]
            continue
        old_row = {e.target: e for e in graph.edges[cell_node(old_index[i])]}
        new_tails = dict(zip(halves, into_halves[i]))
        row = []
        for j in range(new_scenario.num_cells):
            if j in halves:
                row.append(Edge(cell_node(j), *new_tails[j]))
            else:
                row.append(replace(old_row[cell_node(old_index[j])], target=cell_node(j)))
        row.append(old_row[UNSAFE])
        edges[cell_node(i)] = row
    edges[UNSAFE] = list(graph.edges[UNSAFE])

    out = TransitionGraph(nodes=list(edges), edges=edges, dq=dq, reach=reach)
    return out.bind_scenario(new_scenario)


def select_target(graph, bounds, k):
    """Pick the (cell, edge) most worth refining at horizon ``k``.

    Score is edge bound times the target's k-step bound times the source's
    Chebyshev radius; edges at the precision floor (:func:`_at_floor`),
    which have no witness, are skipped.
    Deterministic: ties resolve to the smallest source, then target.
    """
    best = None
    for source in graph.cell_nodes():
        _, radius = chebyshev_center(graph.regions[source])
        for edge in graph.edges[source]:
            if edge.target == source:
                continue
            if _at_floor(graph, source, edge):
                continue
            score = edge.bound * bounds.value(k, edge.target) * radius
            key = (-score, source, edge.target)
            if best is None or key < best[0]:
                best = (key, source, edge)
    if best is None:
        raise RefinementError("no refinable edge in the graph")
    return best[1], best[2]
