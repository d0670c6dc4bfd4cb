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
                       gaussian_quantile, split)
from .graph import (UNSAFE, CellReach, Edge, TransitionGraph, cell_node, estimate_edge,
                    sink_edge, source_row)
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


def find_witness(scenario, graph, source, target):
    """The state of ``source`` whose successor lies deepest in ``target``,
    as ``(X, X_next)``.

    ``X`` is the state whose successor ``X_next`` reaches ``z*``, the
    largest noise-normalised slack in the target region over all of the
    source cell's affine pieces (:func:`relusafe.smc.max_slack`); the slack
    against the augmented set at any threshold differs by a constant, so
    the same state is the deepest there.  For sink edges the dominant
    unsafe piece is used.  Raises :class:`StaleGraphError` when ``z*``
    falls short of the edge's last satisfiable threshold (the graph
    predates a scenario change), and :class:`RefinementError` for edges at
    the precision floor, which never had a satisfiable threshold, or when
    the slack LP fails numerically.
    """
    edge = graph.edge(source, target)
    if edge is None:
        raise RefinementError(f"no edge {source} -> {target}")
    cell = scenario.partition[source.cells[0]]
    if target == UNSAFE:
        pieces = edge.pieces
        if not pieces:
            pieces = sink_edge(scenario, cell, graph.dq).pieces
        region, bound, q_lo, _, _ = max(pieces, key=lambda rec: rec[1])
        q = q_lo if q_lo > 0.0 else bound - graph.dq
    else:
        region = scenario.partition[target.cells[0]].region
        q = edge.q_lo if edge.q_lo > 0.0 else edge.bound - graph.dq
    if q <= 0.0:
        raise RefinementError(f"edge {source} -> {target} sits at the precision floor")
    sigma = scenario.dynamics.sigma
    z_star, x, x_next = max_slack(CellReach(scenario, cell).pieces, region, sigma)
    if z_star == np.inf:
        raise RefinementError(f"edge {source} -> {target}: slack LP failed numerically")
    if z_star < gaussian_quantile(q) - slack_tolerance(region, sigma):
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
    lo = region.extreme(hp.normal, "min")
    hi = region.extreme(hp.normal, "max")
    c0 = float(hp.normal @ x)
    downward = (c0 - lo) >= (hi - c0)  # cut on the roomier side, away from x
    far = lo if downward else hi
    margin = 1e-6 * max(1.0, hi - lo)

    target_region = None
    if target != UNSAFE:
        target_region = scenario.partition[target.cells[0]].region

    best = None
    for t in range(steps):
        offset = c0 + (far - c0) * (t / steps)
        if offset - lo <= margin or hi - offset <= margin:
            continue
        plane = Hyperplane(normal=hp.normal, offset=offset)
        try:
            lower, upper = split(region, plane)
        except DegenerateSplitError:
            continue
        away = lower if downward else upper
        probe = PartitionCell(id=f"{cell.id}b", region=away, C=cell.C, c=cell.c)
        if target == UNSAFE:
            value = sink_edge(scenario, probe, graph.dq).bound
        else:
            value = estimate_edge(scenario, probe, target_region, graph.dq)[0]
        plan.translations.append((float(offset), float(value)))
        if best is None or value < best[0]:
            best = (value, offset)
    if best is None:
        plan.note = "all translations degenerate; partition unchanged"
        return RefinementResult(scenario=scenario, graph=graph, plan=plan,
                                cell_map=tuple((i,) for i in range(scenario.num_cells)))

    plan.chosen_offset = float(best[1])
    lower, upper = split(region, Hyperplane(normal=hp.normal, offset=best[1]))
    near, away = (upper, lower) if downward else (lower, upper)
    cell_near = PartitionCell(id=f"{cell.id}a", region=near, C=cell.C, c=cell.c)
    cell_away = PartitionCell(id=f"{cell.id}b", region=away, C=cell.C, c=cell.c)

    new_cells = (scenario.partition[:idx] + (cell_near, cell_away)
                 + scenario.partition[idx + 1:])
    new_scenario = Scenario(dynamics=scenario.dynamics, controller=scenario.controller,
                            workspace=scenario.workspace, partition=new_cells)
    cell_map = tuple((i,) if i < idx else (i, i + 1) if i == idx else (i + 1,)
                     for i in range(scenario.num_cells))
    new_graph = _rebuild_graph(new_scenario, graph, cell_map)
    plan.committed = True
    return RefinementResult(scenario=new_scenario, graph=new_graph, plan=plan,
                            cell_map=cell_map)


def _rebuild_graph(new_scenario, graph, cell_map):
    """The graph ``build_graph`` would give on the refined scenario.

    Rows of the two halves are estimated afresh, and so is every other
    row's edge into a half; all other edges are copied from the old graph
    through ``cell_map``.
    """
    dq = graph.dq
    halves = next(new for new in cell_map if len(new) == 2)
    old_index = {new: old for old, news in enumerate(cell_map) for new in news}
    edges = {}
    for i, cell in enumerate(new_scenario.partition):
        if i in halves:
            edges[cell_node(i)] = source_row(new_scenario, cell, dq)
            continue
        old_row = {e.target: e for e in graph.edges[cell_node(old_index[i])]}
        reach = CellReach(new_scenario, cell)
        row = []
        for j, target in enumerate(new_scenario.partition):
            if j in halves:
                row.append(Edge(cell_node(j),
                                *estimate_edge(new_scenario, cell, target.region, dq, reach)))
            else:
                row.append(replace(old_row[cell_node(old_index[j])], target=cell_node(j)))
        row.append(old_row[UNSAFE])
        edges[cell_node(i)] = row
    edges[UNSAFE] = list(graph.edges[UNSAFE])

    out = TransitionGraph(nodes=list(edges), edges=edges, dq=dq,
                          q_threshold_floor=graph.q_threshold_floor)
    return out.bind_scenario(new_scenario)


def select_target(graph, bounds, k):
    """Pick the (cell, edge) most worth refining at horizon ``k``.

    Score is edge bound times the target's k-step bound times the source's
    Chebyshev radius; edges without a replayable witness are skipped.
    Deterministic: ties resolve to the smallest source, then target.
    """
    best = None
    for source in graph.cell_nodes():
        _, radius = chebyshev_center(graph.regions[source])
        for edge in graph.edges[source]:
            if edge.target == source:
                continue
            if edge.target == UNSAFE:
                witnessable = (any(rec[2] > 0.0 for rec in edge.pieces)
                               if edge.pieces else edge.bound > graph.dq)
            elif edge.method == "pruned":
                witnessable = False
            else:
                witnessable = edge.q_lo > 0.0 or edge.bound > graph.dq
            if not witnessable:
                continue
            score = edge.bound * bounds.value(k, edge.target) * radius
            key = (-score, source, edge.target)
            if best is None or key < best[0]:
                best = (key, source, edge)
    if best is None:
        raise RefinementError("no refinable edge in the graph")
    return best[1], best[2]
