"""Transition graph with per-edge upper bounds on one-step probabilities.

For an ordered cell pair the bound is a chance threshold q at which the
reach query against the target's augmented set is unsatisfiable: then no
state of the source cell transitions with probability >= q.  The query's
verdict comes from the source cell's affine pieces
(:func:`relusafe.smc.affine_pieces`): it is satisfiable exactly when the
largest noise-normalised target slack ``z*`` the pieces reach is at least
``gaussian_quantile(q)``.  :func:`threshold_bracket` reads the bracket
``(q_lo, q_hi)`` off ``z*`` in closed form, with every comparison outside
the numerical tolerance of ``z*`` (:func:`relusafe.smc.slack_tolerance`),
so the exact reach-query oracle :func:`relusafe.smc.solve` replays it.  The
pieces are enumerated once per source cell and serve every target of its
row.

A cheap interval-arithmetic reach-box filter skips pairs whose bound would
be ``dq`` anyway; filtered pairs keep an edge of bound ``dq`` rather than
being dropped, since unsatisfiability proves smallness, never
impossibility.

:func:`estimate_edges` is the one edge estimator.  It bounds the edges
from a list of sources into a list of regions: the prune LPs of every
(source, region) pair run as one :func:`relusafe.linprog.solve_many`
batch and the slack LPs of every source's pieces against its unpruned
regions as another, with results bit-identical to solving each LP alone.
The build calls it once for every source row (:func:`source_rows`), so it
makes one prune batch and one slack batch, which ``solve_many`` runs in
fixed-size lockstep chunks; refinement calls it once for the probes of a
split, once for the two halves' rows and once for every unsplit row's
edges into the halves.  The targets' augmented sets at ``dq`` are
computed once per build (:class:`RowTargets`) and shared by every row.  A
built graph keeps each source cell's :class:`CellReach`, its reach box and
affine pieces, in memory (:meth:`TransitionGraph.cell_reach`), so refinement does not
enumerate them again; the reach is not saved, and a loaded graph makes it
on first use.

Every cell also gets an edge to the absorbing unsafe sink, bounding the
one-step probability of entering an obstacle or leaving the domain; the sink
carries a self-loop of weight one, which makes downstream horizon bounds
cover "reach unsafe within k steps".
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import smc
from .geometry import (QUANTILE_ERROR, GeometryError, Polytope, augmented_set,
                       empty_intersections, gaussian_cdf, gaussian_quantile, outside_facets)
from .scenario import scenario_sha256

GRAPH_FORMAT = "relusafe-graph-v3"
TOOL_VERSION = "0.1.0"
# Outward padding of every reach box, against rounding in its interval bounds.
REACH_BOX_INFLATE = 1e-9


class GraphError(Exception):
    pass


class GraphChecksumError(GraphError):
    pass


class GraphVersionError(GraphError):
    pass


EDGE_METHODS = ("smc", "pruned", "unsafe", "fixed", "merged")


@dataclass(frozen=True, order=True)
class NodeId:
    """Graph node: a partition cell, a merged target group, or the unsafe sink."""

    kind: str
    cells: tuple = ()

    def __post_init__(self):
        if self.kind not in ("cell", "merged", "unsafe"):
            raise GraphError(f"bad node kind {self.kind!r}")
        if self.kind == "merged" and len(self.cells) < 2:
            raise GraphError("merged nodes need at least two members")

    def __str__(self):
        if self.kind == "cell":
            return f"cell:{self.cells[0]}"
        if self.kind == "merged":
            return "merged:" + "+".join(str(c) for c in self.cells)
        return "unsafe"


UNSAFE = NodeId("unsafe")


def cell_node(index):
    return NodeId("cell", (int(index),))


def merged_node(indices):
    return NodeId("merged", tuple(sorted(int(i) for i in indices)))


def parse_node(text):
    if text == "unsafe":
        return UNSAFE
    kind, _, rest = text.partition(":")
    if kind == "cell":
        return cell_node(int(rest))
    if kind == "merged":
        return merged_node(int(c) for c in rest.split("+"))
    raise GraphError(f"bad node literal {text!r}")


@dataclass(frozen=True)
class Edge:
    """One weighted edge.  ``bound`` upper-bounds the transition probability.

    ``q_lo``/``q_hi`` bracket the chance threshold at which the pair's
    reach query turns unsatisfiable (:func:`threshold_bracket`): the query
    is satisfiable at ``q_lo`` unless it is 0.0 and unsatisfiable at
    ``q_hi`` unless it is 1.0, both replayable through
    :func:`relusafe.smc.solve`.  ``bound`` is ``q_hi``, or ``dq`` for a
    pruned pair.  ``method`` is one of :data:`EDGE_METHODS`: "smc" for
    bracketed pairs, "pruned" for reach-box filtered pairs, "unsafe" for the sink edge of a
    cell, "fixed" for the sink self-loop and "merged" for the edge into a
    target group that :mod:`relusafe.verifier` forms.  ``pieces`` carries
    the per-piece records ``(region, bound, q_lo, q_hi, method)`` of a sink
    edge, one per unsafe piece.
    """

    target: NodeId
    bound: float
    q_lo: float = 0.0
    q_hi: float = 1.0
    method: str = "smc"
    pieces: tuple = ()


@dataclass
class TransitionGraph:
    nodes: list
    edges: dict                      # NodeId -> list[Edge]
    dq: float
    scenario_sha256: str = ""
    regions: dict = field(default_factory=dict)   # NodeId -> Polytope (cell nodes)
    sigma: np.ndarray | None = None
    # NodeId -> CellReach of the source cells, in memory only (not saved).
    reach: dict = field(default_factory=dict, repr=False, compare=False)

    def edge(self, source, target):
        for e in self.edges.get(source, []):
            if e.target == target:
                return e
        return None

    def cell_nodes(self):
        return [v for v in self.nodes if v.kind == "cell"]

    def cell_reach(self, scenario, node):
        """The :class:`CellReach` of cell ``node`` of ``scenario``: the one
        the build kept, or, for a loaded graph, one built with ``jobs > 1``
        or a reach made for other objects, one made now and kept."""
        cell = scenario.partition[node.cells[0]]
        reach = self.reach.get(node)
        if reach is None or not reach.serves(scenario, cell):
            reach = self.reach[node] = CellReach(scenario, cell)
        return reach

    def bind_scenario(self, scenario):
        """Attach regions and noise data from the owning scenario.

        A graph without a scenario digest records this scenario's; one
        with a digest raises :class:`GraphError` on a mismatch.
        """
        digest = scenario_sha256(scenario)
        if self.scenario_sha256 and digest != self.scenario_sha256:
            raise GraphError("graph was built for a different scenario (hash mismatch)")
        self.scenario_sha256 = digest
        for node in self.cell_nodes():
            self.regions[node] = scenario.partition[node.cells[0]].region
        self.sigma = scenario.dynamics.sigma
        return self


def reach_box(scenario, cell):
    """Interval overapproximation of the noise-free successor means of a cell."""
    lo, hi = cell.region.bounding_box()
    _, _, (u_lo, u_hi) = smc.cell_network_bounds(scenario.controller, cell)
    dyn = scenario.dynamics
    ax_lo, ax_hi = smc.interval_affine(dyn.A, np.zeros(dyn.n), lo, hi)
    bu_lo, bu_hi = smc.interval_affine(dyn.B, np.zeros(dyn.n), u_lo, u_hi)
    return Polytope.box(ax_lo + bu_lo - REACH_BOX_INFLATE, ax_hi + bu_hi + REACH_BOX_INFLATE)


class CellReach:
    """What every edge out of one source cell shares: its interval
    :func:`reach_box` for the prune test and, computed on first use, its
    closed loop's affine pieces."""

    def __init__(self, scenario, cell):
        self.scenario = scenario
        self.cell = cell
        self.box = reach_box(scenario, cell)

    @cached_property
    def pieces(self):
        return smc.affine_pieces(self.scenario, self.cell)

    def serves(self, scenario, cell):
        """True when this reach is the one of ``cell`` under the closed
        loop of ``scenario``: the same cell, dynamics and controller
        objects."""
        return (self.cell is cell and self.scenario.dynamics is scenario.dynamics
                and self.scenario.controller is scenario.controller)


def prune_sets(regions, dq, sigma):
    """Each region's augmented set at ``dq``: the target side of its prune
    test.  A successor mean outside it violates some row with probability
    above ``1 - dq``, so a reach box that misses it moves no source state
    into the region with probability ``dq`` or more."""
    return [augmented_set(region, dq, sigma) for region in regions]


class RowTargets:
    """What every source row shares: its targets, the partition cells in
    index order and then the unsafe pieces, and their :func:`prune_sets`.
    A build makes one and hands it to every row."""

    def __init__(self, scenario, dq):
        self.num_cells = scenario.num_cells
        self.pieces = unsafe_pieces(scenario.workspace)
        self.regions = [cell.region for cell in scenario.partition] + self.pieces
        self.prune_sets = prune_sets(self.regions, dq, scenario.dynamics.sigma)


def _pruned(pairs):
    """Per ``(box, target)`` pair, True when the target misses the box; a
    prune LP that fails numerically reads False, so its pair is bracketed
    instead."""
    return [empty is True for empty in empty_intersections(pairs)]


# What q_lo is lowered by: half the spacing of floats just below one, where
# gaussian_cdf may round up past its quantile.  1 - CDF_ROUNDING is the
# largest float below one.
CDF_ROUNDING = 2.0 ** -53


def threshold_bracket(z_star, tol, dq):
    """``(q_lo, q_hi)`` of a pair whose affine pieces reach the slack
    ``z_star``, with ``tol`` its :func:`relusafe.smc.slack_tolerance`.

    ``q_hi = max(dq, Phi(z* + tol + QUANTILE_ERROR))`` and ``q_lo =
    Phi(z* - tol - QUANTILE_ERROR) - CDF_ROUNDING``, each checked once: a
    ``q_hi`` of one, or whose quantile is not above ``z* + tol``, reads
    1.0, and a ``q_lo`` not positive, or whose quantile is above ``z* -
    tol``, reads 0.0.  So the reach query is unsatisfiable at ``q_hi`` and
    satisfiable at ``q_lo`` by comparisons outside the tolerance band; the
    band itself reads as satisfiable, as an "unknown" would.  ``z* =
    -inf`` (no piece) gives ``(0.0, dq)``, ``z* = +inf`` (a failed slack
    LP) ``(nextafter(1, 0), 1.0)``.  The gap is at most about ``0.8 * (tol
    + QUANTILE_ERROR)``, or ``dq`` when ``q_hi`` is ``dq``.
    """
    q_hi = max(dq, gaussian_cdf(z_star + tol + QUANTILE_ERROR))
    if q_hi >= 1.0 or not gaussian_quantile(q_hi) > z_star + tol:
        q_hi = 1.0
    q_lo = gaussian_cdf(z_star - tol - QUANTILE_ERROR) - CDF_ROUNDING
    if q_lo <= 0.0 or not gaussian_quantile(q_lo) <= z_star - tol:
        q_lo = 0.0
    return q_lo, q_hi


def estimate_edges(scenario, reaches, regions, dq, aug_sets=None):
    """Bound the one-step probability from each source into each of ``regions``.

    ``reaches`` holds one :class:`CellReach` per source cell; the result
    holds one list of edge tails per source, one tail per region.  A pair
    the reach box prunes reads ``(dq, 0.0, dq, "pruned")``, any other
    ``(q_hi, q_lo, q_hi, "smc")`` from :func:`threshold_bracket`.  The
    prune LPs of every pair run as one LP batch, then the slack LPs of
    every source's affine pieces against its unpruned regions as another
    (:func:`relusafe.smc.max_slacks`).  ``aug_sets`` are the regions'
    :func:`prune_sets`, computed when not given.
    """
    sigma = scenario.dynamics.sigma
    if aug_sets is None:
        aug_sets = prune_sets(regions, dq, sigma)
    cuts = iter(_pruned([(reach.box, aug) for reach in reaches for aug in aug_sets]))
    pruned = [[next(cuts) for _ in regions] for _ in reaches]
    open_regions = [[region for region, cut in zip(regions, row) if not cut] for row in pruned]
    # Pieces only for the sources with an unpruned region.
    asked = [(reach.pieces, targets) for reach, targets in zip(reaches, open_regions) if targets]
    slacks = iter([z for found in smc.max_slacks(asked, sigma) for z in found])
    out = []
    for row in pruned:
        tails = []
        for region, cut in zip(regions, row):
            if cut:
                tails.append((dq, 0.0, dq, "pruned"))
                continue
            tol = smc.slack_tolerance(region, sigma)
            q_lo, q_hi = threshold_bracket(next(slacks)[0], tol, dq)
            tails.append((q_hi, q_lo, q_hi, "smc"))
        out.append(tails)
    return out


def unsafe_pieces(workspace):
    """Convex decomposition of the unsafe set, in state space.

    One piece per obstacle (lifted through the position projection) and one
    per reversed domain halfspace.
    """
    return list(workspace.lifted_obstacles()) + outside_facets(workspace.domain, 0.0)


def sink_from_tails(pieces, tails):
    """The sink edge from each unsafe piece's edge tail: the records
    ``(piece, bound, q_lo, q_hi, method)`` and their bound sum, capped at
    one."""
    records = tuple((piece,) + tail for piece, tail in zip(pieces, tails))
    total = sum(rec[1] for rec in records)
    return Edge(target=UNSAFE, bound=min(1.0, total), method="unsafe", pieces=records)


def sink_edge(scenario, cell, dq, reach=None):
    """Edge to the unsafe sink: entering any obstacle or leaving the domain.

    Each unsafe piece gets its own edge tail from :func:`estimate_edges`,
    recorded as ``(piece, bound, q_lo, q_hi, method)``; the edge bound is
    their sum, capped at one.  ``reach`` is the cell's :class:`CellReach`,
    made when not given.
    """
    pieces = unsafe_pieces(scenario.workspace)
    reach = CellReach(scenario, cell) if reach is None else reach
    return sink_from_tails(pieces, estimate_edges(scenario, [reach], pieces, dq)[0])


def source_rows(scenario, cells, dq, targets, reaches=None):
    """All outgoing edges of each of ``cells``, one row per cell: every
    partition cell in index order, then the sink.  One
    :func:`estimate_edges` call covers every row, the partition and the
    unsafe pieces, so the prune LPs of all the rows run as one batch and
    their slack LPs as another.  ``targets`` is the build's
    :class:`RowTargets` and ``reaches`` the cells' :class:`CellReach`,
    made when not given."""
    if reaches is None:
        reaches = [CellReach(scenario, cell) for cell in cells]
    n = targets.num_cells
    return [[Edge(cell_node(j), *tail) for j, tail in enumerate(tails[:n])]
            + [sink_from_tails(targets.pieces, tails[n:])]
            for tails in estimate_edges(scenario, reaches, targets.regions, dq,
                                        aug_sets=targets.prune_sets)]


def build_graph(scenario, dq, jobs=1):
    """Estimate bounds for every ordered cell pair plus the sink edges.

    One :func:`source_rows` call estimates every source row; with ``jobs >
    1`` each worker process makes that call on one contiguous slice of the
    cells, and the rows come back in cell order.  The rows'
    :class:`RowTargets` are made once and shared by every row.  With one
    job the graph keeps each source cell's :class:`CellReach` (see
    :meth:`TransitionGraph.cell_reach`).  Any worker failure aborts the
    build; partial graphs are never returned.
    """
    n = scenario.num_cells
    targets = RowTargets(scenario, dq)
    reaches = {}
    if jobs > 1:
        parts = max(1, min(jobs, n))
        slices = [scenario.partition[n * p // parts:n * (p + 1) // parts] for p in range(parts)]
        with ProcessPoolExecutor(max_workers=parts) as pool:
            rows = [row for part in pool.map(source_rows, [scenario] * parts, slices,
                                             [dq] * parts, [targets] * parts)
                    for row in part]
    else:
        reaches = {cell_node(i): CellReach(scenario, cell)
                   for i, cell in enumerate(scenario.partition)}
        rows = source_rows(scenario, scenario.partition, dq, targets, list(reaches.values()))

    nodes = [cell_node(i) for i in range(n)] + [UNSAFE]
    edges = {cell_node(i): row for i, row in enumerate(rows)}
    edges[UNSAFE] = [Edge(UNSAFE, 1.0, q_lo=1.0, q_hi=1.0, method="fixed")]
    graph = TransitionGraph(nodes=nodes, edges=edges, dq=dq, reach=reaches)
    for node, row in graph.edges.items():
        for e in row:
            if not (dq - 1e-15 <= e.bound <= 1.0 + 1e-15):
                raise GraphError(f"edge {node}->{e.target} bound {e.bound} outside [dq, 1]")
    return graph.bind_scenario(scenario)


# --------------------------------------------------------------------------
# Persistence: a one-line JSON header with a checksum over the payload bytes,
# then the payload.  Each edge is stored with every field of its Edge,
# ``[source, target, bound, q_lo, q_hi, method, pieces]``, and each sink
# piece as ``[A, b, bound, q_lo, q_hi, method]``, so a loaded graph is the
# built one.  Floats round-trip bit-exactly through repr-style numbers.


def save_graph(graph):
    payload = json.dumps({
        "nodes": [str(v) for v in graph.nodes],
        "edges": [
            [str(source), str(e.target), e.bound, e.q_lo, e.q_hi, e.method,
             [[region.A.tolist(), region.b.tolist(), *record]
              for region, *record in e.pieces]]
            for source in sorted(graph.edges)
            for e in graph.edges[source]
        ],
    }, indent=0)
    header = {
        "format": GRAPH_FORMAT,
        "tool_version": TOOL_VERSION,
        "dq": graph.dq,
        "scenario_sha256": graph.scenario_sha256,
        "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }
    return json.dumps(header) + "\n" + payload


def _method(text):
    if text not in EDGE_METHODS:
        raise GraphError(f"unknown edge method {text!r}")
    return text


def _edge_from_doc(entry):
    """``(source, Edge)`` from one payload entry; raises :class:`GraphError`
    on a malformed one."""
    try:
        src, tgt, bound, q_lo, q_hi, method, pieces = entry
        pieces = tuple((Polytope(A, b), float(p_bound), float(p_lo), float(p_hi),
                        _method(p_method))
                       for A, b, p_bound, p_lo, p_hi, p_method in pieces)
        return parse_node(src), Edge(parse_node(tgt), float(bound), float(q_lo),
                                     float(q_hi), _method(method), pieces)
    except (TypeError, ValueError, GeometryError) as exc:
        raise GraphError(f"malformed edge entry: {exc}") from exc


def load_graph(text, scenario):
    """Parse a graph document written by :func:`save_graph` and bind it to
    its scenario.

    Verifies the format tag (:class:`GraphVersionError`; v1 and v2
    documents are rejected and must be rebuilt), the payload checksum
    (:class:`GraphChecksumError`), the payload's structure and every edge
    entry (:class:`GraphError`), and the scenario hash.  Every
    :class:`Edge` field is restored, so the loaded graph behaves like the
    built one.
    """
    head, sep, payload = text.partition("\n")
    if not sep:
        raise GraphChecksumError("document truncated before payload")
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise GraphError(f"unparseable graph header: {exc}") from exc
    if not isinstance(header, dict):
        raise GraphError("graph header must be a JSON object")
    if header.get("format") != GRAPH_FORMAT:
        raise GraphVersionError(f"unsupported graph format {header.get('format')!r}; "
                                f"rebuild the graph as {GRAPH_FORMAT}")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != header.get("payload_sha256"):
        raise GraphChecksumError("payload checksum mismatch (truncated or edited document)")
    try:
        body = json.loads(payload)
        nodes, entries = [parse_node(v) for v in body["nodes"]], list(body["edges"])
        dq = float(header["dq"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GraphError(f"malformed graph document: {exc!r}") from exc
    edges = {}
    for entry in entries:
        src, edge = _edge_from_doc(entry)
        edges.setdefault(src, []).append(edge)
    graph = TransitionGraph(nodes=nodes, edges=edges, dq=dq,
                            scenario_sha256=header.get("scenario_sha256", ""))
    return graph.bind_scenario(scenario)
