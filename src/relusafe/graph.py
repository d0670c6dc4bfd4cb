"""Transition graph with per-edge upper bounds on one-step probabilities.

For an ordered cell pair the bound is the smallest threshold q on a dyadic
grid at which the reach query against the target's augmented set is
unsatisfiable: then no state of the source cell transitions with
probability >= q.  The grid is the one a bisection of [0, 1] down to width
dq visits, and the query's verdict at each grid point comes from the source
cell's affine pieces (:func:`relusafe.smc.affine_pieces`): satisfiable
exactly when the largest noise-normalised target slack ``z*`` the pieces
reach is at least ``gaussian_quantile(q)``.  A grid point within numerical
tolerance of ``z*`` is decided by the exact reach-query oracle
:func:`relusafe.smc.solve` instead, so every bracket is the one a bisection
driven by that oracle returns.  The pieces are enumerated once per source
cell and serve every target of its row.

A cheap interval-arithmetic reach-box filter skips pairs whose bound would
bottom out anyway; filtered pairs keep an edge at the precision floor
rather than being dropped, since unsatisfiability proves smallness, never
impossibility.

Every cell also gets an edge to the absorbing unsafe sink, bounding the
one-step probability of entering an obstacle or leaving the domain; the sink
carries a self-loop of weight one, which makes downstream horizon bounds
cover "reach unsafe within k steps".
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import smc
from .geometry import (Polytope, augmented_set, gaussian_quantile, is_empty_intersection,
                       outside_facets)
from .linprog import LpNumericalError
from .scenario import scenario_sha256

GRAPH_FORMAT = "relusafe-graph-v1"
TOOL_VERSION = "0.1.0"
# Outward padding of every reach box, against rounding in its interval bounds.
REACH_BOX_INFLATE = 1e-9


class GraphError(Exception):
    pass


class GraphChecksumError(GraphError):
    pass


class GraphVersionError(GraphError):
    pass


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

    ``q_lo``/``q_hi`` are the final grid bracket (satisfiable /
    unsatisfiable thresholds, replayable through :func:`relusafe.smc.solve`);
    ``method`` is "smc" for bracketed pairs,
    "pruned" for reach-box filtered pairs and "fixed" for the sink self-loop.
    ``pieces`` carries the per-piece records of a sink edge.
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
    q_threshold_floor: float
    scenario_sha256: str = ""
    regions: dict = field(default_factory=dict)   # NodeId -> Polytope (cell nodes)
    sigma: np.ndarray | None = None

    def edge(self, source, target):
        for e in self.edges.get(source, []):
            if e.target == target:
                return e
        return None

    def cell_nodes(self):
        return [v for v in self.nodes if v.kind == "cell"]

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


def bisection_floor(dq):
    """Smallest value the threshold grid can return: 2^-ceil(log2(1/dq))."""
    if not (0.0 < dq < 1.0):
        raise ValueError("dq must lie in (0,1)")
    return 2.0 ** (-math.ceil(math.log2(1.0 / dq)))


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


def _prune_against(scenario, box, region, dq):
    floor = bisection_floor(dq)
    aug = augmented_set(region, floor, scenario.dynamics.sigma)
    try:
        return is_empty_intersection(box, aug)
    except LpNumericalError:
        return False  # undecided: bracket the pair instead


def prune_test(scenario, cell_i, cell_j, dq):
    """True only when the pair's bound is guaranteed to bottom out.

    The interval reach box of cell_i is tested for emptiness against the
    target's augmented set at the grid floor; emptiness makes every reach
    query on the grid unsatisfiable, so the transition probability of every
    source state is below dq and the grid walk would have returned its
    minimum value.
    """
    return _prune_against(scenario, reach_box(scenario, cell_i), cell_j.region, dq)


def _grid_bracket(reach, region, dq):
    """(q_lo, q_hi) on the dyadic threshold grid, as a bisection returns it.

    q_hi is unsatisfiable (or 1.0 untested), q_lo satisfiable (or 0.0), and
    q_hi - q_lo <= dq.  Each verdict compares ``z*`` with the threshold's
    quantile; within :func:`relusafe.smc.slack_tolerance` of ``z*`` it is
    the oracle's, with "unknown" counted as satisfiable.
    """
    scenario, cell = reach.scenario, reach.cell
    sigma = scenario.dynamics.sigma
    z_star = smc.max_slack(reach.pieces, region, sigma)[0]
    tol = smc.slack_tolerance(region, sigma)
    problem = None
    q_lo, q_hi = 0.0, 1.0
    while q_hi - q_lo > dq:
        q = 0.5 * (q_lo + q_hi)
        z = gaussian_quantile(q)
        if abs(z_star - z) > tol:
            sat = z_star > z
        else:
            if problem is None:
                problem = smc.build_encoding(scenario, cell, region)
            sat = smc.solve(problem.with_target(augmented_set(region, q, sigma))).is_sat
        if sat:
            q_lo = q
        else:
            q_hi = q
    return q_lo, q_hi


def estimate_edge(scenario, cell, region, dq, reach=None):
    """Bound the one-step probability from ``cell`` into ``region``.

    The one prune-or-bracket decision: a pair the reach box prunes returns
    ``(dq, 0.0, dq, "pruned")``, any other ``(max(q_hi, dq), q_lo, q_hi,
    "smc")`` from the threshold grid.  The tuple is the tail of an
    :class:`Edge`.  ``reach`` is the cell's :class:`CellReach`, built when
    not given; passing one shares its pieces across a row.
    """
    if reach is None:
        reach = CellReach(scenario, cell)
    if _prune_against(scenario, reach.box, region, dq):
        return dq, 0.0, dq, "pruned"
    q_lo, q_hi = _grid_bracket(reach, region, dq)
    return max(q_hi, dq), q_lo, q_hi, "smc"


def estimate_bound(scenario, cell_i, cell_j, dq):
    """Upper bound on the worst-case one-step probability from cell_i to
    cell_j: the ``q_hi`` that :func:`estimate_edge` brackets, without its
    prune test, so a pruned pair reads the grid floor rather than dq."""
    return _grid_bracket(CellReach(scenario, cell_i), cell_j.region, dq)[1]


def unsafe_pieces(workspace):
    """Convex decomposition of the unsafe set, in state space.

    One piece per obstacle (lifted through the position projection) and one
    per reversed domain halfspace.
    """
    return list(workspace.lifted_obstacles()) + outside_facets(workspace.domain, 0.0)


def sink_edge(scenario, cell, dq, reach=None):
    """Edge to the unsafe sink: entering any obstacle or leaving the domain.

    Each unsafe piece gets its own :func:`estimate_edge`, recorded as
    ``(piece, bound, q_lo, q_hi, method)``; the edge bound is their sum,
    capped at one.
    """
    if reach is None:
        reach = CellReach(scenario, cell)
    records = tuple((piece,) + estimate_edge(scenario, cell, piece, dq, reach)
                    for piece in unsafe_pieces(scenario.workspace))
    total = sum(rec[1] for rec in records)
    return Edge(target=UNSAFE, bound=min(1.0, total), method="unsafe", pieces=records)


def source_row(scenario, cell, dq):
    """All outgoing edges of one source cell: every partition cell in index
    order, then the sink.  The cell's affine pieces are enumerated once
    and shared by the whole row."""
    reach = CellReach(scenario, cell)
    row = [Edge(cell_node(j), *estimate_edge(scenario, cell, target.region, dq, reach))
           for j, target in enumerate(scenario.partition)]
    row.append(sink_edge(scenario, cell, dq, reach))
    return row


def build_graph(scenario, dq, jobs=1):
    """Estimate bounds for every ordered cell pair plus the sink edges.

    Pair estimation is independent per source cell; with ``jobs > 1`` the
    source rows fan out to worker processes and come back in cell order.
    Any worker failure aborts the build; partial graphs are never returned.
    """
    n = scenario.num_cells
    args = ([scenario] * n, scenario.partition, [dq] * n)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(source_row, *args))
    else:
        rows = list(map(source_row, *args))

    nodes = [cell_node(i) for i in range(n)] + [UNSAFE]
    edges = {cell_node(i): row for i, row in enumerate(rows)}
    edges[UNSAFE] = [Edge(UNSAFE, 1.0, q_lo=1.0, q_hi=1.0, method="fixed")]
    graph = TransitionGraph(
        nodes=nodes, edges=edges, dq=dq,
        q_threshold_floor=bisection_floor(dq),
    )
    for node, row in graph.edges.items():
        for e in row:
            if not (dq - 1e-15 <= e.bound <= 1.0 + 1e-15):
                raise GraphError(f"edge {node}->{e.target} bound {e.bound} outside [dq, 1]")
    return graph.bind_scenario(scenario)


# --------------------------------------------------------------------------
# Persistence: a one-line JSON header with a checksum over the payload bytes,
# then the payload.  Bounds round-trip bit-exactly through repr-style floats.


def save_graph(graph):
    payload = json.dumps({
        "nodes": [str(v) for v in graph.nodes],
        "edges": [
            [str(source), str(e.target), e.bound]
            for source in sorted(graph.edges)
            for e in graph.edges[source]
        ],
    }, indent=0)
    header = {
        "format": GRAPH_FORMAT,
        "tool_version": TOOL_VERSION,
        "dq": graph.dq,
        "q_threshold_floor": graph.q_threshold_floor,
        "scenario_sha256": graph.scenario_sha256,
        "payload_sha256": hashlib.sha256(payload.encode()).hexdigest(),
    }
    return json.dumps(header) + "\n" + payload


def load_graph(text, scenario=None):
    """Parse a graph document, verifying version and checksum.

    Loaded edges carry only (source, target, bound); bracket metadata is
    not persisted.  Passing the owning scenario re-binds cell regions and
    validates the scenario hash.
    """
    head, sep, payload = text.partition("\n")
    if not sep:
        raise GraphChecksumError("document truncated before payload")
    try:
        header = json.loads(head)
    except json.JSONDecodeError as exc:
        raise GraphError(f"unparseable graph header: {exc}") from exc
    if header.get("format") != GRAPH_FORMAT:
        raise GraphVersionError(f"unsupported graph format {header.get('format')!r}")
    digest = hashlib.sha256(payload.encode()).hexdigest()
    if digest != header.get("payload_sha256"):
        raise GraphChecksumError("payload checksum mismatch (truncated or edited document)")
    body = json.loads(payload)
    edges = {}
    for src_text, tgt_text, bound in body["edges"]:
        src, tgt = parse_node(src_text), parse_node(tgt_text)
        method = "fixed" if src == UNSAFE else ("smc" if tgt != UNSAFE else "unsafe")
        edges.setdefault(src, []).append(Edge(tgt, float(bound), method=method))
    graph = TransitionGraph(
        nodes=[parse_node(v) for v in body["nodes"]],
        edges=edges,
        dq=float(header["dq"]),
        q_threshold_floor=float(header["q_threshold_floor"]),
        scenario_sha256=header.get("scenario_sha256", ""),
    )
    if scenario is not None:
        graph.bind_scenario(scenario)
    return graph
