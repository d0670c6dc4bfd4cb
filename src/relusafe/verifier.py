"""Horizon propagation of safety-probability upper bounds.

Starting from the indicator of immediate unsafety, each horizon step bounds
the probability of reaching the unsafe sink within k+1 steps from the k-step
bounds of the neighbors.  Two tightenings are available on top of the plain
weighted sum:

* merging: two targets of an owner whose grown chance-constraint sets are
  disjoint can be replaced by a single virtual union target; no source state
  can transition to both with high probability, so the union edge carries
  ``max(max(b_i, b_j) + p, 2p)`` instead of ``b_i + b_j``.  A merge is
  applied only when it strictly lowers the owner's propagated sum, so the
  result is never worse than the plain recursion.
* normalization: true outgoing probabilities sum to one, so when edge
  bounds over-approximate (mass above one) the sum is truncated to the
  worst-ranked targets of total mass one, greedily filling the highest
  safety bounds first.

Merged nodes are per-step scratch: every horizon step restarts from the
original graph, and merged nodes carry no outgoing edges; only their bound,
the max over members, enters the recursion.

Merging needs a threshold ``p`` in (0, 0.5), the range of the union-bound
argument above.  ``verify`` decides the separation of every pair of cells
once per call (by intervals for pairs of box cells, by one batch of
emptiness LPs for the pairs they leave undecided) and stacks every owner's
row once on the arrays of a :class:`~relusafe.rowstack.RowStack`.  Owners
do not interact within a horizon step, so each step reads the node values
once and runs the greedy merge of all owners in lockstep, one merge per
owner and round, in blocks of owners under a fixed budget of target pairs;
the plain and normalized sums then read every row off the same arrays.
``naive_step``, ``tpn_step`` and ``merge_pass`` run the same code on a
stack of all rows or of one.
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import augmented_set, box_pairs, empty_intersections, unsafe_overlaps
from .graph import UNSAFE, cell_node
from .rowstack import MergeRecord, RowStack  # MergeRecord: verify's records, re-exported

MODES = ("naive", "merge", "tpn", "merge+tpn")


class VerifierError(Exception):
    pass


@dataclass
class SafetyBounds:
    """Per-horizon upper bounds: ``per_k[k][node]`` bounds reach-unsafe within k."""

    horizon: int
    merge_p: float | None
    mode: str
    per_k: list
    merges: list = field(default_factory=list)

    def value(self, k, node):
        return node_bound(self.per_k[k], node)

    def cell_nodes(self):
        return sorted(v for v in self.per_k[0] if v.kind == "cell")


def node_bound(bounds_k, node):
    """Bound of a node under the max-over-members rule for merged nodes."""
    if node.kind == "unsafe":
        return 1.0
    if node.kind == "merged":
        return max(bounds_k[cell_node(c)] for c in node.cells)
    return bounds_k[node]


def init_p0(scenario):
    """Horizon-zero bounds: one on cells that can touch the unsafe set."""
    unsafe = unsafe_overlaps([cell.region for cell in scenario.partition], scenario.workspace)
    bounds = {cell_node(i): 1.0 if hit else 0.0 for i, hit in enumerate(unsafe)}
    bounds[UNSAFE] = 1.0
    return bounds


def _check_merge_p(p):
    if not (0.0 < p < 0.5):
        raise VerifierError("merge threshold p must lie in (0, 0.5)")


def _separation(graph, p, cells):
    """Boolean matrix ``S[a, b]``: the grown chance sets of cells a and b are disjoint.

    Decided for every unordered pair of ``cells`` (cell indices) by
    :func:`relusafe.geometry.box_pairs`, and the pairs it leaves undecided
    by one batch of emptiness LPs, in which an LP that fails numerically
    reads "not separated" (no merge, so the bound stays conservative);
    rows and columns of other indices, and the diagonal, stay False.
    """
    cells = sorted(cells)
    size = cells[-1] + 1 if cells else 0
    sep = np.zeros((size, size), dtype=bool)
    grown = [augmented_set(graph.regions[cell_node(c)], p, graph.sigma) for c in cells]
    disjoint, overlapping, _ = box_pairs(grown, grown)
    disjoint = np.triu(disjoint, 1)
    undecided = np.nonzero(np.triu(~(disjoint | overlapping), 1))
    empty = empty_intersections([(grown[i], grown[j]) for i, j in zip(*undecided)])
    disjoint[undecided] = [verdict is True for verdict in empty]
    sep[np.ix_(cells, cells)] = disjoint | disjoint.T
    return sep


def naive_step(graph, bounds_k):
    """Plain weighted-sum propagation, clamped to [0, 1]."""
    return _propagate(graph, bounds_k, normalize=False)


def tpn_step(graph, bounds_k):
    """Normalized propagation; falls back to the plain sum at mass <= 1."""
    return _propagate(graph, bounds_k, normalize=True)


def _node_values(stack, bounds_k):
    return [node_bound(bounds_k, node) for node in stack.nodes]


def _propagate(graph, bounds_k, normalize):
    cells = graph.cell_nodes()
    stack = RowStack(cells, [graph.edges[v] for v in cells])
    values, _ = stack.step(_node_values(stack, bounds_k), normalize)
    out = dict(zip(cells, values))
    out[UNSAFE] = 1.0
    return out


def merge_pass(graph, owner, p, bounds_k):
    """Functional single-owner merge: returns (new_graph, records).

    The graph must carry cell regions and the noise vector (see
    ``TransitionGraph.bind_scenario``).  Merged target nodes get no outgoing
    edges; their safety bound is the max over members.  Surviving edges
    keep their row order, and each merged edge goes to the end of the row.
    """
    _check_merge_p(p)
    if graph.sigma is None or not graph.regions:
        raise VerifierError("graph lacks scenario bindings; call bind_scenario first")
    row = graph.edges[owner]
    stack = RowStack([owner], [row])
    sep = stack.separation(_separation(graph, p, {c for e in row for c in e.target.cells}))
    (merged,), records = stack.merge_rows(_node_values(stack, bounds_k), sep, p)
    new_graph = copy.copy(graph)
    new_graph.edges = {v: list(r) for v, r in graph.edges.items()}
    new_graph.edges[owner] = merged
    for rec in records:
        if rec.merged not in new_graph.nodes:
            new_graph.nodes = list(new_graph.nodes) + [rec.merged]
    return new_graph, records


def verify(graph, scenario, horizon, p=0.01, mode="merge+tpn"):
    """Propagate bounds to the given horizon under the chosen mode.

    Modes: "naive" (plain sum), "merge" (merging + plain sum), "tpn"
    (normalized sum), "merge+tpn" (both).  The merge modes need
    ``0 < p < 0.5``; the others ignore ``p``.  Each horizon step starts from
    the original rows, merges every owner's row to its fixpoint where
    enabled, then propagates for every original cell.  A step is a function
    of the previous step's bounds alone, so once two consecutive horizons
    agree on every node the later steps repeat the last one, and are copied.
    """
    if mode not in MODES:
        raise VerifierError(f"unknown mode {mode!r}; expected one of {MODES}")
    if horizon < 0:
        raise VerifierError("horizon must be >= 0")
    do_merge = mode in ("merge", "merge+tpn")
    if do_merge:
        _check_merge_p(p)
    if graph.sigma is None or not graph.regions:
        graph.bind_scenario(scenario)
    normalize = mode in ("tpn", "merge+tpn")

    per_k = [init_p0(scenario)]
    merges = []
    cells = graph.cell_nodes()
    stack = RowStack(cells, [graph.edges[v] for v in cells])
    sep = None
    if do_merge and horizon > 0:
        sep = stack.separation(_separation(graph, p, [v.cells[0] for v in cells]))
    # A cell that can already be unsafe at step zero stays at one: some of
    # its states have hit the unsafe set before any transition, and the
    # within-horizon event only accumulates.
    pinned = [per_k[0][v] >= 1.0 for v in cells]
    records = []
    for k in range(1, horizon + 1):
        prev = per_k[-1]
        if k > 1 and prev == per_k[-2]:
            per_k.append(dict(prev))
            records = [replace(rec, horizon=k) for rec in records]
        else:
            values, records = stack.step(_node_values(stack, prev), normalize, sep, p,
                                         horizon=k)
            new = {v: 1.0 if pin else value for v, pin, value in zip(cells, pinned, values)}
            new[UNSAFE] = 1.0
            per_k.append(new)
        merges.extend(records)
    return SafetyBounds(horizon=horizon, merge_p=p if do_merge else None,
                        mode=mode, per_k=per_k, merges=merges)


# --------------------------------------------------------------------------
# CSV form: rows (cell_id, k, bound) with the partition's cell ids.


def bounds_to_csv(bounds, scenario):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["cell_id", "k", "bound"])
    for node in bounds.cell_nodes():
        cid = scenario.partition[node.cells[0]].id
        for k in range(bounds.horizon + 1):
            writer.writerow([cid, k, repr(bounds.per_k[k][node])])
    return buf.getvalue()


def bounds_from_csv(text, scenario, mode="unknown", merge_p=None):
    index = {cell.id: i for i, cell in enumerate(scenario.partition)}
    per_k = {}
    reader = csv.DictReader(io.StringIO(text))
    for row in reader:
        if row["cell_id"] not in index:
            raise VerifierError(f"unknown cell id {row['cell_id']!r} in bounds file")
        k = int(row["k"])
        per_k.setdefault(k, {})[cell_node(index[row["cell_id"]])] = float(row["bound"])
    if not per_k or sorted(per_k) != list(range(max(per_k) + 1)):
        raise VerifierError("bounds file has missing horizons")
    horizon = max(per_k)
    out = []
    for k in range(horizon + 1):
        level = per_k[k]
        if len(level) != scenario.num_cells:
            raise VerifierError(f"bounds file incomplete at horizon {k}")
        level[UNSAFE] = 1.0
        out.append(level)
    return SafetyBounds(horizon=horizon, merge_p=merge_p, mode=mode, per_k=out)
