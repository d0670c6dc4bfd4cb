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
once per call (by intervals for pairs of box cells, by one emptiness LP for
each pair they leave undecided), then merges each owner's row on its own:
owners do not interact within a horizon step, so one greedy pass per owner
reaches the fixpoint.  The greedy step works on arrays over the row
(bounds, node values, group separation, pair slack).
"""

from __future__ import annotations

import copy
import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .geometry import augmented_set, box_pairs, is_empty_intersection, unsafe_overlaps
from .graph import UNSAFE, Edge, NodeId, cell_node, merged_node

MODES = ("naive", "merge", "tpn", "merge+tpn")


class VerifierError(Exception):
    pass


@dataclass(frozen=True)
class MergeRecord:
    owner: NodeId
    members: tuple        # the two replaced target nodes
    merged: NodeId
    new_bound: float
    horizon: int


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


def _naive_value(row, bounds_k):
    total = sum(e.bound * node_bound(bounds_k, e.target) for e in row)
    return min(1.0, max(0.0, total))


def _tpn_value(row, bounds_k):
    mass = sum(e.bound for e in row)
    if mass <= 1.0:
        return _naive_value(row, bounds_k)
    ranked = sorted(
        ((node_bound(bounds_k, e.target), e.target, e.bound) for e in row),
        key=lambda item: (item[0], item[1].kind, item[1].cells),
    )
    n = len(ranked)
    # Largest suffix of worst-ranked targets whose edge mass still fits in 1.
    suffix = 0.0
    m_hat = n  # 1-indexed position whose bound absorbs the leftover mass
    for i in range(n - 1, 0, -1):
        if suffix + ranked[i][2] > 1.0:
            break
        suffix += ranked[i][2]
        m_hat = i
    m_hat -= 1  # index of kappa(m_hat) in 0-based terms
    value = sum(pk * w for pk, _, w in ranked[m_hat + 1:])
    value += (1.0 - suffix) * ranked[m_hat][0]
    return min(1.0, max(0.0, value))


def naive_step(graph, bounds_k):
    """Plain weighted-sum propagation, clamped to [0, 1]."""
    out = {v: _naive_value(graph.edges[v], bounds_k) for v in graph.cell_nodes()}
    out[UNSAFE] = 1.0
    return out


def tpn_step(graph, bounds_k):
    """Normalized propagation; falls back to the plain sum at mass <= 1."""
    out = {v: _tpn_value(graph.edges[v], bounds_k) for v in graph.cell_nodes()}
    out[UNSAFE] = 1.0
    return out


def _check_merge_p(p):
    if not (0.0 < p < 0.5):
        raise VerifierError("merge threshold p must lie in (0, 0.5)")


def _separation(graph, p, cells):
    """Boolean matrix ``S[a, b]``: the grown chance sets of cells a and b are disjoint.

    Decided for every unordered pair of ``cells`` (cell indices) by
    :func:`relusafe.geometry.box_pairs`, with one emptiness LP per pair it
    leaves undecided; rows and columns of other indices, and the diagonal,
    stay False.
    """
    cells = sorted(cells)
    size = cells[-1] + 1 if cells else 0
    sep = np.zeros((size, size), dtype=bool)
    grown = [augmented_set(graph.regions[cell_node(c)], p, graph.sigma) for c in cells]
    disjoint, overlapping, _ = box_pairs(grown, grown)
    disjoint = np.triu(disjoint, 1)
    for i, j in zip(*np.nonzero(np.triu(~(disjoint | overlapping), 1))):
        disjoint[i, j] = is_empty_intersection(grown[i], grown[j])
    sep[np.ix_(cells, cells)] = disjoint | disjoint.T
    return sep


def _group_separation(sep, groups):
    """``G[i, j]``: every cell of group i is separated from every cell of group j."""
    flat = [c for g in groups for c in g]
    starts = np.cumsum([0] + [len(g) for g in groups[:-1]])
    cell_level = sep[np.ix_(flat, flat)]
    return np.logical_and.reduceat(np.logical_and.reduceat(cell_level, starts, axis=0),
                                   starts, axis=1)


def _union_bound(bx, by, p):
    """Edge bound of the virtual union of two separated targets."""
    return np.minimum(1.0, np.maximum(np.maximum(bx, by) + p, 2.0 * p))


def _pair_slack(bx, vx, by, vy, p):
    """Drop of the owner's propagated sum when targets x and y are merged."""
    return bx * vx + by * vy - _union_bound(bx, by, p) * np.maximum(vx, vy)


def _merge_owner(row, owner, p, bounds_k, sep, horizon):
    """Greedy merging of one owner's targets to a local fixpoint.

    ``row`` is mutated in place; ``sep`` is the cell separation matrix of
    :func:`_separation`.  A candidate pair must have separated groups and a
    strictly positive slack (a strict improvement of the owner's propagated
    sum).  The largest slack is applied first; ties go to the larger
    ``(target_x, target_y)``, x before y in row order.  The merged edge goes to
    the end of the row.  Returns the merge records.

    Every target, original or merged, owns one slot of the arrays: bound
    ``b``, node value ``v`` (max over members), group separation ``G`` (False
    for the unsafe sink and for replaced targets) and pair slack.  Merged
    targets take fresh slots in creation order, so slot order is row order.
    """
    n = len(row)
    targets = [e.target for e in row]
    groups = [i for i, t in enumerate(targets) if t.kind != "unsafe"]
    if len(groups) < 2:
        return []
    size = 2 * n - 1
    b = np.zeros(size)
    v = np.zeros(size)
    b[:n] = [e.bound for e in row]
    v[:n] = [node_bound(bounds_k, t) for t in targets]
    G = np.zeros((size, size), dtype=bool)
    G[np.ix_(groups, groups)] = _group_separation(sep, [targets[i].cells for i in groups])
    slack = _pair_slack(b[:, None], v[:, None], b, v, p)
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    slots = list(range(n))    # row position -> slot
    records = []
    while True:
        score = np.where(G, slack, -np.inf)
        best = score.max()
        if not best > 0.0:
            return records
        ties = zip(*np.nonzero((score == best) & upper))
        x, y = max(ties, key=lambda xy: (targets[xy[0]], targets[xy[1]]))
        z = len(targets)
        node = merged_node(targets[x].cells + targets[y].cells)
        new_bound = float(_union_bound(b[x], b[y], p))
        b[z] = new_bound
        v[z] = max(v[x], v[y])
        G[z] = G[:, z] = G[x] & G[y]
        G[[x, y]] = False
        G[:, [x, y]] = False
        slack[z] = slack[:, z] = _pair_slack(b, v, b[z], v[z], p)
        targets.append(node)
        del row[slots.index(y)], row[slots.index(x)]
        slots.remove(x)
        slots.remove(y)
        slots.append(z)
        row.append(Edge(target=node, bound=new_bound, method="merged"))
        records.append(MergeRecord(owner=owner, members=(targets[x], targets[y]),
                                   merged=node, new_bound=new_bound, horizon=horizon))


def merge_pass(graph, owner, p, bounds_k):
    """Functional single-owner merge: returns (new_graph, records).

    The graph must carry cell regions and the noise vector (see
    ``TransitionGraph.bind_scenario``).  Merged target nodes get no outgoing
    edges; their safety bound is the max over members.
    """
    _check_merge_p(p)
    if graph.sigma is None or not graph.regions:
        raise VerifierError("graph lacks scenario bindings; call bind_scenario first")
    new_graph = copy.copy(graph)
    new_graph.edges = {v: list(r) for v, r in graph.edges.items()}
    row = new_graph.edges[owner]
    sep = _separation(new_graph, p, {c for e in row for c in e.target.cells})
    records = _merge_owner(row, owner, p, bounds_k, sep, horizon=0)
    for rec in records:
        if rec.merged not in new_graph.nodes:
            new_graph.nodes = list(new_graph.nodes) + [rec.merged]
    return new_graph, records


def verify(graph, scenario, horizon, p=0.01, mode="merge+tpn"):
    """Propagate bounds to the given horizon under the chosen mode.

    Modes: "naive" (plain sum), "merge" (merging + plain sum), "tpn"
    (normalized sum), "merge+tpn" (both).  The merge modes need
    ``0 < p < 0.5``; the others ignore ``p``.  Each horizon step copies the
    original graph, merges each owner's row to its fixpoint where enabled,
    then propagates for every original cell.
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
    value_fn = _tpn_value if mode in ("tpn", "merge+tpn") else _naive_value

    per_k = [init_p0(scenario)]
    merges = []
    cells = graph.cell_nodes()
    if do_merge and horizon > 0:
        sep = _separation(graph, p, [v.cells[0] for v in cells])
    for k in range(1, horizon + 1):
        prev = per_k[-1]
        work = {v: list(graph.edges[v]) for v in cells}
        if do_merge:
            # Owners do not interact within a step: each row reaches its
            # fixpoint in one call.
            for owner in cells:
                merges.extend(_merge_owner(work[owner], owner, p, prev, sep, horizon=k))
        # A cell that can already be unsafe at step zero stays at one: some
        # of its states have hit the unsafe set before any transition, and
        # the within-horizon event only accumulates.
        new = {v: 1.0 if per_k[0][v] >= 1.0 else value_fn(work[v], prev)
               for v in cells}
        new[UNSAFE] = 1.0
        per_k.append(new)
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
