"""Rows of a transition graph stacked on arrays, and one horizon step of
every row at once.

:class:`RowStack` holds the rows (lists of :class:`~relusafe.graph.Edge`)
of a list of owners on arrays of one padded width.  A step
(:meth:`RowStack.step`) merges the targets of every row greedily to its
fixpoint, all rows in lockstep with one merge per row and round, then reads
each row's plain weighted sum, or its normalized (truncated) sum, off the
same arrays.  Values and merge records equal those of the scalar row
formulas bit for bit: sums run left to right as cumulative sums, and ties
break by the order of :class:`~relusafe.graph.NodeId`.
:mod:`relusafe.verifier` drives the steps over the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import NodeId, merged_node

# Most target pairs (owners x pairs per row) one block of the lockstep merge
# scores at once: a block's score array and each temporary of its size stay
# within 128 KiB of float64, the C allocator's default mmap threshold.  On
# demo5, blocks of 151 KiB arrays raised the benchmark's peak RSS by 0.3-0.6 MB.
_PAIR_BUDGET = 1 << 14
# NodeId orders by kind first: "cell" < "merged" < "unsafe".
_KIND_RANK = {"cell": 0, "merged": 1, "unsafe": 2}


@dataclass(frozen=True, slots=True)
class MergeRecord:
    owner: NodeId
    members: tuple        # the two replaced target nodes
    merged: NodeId
    new_bound: float
    horizon: int


def _union_bound(bx, by, p):
    """Edge bound of the virtual union of two separated targets."""
    return np.minimum(1.0, np.maximum(np.maximum(bx, by) + p, 2.0 * p))


def _pair_slack(bx, vx, by, vy, p):
    """Drop of the owner's propagated sum when targets x and y are merged.

    Products and differences are taken in place, so at most two arrays of
    the broadcast shape are alive at once.
    """
    slack = _union_bound(bx, by, p)
    slack *= np.maximum(vx, vy)
    return np.subtract(bx * vx + by * vy, slack, out=slack)


def _clamp(values):
    """``min(1, max(0, value))`` elementwise, with Python's choice on ties."""
    values = np.where(values > 0.0, values, 0.0)
    return np.where(values < 1.0, values, 1.0)


class RowStack:
    """The rows of a list of owners, stacked on arrays of one padded width.

    Each target of a row owns a slot: its edge bound, its index into
    :attr:`nodes` (node values are gathered from one vector per step), its
    position in the row and its :meth:`order_key`.  Each row holds distinct
    cell targets and at most one sink, so the targets of a row, and the
    merged targets a step forms from them, share no cell: the key gives the
    order of :class:`NodeId`, ``(kind, cells)``, and ties nowhere.  Padding
    slots have bound zero, point at a last node of value zero and hold the
    position :attr:`empty`.  A row of ``width`` slots merges at most
    ``width - 1`` times, so its positions stay below ``empty = 2 * width - 1``.

    A pair of slots ``s < t`` owns one column of a block's score array:
    ``pair[s, t]``.  A last column, the sentinel pair (0, 0), is never a
    candidate and is ``pair[s, s]``.

    Nothing here sorts: row order and rank order come from scattering by
    position or rank, which also keeps numpy's sort kernels out of memory.
    """

    def __init__(self, owners, rows):
        self.owners = owners
        self.rows = rows
        self.nodes = list(dict.fromkeys(e.target for row in rows for e in row))
        index = {node: i for i, node in enumerate(self.nodes)}
        self.base = 1 + max((c for node in self.nodes for c in node.cells), default=0)
        width = max([1] + [len(row) for row in rows])
        shape = (len(rows), width)
        self.bound = np.zeros(shape)
        self.node = np.full(shape, len(self.nodes))
        self.empty = 2 * width - 1
        self.pos = np.full(shape, self.empty)
        for o, row in enumerate(rows):
            self.bound[o, :len(row)] = [e.bound for e in row]
            self.node[o, :len(row)] = [index[e.target] for e in row]
            self.pos[o, :len(row)] = np.arange(len(row))
        self.key = np.array([self.order_key(node) for node in self.nodes] + [0])[self.node]
        upper_i, upper_j = np.triu_indices(width, 1)
        self.pair_i, self.pair_j = np.append(upper_i, 0), np.append(upper_j, 0)
        self.pair = np.full((width, width), upper_i.size)
        self.pair[upper_i, upper_j] = self.pair[upper_j, upper_i] = np.arange(upper_i.size)
        self.block = max(1, _PAIR_BUDGET // self.pair_i.size)
        self._merged = {}

    def order_key(self, node):
        """``kind rank * base + first cell``, an integer."""
        return _KIND_RANK[node.kind] * self.base + (node.cells[0] if node.cells else 0)

    def merged(self, x, y):
        """The node that replaces targets ``x`` and ``y``, and its order key.

        Memoized per pair: many rows and steps merge the same two targets.
        """
        found = self._merged.get((x, y))
        if found is None:
            node = merged_node(x.cells + y.cells)
            found = self._merged[x, y] = (node, self.order_key(node))
        return found

    def separation(self, sep):
        """Separation of :attr:`nodes` gathered from the cell matrix ``sep``,
        with a last row and column for the padding node; the unsafe sink
        and the padding node are separated from nothing."""
        nothing = len(sep)
        cells = [node.cells[0] if node.kind == "cell" else nothing for node in self.nodes]
        return np.pad(sep, (0, 1))[np.ix_(cells + [nothing], cells + [nothing])]

    def step(self, values, normalize, sep=None, p=None, horizon=0):
        """One horizon step of every row from ``values``, the value of each
        of :attr:`nodes`, block by block of owners: (row values in owner
        order, merge records).  Rows merge first when ``sep`` (from
        :meth:`separation`) is given."""
        values = np.append(np.asarray(values, dtype=float), 0.0)
        row_values, records = [], []
        for lo in range(0, len(self.rows), self.block):
            block = _Block(self, slice(lo, lo + self.block), values)
            if sep is not None:
                records += block.merge(sep, p, horizon)
            row_values += block.values(normalize).tolist()
        return row_values, records


class _Block:
    """One step's mutable state of a block of owners' rows (see :class:`RowStack`)."""

    def __init__(self, stack, part, values):
        self.stack = stack
        self.owners = stack.owners[part]
        self.node = stack.node[part]
        self.bound = stack.bound[part].copy()
        self.value = values[self.node]
        self.key = stack.key[part].copy()
        self.pos = stack.pos[part].copy()
        self.targets = [[e.target for e in row] for row in stack.rows[part]]

    def merge(self, sep, p, horizon):
        """Greedy merging of every row to its fixpoint, in lockstep.

        A candidate pair has separated targets and a strictly positive slack
        (a strict improvement of the owner's propagated sum).  Each round
        applies the best candidate of every row that has one: the largest
        slack, ties to the larger ``(target_x, target_y)`` with x before y
        in row order.  The merged target takes x's slot and goes to the end
        of the row; y's slot empties.  A row without a candidate is done,
        since only its own merges change its scores.  ``score`` holds each
        pair's slack where the pair is separated and -inf elsewhere, so a
        merged target's separation is read off its members' scores.
        Returns the merge records, row by row.
        """
        b, v, pos, stack = self.bound, self.value, self.pos, self.stack
        i, j = stack.pair_i, stack.pair_j
        score = _pair_slack(b[:, i], v[:, i], b[:, j], v[:, j], p)
        score[~sep[self.node[:, i], self.node[:, j]]] = -np.inf
        rows = np.arange(len(b))
        records = [[] for _ in self.owners]
        end = b.shape[1]   # row position of the next merged target
        while True:
            best = score.max(axis=1)
            busy = best > 0.0
            if not busy.all():
                score, rows, best = score[busy], rows[busy], best[busy]
                if not rows.size:
                    break
            x, y = self._pick(score, rows, best)
            r = np.arange(rows.size)[:, None]
            at_x, at_y = stack.pair[x], stack.pair[y]   # x's (y's) pair with each slot
            new = _union_bound(b[rows, x], b[rows, y], p)
            vz = np.maximum(v[rows, x], v[rows, y])
            joint = (score[r, at_x] > -np.inf) & (score[r, at_y] > -np.inf)
            b[rows, x], v[rows, x], pos[rows, x] = new, vz, end
            b[rows, y], v[rows, y], pos[rows, y] = 0.0, 0.0, stack.empty
            end += 1
            slack = np.where(joint, _pair_slack(b[rows], v[rows], new[:, None],
                                                vz[:, None], p), -np.inf)
            score[r, at_x] = slack
            score[r, at_y] = -np.inf
            for o, xs, ys, bound in zip(rows.tolist(), x.tolist(), y.tolist(), new.tolist()):
                targets = self.targets[o]
                node, self.key[o, xs] = stack.merged(targets[xs], targets[ys])
                records[o].append(MergeRecord(owner=self.owners[o],
                                              members=(targets[xs], targets[ys]),
                                              merged=node, new_bound=bound, horizon=horizon))
                targets[xs], targets[ys] = node, None
        return [rec for recs in records for rec in recs]

    def _pick(self, score, rows, best):
        """Slots ``(x, y)``, x first in row order, of each busy row's best
        candidate, ``score`` and ``best`` being those rows' own."""
        pos = self.pos[rows]
        o, q = np.nonzero(score == best[:, None])
        i, j = self.stack.pair_i[q], self.stack.pair_j[q]
        ordered = pos[o, i] < pos[o, j]
        i, j = np.where(ordered, i, j), np.where(ordered, j, i)
        pair = self.key[rows[o], i] * (len(_KIND_RANK) * self.stack.base) + self.key[rows[o], j]
        # Candidates come grouped by row, and every busy row has one.
        starts = np.flatnonzero(np.append(True, o[1:] != o[:-1]))
        top = np.flatnonzero(pair == np.maximum.reduceat(pair, starts)[o])
        x, y = np.empty_like(rows), np.empty_like(rows)
        x[o[top]], y[o[top]] = i[top], j[top]
        return x, y

    def values(self, normalize):
        """Each row's propagated value, clamped to [0, 1]: the weighted sum
        in row order or, under ``normalize``, the truncated sum of a row whose
        edge mass exceeds one.  Sums run left to right like Python's ``sum``
        (a cumulative sum; empty slots and positions add zeros)."""
        line = np.arange(len(self.pos))[:, None]
        mass = np.zeros((len(self.pos), self.stack.empty + 1))
        terms = np.zeros_like(mass)
        mass[line, self.pos] = self.bound
        terms[line, self.pos] = self.bound * self.value
        out = np.cumsum(terms, axis=1)[:, -1]
        if normalize:
            heavy = np.flatnonzero(np.cumsum(mass, axis=1)[:, -1] > 1.0)
            if heavy.size:
                out[heavy] = self._truncated(heavy)
        return _clamp(out)

    def _truncated(self, rows):
        """Normalized value of rows whose edge mass exceeds one.

        Targets rank by (value, order key): a target's rank counts the
        targets below it, and the ranked arrays hold zeros after the top
        target (empty slots land in the last column).  The run of
        top-ranked targets (never the lowest) whose bounds sum to at most
        one keeps its weights, summed top down; the target just below it,
        the pivot, takes the mass left over; lower targets drop.
        """
        b, v, key = self.bound[rows], self.value[rows], self.key[rows]
        live = self.pos[rows] != self.stack.empty
        below = (v[:, None, :] < v[:, :, None]) | ((v[:, None, :] == v[:, :, None])
                                                    & (key[:, None, :] < key[:, :, None]))
        width = b.shape[1]
        rank = np.where(live, np.count_nonzero(below & live[:, None, :], axis=2), width)
        line = np.arange(len(rows))
        w = np.zeros((len(rows), width + 1))
        ranked = np.zeros_like(w)
        w[line[:, None], rank] = b
        ranked[line[:, None], rank] = v
        top_mass = np.cumsum(w[:, ::-1], axis=1)[:, ::-1]
        slot = np.arange(width + 1)
        over = (top_mass > 1.0) | (slot == 0)
        pivot = width - np.argmax(over[:, ::-1], axis=1)
        tail = np.cumsum(np.where(slot > pivot[:, None], w * ranked, 0.0), axis=1)[:, -1]
        return tail + (1.0 - top_mass[line, pivot + 1]) * ranked[line, pivot]
