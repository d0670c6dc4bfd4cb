"""One-step reach through the ReLU closed loop: affine pieces and an exact oracle.

A reach query asks: does some mean state in a source cell have its
noise-free closed-loop successor inside a chance-constrained target
polytope?  Every hidden neuron takes one of two branches:

    active:    h = t  and  t >= 0
    inactive:  h = 0  and  t <= -EPS_STRICT

Strict inequalities are relaxed by ``EPS_STRICT``; the relaxation only
enlarges the feasible set, so unsatisfiable verdicts remain sound for the
upper bounds computed downstream.  Interval propagation over the cell's
bounding box pre-forces neurons whose branch could never be taken
(:func:`presolve_branches`).

Affine pieces (what the transition graph uses).  Once every neuron's branch
is fixed, the closed loop is affine, ``x' = M x + m``, on the polytope of
states that realise the pattern.  :func:`affine_pieces` finds these pieces
of a cell once, splitting the open neurons layer by layer with emptiness
LPs in the ``n`` state variables: with the earlier layers fixed, a neuron's
pre-activation is affine in the state.  For a target polytope,
:func:`max_slack` returns ``z*``, the largest minimum noise-normalised
target slack any piece reaches, from one ``(n+1)``-variable LP per piece;
the LPs of every piece against every target of a call run as one batch
(:func:`max_slacks` batches several cells' calls).
The query against the target's augmented set at threshold ``q`` is
satisfiable exactly when ``z* >= gaussian_quantile(q)``, up to
:func:`slack_tolerance`; the transition graph reads its edge bounds off
``z*`` this way (:func:`relusafe.graph.threshold_bracket`).  The argmax
piece's LP point is the state whose successor reaches ``z*``: the witness
refinement splits around.

The reference oracle (:func:`solve`).  It keeps the source membership,
target membership, mean dynamics and the per-layer affine links as linear
rows over the variables ``(X, X', u, t, h)``, with one boolean per hidden
neuron, and decides the query by DPLL over the neuron booleans.  The
measurement vector is affine in the state on each cell and is substituted
away rather than kept as variables.  Unassigned neurons are relaxed to
``h >= 0, h >= t`` (which both branches imply, so pruning never removes a
satisfiable completion); an infeasible LP prunes the subtree and learns, as
a conflict clause, the negation of the branch literals whose rows carry
weight in its Farkas certificate.  Its feasible leaves are the affine
pieces above.  The library itself never calls it: it is the independent
check that replays the graph's threshold brackets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import linprog
from .scenario import nn_evaluate

# Strict-inequality relaxation for the inactive branch.
EPS_STRICT = 1e-9
# Residual accepted on LP-reported quantities (normalized rows).
EPS_LP = 1e-7
# |pre-activation| below this counts as a tie when comparing patterns.
TIE_TOL = 1e-6
# Membership tolerance for the recomputed witness successor; wider than
# EPS_LP because re-evaluating the network can flip tie neurons.
WITNESS_TOL = 1e-5

# Upper cap on the noise-normalised slack, so halfspace targets stay bounded.
SLACK_CAP = 100.0

DEFAULT_NODE_BUDGET = 1 << 20


class SmcError(Exception):
    pass


class SmcNumericalError(SmcError):
    """A satisfying witness failed its replay check."""


@dataclass(frozen=True)
class SmcOutcome:
    """Verdict of a query.

    ``status`` is "sat", "unsat" or "unknown".  "unknown" means the search
    could not decide: the node budget ran out, or an LP or the witness audit
    failed numerically.  Every caller treats it as satisfiable so that
    downstream probability bounds stay on the safe side; ``is_sat`` folds
    that in.  For "sat", the witness state, its recomputed successor mean
    and the neuron activation pattern (the satisfied leaf's branch
    assignment) are attached.
    """

    status: str
    witness_x: np.ndarray | None = None
    witness_x_next: np.ndarray | None = None
    pattern: np.ndarray | None = None
    lp_calls: int = 0
    nodes: int = 0

    @property
    def is_sat(self):
        return self.status != "unsat"


def interval_affine(W, w, lo, hi):
    """Interval image of ``W x + w`` for ``x`` in the box [lo, hi]."""
    Wp = np.maximum(W, 0.0)
    Wm = np.minimum(W, 0.0)
    return Wp @ lo + Wm @ hi + w, Wp @ hi + Wm @ lo + w


def network_interval_bounds(net, d_lo, d_hi):
    """Pre-activation intervals per hidden neuron plus output interval.

    Plain interval propagation: sound but not tight; used for branch
    pre-forcing and for the transition-graph reach-box filter.
    """
    t_los, t_his = [], []
    lo, hi = np.asarray(d_lo, dtype=float), np.asarray(d_hi, dtype=float)
    for W, w in net.layers[:-1]:
        t_lo, t_hi = interval_affine(W, w, lo, hi)
        t_los.append(t_lo)
        t_his.append(t_hi)
        lo, hi = np.maximum(t_lo, 0.0), np.maximum(t_hi, 0.0)
    u_lo, u_hi = interval_affine(net.layers[-1][0], net.layers[-1][1], lo, hi)
    return np.concatenate(t_los), np.concatenate(t_his), (u_lo, u_hi)


def cell_network_bounds(net, cell):
    """:func:`network_interval_bounds` over the bounding box of ``cell``'s
    region, seen through the cell's measurement map."""
    lo, hi = cell.region.bounding_box()
    d_lo, d_hi = interval_affine(cell.C, cell.c, lo, hi)
    return network_interval_bounds(net, d_lo, d_hi)


def presolve_branches(t_lo, t_hi):
    """Branches the interval bounds decide: ``{neuron: active}``.

    A neuron whose interval rules out one branch is forced to the other.
    Returns None when some neuron can take neither branch, which makes
    every query of the cell unsatisfiable.
    """
    forced = {}
    for j in range(len(t_lo)):
        can_inactive = t_lo[j] <= -EPS_STRICT
        can_active = t_hi[j] >= 0.0
        if can_active and not can_inactive:
            forced[j] = True
        elif can_inactive and not can_active:
            forced[j] = False
        elif not can_active and not can_inactive:
            return None
    return forced


# Per neuron, the two rows of each of its three states, in this order:
# inactive, active, relaxed (unassigned).
_INACTIVE, _ACTIVE, _RELAXED = range(3)


@dataclass(frozen=True, eq=False)
class SmcProblem:
    """One source cell versus one target polytope, ready to branch on.

    The variables are ``(X, X', u, t, h)``.  ``base`` holds the rows that
    depend on neither the target nor the branches, ``target_rows`` the
    target membership of ``X'`` and ``neuron_rows`` six rows per neuron:
    its inactive, active and relaxed pairs (see :meth:`lp_for_assignment`).
    """

    scenario: object
    cell: object
    target: object
    n: int
    m: int
    num_neurons: int
    layer_of: np.ndarray        # hidden-layer index per neuron, layer-major
    base: linprog.LinearProgram
    target_rows: linprog.LinearProgram
    neuron_rows: linprog.LinearProgram
    t_lo: np.ndarray            # interval pre-activation bounds per neuron
    t_hi: np.ndarray

    @property
    def num_vars(self):
        return self.base.num_vars

    @property
    def xt(self):
        return slice(0, self.n)

    @property
    def xnext(self):
        return slice(self.n, 2 * self.n)

    def t_var(self, j):
        return 2 * self.n + self.m + j

    def with_target(self, target):
        """Same encoding against a different target polytope."""
        rows = np.zeros((target.num_halfspaces, self.num_vars))
        rows[:, self.xnext] = target.A
        return replace(self, target=target, target_rows=linprog.LinearProgram(
            rows, target.b, labels=np.fromiter((("tgt", i) for i in range(len(rows))), object)))

    def lp_for_assignment(self, assignment):
        """LP with assigned branches active and the rest relaxed: the base
        and target rows, then each neuron's pair for its state."""
        state = np.full(self.num_neurons, _RELAXED)
        for j, active in assignment.items():
            state[j] = _ACTIVE if active else _INACTIVE
        pick = ((6 * np.arange(self.num_neurons) + 2 * state)[:, None] + (0, 1)).ravel()
        parts = ((self.base, ...), (self.target_rows, ...), (self.neuron_rows, pick))
        return linprog.LinearProgram(*(np.concatenate([getattr(lp, name)[take] for lp, take in parts])
                                       for name in ("rows", "rhs", "eq", "labels")))

    def dump(self):
        """Human-readable listing of the constraint system, for audit."""
        names = (
            [f"X{d}" for d in range(self.n)]
            + [f"X'{d}" for d in range(self.n)]
            + [f"u{d}" for d in range(self.m)]
            + [f"t{j}" for j in range(self.num_neurons)]
            + [f"h{j}" for j in range(self.num_neurons)]
        )
        lines = []
        for lp in (self.base, self.target_rows):
            for a, b, eq, label in zip(lp.rows, lp.rhs, lp.eq, lp.labels):
                terms = " + ".join(f"{a[k]:+g}*{names[k]}" for k in np.nonzero(a)[0])
                lines.append(f"{label}: {terms} {'=' if eq else '<='} {b:g}")
        for j in range(self.num_neurons):
            lines.append(f"neuron {j} (layer {self.layer_of[j]}): "
                         f"b{j} -> h{j}=t{j}, t{j}>=0 ; !b{j} -> h{j}=0, t{j}<=-{EPS_STRICT:g}")
        return "\n".join(lines)


def _neuron_rows(n, m, N):
    """Six rows per neuron over the variables of :class:`SmcProblem`:

        inactive:  h = 0       and  t <= -EPS_STRICT
        active:    h - t = 0   and  -t <= 0
        relaxed:   -h <= 0     and  t - h <= 0
    """
    j = np.arange(N)[:, None]
    rows = np.zeros((N, 6, 2 * n + m + 2 * N))
    rows[j, range(6), 2 * n + m + j] = (0.0, 1.0, -1.0, -1.0, 0.0, 1.0)      # t
    rows[j, range(6), 2 * n + m + N + j] = (1.0, 0.0, 1.0, 0.0, -1.0, -1.0)  # h
    rhs = np.tile([0.0, -EPS_STRICT, 0.0, 0.0, 0.0, 0.0], N)
    eq = np.tile([True, False, True, False, False, False], N)
    tags = ("inact_eq", "inact_le", "act_eq", "act_ge", "rlx_pos", "rlx_ub")
    return linprog.LinearProgram(rows.reshape(6 * N, -1), rhs, eq=eq,
                                 labels=np.fromiter(((tag, k) for k in range(N) for tag in tags), object))


def build_encoding(scenario, cell, target_aug):
    """Assemble the query for one (source cell, target polytope) pair.

    The base rows, in order: source membership of ``X``, the dynamics
    ``X' - A X - B u = 0``, each neuron's affine link ``t - W (input) = w``
    layer by layer (the first layer's input is the measurement ``C X + c``)
    and the output ``u - W h = w``.
    """
    dyn = scenario.dynamics
    net = scenario.controller
    n, m = dyn.n, dyn.m
    if target_aug.dim != n:
        raise SmcError("target dimension != state dimension")
    if cell.C.shape[0] != net.input_dim:
        raise SmcError("cell measurement dimension != controller input")
    widths = net.hidden_widths
    N = sum(widths)
    nv = 2 * n + m + 2 * N
    offsets = np.concatenate([[0], np.cumsum(widths)])
    t_base, h_base = 2 * n + m, 2 * n + m + N
    region = cell.region
    k = region.num_halfspaces

    rows = np.zeros((k + n + N + m, nv))
    rows[:k, :n] = region.A
    dyn_rows = rows[k:k + n]
    dyn_rows[:, n:2 * n] = np.eye(n)
    dyn_rows[:, :n] -= dyn.A
    dyn_rows[:, 2 * n:t_base] -= dyn.B
    aff = rows[k + n:k + n + N]
    aff[:, t_base:h_base] = np.eye(N)
    W0, w0 = net.layers[0]
    aff[:widths[0], :n] = -(W0 @ cell.C)
    for i in range(1, len(widths)):
        aff[offsets[i]:offsets[i + 1], h_base + offsets[i - 1]:h_base + offsets[i]] = -net.layers[i][0]
    WL, wL = net.layers[-1]
    out = rows[k + n + N:]
    out[:, 2 * n:t_base] = np.eye(m)
    out[:, h_base + offsets[-2]:] = -WL
    rhs = np.concatenate([region.b, np.zeros(n), W0 @ cell.c + w0,
                          *(w for _, w in net.layers[1:])])
    labels = np.fromiter([*(("src", i) for i in range(k)), *(("dyn", d) for d in range(n)),
                          *(("aff", j) for j in range(N)), *(("out", d) for d in range(m))], object)
    base = linprog.LinearProgram(rows, rhs, eq=np.arange(len(rows)) >= k, labels=labels)

    t_lo, t_hi, _ = cell_network_bounds(net, cell)

    problem = SmcProblem(
        scenario=scenario, cell=cell, target=target_aug,
        n=n, m=m, num_neurons=N, layer_of=np.repeat(np.arange(len(widths)), widths),
        base=base, target_rows=None, neuron_rows=_neuron_rows(n, m, N),
        t_lo=t_lo, t_hi=t_hi,
    )
    return problem.with_target(target_aug)


_BRANCH_TAGS = {"act_eq": True, "act_ge": True, "inact_eq": False, "inact_le": False}


def _literals_of_certificate(cert):
    lits = set()
    for entry in cert:
        if entry.weight <= 1e-12:
            continue
        label = entry.label
        if isinstance(label, tuple) and label[0] in _BRANCH_TAGS:
            lits.add((label[1], _BRANCH_TAGS[label[0]]))
    return lits


class _BudgetExceeded(Exception):
    pass


def solve(problem, node_budget=DEFAULT_NODE_BUDGET, presolve=True):
    """Decide the query; see :class:`SmcOutcome`.

    Search order is layer-major over neurons; branch values follow the sign
    of the relaxation LP's pre-activation.  Exceeding ``node_budget``, or a
    numerical failure of an LP or of the witness audit, returns status
    "unknown", which callers must treat as satisfiable.

    A sat outcome carries the satisfied leaf LP's vertex, audited by
    replaying it through the network.  That vertex may sit on the target's
    boundary; the deepest successor comes from :func:`max_slack`.
    """
    N = problem.num_neurons
    clauses = []
    stats = {"lp": 0, "nodes": 0}

    forced = {}
    if presolve:
        forced = presolve_branches(problem.t_lo, problem.t_hi)
        if forced is None:
            return SmcOutcome("unsat", lp_calls=0, nodes=0)

    def propagate(assign):
        changed = True
        while changed:
            changed = False
            for clause in clauses:
                unassigned = None
                satisfied = False
                count = 0
                for (j, val) in clause:
                    got = assign.get(j)
                    if got is None:
                        unassigned = (j, val)
                        count += 1
                    elif got == val:
                        satisfied = True
                        break
                if satisfied:
                    continue
                if count == 0:
                    return False
                if count == 1:
                    assign[unassigned[0]] = unassigned[1]
                    changed = True
        return True

    def search(assign):
        stats["nodes"] += 1
        if stats["nodes"] > node_budget:
            raise _BudgetExceeded
        if not propagate(assign):
            return None
        lp = problem.lp_for_assignment(assign)
        stats["lp"] += 1
        res = linprog.solve(lp)
        if isinstance(res, linprog.Infeasible):
            lits = _literals_of_certificate(res.certificate)
            clause = frozenset((j, not val) for (j, val) in lits)
            clauses.append(clause)
            return None
        if len(assign) == N:
            return _make_witness(problem, res.point, assign, stats["lp"], stats["nodes"])
        j = next(k for k in range(N) if k not in assign)
        first = bool(res.point[problem.t_var(j)] > 0.0)
        for val in (first, not first):
            child = dict(assign)
            child[j] = val
            out = search(child)
            if out is not None:
                return out
        return None

    try:
        out = search(dict(forced))
    except (_BudgetExceeded, linprog.LpNumericalError, SmcNumericalError):
        return SmcOutcome("unknown", lp_calls=stats["lp"], nodes=stats["nodes"])
    if out is None:
        return SmcOutcome("unsat", lp_calls=stats["lp"], nodes=stats["nodes"])
    return out


def _make_witness(problem, point, assign, lp_calls, nodes):
    """Replay the LP witness through the real network and audit it."""
    x = np.array(point[problem.xt])
    cell = problem.cell
    region = cell.region
    norms = np.linalg.norm(region.A, axis=1)
    if np.max((region.A @ x - region.b) / norms) > TIE_TOL:
        raise SmcNumericalError("witness state fell outside its source cell")

    u, t_vals = nn_evaluate(problem.scenario.controller, cell.measure(x))
    dyn = problem.scenario.dynamics
    x_next = dyn.A @ x + dyn.B @ u

    # Pattern must match the branch assignment except at ties.
    for j in range(problem.num_neurons):
        if bool(t_vals[j] > 0.0) != assign[j] and abs(t_vals[j]) > TIE_TOL:
            raise SmcNumericalError(f"witness pattern mismatch at neuron {j}")

    target = problem.target
    tnorms = np.linalg.norm(target.A, axis=1)
    lp_next = np.array(point[problem.xnext])
    if np.max((target.A @ lp_next - target.b) / tnorms) > EPS_LP * 10:
        raise SmcNumericalError("LP successor missed the target set")
    if np.max((target.A @ x_next - target.b) / tnorms) > WITNESS_TOL:
        raise SmcNumericalError("recomputed successor missed the target set")

    full_pattern = np.array([assign[j] for j in range(problem.num_neurons)], dtype=bool)
    return SmcOutcome("sat", witness_x=x, witness_x_next=x_next,
                      pattern=full_pattern, lp_calls=lp_calls, nodes=nodes)


def check_pattern(problem, pattern):
    """True iff the LP with every branch fixed to ``pattern`` is feasible."""
    pattern = np.asarray(pattern).reshape(-1)
    if pattern.shape != (problem.num_neurons,):
        raise SmcError("pattern length != neuron count")
    assign = {j: bool(pattern[j]) for j in range(problem.num_neurons)}
    res = linprog.solve(problem.lp_for_assignment(assign))
    return not isinstance(res, linprog.Infeasible)


@dataclass(frozen=True, eq=False)
class AffinePiece:
    """One feasible activation pattern of a cell, projected to state space.

    On the states ``{x : A x <= b}`` (the cell's rows plus the branch row
    of each neuron whose branch the interval bounds do not imply) the
    closed loop is ``x' = M x + m``.
    """

    A: np.ndarray
    b: np.ndarray
    M: np.ndarray
    m: np.ndarray


def affine_pieces(scenario, cell):
    """The closed loop's affine pieces on ``cell``, as a tuple of :class:`AffinePiece`.

    Neurons are split layer by layer with the branch rows and interval
    pre-forcing of :func:`solve`, so each piece is one feasible leaf of
    its search, projected to the state.  A branch row the interval bounds
    imply adds nothing; a child that a parent's known point satisfies
    needs no LP.  An emptiness LP that fails numerically keeps its piece,
    which can only raise :func:`max_slack`.
    """
    net = scenario.controller
    dyn = scenario.dynamics
    t_lo, t_hi, _ = cell_network_bounds(net, cell)
    forced = presolve_branches(t_lo, t_hi)
    if forced is None:
        return ()
    # Partial pieces: rows so far, a point satisfying them (or None) and the
    # current layer's input as the affine map ``G x + g`` of the state.
    partial = [(cell.region.A, cell.region.b, None, cell.C, cell.c)]
    offset = 0
    for W, w in net.layers[:-1]:
        grown = []
        for A, b, point, G, g in partial:
            T, tv = W @ G, W @ g + w
            leaves = [(A, b, point, ())]
            for i in range(len(w)):
                j = offset + i
                branches = (forced[j],) if j in forced else (True, False)
                leaves = [child for leaf in leaves for active in branches
                          for child in _branch(leaf, T[i], tv[i], active, t_lo[j], t_hi[j])]
            for A2, b2, point2, bits in leaves:
                on = np.array(bits, dtype=float)
                grown.append((A2, b2, point2, on[:, None] * T, on * tv))
        partial = grown
        offset += len(w)
    WL, wL = net.layers[-1]
    return tuple(AffinePiece(A=A, b=b, M=dyn.A + dyn.B @ (WL @ G), m=dyn.B @ (WL @ g + wL))
                 for A, b, _, G, g in partial)


def _branch(leaf, a, a0, active, lo, hi):
    """Children of ``leaf`` with the neuron ``t = a . x + a0`` on one branch:
    a one-element list, or empty when that branch is infeasible."""
    A, b, point, bits = leaf
    bits = bits + (active,)
    if (lo >= 0.0) if active else (hi <= -EPS_STRICT):
        return [(A, b, point, bits)]
    row, rhs = (-a, float(a0)) if active else (a, -EPS_STRICT - float(a0))
    A, b = np.vstack([A, row]), np.append(b, rhs)
    if point is None or row @ point > rhs:
        try:
            res = linprog.solve(linprog.LinearProgram(A, b))
        except linprog.LpNumericalError:
            point = None
        else:
            if isinstance(res, linprog.Infeasible):
                return []
            point = res.point
    return [(A, b, point, bits)]


def _row_spreads(target, sigma):
    """Noise standard deviation along each target row, as in ``augmented_set``."""
    return np.sqrt((target.A ** 2) @ (np.asarray(sigma, dtype=float) ** 2))


def max_slack(pieces, targets, sigma):
    """One ``(z*, x, x')`` per polytope in ``targets``: the largest minimum
    noise-normalised slack ``z*`` of the target that a successor ``M x +
    m`` of some piece reaches, the state ``x`` that reaches it and its
    successor ``x' = M x + m``.

    Per piece and target, one LP in ``(x, s)`` maximises ``s`` subject to
    ``x`` in the piece and ``A_t (M x + m) + s * spread <= b_t``, with
    ``s`` capped at ``SLACK_CAP``; all of them run as one
    :func:`relusafe.linprog.solve_many` batch.  Per target, the pieces are
    compared in order and a later one wins only with a strictly larger
    slack; ``x`` is the LP point of the winner.  A target reads ``(-inf,
    None, None)`` when no piece is feasible and ``(+inf, None, None)`` when
    one of its LPs fails numerically, so a failure can only loosen a bound.
    """
    return max_slacks([(pieces, targets)], sigma)[0]


def max_slacks(queries, sigma):
    """:func:`max_slack` of each ``(pieces, targets)`` in ``queries``, one
    list per query, with the LPs of every query in one batch."""
    lps = []
    for pieces, targets in queries:
        for target in targets:
            spread = _row_spreads(target, sigma)
            for piece in pieces:
                k, n = piece.A.shape
                rows = np.zeros((k + target.num_halfspaces + 1, n + 1))
                rows[:k, :n] = piece.A
                rows[k:-1, :n] = target.A @ piece.M
                rows[k:-1, n] = spread
                rows[-1, n] = 1.0  # s <= SLACK_CAP, and the objective
                rhs = np.concatenate([piece.b, target.b - target.A @ piece.m, [SLACK_CAP]])
                lps.append(linprog.LinearProgram(rows, rhs, objective=("max", rows[-1])))
    results = iter(linprog.solve_many(lps))
    return [[_deepest(pieces, [next(results) for _ in pieces]) for _ in targets]
            for pieces, targets in queries]


def _deepest(pieces, results):
    """``(z*, x, x')`` of one target from its slack LP result per piece."""
    best = (-np.inf, None, None)
    for piece, res in zip(pieces, results):
        if isinstance(res, linprog.LpNumericalError):
            return (np.inf, None, None)
        if isinstance(res, linprog.Feasible) and res.objective_value > best[0]:
            x = res.point[:piece.A.shape[1]]
            best = (res.objective_value, x, piece.M @ x + piece.m)
    return best


def slack_tolerance(target, sigma):
    """Band around ``z*`` inside which comparing ``z*`` with a threshold's
    quantile does not decide the reach query.

    A point an LP accepts may violate each normalised row by
    ``linprog.EPS_FEAS``; on target row ``i`` that is ``EPS_FEAS * |a_i| /
    spread_i`` in slack units.  The band is twice the largest of these, one
    for the slack LP and one for the oracle's leaf LP, so a threshold
    whose quantile lies outside the band gets the oracle's verdict from
    the comparison alone.  The graph reads every threshold inside the
    band as satisfiable, the verdict an "unknown" gets
    (:func:`relusafe.graph.threshold_bracket`).
    """
    ratio = np.linalg.norm(target.A, axis=1) / _row_spreads(target, sigma)
    return 2.0 * linprog.EPS_FEAS * float(np.max(ratio))
