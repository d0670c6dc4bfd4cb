"""Dense-simplex linear programming with verifiable infeasibility certificates.

The solver decides feasibility of (and optionally optimizes over) systems of
dense linear constraints with free variables.  A :class:`LinearProgram` is
stated once, from arrays: an (m, n) row matrix, its right-hand sides, a
mask of the rows that are equalities (the others read ``a . x <= b``) and a
label per row, the row index by default.  The solver works on the canonical
``a . x <= b`` form, in which each equality is expanded in place into its
+ copy and, right after it, its - copy ``-a . x <= -b``.  Every infeasible
verdict comes with a Farkas certificate: nonnegative multipliers over those
canonical rows that combine them into ``0 <= c`` with ``c < 0``.
Certificates can be re-checked independently of the solver with
:func:`check_certificate`.

Implementation: two-phase primal simplex on the full dense tableau, Bland's
rule throughout (deterministic, cycle-free), rows normalized to unit
Euclidean norm.  Problem sizes in this package are small (at most a few
hundred rows), so there is no revised simplex; the one concession to
sparsity is the pivot's rank-1 update, applied in place and only to the rows
with a nonzero entry in the pivot column.  The rows it skips would subtract
``0 * pivot_row`` and stay unchanged, so the tableau, and with it every pivot
choice, is the same as with the full dense update.

Two kernels.  :func:`solve` runs one LP.  :func:`solve_many` runs a batch of
LPs in lockstep on one padded tableau of shape ``(B, M+1, C+1)``: each LP
keeps its columns ``[xp | xm | slack | artificial]`` in their relative order,
padded to the batch's largest variable, row and artificial counts, and each
padded row reads ``0 <= 1`` with a basic slack.  Padded columns stay zero
and never enter, padded rows never leave, and the masked in-place update
touches exactly the entries the lone kernel touches, with the same floating
point operations in the same order.  The batch's set-up and results are
array operations too: its canonical rows, row norms and scaling are
computed for all members at once (each norm over its own LP's columns,
since numpy sums 8 or more entries pairwise), and the Farkas weights,
their audit (an in-order cumulative sum, the additions of the lone audit)
and the feasibility violations are read off the batch's arrays.  So the
rule is bit-identity: every member's point, objective value and
certificate is the one :func:`solve` returns, and a member that fails
numerically gets the error :func:`solve` would raise.  The batch pays
numpy's per-call overhead once per lockstep pivot and once per batch
instead of once per LP, which is where the time goes on the package's LPs
(a handful of rows and variables each).  For one or two LPs the padded
kernel costs more than it saves, so a batch that small goes to
:func:`solve`, which stays the kernel for every LP that comes alone.  A
larger batch runs in lockstep chunks of at most :data:`LOCKSTEP_CHUNK`
members, one after another, which bounds the memory of its tableaus; no
member's result depends on its companions, so the chunks change none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Max violation accepted on a point reported Feasible (on normalized rows).
EPS_FEAS = 1e-7
# Pivot / zero threshold inside the tableau.
EPS_PIVOT = 1e-9
# Tolerance for the Farkas combination check (|y^T A| per coordinate).
EPS_CERT = 1e-6
# Smallest batch :func:`solve_many` runs in lockstep.  On prune LPs and on
# support LPs (2-core machine) the lockstep kernel takes 1.3-1.7x the time
# of solve per LP at two LPs, 0.9-1.2x at three, 0.7-1x at four and 0.5-0.7x
# at six.
LOCKSTEP_MIN = 3
# Most members in one lockstep chunk of :func:`solve_many`.  A demo5 build
# (2-core machine) took 46 / 43 / 41 ms with chunks of 64 / 128 / a whole
# batch and raised its peak memory by 1.4 / 1.8 / 4.1 MB.
LOCKSTEP_CHUNK = 64


class LpError(Exception):
    """Base class for solver failures."""


class LpNumericalError(LpError):
    """Iteration guard exceeded or solver produced an inconsistent result."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """The system ``rows[i] . x (<= or =) rhs[i]`` over one variable vector.

    ``rows`` is the (m, n) constraint matrix and ``rhs`` its m right-hand
    sides.  ``eq`` marks the equality rows (default: none); every other row
    is ``<=``.  ``labels`` names each row in certificates and must be unique
    (default: the row index).  An optional ``objective`` is ``(direction,
    cost)`` with direction ``"min"`` or ``"max"``.  The arrays are read,
    never written.
    """

    rows: np.ndarray
    rhs: np.ndarray
    eq: np.ndarray | None = None
    labels: object = None
    objective: tuple | None = None

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        if rows.ndim != 2 or rows.shape[1] < 1 or rhs.shape != rows.shape[:1]:
            raise ValueError(f"expected an (m, n >= 1) matrix and m right-hand sides, "
                             f"got {rows.shape} and {rhs.shape}")
        m = len(rhs)
        eq = np.zeros(m, dtype=bool) if self.eq is None else np.asarray(self.eq, dtype=bool)
        if eq.shape != (m,):
            raise ValueError("eq needs one flag per row")
        if self.labels is not None and (len(self.labels) != m or len(set(self.labels)) != m):
            raise ValueError("labels must name each row once")
        objective = self.objective
        if objective is not None:
            direction, cost = objective
            if direction not in ("min", "max"):
                raise ValueError(f"bad objective direction {direction!r}")
            cost = np.asarray(cost, dtype=float)
            if cost.shape != (rows.shape[1],):
                raise ValueError("objective dimension mismatch")
            objective = (direction, cost)
        for name, value in (("rows", rows), ("rhs", rhs), ("eq", eq), ("objective", objective)):
            object.__setattr__(self, name, value)

    @property
    def num_vars(self):
        return self.rows.shape[1]

    def label(self, i):
        return i if self.labels is None else self.labels[i]


@dataclass(frozen=True)
class CertEntry:
    """One certificate term: multiplier for a canonical <=-form row.

    ``label`` names the row as given; ``side`` is +1 for the row as written
    and -1 for the negated copy that an equality contributes.
    """

    label: object
    side: int
    weight: float


@dataclass(frozen=True)
class Feasible:
    point: np.ndarray
    objective_value: float | None = None


@dataclass(frozen=True)
class Infeasible:
    certificate: tuple  # of CertEntry


@dataclass(frozen=True)
class Unbounded:
    direction: str


def _canonical(lp):
    """``(A, b, index, side)``: the canonical ``<=`` rows of ``lp`` with,
    per row, the index of the row it came from and its side (+1, or -1 for
    the negated copy that follows each equality)."""
    m = len(lp.rhs)
    if not lp.eq.any():
        return lp.rows, lp.rhs, np.arange(m), np.ones(m, dtype=int)
    index = np.repeat(np.arange(m), np.where(lp.eq, 2, 1))
    side = np.ones(len(index), dtype=int)
    side[1:][index[1:] == index[:-1]] = -1
    A, b = lp.rows[index], lp.rhs[index]
    A[side < 0] = -A[side < 0]
    b[side < 0] = -b[side < 0]
    return A, b, index, side


def check_certificate(lp, certificate, tol=EPS_CERT):
    """True iff the certificate proves ``lp`` infeasible.

    Checks the Farkas conditions on the canonical <=-form rows:
    all multipliers >= 0, sum of y_i * a_i vanishes (within ``tol``
    per coordinate) and sum of y_i * b_i is strictly negative.
    """
    row_of = {lp.label(i): i for i in range(len(lp.rhs))}
    index, side = [], []
    for entry in certificate:
        i = row_of.get(entry.label)
        if i is None or entry.side not in (1, -1) or (entry.side < 0 and not lp.eq[i]):
            return False
        index.append(i)
        side.append(float(entry.side))
    side = np.array(side)
    weights = np.array([[entry.weight for entry in certificate]])
    rows = lp.rows[index] * side[:, None]
    return bool(_farkas_holds(weights, rows[None], (lp.rhs[index] * side)[None], tol)[0])


def _farkas_holds(weights, A, b, tol):
    """Farkas conditions per member of a stack: the multipliers
    ``weights[k]`` (K of them) on the rows ``A[k] . x <= b[k]`` are
    nonnegative and combine to ``|sum y_i a_i| <= tol`` per coordinate and
    ``sum y_i b_i < 0``.  The sums accumulate in row order, one term after
    another; a zero multiplier adds a signed zero, which changes no sum
    but a zero's sign."""
    B, K = weights.shape
    if K == 0:
        return np.zeros(B, dtype=bool)
    combo = np.cumsum(weights[..., None] * A, axis=1)[:, -1]
    rhs = np.cumsum(weights * b, axis=1)[:, -1]
    return np.all(weights >= 0.0, axis=1) & (np.max(np.abs(combo), axis=1) <= tol) & (rhs < 0.0)


class _Rows(NamedTuple):
    """The canonical rows ``A0 . x <= b0`` of an LP with their ``index``
    and ``side`` (see :func:`_canonical`), their norms ``scale`` and the
    rows ``A . x <= b`` scaled by them."""

    A0: np.ndarray
    b0: np.ndarray
    index: np.ndarray
    side: np.ndarray
    scale: np.ndarray
    A: np.ndarray
    b: np.ndarray


def _normalized(lp):
    A0, b0, index, side = _canonical(lp)
    scale = np.linalg.norm(A0, axis=1)
    scale[scale < 1e-300] = 1.0
    return _Rows(A0, b0, index, side, scale, A0 / scale[:, None], b0 / scale)


def _iteration_limit(m, ncols):
    """Pivots allowed per simplex phase: far above what Bland's rule needs
    on these sizes."""
    return 2000 + 50 * (m + ncols)


def _infeasible(lp, rows, duals):
    """The audited :class:`Infeasible` of ``lp`` from the phase-1 slack
    reduced costs ``duals``, which read as a Farkas vector for the scaled
    rows; ``rows`` are the LP's :class:`_Rows`."""
    y = np.maximum(duals, 0.0) / rows.scale
    support = np.nonzero(y > 1e-14)[0]
    weights = y[support]
    if not _farkas_holds(weights[None], rows.A0[support][None], rows.b0[support][None],
                         EPS_CERT)[0]:
        raise LpNumericalError("infeasibility certificate failed its own audit")
    return Infeasible(tuple(CertEntry(lp.label(i), side, weight) for i, side, weight in
                            zip(rows.index[support].tolist(), rows.side[support].tolist(),
                                weights.tolist())))


def _feasible(rows, point, objective_value):
    """:class:`Feasible`, once ``point`` is checked against the scaled rows."""
    worst = _max_violation(rows.A, rows.b, point)
    if worst > EPS_FEAS:
        raise LpNumericalError(f"feasible point violates a row by {worst:.3e}")
    return Feasible(point, objective_value)


def _without_rows(lp):
    """The answer for an LP without rows: the origin, unless an objective
    with a nonzero cost makes it unbounded."""
    point = np.zeros(lp.num_vars)
    if lp.objective is not None:
        return Unbounded(lp.objective[0]) if np.any(lp.objective[1] != 0) else Feasible(point, 0.0)
    return Feasible(point, None)


def solve(lp):
    """Solve ``lp`` and return Feasible, Infeasible or Unbounded.

    Feasible points violate no constraint by more than ``EPS_FEAS`` on
    normalized rows.  Infeasible results carry a Farkas certificate that
    is verified before being returned; an inconsistency raises
    :class:`LpNumericalError` rather than returning a wrong answer.
    """
    rows = _normalized(lp)
    A, b = rows.A, rows.b
    m = len(b)
    n = lp.num_vars
    if m == 0:
        return _without_rows(lp)

    # Standard form: x = xp - xm, slack s >= 0 per row, artificials where
    # the sign-flipped RHS forces them.  Columns: [xp | xm | s | t].
    sigma = np.where(b >= 0.0, 1.0, -1.0)
    art_rows = np.nonzero(sigma < 0)[0]
    n_art = len(art_rows)
    ncols = 2 * n + m + n_art

    T = np.zeros((m + 1, ncols + 1))
    DA = sigma[:, None] * A
    T[:m, 0:n] = DA
    T[:m, n:2 * n] = -DA
    T[np.arange(m), 2 * n + np.arange(m)] = sigma
    art_cols = 2 * n + m + np.arange(n_art)
    T[art_rows, art_cols] = 1.0
    T[:m, -1] = sigma * b

    basis = 2 * n + np.arange(m)
    basis[art_rows] = art_cols

    # Phase-1 objective: minimize the artificial total.  The cost row is
    # priced out one basic artificial at a time, in row order; a summed
    # reduction would round differently and could change the pivots.
    T[m, 2 * n + m:ncols] = 1.0
    for i in art_rows:
        T[m] -= T[i]

    max_iters = _iteration_limit(m, ncols)
    _run_simplex(T, basis, entering_block=None, max_iters=max_iters)

    z1 = -T[m, -1]
    if z1 > EPS_PIVOT:
        return _infeasible(lp, rows, T[m, 2 * n:2 * n + m])

    # Feasible.  Drive any lingering zero-level artificials out of the basis,
    # each on the first column with a usable pivot.
    for i in np.nonzero(basis >= 2 * n + m)[0]:
        cols = np.nonzero(np.abs(T[i, :2 * n + m]) > EPS_PIVOT)[0]
        if len(cols):
            _pivot(T, basis, i, int(cols[0]))
        # else: redundant row; the artificial stays basic at level ~0.

    objective_value = None
    if lp.objective is not None:
        direction, c = lp.objective
        c_sim = c if direction == "min" else -c
        cost2 = np.zeros(ncols)
        cost2[0:n] = c_sim
        cost2[n:2 * n] = -c_sim
        T[m, :ncols] = cost2
        T[m, -1] = 0.0
        basic_cost = cost2[basis]
        for i in np.nonzero(basic_cost)[0]:
            T[m] -= basic_cost[i] * T[i]
        status = _run_simplex(T, basis, entering_block=2 * n + m, max_iters=max_iters)
        if status == "unbounded":
            return Unbounded(direction)
        value = -T[m, -1]
        objective_value = float(value if direction == "min" else -value)

    # x = xp - xm; each column is basic in at most one row, others are zero.
    split = np.zeros(2 * n)
    in_x = basis < 2 * n
    split[basis[in_x]] = T[:m, -1][in_x]
    point = split[:n] - split[n:]
    return _feasible(rows, point, objective_value)


def _max_violation(A, b, x):
    return float(np.max(A @ x - b)) if len(b) else 0.0


def _pivot(T, basis, i, j):
    """Pivot on (i, j): rank-1 update of the rows with a nonzero in column j."""
    T[i] /= T[i, j]
    col = T[:, j].copy()
    col[i] = 0.0
    rows = col.nonzero()[0]
    block = T.take(rows, axis=0)
    block -= col.take(rows)[:, None] * T[i]
    T[rows] = block
    basis[i] = j


def _run_simplex(T, basis, entering_block, max_iters):
    """Bland-rule simplex on tableau T.  Returns "optimal" or "unbounded".

    ``entering_block``: columns at or beyond this index may not enter
    (used in phase 2 to freeze artificials); None allows all columns.
    """
    m = T.shape[0] - 1
    limit = T.shape[1] - 1 if entering_block is None else entering_block
    for _ in range(max_iters):
        costrow = T[m, :limit]
        candidates = np.nonzero(costrow < -EPS_PIVOT)[0]
        if len(candidates) == 0:
            return "optimal"
        enter = int(candidates[0])  # Bland: smallest eligible index

        col = T[:m, enter]
        pos = np.nonzero(col > EPS_PIVOT)[0]
        if len(pos) == 0:
            return "unbounded"
        ratios = T[pos, -1] / col[pos]
        best = np.min(ratios)
        ties = pos[ratios <= best + 1e-12]
        leave = int(ties[np.argmin(basis[ties])])  # Bland: smallest basis var
        _pivot(T, basis, leave, enter)
    raise LpNumericalError("simplex iteration guard exceeded (possible cycling)")


def solve_many(lps):
    """:func:`solve` of every LP in ``lps``, as a list in the same order.

    Each slot holds exactly what :func:`solve` returns for its LP, or the
    :class:`LpNumericalError` it would raise; nothing is raised for the
    batch.  A batch smaller than :data:`LOCKSTEP_MIN` goes to :func:`solve`
    LP by LP; a larger one runs in lockstep on padded tableaus, in as few
    chunks of at most :data:`LOCKSTEP_CHUNK` members as it needs, of equal
    size to within one member (see the module docstring).
    """
    lps = list(lps)
    if len(lps) < LOCKSTEP_MIN:
        return [_solve_or_error(lp) for lp in lps]
    out = [None] * len(lps)
    members = []
    for k, lp in enumerate(lps):
        if len(lp.rhs):
            members.append(k)
        else:
            out[k] = _without_rows(lp)
    chunks = -(-len(members) // LOCKSTEP_CHUNK)
    for c in range(chunks):
        chunk = members[len(members) * c // chunks:len(members) * (c + 1) // chunks]
        for k, res in zip(chunk, _solve_lockstep([lps[k] for k in chunk])):
            out[k] = res
    return out


def _solve_or_error(lp):
    try:
        return solve(lp)
    except LpNumericalError as exc:
        return exc


class _Stack(NamedTuple):
    """A batch's canonical rows as padded arrays (see :class:`_Rows`).

    Member ``k`` has ``n[k]`` variables and ``m[k]`` canonical rows, which
    fill ``A0[k, :m[k], :n[k]]`` and ``b0[k, :m[k]]``; ``index`` and
    ``side`` say which given row each canonical row came from.  Padded
    entries of ``A0`` are zero and padded rows read ``0 <= 1`` with scale
    one, so their scaled rows are the lockstep kernel's padding.
    """

    n: np.ndarray
    m: np.ndarray
    A0: np.ndarray
    b0: np.ndarray
    index: np.ndarray
    side: np.ndarray
    scale: np.ndarray
    A: np.ndarray
    b: np.ndarray


def _stack(lps):
    """The :class:`_Stack` of ``lps``, each of which has rows.

    The canonical expansion and the scaling are the operations of
    :func:`_normalized`, on every member at once.  Each row norm is taken
    over its own LP's columns only: numpy sums a row of 8 or more entries
    pairwise, so a norm over zero-padded columns could round differently.
    """
    B = len(lps)
    n = np.array([lp.num_vars for lp in lps])
    given = np.array([len(lp.rhs) for lp in lps])
    first_given = np.cumsum(given) - given
    eq = np.concatenate([lp.eq for lp in lps])
    rhs = np.concatenate([lp.rhs for lp in lps])
    # Per canonical row: the given row it copies (numbered across the
    # batch), its side, its member and its place in the member.
    src = np.repeat(np.arange(len(eq)), np.where(eq, 2, 1))
    side = np.ones(len(src))
    side[1:][src[1:] == src[:-1]] = -1.0
    owner = np.repeat(np.arange(B), given)[src]
    m = np.bincount(owner, minlength=B)
    rhs = rhs[src] * side
    pos = np.arange(len(src)) - (np.cumsum(m) - m)[owner]

    N, M = int(n.max()), int(m.max())
    index = np.zeros((B, M), dtype=int)
    index[owner, pos] = src - first_given[owner]
    signs = np.ones((B, M), dtype=int)
    b0 = np.ones((B, M))
    b0[owner, pos] = rhs
    A0 = np.zeros((B, M, N))
    scale = np.ones((B, M))
    # The members of one variable count at a time, so that each row norm
    # sums that many entries.
    for width in set(n.tolist()):
        group = np.nonzero(n == width)[0]
        here = n[owner] == width
        rows = np.concatenate([lps[k].rows for k in group])
        # Per member of the group, its first row's place in ``rows`` less
        # its first row's number across the batch.
        shift = np.zeros(B, dtype=int)
        shift[group] = np.cumsum(given[group]) - given[group] - first_given[group]
        block = rows[src[here] + shift[owner[here]]]
        block *= side[here, None]
        A0[owner[here], pos[here], :width] = block
        scale[group] = np.linalg.norm(A0[group, :, :width], axis=-1)
    signs[owner, pos] = side
    scale[scale < 1e-300] = 1.0
    return _Stack(n, m, A0, b0, index, signs, scale, A0 / scale[..., None], b0 / scale)


def _solve_lockstep(lps):
    """The lockstep kernel of :func:`solve_many` on LPs with rows; the
    phases and every floating-point operation follow :func:`solve`."""
    B = len(lps)
    rows = _stack(lps)
    n, m, A, b = rows.n, rows.m, rows.A, rows.b
    M, N = A.shape[1:]

    # Columns: [xp (N) | xm (N) | s (M) | t (K)], then the right-hand side.
    sigma = np.where(b >= 0.0, 1.0, -1.0)
    art = sigma < 0
    n_art = art.sum(axis=1)
    K = int(n_art.max())
    x_end = 2 * N                            # slacks start here
    art_start = x_end + M
    C = art_start + K
    T = np.zeros((B, M + 1, C + 1))
    DA = sigma[..., None] * A
    T[:, :M, 0:N] = DA
    T[:, :M, N:x_end] = -DA
    T[:, np.arange(M), x_end + np.arange(M)] = sigma
    basis = np.zeros((B, 1), dtype=int) + (x_end + np.arange(M))
    bi, ri = np.nonzero(art)
    art_cols = art_start + (np.cumsum(art, axis=1) - 1)[bi, ri]
    T[bi, ri, art_cols] = 1.0
    basis[bi, ri] = art_cols
    T[:, :M, -1] = sigma * b

    # Phase 1, priced out as in solve: one basic artificial at a time, in
    # row order, on the members that have one in that row.
    T[:, M, art_start:C] = np.arange(K) < n_art[:, None]
    for i in np.nonzero(art.any(axis=0))[0]:
        np.subtract(T[:, M], T[:, i], out=T[:, M], where=art[:, i, None])
    max_iters = _iteration_limit(m, 2 * n + m + n_art)
    work = (np.empty_like(T), np.empty(T.shape, dtype=bool))
    failed, _ = _lockstep(T, work, basis, np.ones(B, dtype=bool), C, max_iters)
    infeasible = ~failed & (-T[:, M, -1] > EPS_PIVOT)
    feasible = ~failed & ~infeasible

    # Drive out lingering artificials, row by row, on each member's first
    # usable column.  A pivot changes the basis of its own row only.
    lingering = feasible[:, None] & (basis >= art_start)
    for i in np.nonzero(lingering.any(axis=0))[0]:
        usable = np.abs(T[:, i, :art_start]) > EPS_PIVOT
        _pivot_many(T, work, basis, lingering[:, i] & usable.any(axis=1),
                    np.full(B, i), usable.argmax(axis=1))

    # Phase 2 on the members with an objective.
    goal = [lp.objective for lp in lps]
    optimize = feasible & np.array([g is not None for g in goal])
    unbounded = np.zeros(B, dtype=bool)
    if optimize.any():
        cost = np.zeros((B, C + 1))
        for width in sorted(set(n[optimize].tolist())):
            group = np.nonzero(optimize & (n == width))[0]
            c_sim = np.array([goal[k][1] if goal[k][0] == "min" else -goal[k][1]
                              for k in group])
            cost[group, 0:width] = c_sim
            cost[group, N:N + width] = -c_sim
        T[optimize, M] = cost[optimize]
        basic_cost = cost[np.arange(B)[:, None], basis]
        priced = optimize[:, None] & (basic_cost != 0.0)
        for i in np.nonzero(priced.any(axis=0))[0]:
            np.subtract(T[:, M], basic_cost[:, i, None] * T[:, i], out=T[:, M],
                        where=priced[:, i, None])
        failed2, unbounded = _lockstep(T, work, basis, optimize, art_start, max_iters)
        failed |= failed2

    split = np.zeros((B, x_end))
    bi, ri = np.nonzero(basis < x_end)
    split[bi, basis[bi, ri]] = T[bi, ri, -1]
    points = split[:, :N] - split[:, N:]
    # The results need only the cost rows; the tableau goes before they are
    # built, so that it leaves no gap under them in the heap.
    cost_rows = T[:, M].copy()
    del T, work
    return _results(lps, rows, failed, infeasible, unbounded, points, cost_rows)


def _results(lps, rows, failed, infeasible, unbounded, points, cost_rows):
    """Each member's result, read off the batch's arrays as :func:`solve`
    reads its own: the Farkas weights ``max(dual, 0) / scale`` and their
    audit, or the point and its row violation."""
    B, M, N = rows.A.shape
    real = np.arange(M) < rows.m[:, None]
    certificates = {}
    if infeasible.any():
        y = np.maximum(cost_rows[:, 2 * N:2 * N + M], 0.0) / rows.scale
        support = infeasible[:, None] & real & (y > 1e-14)
        audited = _farkas_holds(np.where(support, y, 0.0), rows.A0, rows.b0, EPS_CERT)
        ks, rs = np.nonzero(support)
        for k, i, side, weight in zip(ks.tolist(), rows.index[ks, rs].tolist(),
                                      rows.side[ks, rs].tolist(), y[ks, rs].tolist()):
            certificates.setdefault(k, []).append(CertEntry(lps[k].label(i), side, weight))
    violation = np.max(np.where(real, (rows.A @ points[..., None])[..., 0] - rows.b, -np.inf),
                       axis=1)
    values = (-cost_rows[:, -1]).tolist()
    out = []
    for k, lp in enumerate(lps):
        if failed[k]:
            out.append(LpNumericalError("simplex iteration guard exceeded (possible cycling)"))
        elif infeasible[k]:
            out.append(Infeasible(tuple(certificates.get(k, ()))) if audited[k] else
                       LpNumericalError("infeasibility certificate failed its own audit"))
        elif unbounded[k]:
            out.append(Unbounded(lp.objective[0]))
        elif violation[k] > EPS_FEAS:
            out.append(LpNumericalError(f"feasible point violates a row by {violation[k]:.3e}"))
        else:
            objective_value = None
            if lp.objective is not None:
                objective_value = values[k] if lp.objective[0] == "min" else -values[k]
            out.append(Feasible(points[k, :rows.n[k]].copy(), objective_value))
    return out


def _pivot_many(T, work, basis, go, rows, cols):
    """:func:`_pivot` on ``(rows[k], cols[k])`` of every member ``k`` of the
    batched tableau that ``go`` flags: the same divisions, products and
    subtractions, on the entries :func:`_pivot` touches and no others.

    ``work`` holds a float scratch tableau and a boolean one, of T's shape.
    The rank-1 product is written straight into the float one from
    broadcast views of the pivot row and column, each entry the one IEEE
    multiplication :func:`_pivot` makes.
    """
    every = np.arange(len(go))
    lead = T[every, rows]
    np.divide(lead, lead[every, cols][:, None], out=lead, where=go[:, None])
    T[every, rows] = lead
    col = T[every, :, cols]
    col[every, rows] = 0.0
    product, mask = work
    np.multiply(lead[:, None, :], col[:, :, None], out=product)
    np.copyto(mask, ((col != 0.0) & go[:, None])[:, :, None])
    np.subtract(T, product, out=T, where=mask)
    basis[every, rows] = np.where(go, cols, basis[every, rows])


def _lockstep(T, work, basis, running, limit, max_iters):
    """:func:`_run_simplex` on every member flagged in ``running``, one
    pivot per member per step; columns at or beyond ``limit`` may not
    enter.  Returns ``(failed, unbounded)`` flags: a member fails when it
    exceeds its own iteration guard ``max_iters``."""
    B, M = basis.shape
    every = np.arange(B)
    failed = np.zeros(B, dtype=bool)
    unbounded = np.zeros(B, dtype=bool)
    running = running.copy()
    cost, rhs = T[:, M, :limit], T[:, :M, -1]
    ratios = np.empty((B, M))
    guard = int(max_iters.min())
    for step in itertools.count():
        if step >= guard:  # every running member has made ``step`` pivots
            over = running & (max_iters <= step)
            failed |= over
            running &= ~over
        eligible = cost < -EPS_PIVOT
        enter = eligible.argmax(axis=1)      # Bland: smallest eligible index
        col = T[every, :M, enter]
        pos = col > EPS_PIVOT
        bounded = pos.any(axis=1)
        improving = running & eligible.any(axis=1)
        unbounded |= improving & ~bounded
        running = improving & bounded
        if not running.any():
            return failed, unbounded
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=pos)
        ties = ratios <= (ratios.min(axis=1) + 1e-12)[:, None]
        # Bland: smallest basis variable among the tied rows.
        leave = np.where(ties, basis, np.iinfo(basis.dtype).max).argmin(axis=1)
        _pivot_many(T, work, basis, running, leave, enter)
