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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Max violation accepted on a point reported Feasible (on normalized rows).
EPS_FEAS = 1e-7
# Pivot / zero threshold inside the tableau.
EPS_PIVOT = 1e-9
# Tolerance for the Farkas combination check (|y^T A| per coordinate).
EPS_CERT = 1e-6


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
    terms = []
    for entry in certificate:
        i = row_of.get(entry.label)
        if i is None or entry.side not in (1, -1) or (entry.side < 0 and not lp.eq[i]):
            return False
        a, b = lp.rows[i], lp.rhs[i]
        terms.append((entry.weight, a, b) if entry.side > 0 else (entry.weight, -a, -b))
    return _farkas_holds(terms, lp.num_vars, tol)


def _farkas_holds(terms, num_vars, tol):
    """Farkas conditions on ``(weight, a, b)`` terms, accumulated in order."""
    combo = np.zeros(num_vars)
    rhs = 0.0
    for weight, a, b in terms:
        if weight < 0:
            return False
        combo += weight * a
        rhs += weight * b
    return bool(np.max(np.abs(combo)) <= tol and rhs < 0)


def solve(lp):
    """Solve ``lp`` and return Feasible, Infeasible or Unbounded.

    Feasible points violate no constraint by more than ``EPS_FEAS`` on
    normalized rows.  Infeasible results carry a Farkas certificate that
    is verified before being returned; an inconsistency raises
    :class:`LpNumericalError` rather than returning a wrong answer.
    """
    A0, b0, index, side = _canonical(lp)
    m = len(b0)
    n = lp.num_vars
    if m == 0:
        point = np.zeros(n)
        if lp.objective is not None:
            return Unbounded(lp.objective[0]) if np.any(lp.objective[1] != 0) else Feasible(point, 0.0)
        return Feasible(point, None)

    scale = np.linalg.norm(A0, axis=1)
    scale[scale < 1e-300] = 1.0
    A = A0 / scale[:, None]
    b = b0 / scale

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

    # Iteration guard: far above what Bland's rule needs on these sizes.
    max_iters = 2000 + 50 * (m + ncols)
    _run_simplex(T, basis, entering_block=None, max_iters=max_iters)

    z1 = -T[m, -1]
    if z1 > EPS_PIVOT:
        # Infeasible: the phase-1 dual read off the slack reduced costs is a
        # Farkas vector for the scaled rows.
        y = np.maximum(T[m, 2 * n:2 * n + m], 0.0) / scale
        support = np.nonzero(y > 1e-14)[0]
        cert = tuple(CertEntry(lp.label(int(index[i])), int(side[i]), float(y[i]))
                     for i in support)
        terms = [(e.weight, A0[i], b0[i]) for e, i in zip(cert, support)]
        if not _farkas_holds(terms, n, EPS_CERT):
            raise LpNumericalError("infeasibility certificate failed its own audit")
        return Infeasible(cert)

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
    worst = _max_violation(A, b, point)
    if worst > EPS_FEAS:
        raise LpNumericalError(f"feasible point violates a row by {worst:.3e}")
    return Feasible(point, objective_value)


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
