"""Dense-simplex linear programming with verifiable infeasibility certificates.

The solver decides feasibility of (and optionally optimizes over) systems of
dense linear constraints with free variables.  Every infeasible verdict comes
with a Farkas certificate: nonnegative multipliers over the canonical
``a . x <= b`` form of the constraints that combine them into ``0 <= c`` with
``c < 0``.  Certificates can be re-checked independently of the solver with
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

from dataclasses import dataclass, field

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


@dataclass
class LinearProgram:
    """A labeled system of linear constraints over one variable vector.

    Constraints are ``(a, rel, b, label)`` with ``rel`` one of ``"<="``,
    ``"="``, ``">="``.  Labels must be unique; they key the certificates.
    An optional objective is ``(direction, cost)`` with direction ``"min"``
    or ``"max"``.
    """

    num_vars: int
    rows: list = field(default_factory=list)
    objective: tuple | None = None

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("num_vars must be >= 1")
        self._labels = {r[3] for r in self.rows}

    @classmethod
    def from_rows(cls, num_vars, rows, objective=None):
        """LP over rows that are already well formed, without per-row checks.

        Each row must be ``(a, rel, b, label)`` as :meth:`add` stores it: a
        float array of length ``num_vars``, a valid relation, a float ``b``
        and a label unique among ``rows``.  Callers that assemble rows from
        checked parts (the reach-query encoding, polytopes, affine pieces)
        use this to skip :meth:`add`'s validation.
        """
        return cls(num_vars, list(rows), objective)

    def add(self, a, rel, b, label):
        a = np.asarray(a, dtype=float).reshape(-1)
        if a.shape != (self.num_vars,):
            raise ValueError(f"row {label!r}: expected {self.num_vars} coefficients, got {a.shape}")
        if rel not in ("<=", "=", ">="):
            raise ValueError(f"row {label!r}: bad relation {rel!r}")
        if not np.all(np.isfinite(a)) or not np.isfinite(b):
            raise ValueError(f"row {label!r}: non-finite data")
        if label in self._labels:
            raise ValueError(f"duplicate constraint label {label!r}")
        self._labels.add(label)
        self.rows.append((a, rel, float(b), label))

    def set_objective(self, direction, cost):
        if direction not in ("min", "max"):
            raise ValueError(f"bad objective direction {direction!r}")
        cost = np.asarray(cost, dtype=float).reshape(-1)
        if cost.shape != (self.num_vars,):
            raise ValueError("objective dimension mismatch")
        self.objective = (direction, cost)


@dataclass(frozen=True)
class CertEntry:
    """One certificate term: multiplier for a canonical <=-form row.

    ``side`` is +1 for the row as written (after flipping ``>=``) and -1 for
    the negated copy that an equality contributes.
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


def canonical_rows(lp):
    """The canonical ``a . x <= b`` rows of ``lp`` as (a, b, label, side).

    ``<=`` rows map to themselves, ``>=`` rows to their negation (side +1
    in both cases); ``=`` rows contribute both a +1 and a -1 copy.
    """
    out = []
    for a, rel, b, label in lp.rows:
        if rel == "<=":
            out.append((a, b, label, +1))
        elif rel == ">=":
            out.append((-a, -b, label, +1))
        else:
            out.append((a, b, label, +1))
            out.append((-a, -b, label, -1))
    return out


def check_certificate(lp, certificate, tol=EPS_CERT):
    """True iff the certificate proves ``lp`` infeasible.

    Checks the Farkas conditions on the canonical <=-form rows:
    all multipliers >= 0, sum of y_i * a_i vanishes (within ``tol``
    per coordinate) and sum of y_i * b_i is strictly negative.
    """
    rows = {(label, side): (a, b) for a, b, label, side in canonical_rows(lp)}
    terms = []
    for entry in certificate:
        key = (entry.label, entry.side)
        if key not in rows:
            return False
        terms.append((entry.weight, *rows[key]))
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


def solve(lp, max_iters=None):
    """Solve ``lp`` and return Feasible, Infeasible or Unbounded.

    Feasible points violate no constraint by more than ``EPS_FEAS`` on
    normalized rows.  Infeasible results carry a Farkas certificate that
    is verified before being returned; an inconsistency raises
    :class:`LpNumericalError` rather than returning a wrong answer.
    """
    rows = canonical_rows(lp)
    m = len(rows)
    n = lp.num_vars
    if m == 0:
        point = np.zeros(n)
        if lp.objective is not None:
            return Unbounded(lp.objective[0]) if np.any(lp.objective[1] != 0) else Feasible(point, 0.0)
        return Feasible(point, None)

    A = np.array([r[0] for r in rows], dtype=float)
    b = np.array([r[1] for r in rows], dtype=float)
    scale = np.linalg.norm(A, axis=1)
    scale[scale < 1e-300] = 1.0
    A = A / scale[:, None]
    b = b / scale

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

    if max_iters is None:
        max_iters = 2000 + 50 * (m + ncols)
    _run_simplex(T, basis, entering_block=None, max_iters=max_iters)

    z1 = -T[m, -1]
    if z1 > EPS_PIVOT:
        # Infeasible: the phase-1 dual read off the slack reduced costs is a
        # Farkas vector for the scaled rows.
        y = np.maximum(T[m, 2 * n:2 * n + m], 0.0) / scale
        support = np.nonzero(y > 1e-14)[0]
        cert = tuple(CertEntry(rows[i][2], rows[i][3], float(y[i])) for i in support)
        terms = [(e.weight, rows[i][0], rows[i][1]) for e, i in zip(cert, support)]
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
