"""Convex polytope algebra in halfspace representation.

Polytopes are intersections of halfspaces ``a . x <= b``.  On top of the
basic representation this module provides the probabilistic "augmented set"
of a polytope under diagonal Gaussian noise, LP-backed emptiness tests,
hyperplane splitting, Chebyshev centers and unsafe-overlap queries.  All
values are immutable after construction; operations are pure.

Redundant halfspaces are kept, never pruned: every operation here is correct
regardless of redundancy.  :func:`is_empty_intersection` decides emptiness
by LP feasibility; boundary contact counts as a non-empty intersection,
which errs on the conservative side for the callers that merge far-apart
regions.  Axis-aligned polytopes (every row has one nonzero coefficient,
as every grid cell has) also carry closed-form bounds:
:meth:`Polytope.axis_bounds`, from which :func:`box_pairs` decides many
pairs at once by intervals wherever the answer clears :data:`BOX_BAND`.
Callers send only the pairs it leaves undecided, and pairs with a non-box
member, to the LP; :func:`empty_intersections` sends a list of pairs as
one LP batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linprog

# Boundary-tie tolerance: intersections this shallow count as non-empty.
EPS_GEO = 1e-9
# Margin used where a decision needs points strictly inside/outside a face,
# comfortably above the LP solver's own resolution.
STRICT_MARGIN = 1e-7
# Clearance an interval verdict needs: a gap or an overlap of every axis
# wider than this decides the pair as the LP would.  It lies strictly
# between the LP's pivot tolerance (1e-9) and STRICT_MARGIN, so a gap of
# STRICT_MARGIN is still decided by intervals.
BOX_BAND = 1e-8
# The absolute error gaussian_quantile documents for itself.
QUANTILE_ERROR = 1e-9


class GeometryError(Exception):
    pass


class EmptyPolytopeError(GeometryError):
    pass


class DegenerateSplitError(GeometryError):
    """A hyperplane failed to cut the interior of a polytope."""


@dataclass(frozen=True, eq=False)
class Hyperplane:
    """The set ``normal . x = offset``."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float).reshape(-1)
        if not np.any(normal != 0.0):
            raise GeometryError("hyperplane normal must be nonzero")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))


class Polytope:
    """Convex polytope ``{x : A x <= b}``.

    ``A`` is (k, n), ``b`` is (k,).  Chebyshev data and the bounding box are
    computed lazily and memoized; the halfspace data itself never changes.
    """

    def __init__(self, A, b):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0]:
            raise GeometryError("A and b row counts differ")
        if A.shape[0] == 0:
            raise GeometryError("polytope needs at least one halfspace")
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(b)):
            raise GeometryError("polytope data must be finite")
        if np.any(np.all(A == 0.0, axis=1)):
            raise GeometryError("zero halfspace normal")
        self.A = A
        self.b = b
        self._cheb = None
        self._bbox = None
        self._axis = False  # not yet computed; None once known not axis-aligned

    @property
    def dim(self):
        return self.A.shape[1]

    @property
    def num_halfspaces(self):
        return self.A.shape[0]

    @classmethod
    def box(cls, lo, hi):
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        if lo.shape != hi.shape or np.any(lo >= hi):
            raise GeometryError("box needs lo < hi per axis")
        n = len(lo)
        eye = np.eye(n)
        return cls(np.vstack([eye, -eye]), np.concatenate([hi, -lo]))

    def with_extra(self, a, b):
        """New polytope with one more halfspace ``a . x <= b`` appended."""
        return Polytope(np.vstack([self.A, np.asarray(a, dtype=float)]),
                        np.append(self.b, float(b)))

    def contains(self, x, tol=EPS_GEO):
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(self.A @ x - self.b <= tol))

    def contains_many(self, points, tol=EPS_GEO):
        """Vectorized membership for an (N, n) array of points.

        ANDs ``a_r . x - b_r <= tol`` over the halfspace rows, each tested on
        one contiguous row of ``A @ points.T``; a NaN coordinate fails.  The
        points may be C-ordered or a transposed view of an (n, N) array.
        """
        products = self.A @ np.asarray(points, dtype=float).T
        inside = products[0] - self.b[0] <= tol
        for row, offset in zip(products[1:], self.b[1:]):
            inside &= row - offset <= tol
        return inside

    def is_empty(self):
        return isinstance(linprog.solve(linprog.LinearProgram(self.A, self.b)), linprog.Infeasible)

    def axis_bounds(self):
        """Per-axis (lo, hi) when every row has exactly one nonzero
        coefficient, otherwise None; memoized.

        An axis without an upper (lower) row reads +inf (-inf).  The bounds
        are the tightest rows' ``b / a``, so an empty axis-aligned polytope
        reads ``lo > hi`` somewhere.
        """
        if self._axis is False:
            nonzero = self.A != 0.0
            if not np.all(nonzero.sum(axis=1) == 1):
                self._axis = None
            else:
                axis = nonzero.argmax(axis=1)
                coef = self.A[np.arange(self.num_halfspaces), axis]
                limit = self.b / coef
                lo = np.full(self.dim, -math.inf)
                hi = np.full(self.dim, math.inf)
                np.maximum.at(lo, axis[coef < 0.0], limit[coef < 0.0])
                np.minimum.at(hi, axis[coef > 0.0], limit[coef > 0.0])
                # Zeros signed as the support LPs return them: -0.0 for a
                # zero minimum, +0.0 for a zero maximum.
                self._axis = (-(0.0 - lo), hi + 0.0)
        return self._axis

    def bounding_box(self):
        """Tight axis-aligned (lo, hi); memoized.

        Read off :meth:`axis_bounds` for a non-empty axis-aligned polytope,
        otherwise the :meth:`extremes` of the unit vectors.
        """
        if self._bbox is None:
            axis = self.axis_bounds()
            if axis is not None and np.all(axis[0] <= axis[1]):
                self._bbox = axis
                return self._bbox
            self._bbox = self.extremes(np.eye(self.dim))
        return self._bbox

    def _support_lp(self, direction, sense):
        return linprog.LinearProgram(self.A, self.b, objective=(sense, direction))

    def extreme(self, direction, sense):
        """Min or max of ``direction . x`` over the polytope (inf if unbounded)."""
        return _support_value(linprog.solve(self._support_lp(direction, sense)), sense)

    def extremes(self, directions):
        """``(lo, hi)``: :meth:`extreme` of each row of ``directions``, from
        one :func:`relusafe.linprog.solve_many` batch of support LPs, read
        row by row, the minimum before the maximum."""
        senses = ("min", "max") * len(directions)
        results = linprog.solve_many([self._support_lp(d, sense)
                                      for d in directions for sense in ("min", "max")])
        values = np.array([_support_value(res, sense) for res, sense in zip(results, senses)])
        return values[0::2], values[1::2]

    def __repr__(self):
        return f"Polytope(dim={self.dim}, halfspaces={self.num_halfspaces})"


def _support_value(res, sense):
    """The value of a support LP's result: its optimum, or -inf/+inf when
    unbounded; raises :class:`EmptyPolytopeError` when infeasible and the
    :class:`relusafe.linprog.LpNumericalError` a batch slot holds."""
    if isinstance(res, linprog.LpNumericalError):
        raise res
    if isinstance(res, linprog.Infeasible):
        raise EmptyPolytopeError("extreme of an empty polytope")
    if isinstance(res, linprog.Unbounded):
        return -math.inf if sense == "min" else math.inf
    return float(res.objective_value)


def gaussian_quantile(q):
    """Inverse standard normal CDF, absolute error well below
    :data:`QUANTILE_ERROR`.

    Rational initial approximation (Acklam's coefficients) refined by one
    Newton step on the exact CDF computed through erfc.  This is the single
    CDF-inversion authority for the package; every caller shares its
    thresholds.
    """
    if not (0.0 < q < 1.0):
        raise ValueError(f"quantile argument must lie in (0,1), got {q}")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if q < p_low:
        r = math.sqrt(-2.0 * math.log(q))
        z = (((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
            ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    elif q <= 1.0 - p_low:
        r = q - 0.5
        s = r * r
        z = (((((a[0] * s + a[1]) * s + a[2]) * s + a[3]) * s + a[4]) * s + a[5]) * r / \
            (((((b[0] * s + b[1]) * s + b[2]) * s + b[3]) * s + b[4]) * s + 1.0)
    else:
        r = math.sqrt(-2.0 * math.log(1.0 - q))
        z = -(((((c[0] * r + c[1]) * r + c[2]) * r + c[3]) * r + c[4]) * r + c[5]) / \
            ((((d[0] * r + d[1]) * r + d[2]) * r + d[3]) * r + 1.0)
    # One Newton step: z -= (Phi(z) - q) / phi(z).
    cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
    pdf = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    if pdf > 0.0:
        z -= (cdf - q) / pdf
    return z


def gaussian_cdf(z):
    """Standard normal CDF (companion to :func:`gaussian_quantile`)."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def augmented_set(poly, q, sigma):
    """Means whose diagonal-Gaussian spread satisfies every halfspace w.p. >= q.

    For noise N(0, diag(sigma^2)) the returned polytope is exactly
    ``{X : a . X <= b - z_q * sqrt(sum_d a_d^2 sigma_d^2)}`` per halfspace,
    with ``z_q`` the Gaussian quantile of ``q``.  For q > 1/2 the set shrinks,
    for q < 1/2 it grows.
    """
    sigma = np.asarray(sigma, dtype=float).reshape(-1)
    if sigma.shape != (poly.dim,):
        raise GeometryError("sigma dimension mismatch")
    if np.any(sigma <= 0.0):
        raise GeometryError("sigma entries must be positive")
    z = gaussian_quantile(q)
    spread = np.sqrt((poly.A ** 2) @ (sigma ** 2))
    return Polytope(poly.A.copy(), poly.b - z * spread)


def _intersection_lp(p1, p2):
    """Feasibility LP of the rows of ``p1`` followed by those of ``p2``."""
    if p1.dim != p2.dim:
        raise GeometryError("dimension mismatch")
    return linprog.LinearProgram(np.vstack([p1.A, p2.A]), np.concatenate([p1.b, p2.b]))


def is_empty_intersection(p1, p2):
    """True iff the two polytopes have no common point (LP infeasibility)."""
    return isinstance(linprog.solve(_intersection_lp(p1, p2)), linprog.Infeasible)


def empty_intersections(pairs):
    """:func:`is_empty_intersection` of each ``(p1, p2)`` in ``pairs``,
    from one :func:`relusafe.linprog.solve_many` batch: True, False, or
    None where that LP failed numerically."""
    results = linprog.solve_many([_intersection_lp(p1, p2) for p1, p2 in pairs])
    return [None if isinstance(res, linprog.LpNumericalError)
            else isinstance(res, linprog.Infeasible) for res in results]


def chebyshev_center(poly):
    """Center and radius of the largest inscribed ball, by LP; memoized.

    Variables (c, r): maximize r subject to a_i . c + ||a_i|| r <= b_i.
    The center returned is a copy.
    """
    if poly._cheb is None:
        poly._cheb = _solve_chebyshev(poly)
    center, radius = poly._cheb
    return center.copy(), radius


def _solve_chebyshev(poly):
    n = poly.dim
    rows = np.zeros((poly.num_halfspaces + 1, n + 1))
    rows[:-1, :n] = poly.A
    rows[:-1, n] = np.linalg.norm(poly.A, axis=1)
    rows[-1, n] = -1.0  # r >= 0
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog.solve(linprog.LinearProgram(rows, np.append(poly.b, 0.0),
                                              objective=("max", cost)))
    if isinstance(res, linprog.Infeasible):
        raise EmptyPolytopeError("chebyshev center of an empty polytope")
    if isinstance(res, linprog.Unbounded):
        raise GeometryError("chebyshev center of an unbounded polytope")
    return res.point[:n], float(res.objective_value)


def split(poly, hyperplane):
    """Cut ``poly`` along a hyperplane into (lower, upper) parts.

    Lower keeps ``normal . x <= offset``, upper keeps ``normal . x >= offset``;
    their union is the input and their interiors are disjoint.  Raises
    :class:`DegenerateSplitError` unless both sides have nonempty interior,
    signalling the caller to pick another hyperplane.
    """
    (parts,) = split_many(poly, [hyperplane])
    if isinstance(parts, DegenerateSplitError):
        raise parts
    return parts


def split_many(poly, hyperplanes):
    """Per hyperplane, the parts :func:`split` returns or the
    :class:`DegenerateSplitError` it raises.  The open interiors of every
    cut are tested in one :func:`relusafe.linprog.solve_many` batch and
    read as :func:`split` reads them, the lower before the upper, so a
    numerical failure raises where it would."""
    lps = []
    for hp in hyperplanes:
        margin = STRICT_MARGIN * max(1.0, float(np.linalg.norm(hp.normal)))
        lps += [linprog.LinearProgram(np.vstack([poly.A, hp.normal]),
                                      np.append(poly.b, hp.offset - margin)),
                linprog.LinearProgram(np.vstack([poly.A, -hp.normal]),
                                      np.append(poly.b, -(hp.offset + margin)))]
    res = linprog.solve_many(lps)
    return [DegenerateSplitError("hyperplane does not cut the polytope interior")
            if _infeasible(res[2 * k]) or _infeasible(res[2 * k + 1]) else
            (poly.with_extra(hp.normal, hp.offset), poly.with_extra(-hp.normal, -hp.offset))
            for k, hp in enumerate(hyperplanes)]


def _infeasible(res):
    """Whether a batch slot holds :class:`relusafe.linprog.Infeasible`;
    raises the :class:`relusafe.linprog.LpNumericalError` it may hold."""
    if isinstance(res, linprog.LpNumericalError):
        raise res
    return isinstance(res, linprog.Infeasible)


def box_pairs(polys1, polys2):
    """Interval verdicts for every pair of two polytope lists.

    Returns ``(disjoint, overlapping, widths)``: ``widths[i, j]`` holds the
    per-axis extent of the intersection of the axis bounds of ``polys1[i]``
    and ``polys2[j]`` (negative across a gap), ``disjoint[i, j]`` says some
    axis gap is wider than :data:`BOX_BAND` (the pair's intersection is
    empty) and ``overlapping[i, j]`` that every axis extent is wider than
    the band (it is not).  Pairs that are neither are undecided, and so is
    every pair with a non-axis-aligned member: its bounds stack as NaN,
    which no comparison accepts.
    """
    dim = next((p.dim for p in (*polys1, *polys2)), 0)

    def stack(polys):
        lo = np.full((len(polys), dim), np.nan)
        hi = lo.copy()
        for k, poly in enumerate(polys):
            bounds = poly.axis_bounds()
            if bounds is not None:
                lo[k], hi[k] = bounds
        return lo, hi

    lo1, hi1 = stack(polys1)
    lo2, hi2 = stack(polys2)
    widths = np.minimum(hi1[:, None], hi2[None]) - np.maximum(lo1[:, None], lo2[None])
    return (np.any(widths < -BOX_BAND, axis=2), np.all(widths > BOX_BAND, axis=2), widths)


def outside_facets(poly, margin):
    """One halfspace polytope ``a_i . x >= b_i + margin_i`` per row of ``poly``.

    ``margin`` is a scalar or one value per row.
    """
    off = -poly.b - margin
    return [Polytope(-poly.A[i][None, :], off[i:i + 1]) for i in range(poly.num_halfspaces)]


def unsafe_overlaps(regions, workspace):
    """Boolean array: ``regions[i]`` can reach an unsafe position.

    Tested piecewise: intersection with each obstacle (lifted through the
    position projection) and with each reversed domain halfspace.  Domain
    boundary contact alone does not count: the complement test carries a
    strict margin, so a cell tiling the domain edge-to-edge stays safe.
    :func:`box_pairs` decides what it can; the remaining pairs of a region
    not yet found unsafe go to the LP.
    """
    dom = workspace.domain
    pieces = list(workspace.lifted_obstacles()) + outside_facets(
        dom, STRICT_MARGIN * np.maximum(1.0, np.linalg.norm(dom.A, axis=1)))
    disjoint, overlapping, _ = box_pairs(regions, pieces)
    unsafe = np.any(overlapping, axis=1)
    for i in np.nonzero(~unsafe)[0]:
        unsafe[i] = any(not is_empty_intersection(regions[i], pieces[j])
                        for j in np.nonzero(~disjoint[i])[0])
    return unsafe


def cell_unsafe_overlap(cell, workspace):
    """True iff ``cell`` can reach an unsafe position (see :func:`unsafe_overlaps`)."""
    return bool(unsafe_overlaps([cell], workspace)[0])
