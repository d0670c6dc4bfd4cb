"""LP oracle: verdicts against a vertex-enumeration oracle, certificates,
determinism and the array constructor."""

import itertools

import numpy as np
import pytest

from relusafe import linprog


def lp_from_rows(A, b, rels=None):
    """LP of the rows ``A[i] rel b[i]``, labelled ``r<i>``; a ``>=`` row is
    stated as its negated ``<=`` row."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    rels = rels or ["<="] * len(b)
    flip = np.array([-1.0 if rel == ">=" else 1.0 for rel in rels])
    return linprog.LinearProgram(flip[:, None] * A, flip * b,
                                 eq=[rel == "=" for rel in rels],
                                 labels=[f"r{i}" for i in range(len(b))])


def brute_force_feasible(A, b, tol=1e-7):
    """Vertex enumeration for small <=-systems: feasible iff some basic
    solution (intersection of n rows) satisfies everything."""
    m, n = A.shape
    if np.all(b >= 0):
        return True  # origin
    for idx in itertools.combinations(range(m), n):
        M = A[list(idx)]
        try:
            x = np.linalg.solve(M, b[list(idx)])
        except np.linalg.LinAlgError:
            continue
        if np.all(A @ x - b <= tol):
            return True
    return False


def test_one_dimensional_contradiction():
    lp = linprog.LinearProgram([[-1.0], [1.0]], [-1.0, 0.0], labels=["ge", "le"])
    res = linprog.solve(lp)
    assert isinstance(res, linprog.Infeasible)
    labels = {e.label for e in res.certificate}
    assert labels == {"ge", "le"}
    assert linprog.check_certificate(lp, res.certificate)
    # The combination collapses to 0 <= -c with c > 0: canonical rows are
    # (-1)x <= -1 and (1)x <= 0.
    weights = {e.label: e.weight for e in res.certificate}
    assert weights["ge"] == pytest.approx(weights["le"], rel=1e-9)
    rhs = -weights["ge"] * 1.0 + weights["le"] * 0.0
    assert rhs < 0


def test_simple_minimum():
    lp = linprog.LinearProgram([[-1.0], [1.0]], [0.0, 1.0], objective=("min", [1.0]))
    res = linprog.solve(lp)
    assert isinstance(res, linprog.Feasible)
    assert res.objective_value == pytest.approx(0.0, abs=1e-9)
    assert res.point[0] == pytest.approx(0.0, abs=1e-9)


def test_unbounded_objective_is_distinct_outcome():
    lp = linprog.LinearProgram([[1.0, 0.0]], [1.0], objective=("max", [0.0, 1.0]))
    assert isinstance(linprog.solve(lp), linprog.Unbounded)


@pytest.mark.parametrize("seed", range(8))
def test_random_systems_agree_with_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    for _ in range(30):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(n + 1, 21))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        lp = lp_from_rows(A, b)
        res = linprog.solve(lp)
        mine = not isinstance(res, linprog.Infeasible)
        assert mine == brute_force_feasible(A, b)
        if isinstance(res, linprog.Infeasible):
            assert linprog.check_certificate(lp, res.certificate)
        else:
            assert np.max(A @ res.point - b) <= 1e-6


def test_certificates_on_mixed_relations(rng):
    for _ in range(40):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 12))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) - 1.0
        rels = [("<=", "=", ">=")[int(rng.integers(0, 3))] for _ in range(m)]
        lp = lp_from_rows(A, b, rels)
        res = linprog.solve(lp)
        if isinstance(res, linprog.Infeasible):
            assert linprog.check_certificate(lp, res.certificate)
        else:
            x = res.point
            for i, rel in enumerate(rels):
                v = A[i] @ x - b[i]
                if rel == "<=":
                    assert v <= 1e-6
                elif rel == ">=":
                    assert v >= -1e-6
                else:
                    assert abs(v) <= 1e-6


def test_determinism():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(12, 3))
    b = rng.normal(size=12)
    first = linprog.solve(lp_from_rows(A, b))
    second = linprog.solve(lp_from_rows(A, b))
    assert type(first) is type(second)
    if isinstance(first, linprog.Feasible):
        assert np.array_equal(first.point, second.point)
    else:
        assert first.certificate == second.certificate


def test_adding_satisfied_constraint_keeps_feasibility(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        A = rng.normal(size=(8, n))
        x0 = rng.normal(size=n)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=8)
        lp = lp_from_rows(A, b)
        res = linprog.solve(lp)
        assert isinstance(res, linprog.Feasible)
        extra = rng.normal(size=n)
        lp = lp_from_rows(np.vstack([A, extra]), np.append(b, extra @ res.point + 1.0))
        assert isinstance(linprog.solve(lp), linprog.Feasible)


def test_duplicate_label_rejected():
    with pytest.raises(ValueError):
        linprog.LinearProgram([[1.0], [1.0]], [1.0, 2.0], labels=["same", "same"])


@pytest.mark.parametrize("args", [
    ([1.0, 2.0], [1.0]),                        # rows not a matrix
    ([[1.0], [2.0]], [1.0]),                    # one right-hand side short
    (np.zeros((1, 0)), [1.0]),                  # no variables
])
def test_malformed_system_rejected(args):
    with pytest.raises(ValueError):
        linprog.LinearProgram(*args)


def test_malformed_flags_labels_and_objective_rejected():
    rows, rhs = [[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0]
    for kwargs in ({"eq": [True]}, {"labels": ["a"]},
                   {"objective": ("up", [1.0, 0.0])}, {"objective": ("max", [1.0])}):
        with pytest.raises(ValueError):
            linprog.LinearProgram(rows, rhs, **kwargs)


def test_equality_expands_in_place_and_labels_default_to_index():
    """x = 1 (row 1) between x <= 0 (row 0) and y <= 5 (row 2): the
    certificate combines row 0 with the - copy of row 1, labelled by index."""
    lp = linprog.LinearProgram([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.0, 1.0, 5.0],
                               eq=[False, True, False])
    assert len(lp.rows) == 3 and lp.num_vars == 2 and lp.objective is None
    res = linprog.solve(lp)
    assert isinstance(res, linprog.Infeasible)
    assert {(e.label, e.side) for e in res.certificate} == {(0, 1), (1, -1)}
    assert linprog.check_certificate(lp, res.certificate)
    # A - copy exists only for equalities, and every label must be known.
    flipped = tuple(linprog.CertEntry(e.label, -e.side if e.label == 0 else e.side, e.weight)
                    for e in res.certificate)
    assert not linprog.check_certificate(lp, flipped)
    unknown = tuple(linprog.CertEntry(7, e.side, e.weight) for e in res.certificate)
    assert not linprog.check_certificate(lp, unknown)


def test_sparse_pivot_matches_dense_update(rng):
    """The in-place update of the nonzero rows equals the full rank-1 update."""
    for _ in range(200):
        m, ncols = int(rng.integers(1, 12)), int(rng.integers(2, 20))
        T = rng.normal(size=(m + 1, ncols + 1))
        T[rng.random(size=T.shape) < 0.3] = 0.0
        i, j = int(rng.integers(m)), int(rng.integers(ncols))
        T[rng.random(size=m + 1) < 0.6, j] = 0.0
        T[i, j] = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 3.0)
        basis = rng.permutation(ncols + m)[:m]

        ref = T.copy()
        ref[i] /= ref[i, j]
        col = ref[:, j].copy()
        col[i] = 0.0
        ref = ref - np.outer(col, ref[i])
        ref_basis = basis.copy()
        ref_basis[i] = j

        linprog._pivot(T, basis, i, j)
        assert np.array_equal(T, ref)
        assert np.array_equal(basis, ref_basis)
