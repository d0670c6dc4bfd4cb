"""LP oracle: verdicts against a vertex-enumeration oracle, certificates,
determinism, and irreducible infeasible subsets."""

import itertools

import numpy as np
import pytest

from relusafe import linprog


def lp_from_rows(A, b, rels=None):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    lp = linprog.LinearProgram(A.shape[1])
    for i in range(A.shape[0]):
        rel = rels[i] if rels else "<="
        lp.add(A[i], rel, b[i], f"r{i}")
    return lp


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
    lp = linprog.LinearProgram(1)
    lp.add([1.0], ">=", 1.0, "ge")
    lp.add([1.0], "<=", 0.0, "le")
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
    lp = linprog.LinearProgram(1)
    lp.add([1.0], ">=", 0.0, "lo")
    lp.add([1.0], "<=", 1.0, "hi")
    lp.set_objective("min", [1.0])
    res = linprog.solve(lp)
    assert isinstance(res, linprog.Feasible)
    assert res.objective_value == pytest.approx(0.0, abs=1e-9)
    assert res.point[0] == pytest.approx(0.0, abs=1e-9)


def test_unbounded_objective_is_distinct_outcome():
    lp = linprog.LinearProgram(2)
    lp.add([1.0, 0.0], "<=", 1.0, "only")
    lp.set_objective("max", [0.0, 1.0])
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
        lp.add(extra, "<=", extra @ res.point + 1.0, "extra")
        assert isinstance(linprog.solve(lp), linprog.Feasible)


def test_duplicate_label_rejected():
    lp = linprog.LinearProgram(1)
    lp.add([1.0], "<=", 1.0, "same")
    with pytest.raises(ValueError):
        lp.add([1.0], "<=", 2.0, "same")


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


def test_from_rows_matches_checked_construction():
    checked = lp_from_rows([[1.0, 2.0], [-1.0, 0.5]], [3.0, 1.0], ["<=", "="])
    trusted = linprog.LinearProgram.from_rows(2, checked.rows)
    assert trusted.rows == checked.rows and trusted.rows is not checked.rows
    assert np.array_equal(linprog.solve(trusted).point, linprog.solve(checked).point)
    with pytest.raises(ValueError):
        trusted.add([0.0, 1.0], "<=", 1.0, "r0")  # labels are tracked
