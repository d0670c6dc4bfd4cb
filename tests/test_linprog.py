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


def assert_same_result(got, want):
    """``got`` is ``want`` bit for bit: point bytes, objective value repr,
    certificate entries, or the same error."""
    assert type(got) is type(want)
    if isinstance(want, linprog.Feasible):
        assert got.point.tobytes() == want.point.tobytes()
        assert repr(got.objective_value) == repr(want.objective_value)
    elif isinstance(want, linprog.Infeasible):
        assert [(e.label, e.side, repr(e.weight)) for e in got.certificate] == \
            [(e.label, e.side, repr(e.weight)) for e in want.certificate]
    elif isinstance(want, linprog.Unbounded):
        assert got.direction == want.direction
    else:
        assert str(got) == str(want)


def solve_alone(lp):
    try:
        return linprog.solve(lp)
    except linprog.LpNumericalError as exc:
        return exc


def batch_corpus(rng):
    """Mixed shapes and relations, with and without objectives, plus the
    special cases: infeasible, unbounded, degenerate ratio ties and LPs
    without rows."""
    lps = []
    for _ in range(200):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 13))
        A, b = rng.normal(size=(m, n)), rng.normal(size=m)
        if rng.random() < 0.3:                       # integer data: exact ties
            A, b = np.round(2 * A), np.round(2 * b)
        rels = [("<=", "=", ">=")[k] for k in rng.choice(3, size=m, p=(0.7, 0.15, 0.15))]
        lp = lp_from_rows(A, b, rels)
        if rng.random() < 0.5:
            lp = linprog.LinearProgram(lp.rows, lp.rhs, eq=lp.eq, labels=lp.labels,
                                       objective=(("min", "max")[int(rng.integers(2))],
                                                  rng.normal(size=n)))
        lps.append(lp)
    lps += [
        linprog.LinearProgram([[-1.0], [1.0]], [-1.0, 0.0]),                    # infeasible
        linprog.LinearProgram([[1.0, 0.0]], [1.0], objective=("max", [0.0, 1.0])),  # unbounded
        # x <= 1 and 2x <= 2 tie in the ratio test; so do the rows through (1, 1).
        linprog.LinearProgram([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0], [3.0, 3.0]],
                              [1.0, 2.0, 1.0, 2.0, 6.0], objective=("max", [1.0, 1.0])),
        linprog.LinearProgram([[-1.0, 0.0], [0.0, -1.0], [-1.0, -1.0]], [-1.0, -1.0, -2.0],
                              objective=("min", [1.0, 1.0])),
        # Its point is -0.0: the skipped rows of each pivot keep their signed zeros.
        linprog.LinearProgram([[1.0], [1.0], [0.0], [-2.0]], [1.0, -0.0, 1.0, 0.0],
                              objective=("min", [-0.5])),
        linprog.LinearProgram(np.zeros((0, 2)), np.zeros(0)),                   # no rows
        linprog.LinearProgram(np.zeros((0, 1)), np.zeros(0), objective=("max", [1.0])),
    ]
    return lps


def test_solve_many_is_solve_bit_for_bit(rng):
    lps = batch_corpus(rng)
    want = [solve_alone(lp) for lp in lps]
    kinds = {type(res).__name__ for res in want}
    assert {"Feasible", "Infeasible", "Unbounded"} <= kinds
    assert any(isinstance(r, linprog.Feasible) and r.objective_value is not None for r in want)
    for got, expected in zip(linprog.solve_many(lps), want):
        assert_same_result(got, expected)
    # Smaller batches, a batch of one and an empty batch.
    for start in range(0, len(lps), 7):
        for got, expected in zip(linprog.solve_many(lps[start:start + 7]), want[start:]):
            assert_same_result(got, expected)
    assert want[-3].point.tobytes() == np.array([-0.0]).tobytes()
    assert_same_result(linprog.solve_many([lps[-4]])[0], want[-4])
    assert linprog.solve_many([]) == []


@pytest.mark.parametrize("fault", ["audit", "guard"])
def test_solve_many_member_failure_leaves_companions(rng, monkeypatch, fault):
    """A member that fails numerically gets the error solve raises for it,
    in its slot, and every other member's result is unchanged."""
    lps = batch_corpus(rng)
    # The victim is the only LP with 5 variables and 17 canonical rows, and
    # the only one with a right-hand side of -20, which every certificate of
    # it uses.
    A = rng.normal(size=(16, 5))
    victim = lp_from_rows(np.vstack([A, -A.sum(axis=0)]),
                          np.append(rng.uniform(0.0, 1.0, size=16), -20.0))
    batch = lps[:20] + [victim] + lps[20:]
    assert isinstance(linprog.solve(victim), linprog.Infeasible)
    want = [solve_alone(lp) for lp in lps]
    if fault == "audit":
        real = linprog._farkas_holds
        monkeypatch.setattr(linprog, "_farkas_holds",
                            lambda weights, A, b, tol: real(weights, A, b, tol)
                            & ~np.any(b == -20.0, axis=1))
    else:
        real = linprog._iteration_limit
        monkeypatch.setattr(linprog, "_iteration_limit",
                            lambda m, ncols: np.where(np.equal(m, 17), 0, real(m, ncols)))
    with pytest.raises(linprog.LpNumericalError) as alone:
        linprog.solve(victim)
    got = linprog.solve_many(batch)
    assert_same_result(got[20], alone.value)
    for res, expected in zip(got[:20] + got[21:], want):
        assert_same_result(res, expected)


def test_solve_many_mixed_widths_past_eight_columns(rng):
    """Members of 1 to 12 variables share one batch, so most rows are
    padded to 12 columns: numpy sums 8 or more entries pairwise, and each
    row norm must still be taken over its own LP's columns to stay
    bit-identical to solve."""
    lps = []
    for k in range(60):
        n = 1 + k % 12
        m = int(rng.integers(n + 1, 2 * n + 4))
        A, b = rng.normal(size=(m, n)) * rng.uniform(0.1, 10.0, size=(m, 1)), rng.normal(size=m)
        rels = [("<=", "=", ">=")[i] for i in rng.choice(3, size=m, p=(0.8, 0.1, 0.1))]
        lp = lp_from_rows(A, b, rels)
        if k % 3:
            lp = linprog.LinearProgram(lp.rows, lp.rhs, eq=lp.eq, labels=lp.labels,
                                       objective=("max", rng.normal(size=n)))
        lps.append(lp)
    want = [solve_alone(lp) for lp in lps]
    assert {"Feasible", "Infeasible"} <= {type(res).__name__ for res in want}
    assert max(lp.num_vars for lp in lps) >= 9
    for got, expected in zip(linprog.solve_many(lps), want):
        assert_same_result(got, expected)


def test_solve_many_in_chunks_is_solve_bit_for_bit(rng, monkeypatch):
    """A batch run in lockstep chunks of three members gives every member
    solve's result: members of 1 to 12 variables, infeasible ones with
    their certificates, an unbounded one, ones without an objective or
    without rows, and one whose certificate is made to fail its audit."""
    wide = []
    for n in range(1, 13):
        m = int(rng.integers(n + 1, 2 * n + 4))
        lp = lp_from_rows(rng.normal(size=(m, n)), rng.normal(size=m))
        wide.append(linprog.LinearProgram(lp.rows, lp.rhs, objective=("max", rng.normal(size=n))))
    # As in the member failure test: every certificate of the victim uses
    # its right-hand side of -20, which no other member has.
    A = rng.normal(size=(16, 5))
    victim = lp_from_rows(np.vstack([A, -A.sum(axis=0)]),
                          np.append(rng.uniform(0.0, 1.0, size=16), -20.0))
    real = linprog._farkas_holds
    monkeypatch.setattr(linprog, "_farkas_holds",
                        lambda weights, A, b, tol: real(weights, A, b, tol)
                        & ~np.any(b == -20.0, axis=1))
    corpus = batch_corpus(rng)
    lps = corpus[:30] + wide + [victim] + corpus[-40:]
    want = [solve_alone(lp) for lp in lps]
    assert isinstance(want[42], linprog.LpNumericalError)
    assert {lp.num_vars for lp in lps} == set(range(1, 13))
    assert {"Feasible", "Infeasible", "Unbounded"} <= {type(res).__name__ for res in want}
    assert any(isinstance(r, linprog.Feasible) and r.objective_value is None for r in want)
    chunks = []
    lockstep = linprog._solve_lockstep
    monkeypatch.setattr(linprog, "LOCKSTEP_CHUNK", 3)
    monkeypatch.setattr(linprog, "_solve_lockstep",
                        lambda batch: chunks.append(len(batch)) or lockstep(batch))
    for got, expected in zip(linprog.solve_many(lps), want):
        assert_same_result(got, expected)
    assert max(chunks) == 3 and sum(chunks) == sum(len(lp.rhs) > 0 for lp in lps)
