import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb.errors import DimensionMismatch, NoSolutionError, NonUniqueSolutionError
from ruthvb.exactla import (
    RatMat,
    Subspace,
    intersect,
    is_complement,
    kernel,
    left_solver,
    preimage,
    solve_matrix,
    sparse_kernel_basis,
    sparse_rank,
)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def mats(rows, cols):
    return st.lists(
        st.lists(rationals, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(lambda data: RatMat.from_rows(data, cols))


def test_kernel_basics():
    assert kernel(RatMat.zeros(2, 3)).dim == 3
    assert kernel(RatMat.identity(4)).dim == 0
    K = kernel(RatMat.from_rows([[1, 1], [2, 2]]))
    assert K.dim == 1 and K.contains([1, -1])


@given(st.data())
@settings(max_examples=60)
def test_rank_nullity(data):
    r = data.draw(st.integers(1, 5))
    c = data.draw(st.integers(1, 5))
    A = data.draw(mats(r, c))
    assert kernel(A).dim + A.rank() == c


def test_solve_unique():
    def solve(A, b):
        return solve_matrix(A, RatMat.col_vector(b)).col(0)

    A = RatMat.from_rows([[2]])
    assert solve(A, [3]) == (Fr(3, 2),)
    I = RatMat.identity(3)
    assert solve(I, [1, 2, 3]) == (Fr(1), Fr(2), Fr(3))
    sing = RatMat.from_rows([[1, 1], [1, 1]])
    with pytest.raises(NoSolutionError):
        solve(sing, [1, 2])
    with pytest.raises(NonUniqueSolutionError):
        solve(sing, [1, 1])


def test_left_solver_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        c = rng.randint(1, 4)
        r = rng.randint(c, c + 3)
        A = RatMat.from_rows(
            [[Fr(rng.randint(-3, 3)) for _ in range(c)] for _ in range(r)], c
        )
        if A.rank() < c:
            with pytest.raises(NonUniqueSolutionError):
                left_solver(A)
            continue
        L = left_solver(A)
        x = [Fr(rng.randint(-3, 3)) for _ in range(c)]
        assert L.apply(A.apply(x)) == tuple(x)


def test_rref_canonical_subspaces():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [[Fr(rng.randint(-3, 3)) for _ in range(n)] for _ in range(rng.randint(1, 4))]
        S = Subspace.from_rows(n, rows)
        # re-present the same space through random invertible combinations
        combos = []
        for _ in range(S.dim):
            combos.append([Fr(rng.randint(-2, 2)) for _ in range(S.dim)])
        M = RatMat.from_rows(combos, S.dim) if S.dim else RatMat.zeros(0, 0)
        if S.dim and M.rank() == S.dim:
            T = Subspace.from_rows(n, (M @ S.mat).data)
            assert T == S


def test_subspace_ops():
    x_axis = Subspace.from_rows(2, [[1, 0]])
    y_axis = Subspace.from_rows(2, [[0, 1]])
    assert is_complement(x_axis, y_axis, 2)
    # dimensions add up, yet the two meet
    xy_plane = Subspace.from_rows(3, [[1, 0, 0], [0, 1, 0]])
    assert is_complement(Subspace.from_rows(3, [[1, 0, 0]]), xy_plane, 3) is False
    assert is_complement(x_axis, x_axis, 2) is False
    assert intersect(x_axis, x_axis) == x_axis
    assert Subspace.from_rows(2, x_axis.mat.data + y_axis.mat.data) == Subspace.full(2)
    proj = RatMat.from_rows([[1, 0]])  # Q^2 -> Q^1
    assert preimage(proj, Subspace.zero(1)) == Subspace.from_rows(2, [[0, 1]])
    assert Subspace.from_rows(1, [proj.apply(r) for r in Subspace.full(2).mat.data]) == Subspace.full(1)


@given(st.data())
@settings(max_examples=40)
def test_image_preimage_adjunction(data):
    A = data.draw(mats(3, 3))
    rows = data.draw(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=2))
    S = Subspace.from_rows(3, rows)
    img = Subspace.from_rows(3, [A.apply(row) for row in preimage(A, S).mat.data])
    assert intersect(img, S) == img  # img subseteq S


@given(st.data())
@settings(max_examples=40)
def test_sum_intersection_dimension_formula(data):
    rows1 = data.draw(st.lists(st.lists(rationals, min_size=4, max_size=4), max_size=3))
    rows2 = data.draw(st.lists(st.lists(rationals, min_size=4, max_size=4), max_size=3))
    S = Subspace.from_rows(4, rows1)
    T = Subspace.from_rows(4, rows2)
    assert Subspace.from_rows(4, S.mat.data + T.mat.data).dim + intersect(S, T).dim == S.dim + T.dim


def test_equations_form():
    S = Subspace.from_rows(3, [[1, 0, 2], [0, 1, -1]])
    eqs = S.equations()
    for row in S.mat.data:
        assert all(v == 0 for v in eqs.apply(row))
    assert eqs.rows == 1


def test_sparse_agrees_with_dense():
    rng = random.Random(9)
    for _ in range(30):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        A = RatMat.from_rows(
            [[Fr(rng.randint(-2, 2)) if rng.random() < 0.5 else Fr(0) for _ in range(c)]
             for _ in range(r)], c
        )
        rows = [
            {j: v for j, v in enumerate(row) if v} for row in A.data
        ]
        rows = [rw for rw in rows if rw]
        snapshot = [dict(rw) for rw in rows]
        assert sparse_rank(rows) == A.rank()
        basis = sparse_kernel_basis(rows, c)
        assert rows == snapshot  # cached rows are handed in; the eliminator must copy
        K = Subspace.from_rows(c, [[Fr(v.get(j, 0)) for j in range(c)] for v in basis])
        assert K == kernel(A) == Subspace.span(c, basis)


def test_solve_matrix():
    A = RatMat.from_rows([[1, 1], [0, 1], [1, 0]])
    X = RatMat.from_rows([[1, 0], [2, 5]])
    B = A @ X
    assert solve_matrix(A, B) == X


# ---------------------------------------------------------------------------
# Reference: the dense Fraction Gauss-Jordan elimination that the sparse
# eliminator replaced, and the solvers as they were written on top of it.
# ---------------------------------------------------------------------------


def _gauss_jordan(A):
    m = [row[:] for row in A.data]
    pivots = []
    r = 0
    for c in range(A.cols):
        pr = next((i for i in range(r, A.rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [a * inv for a in m[r]]
        for i in range(A.rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == A.rows:
            break
    return m, tuple(pivots)


def _ref_kernel(A):
    red, piv = _gauss_jordan(A)
    rows = []
    for f in sorted(set(range(A.cols)) - set(piv)):
        v = [Fr(0)] * A.cols
        v[f] = Fr(1)
        for r, c in enumerate(piv):
            v[c] = -red[r][f]
        rows.append(v)
    red, piv = _gauss_jordan(RatMat.from_rows(rows, A.cols))
    return red[: len(piv)]


def _ref_inverse(A):
    if A.rows != A.cols:
        raise DimensionMismatch
    red, piv = _gauss_jordan(RatMat.hstack([A, RatMat.identity(A.rows)]))
    if len(piv) < A.rows or any(p >= A.rows for p in piv):
        raise NonUniqueSolutionError
    return [row[A.rows:] for row in red]


def _ref_left_solver(M):
    red, piv = _gauss_jordan(RatMat.hstack([M, RatMat.identity(M.rows)]))
    main = [(r, p) for r, p in enumerate(piv) if p < M.cols]
    if len(main) < M.cols:
        raise NonUniqueSolutionError
    L = [[Fr(0)] * M.rows for _ in range(M.cols)]
    for r, p in main:
        L[p] = red[r][M.cols:]
    return L


def _ref_solve_matrix(A, B):
    red, piv = _gauss_jordan(RatMat.hstack([A, B]))
    if any(p >= A.cols for p in piv):
        raise NoSolutionError
    if len(piv) < A.cols:
        raise NonUniqueSolutionError
    X = [[Fr(0)] * B.cols for _ in range(A.cols)]
    for r, c in enumerate(piv):
        X[c] = red[r][A.cols:]
    return X


def _outcome(fn, *args):
    """The result of fn, or the class of the exception it raised."""
    try:
        out = fn(*args)
    except (NoSolutionError, NonUniqueSolutionError, DimensionMismatch) as e:
        return type(e)
    return out.data if isinstance(out, RatMat) else out


def _exact(data):
    return all(type(x) is Fr for row in data for x in row)


# rows drawn whole from zero rows, integral rows and fractional rows, so that
# zero rows, repeated rows and non-integral pivots all occur
def _rows(cols):
    zero = st.just([0] * cols)
    integral = st.lists(st.integers(-3, 3), min_size=cols, max_size=cols)
    fractional = st.lists(rationals, min_size=cols, max_size=cols)
    return st.one_of(zero, integral, fractional)


def _mat(data, rows, cols):
    return RatMat.from_rows(data.draw(st.lists(_rows(cols), min_size=rows, max_size=rows)), cols)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_eliminator_matches_gauss_jordan(data):
    """rref, rank, kernel and the solvers agree exactly with the dense reference,
    on empty, tall and wide shapes, including their exception classes."""
    r = data.draw(st.integers(0, 6), label="rows")
    c = data.draw(st.one_of(st.just(r), st.integers(0, 6)), label="cols")  # square half the time
    A = _mat(data, r, c)
    before = A.copy()
    red, piv = A.rref()
    assert (red.data, piv) == _gauss_jordan(A)
    assert (red.rows, red.cols) == (r, c) and _exact(red.data)
    assert A == before  # the input is never touched
    assert A.rank() == len(piv)
    K = kernel(A)
    assert K.mat.data == _ref_kernel(A) and _exact(K.mat.data)
    assert K.dim + len(piv) == c
    # the row space meets the kernel only in 0 (it is its orthogonal complement)
    assert all(K.contains(row) for row in K.mat.data)
    assert not any(K.contains(row) for row in red.data[: len(piv)])
    assert _outcome(left_solver, A) == _outcome(_ref_left_solver, A)
    assert _outcome(RatMat.inverse, A) == _outcome(_ref_inverse, A)
    B = _mat(data, r, data.draw(st.integers(0, 3), label="rhs cols"))
    assert _outcome(solve_matrix, A, B) == _outcome(_ref_solve_matrix, A, B)


def _ref_rank(rows, cols):
    return len(_gauss_jordan(RatMat.from_rows(rows, cols))[1])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_subspace_semantics(data):
    """The sparse RREF rows of a span against the dense reference: basis,
    coordinates, membership, complements and hashing."""
    n = data.draw(st.integers(0, 5), label="ambient")
    rows = data.draw(st.lists(_rows(n), max_size=4), label="rows")
    S = Subspace.from_rows(n, rows)
    red, piv = _gauss_jordan(RatMat.from_rows(rows, n))
    assert S.mat.data == red[: len(piv)] and _exact(S.mat.data)
    assert all(isinstance(c, int) for row in S.rows for _, c in row if c.denominator == 1)
    # coordinates are read at the pivots
    coeffs = data.draw(st.lists(rationals, min_size=S.dim, max_size=S.dim), label="coeffs")
    vec = [sum((c * row[j] for c, row in zip(coeffs, S.mat.data)), Fr(0)) for j in range(n)]
    assert S.coordinates(vec) == tuple(coeffs)
    w = data.draw(_rows(n), label="vector")
    member = _ref_rank(S.mat.data + [w], n) == S.dim
    assert S.contains(w) == member
    if not member:
        with pytest.raises(NoSolutionError):
            S.coordinates(w)
    T = Subspace.from_rows(n, data.draw(st.lists(_rows(n), max_size=4), label="other"))
    assert is_complement(S, T, n) == (
        S.dim + T.dim == n and _ref_rank(S.mat.data + T.mat.data, n) == n
    )
    # another spanning set of the same space gives the same rows and hash
    total = [sum(col, Fr(0)) for col in zip(*rows)]
    again = Subspace.from_rows(n, rows[::-1] + ([total] if rows else []))
    assert again == S and hash(again) == hash(S) == hash(Subspace.span(n, S.rows))


def test_subspace_is_immutable():
    rows = [[1, 2, 0], [0, 0, 3]]
    S = Subspace.from_rows(3, rows)
    S.mat.data[0][0] += 1
    assert S == Subspace.from_rows(3, rows) and S.mat == Subspace.from_rows(3, rows).mat
    assert type(S.rows) is tuple and all(type(row) is tuple for row in S.rows)
