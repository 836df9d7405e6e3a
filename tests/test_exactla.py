import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from ruthvb.errors import NoSolutionError, NonUniqueSolutionError
from ruthvb.exactla import (
    RatMat,
    Subspace,
    dense_rows_from_sparse,
    image,
    intersect,
    is_complement,
    kernel,
    left_solver,
    preimage,
    solve_matrix,
    solve_unique,
    sparse_kernel_basis,
    sparse_rank,
    sum_subspaces,
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
    A = RatMat.from_rows([[2]])
    assert solve_unique(A, [3]) == (Fr(3, 2),)
    I = RatMat.identity(3)
    assert solve_unique(I, [1, 2, 3]) == (Fr(1), Fr(2), Fr(3))
    sing = RatMat.from_rows([[1, 1], [1, 1]])
    with pytest.raises(NoSolutionError):
        solve_unique(sing, [1, 2])
    with pytest.raises(NonUniqueSolutionError):
        solve_unique(sing, [1, 1])


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
    assert sum_subspaces(x_axis, y_axis) == Subspace.full(2)
    proj = RatMat.from_rows([[1, 0]])  # Q^2 -> Q^1
    assert preimage(proj, Subspace.zero(1)) == Subspace.from_rows(2, [[0, 1]])
    assert image(proj, Subspace.full(2)) == Subspace.full(1)


@given(st.data())
@settings(max_examples=40)
def test_image_preimage_adjunction(data):
    A = data.draw(mats(3, 3))
    rows = data.draw(st.lists(st.lists(rationals, min_size=3, max_size=3), max_size=2))
    S = Subspace.from_rows(3, rows)
    img = image(A, preimage(A, S))
    assert intersect(img, S) == img  # img subseteq S


@given(st.data())
@settings(max_examples=40)
def test_zassenhaus_dimension_formula(data):
    rows1 = data.draw(st.lists(st.lists(rationals, min_size=4, max_size=4), max_size=3))
    rows2 = data.draw(st.lists(st.lists(rationals, min_size=4, max_size=4), max_size=3))
    S = Subspace.from_rows(4, rows1)
    T = Subspace.from_rows(4, rows2)
    assert sum_subspaces(S, T).dim + intersect(S, T).dim == S.dim + T.dim


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
        assert sparse_rank(rows, c) == A.rank()
        basis = sparse_kernel_basis(rows, c)
        K = Subspace.from_rows(c, dense_rows_from_sparse(basis, c))
        assert K == kernel(A)


def test_solve_matrix():
    A = RatMat.from_rows([[1, 1], [0, 1], [1, 0]])
    X = RatMat.from_rows([[1, 0], [2, 5]])
    B = A @ X
    assert solve_matrix(A, B) == X
