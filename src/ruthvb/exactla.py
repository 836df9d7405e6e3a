"""Exact linear algebra over the rationals.

Dense matrices with arbitrary-precision Fraction entries, and canonical
subspaces held as their reduced row echelon form in sparse rows.  There is
one eliminator: a sparse forward elimination over {column: coefficient}
rows, with integral entries kept as ints, and one back-substitution.  It
decides the rank, RREF, kernel, inverse and solvers of dense matrices as
well as the large but very sparse systems produced by face-map constraints,
and kernels restricted to a subspace, eliminated in its own coordinates.
Both passes update rows through one routine, _sub_scaled.
No floating point anywhere; equality of subspaces is equality of
representations.  A Subspace stores only tuples, so it cannot change after
construction and is safe to share; its dense basis `mat` is a new matrix on
every read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DimensionMismatch, NoSolutionError, NonUniqueSolutionError

Fr = Fraction
ZERO = Fr(0)
ONE = Fr(1)


def _scalar(c) -> int | Fraction:
    """c exactly: an int when integral, else a Fraction."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class RatMat:
    """A rows x cols matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list[list[Fraction]]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise DimensionMismatch(f"data does not match shape {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> RatMat:
        return RatMat(rows, cols, [[ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> RatMat:
        m = RatMat.zeros(n, n)
        for i in range(n):
            m.data[i][i] = ONE
        return m

    @staticmethod
    def from_rows(rows_data, cols: int | None = None) -> RatMat:
        rows_data = [[Fr(x) for x in row] for row in rows_data]
        r = len(rows_data)
        c = len(rows_data[0]) if rows_data else (cols if cols is not None else 0)
        return RatMat(r, c, rows_data)

    @staticmethod
    def col_vector(vec) -> RatMat:
        return RatMat(len(vec), 1, [[Fr(x)] for x in vec])

    def copy(self) -> RatMat:
        return RatMat(self.rows, self.cols, [row[:] for row in self.data])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: RatMat) -> RatMat:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        return RatMat(
            self.rows,
            self.cols,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)],
        )

    def __sub__(self, other: RatMat) -> RatMat:
        return self + (-other)

    def __neg__(self) -> RatMat:
        return RatMat(self.rows, self.cols, [[-a for a in row] for row in self.data])

    def scale(self, c) -> RatMat:
        c = Fr(c)
        return RatMat(self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __matmul__(self, other: RatMat) -> RatMat:
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        out = RatMat.zeros(self.rows, other.cols)
        odata = other.data
        for i, row in enumerate(self.data):
            acc = out.data[i]
            for k, a in enumerate(row):
                if a:
                    ok = odata[k]
                    for j, b in enumerate(ok):
                        if b:
                            acc[j] += a * b
        return out

    def apply(self, vec) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length does not match column count")
        out = []
        for row in self.data:
            s = ZERO
            for a, x in zip(row, vec):
                if a and x:
                    s += a * x
            out.append(s)
        return tuple(out)

    def transpose(self) -> RatMat:
        return RatMat(self.cols, self.rows, [list(col) for col in zip(*self.data)] if self.rows else [[] for _ in range(self.cols)])

    # -- structure ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMat)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.data)))

    def is_zero(self) -> bool:
        return all(not a for row in self.data for a in row)

    def col(self, j) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self.data)

    @staticmethod
    def vstack(mats: list[RatMat]) -> RatMat:
        cols = mats[0].cols
        data = []
        for m in mats:
            if m.cols != cols:
                raise DimensionMismatch("vstack column mismatch")
            data.extend(row[:] for row in m.data)
        return RatMat(len(data), cols, data)

    @staticmethod
    def hstack(mats: list[RatMat]) -> RatMat:
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise DimensionMismatch("hstack row mismatch")
        data = [sum((m.data[i] for m in mats), []) for i in range(rows)]
        return RatMat(rows, sum(m.cols for m in mats), data)

    def _sparse_rows(self) -> list[dict[int, Fraction]]:
        """Rows as {column: entry} dicts, integral entries as ints."""
        return [
            {j: a.numerator if a.denominator == 1 else a for j, a in enumerate(row) if a}
            for row in self.data
        ]

    def rref(self) -> tuple[RatMat, tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        basis = Subspace.span(self.cols, self._sparse_rows())
        data = basis.mat.data
        data.extend([ZERO] * self.cols for _ in range(self.rows - len(data)))
        return RatMat(self.rows, self.cols, data), tuple(row[0][0] for row in basis.rows)

    def rank(self) -> int:
        return len(_sparse_eliminate(self._sparse_rows()))

    def inverse(self) -> RatMat:
        if self.rows != self.cols:
            raise DimensionMismatch("only square matrices invert")
        return left_solver(self)

    def __repr__(self):
        return f"RatMat({self.rows}x{self.cols})"


def left_solver(M: RatMat) -> RatMat:
    """L with L @ v the unique solution of M x = v, for consistent v.

    Requires full column rank; consistency of v is the caller's burden (the
    product M @ (L @ v) recovers v only for v in the column space).
    """
    aug = RatMat.hstack([M, RatMat.identity(M.rows)])
    red, piv = aug.rref()
    main = [(r, p) for r, p in enumerate(piv) if p < M.cols]
    if len(main) < M.cols:
        raise NonUniqueSolutionError("matrix does not have full column rank")
    L = RatMat.zeros(M.cols, M.rows)
    for r, p in main:
        L.data[p] = red.data[r][M.cols:]
    return L


def solve_matrix(A: RatMat, B: RatMat) -> RatMat:
    """Solve A X = B column by column, requiring uniqueness throughout."""
    aug = RatMat.hstack([A, B])
    red, piv = aug.rref()
    if any(p >= A.cols for p in piv):
        raise NoSolutionError("some right-hand column outside the column space")
    if len(piv) < A.cols:
        raise NonUniqueSolutionError("kernel is nontrivial")
    X = RatMat.zeros(A.cols, B.cols)
    for r, c in enumerate(piv):
        X.data[c] = red.data[r][A.cols:]
    return X


class Subspace:
    """A subspace of Q^ambient held as its reduced row echelon form.

    rows is a tuple, in pivot order, of ((column, coefficient), ...) rows
    sorted by column, integral coefficients as ints.  Each row starts with
    its pivot at coefficient 1 and is 0 at every other pivot.  The RREF is
    unique, so two subspaces are equal iff their rows are.
    """

    __slots__ = ("ambient", "rows")

    def __init__(self, ambient: int, rows: tuple):
        self.ambient = ambient
        self.rows = rows

    @staticmethod
    def span(ambient: int, sparse_rows) -> Subspace:
        """The span of {column: coefficient} rows (or pair tuples), eliminated once."""
        pivots = _back_substitute(_sparse_eliminate(sparse_rows))
        return Subspace(ambient, tuple(
            tuple(sorted((v, _scalar(c)) for v, c in pivots[pv].items())) for pv in sorted(pivots)
        ))

    @staticmethod
    def from_rows(ambient: int, rows) -> Subspace:
        sparse = []
        for row in rows:
            if len(row) != ambient:
                raise DimensionMismatch("basis width must equal ambient dimension")
            sparse.append({j: c for j, c in enumerate(map(_scalar, row)) if c})
        return Subspace.span(ambient, sparse)

    @staticmethod
    def zero(ambient: int) -> Subspace:
        return Subspace(ambient, ())

    @staticmethod
    def full(ambient: int) -> Subspace:
        return Subspace(ambient, tuple(((j, 1),) for j in range(ambient)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def mat(self) -> RatMat:
        """The basis as a new dense RatMat, one row per pivot."""
        data = []
        for row in self.rows:
            dense = [ZERO] * self.ambient
            for v, c in row:
                dense[v] = Fr(c)
            data.append(dense)
        return RatMat(len(data), self.ambient, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient})"

    def _expand(self, vec) -> tuple[tuple[Fraction, ...], list]:
        """vec's entries at the pivots, and vec minus that combination of rows.

        A row is 1 at its own pivot and 0 at every other pivot, so these are
        the only possible coefficients; vec is a member iff the rest is zero.
        """
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length does not match ambient dimension")
        coords = tuple(Fr(vec[row[0][0]]) for row in self.rows)
        rest = list(vec)
        for c, row in zip(coords, self.rows):
            if c:
                for v, a in row:
                    rest[v] -= c * a
        return coords, rest

    def contains(self, vec) -> bool:
        return not any(self._expand(vec)[1])

    def coordinates(self, vec) -> tuple[Fraction, ...]:
        """Coefficients of vec in the basis rows; raises if not a member."""
        coords, rest = self._expand(vec)
        if any(rest):
            raise NoSolutionError("vector outside the subspace")
        return coords

    def equations(self) -> RatMat:
        """Rows N with S = {x : N x = 0}, in reduced row echelon form."""
        return Subspace.span(self.ambient, sparse_kernel_basis(self.rows, self.ambient)).mat


def kernel(A: RatMat) -> Subspace:
    """Exact null space {x : A x = 0} with canonical RREF basis."""
    return Subspace.span(A.cols, sparse_kernel_basis(A._sparse_rows(), A.cols))


def restricted_kernel(S: Subspace, rows) -> Subspace:
    """{x in S : rows x = 0}, canonical; rows are {column: coefficient} dicts.

    Each row is read in S's basis coordinates, eliminated there in dim S
    variables, and the kernel's vectors are mapped back through S's basis.
    A zero S, or rows that vanish on S, give S back.
    """
    if not S.rows:
        return S
    cols: dict = {}  # column -> {basis row: coefficient}
    for i, row in enumerate(S.rows):
        for v, c in row:
            cols.setdefault(v, {})[i] = c
    local = []
    for row in rows:
        y: dict = {}
        for v, a in row.items():
            if v in cols:
                _sub_scaled(y, cols[v], -a)
        if y:
            local.append(y)
    if not local:
        return S
    basis_rows = [dict(row) for row in S.rows]
    basis = []
    for y in sparse_kernel_basis(local, S.dim):
        x: dict = {}
        for i, c in y.items():
            _sub_scaled(x, basis_rows[i], -c)
        basis.append(x)
    return Subspace.span(S.ambient, basis)


def preimage(A: RatMat, S: Subspace) -> Subspace:
    """{x : A x in S}, computed through the equation form of S."""
    if S.ambient != A.rows:
        raise DimensionMismatch("subspace ambient must match row count")
    eqs = S.equations()
    if eqs.rows == 0:
        return Subspace.full(A.cols)
    return kernel(eqs @ A)


def intersect(S: Subspace, T: Subspace) -> Subspace:
    """S ∩ T: the common solutions of both equation forms."""
    return kernel(RatMat.vstack([S.equations(), T.equations()]))


def is_complement(S: Subspace, T: Subspace, ambient: int) -> bool:
    """True when dim S + dim T = ambient and the stacked bases have full rank."""
    if S.ambient != ambient or T.ambient != ambient:
        raise DimensionMismatch("ambient dimensions differ")
    return S.dim + T.dim == ambient and sparse_rank(S.rows + T.rows) == ambient


# ---------------------------------------------------------------------------
# The eliminator.
#
# Face-map constraint systems are huge but mostly single- or double-entry
# rows, and dense matrices here are mostly zeros and small integers.  Rows
# are dicts {var: coefficient}; every rank, RREF, kernel and solve above
# runs on the forward elimination and the back-substitution below, and
# every row update in the library, here and in the horn and coboundary
# rows, is _sub_scaled.
# ---------------------------------------------------------------------------


def _sub_scaled(row: dict, other: dict, c, shift: int = 0, skip=None) -> None:
    """row -= c * other in place, other's variables moved by shift; zeros dropped.

    The entry of other at skip, if any, is left out (the caller has popped
    the matching entry of row).  Coefficients may be ints or Fractions.
    """
    for v, x in other.items():
        if v == skip:
            continue
        v += shift
        nv = row.get(v, 0) - c * x
        if nv:
            row[v] = nv
        else:
            row.pop(v, None)


def _sparse_eliminate(rows: list[dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Forward-eliminate sparse rows; returns pivot-variable -> normalized row.

    Each pivot is the least variable of its row, and a pivot row is never
    edited once stored, so the pivots are the RREF pivot columns.  The input
    dicts are copied, never changed (callers hand in cached rows).
    Coefficients may be ints or Fractions (mixed arithmetic stays exact).
    """
    pivots = {}
    for row in sorted((r for r in rows if r), key=len):
        row = dict(row)
        while row:
            # reduce against the first stored pivot the row meets
            hit = None
            for v in row:
                if v in pivots:
                    hit = v
                    break
            if hit is None:
                break
            _sub_scaled(row, pivots[hit], row.pop(hit), skip=hit)
        if not row:
            continue
        # the least variable is the pivot, which keeps the pivots in RREF order
        pv = min(row)
        lead = row[pv]
        if lead == 1:
            pivots[pv] = row
        elif lead == -1:
            pivots[pv] = {v: -c for v, c in row.items()}
        else:
            inv = ONE / lead if isinstance(lead, Fraction) else Fr(1, lead)
            pivots[pv] = {v: c * inv for v, c in row.items()}
    return pivots


def _back_substitute(pivots: dict[int, dict[int, Fraction]]) -> dict[int, dict[int, Fraction]]:
    """Reduce each pivot row, in place, to its pivot plus free variables.

    Every other variable of a pivot row is larger than its pivot, so rows
    taken from the largest pivot down meet only rows already reduced, and
    one pass leaves the unique reduced row echelon form.
    """
    for pv in sorted(pivots, reverse=True):
        row = pivots[pv]
        for v in [v for v in row if v != pv and v in pivots]:
            _sub_scaled(row, pivots[v], row.pop(v), skip=v)
    return pivots


def sparse_rank(rows: list[dict[int, Fraction]]) -> int:
    """The rank of sparse rows ({column: coefficient} dicts or pair tuples)."""
    return len(_sparse_eliminate(rows))


def sparse_kernel_basis(rows: list[dict[int, Fraction]], nvars: int) -> list[dict[int, Fraction]]:
    """Basis of the solution space of the homogeneous sparse system.

    One basis vector per free variable, with unit value there; pivot values
    back-substituted.  The result is triangular with respect to the free
    variables, hence canonical for a fixed variable order.
    """
    pivots = _back_substitute(_sparse_eliminate(rows))
    basis = []
    for f in range(nvars):
        if f in pivots:
            continue
        vec = {f: ONE}
        for pv, row in pivots.items():
            c = row.get(f)
            if c:
                vec[pv] = -c
        basis.append(vec)
    return basis
