"""Chain complexes, normalization, and two inverse constructions.

The preferred inverse dk indexes level n by the injective order maps out of
[k] into [n] that preserve 0 (encoded as bitmasks): it is the semi-direct
product over POINT, the point groupoid, with the chain complex as the tower
(sdp.MaskBundle), which is how the relative correspondence restricts to the
classical one.  The classical inverse dk_classic indexes level n by the
surjections [n] ->> [k] and is written independently, as a comparison.
Both are block-structured simplicial vector spaces (SimpVBs over POINT) so
that identity checks compose index transports rather than dense matrices;
the flat-cleavage check reuses the bundle's cleavage rank closure.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ValidationError
from .exactla import Fr, ONE, RatMat, Subspace, solve_matrix, sparse_rank
from .graded import BlockMap, Grading
from .groupoid import POINT
from .ordmaps import zero_mono_masks
from .sdp import MaskBundle
from .simplicial import horn_dim
from .svb import Cleavage, SimpVB, _face_closures, relative_horn_kernel


class ChainComplex:
    """Nonnegatively graded chain complex over Q with exact boundary."""

    def __init__(self, dims, boundary: dict[int, RatMat]):
        self.dims = tuple(int(d) for d in dims)
        self.boundary = {}
        for n in range(1, len(self.dims)):
            d = boundary.get(n)
            if d is None:
                d = RatMat.zeros(self.dim(n - 1), self.dim(n))
            if (d.rows, d.cols) != (self.dim(n - 1), self.dim(n)):
                raise ValidationError(f"boundary {n} has wrong shape")
            self.boundary[n] = d
        for n in range(2, len(self.dims)):
            if not (self.boundary[n - 1] @ self.boundary[n]).is_zero():
                raise ValidationError(f"boundary squared is nonzero at degree {n}", witness=n)

    def dim(self, k: int) -> int:
        return self.dims[k] if 0 <= k < len(self.dims) else 0

    def d(self, n: int) -> RatMat:
        return self.boundary.get(n, RatMat.zeros(self.dim(n - 1), self.dim(n)))

    @property
    def max_degree(self) -> int:
        for k in range(len(self.dims) - 1, -1, -1):
            if self.dims[k]:
                return k
        return 0

    def __eq__(self, other):
        return (
            isinstance(other, ChainComplex)
            and self.dims == other.dims
            and all(self.d(n) == other.d(n) for n in range(1, len(self.dims)))
        )

    def __repr__(self):
        return f"ChainComplex(dims={self.dims})"


def sign_flip(Y: ChainComplex) -> ChainComplex:
    """The complex with boundary scaled by (-1)^(n-1) in degree n."""
    return ChainComplex(
        Y.dims,
        {n: Y.d(n).scale(Fr(-1) if (n - 1) % 2 else Fr(1)) for n in range(1, len(Y.dims))},
    )


def half_twist_sign(n: int) -> Fraction:
    """(-1)^(n choose 2): the degreewise sign conjugating the two boundary conventions."""
    return Fr(-1) if (n * (n - 1) // 2) % 2 else Fr(1)


# ---------------------------------------------------------------------------
# The 0-preserving-mono inverse.
# ---------------------------------------------------------------------------


def dk(Y: ChainComplex, L: int | None = None) -> MaskBundle:
    """Simplicial vector space on the 0-preserving mono indices of Y.

    It is the semi-direct product over POINT with Y as the tower: the m = 0
    prefix block is the boundary, unsigned because its (-1)^l is exactly
    sign_flip, the m = 1 block is the identity with the term's sign, and
    there are no higher operators.
    """
    if L is None:
        L = Y.max_degree + 3

    def grading(n, s=None):
        masks = zero_mono_masks(n)
        return Grading(masks, tuple(Y.dim(bin(m).count("1") - 1) for m in masks))

    def prefix_entry(term, s):
        if term.m == 0:
            return Y.d(bin(term.source_mask).count("1") - 1)
        return term.sign if term.m == 1 else None

    return MaskBundle(POINT, L, grading, prefix_entry)


def dk_sign_iso(Y: ChainComplex, L: int) -> dict[int, BlockMap]:
    """Blockwise signs (-1)^(deg choose 2) as maps dk(sign_flip(Y))_n -> dk(Y)_n."""
    X = dk(sign_flip(Y), L)
    out = {}
    for n in range(L + 1):
        g = X.grading(n)
        out[n] = BlockMap(
            g, g, {(m, m): half_twist_sign(bin(m).count("1") - 1) for m in g.labels}
        )
    return out


# ---------------------------------------------------------------------------
# The classical (surjection-indexed) inverse.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def surjections(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """All monotone surjections [n] ->> [k] as image tuples."""
    if k > n or k < 0:
        return ()
    if n == 0:
        return ((0,),)
    out = []
    for prev in surjections(n - 1, k):
        out.append(prev + (prev[-1],))
    for prev in surjections(n - 1, k - 1):
        out.append(prev + (prev[-1] + 1,))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def surjection_labels(n: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for k in range(n + 1):
        out.extend(surjections(n, k))
    return tuple(out)


def dk_classic(Y: ChainComplex, L: int | None = None) -> SimpVB:
    """The popular inverse with level n indexed by surjections out of [n]."""
    if L is None:
        L = Y.max_degree + 3

    def grading(n, s=None):
        labels = surjection_labels(n)
        return Grading(labels, tuple(Y.dim(lab[-1]) for lab in labels))

    def face(n, i, s=None):
        src, dst = me.grading(n), me.grading(n - 1)
        blocks = {}
        for alpha in surjection_labels(n):
            if src.dim(alpha) == 0:
                continue
            k = alpha[-1]
            img = alpha[:i] + alpha[i + 1 :]
            if len(set(img)) == k + 1:
                blocks[(img, alpha)] = blocks.get((img, alpha), 0) + 1
            elif i == n:
                # the top value is hit only at the last input; d_n applies the boundary
                beta = img  # a surjection [n-1] ->> [k-1]
                if dst.dim(beta):
                    blocks[(beta, alpha)] = Y.d(k)
        return BlockMap(src, dst, blocks)

    def deg(n, j, s=None):
        src, dst = me.grading(n), me.grading(n + 1)
        blocks = {}
        for alpha in surjection_labels(n):
            img = alpha[: j + 1] + alpha[j:]
            blocks[(img, alpha)] = 1
        return BlockMap(src, dst, blocks)

    X = SimpVB(POINT, L, grading, face, deg)
    me = weakref.proxy(X)
    return X


def mono_epi_duality(n: int) -> dict[int, tuple[int, ...]]:
    """Levelwise pairing: 0-preserving mono mask -> dual surjection label at level n."""
    out = {}
    for mask in zero_mono_masks(n):
        elems = []
        m, v = mask, 0
        while m:
            if m & 1:
                elems.append(v)
            m >>= 1
            v += 1
        label = []
        r = 0
        for i in range(n + 1):
            while r + 1 < len(elems) and elems[r + 1] <= i:
                r += 1
            label.append(r)
        out[mask] = tuple(label)
    return out


# ---------------------------------------------------------------------------
# Normalization.
# ---------------------------------------------------------------------------


@dataclass
class Normalization:
    """Canonical kernels with the restricted differential and inclusion bases."""

    dims: tuple[int, ...]
    boundary: dict[int, RatMat]
    inclusions: dict[int, Subspace]

    def complex(self) -> ChainComplex:
        return ChainComplex(self.dims, self.boundary)


def normalize(X: SimpVB) -> Normalization:
    """Intersection of the positive face kernels with differential d_0.

    Assumes X satisfies the simplicial identities; run
    verify_simplicial_identities first on untrusted input.
    """
    inclusions = {}
    dims = []
    for n in range(X.L + 1):
        sub = relative_horn_kernel(X, n, 0, None)
        inclusions[n] = sub
        dims.append(sub.dim)
    boundary = {}
    for n in range(1, X.L + 1):
        if dims[n] == 0 or dims[n - 1] == 0:
            boundary[n] = RatMat.zeros(dims[n - 1], dims[n])
            continue
        img = X.face(n, 0).to_dense() @ inclusions[n].mat.transpose()
        boundary[n] = solve_matrix(inclusions[n - 1].mat.transpose(), img)
    result = Normalization(tuple(dims), boundary, inclusions)
    for n in range(2, X.L + 1):
        prod = result.boundary[n - 1] @ result.boundary[n]
        if not prod.is_zero():
            raise ValidationError(f"restricted differential does not square to zero at {n}")
    return result


def degenerate_span(X: SimpVB, n: int) -> Subspace:
    """Span of the images of all degeneracies hitting level n."""
    g = X.grading(n)
    if n == 0:
        return Subspace.zero(g.total)
    rows = []
    for j in range(n):
        rows.extend(X.deg(n - 1, j).to_dense().transpose().data)
    return Subspace.from_rows(g.total, rows)


def chain_iso_onto(norm: Normalization, Y: ChainComplex, projection) -> dict[int, RatMat]:
    """Construct an exact chain isomorphism from the normalization onto Y.

    `projection(n)` must give the dense matrix of the candidate projection
    X_n -> Y_n (for the mono-indexed model, the top-index component).  Scalars
    are adjusted degreewise so the boundaries intertwine exactly; failure to
    do so raises.
    """
    top = len(norm.dims) - 1
    out = {}
    scale = ONE
    for n in range(top + 1):
        if norm.dims[n] != Y.dim(n):
            raise ValidationError(f"normalization dim mismatch at degree {n}")
        cand = projection(n) @ norm.inclusions[n].mat.transpose() if norm.dims[n] else RatMat.zeros(0, 0)
        if n == 0:
            f = cand
        else:
            lhs = out[n - 1] @ norm.boundary[n]
            rhs = Y.d(n) @ cand
            scale = ONE
            found = None
            for r in range(rhs.rows):
                for c in range(rhs.cols):
                    if rhs.data[r][c]:
                        found = lhs.data[r][c] / rhs.data[r][c]
                        break
                if found is not None:
                    break
            if found is not None:
                scale = found
            if rhs.scale(scale) != lhs:
                raise ValidationError(f"no scalar conjugation matches boundaries at degree {n}")
            f = cand.scale(scale)
        if norm.dims[n] and f.rank() != norm.dims[n]:
            raise ValidationError(f"candidate projection not invertible at degree {n}")
        out[n] = f
    return out


def dk_projection(X: SimpVB, n: int) -> RatMat:
    """Dense matrix of the top-index component of level n for either inverse model.

    The top label is the last one: the full mask for dk, the identity
    surjection for dk_classic.
    """
    g = X.grading(n)
    return BlockMap.projection(g, g.labels[-1]).to_dense()


def normalization_roundtrip(Y: ChainComplex, X: SimpVB):
    """normalize(X) together with a constructed exact isomorphism onto Y."""
    norm = normalize(X)
    iso = chain_iso_onto(norm, Y, lambda n: dk_projection(X, n))
    return norm, iso


# ---------------------------------------------------------------------------
# Horn filling diagnostics and the unique normal cleavage.
# ---------------------------------------------------------------------------


@dataclass
class LevelCheck:
    level: int
    k: int
    passed: bool
    detail: str = ""


@dataclass
class FlatCleavageReport:
    horn_iso: list[LevelCheck]
    flatness: list[LevelCheck]
    order_equivalence: list[LevelCheck]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.horn_iso + self.flatness + self.order_equivalence)


def check_unique_flat_cleavage(X: SimpVB) -> FlatCleavageReport:
    """Verify the degenerate span is a normal flat cleavage and the order criterion."""
    norm = normalize(X)
    spans = {n: degenerate_span(X, n) for n in range(X.L + 1)}
    horn_iso = []
    for n in range(1, X.L + 1):
        D = spans[n]
        for k in range(n):
            hd = horn_dim(X, n, k, None)
            K = relative_horn_kernel(X, n, k, None)  # rank of h_k on D is dim(D + K) - dim K
            rk = sparse_rank(K.rows + D.rows) - K.dim
            ok = rk == D.dim == hd
            horn_iso.append(LevelCheck(n, k, ok, f"rank {rk}, dim D {D.dim}, horn {hd}"))
    flatness = []
    C = Cleavage(X, basis_fn=lambda n, s: spans[n])
    for n in range(2, X.L + 1):
        # {w in D_n : every prefix and every face d_i, i > 0, of w lies in D}
        witness_dim, ok = _face_closures(X, C, n, None, (0,), (False,))[False, 0]
        flatness.append(LevelCheck(n, 0, ok, f"witness dim {witness_dim}"))
    order_equiv = []
    for n in range(1, X.L + 1):
        unique = not any(relative_horn_kernel(X, n, k, None).dim for k in range(n + 1))
        order_equiv.append(
            LevelCheck(n, -1, unique == (norm.dims[n] == 0), f"NX dim {norm.dims[n]}")
        )
    return FlatCleavageReport(horn_iso, flatness, order_equiv)
