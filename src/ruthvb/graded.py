"""Block-decomposed linear maps between labeled direct sums.

Fibers of the bundles in this library are direct sums indexed by simplex-
category data.  Face and degeneracy maps are extremely sparse in that
decomposition: most blocks are signed identities.  BlockMap keeps that
structure explicit, storing each block either as a scalar (meaning that
scalar times the identity) or as a dense RatMat, so that identity
verification composes index transports instead of full matrices.

A scalar block is a Python int when it is integral and a Fraction only when
it is not; no stored block is zero.  Transports therefore compose and compare
in native integer arithmetic, and every result stays an exact rational.

A BlockMap is stored in one of two forms, and transport is the one place
that picks between them.  A transport whose coefficients are all 1 and whose
target labels each occur once is a row map, {target label: source label}:
each target block reads one source block by the identity.  Every positive
face and every degeneracy of a mask-graded bundle is one.  Every other map
stores its blocks.  The blocks property reads either form; for a row map it
materializes {(t, a): 1} on first use and keeps it.  compose and == read a
row map as it is: row ∘ row is a row map again, row ∘ M and M ∘ row (when no
two targets read one source) relabel M's blocks without arithmetic, and two
row maps compare as dicts.

A BlockMap carries write-once caches read off its stored form: its blocks
(for a row map), its sparse rows (sparse_rows, the one read from blocks to
coordinates: apply, to_dense and the document writer go through it), its
blocks grouped by target label (the index compose reads on its right
operand) and, for a row map, whether no two targets read one source.
Assigning blocks raises AttributeError; the stored dicts must never be
changed in place either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatch
from .exactla import ZERO, RatMat, _scalar

# a scalar block: int when integral, else a Fraction with denominator > 1
Scalar = int | Fraction
Entry = Scalar | RatMat


@dataclass(frozen=True)
class Grading:
    """Ordered list of (label, dimension) blocks making up a coordinate space."""

    labels: tuple
    dims: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.dims):
            raise DimensionMismatch("labels and dims must align")
        index = {l: i for i, l in enumerate(self.labels)}
        if len(index) != len(self.labels):
            # dim and offset would only ever see the last copy of the label
            raise DimensionMismatch(f"repeated label in grading {self.labels!r}")
        offsets = []
        t = 0
        for d in self.dims:
            offsets.append(t)
            t += d
        object.__setattr__(self, "_offsets", tuple(offsets))
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_dims", dict(zip(self.labels, self.dims)))
        object.__setattr__(self, "_total", t)

    @property
    def total(self) -> int:
        return self._total

    def dim(self, label) -> int:
        return self._dims[label]

    def offset(self, label) -> int:
        return self._offsets[self._index[label]]

    def slice(self, label, vec):
        i = self._index[label]
        o = self._offsets[i]
        return vec[o : o + self.dims[i]]

    @staticmethod
    def single(dim: int, label=None) -> Grading:
        return Grading((label,), (dim,))


def _as_scalar(mat: RatMat) -> Fraction | None:
    """c when mat == c * identity, else None."""
    if mat.rows != mat.cols:
        return None
    c = mat.data[0][0] if mat.rows else ZERO
    for i, row in enumerate(mat.data):
        for j, x in enumerate(row):
            if x != (c if i == j else 0):
                return None
    return c


def _entry(mat: RatMat) -> Entry | None:
    """mat as a stored block: None when zero, c when mat == c * identity, else mat."""
    if mat.is_zero():
        return None
    c = _as_scalar(mat)
    return mat if c is None else _scalar(c)


def _scale_dense(m: RatMat, c: Scalar) -> RatMat:
    if c == 1:
        return m
    if c == -1:
        return -m
    return m.scale(c)


def _entry_mul(a: Entry, b: Entry) -> Entry:
    if type(a) is RatMat:
        return a @ b if type(b) is RatMat else _scale_dense(a, b)
    if type(b) is RatMat:
        return _scale_dense(b, a)
    return _scalar(a * b)


def _densify(c: Scalar, n: int) -> RatMat:
    return RatMat.identity(n).scale(c)


def _entry_add(a: Entry | None, b: Entry) -> Entry | None:
    """a + b, or None when the sum is zero.

    A scalar meets a dense block only on a square block, whose size the
    dense block carries, so no grading is consulted.
    """
    if a is None:
        r = b
    elif type(a) is not RatMat and type(b) is not RatMat:
        return _scalar(a + b) or None
    elif type(a) is not RatMat:
        r = _densify(a, b.rows) + b
    elif type(b) is not RatMat:
        r = a + _densify(b, a.rows)
    else:
        r = a + b
    if type(r) is not RatMat:
        return r or None
    return None if r.is_zero() else r


def _entries_equal(a: Entry | None, b: Entry | None) -> bool:
    """Exact equality of two blocks; None stands for a zero block."""
    if type(a) is not RatMat and type(b) is not RatMat:
        return (a or 0) == (b or 0)
    if a is None:
        return b.is_zero()
    if b is None:
        return a.is_zero()
    if type(a) is not RatMat:
        return _as_scalar(b) == a
    if type(b) is not RatMat:
        return _as_scalar(a) == b
    return a == b


class BlockMap:
    """A linear map dst <- src given by blocks keyed (dst_label, src_label)."""

    __slots__ = ("src", "dst", "_blocks", "_rowmap", "_injective", "_rows", "_index")

    @classmethod
    def _raw(cls, src: Grading, dst: Grading, blocks: dict | None, rowmap: dict | None = None) -> BlockMap:
        """Internal constructor for blocks already valid, nonzero and in stored form,
        or for a row map {dst label: src label} of identity blocks between nonzero
        equal dims."""
        self = object.__new__(cls)
        self.src = src
        self.dst = dst
        self._blocks = blocks
        self._rowmap = rowmap
        self._injective = None
        self._rows = None
        self._index = None
        return self

    def __init__(self, src: Grading, dst: Grading, blocks: dict):
        self.src = src
        self.dst = dst
        self._rowmap = None
        self._injective = None
        self._rows = None
        self._index = None
        self._blocks = stored = {}
        for (dl, sl), e in blocks.items():
            do, si = dst.dim(dl), src.dim(sl)
            if do == 0 or si == 0:
                continue
            if type(e) is RatMat:
                if (e.rows, e.cols) != (do, si):
                    raise DimensionMismatch(
                        f"block {dl}<-{sl} has shape {e.rows}x{e.cols}, want {do}x{si}"
                    )
                if e.is_zero():
                    continue
            else:
                e = _scalar(e)
                if not e:
                    continue
                if do != si:
                    raise DimensionMismatch("scalar block must join equal dims")
            stored[(dl, sl)] = e

    @property
    def blocks(self) -> dict:
        """{(dst label, src label): stored block}; read-only, materialized once for a row map."""
        if self._blocks is None:
            self._blocks = {(t, a): 1 for t, a in self._rowmap.items()}
        return self._blocks

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(src: Grading, dst: Grading) -> BlockMap:
        return BlockMap(src, dst, {})

    @staticmethod
    def identity(g: Grading) -> BlockMap:
        return BlockMap.transport(g, g, [(l, l, 1) for l in g.labels])

    @staticmethod
    def transport(src: Grading, dst: Grading, pairs) -> BlockMap:
        """Index transport: each (dst_label, src_label, coef) a scaled identity block.

        Built directly: a pair touching a label of dimension 0 is dropped, the
        two labels of every other pair must have equal dims, and a nonzero int
        coefficient is stored as it is.  When every kept coefficient is 1 and
        each target label occurs once, the map is stored as a row map.
        """
        ddim, sdim = dst._dims, src._dims
        rowmap: dict = {}
        blocks = None
        for dl, sl, c in pairs:
            d, e = ddim[dl], sdim[sl]
            if not (d and e and c):
                continue
            if d != e:
                raise DimensionMismatch("scalar block must join equal dims")
            if blocks is None:
                if c == 1 and dl not in rowmap:
                    rowmap[dl] = sl
                    continue
                blocks = {(t, a): 1 for t, a in rowmap.items()}
            blocks[(dl, sl)] = c if type(c) is int else _scalar(c)
        if blocks is None:
            return BlockMap._raw(src, dst, None, rowmap)
        return BlockMap._raw(src, dst, blocks)

    @staticmethod
    def projection(g: Grading, label) -> BlockMap:
        """The projection of g onto its label block, a one-label grading."""
        return BlockMap.transport(g, Grading((label,), (g.dim(label),)), [(label, label, 1)])

    @staticmethod
    def from_dense(src: Grading, dst: Grading, mat: RatMat) -> BlockMap:
        if (mat.rows, mat.cols) != (dst.total, src.total):
            raise DimensionMismatch("dense matrix does not match gradings")
        return BlockMap.from_rows(src, dst, [row.items() for row in mat._sparse_rows()])

    @staticmethod
    def from_rows(src: Grading, dst: Grading, rows) -> BlockMap:
        """The map whose r-th row has the nonzero entries rows[r], as (column, value) pairs.

        One pass groups the entries by (dst label, src label).  A square block
        equal to c times the identity is stored as the scalar c, the form every
        other constructor gives it; any other block is a dense RatMat.
        """
        if len(rows) != dst.total:
            raise DimensionMismatch("row count does not match the target grading")
        col_block = [(sl, c) for sl, si in zip(src.labels, src.dims) for c in range(si)]
        grouped: dict = {}
        r = 0
        for dl, do in zip(dst.labels, dst.dims):
            for rr in range(do):
                for c, v in rows[r]:
                    sl, cc = col_block[c]
                    ents = grouped.get((dl, sl))
                    if ents is None:
                        ents = grouped[(dl, sl)] = []
                    ents.append((rr, cc, v))
                r += 1
        blocks = {}
        for key, ents in grouped.items():
            do, si = dst.dim(key[0]), src.dim(key[1])
            c = ents[0][2]
            # rows hold distinct columns, so do diagonal entries fill the diagonal
            if do == si == len(ents) and all(rr == cc and v == c for rr, cc, v in ents):
                blocks[key] = _scalar(c)
            else:
                mat = RatMat.zeros(do, si)
                for rr, cc, v in ents:
                    mat.data[rr][cc] = v if type(v) is Fraction else Fraction(v)
                blocks[key] = mat
        return BlockMap._raw(src, dst, blocks)

    # -- algebra -----------------------------------------------------------

    def _by_dst(self) -> dict:
        """Blocks grouped by destination label, {dst label: [(src label, entry), ...]} (cached)."""
        if self._index is None:
            if self._rowmap is not None:
                self._index = {t: [(a, 1)] for t, a in self._rowmap.items()}
                return self._index
            index: dict = {}
            for (dl, sl), e in self._blocks.items():
                lst = index.get(dl)
                if lst is None:
                    index[dl] = [(sl, e)]
                else:
                    lst.append((sl, e))
            self._index = index
        return self._index

    def _reads_injectively(self) -> bool:
        """For a row map: whether no two target labels read one source label (cached)."""
        if self._injective is None:
            rm = self._rowmap
            self._injective = len(set(rm.values())) == len(rm)
        return self._injective

    def compose(self, other: BlockMap) -> BlockMap:
        """self ∘ other (apply other first)."""
        if other.dst is not self.src and other.dst != self.src:
            raise DimensionMismatch("composition gradings do not match")
        mine, theirs = self._rowmap, other._rowmap
        if mine is not None:
            if theirs is not None:
                return BlockMap._raw(other.src, self.dst, None,
                                     {t: theirs[m] for t, m in mine.items() if m in theirs})
            # each target reads one middle block, so other's rows are copied, not summed
            by_mid = other._by_dst()
            return BlockMap._raw(other.src, self.dst, {
                (t, a): e for t, m in mine.items() if m in by_mid for a, e in by_mid[m]})
        if theirs is not None and other._reads_injectively():
            # distinct middle labels read distinct sources, so no two blocks meet
            return BlockMap._raw(other.src, self.dst, {
                (t, theirs[m]): e for (t, m), e in self._blocks.items() if m in theirs})
        by_mid = other._by_dst()
        acc: dict = {}
        cancelled = False
        for (dl, ml), e1 in self._blocks.items():
            lst = by_mid.get(ml)
            if not lst:
                continue
            for sl, e2 in lst:
                key = (dl, sl)
                prev = acc.get(key)
                if type(e1) is int and type(e2) is int:
                    # a product of nonzero ints is a nonzero int
                    if prev is None:
                        acc[key] = e1 * e2
                        continue
                    v = _entry_add(prev, e1 * e2)
                elif prev is None and (type(e1) is not RatMat or type(e2) is not RatMat):
                    # a nonzero scalar times a nonzero block is nonzero
                    acc[key] = _entry_mul(e1, e2)
                    continue
                else:
                    v = _entry_add(prev, _entry_mul(e1, e2))
                acc[key] = v
                if v is None:
                    cancelled = True
        if cancelled:
            acc = {k: v for k, v in acc.items() if v is not None}
        return BlockMap._raw(other.src, self.dst, acc)

    def __add__(self, other: BlockMap) -> BlockMap:
        if self.src != other.src or self.dst != other.dst:
            raise DimensionMismatch("sum gradings do not match")
        acc = dict(self.blocks)
        for key, e in other.blocks.items():
            cur = _entry_add(acc.get(key), e)
            if cur is None:
                acc.pop(key, None)
            else:
                acc[key] = cur
        return BlockMap._raw(self.src, self.dst, acc)

    def __neg__(self) -> BlockMap:
        return self.scale(-1)

    def __sub__(self, other: BlockMap) -> BlockMap:
        return self + (-other)

    def scale(self, c) -> BlockMap:
        c = _scalar(c)
        if not c:
            return BlockMap.zero(self.src, self.dst)
        return BlockMap._raw(
            self.src, self.dst, {k: _entry_mul(e, c) for k, e in self.blocks.items()}
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BlockMap):
            return NotImplemented
        if (self.src is not other.src and self.src != other.src) or (
            self.dst is not other.dst and self.dst != other.dst
        ):
            return False
        if self._rowmap is not None and other._rowmap is not None:
            return self._rowmap == other._rowmap
        mine, theirs = self.blocks, other.blocks
        # stored blocks compare exactly, so equal dicts are equal maps
        if mine == theirs:
            return True
        # no stored block is zero, so maps with different supports differ
        if mine.keys() != theirs.keys():
            return False
        for key, a in mine.items():
            b = theirs[key]
            if type(a) is RatMat or type(b) is RatMat:
                if not _entries_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    def __hash__(self):
        raise TypeError("BlockMap is not hashable")

    def is_zero(self) -> bool:
        return not (self._blocks if self._rowmap is None else self._rowmap)

    # -- application -------------------------------------------------------

    def apply(self, vec) -> tuple[Fraction, ...]:
        if len(vec) != self.src.total:
            raise DimensionMismatch("vector length does not match source grading")
        return tuple(sum((a * vec[c] for c, a in row.items()), ZERO) for row in self.sparse_rows())

    def to_dense(self) -> RatMat:
        out = RatMat.zeros(self.dst.total, self.src.total)
        for dense, row in zip(out.data, self.sparse_rows()):
            for c, a in row.items():
                dense[c] = Fraction(a)
        return out

    def sparse_rows(self) -> list[dict[int, Scalar]]:
        """Rows of the dense matrix as sparse dicts over source coordinates (cached)."""
        if self._rows is not None:
            return self._rows
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.dst.total)]
        for (dl, sl), e in self.blocks.items():
            soff, doff = self.src.offset(sl), self.dst.offset(dl)
            # blocks sharing a row have distinct source labels, hence disjoint columns
            if type(e) is not RatMat:
                for r in range(self.src.dim(sl)):
                    rows[doff + r][soff + r] = e
            else:
                for r, row in enumerate(e._sparse_rows()):
                    rows[doff + r].update({soff + c: a for c, a in row.items()})
        self._rows = rows
        return rows

    def __repr__(self):
        return f"BlockMap({self.dst.total}x{self.src.total}, {len(self.blocks)} blocks)"
