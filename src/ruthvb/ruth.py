"""Representations up to homotopy over a finite groupoid.

Data: a graded bundle E over the objects plus an operator tower, one degree
(m-1) block map per m-simplex of the nerve.  The two axioms (units and
degenerate simplices; the quadratic coherence) are validated exactly up to a
cap that is complete once it reaches twice the top degree plus two.  The
supported generators are strict representations, chain complexes over unit
groupoids, gauge twists, and splittings of bundles; building a valid tower by
hand is hard, so everything nontrivial is produced by construction.

Towers, morphisms and gauge data (with psi_0 = id stored) share one table
type: one block per (m, simplex) and source degree, stored once, when the
table is built, in the entry form a bundle's faces read (graded's: c for c
times the identity, else dense), and never when zero.  So an absent block is
zero and equality is table equality.  Tables are keyed by the groupoid's
canonical simplices (nerve_level, unit_simplex, face), so every lookup finds
its key by identity.  Every head/tail sum over the splittings of a simplex
goes through convolve, on graded's block arithmetic; convolve splits by
vertex tuples, the head on vertices 0..r and the tail on r..m.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

from .errors import ValidationError
from .exactla import Fr, RatMat, _scalar
from .graded import _densify, _entries_equal, _entry, _entry_add, _entry_mul
from .groupoid import FinGroupoid, NerveSimplex


class GradedBundle:
    """Finitely supported dims per (object, degree), degrees 0..N."""

    def __init__(self, G: FinGroupoid, dims_by_object):
        self.G = G
        # dims_by_object: object index -> sequence of dims (degree 0..N)
        self.N = max((len(v) - 1 for v in dims_by_object.values()), default=0)
        self._dims = {}
        for x in range(G.n_objects):
            seq = tuple(dims_by_object.get(x, ()))
            for deg, d in enumerate(seq):
                if d:
                    self._dims[(x, deg)] = int(d)

    def dim(self, x: int, deg: int) -> int:
        return self._dims.get((x, deg), 0)

    def degrees(self):
        return range(self.N + 1)

    def same_dims_everywhere(self) -> bool:
        rows = {tuple(self.dim(x, k) for k in self.degrees()) for x in range(self.G.n_objects)}
        return len(rows) <= 1

    def __eq__(self, other):
        return (
            isinstance(other, GradedBundle)
            and self.G is other.G
            and self.N == other.N
            and self._dims == other._dims
        )


def uniform_bundle(G: FinGroupoid, dims) -> GradedBundle:
    """Same graded dims over every object."""
    return GradedBundle(G, {x: tuple(dims) for x in range(G.n_objects)})


class _OperatorTable:
    """One block per nerve simplex and source degree, of degree m + shift.

    ops maps (m, simplex) to {source degree: entry}, ascending in degree, an
    entry being graded's stored form of a nonzero block: an int (a Fraction
    when not integral) c for c times the identity, else a dense RatMat.  An
    absent block is zero and each block has one stored form, so two tables
    with the same bundles are equal exactly when their ops are.  ops and
    each inner table are read-only views of _ops, which only _store writes
    and this module reads.
    """

    shift = 0

    def __init__(self, src: GradedBundle, tgt: GradedBundle, operators):
        self.G = src.G
        self._src, self._tgt = src, tgt
        self._ops: dict[tuple[int, NerveSimplex], dict] = {}
        self._views: dict[tuple[int, NerveSimplex], MappingProxyType] = {}
        self.ops = MappingProxyType(self._views)
        for (m, s), table in operators.items():
            self._store(m, s, table)

    def _store(self, m: int, s: NerveSimplex, table: dict) -> None:
        """Check shapes and keep the nonzero blocks in stored form, ascending in degree.

        A block comes dense or as an entry already in stored form, a scalar
        only on a square slot.
        """
        clean = {}
        for deg in sorted(table):
            e = table[deg]
            rows = self._tgt.dim(self.G.vertex_obj(s, s.level), deg + m + self.shift)
            cols = self._src.dim(s.x0, deg)
            dense = type(e) is RatMat
            # a scalar c stands for c times the identity, a square block
            if ((e.rows, e.cols) if dense else (rows, rows)) != (rows, cols):
                got = f"shape {e.rows}x{e.cols}" if dense else "a scalar"
                raise ValidationError(
                    f"operator block m={m}, degree {deg} has {got}, want {rows}x{cols}")
            e = _entry(e) if dense else (_scalar(e) if rows and e else None)
            if e is not None:
                clean[deg] = e
        if clean:
            self._ops[(m, s)] = clean
            self._views[(m, s)] = MappingProxyType(clean)

    def entry(self, m: int, s: NerveSimplex, src_deg: int):
        """The stored (m, simplex) block on degree src_deg, or None when it is zero."""
        return self._ops.get((m, s), {}).get(src_deg)

    def block(self, m: int, s: NerveSimplex, src_deg: int) -> RatMat:
        """The (m, simplex) block on degree src_deg as a dense matrix; zero when absent."""
        e = self.entry(m, s, src_deg)
        if type(e) is RatMat:
            return e
        rows = self._tgt.dim(self.G.vertex_obj(s, s.level), src_deg + m + self.shift)
        return RatMat.zeros(rows, self._src.dim(s.x0, src_deg)) if e is None else _densify(e, rows)

    def operator(self, m: int, s: NerveSimplex) -> dict:
        """The stored entries at (m, simplex) by source degree."""
        return dict(self._ops.get((m, s), {}))

    def equal_operators(self, other: _OperatorTable) -> bool:
        return self._ops == other._ops


def _identity_ops(E: GradedBundle):
    """psi_0 = id on every object, as an operator table."""
    return {
        (0, pt): {deg: 1 for deg in E.degrees() if E.dim(pt.x0, deg)}
        for pt in E.G.nerve_level(0)
    }


class Ruth(_OperatorTable):
    """Operator tower R_m over the nerve of a finite groupoid."""

    shift = -1

    def __init__(self, E: GradedBundle, operators, m_cap: int | None = None):
        super().__init__(E, E, operators)
        self.E = E
        self.m_cap = (2 * E.N + 2) if m_cap is None else m_cap

    def with_block(self, m: int, s: NerveSimplex, src_deg: int, mat: RatMat) -> Ruth:
        """Copy with one block replaced (no validity assumed)."""
        ops = {k: dict(v) for k, v in self.ops.items()}
        ops.setdefault((m, s), {})[src_deg] = mat
        return Ruth(self.E, ops, m_cap=self.m_cap)

    def __eq__(self, other):
        return isinstance(other, Ruth) and self.E == other.E and self.equal_operators(other)


# ---------------------------------------------------------------------------
# The head/tail convolution and the axiom checkers.
# ---------------------------------------------------------------------------


def _acc(table: dict, other: dict, sign: int):
    """table += sign * other, degreewise; a degree whose sum is zero is dropped."""
    for deg, e in other.items():
        e = _entry_add(table.get(deg), e if sign > 0 else -e)
        if e is None:
            table.pop(deg, None)
        else:
            table[deg] = e
    return table


def convolve(outer: _OperatorTable, inner: _OperatorTable, m: int, s: NerveSimplex,
             alternate: bool = False) -> dict:
    """Sum over r of (+-1)^r outer_{m-r}(tail) ∘ inner_r(head), degreewise.

    head and tail are the faces of the m-simplex s on the vertices 0..r and
    r..m, that is its first r and last m - r arrows; the sign alternates in r
    only when asked.  Reads the stored tables, so absent (zero) blocks cost
    nothing.
    """
    G = inner.G
    out: dict = {}
    for r in range(m + 1):
        first = inner._ops.get((r, G.restrict_vertices(s, range(r + 1))))
        if not first:
            continue
        second = outer._ops.get((m - r, G.restrict_vertices(s, range(r, m + 1))))
        if not second:
            continue
        products = {}
        for deg, e in first.items():
            after = second.get(deg + r + inner.shift)
            if after is not None:
                products[deg] = _entry_mul(after, e)
        _acc(out, products, -1 if alternate and r % 2 else 1)
    return out


def face_sum(X: _OperatorTable, m: int, s: NerveSimplex) -> dict:
    """Sum over the inner faces i = 1..m-1 of (-1)^i X_{m-1}(d_i s), degreewise."""
    out: dict = {}
    for i in range(1, m):
        _acc(out, X._ops.get((m - 1, X.G.face(s, i)), {}), -1 if i % 2 else 1)
    return out


def _tables_equal(a: dict, b: dict) -> bool:
    return a == b or all(_entries_equal(a.get(deg), b.get(deg)) for deg in set(a) | set(b))


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, witness):
        if len(self.violations) < 20:
            self.violations.append(witness)


def check_rh1(R: Ruth) -> CheckReport:
    """Units act as the identity; degenerate simplices carry nothing."""
    rep = CheckReport("rh1")
    G = R.G
    for x in range(G.n_objects):
        u = G.unit_simplex(x, 1)
        for deg in R.E.degrees():
            d = R.E.dim(x, deg)
            rep.checked += 1
            if R.block(1, u, deg) != RatMat.identity(d):
                rep.add(("unit", x, deg))
    for m in range(2, R.m_cap + 1):
        for s in G.nerve_level(m):
            if not G.is_degenerate(s):
                continue
            rep.checked += 1
            if R.operator(m, s):
                rep.add(("degenerate", m, G.simplex_index(s)))
    return rep


def rh2_sides(R: Ruth, m: int, s: NerveSimplex):
    """Both sides of the quadratic coherence at one m-simplex, degreewise."""
    return face_sum(R, m, s), convolve(R, R, m, s, alternate=True)


def check_rh2(R: Ruth) -> CheckReport:
    """The coherence tower: faces against shuffled compositions, all exact."""
    rep = CheckReport("rh2")
    for m in range(R.m_cap + 1):
        for s in R.G.nerve_level(m):
            lhs, rhs = rh2_sides(R, m, s)
            rep.checked += 1
            if not _tables_equal(lhs, rhs):
                rep.add((m, R.G.simplex_index(s)))
    return rep


def validate_ruth(R: Ruth) -> None:
    r1, r2 = check_rh1(R), check_rh2(R)
    if not r1.ok:
        raise ValidationError("unit/degeneracy axiom fails", witness=r1.violations[0])
    if not r2.ok:
        raise ValidationError("coherence axiom fails", witness=r2.violations[0])


# ---------------------------------------------------------------------------
# Morphisms.
# ---------------------------------------------------------------------------


class RuthMorphism(_OperatorTable):
    """Operator tower psi_m of degree m between two towers on the same groupoid."""

    def __init__(self, source: Ruth, target: Ruth, operators):
        if source.G is not target.G:
            raise ValidationError("morphism requires a common base groupoid")
        super().__init__(source.E, target.E, operators)
        self.source = source
        self.target = target


def identity_morphism(R: Ruth) -> RuthMorphism:
    return RuthMorphism(R, R, _identity_ops(R.E))


def rh4_sides(psi: RuthMorphism, m: int, s: NerveSimplex):
    """Both sides of the mixed coherence at one m-simplex, degreewise."""
    lhs = _acc(face_sum(psi, m, s), convolve(psi.target, psi, m, s), -1 if m % 2 else 1)
    return lhs, convolve(psi, psi.source, m, s, alternate=True)


def check_morphism(psi: RuthMorphism) -> CheckReport:
    """Degenerate vanishing plus the mixed coherence, all levels up to the cap."""
    rep = CheckReport("rh3+rh4")
    G = psi.G
    cap = psi.source.m_cap
    for m in range(1, cap + 1):
        for s in G.nerve_level(m):
            if G.is_degenerate(s):
                rep.checked += 1
                if psi.operator(m, s):
                    rep.add(("degenerate", m, G.simplex_index(s)))
    for m in range(cap + 1):
        for s in G.nerve_level(m):
            lhs, rhs = rh4_sides(psi, m, s)
            rep.checked += 1
            if not _tables_equal(lhs, rhs):
                rep.add(("rh4", m, G.simplex_index(s)))
    return rep


def compose_morphisms(outer: RuthMorphism, inner: RuthMorphism) -> RuthMorphism:
    """(outer ∘ inner)_m = sum over splittings of the chain into head and tail."""
    if inner.target is not outer.source and inner.target != outer.source:
        raise ValidationError("morphisms not composable")
    G = outer.G
    ops = {
        (m, s): convolve(outer, inner, m, s)
        for m in range(inner.source.m_cap + 1)
        for s in G.nerve_level(m)
    }
    return RuthMorphism(inner.source, outer.target, ops)


# ---------------------------------------------------------------------------
# Gauge data and the twisted tower.
# ---------------------------------------------------------------------------


class GaugeData(_OperatorTable):
    """Higher operators psi_m (m >= 1) with psi_0 = id, vanishing on degenerates."""

    def __init__(self, E: GradedBundle, higher):
        # higher: (m, simplex) -> {src_degree: block}, m >= 1
        if any(m < 1 for m, _ in higher):
            raise ValidationError("gauge data only carries m >= 1")
        super().__init__(E, E, {**_identity_ops(E), **higher})
        if any(m and E.G.is_degenerate(s) for m, s in self.ops):
            raise ValidationError("gauge data must vanish on degenerate simplices")
        self.E = E

    def as_morphism(self, source: Ruth, target: Ruth) -> RuthMorphism:
        return RuthMorphism(source, target, self.ops)


def twisted_ruth_direct(R: Ruth, psi: GaugeData) -> Ruth:
    """Solve the mixed coherence for the target tower, level by level.

    With psi_0 the identity, the coherence at each m-simplex determines the
    new operator there from R, psi, and the lower new operators.  This is the
    closed-form counterpart of splitting along the twisted cleavage; the two
    are compared exactly in the tests.
    """
    Rp = Ruth(R.E, {}, m_cap=R.m_cap)
    # a level-m block raises degree by m - 1, so levels above N + 1 are empty
    for m in range(min(R.m_cap, R.E.N + 1) + 1):
        sign_m = -1 if m % 2 else 1
        for s in R.G.nerve_level(m):
            # the coherence (-1)^m sum_r R'_{m-r} psi_r + faces = sum_r (-1)^r psi_{m-r} R_r;
            # R'_m(s) is not stored yet, so the convolution over Rp is the r >= 1 part
            known = _acc(convolve(psi, R, m, s, alternate=True), face_sum(psi, m, s), -1)
            known = _acc(known, convolve(Rp, psi, m, s), -sign_m)
            Rp._store(m, s, _acc({}, known, sign_m))
    return Rp


# ---------------------------------------------------------------------------
# Pointwise cycles, borders, homology.
# ---------------------------------------------------------------------------


def cycles_borders(R: Ruth, x: int):
    """Per-degree (cycle, border, homology) dims of the fiber differential at x."""
    from .exactla import kernel

    E = R.E
    s = R.G.nerve_level(0)[x]
    out = {}
    for n in E.degrees():
        d_n = R.block(0, s, n)  # E_n -> E_{n-1}
        z = kernel(d_n).dim if d_n.rows else E.dim(x, n)
        b = R.block(0, s, n + 1).rank() if n + 1 <= E.N else 0
        out[n] = (z, b, z - b)
    return out


# ---------------------------------------------------------------------------
# Strict constructions used as oracles.
# ---------------------------------------------------------------------------


def strict_ruth(E: GradedBundle, differential, arrow_maps) -> Ruth:
    """Strict tower: a fiberwise differential plus functorial degree-0 arrow maps.

    differential: object -> {degree n >= 1: RatMat E_n -> E_{n-1}}
    arrow_maps: arrow id -> {degree n: RatMat}, must respect units and
    composition; validated by the axiom checkers on construction.
    """
    G = E.G
    ops = {(0, pt): differential.get(pt.x0, {}) for pt in G.nerve_level(0)}
    for s in G.nerve_level(1):
        ops[(1, s)] = arrow_maps.get(s.arrows[0], {})
    R = Ruth(E, ops)
    validate_ruth(R)
    return R


def chain_complex_ruth(G: FinGroupoid, Y) -> Ruth:
    """A chain complex as a tower over a unit groupoid (same complex everywhere)."""
    E = uniform_bundle(G, Y.dims)
    diff = {x: {n: Y.d(n) for n in range(1, len(Y.dims))} for x in range(G.n_objects)}
    arrows = {}
    for g in range(G.n_arrows):
        if not G.is_unit(g):
            raise ValidationError("chain complex towers live over unit groupoids")
        arrows[g] = {n: RatMat.identity(Y.dim(n)) for n in range(len(Y.dims))}
    return strict_ruth(E, diff, arrows)


def representation_ruth(G: FinGroupoid, dim_by_object, arrow_mats) -> Ruth:
    """An order-zero tower: one invertible matrix per arrow, strictly functorial."""
    E = GradedBundle(G, {x: (dim_by_object[x],) for x in range(G.n_objects)})
    return strict_ruth(E, {}, {g: {0: arrow_mats[g]} for g in range(G.n_arrows)})


# ---------------------------------------------------------------------------
# Order <= 1: the translation-groupoid and fibered-product multiplication.
# ---------------------------------------------------------------------------


@dataclass
class LinearGroupoidData:
    """Arrow bundle over G_1 with linear source, target, and multiplication.

    Arrows over g are pairs (c, e) with c in E_1 at the target vertex and e in
    E_0 at the source vertex; objects over x are E_0 fibers.
    """

    R: Ruth

    def mult_matrix(self, pair: NerveSimplex) -> RatMat:
        """((c', e'), (c, e)) -> composite (c' + R_1 c + R_2 e, e) over a 2-simplex."""
        G, E = self.R.G, self.R.E
        g2 = G.face(pair, 0)
        x0, x1, x2 = G.vertices(pair)
        c1, c2 = E.dim(x1, 1), E.dim(x2, 1)
        e0 = E.dim(x0, 0)
        r1 = self.R.block(1, g2, 1)  # E_1^{x1} -> E_1^{x2}
        r2 = self.R.block(2, pair, 0)  # E_0^{x0} -> E_1^{x2}
        top = RatMat.hstack([RatMat.identity(c2), r1, r2])
        bottom = RatMat.zeros(e0, c2 + c1 + e0)
        for i in range(e0):
            bottom.data[i][c2 + c1 + i] = Fr(1)
        return RatMat.vstack([top, bottom])


def grothendieck(R: Ruth) -> LinearGroupoidData:
    """The fibered-product groupoid of a tower of order at most one."""
    if R.E.N > 1:
        raise ValidationError("fibered-product construction needs order <= 1")
    return LinearGroupoidData(R)


def gauge_twist(R: Ruth, psi: GaugeData) -> Ruth:
    """Twist a tower by gauge data, through the bundle and back.

    Builds the semi-direct product, pulls the canonical cleavage back along
    the gauge lift, and splits along the result.  The direct recursion
    twisted_ruth_direct computes the same tower without touching the bundle
    and serves as its cross-check.
    """
    from .split import gauge_twist_via_split

    return gauge_twist_via_split(R, psi)
