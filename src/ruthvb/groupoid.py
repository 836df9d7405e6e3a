"""Finite groupoids, their nerves, and the simplicial structure maps on nerves.

A FinGroupoid is validated exhaustively at construction (units, inverses,
associativity, closure of the composition table).  Nerve levels are memoized
per instance; their enumeration order is ascending lexicographic in the arrow
id tuple (g_1, ..., g_n) and is part of the public contract, since every
bundle fiber downstream is keyed by it.  POINT is the one-simplex nerve over
which simplicial vector spaces live.

Each groupoid holds one canonical NerveSimplex object per simplex value: an
intern table keyed by (x0, arrows) hands out every simplex that nerve_level,
unit_simplex, face, degeneracy and restrict_vertices return, so every table
keyed by simplices finds its key by identity.  A canonical simplex stores,
once asked, the tuple of its canonical faces and the tuple of its canonical
degeneracies, so face and degeneracy are one ownership test and one tuple
index; restrict_vertices deletes the missing vertices through those face
tables from the top down.  A simplex carries its groupoid's ownership tag,
an opaque token and not the groupoid itself, so nerves hold no reference
back to their groupoid; a simplex that another groupoid (or a caller)
built is first looked up by value in this groupoid's intern table and never
reads another groupoid's tables.  Interning creates only the simplices asked
for: it never enumerates a nerve level.  The tables are slots, not dataclass
fields, so equality, hashing and repr read (x0, arrows) alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, ValidationError
from .ordmaps import OrdMap


@dataclass(frozen=True)
class NerveSimplex:
    """A chain of composable arrows; the empty chain is an object."""

    # _owner, _faces and _degs are filled only by the groupoid that interned
    # the simplex (see the module docstring); slots keep them out of the fields
    __slots__ = ("x0", "arrows", "_hash", "_owner", "_faces", "_degs")

    x0: int
    arrows: tuple[int, ...]

    def __init__(self, x0: int, arrows: tuple[int, ...]):
        # every bundle table is keyed by simplices: hash the fields once, here
        for name, value in (("x0", x0), ("arrows", arrows), ("_hash", hash((x0, arrows))),
                            ("_owner", None), ("_faces", None), ("_degs", None)):
            object.__setattr__(self, name, value)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # a copy is a fresh, uninterned simplex with the same value
        return NerveSimplex, (self.x0, self.arrows)

    @property
    def level(self) -> int:
        return len(self.arrows)


def _check_ids(kind: str, ids, bound: int) -> None:
    for i in ids:
        if not (isinstance(i, int) and 0 <= i < bound):
            raise ValidationError(f"{kind} id {i!r} is out of range 0..{bound - 1}", witness=i)


class FinGroupoid:
    """A finite groupoid with dense composition table over integer arrow ids."""

    def __init__(self, objects, arrow_src, arrow_tgt, comp, unit_of_obj, inv, name="",
                 arrow_names=None):
        self.objects = tuple(objects)  # display names
        self.arrow_src = tuple(arrow_src)
        self.arrow_tgt = tuple(arrow_tgt)
        self.comp = dict(comp)  # (g2, g1) -> g2 after g1, defined when tgt(g1)=src(g2)
        self.unit_of_obj = tuple(unit_of_obj)
        self.inv = tuple(inv)
        self.name = name
        self.arrow_names = tuple(arrow_names) if arrow_names else tuple(
            f"a{i}" for i in range(len(arrow_src))
        )
        self._nerve: dict[int, tuple[NerveSimplex, ...]] = {}
        self._nerve_index: dict[int, dict[NerveSimplex, int]] = {}
        self._interned: dict[tuple[int, tuple[int, ...]], NerveSimplex] = {}
        self._tag = object()  # marks the simplices this groupoid interned
        self.validate()

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.arrow_src)

    def validate(self) -> None:
        """Check every groupoid axiom; raises with the first failing instance."""
        n_obj, n_arr = self.n_objects, self.n_arrows
        if len(self.arrow_tgt) != n_arr or len(self.inv) != n_arr:
            raise ValidationError("arrow tables have inconsistent lengths")
        if len(self.unit_of_obj) != n_obj:
            raise ValidationError("one unit arrow per object required")
        # ids come from documents: range-check before indexing with them, since
        # a negative id would silently wrap around
        _check_ids("object", self.arrow_src + self.arrow_tgt, n_obj)
        _check_ids("arrow", self.unit_of_obj + self.inv, n_arr)
        _check_ids("arrow", [g for (g2, g1), g3 in self.comp.items() for g in (g2, g1, g3)], n_arr)
        for x, u in enumerate(self.unit_of_obj):
            if self.arrow_src[u] != x or self.arrow_tgt[u] != x:
                raise ValidationError(f"unit of object {x} is not an endo-arrow", witness=(x, u))
        for (g2, g1), g in self.comp.items():
            if self.arrow_tgt[g1] != self.arrow_src[g2]:
                raise ValidationError("composition defined on non-composable pair", witness=(g2, g1))
            if self.arrow_src[g] != self.arrow_src[g1] or self.arrow_tgt[g] != self.arrow_tgt[g2]:
                raise ValidationError("composite has wrong endpoints", witness=(g2, g1, g))
        for g1 in range(n_arr):
            for g2 in range(n_arr):
                if self.arrow_tgt[g1] == self.arrow_src[g2] and (g2, g1) not in self.comp:
                    raise ValidationError("composition table not total", witness=(g2, g1))
        for g in range(n_arr):
            u_t = self.unit_of_obj[self.arrow_tgt[g]]
            u_s = self.unit_of_obj[self.arrow_src[g]]
            if self.comp[(u_t, g)] != g:
                raise ValidationError("left unit law fails", witness=g)
            if self.comp[(g, u_s)] != g:
                raise ValidationError("right unit law fails", witness=g)
            h = self.inv[g]
            if self.arrow_src[h] != self.arrow_tgt[g] or self.arrow_tgt[h] != self.arrow_src[g]:
                raise ValidationError("inverse has wrong endpoints", witness=g)
            if self.comp[(h, g)] != u_s or self.comp[(g, h)] != u_t:
                raise ValidationError("inverse law fails", witness=g)
        for g1 in range(n_arr):
            for g2 in range(n_arr):
                if self.arrow_tgt[g1] != self.arrow_src[g2]:
                    continue
                for g3 in range(n_arr):
                    if self.arrow_tgt[g2] != self.arrow_src[g3]:
                        continue
                    if self.comp[(g3, self.comp[(g2, g1)])] != self.comp[(self.comp[(g3, g2)], g1)]:
                        raise ValidationError("associativity fails", witness=(g3, g2, g1))

    def is_unit(self, g: int) -> bool:
        return self.unit_of_obj[self.arrow_src[g]] == g

    # -- nerve ---------------------------------------------------------------

    def nerve_level(self, n: int) -> tuple[NerveSimplex, ...]:
        """All composable n-chains, ascending lexicographic in (g_1, ..., g_n)."""
        if n < 0:
            raise ValueError("nerve level must be nonnegative")
        cached = self._nerve.get(n)
        if cached is not None:
            return cached
        if n == 0:
            level = tuple(self._intern(x, ()) for x in range(self.n_objects))
        else:
            out = []
            for prev in self.nerve_level(n - 1):
                tip = self.vertex_obj(prev, n - 1)
                for g in range(self.n_arrows):
                    if self.arrow_src[g] == tip:
                        out.append(self._intern(prev.x0, prev.arrows + (g,)))
            # recursion appends in last-arrow-major order already compatible with
            # ascending lex over (g_1, ..., g_n) because prefixes are sorted
            level = tuple(sorted(out, key=lambda s: s.arrows))
        self._nerve[n] = level
        self._nerve_index[n] = {s: i for i, s in enumerate(level)}
        return level

    def _intern(self, x0: int, arrows: tuple[int, ...]) -> NerveSimplex:
        """This groupoid's one simplex object with the value (x0, arrows)."""
        key = (x0, arrows)
        s = self._interned.get(key)
        if s is None:
            s = self._interned[key] = NerveSimplex(x0, arrows)
            object.__setattr__(s, "_owner", self._tag)
        return s

    def _face_table(self, s: NerveSimplex) -> tuple[NerveSimplex, ...]:
        """The canonical faces d_0 s, ..., d_n s of a canonical s, filled once.

        Callers test s._owner against self._tag first: that test is what keeps
        a simplex reached through another groupoid off this one's tables.
        """
        faces = s._faces
        if faces is None:
            x0, a = s.x0, s.arrows
            n = len(a)
            faces = () if n == 0 else (
                self._intern(self.arrow_tgt[a[0]], a[1:]),
                *(self._intern(x0, a[: i - 1] + (self.comp[(a[i], a[i - 1])],) + a[i + 1 :])
                  for i in range(1, n)),
                self._intern(x0, a[:-1]),
            )
            object.__setattr__(s, "_faces", faces)
        return faces

    def simplex_index(self, s: NerveSimplex) -> int:
        self.nerve_level(s.level)
        return self._nerve_index[s.level][s]

    def vertex_obj(self, s: NerveSimplex, i: int) -> int:
        """The object sitting at vertex i of the chain."""
        if i == 0:
            return s.x0
        return self.arrow_tgt[s.arrows[i - 1]]

    def vertices(self, s: NerveSimplex) -> tuple[int, ...]:
        return tuple(self.vertex_obj(s, i) for i in range(s.level + 1))

    def compose_range(self, s: NerveSimplex, a: int, b: int) -> int:
        """The composite arrow from vertex a to vertex b (unit when a == b)."""
        if a == b:
            return self.unit_of_obj[self.vertex_obj(s, a)]
        g = s.arrows[a]
        for i in range(a + 1, b):
            g = self.comp[(s.arrows[i], g)]
        return g

    def restrict(self, s: NerveSimplex, theta: OrdMap) -> NerveSimplex:
        """Contravariant structure map: precompose the chain functor with theta."""
        if theta.cod != s.level:
            raise DimensionMismatch(
                f"cannot restrict a level-{s.level} simplex along a map into [{theta.cod}]"
            )
        return self.restrict_vertices(s, theta.images)

    def restrict_vertices(self, s: NerveSimplex, verts) -> NerveSimplex:
        """Restrict along the monotone map with the given vertex images.

        A strictly increasing tuple deletes the missing vertices through the
        face tables from the top down, as SimpVB.restrict_map does; a tuple
        that repeats a vertex is composed arrow by arrow.  An empty,
        decreasing or out-of-range tuple raises ValueError.
        """
        if s._owner is not self._tag:
            s = self._intern(s.x0, s.arrows)
        n = len(s.arrows)
        j = len(verts) - 1
        if j >= 0 and 0 <= verts[j] <= n:
            # the last vertex is kept, so no deletion reaches a 0-simplex
            t = s
            for v in range(n, -1, -1):
                if j >= 0 and verts[j] == v:
                    j -= 1
                else:
                    t = (t._faces or self._face_table(t))[v]
            if j < 0:
                return t
            # not every vertex was met in turn: verts repeats or is invalid
            if 0 <= verts[0] and all(a <= b for a, b in zip(verts, verts[1:])):
                return self._intern(self.vertex_obj(s, verts[0]), tuple(
                    self.compose_range(s, a, b) for a, b in zip(verts, verts[1:])))
        raise ValueError(f"vertex tuple {tuple(verts)!r} is not a nonempty nondecreasing "
                         f"tuple in 0..{n}")

    def face(self, s: NerveSimplex, i: int) -> NerveSimplex:
        if s._owner is not self._tag:
            s = self._intern(s.x0, s.arrows)
        faces = s._faces or self._face_table(s)
        if not 0 <= i < len(faces):
            raise ValueError(f"face index {i} outside 0..{s.level}" if faces
                             else "a 0-simplex has no faces")
        return faces[i]

    def degeneracy(self, s: NerveSimplex, j: int) -> NerveSimplex:
        if s._owner is not self._tag:
            s = self._intern(s.x0, s.arrows)
        degs = s._degs
        if degs is None:
            x0, a = s.x0, s.arrows
            degs = tuple(self._intern(x0, a[:p] + (self.unit_of_obj[self.vertex_obj(s, p)],) + a[p:])
                         for p in range(len(a) + 1))
            object.__setattr__(s, "_degs", degs)
        if not 0 <= j < len(degs):
            raise ValueError(f"degeneracy index {j} outside 0..{s.level}")
        return degs[j]

    def is_degenerate(self, s: NerveSimplex) -> bool:
        return any(self.is_unit(g) for g in s.arrows)

    def unit_simplex(self, x: int, n: int) -> NerveSimplex:
        """The totally degenerate n-simplex at object x."""
        return self._intern(x, (self.unit_of_obj[x],) * n)

    def __repr__(self):
        return f"FinGroupoid({self.name or 'anon'}: {self.n_objects} objects, {self.n_arrows} arrows)"


class _Point:
    """The nerve of the point: one simplex, None, at every level.

    A simplicial vector space is a bundle over POINT, so keyless calls such
    as X.face(n, i) address its single fiber per level.
    """

    def nerve_level(self, n: int) -> tuple[None]:
        return (None,)

    def face(self, s: None, i: int) -> None:
        return None

    def degeneracy(self, s: None, j: int) -> None:
        return None


POINT = _Point()


# ---------------------------------------------------------------------------
# Built-in validated instances.
# ---------------------------------------------------------------------------


def unit_groupoid(k: int) -> FinGroupoid:
    """k objects, identity arrows only."""
    objects = [f"o{i}" for i in range(k)]
    comp = {(i, i): i for i in range(k)}
    return FinGroupoid(objects, range(k), range(k), comp, range(k), range(k),
                       name=f"unit({k})", arrow_names=[f"id_o{i}" for i in range(k)])


def pair_groupoid(k: int) -> FinGroupoid:
    """k objects with exactly one arrow between any ordered pair."""
    objects = [f"o{i}" for i in range(k)]
    aid = {}
    src, tgt, names = [], [], []
    for a in range(k):
        for b in range(k):
            aid[(a, b)] = len(src)
            src.append(a)
            tgt.append(b)
            names.append(f"o{a}->o{b}")
    comp = {}
    for a in range(k):
        for b in range(k):
            for c in range(k):
                comp[(aid[(b, c)], aid[(a, b)])] = aid[(a, c)]
    unit = [aid[(a, a)] for a in range(k)]
    inv = [aid[(tgt[g], src[g])] for g in range(len(src))]
    return FinGroupoid(objects, src, tgt, comp, unit, inv, name=f"pair({k})", arrow_names=names)


def cyclic_group(m: int) -> FinGroupoid:
    """Z/m as a one-object groupoid; arrow j is rotation by j."""
    comp = {(j, i): (i + j) % m for i in range(m) for j in range(m)}
    inv = [(-i) % m for i in range(m)]
    return FinGroupoid(["*"], [0] * m, [0] * m, comp, [0], inv, name=f"Z/{m}",
                       arrow_names=[f"r^{i}" for i in range(m)])


def product_groupoid(A: FinGroupoid, B: FinGroupoid) -> FinGroupoid:
    """Componentwise product groupoid."""
    nb = B.n_arrows
    objects = [f"({a},{b})" for a in A.objects for b in B.objects]

    def oid(a, b):
        return a * B.n_objects + b

    def gid(g, h):
        return g * nb + h

    src = [oid(A.arrow_src[g], B.arrow_src[h]) for g in range(A.n_arrows) for h in range(nb)]
    tgt = [oid(A.arrow_tgt[g], B.arrow_tgt[h]) for g in range(A.n_arrows) for h in range(nb)]
    comp = {}
    for (g2, g1), g in A.comp.items():
        for (h2, h1), h in B.comp.items():
            comp[(gid(g2, h2), gid(g1, h1))] = gid(g, h)
    unit = [gid(A.unit_of_obj[a], B.unit_of_obj[b])
            for a in range(A.n_objects) for b in range(B.n_objects)]
    inv = [gid(A.inv[g], B.inv[h]) for g in range(A.n_arrows) for h in range(nb)]
    names = [f"({A.arrow_names[g]},{B.arrow_names[h]})" for g in range(A.n_arrows) for h in range(nb)]
    return FinGroupoid(objects, src, tgt, comp, unit, inv,
                       name=f"{A.name}x{B.name}", arrow_names=names)


def builtin_groupoids() -> dict[str, FinGroupoid]:
    """Catalog of validated standard instances used throughout tests and demos."""
    return {
        "unit(1)": unit_groupoid(1),
        "unit(2)": unit_groupoid(2),
        "pair(2)": pair_groupoid(2),
        "pair(3)": pair_groupoid(3),
        "Z/2": cyclic_group(2),
        "Z/3": cyclic_group(3),
        "Z/2xpair(2)": product_groupoid(cyclic_group(2), pair_groupoid(2)),
    }
