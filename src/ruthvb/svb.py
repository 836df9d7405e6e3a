"""Simplicial vector bundles over a nerve: fibrations, cores, cleavages, cohomology.

Fibers are block-graded; faces and degeneracies are BlockMaps between fibers
over the corresponding nerve restrictions.  SimpVB is the one memoized fiber
complex: a simplicial vector space is a SimpVB over POINT.  Every flatness
condition here is decided as a rank comparison on one constraint system per
fiber: the conditions quantify over infinitely many vectors but are linear,
so exact linear algebra settles them.  That one observation is what makes the
whole checker suite terminate.  A cleavage's equations and every map they
are pulled back along are BlockMaps, and the cochain coboundaries are sparse
rows, so every such system reaches the eliminator as sparse rows without a
dense matrix in between.  Bundles are immutable after construction; checks
parallelize over fibers in principle and only share write-once caches.  A
bundle interns its gradings and keeps every face and degeneracy it hands
out, so the identity of a map can key the horn facts of simplicial.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ValidationError
from .exactla import RatMat, Subspace, _sub_scaled, is_complement, sparse_kernel_basis, sparse_rank
from .graded import BlockMap, Grading
from .groupoid import FinGroupoid, NerveSimplex
from .ruth import GradedBundle, Ruth
from .simplicial import face_kernel, horn_dim


class SimpVB:
    """A truncated simplicial vector bundle over the nerve of a finite groupoid.

    Over POINT it is a simplicial vector space: every simplex is None, which
    is the default of the simplex argument, so X.face(n, i) needs no key.
    """

    def __init__(self, base: FinGroupoid, L: int, grading_fn, face_fn, deg_fn):
        self.base = base
        self.L = L
        self._grading_fn = grading_fn
        self._face_fn = face_fn
        self._deg_fn = deg_fn
        self._gradings: dict = {}
        self._interned: dict = {}  # one Grading object per distinct value
        self._faces: dict = {}
        self._degs: dict = {}
        # write-once horn facts, filled only by simplicial.py: face_kernel,
        # horn_dim and the face-pair verdicts of the identity sweep; the
        # _kernels_by_maps and _pair_verdicts tables are keyed by the id()s of
        # gradings and maps that the tables above keep alive as long as self
        self._kernels: dict = {}
        self._kernels_by_maps: dict = {}
        self._horn_dims: dict = {}
        self._pair_verdicts: dict = {}
        self._faces_commute: dict = {}  # (n, s) -> every d_i d_j = d_{j-1} d_i holds

    def grading(self, n: int, s: NerveSimplex | None = None) -> Grading:
        """The fiber grading over s, interned: equal gradings are one object."""
        key = (n, s)
        g = self._gradings.get(key)
        if g is None:
            g = self._grading_fn(n, s)
            g = self._gradings[key] = self._interned.setdefault(g, g)
        return g

    def face(self, n: int, i: int, s: NerveSimplex | None = None) -> BlockMap:
        key = (n, i, s)
        m = self._faces.get(key)
        if m is None:
            m = self._faces[key] = self._face_fn(n, i, s)
        return m

    def deg(self, n: int, j: int, s: NerveSimplex | None = None) -> BlockMap:
        key = (n, j, s)
        m = self._degs.get(key)
        if m is None:
            m = self._degs[key] = self._deg_fn(n, j, s)
        return m

    def fiber_dim(self, n: int, s: NerveSimplex | None = None) -> int:
        return self.grading(n, s).total

    dim = fiber_dim

    def restrict_map(self, n: int, s: NerveSimplex, verts) -> tuple[BlockMap, NerveSimplex]:
        """Restriction to a vertex subset as a composite of faces.

        Deletes missing vertices from the top down, so vertex v is still face
        index v, at level n less the deletions made so far; the identity is
        built only when no vertex is deleted.  Returns the map together with
        the base simplex it lands over.
        """
        keep = set(verts)
        cur, t, m = None, s, n
        for v in range(n, -1, -1):
            if v not in keep:
                face = self.face(m, v, t)
                cur = face if cur is None else face.compose(cur)
                t = self.base.face(t, v)
                m -= 1
        if cur is None:
            cur = BlockMap.identity(self.grading(n, s))
        return cur, t

    def prefix_map(self, n: int, s: NerveSimplex, k: int) -> tuple[BlockMap, NerveSimplex]:
        """Restriction to the first k+1 vertices."""
        return self.restrict_map(n, s, range(k + 1))


def pullback_svb(X, base: FinGroupoid) -> SimpVB:
    """Pull a simplicial vector space back along the map to the point."""

    def grading(n, s):
        return X.grading(n)

    def face(n, i, s):
        return X.face(n, i)

    def deg(n, j, s):
        return X.deg(n, j)

    return SimpVB(base, X.L, grading, face, deg)


# ---------------------------------------------------------------------------
# Core and fibration diagnostics.
# ---------------------------------------------------------------------------


def core(V: SimpVB) -> GradedBundle:
    """Positive-face kernel ranks over the unit simplices, per object and level."""
    dims_by_obj = {}
    for x in range(V.base.n_objects):
        dims = [relative_horn_kernel(V, n, 0, V.base.unit_simplex(x, n)).dim
                for n in range(V.L + 1)]
        while len(dims) > 1 and dims[-1] == 0:
            dims.pop()
        dims_by_obj[x] = tuple(dims)
    return GradedBundle(V.base, dims_by_obj)


@dataclass
class FibrationReport:
    is_fibration: bool
    order: int | None  # None when not a fibration; certified up to truncation
    L: int
    lambda_by_level: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.is_fibration


def relative_horn_kernel(V: SimpVB, n: int, k: int, s: NerveSimplex) -> Subspace:
    """Kernel of every face but the k-th; for k = 0 the positive-face kernel."""
    return face_kernel(V, n, s, [i for i in range(n + 1) if i != k])


def check_fibration(V: SimpVB) -> FibrationReport:
    """Surjectivity and kernel ranks of every relative horn map up to truncation.

    The order reported is the smallest N with bijective fillers above level N;
    it is only certified up to the truncation L.
    """
    failures = []
    lam: dict[int, int] = {}
    fib = True
    for n in range(1, V.L + 1):
        level_lams = set()
        for s in V.base.nerve_level(n):
            dv = V.fiber_dim(n, s)
            for k in range(n + 1):
                ker = relative_horn_kernel(V, n, k, s)
                hd = horn_dim(V, n, k, s)
                surjective = (dv - ker.dim) == hd
                if not surjective:
                    fib = False
                    if len(failures) < 10:
                        failures.append((n, k, V.base.simplex_index(s), "not surjective"))
                level_lams.add(ker.dim)
        lam[n] = max(level_lams) if level_lams else 0
    order = None
    if fib:
        order = 0
        for n, l in lam.items():
            if l > 0:
                order = max(order, n)
    return FibrationReport(fib, order, V.L, lam, failures)


# ---------------------------------------------------------------------------
# Cleavages.
# ---------------------------------------------------------------------------


class Cleavage:
    """Per-fiber subbundle with cached basis and equation forms, levels 1..L.

    The equations of a fiber are a BlockMap from its grading onto one label
    whose kernel is the fiber, so pulling them back along a map is a compose.
    """

    def __init__(self, V: SimpVB, basis_fn=None, equations_fn=None):
        if basis_fn is None and equations_fn is None:
            raise ValueError("need a basis or an equation description")
        self.V = V
        self._basis_fn = basis_fn
        self._equations_fn = equations_fn
        self._subs: dict = {}
        self._eqs: dict = {}

    def subspace(self, n: int, s: NerveSimplex) -> Subspace:
        key = (n, s)
        sub = self._subs.get(key)
        if sub is None:
            if self._basis_fn is not None:
                sub = self._basis_fn(n, s)
            else:
                eq = self.equations(n, s)
                sub = Subspace.span(eq.src.total, sparse_kernel_basis(eq.sparse_rows(), eq.src.total))
            self._subs[key] = sub
        return sub

    def equations(self, n: int, s: NerveSimplex) -> BlockMap:
        key = (n, s)
        eq = self._eqs.get(key)
        if eq is None:
            if self._equations_fn is not None:
                eq = self._equations_fn(n, s)
            else:
                g = self.V.grading(n, s)
                rows = sparse_kernel_basis(self.subspace(n, s).rows, g.total)
                eq = BlockMap.from_rows(g, Grading.single(len(rows)), [r.items() for r in rows])
            self._eqs[key] = eq
        return eq

    def contains_map_image(self, n: int, s: NerveSimplex, m: BlockMap) -> bool:
        """Whether the image of m lies in the cleavage fiber."""
        return self.equations(n, s).compose(m).is_zero()


def canonical_cleavage(V: SimpVB) -> Cleavage:
    """Kernel of the top-index component, for bundles with mask-graded fibers."""

    def equations(n, s):
        return BlockMap.projection(V.grading(n, s), (1 << (n + 1)) - 1)

    return Cleavage(V, equations_fn=equations)


def explicit_cleavage(V: SimpVB, table: dict, fallback: Cleavage | None = None) -> Cleavage:
    def basis(n, s):
        sub = table.get((n, s))
        if sub is not None:
            return sub
        if fallback is not None:
            return fallback.subspace(n, s)
        raise KeyError(f"no cleavage fiber for level {n}, simplex {s}")

    return Cleavage(V, basis_fn=basis)


@dataclass
class CleavageReport:
    bijective: bool
    normal: bool
    weakly_flat: bool
    flat: bool
    weakly_flat_by_level: dict
    flat_by_level: dict
    interior_closure_ok: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.bijective and self.normal and self.weakly_flat


def _prefix_rows(V: SimpVB, C: Cleavage, n: int, s: NerveSimplex) -> list[dict]:
    """C_n's equations and every proper prefix's equations pulled back."""
    rows = list(C.equations(n, s).sparse_rows())
    for k in range(1, n):
        m, base_s = V.prefix_map(n, s, k)
        rows += C.equations(k, base_s).compose(m).sparse_rows()
    return rows


def _face_rows(V: SimpVB, C: Cleavage, n: int, s: NerveSimplex) -> list[list[dict]]:
    """F_j = C_{n-1}(d_j s) d_j for every face j: d_j w lies in C iff F_j w = 0."""
    return [C.equations(n - 1, V.base.face(s, j)).compose(V.face(n, j, s)).sparse_rows()
            for j in range(n + 1)]


def _witness_space(V: SimpVB, C: Cleavage, n: int, s: NerveSimplex) -> Subspace:
    """Vectors of C_n with a vanishing first vertex whose prefixes all lie in C."""
    dim = V.fiber_dim(n, s)
    rows = _prefix_rows(V, C, n, s) + V.restrict_map(n, s, (0,))[0].sparse_rows()
    return Subspace.span(dim, sparse_kernel_basis(rows, dim))


def _face_closures(V: SimpVB, C: Cleavage, n: int, s: NerveSimplex, faces, zero_sections) -> dict:
    """(witness dim, closed) for each zero-section variant and each face i in faces.

    The witness space of face i is cut out by the prefix rows, the first-vertex
    rows in the zero-section variant, and every F_j with j != i; d_i maps it
    into C exactly when F_i vanishes on it, that is when F_i adds no rank.
    """
    dim = V.fiber_dim(n, s)
    A = _prefix_rows(V, C, n, s)
    F = _face_rows(V, C, n, s)
    out = {}
    for zero_section in zero_sections:
        base = A + V.restrict_map(n, s, (0,))[0].sparse_rows() if zero_section else A
        full = sparse_rank(base + [r for rows in F for r in rows])
        for i in faces:
            others = [r for j, rows in enumerate(F) if j != i for r in rows]
            rank = sparse_rank(base + others) if F[i] else full
            out[zero_section, i] = (dim - rank, rank == full)
    return out


def check_cleavage(V: SimpVB, C: Cleavage, check_interior: bool = True) -> CleavageReport:
    """Bijectivity onto horns, normality, and the flatness ladder, all exact."""
    failures: list = []
    bijective = True
    normal = True
    wf_by_level: dict[int, bool] = {}
    fl_by_level: dict[int, bool] = {}
    interior_ok = True

    def fail(tag, *info):
        nonlocal failures
        if len(failures) < 10:
            failures.append((tag,) + info)

    for n in range(1, V.L + 1):
        for s in V.base.nerve_level(n):
            sub = C.subspace(n, s)
            for k in range(n):
                ker = relative_horn_kernel(V, n, k, s)
                if not is_complement(sub, ker, V.fiber_dim(n, s)):
                    bijective = False
                    fail("complement", n, k, V.base.simplex_index(s))
    for n in range(0, V.L):
        for s in V.base.nerve_level(n):
            for j in range(n + 1):
                t = V.base.degeneracy(s, j)
                if not C.contains_map_image(n + 1, t, V.deg(n, j, s)):
                    normal = False
                    fail("normality", n + 1, j, V.base.simplex_index(t))
    for n in range(2, V.L + 1):
        wf_ok = True
        fl_ok = True
        for s in V.base.nerve_level(n):
            closed = _face_closures(V, C, n, s, (0,), (True, False))
            if not closed[True, 0][1]:
                wf_ok = False
                fail("weak flatness", n, V.base.simplex_index(s))
            if not closed[False, 0][1]:
                fl_ok = False
                fail("flatness", n, V.base.simplex_index(s))
        wf_by_level[n] = wf_ok
        fl_by_level[n] = fl_ok

    weakly_flat = all(wf_by_level.values()) if wf_by_level else True
    flat = all(fl_by_level.values()) if fl_by_level else True

    # each variant demands the zeroth face be cartesian too
    active = [zs for zs, ok in ((True, weakly_flat), (False, flat)) if ok]
    if check_interior and active:
        for n in range(3, V.L + 1):
            for s in V.base.nerve_level(n):
                closed = _face_closures(V, C, n, s, range(1, n), active)
                for i0 in range(1, n):
                    for zero_section in active:
                        if not closed[zero_section, i0][1]:
                            interior_ok = False
                            fail("interior closure", n, i0, V.base.simplex_index(s))
    return CleavageReport(
        bijective, normal, weakly_flat, flat, wf_by_level, fl_by_level, interior_ok, failures
    )


# ---------------------------------------------------------------------------
# Bundle maps over the identity of the base.
# ---------------------------------------------------------------------------


class BundleMap:
    """A per-fiber linear map V -> W over the identity of the shared base."""

    def __init__(self, V: SimpVB, W: SimpVB, map_fn):
        if V.base is not W.base:
            raise ValidationError("bundle maps require a shared base groupoid")
        self.V = V
        self.W = W
        self._fn = map_fn
        self._cache: dict = {}

    def at(self, n: int, s: NerveSimplex) -> BlockMap:
        key = (n, s)
        m = self._cache.get(key)
        if m is None:
            m = self._cache[key] = self._fn(n, s)
        return m


def _intertwinings(phi: BundleMap, n: int, s: NerveSimplex, top: int):
    """(ok, witness) for φ d_i = d_i φ at every face of s, then for φ u_j = u_j φ
    at every degeneracy of s while level n + 1 <= top."""
    V, W, G = phi.V, phi.W, phi.V.base
    idx = G.simplex_index(s)
    here = phi.at(n, s)
    if n >= 1:
        for i in range(n + 1):
            ok = phi.at(n - 1, G.face(s, i)).compose(V.face(n, i, s)) == W.face(n, i, s).compose(here)
            yield ok, ("face", n, i, idx)
    if n + 1 <= top:
        for j in range(n + 1):
            ok = phi.at(n + 1, G.degeneracy(s, j)).compose(V.deg(n, j, s)) == W.deg(n, j, s).compose(here)
            yield ok, ("degeneracy", n, j, idx)


def check_simplicial_map(phi: BundleMap):
    """Exact intertwining of faces and degeneracies; returns violation list."""
    top = min(phi.V.L, phi.W.L)
    failures = []
    for n in range(top + 1):
        for s in phi.V.base.nerve_level(n):
            for ok, witness in _intertwinings(phi, n, s, top):
                if not ok and len(failures) < 10:
                    failures.append(witness)
    return failures


def check_weakly_flat_morphism(phi: BundleMap, C: Cleavage, Cp: Cleavage):
    """Images of zero-sourced cartesian vectors must stay cartesian.

    The witness space asks only that the first vertex vanish and that every
    prefix of the vector be cartesian; faces are unconstrained.  Each failure
    carries one offending vector and its image.
    """
    V = phi.V
    failures = []
    for n in range(1, V.L + 1):
        for s in V.base.nerve_level(n):
            W = _witness_space(V, C, n, s)
            if not W.dim:
                continue
            m = phi.at(n, s)
            eq = Cp.equations(n, s)
            for row in W.mat.data:
                img = m.apply(row)
                if any(eq.apply(img)):
                    if len(failures) < 10:
                        failures.append((n, V.base.simplex_index(s), tuple(row), img))
                    break
    return failures


# ---------------------------------------------------------------------------
# Rank identities.
# ---------------------------------------------------------------------------


@dataclass
class RankReport:
    kernel_law_ok: bool
    horn_formula_ok: bool
    checked_kernels: int
    checked_horns: int
    coverage: dict
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.kernel_law_ok and self.horn_formula_ok


def rank_identities(V: SimpVB) -> RankReport:
    """Kernel ranks of every relative horn map against the core, and horn-space
    dimensions against the binomial count, exactly, on every fiber.

    coverage maps each level to (fibers checked, fibers in the level).
    """
    from math import comb

    E = core(V)
    uniform = E.same_dims_everywhere()
    failures = []
    ker_ok = True
    horn_ok = True
    checked_k = 0
    checked_h = 0
    coverage = {}
    for n in range(1, V.L + 1):
        level = V.base.nerve_level(n)
        coverage[n] = (len(level), len(level))
        for s in level:
            top_obj = V.base.vertex_obj(s, n)
            expect = E.dim(top_obj, n)
            for k in range(n + 1):
                ker = relative_horn_kernel(V, n, k, s)
                checked_k += 1
                if ker.dim != expect:
                    ker_ok = False
                    if len(failures) < 10:
                        failures.append(("kernel", n, k, V.base.simplex_index(s), ker.dim, expect))
            # rk V_{n,k} must equal rk V_n - lambda_n fiberwise; the binomial
            # count needs constant graded ranks, so it is skipped otherwise.
            expected_hd = V.fiber_dim(n, s) - expect
            binomial = (
                sum(comb(n, j) * E.dim(0, j) for j in range(n)) if uniform else None
            )
            for k in range(n + 1):
                hd = horn_dim(V, n, k, s)
                checked_h += 1
                bad = hd != expected_hd or (binomial is not None and hd != binomial)
                if bad:
                    horn_ok = False
                    if len(failures) < 10:
                        failures.append(("horn", n, k, V.base.simplex_index(s), hd, expected_hd))
    return RankReport(ker_ok, horn_ok, checked_k, checked_h, coverage, failures)


# ---------------------------------------------------------------------------
# Fiberwise-linear cochain cohomology.
# ---------------------------------------------------------------------------


def coboundary_rows(V: SimpVB, p: int) -> list[dict]:
    """Sparse rows of the transpose of delta: C^p -> C^{p+1}, one per coordinate of C^p.

    delta f = sum_i (-1)^i f d_i on fiberwise-linear functionals, so row r of
    the face d_i: fiber(t) -> fiber(s) lands, signed, in row r of s's block
    at the columns of t's block.
    """
    src_off, src_dim = {}, 0
    for s in V.base.nerve_level(p):
        src_off[s] = src_dim
        src_dim += V.fiber_dim(p, s)
    rows = [{} for _ in range(src_dim)]
    t_off = 0
    for t in V.base.nerve_level(p + 1):
        for i in range(p + 2):
            s_off = src_off[V.base.face(t, i)]
            sign = -1 if i % 2 else 1
            for r, face_row in enumerate(V.face(p + 1, i, t).sparse_rows()):
                _sub_scaled(rows[s_off + r], face_row, -sign, t_off)
        t_off += V.fiber_dim(p + 1, t)
    return rows


def linear_cochain_cohomology(V: SimpVB, up_to_degree: int) -> list[int]:
    """Exact Betti numbers of the fiberwise-linear cochain complex.

    The rank of each coboundary is the rank of its transpose's sparse rows.
    """
    if not 0 <= up_to_degree <= V.L - 1:
        raise ValidationError(f"degree {up_to_degree} outside the certified range 0..{V.L - 1}")
    dims = []
    prev_rank = 0
    for p in range(up_to_degree + 1):
        rows = coboundary_rows(V, p)
        rank = sparse_rank(rows)
        dims.append(len(rows) - rank - prev_rank)
        prev_rank = rank
    return dims


def coboundary_matches_rep(V: SimpVB, R: Ruth) -> bool:
    """Degree-zero cross-check against the order-zero representation formula.

    On 0-cochains the coboundary must act by f -> (g -> f(R^g . ) - f( . )):
    equivalently the first face over g is the arrow operator and the last is
    the identity, block for block.
    """
    if R.E.N != 0:
        raise ValidationError("the explicit formula applies to order-zero towers")
    for s in V.base.nerve_level(1):
        d0 = V.face(1, 0, s).to_dense()
        d1 = V.face(1, 1, s).to_dense()
        if d0 != R.block(1, s, 0):
            return False
        if d1 != RatMat.identity(d1.rows):
            return False
    return True
