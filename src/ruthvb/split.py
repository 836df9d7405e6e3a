"""Splitting a bundle with a cleavage back into an operator tower.

Horn filling inside the cleavage drives everything: push-forwards move one
vertex at a time toward the last object, the retraction composes them, and
the resulting coordinate change identifies the bundle with a semi-direct
product.  Components of that coordinate change vanish above the order, so
verification stays block-sparse even at high levels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import NoSolutionError, ValidationError
from .exactla import Fr, RatMat, left_solver, solve_matrix, sparse_rank
from .graded import BlockMap, Grading
from .groupoid import NerveSimplex
from .ordmaps import mask_to_tuple
from .ruth import GaugeData, Ruth, RuthMorphism, check_morphism, validate_ruth
from .sdp import build_sdp, sdp_grading, twisted_cleavage
from .svb import (
    BundleMap,
    Cleavage,
    SimpVB,
    _intertwinings,
    check_cleavage,
    check_weakly_flat_morphism,
    core,
    relative_horn_kernel,
)


class SplitContext:
    """A fibration with a validated normal weakly flat cleavage, plus caches.

    validate: "cleavage" runs the full cleavage checker; "none" trusts the
    caller (used internally where the cleavage is one by construction).
    The context's write-once caches hold only what depends on the cleavage;
    relative-horn kernels live on the bundle.  The context never mutates its
    inputs.
    """

    def __init__(self, V: SimpVB, C: Cleavage, validate: str = "cleavage"):
        self.V = V
        self.C = C
        self.G = V.base
        self.L = V.L
        self.E = core(V)
        self.N = self.E.N
        self._split_mat: dict = {}
        self._fill_ops: dict = {}
        self._phi: dict = {}
        self._w_gradings: dict = {}
        if validate == "cleavage":
            rep = check_cleavage(V, C, check_interior=False)
            if not (rep.bijective and rep.normal and rep.weakly_flat):
                raise ValidationError(
                    "cleavage is not normal weakly flat bijective", witness=rep.failures[:3]
                )
        elif validate != "none":
            raise ValueError("validate must be 'cleavage' or 'none'")

    # -- projections ---------------------------------------------------------

    def pik_coords(self, n: int, s: NerveSimplex) -> RatMat:
        """Rows giving K-coordinates of the projection with kernel C.

        At level zero the kernel is the whole fiber and the projection is the
        identity; cleavages only start at level one.  Not cached: its one
        caller, split_matrix, is itself write-once per fiber.
        """
        K = relative_horn_kernel(self.V, n, 0, s)
        d = self.V.fiber_dim(n, s)
        if n == 0:
            P = K.mat.transpose()
        else:
            Csub = self.C.subspace(n, s)
            if K.dim + Csub.dim != d:
                raise ValidationError(f"fiber is not kernel plus cleavage at level {n}")
            P = RatMat.vstack([K.mat, Csub.mat]).transpose()
        inv = P.inverse()
        return RatMat(K.dim, d, inv.data[: K.dim])

    # -- horn filling inside the cleavage ------------------------------------

    def _fill_operator(self, n: int, k: int, s: NerveSimplex):
        key = (n, k, s)
        op = self._fill_ops.get(key)
        if op is None:
            Cb = self.C.subspace(n, s).mat.transpose()  # fiber x dimC
            mats = [self.V.face(n, j, s).to_dense() @ Cb for j in range(n + 1) if j != k]
            stacked = RatMat.vstack(mats)
            L = left_solver(stacked)
            op = self._fill_ops[key] = (Cb, L, stacked)
        return op

    def horn_fill(self, n: int, k: int, s: NerveSimplex, faces: dict, check: bool = False):
        """The unique cartesian filler of a relative horn, linear in the horn.

        faces maps each index j != k to a vector over the j-th face of s.
        With check=True the prescribed faces are verified against the filler,
        which rejects inconsistent horns.
        """
        if not 0 <= k < n:
            raise ValidationError("cleavage filling needs k < n")
        Cb, L, stacked = self._fill_operator(n, k, s)
        vec: list[Fraction] = []
        for j in range(n + 1):
            if j == k:
                continue
            vec.extend(faces[j])
        coef = L.apply(vec)
        filler = Cb.apply(coef)
        if check:
            if stacked.apply(coef) != tuple(vec):
                raise NoSolutionError("prescribed faces are not a consistent horn")
        return filler

    # -- push-forwards --------------------------------------------------------

    def h_vector(self, n: int, i: int, s: NerveSimplex, x):
        """The cartesian prism over x in direction i; returns (h, its base)."""
        if not 0 <= i < n + 1:
            raise ValidationError("direction must be a vertex below the top")
        G = self.G
        t = G.degeneracy(s, i + 1)
        vals: dict[tuple[int, ...], tuple] = {}
        edge = (i, i + 1)
        edge_base = G.restrict_vertices(t, edge)
        ri, _ = self.V.restrict_map(n, s, (i,))
        vals[edge] = self.horn_fill(1, 0, edge_base, {1: ri.apply(x)})
        members = [v for v in range(n + 2) if v not in edge]
        # each fill reads faces with one extra vertex fewer, filled in the round before
        for size in range(1, n + 1):
            for extra in combinations(members, size):
                alpha = tuple(sorted(edge + extra))
                m = len(alpha) - 1
                ip = alpha.index(i)
                faces = {}
                for j in range(m + 1):
                    if j == ip:
                        continue
                    sub = alpha[:j] + alpha[j + 1 :]
                    if i in sub and i + 1 in sub:
                        faces[j] = vals[sub]
                    else:
                        orig = tuple(v if v <= i else v - 1 for v in sub)
                        rmat, _ = self.V.restrict_map(n, s, orig)
                        faces[j] = rmat.apply(x)
                vals[alpha] = self.horn_fill(m, ip, G.restrict_vertices(t, alpha), faces)
        return vals[tuple(range(n + 2))], t

    def push_forward(self, n: int, i: int, s: NerveSimplex, x):
        """(h_i(x), p_i(x), base of p_i(x)) for a vector x over s."""
        h, t = self.h_vector(n, i, s, x)
        p = self.V.face(n + 1, i, t).apply(h)
        return h, p, self.G.face(t, i)

    def retraction_vector(self, n: int, s: NerveSimplex, x, a: int | None = None):
        """Apply the push-forward word, rightmost factor first; returns (vec, base)."""
        a = n if a is None else a
        cur, base = x, s
        for b in range(1, a + 1):
            for i in range(b - 1, -1, -1):
                _, cur, base = self.push_forward(n, i, base, cur)
        return cur, base

    # -- the splitting coordinate change --------------------------------------

    def split_matrix(self, n: int, s: NerveSimplex) -> RatMat:
        """Core coordinates of the retraction after projecting along the cleavage."""
        key = (n, s)
        mat = self._split_mat.get(key)
        if mat is not None:
            return mat
        K = relative_horn_kernel(self.V, n, 0, s)
        unit = self.G.unit_simplex(self.G.vertex_obj(s, n), n)
        core_basis = relative_horn_kernel(self.V, n, 0, unit)
        rows_out = core_basis.dim
        d = self.V.fiber_dim(n, s)
        if K.dim != rows_out:
            raise ValidationError("kernel rank jumps across the fiber; not a fibration")
        if rows_out == 0:
            mat = RatMat.zeros(0, d)
        else:
            r_on_k = RatMat.zeros(rows_out, K.dim)
            for j, row in enumerate(K.mat.data):
                vec, base = self.retraction_vector(n, s, tuple(row))
                coords = core_basis.coordinates(vec)
                for r, v in enumerate(coords):
                    r_on_k.data[r][j] = v
            mat = r_on_k @ self.pik_coords(n, s)
        self._split_mat[key] = mat
        return mat

    def w_grading(self, n: int, s: NerveSimplex) -> Grading:
        """The mask grading of the model fiber over s, built once per fiber."""
        key = (n, s)
        g = self._w_gradings.get(key)
        if g is None:
            g = self._w_gradings[key] = sdp_grading(self.E, self.G, n, s)
        return g

    def phi_block(self, n: int, s: NerveSimplex) -> BlockMap:
        """The splitting map as a block map onto the mask-graded model fiber."""
        key = (n, s)
        bm = self._phi.get(key)
        if bm is not None:
            return bm
        Vg = self.V.grading(n, s)
        Wg = self.w_grading(n, s)
        blocks = {}
        for mask in Wg.labels:
            k = bin(mask).count("1") - 1
            if Wg.dim(mask) == 0 or k > self.N:
                continue
            restr, base = self.V.restrict_map(n, s, mask_to_tuple(mask))
            M = self.split_matrix(k, base)
            row = BlockMap.from_dense(
                restr.dst, Grading((mask,), (M.rows,)), M
            ).compose(restr)
            for (_, sl), e in row.blocks.items():
                blocks[(mask, sl)] = e
        bm = self._phi[key] = BlockMap(Vg, Wg, blocks)
        return bm

    def phi_matrix(self, n: int, s: NerveSimplex) -> RatMat:
        return self.phi_block(n, s).to_dense()


# ---------------------------------------------------------------------------
# Extraction.
# ---------------------------------------------------------------------------


def certified_operator_cap(ctx: SplitContext) -> int:
    """Largest m whose extraction fits under the truncation."""
    return min(ctx.N + 1, ctx.L - ctx.N)


def _read_tower(G, E_src, E_dst, cap: int, L: int, shift: int, block) -> dict:
    """An operator table read off a bundle, one entry per m-simplex g and degree.

    For m <= cap and each degree deg with nonzero source and target, the
    entry is block(fiber, deg), fiber being g degenerated deg times at level
    deg + m <= L; a None entry is not stored.
    """
    ops: dict = {}
    for m in range(cap + 1):
        for g in G.nerve_level(m):
            ops[(m, g)] = table = {}
            top = G.vertex_obj(g, m)
            for deg in E_src.degrees():
                if deg + m > L or not (E_src.dim(g.x0, deg) and E_dst.dim(top, deg + m + shift)):
                    continue
                fiber = g
                for _ in range(deg):
                    fiber = G.degeneracy(fiber, 0)
                e = block(fiber, deg)
                if e is not None:
                    table[deg] = e
    return ops


def extract_ruth(ctx: SplitContext) -> Ruth:
    """Read the operator tower off the zeroth face in split coordinates.

    Embeds a core vector over a unit-prefixed base, maps back to the bundle,
    takes the zeroth face, and projects to the top index; operators beyond the
    certified cap vanish by degree.  The output is validated before return.
    """
    G, E = ctx.G, ctx.E

    def block(fiber, deg):
        level = fiber.level
        wg = ctx.w_grading(level, fiber)
        sigma_mask = (1 << (deg + 1)) - 1
        off, cols = wg.offset(sigma_mask), wg.dim(sigma_mask)
        embed = RatMat.zeros(wg.total, cols)
        for c in range(cols):
            embed.data[off + c][c] = Fr(1)
        v_cols = solve_matrix(ctx.phi_matrix(level, fiber), embed)
        d0v = ctx.V.face(level, 0, fiber).to_dense() @ v_cols
        base0 = G.face(fiber, 0)
        w = ctx.phi_matrix(level - 1, base0) @ d0v
        wg0 = ctx.w_grading(level - 1, base0)
        iota_mask = (1 << level) - 1
        ioff, rows = wg0.offset(iota_mask), wg0.dim(iota_mask)
        mat = RatMat(rows, cols, w.data[ioff : ioff + rows])
        return -mat if (level - 1) % 2 else mat

    ops = _read_tower(G, E, E, certified_operator_cap(ctx), ctx.L, -1, block)
    R = Ruth(E, ops, m_cap=2 * E.N + 2)
    validate_ruth(R)
    return R


# ---------------------------------------------------------------------------
# Round trip and morphism descent.
# ---------------------------------------------------------------------------


@dataclass
class RoundtripReport:
    simplicial_ok: bool
    invertible_ok: bool
    cleavage_ok: bool
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.simplicial_ok and self.invertible_ok and self.cleavage_ok


def roundtrip_bundle(ctx: SplitContext) -> tuple[Ruth, RoundtripReport]:
    """Extract, rebuild, and verify the splitting map is an exact isomorphism.

    Faces are compared at levels up to L-1 and degeneracies up to L-2; the top
    level loses one face check to the truncation.
    """
    R = extract_ruth(ctx)
    phi = BundleMap(ctx.V, build_sdp(R, ctx.L, validate=False), ctx.phi_block)
    G = ctx.G
    simplicial_ok = True
    invertible_ok = True
    cleavage_ok = True
    checked = 0
    failures: list = []

    def fail(tag, *info):
        if len(failures) < 10:
            failures.append((tag,) + info)

    top = ctx.L - 1
    for n in range(top + 1):
        for s in G.nerve_level(n):
            bm = phi.at(n, s)
            checked += 1
            if bm.src.total != bm.dst.total or sparse_rank(bm.sparse_rows()) != bm.dst.total:
                invertible_ok = False
                fail("invertible", n, G.simplex_index(s))
            for ok, witness in _intertwinings(phi, n, s, top):
                checked += 1
                if not ok:
                    simplicial_ok = False
                    fail(*witness)
            if n >= 1:
                # the cleavage must map onto the canonical one
                wg = ctx.w_grading(n, s)
                iota = (1 << (n + 1)) - 1
                lam = wg.dim(iota)
                checked += 1
                if ctx.C.subspace(n, s).dim != ctx.V.fiber_dim(n, s) - lam:
                    cleavage_ok = False
                    fail("cleavage-dim", n, G.simplex_index(s))
                elif lam:
                    top_part = BlockMap.projection(wg, iota).compose(bm)
                    if any(any(top_part.apply(v)) for v in ctx.C.subspace(n, s).mat.data):
                        cleavage_ok = False
                        fail("cleavage-image", n, G.simplex_index(s))
    return R, RoundtripReport(simplicial_ok, invertible_ok, cleavage_ok, checked, failures)


def lower_morphism(phi: BundleMap, R_src: Ruth, R_dst: Ruth,
                   C_src: Cleavage | None = None, C_dst: Cleavage | None = None) -> RuthMorphism:
    """Descend a weakly flat bundle map between mask-graded bundles to a morphism.

    Rejects maps that fail weak flatness; the counterexample bundle shows the
    hypothesis is necessary.
    """
    from .svb import canonical_cleavage

    C_src = C_src if C_src is not None else canonical_cleavage(phi.V)
    C_dst = C_dst if C_dst is not None else canonical_cleavage(phi.W)
    bad = check_weakly_flat_morphism(phi, C_src, C_dst)
    if bad:
        raise ValidationError("bundle map is not weakly flat", witness=bad[0])
    L = phi.V.L

    def block(fiber, deg):
        iota_mask, sigma_mask = (1 << (fiber.level + 1)) - 1, (1 << (deg + 1)) - 1
        return phi.at(fiber.level, fiber).blocks.get((iota_mask, sigma_mask))

    ops = _read_tower(phi.V.base, R_src.E, R_dst.E, min(R_src.m_cap, L), L, 0, block)
    return RuthMorphism(R_src, R_dst, ops)


# ---------------------------------------------------------------------------
# Gauge twisting through the bundle.
# ---------------------------------------------------------------------------


def gauge_twist_via_split(R: Ruth, psi: GaugeData) -> Ruth:
    """Twist the canonical cleavage by gauge data and split along it.

    The twisted cleavage is normal and bijective by construction; the checks
    on the extracted tower (and on the gauge data as a morphism onto it) are
    asserted and reject invalid data.
    """
    B = build_sdp(R)
    Cpsi = twisted_cleavage(B, psi)
    ctx = SplitContext(B, Cpsi, validate="none")
    R2 = extract_ruth(ctx)
    morph = psi.as_morphism(R, R2)
    rep = check_morphism(morph)
    if not rep.ok:
        raise ValidationError("gauge data does not descend to a morphism", witness=rep.violations[0])
    return R2
