"""The semi-direct product of a finite groupoid with an operator tower.

MaskBundle is the one mask-graded bundle: fibers at level n are indexed by
the 0-preserving monos into [n], positive faces and degeneracies are index
transports, and the zeroth face combines blocks along tail arrows (prefix
factorizations) with signed identities (interior deletions).  The
semi-direct product fills the prefix blocks with the tower's operators; over
POINT, with a chain complex as the tower, the same bundle is doldkan.dk, the
classical Dold-Kan inverse.  A second, source-indexed code path for the
zeroth face acts as a built-in self-oracle for the sign bookkeeping.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from itertools import combinations

from .errors import ValidationError
from .exactla import Fr, RatMat, Subspace
from .graded import BlockMap, Grading, _entries_equal
from .groupoid import FinGroupoid, NerveSimplex
from .ordmaps import (
    d0_row,
    mask_to_tuple,
    transport_degeneracy_table,
    transport_face_table,
    zero_mono_masks,
)
from .ruth import GaugeData, GradedBundle, Ruth, RuthMorphism, validate_ruth
from .svb import BundleMap, Cleavage, SimpVB, canonical_cleavage, explicit_cleavage


def sdp_grading(E: GradedBundle, G: FinGroupoid, n: int, s: NerveSimplex) -> Grading:
    masks = zero_mono_masks(n)
    dims = tuple(
        E.dim(G.vertex_obj(s, m.bit_length() - 1), bin(m).count("1") - 1) for m in masks
    )
    return Grading(masks, dims)


class MaskBundle(SimpVB):
    """A bundle whose level-n fibers are graded by the 0-preserving monos into [n].

    Positive faces and degeneracies are index transports, stored as row maps
    {target mask: source mask} (see graded), so the identity sweep composes
    and compares them as label tables.  The zeroth face reads each target's
    d_0 row: an interior deletion (Case II) is a signed identity, and a
    prefix (Case I) is prefix_entry(term, s), a stored block or None for a
    zero one.  The semi-direct product is this bundle over a
    groupoid; dk is the same bundle over POINT.
    """

    def __init__(self, base, L: int, grading_fn, prefix_entry):
        # The closures live on self; a strong reference back would make every
        # bundle a cycle that only the cyclic collector frees.  Faces read each
        # level's grading off the bundle, which interns them, so composites
        # share one object and a transport depends only on the level, the
        # index and the two grading objects: it is built once per such tuple
        # and handed to every simplex.
        me = weakref.proxy(self)
        transports: dict = {}

        def transport(table, n, i, src, dst):
            key = (table, n, i, id(src), id(dst))
            m = transports.get(key)
            if m is None:
                pairs = [(b, a, 1) for b, a in table(n, i)]
                m = transports[key] = BlockMap.transport(src, dst, pairs)
            return m

        def face(n, i, s):
            src = me.grading(n, s)
            dst = me.grading(n - 1, base.face(s, i))
            if i > 0:
                return transport(transport_face_table, n, i, src, dst)
            blocks = {}
            for beta in zero_mono_masks(n - 1):
                if dst.dim(beta) == 0:
                    continue
                for term in d0_row(beta, n):
                    if src.dim(term.source_mask) == 0:
                        continue
                    entry = term.sign if term.case == "II" else prefix_entry(term, s)
                    if entry is None:
                        continue
                    key = (beta, term.source_mask)
                    if key in blocks:  # cannot happen: factorizations are unique
                        raise AssertionError("duplicate d_0 term")
                    blocks[key] = entry
            return BlockMap(src, dst, blocks)

        def deg(n, j, s):
            src = me.grading(n, s)
            dst = me.grading(n + 1, base.degeneracy(s, j))
            return transport(transport_degeneracy_table, n, j, src, dst)

        super().__init__(base, L, grading_fn, face, deg)

    def canonical_cleavage(self) -> Cleavage:
        return canonical_cleavage(self)


class SdpBundle(MaskBundle):
    """build_sdp output: a mask-graded bundle remembering its tower."""

    def __init__(self, R: Ruth, L: int):
        self.R = R
        self.E = E = R.E
        G = R.G

        def grading(n, s):
            return sdp_grading(E, G, n, s)

        def prefix_entry(term, s):
            h = G.restrict_vertices(s, term.tail)
            e = R.entry(term.m, h, bin(term.source_mask).count("1") - 1)
            return e if e is None or term.sign > 0 else -e

        super().__init__(G, L, grading, prefix_entry)


def build_sdp(R: Ruth, L: int | None = None, validate: bool = True) -> SdpBundle:
    """Assemble the semi-direct product, rejecting invalid towers first.

    Default truncation is 2N+3: products of two operators are nontrivial up
    to level 2N+2 and one extra level guards the double-face checks.  The
    full bundle verification (simplicial identities, fibration, order, core)
    lives in verify_sdp so perturbation experiments can build raw bundles.
    """
    if L is None:
        L = 2 * R.E.N + 3
    if L < 1:
        raise ValidationError("truncation level must be at least 1")
    if validate:
        validate_ruth(R)
    return SdpBundle(R, L)


@dataclass
class SdpVerification:
    identities_ok: bool
    identities_checked: int
    order: int | None
    order_ok: bool
    core_ok: bool
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.identities_ok and self.order_ok and self.core_ok


def verify_sdp(B: SdpBundle) -> SdpVerification:
    """Simplicial identities, fibration order, and core, all exact."""
    from .simplicial import verify_simplicial_identities
    from .svb import check_fibration, core

    rep = verify_simplicial_identities(B)
    fib = check_fibration(B)
    order_ok = fib.is_fibration and fib.order == B.E.N
    core_ok = core(B) == B.E
    failures = [("identity", v.identity, v.level, v.indices) for v in rep.violations]
    failures += [("fibration",) + f for f in fib.failures]
    if not core_ok:
        failures.append(("core", "dims differ"))
    return SdpVerification(rep.ok, rep.checked, fib.order, order_ok, core_ok, failures)


# ---------------------------------------------------------------------------
# Source-indexed zeroth face: the self-oracle for Remark-style formulas.
# ---------------------------------------------------------------------------


def d0_homogeneous_column(R: Ruth, n: int, s: NerveSimplex, alpha_mask: int):
    """Blocks of d_0 on the homogeneous summand alpha, enumerated source-side.

    Prefix extensions of alpha by top elements give operator blocks along the
    extension tail; single interior insertions give signed identities.  This
    enumeration never consults the target-indexed tables, so agreement with
    the blockwise path checks the sign conventions from two directions.
    Only tails up to the longest operator the tower stores can carry a
    block, and only stored blocks are read.
    """
    G = R.G
    longest = max((m for m, _ in R.ops), default=0)
    out: dict[int, object] = {}
    elems = mask_to_tuple(alpha_mask)
    k = len(elems) - 1
    top = elems[-1]
    deg = k
    above = range(top + 1, n + 1)
    for m in range(min(longest, len(above)) + 1):
        l = k + m - 1  # beta:[l] -> [n-1]
        sign = -1 if l % 2 else 1
        for tail in combinations(above, m):
            e = R.entry(m, G.restrict_vertices(s, (top,) + tail), deg)
            if e is None:
                continue
            bp = alpha_mask
            for v in tail:
                bp |= 1 << v
            out[(bp & ~1) >> 1] = e if sign == 1 else -e  # unprime
    for v in range(1, top):
        if (alpha_mask >> v) & 1:
            continue
        bp = alpha_mask | (1 << v)
        i = bin(bp & ((1 << v) - 1)).count("1")  # rank of v in beta'
        beta = (bp & ~1) >> 1
        sign = Fr(-1 if (i + 1) % 2 else 1)
        out[beta] = sign
    return out


def d0_paths_agree(B: SdpBundle, levels=None) -> bool:
    """Compare the target-indexed and source-indexed zeroth-face assemblies."""
    G = B.base
    levels = range(1, B.L + 1) if levels is None else levels
    for n in levels:
        for s in G.nerve_level(n):
            blockwise = B.face(n, 0, s)
            src = B.grading(n, s)
            dst = B.grading(n - 1, G.face(s, 0))
            for alpha in zero_mono_masks(n):
                if src.dim(alpha) == 0:
                    continue
                expected = d0_homogeneous_column(B.R, n, s, alpha)
                for beta in zero_mono_masks(n - 1):
                    if dst.dim(beta) == 0:
                        continue
                    got = blockwise.blocks.get((beta, alpha))
                    if not _entries_equal(got, expected.get(beta)):
                        return False
    return True


# ---------------------------------------------------------------------------
# Morphism lifts and twisted cleavages.
# ---------------------------------------------------------------------------


def _lift_row(G: FinGroupoid, src: Grading, entry_provider, beta: int, s: NerveSimplex) -> dict:
    """Blocks of the lift's target component beta: one per prefix of beta.

    The prefix through the r-th element of beta receives the provider's
    stored entry along the tail from that element on.
    """
    elems = mask_to_tuple(beta)
    l = len(elems) - 1
    row = {}
    smask = 0
    for r, v in enumerate(elems):
        smask |= 1 << v
        if src.dim(smask) == 0:
            continue
        e = entry_provider(l - r, G.restrict_vertices(s, elems[r:]), r)
        if e is not None:
            row[(beta, smask)] = e
    return row


def _lift_block_map(Vs: SimpVB, Vt: SimpVB, entry_provider, n: int, s: NerveSimplex) -> BlockMap:
    """Level-preserving map with target components summing prefix restrictions."""
    src = Vs.grading(n, s)
    dst = Vt.grading(n, s)
    blocks = {}
    for beta in zero_mono_masks(n):
        if dst.dim(beta):
            blocks.update(_lift_row(Vs.base, src, entry_provider, beta, s))
    return BlockMap(src, dst, blocks)


def lift_morphism(psi: RuthMorphism, Vs: SimpVB, Vt: SimpVB) -> BundleMap:
    """The bundle map induced by a tower morphism between two semi-direct products."""

    def fn(n, s):
        return _lift_block_map(Vs, Vt, psi.entry, n, s)

    return BundleMap(Vs, Vt, fn)


def twisted_cleavage(V: SdpBundle, psi: GaugeData) -> Cleavage:
    """Preimage of the canonical cleavage under the gauge lift, as an equation form.

    The equations are the gauge lift's top (full-mask) component.
    """

    def rows(n, s):
        g = V.grading(n, s)
        full = (1 << (n + 1)) - 1
        return BlockMap(g, Grading((full,), (g.dim(full),)), _lift_row(V.base, g, psi.entry, full, s))

    return Cleavage(V, equations_fn=rows)


# ---------------------------------------------------------------------------
# The order-two counterexample bundle.
# ---------------------------------------------------------------------------


def example_not_full():
    """Pair-groupoid pullback of the two-step line complex with two cleavages.

    Returns (V, C, Cprime): C is canonical (normal and flat); Cprime modifies
    three level-two fibers by triangle families and is normal and weakly flat,
    yet the identity map (V, Cprime) -> (V, C) is not weakly flat.

    The modified fibers carry the triangle families (lam, mu, -lam+mu),
    (lam, mu, -mu/2), and (lam, mu, -lam) in (v10, v20, v210) coordinates.
    The companion coefficients are pinned by solving the sixteen level-three
    closure equations exactly: the family -lam+mu on the repeated-tail fiber
    admits a one-parameter family of valid companions and these are the
    members matching the quoted witness (lam=0, mu=1, top component 1).
    """
    from .doldkan import ChainComplex, dk
    from .groupoid import pair_groupoid
    from .svb import pullback_svb

    Y = ChainComplex((0, 1, 1), {2: RatMat.from_rows([[1]])})
    G = pair_groupoid(2)
    V = pullback_svb(dk(Y, 4), G)
    C = canonical_cleavage(V)

    # object 0 plays x, object 1 plays y; a pair-groupoid 2-simplex is its
    # vertex objects (x_0, x_1, x_2)
    by_vertices = {G.vertices(s): s for s in G.nerve_level(2)}
    table = {
        (2, by_vertices[1, 0, 0]): Subspace.from_rows(3, [[1, 0, -1], [0, 1, 1]]),
        (2, by_vertices[0, 1, 0]): Subspace.from_rows(3, [[1, 0, 0], [0, 1, Fr(-1, 2)]]),
        (2, by_vertices[1, 0, 1]): Subspace.from_rows(3, [[1, 0, -1], [0, 1, 0]]),
    }
    Cp = explicit_cleavage(V, table, fallback=C)
    return V, C, Cp


# ---------------------------------------------------------------------------
# Coherence sensitivity: the converse direction of the double-face identity.
# ---------------------------------------------------------------------------


@dataclass
class SensitivityReport:
    perturbed: tuple | None
    rh2_failed: bool
    rh2_witness: tuple | None
    d0_identity_failed: bool
    d0_witness: tuple | None
    witness_related: bool
    restored_ok: bool
    outcome: str = "broken"  # "broken" | "coherent" | "vacuous"
    note: str = ""

    @property
    def ok(self) -> bool:
        if self.outcome == "vacuous":
            return True
        if self.outcome == "coherent":
            # every tried perturbation stayed coherent and the double face
            # held each time: the equivalence verified in its other direction
            return not self.rh2_failed and not self.d0_identity_failed
        return (
            self.rh2_failed
            and self.d0_identity_failed
            and self.witness_related
            and self.restored_ok
        )


def _d0_identity_holds(B: SimpVB, n: int, s: NerveSimplex) -> bool:
    """d_0 d_0 = d_0 d_1 on the fiber over s."""
    G = B.base
    return (B.face(n - 1, 0, G.face(s, 0)).compose(B.face(n, 0, s))
            == B.face(n - 1, 0, G.face(s, 1)).compose(B.face(n, 1, s)))


def _first_d0_identity_failure(B: SimpVB):
    """Scan levels for the first fiber where d_0 d_0 differs from d_0 d_1."""
    G = B.base
    for n in range(2, B.L + 1):
        for s in G.nerve_level(n):
            if not _d0_identity_holds(B, n, s):
                return (n, G.simplex_index(s), s)
    return None


def _contains_subsimplex(G: FinGroupoid, s: NerveSimplex, target: NerveSimplex) -> bool:
    return any(G.restrict_vertices(s, verts) == target
               for verts in combinations(range(s.level + 1), target.level + 1))


def rh2_sensitivity(R: Ruth, L: int | None = None, rng=None) -> SensitivityReport:
    """Perturb operator blocks (m >= 2) and watch the two failures move together.

    A perturbation that breaks the coherence must also break the double
    zeroth face, at a related fiber, and restoring the block must restore
    both.  Some towers have genuinely free blocks (one-object commutative
    bases with vanishing differential): each tried perturbation then stays
    coherent and the double face is verified to keep holding, which checks
    the equivalence from its other side.  At most eight blocks are tried.
    Vacuous when no block exists.
    """
    import random

    from .ruth import check_rh2

    G, E = R.G, R.E
    rng = rng or random.Random(0)
    if L is None:
        L = 2 * E.N + 3

    candidates = []
    for m in range(2, E.N + 2):
        for s in G.nerve_level(m):
            if G.is_degenerate(s):
                continue
            for deg in E.degrees():
                rows = E.dim(G.vertex_obj(s, m), deg + m - 1)
                cols = E.dim(s.x0, deg)
                if rows and cols:
                    candidates.append((m, s, deg, rows, cols))
    if not candidates:
        return SensitivityReport(None, False, None, False, None, True, True,
                                 outcome="vacuous",
                                 note="no perturbable block of level >= 2")
    rng.shuffle(candidates)
    candidates = candidates[:8]

    last = None
    coherent_count = 0
    for m, s, deg, rows, cols in candidates:
        delta = Fr(rng.randint(1, 5), rng.randint(1, 3))
        mat = R.block(m, s, deg).copy()
        mat.data[rng.randrange(rows)][rng.randrange(cols)] += delta
        Rp = R.with_block(m, s, deg, mat)
        last = (m, G.simplex_index(s), deg)

        rh2 = check_rh2(Rp)
        Bp = build_sdp(Rp, L, validate=False)
        d0_fail = _first_d0_identity_failure(Bp)
        if rh2.ok:
            if d0_fail is not None:
                return SensitivityReport(last, False, None, True, d0_fail[:2], False,
                                         True, outcome="broken",
                                         note="double face broke without the coherence")
            coherent_count += 1
            continue
        rh2_witness = rh2.violations[0]
        related = False
        if d0_fail is not None:
            wm, widx = rh2_witness
            related = _contains_subsimplex(G, d0_fail[2], G.nerve_level(wm)[widx])
        restored_ok = check_rh2(R).ok
        if d0_fail is not None:
            n, _, s_w = d0_fail
            restored_ok = restored_ok and _d0_identity_holds(build_sdp(R, L, validate=False), n, s_w)
        return SensitivityReport(
            last,
            True,
            rh2_witness,
            d0_fail is not None,
            d0_fail[:2] if d0_fail else None,
            related,
            restored_ok,
        )
    return SensitivityReport(
        last, False, None, False, None, True, True, outcome="coherent",
        note=f"{coherent_count} perturbations stayed coherent with the double face intact",
    )


def unit_face_clause(B: SimpVB) -> bool:
    """d_0 u_0 = id at every fiber up to the truncation."""
    G = B.base
    for n in range(0, B.L):
        for s in G.nerve_level(n):
            lhs = B.face(n + 1, 0, G.degeneracy(s, 0)).compose(B.deg(n, 0, s))
            if lhs != BlockMap.identity(B.grading(n, s)):
                return False
    return True


# ---------------------------------------------------------------------------
# Order-zero oracle: the translation bundle.
# ---------------------------------------------------------------------------


def translation_svb(R: Ruth, L: int) -> SimpVB:
    """Nerve of the translation groupoid as a mask-graded bundle.

    Faces come from the arrow-pair semantics: interior faces and degeneracies
    fix the source value, the zeroth face moves it along the first arrow.
    Written against the groupoid picture, not the direct-sum tables, so it can
    serve as an independent comparison for order-zero semi-direct products.
    """
    if R.E.N != 0:
        raise ValidationError("translation bundle needs an order-zero tower")
    G, E = R.G, R.E

    def grading(n, s):
        return sdp_grading(E, G, n, s)

    def face(n, i, s):
        src = grading(n, s)
        dst = grading(n - 1, G.face(s, i))
        if i == 0:
            return BlockMap(src, dst, {(1, 1): R.block(1, G.restrict_vertices(s, (0, 1)), 0)})
        return BlockMap(src, dst, {(1, 1): Fr(1)})

    def deg(n, j, s):
        src = grading(n, s)
        dst = grading(n + 1, G.degeneracy(s, j))
        return BlockMap(src, dst, {(1, 1): Fr(1)})

    return SimpVB(G, L, grading, face, deg)
