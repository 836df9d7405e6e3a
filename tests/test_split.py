import random
from fractions import Fraction as Fr

import pytest

from conftest import random_gauge, random_strict_ruth
from ruthvb.errors import ValidationError
from ruthvb.exactla import RatMat
from ruthvb.graded import BlockMap
from ruthvb.groupoid import cyclic_group, pair_groupoid
from ruthvb.ruth import check_morphism, gauge_twist, twisted_ruth_direct
from ruthvb.sdp import build_sdp, example_not_full, lift_morphism, twisted_cleavage
from ruthvb.split import (
    SplitContext,
    extract_ruth,
    gauge_twist_via_split,
    lower_morphism,
    roundtrip_bundle,
)
from ruthvb.svb import relative_horn_kernel


def twisted(seed, base=None, dims=(1, 1), L=5):
    G = base if base is not None else pair_groupoid(2)
    rng = random.Random(seed)
    R0 = random_strict_ruth(G, rng, dims)
    psi = random_gauge(R0.E, rng)
    R = gauge_twist(R0, psi)
    return R0, psi, R, build_sdp(R, L)


def test_context_rejects_bad_cleavage():
    V, C, Cp = example_not_full()
    from ruthvb.svb import explicit_cleavage
    from ruthvb.exactla import Subspace
    from ruthvb.groupoid import NerveSimplex

    # a random non-complement subspace is rejected
    s = V.base.nerve_level(2)[0]
    bad = explicit_cleavage(V, {(2, s): Subspace.from_rows(3, [[0, 0, 1], [0, 1, 0]])}, fallback=C)
    with pytest.raises(ValidationError):
        SplitContext(V, bad)


def test_horn_fill_basics():
    _, _, R, B = twisted(101)
    C = B.canonical_cleavage()
    ctx = SplitContext(B, C, validate="none")
    G = B.base
    n, k = 2, 1
    s = G.nerve_level(n)[3]
    # the zero horn fills with zero; degenerate horns fill with the degenerate
    zero_faces = {j: (Fr(0),) * B.fiber_dim(n - 1, G.face(s, j)) for j in range(n + 1) if j != k}
    assert all(v == 0 for v in ctx.horn_fill(n, k, s, zero_faces, check=True))
    t = G.nerve_level(n - 1)[2]
    for j in range(n):
        u = G.degeneracy(t, j)
        vec = tuple(Fr(i + 1) for i in range(B.fiber_dim(n - 1, t)))
        dvec = B.deg(n - 1, j, t).apply(vec)
        faces = {
            i: B.face(n, i, u).apply(dvec) for i in range(n + 1) if i != k
        }
        filled = ctx.horn_fill(n, k, u, faces, check=True)
        assert filled == dvec


def test_push_forward_properties():
    _, psi, R, B = twisted(103)
    G = B.base
    Cpsi = twisted_cleavage(B, psi)
    ctx = SplitContext(B, Cpsi, validate="none")
    rng = random.Random(7)
    for n in (1, 2, 3):
        for _trial in range(4):
            s = rng.choice(G.nerve_level(n))
            x = tuple(Fr(rng.randint(-3, 3)) for _ in range(B.fiber_dim(n, s)))
            for i in range(n):
                h, p, base = ctx.push_forward(n, i, s, x)
                # the prism's (i+1)-face is the input
                t = G.degeneracy(s, i + 1)
                assert B.face(n + 1, i + 1, t).apply(h) == tuple(x)
                # face interchange below and above the pushed direction
                d_i = B.face(n, i, s).apply(x)
                assert B.face(n, i, base).apply(p) == d_i
                for j in range(n + 1):
                    if j > i + 1:
                        _, pj, bj = ctx.push_forward(n - 1, i, G.face(s, j), B.face(n, j, s).apply(x))
                        assert B.face(n, j, base).apply(p) == pj
                    elif j < i:
                        _, pj, bj = ctx.push_forward(n - 1, i - 1, G.face(s, j), B.face(n, j, s).apply(x))
                        assert B.face(n, j, base).apply(p) == pj


def test_push_forward_identity_on_degenerate_base():
    _, psi, R, B = twisted(107)
    G = B.base
    ctx = SplitContext(B, twisted_cleavage(B, psi), validate="none")
    rng = random.Random(9)
    for n in (1, 2):
        for t in G.nerve_level(n - 1) if n - 1 else [G.nerve_level(0)[0]]:
            pass
    for n in (2, 3):
        for i in range(n - 1):
            t = G.nerve_level(n - 1)[1]
            s = G.degeneracy(t, i)  # base lies in the image of the i-th degeneracy
            x = tuple(Fr(rng.randint(-2, 2)) for _ in range(B.fiber_dim(n, s)))
            _, p, base = ctx.push_forward(n, i, s, x)
            assert base == s and p == tuple(x)


def test_push_forward_kernel_isomorphism():
    _, psi, R, B = twisted(109)
    G = B.base
    ctx = SplitContext(B, twisted_cleavage(B, psi), validate="none")
    for n in (1, 2):
        for s in G.nerve_level(n)[:4]:
            K = relative_horn_kernel(B, n, 0, s)
            if K.dim == 0:
                continue
            for i in range(n):
                imgs = []
                base = None
                for row in K.mat.data:
                    _, p, base = ctx.push_forward(n, i, s, tuple(row))
                    imgs.append(list(p))
                Kt = relative_horn_kernel(B, n, 0, base)
                M = RatMat.from_rows(imgs, B.fiber_dim(n, base))
                assert M.rank() == K.dim == Kt.dim
                for row in imgs:
                    assert Kt.contains(row)


def test_retraction_properties():
    _, psi, R, B = twisted(113)
    G = B.base
    ctx = SplitContext(B, twisted_cleavage(B, psi), validate="none")
    # identity over unit simplices, and the zeroth-face exchange rule
    for x_obj in range(G.n_objects):
        for n in (1, 2):
            u = G.unit_simplex(x_obj, n)
            for e in RatMat.identity(B.fiber_dim(n, u)).data:
                assert ctx.retraction_vector(n, u, tuple(e)) == (tuple(e), u)
    for s in G.nerve_level(2)[:4]:
        vec = tuple(Fr(k + 1) for k in range(B.fiber_dim(2, s)))
        r2, base2 = ctx.retraction_vector(2, s, vec)
        # r d_0 = d_0 r
        d0r = B.face(2, 0, base2).apply(r2)
        rd0, based = ctx.retraction_vector(1, G.face(s, 0), B.face(2, 0, s).apply(vec))
        assert d0r == rd0 and based == B.base.face(base2, 0)
        # a = 0 leaves everything in place
        r0, base0 = ctx.retraction_vector(2, s, vec, a=0)
        assert r0 == vec and base0 == s


def test_first_arrows_fixed_by_intermediate_retraction():
    _, psi, R, B = twisted(127)
    G = B.base
    C = B.canonical_cleavage()
    ctx = SplitContext(B, C, validate="none")
    # over the canonical cleavage, homogeneous vectors with late support only
    # have their early arrows replaced by identities
    from ruthvb.ordmaps import mask_to_tuple, zero_mono_masks

    for n in (2, 3):
        for s in G.nerve_level(n)[:6]:
            g = B.grading(n, s)
            for mask in zero_mono_masks(n):
                if g.dim(mask) == 0:
                    continue
                verts = mask_to_tuple(mask)
                top = verts[-1]
                for a in range(top):
                    vec = [Fr(0)] * g.total
                    vec[g.offset(mask)] = Fr(1)
                    out, base = ctx.retraction_vector(n, s, tuple(vec), a=a)
                    expect_base = s
                    for _ in range(a):
                        expect_base = G.face(expect_base, 0)
                    for _ in range(a):
                        expect_base = G.degeneracy(expect_base, 0)
                    assert base == expect_base
                    assert out == tuple(vec)


def test_phi_identity_on_canonical_sdp():
    _, _, R, B = twisted(131)
    ctx = SplitContext(B, B.canonical_cleavage(), validate="none")
    G = B.base
    for n in range(4):
        for s in G.nerve_level(n)[:6]:
            assert ctx.phi_block(n, s) == BlockMap.identity(B.grading(n, s))


def test_phi_membership_translation():
    _, psi, R, B = twisted(137)
    G = B.base
    Cpsi = twisted_cleavage(B, psi)
    ctx = SplitContext(B, Cpsi)
    for n in (1, 2, 3):
        for s in G.nerve_level(n)[:4]:
            phi = ctx.phi_matrix(n, s)
            wg = ctx.w_grading(n, s)
            iota = (1 << (n + 1)) - 1
            lam = wg.dim(iota)
            Cb = Cpsi.subspace(n, s)
            img = phi @ Cb.mat.transpose()
            for r in range(wg.offset(iota), wg.offset(iota) + lam):
                assert all(v == 0 for v in img.data[r])
            # and conversely the kernel of the top rows is exactly the cleavage
            if lam:
                rows = RatMat(lam, phi.cols, phi.data[wg.offset(iota): wg.offset(iota) + lam])
                from ruthvb.exactla import kernel

                assert kernel(rows) == Cb


def test_extract_inverts_build():
    for seed in (139, 149):
        _, _, R, B = twisted(seed)
        ctx = SplitContext(B, B.canonical_cleavage(), validate="none")
        assert extract_ruth(ctx) == R


def test_roundtrip_on_twisted_cleavage():
    R0, psi, R, B = twisted(151)
    rng = random.Random(4)
    chi = random_gauge(R.E, rng)
    Cchi = twisted_cleavage(B, chi)
    ctx = SplitContext(B, Cchi)
    R2, rep = roundtrip_bundle(ctx)
    assert rep.ok
    assert R2 == twisted_ruth_direct(R, chi)
    assert check_morphism(chi.as_morphism(R, R2)).ok


def _roundtrip_perturbed(ctx, n, target, change):
    """roundtrip_bundle with the splitting map over (n, target) replaced by change(map)."""
    unperturbed = ctx.phi_block
    ctx.phi_block = lambda m, s: change(unperturbed(m, s)) if (m, s) == (n, target) else unperturbed(m, s)
    return roundtrip_bundle(ctx)


def test_roundtrip_reports_broken_intertwining():
    """The splitting map doubled over one nondegenerate top-level simplex breaks
    φ d_i = d_i φ at each of its faces and nothing else: the tower, the
    invertibility and cleavage verdicts and the number of checks stay."""
    R0, psi, R, B = twisted(151)
    Cchi = twisted_cleavage(B, random_gauge(R.E, random.Random(4)))
    R_ref, ref = roundtrip_bundle(SplitContext(B, Cchi))
    assert ref.ok
    top = B.L - 1
    target = next(s for s in B.base.nerve_level(top) if not B.base.is_degenerate(s))
    R2, rep = _roundtrip_perturbed(SplitContext(B, Cchi), top, target, lambda bm: bm.scale(2))
    assert R2 == R_ref
    assert not rep.simplicial_ok and rep.invertible_ok and rep.cleavage_ok
    idx = B.base.simplex_index(target)
    assert rep.failures == [("face", top, i, idx) for i in range(top + 1)]
    assert rep.checked == ref.checked


LEVEL2_TOP = (1 << 3) - 1  # the top label at level 2


@pytest.mark.parametrize("change, broken", [
    (lambda bm: BlockMap(bm.src, bm.dst, {k: e for k, e in bm.blocks.items() if k != (LEVEL2_TOP,) * 2}),
     "invertible"),
    (lambda bm: bm + BlockMap(bm.src, bm.dst, {(LEVEL2_TOP, 1): 1}), "cleavage-image"),
], ids=["drop-top-block", "add-vertex-to-top-block"])
def test_roundtrip_reports_broken_splitting_map(change, broken):
    """Over one nondegenerate level-2 simplex, dropping the top block makes φ
    singular, and adding a block from the vertex label into the top label
    carries the cleavage off the canonical one; each breaks only its check.

    A strict tower with degrees 0..2 at L = 3 has certified cap 1, so
    extraction reads no nondegenerate level-2 simplex, and it has no operator
    above m = 1: the tower comes back whatever φ does there.  The top label
    at level 2 has dimension 1, so the cleavage-image check runs there.
    """
    R = random_strict_ruth(pair_groupoid(2), random.Random(151), (1, 1, 1))
    B = build_sdp(R, 3)
    R_ref, ref = roundtrip_bundle(SplitContext(B, B.canonical_cleavage()))
    assert ref.ok and R_ref == R
    target = next(s for s in B.base.nerve_level(2) if not B.base.is_degenerate(s))
    R2, rep = _roundtrip_perturbed(SplitContext(B, B.canonical_cleavage()), 2, target, change)
    assert R2 == R
    assert rep.simplicial_ok
    assert (rep.invertible_ok, rep.cleavage_ok) == (broken != "invertible", broken != "cleavage-image")
    assert rep.failures == [(broken, 2, B.base.simplex_index(target))]
    assert rep.checked == ref.checked == 68


def test_roundtrip_on_counterexample_canonical():
    V, C, Cp = example_not_full()
    ctx = SplitContext(V, C)
    R, rep = roundtrip_bundle(ctx)
    assert rep.ok
    # the recovered two-step differential carries the alternating sign the
    # product convention puts on the zeroth face, so degree two flips
    for x in range(V.base.n_objects):
        from ruthvb.groupoid import NerveSimplex

        assert R.block(0, NerveSimplex(x, ()), 2) == RatMat.from_rows([[-1]])
    ctx2 = SplitContext(V, Cp)
    R2, rep2 = roundtrip_bundle(ctx2)
    assert rep2.ok
    from ruthvb.ruth import check_rh1, check_rh2

    assert check_rh1(R2).ok and check_rh2(R2).ok


def test_lower_morphism_roundtrips():
    R0, psi, R, B = twisted(157)
    Rt = twisted_ruth_direct(R, random_gauge(R.E, random.Random(6)))
    chi = random_gauge(R.E, random.Random(6))
    Rt = twisted_ruth_direct(R, chi)
    m = chi.as_morphism(R, Rt)
    Bt = build_sdp(Rt, 5)
    lift = lift_morphism(m, B, Bt)
    back = lower_morphism(lift, R, Rt)
    assert back.equal_operators(m)
    # relift and compare blockwise: the descent determines the lift
    relift = lift_morphism(back, B, Bt)
    for n in range(4):
        for s in B.base.nerve_level(n):
            assert relift.at(n, s) == lift.at(n, s)
    # degree-zero part is the restriction to the core
    for x in range(B.base.n_objects):
        from ruthvb.groupoid import NerveSimplex

        obj = NerveSimplex(x, ())
        for deg in R.E.degrees():
            assert back.block(0, obj, deg) == RatMat.identity(R.E.dim(x, deg))


def test_lower_morphism_rejects_non_weakly_flat():
    V, C, Cp = example_not_full()
    ident = lambda n, s: BlockMap.identity(V.grading(n, s))
    from ruthvb.svb import BundleMap

    phi = BundleMap(V, V, ident)
    ctx = SplitContext(V, C)
    R = extract_ruth(ctx)
    ctx2 = SplitContext(V, Cp)
    R2 = extract_ruth(ctx2)
    with pytest.raises(ValidationError):
        lower_morphism(phi, R2, R, Cp, C)


def test_gauge_twist_split_equals_direct():
    G = cyclic_group(2)
    rng = random.Random(163)
    R0 = random_strict_ruth(G, rng, (1, 1, 1))
    psi = random_gauge(R0.E, rng)
    assert gauge_twist_via_split(R0, psi) == twisted_ruth_direct(R0, psi)


def test_certified_cap_reporting():
    _, _, R, B = twisted(167, L=3)  # too short to certify everything
    ctx = SplitContext(B, B.canonical_cleavage(), validate="none")
    from ruthvb.split import certified_operator_cap

    assert certified_operator_cap(ctx) == 2  # L - N = 2 < N+1 would be 2
    R2 = extract_ruth(ctx)
    assert R2 == R  # nonzero operators of an order-one tower stop at level two
