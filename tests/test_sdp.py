import gc
import hashlib
import random
import weakref
from fractions import Fraction as Fr

import pytest

from conftest import random_chain_complex, random_gauge, random_strict_ruth
from ruthvb.documents import canonical_dumps
from ruthvb.doldkan import ChainComplex, dk, dk_classic, sign_flip
from ruthvb.errors import ValidationError
from ruthvb.exactla import RatMat
from ruthvb.graded import BlockMap
from ruthvb.groupoid import cyclic_group, pair_groupoid, unit_groupoid
from ruthvb.ordmaps import d0_row
from ruthvb.ruth import (
    GradedBundle,
    Ruth,
    chain_complex_ruth,
    compose_morphisms,
    gauge_twist,
    grothendieck,
    representation_ruth,
    twisted_ruth_direct,
)
from ruthvb.sdp import (
    build_sdp,
    d0_paths_agree,
    lift_morphism,
    rh2_sensitivity,
    sdp_grading,
    translation_svb,
    twisted_cleavage,
    unit_face_clause,
    verify_sdp,
)
from ruthvb.svb import check_simplicial_map, check_weakly_flat_morphism


def twisted(seed, base=None, dims=(1, 1)):
    G = base if base is not None else pair_groupoid(2)
    rng = random.Random(seed)
    R0 = random_strict_ruth(G, rng, dims)
    return R0, gauge_twist(R0, random_gauge(R0.E, rng))


def test_sdp_grading_reads_each_summand_at_its_top_vertex():
    """The summand of a mask sits at the object of the mask's top vertex, in
    degree (mask size - 1); dims differ at objects 0 and 1 so every vertex counts."""
    G = pair_groupoid(2)
    E = GradedBundle(G, {0: (1, 0, 4), 1: (2, 3, 5)})
    by_vertices = {G.vertices(s): s for n in (1, 2) for s in G.nerve_level(n)}
    # masks 0b01 = {0} at vertex 0 (object 0, degree 0), 0b11 = {0, 1} at vertex 1 (object 1, degree 1)
    g = sdp_grading(E, G, 1, by_vertices[0, 1])
    assert (g.labels, g.dims) == ((0b01, 0b11), (1, 3))
    # objects (1, 0, 1): {0} -> E(1, 0), {0, 1} -> E(0, 1), {0, 2} -> E(1, 1), {0, 1, 2} -> E(1, 2)
    g = sdp_grading(E, G, 2, by_vertices[1, 0, 1])
    assert (g.labels, g.dims) == ((0b001, 0b011, 0b101, 0b111), (2, 0, 3, 5))


def test_bundle_freed_by_reference_counting():
    """A dropped bundle must not wait for the cyclic collector."""
    _, R = twisted(61)
    enabled = gc.isenabled()
    gc.disable()
    try:
        B = build_sdp(R, 3)
        assert verify_sdp(B).ok
        ref = weakref.ref(B)
        del B
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_invalid_tower_rejected():
    G = pair_groupoid(2)
    rng = random.Random(2)
    R = random_strict_ruth(G, rng, (1, 1))
    s = next(t for t in G.nerve_level(2) if not G.is_degenerate(t))
    bad = R.with_block(2, s, 0, RatMat.from_rows([[1]]))
    with pytest.raises(ValidationError):
        build_sdp(bad, 4)


def test_verify_sdp_full_contract():
    _, R = twisted(61)
    B = build_sdp(R, 5)
    ver = verify_sdp(B)
    assert ver.ok and ver.order == 1
    assert d0_paths_agree(B)


def _negate_d0_block(B, m):
    """Negate, in B's cached d_0, one block fed by an operator of length m.

    Returns the (level, simplex) it was changed at.
    """
    for n in range(m + 1, B.L + 1):
        for s in B.base.nerve_level(n):
            f = B.face(n, 0, s)
            for beta, alpha in f.blocks:
                if any(t.case == "I" and t.m == m and t.source_mask == alpha
                       for t in d0_row(beta, n)):
                    blocks = dict(f.blocks)
                    blocks[beta, alpha] = -blocks[beta, alpha]
                    B._faces[n, 0, s] = BlockMap(f.src, f.dst, blocks)
                    return n, s
    raise AssertionError(f"no d_0 block of an operator of length {m}")


@pytest.mark.parametrize("m_cap", [None, 2])
def test_d0_oracle_detects_negated_block(m_cap):
    """The source-indexed d_0 must see one block negated at one simplex,
    including a block of the longest operator, here also at m = m_cap."""
    _, R = twisted(63)
    if m_cap is not None:
        R = Ruth(R.E, R.ops, m_cap=m_cap)
    longest = max(m for m, _ in R.ops)
    assert longest == 2 and (m_cap is None or longest == R.m_cap)
    for m in (1, longest):
        B = build_sdp(R, 4, validate=False)
        assert d0_paths_agree(B)
        n, s = _negate_d0_block(B, m)
        assert not d0_paths_agree(B)
        assert not d0_paths_agree(B, levels=[n])
        assert d0_paths_agree(B, levels=[k for k in range(1, B.L + 1) if k != n])


def test_unit_groupoid_matches_flipped_inverse():
    Y = ChainComplex((1, 2, 1), {1: RatMat.from_rows([[1, 0]]), 2: RatMat.from_rows([[0], [2]])})
    G = unit_groupoid(1)
    B = build_sdp(chain_complex_ruth(G, Y), 5)
    X = dk(sign_flip(Y), 5)
    for n in range(1, 6):
        s = G.nerve_level(n)[0]
        for i in range(n + 1):
            assert B.face(n, i, s) == X.face(n, i)
    for n in range(5):
        s = G.nerve_level(n)[0]
        for j in range(n + 1):
            assert B.deg(n, j, s) == X.deg(n, j)


def test_order_zero_matches_translation_nerve():
    G = pair_groupoid(2)
    mats = {}
    for g in range(G.n_arrows):
        a, b = G.arrow_src[g], G.arrow_tgt[g]
        mats[g] = RatMat.from_rows([[Fr(5) ** (b - a)]])
    R = representation_ruth(G, {0: 1, 1: 1}, mats)
    B = build_sdp(R, 4)
    T = translation_svb(R, 4)
    for n in range(1, 5):
        for s in G.nerve_level(n):
            for i in range(n + 1):
                assert B.face(n, i, s) == T.face(n, i, s)
            if n < 4:
                for j in range(n + 1):
                    assert B.deg(n, j, s) == T.deg(n, j, s)


def test_order_one_two_simplex_matches_multiplication():
    _, R = twisted(67)
    G = R.G
    B = build_sdp(R, 5)
    gr = grothendieck(R)
    for pair in G.nerve_level(2):
        src = B.grading(2, pair)
        vec = tuple(Fr(k + 1) for k in range(src.total))
        d0 = B.face(2, 0, pair).apply(vec)
        d1 = B.face(2, 1, pair).apply(vec)
        d2 = B.face(2, 2, pair).apply(vec)
        g0 = B.grading(1, G.face(pair, 0))
        g2 = B.grading(1, G.face(pair, 2))
        g1 = B.grading(1, G.face(pair, 1))
        args = tuple(g0.slice(0b11, d0)) + tuple(g2.slice(0b11, d2)) + tuple(g2.slice(0b01, d2))
        out = gr.mult_matrix(pair).apply(args)
        want = tuple(g1.slice(0b11, d1)) + tuple(g1.slice(0b01, d1))
        assert out == want


def test_support_monotone_blocks():
    """Every stored zeroth-face block joins an index to one of its extensions."""
    from ruthvb.ordmaps import prime_mask

    _, R = twisted(71)
    B = build_sdp(R, 5)
    for n in range(1, 6):
        for s in B.base.nerve_level(n):
            for (beta, alpha), _e in B.face(n, 0, s).blocks.items():
                bp = prime_mask(beta)
                assert bp & alpha == alpha  # alpha subset of the primed target


def test_lift_morphism_simplicial_functorial_flat():
    R0, R1 = twisted(73)
    G = R0.G
    rng = random.Random(5)
    psi1 = random_gauge(R0.E, rng)
    Ra = twisted_ruth_direct(R0, psi1)
    m1 = psi1.as_morphism(R0, Ra)
    psi2 = random_gauge(R0.E, rng)
    Rb = twisted_ruth_direct(Ra, psi2)
    m2 = psi2.as_morphism(Ra, Rb)

    B0 = build_sdp(R0, 5)
    Ba = build_sdp(Ra, 5)
    Bb = build_sdp(Rb, 5)
    lift1 = lift_morphism(m1, B0, Ba)
    lift2 = lift_morphism(m2, Ba, Bb)
    assert check_simplicial_map(lift1) == []
    assert check_simplicial_map(lift2) == []
    # weak flatness with respect to the canonical cleavages
    assert check_weakly_flat_morphism(lift1, B0.canonical_cleavage(), Ba.canonical_cleavage()) == []
    # functoriality
    comp = compose_morphisms(m2, m1)
    liftc = lift_morphism(comp, B0, Bb)
    for n in range(5):
        for s in G.nerve_level(n):
            assert liftc.at(n, s) == lift2.at(n, s).compose(lift1.at(n, s))
    # identity lifts to the identity
    from ruthvb.ruth import identity_morphism

    ident = lift_morphism(identity_morphism(R0), B0, B0)
    for n in range(5):
        for s in G.nerve_level(n):
            assert ident.at(n, s) == BlockMap.identity(B0.grading(n, s))


def test_strict_lift_is_flat_gauge_lift_fixes_core():
    G = pair_groupoid(2)
    rng = random.Random(15)
    R = random_strict_ruth(G, rng, (1, 1))
    from ruthvb.ruth import identity_morphism

    B = build_sdp(R, 4)
    lift = lift_morphism(identity_morphism(R), B, B)
    C = B.canonical_cleavage()
    # strict morphisms lift to flat maps: cartesian vectors stay cartesian
    for n in range(1, 4):
        for s in G.nerve_level(n):
            img = lift.at(n, s).to_dense() @ C.subspace(n, s).mat.transpose()
            assert (C.equations(n, s).to_dense() @ img).is_zero()
    # a non-strict gauge lift is not flat but fixes the core
    psi = random_gauge(R.E, rng)
    Rt = twisted_ruth_direct(R, psi)
    Bt = build_sdp(Rt, 4)
    lift2 = lift_morphism(psi.as_morphism(R, Rt), B, Bt)
    flat = True
    for n in range(1, 4):
        for s in G.nerve_level(n):
            img = lift2.at(n, s).to_dense() @ C.subspace(n, s).mat.transpose()
            if not (Bt.canonical_cleavage().equations(n, s).to_dense() @ img).is_zero():
                flat = False
    assert not flat
    for x in range(G.n_objects):
        for n in range(3):
            u = G.unit_simplex(x, n)
            full = (1 << (n + 1)) - 1
            blk = lift2.at(n, u).blocks.get((full, full))
            d = Bt.grading(n, u).dim(full)
            if d:
                assert blk == Fr(1) or blk == RatMat.identity(d)


def test_rh2_sensitivity_report():
    _, R = twisted(79)
    rep = rh2_sensitivity(R, rng=random.Random(2))
    assert rep.perturbed is not None
    assert rep.ok
    assert rep.rh2_failed and rep.d0_identity_failed and rep.witness_related and rep.restored_ok


def test_rh2_sensitivity_vacuous_for_order_zero():
    G = pair_groupoid(2)
    R = representation_ruth(G, {0: 1, 1: 1}, {g: RatMat.identity(1) for g in range(G.n_arrows)})
    rep = rh2_sensitivity(R)
    assert rep.perturbed is None and rep.ok and "no perturbable" in rep.note


def test_unit_clause_breaks_with_unit_perturbation():
    G = pair_groupoid(2)
    rng = random.Random(1)
    R = random_strict_ruth(G, rng, (1, 1))
    B = build_sdp(R, 4)
    assert unit_face_clause(B)
    u = next(s for s in G.nerve_level(1) if G.is_degenerate(s))
    bad = R.with_block(1, u, 0, RatMat.from_rows([[2]]))
    Bb = build_sdp(bad, 4, validate=False)
    assert not unit_face_clause(Bb)


def test_twisted_cleavage_dims():
    R0, R = twisted(83)
    B = build_sdp(R, 5)
    rng = random.Random(12)
    psi = random_gauge(R.E, rng)
    C = twisted_cleavage(B, psi)
    for n in range(1, 6):
        for s in B.base.nerve_level(n):
            lam = B.E.dim(B.base.vertex_obj(s, n), n)
            assert C.subspace(n, s).dim == B.fiber_dim(n, s) - lam


def test_order_two_fixture():
    G = cyclic_group(2)
    rng = random.Random(19)
    R0 = random_strict_ruth(G, rng, (1, 1, 1))
    psi = random_gauge(R0.E, rng)
    R = gauge_twist(R0, psi)
    B = build_sdp(R, 7)
    ver = verify_sdp(B)
    assert ver.ok and ver.order == 2
    assert d0_paths_agree(B, levels=range(1, 5))


def _entry_record(e):
    """A stored block with its storage form: int or Fraction scalar, or dense."""
    if type(e) is RatMat:
        return ["dense", [[str(x) for x in row] for row in e.data]]
    return [type(e).__name__, str(e)]


def _structure_digest(X, L, simplices):
    """sha256 over every face and degeneracy block of X up to level L."""
    out = []
    for n in range(L + 1):
        for idx, s in enumerate(simplices(n)):
            maps = [("face", i, X.face(n, i, s)) for i in range(n + 1) if n >= 1]
            maps += [("deg", j, X.deg(n, j, s)) for j in range(n + 1) if n < L]
            for tag, i, f in maps:
                blocks = sorted((repr(k), _entry_record(e)) for k, e in f.blocks.items())
                out.append([tag, n, i, idx, blocks])
    return hashlib.sha256(canonical_dumps(out).encode()).hexdigest()


def _pinned_tower(base, dims, seed):
    rng = random.Random(seed)
    R0 = random_strict_ruth(base, rng, dims)
    R = twisted_ruth_direct(R0, random_gauge(R0.E, rng))
    return R, random_gauge(R.E, rng)


# sha256 of every face and degeneracy block (key, storage form and value):
# dk then dk_classic on random_chain_complex(Random(seed)) for seeds 0..9 and
# on one fixed complex, at L = 5; then build_sdp and the twisted cleavage's
# equations per tower
PINNED_DK_STRUCTURE = [
    "fa27c4e3559b3c71dbc7b40194e11df8f56a2b030ca8610269b0f56d03e4e1f6",
    "fca002fd0e9877ef9b0a6ed199cf7ede95538b30d9d91902df98da2ae89ba5c9",
    "7658d2a9016b620322c198dd0ed9cb0accc9cdb48377e87b3859b0266eaadf52",
    "b82d11fc9245d91f379e8e65afddfdd31c7ac16986fd6454a0ccb752d6bf7159",
    "79197048fe1c23e3da3cb37bc9eb1f3ee653dbca1e5d458b0d570f5d3cc6fa6e",
    "1ac7c7cb14d2f3cf6d94bd14ea6de8239c28f638a3d99a2000ba9bdab6bfe849",
    "c1db029410320092c61cbd3fbb337cd33428e1af11a8696b299d6b4403edf7cf",
    "6fc02887f225e3c00617761240e17198d0ee116ee336df56ae3b8c1cc9ecc211",
    "79197048fe1c23e3da3cb37bc9eb1f3ee653dbca1e5d458b0d570f5d3cc6fa6e",
    "1ac7c7cb14d2f3cf6d94bd14ea6de8239c28f638a3d99a2000ba9bdab6bfe849",
    "2ad10cf3c06ad2c9781cfca5f1639bf52253e16d9a76480802a0f6943d406308",
    "d50d3f59b11f883e4f0b21211f46b48c22c62bb47fa6b56cb83a2082f994a580",
    "742910a5cd137d7272627dd4877655374604ca6c5905c8e68c132f5f2bf024b9",
    "bb9b6fb5be12057f9aa52d4a1d3eca1c52a5c408cf18827e0aad6349b34d2df1",
    "c96ffaa66ccbdc162b106c2a7fdce000bde09bac02f9fd2bd739bff53cf05564",
    "6b22f9888e23137c3cc7760fe92916b541a8d6ea79ea5eeea0e133c9945463a6",
    "c96ffaa66ccbdc162b106c2a7fdce000bde09bac02f9fd2bd739bff53cf05564",
    "6b22f9888e23137c3cc7760fe92916b541a8d6ea79ea5eeea0e133c9945463a6",
    "09d6291ffa5d8ce6ad2668e426c125a608c2d7d7d451e7e3c130b864d3e863e9",
    "662db45d1ca64e36009abee8bf0749ecb4319dbceb6cdb5653a23c87bfd368c4",
    "3be6b55773114f91734f3d7d136a87b474df76e53955de19db355990c2aa21ba",
    "7d50513de28504ab7ae8c33efc631957b947fa67e6f803e1fc8b5748f250c107",
]
PINNED_SDP_STRUCTURE = {
    "Z/2": [
        "01e8ab022a4d8509a047ff299ba8a1c0136d387868fea5337e0e330a3f17df6e",
        "7d4bd0f67f00dd59ef350506cb7fd032791eb3e5f90420da7ad07970c497f8ff",
    ],
    "pair(2)": [
        "4fb57bc24ec94778a30feb59f1bf9b2c94e4410fadb392af61b84a9c97b46964",
        "3d008f7d2e99ff63a5898d4cfd16ef03be94f7c3e7120fe852db2b28dc3eede0",
    ],
    "unit(2)": [
        "aa9dd6cf02bb2ebdee0ff21e47e3f7b0439963255f5a17c5e0bc41c950cd6b78",
        "e881ef6839067586bc4c05945614baeae7b181b106e37bd9825d87250624d9d2",
    ],
}


def test_dk_structure_maps_pinned():
    # the last complex has a 1 x 1 boundary, which is stored dense, not as a scalar
    complexes = [random_chain_complex(random.Random(seed)) for seed in range(10)]
    complexes.append(ChainComplex((1, 1), {1: RatMat.from_rows([[-2]])}))
    digests = [_structure_digest(build(Y, 5), 5, lambda n: (None,))
               for Y in complexes for build in (dk, dk_classic)]
    assert digests == PINNED_DK_STRUCTURE


@pytest.mark.parametrize("name, make_base, dims, seed", [
    ("Z/2", lambda: cyclic_group(2), (1, 1), 91),
    ("pair(2)", lambda: pair_groupoid(2), (1, 1), 92),
    ("unit(2)", lambda: unit_groupoid(2), (1, 1, 1), 93),
])
def test_sdp_structure_maps_pinned(name, make_base, dims, seed):
    """Faces, degeneracies and twisted-cleavage equations keep their stored form."""
    R, psi = _pinned_tower(make_base(), dims, seed)
    L = 2 * R.E.N + 3
    B = build_sdp(R, L)
    C = twisted_cleavage(B, psi)
    eqs = [[n, idx, _entry_record(C.equations(n, s).to_dense())]
           for n in range(1, L + 1) for idx, s in enumerate(R.G.nerve_level(n))]
    digests = [
        _structure_digest(B, L, R.G.nerve_level),
        hashlib.sha256(canonical_dumps(eqs).encode()).hexdigest(),
    ]
    assert digests == PINNED_SDP_STRUCTURE[name]
