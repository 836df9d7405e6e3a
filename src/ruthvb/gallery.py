"""Named demonstration scenarios with their expected outcomes baked in.

Each entry builds a small fixture, runs the relevant checkers, and returns
(ok, human-readable lines, machine-readable results).  The command line
front end exposes these as `ruthvb examples <name>`; `all` sweeps every one.
"""

from __future__ import annotations

import random
from fractions import Fraction as Fr

from .doldkan import ChainComplex, dk, dk_sign_iso, sign_flip
from .exactla import RatMat
from .graded import BlockMap
from .groupoid import cyclic_group, pair_groupoid, unit_groupoid
from .ruth import (
    GaugeData,
    chain_complex_ruth,
    gauge_twist,
    grothendieck,
    representation_ruth,
    strict_ruth,
    uniform_bundle,
)
from .sdp import (
    build_sdp,
    example_not_full,
    rh2_sensitivity,
    translation_svb,
    unit_face_clause,
)
from .svb import (
    BundleMap,
    check_cleavage,
    check_simplicial_map,
    check_weakly_flat_morphism,
    coboundary_matches_rep,
    linear_cochain_cohomology,
)


def _result(name, checks):
    ok = all(v for _, v in checks)
    lines = [f"[{'PASS' if v else 'FAIL'}] {name}: {label}" for label, v in checks]
    return ok, lines, {"name": name, "checks": [{"name": l, "pass": bool(v)} for l, v in checks]}


def scenario_not_full():
    """Two cleavages on one order-two bundle; the identity fails weak flatness."""
    V, C, Cp = example_not_full()
    repC = check_cleavage(V, C)
    repCp = check_cleavage(V, Cp)
    ident = BundleMap(V, V, lambda n, s: BlockMap.identity(V.grading(n, s)))
    bad = check_weakly_flat_morphism(ident, Cp, C)
    witness_ok = any(
        f[0] == 2 and f[2][:2] == (Fr(0), Fr(1)) and f[3][2] == 1 for f in bad
    )
    return _result(
        "not-full",
        [
            ("canonical cleavage normal and flat", repC.normal and repC.flat and repC.bijective),
            ("modified cleavage normal and weakly flat", repCp.normal and repCp.weakly_flat),
            ("modified cleavage three-flat over the zero section", repCp.weakly_flat_by_level.get(3, False)),
            ("identity map fails weak flatness", bool(bad)),
            ("witness (0,1) with top component 1", witness_ok),
        ],
    )


def _demo_twisted_ruth(seed=3):
    G = pair_groupoid(2)
    E = uniform_bundle(G, (1, 1))
    diff = {x: {1: RatMat.from_rows([[1]])} for x in range(G.n_objects)}
    arrows = {g: {0: RatMat.identity(1), 1: RatMat.identity(1)} for g in range(G.n_arrows)}
    R = strict_ruth(E, diff, arrows)
    rng = random.Random(seed)
    higher = {}
    for s in G.nerve_level(1):
        if not G.is_degenerate(s):
            higher[(1, s)] = {0: RatMat.from_rows([[Fr(rng.randint(-2, 2), rng.randint(1, 2))]])}
    return gauge_twist(R, GaugeData(E, higher))


def scenario_rh2_converse():
    """A perturbed operator block breaks the coherence and the double face together."""
    R = _demo_twisted_ruth()
    rep = rh2_sensitivity(R, rng=random.Random(11))
    B = build_sdp(R)
    return _result(
        "rh2-converse",
        [
            ("perturbation breaks the coherence", rep.rh2_failed),
            ("perturbation breaks the double zeroth face", rep.d0_identity_failed),
            ("witness fibers are related", rep.witness_related),
            ("restoring the block restores both", rep.restored_ok),
            ("unperturbed unit clause holds", unit_face_clause(B)),
        ],
    )


def scenario_cohomology_sign_rep():
    """Invariants of the sign action vanish in degree zero."""
    G = cyclic_group(2)
    R = representation_ruth(G, {0: 1}, {0: RatMat.identity(1), 1: RatMat.from_rows([[-1]])})
    V = build_sdp(R, 4)
    dims = linear_cochain_cohomology(V, 2)
    triv = representation_ruth(unit_groupoid(1), {0: 1}, {0: RatMat.identity(1)})
    Vt = build_sdp(triv, 4)
    dims_t = linear_cochain_cohomology(Vt, 2)
    return _result(
        "cohomology-sign-rep",
        [
            ("sign representation has trivial degree-zero cohomology", dims[0] == 0),
            ("trivial rank-one representation has Betti numbers 1,0,0", dims_t == [1, 0, 0]),
            ("degree-zero coboundary matches the representation formula", coboundary_matches_rep(V, R)),
        ],
    )


def scenario_dk_sign():
    """Unit-groupoid semi-direct products agree with the sign-flipped inverse."""
    Y = ChainComplex((1, 1, 1), {1: RatMat.from_rows([[0]]), 2: RatMat.from_rows([[3]])})
    G = unit_groupoid(2)
    R = chain_complex_ruth(G, Y)
    B = build_sdp(R, 4)
    X = dk(sign_flip(Y), 4)
    same = True
    for n in range(1, 5):
        for s in G.nerve_level(n):
            for i in range(n + 1):
                if B.face(n, i, s) != X.face(n, i):
                    same = False
    iso = dk_sign_iso(Y, 4)
    Xs = dk(Y, 4)
    intertwines = all(
        iso[n - 1].compose(X.face(n, i)) == Xs.face(n, i).compose(iso[n])
        for n in range(1, 5)
        for i in range(n + 1)
    )
    return _result(
        "dk-sign",
        [
            ("fibers over units follow the flipped-boundary inverse", same),
            ("the binomial sign conjugates the two conventions", intertwines),
        ],
    )


def scenario_translation():
    """Order-zero semi-direct products are translation-groupoid nerves."""
    G = pair_groupoid(2)
    R = representation_ruth(
        G, {0: 1, 1: 1},
        {g: RatMat.from_rows([[Fr(1) if G.arrow_src[g] == G.arrow_tgt[g] else Fr(2) if G.arrow_src[g] == 0 else Fr(1, 2)]])
         for g in range(G.n_arrows)},
    )
    B = build_sdp(R, 3)
    T = translation_svb(R, 3)
    # the identity intertwines the two bundles exactly when their maps agree
    ident = BundleMap(B, T, lambda n, s: BlockMap.identity(B.grading(n, s)))
    return _result(
        "translation",
        [("faces and degeneracies match the translation nerve", not check_simplicial_map(ident)),
         ("degree-zero coboundary matches the representation formula", coboundary_matches_rep(B, R))],
    )


def scenario_grothendieck():
    """Order-one double faces reproduce the fibered-product multiplication."""
    R = _demo_twisted_ruth(seed=5)
    G = R.G
    B = build_sdp(R, 5)
    Gr = grothendieck(R)
    ok = True
    for pair in G.nerve_level(2):
        src = B.grading(2, pair)
        d0 = B.face(2, 0, pair).to_dense()
        d1 = B.face(2, 1, pair).to_dense()
        d2 = B.face(2, 2, pair).to_dense()
        mult = Gr.mult_matrix(pair)
        # feed (c2-part of d0, c1-part of d2, e-part of d2) into the multiplication
        g1 = B.grading(1, G.face(pair, 0))
        g2d = B.grading(1, G.face(pair, 2))
        rows = []
        c_off, e_off = g1.offset(3), g1.offset(1)
        rows.extend(d0.data[c_off: c_off + g1.dim(3)])
        rows.extend(d2.data[g2d.offset(3): g2d.offset(3) + g2d.dim(3)])
        rows.extend(d2.data[g2d.offset(1): g2d.offset(1) + g2d.dim(1)])
        stacked = RatMat.from_rows(rows, src.total) if rows else RatMat.zeros(0, src.total)
        composite = mult @ stacked
        g1mid = B.grading(1, G.face(pair, 1))
        want = []
        want.extend(d1.data[g1mid.offset(3): g1mid.offset(3) + g1mid.dim(3)])
        want.extend(d1.data[g1mid.offset(1): g1mid.offset(1) + g1mid.dim(1)])
        if composite != RatMat.from_rows(want, src.total):
            ok = False
    return _result(
        "grothendieck",
        [("middle face equals the composite of the outer faces", ok)],
    )


def scenario_split_roundtrip():
    """Twist a cleavage, split along it, and recover the tower exactly."""
    from .ruth import check_morphism, twisted_ruth_direct
    from .sdp import twisted_cleavage
    from .split import SplitContext, extract_ruth, roundtrip_bundle

    G = pair_groupoid(2)
    E = uniform_bundle(G, (1, 1))
    diff = {x: {1: RatMat.from_rows([[2]])} for x in range(G.n_objects)}
    arrows = {g: {0: RatMat.identity(1), 1: RatMat.identity(1)} for g in range(G.n_arrows)}
    R = strict_ruth(E, diff, arrows)
    rng = random.Random(9)
    higher = {}
    for s in G.nerve_level(1):
        if not G.is_degenerate(s):
            higher[(1, s)] = {0: RatMat.from_rows([[Fr(rng.randint(-2, 2))]])}
    psi = GaugeData(E, higher)
    B = build_sdp(R, 5)
    ctx = SplitContext(B, B.canonical_cleavage())
    R_back = extract_ruth(ctx)
    ctx2 = SplitContext(B, twisted_cleavage(B, psi))
    R_tw, rep = roundtrip_bundle(ctx2)
    morph_ok = check_morphism(psi.as_morphism(R, R_tw)).ok
    return _result(
        "split-roundtrip",
        [
            ("canonical split returns the tower verbatim", R_back == R),
            ("twisted split reconstructs an exact isomorphism", rep.ok),
            ("extracted towers are gauge equivalent via the twist", morph_ok),
            ("twisted tower matches the direct recursion", R_tw == twisted_ruth_direct(R, psi)),
        ],
    )


SCENARIOS = {
    "not-full": scenario_not_full,
    "rh2-converse": scenario_rh2_converse,
    "cohomology-sign-rep": scenario_cohomology_sign_rep,
    "dk-sign": scenario_dk_sign,
    "translation": scenario_translation,
    "grothendieck": scenario_grothendieck,
    "split-roundtrip": scenario_split_roundtrip,
}


def run_scenarios(names):
    ok_all = True
    lines = []
    results = []
    for name in names:
        ok, ls, res = SCENARIOS[name]()
        ok_all = ok_all and ok
        lines.extend(ls)
        results.append(res)
    return ok_all, lines, results
