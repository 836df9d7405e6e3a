import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction as Fr
from itertools import accumulate

import pytest

from conftest import _staircase_boundary, horn_map_dense, random_gauge, random_strict_ruth
from ruthvb.documents import canonical_dumps, svb_from_doc, svb_to_doc
from ruthvb.doldkan import ChainComplex, dk
from ruthvb.exactla import RatMat, Subspace, kernel, sparse_rank
from ruthvb.graded import BlockMap
from ruthvb.groupoid import builtin_groupoids, cyclic_group, pair_groupoid, unit_groupoid
from ruthvb.ruth import (
    GradedBundle,
    gauge_twist,
    representation_ruth,
    strict_ruth,
    twisted_ruth_direct,
)
from ruthvb.sdp import build_sdp, example_not_full, translation_svb, twisted_cleavage, verify_sdp
from ruthvb.simplicial import (
    face_kernel,
    horn_bounds,
    horn_dim,
    horn_system,
    verify_simplicial_identities,
)
from ruthvb.svb import (
    BundleMap,
    SimpVB,
    _face_closures,
    check_cleavage,
    check_fibration,
    check_simplicial_map,
    check_weakly_flat_morphism,
    coboundary_matches_rep,
    coboundary_rows,
    core,
    explicit_cleavage,
    linear_cochain_cohomology,
    pullback_svb,
    rank_identities,
    relative_horn_kernel,
)


def small_rep():
    G = pair_groupoid(2)
    mats = {g: RatMat.from_rows([[Fr(3) if G.arrow_src[g] != G.arrow_tgt[g] else Fr(1)]])
            for g in range(G.n_arrows)}
    mats = {}
    for g in range(G.n_arrows):
        a, b = G.arrow_src[g], G.arrow_tgt[g]
        mats[g] = RatMat.from_rows([[Fr(3) ** (b - a)]])
    return representation_ruth(G, {0: 1, 1: 1}, mats)


def twisted_order_one(seed=17):
    G = pair_groupoid(2)
    rng = random.Random(seed)
    R0 = random_strict_ruth(G, rng, (1, 1))
    return gauge_twist(R0, random_gauge(R0.E, rng))


def test_order_zero_bundle_is_order_zero():
    B = build_sdp(small_rep(), 3)
    rep = check_fibration(B)
    assert rep.is_fibration and rep.order == 0


def test_order_matches_top_degree():
    R = twisted_order_one()
    B = build_sdp(R, 4)
    rep = check_fibration(B)
    assert rep.is_fibration and rep.order == 1


def test_broken_face_detected():
    R = twisted_order_one()
    B = build_sdp(R, 4)

    def face(n, i, s):
        m = B.face(n, i, s)
        if n == 2 and i == 1 and B.base.simplex_index(s) == 0:
            return BlockMap(m.src, m.dst, {})  # drop the whole face map
        return m

    from ruthvb.svb import SimpVB

    broken = SimpVB(B.base, B.L, lambda n, s: B.grading(n, s), face, lambda n, j, s: B.deg(n, j, s))
    rep = check_fibration(broken)
    assert not rep.is_fibration and rep.failures


def test_core_recovers_bundle():
    R = twisted_order_one()
    B = build_sdp(R, 4)
    assert core(B) == R.E
    zero = representation_ruth(unit_groupoid(1), {0: 0}, {0: RatMat.zeros(0, 0)})
    Bz = build_sdp(zero, 3)
    assert all(d == 0 for d in core(Bz)._dims.values())


def test_core_over_unit_base_is_normalization():
    Y = ChainComplex((1, 2, 1), {1: RatMat.from_rows([[1, 0]]), 2: RatMat.from_rows([[0], [1]])})
    from ruthvb.ruth import chain_complex_ruth

    G = unit_groupoid(1)
    B = build_sdp(chain_complex_ruth(G, Y), 5)
    cr = core(B)
    from ruthvb.doldkan import normalize

    norm = normalize(dk(Y, 5))
    assert tuple(cr.dim(0, k) for k in range(3)) == norm.dims[:3]


def test_fibration_equivalence_both_sides():
    """Relative-horn surjectivity against the Kan-plus-level-one reading."""
    R = twisted_order_one(23)
    B = build_sdp(R, 4)
    rep = check_fibration(B)
    # level-one fiberwise surjectivity of both end faces
    lvl1 = all(
        B.face(1, i, s).to_dense().rank() == B.fiber_dim(0, B.base.face(s, i))
        for s in B.base.nerve_level(1)
        for i in (0, 1)
    )
    from ruthvb.simplicial import horn_dim

    kan = all(
        horn_map_dense(B, n, k, s).rank() == horn_dim(B, n, k, s)
        for n in range(2, B.L + 1)
        for s in B.base.nerve_level(n)
        for k in range(n + 1)
    )
    assert rep.is_fibration == (lvl1 and kan)


def test_rank_identities_on_fixture():
    R = twisted_order_one(29)
    B = build_sdp(R, 4)
    rep = rank_identities(B)
    assert rep.ok
    # order-zero bundles have vanishing kernel ranks above level zero
    B0 = build_sdp(small_rep(), 3)
    rep0 = rank_identities(B0)
    assert rep0.ok


def test_canonical_cleavage_properties():
    R = twisted_order_one(31)
    B = build_sdp(R, 4)
    crep = check_cleavage(B, B.canonical_cleavage())
    assert crep.bijective and crep.normal and crep.weakly_flat
    assert crep.interior_closure_ok
    # with a genuinely twisted tower the canonical cleavage is not flat
    assert not crep.flat


def test_degenerate_span_cleavage_over_units():
    from ruthvb.ruth import chain_complex_ruth

    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[2]])})
    B = build_sdp(chain_complex_ruth(unit_groupoid(2), Y), 4)
    crep = check_cleavage(B, B.canonical_cleavage())
    assert crep.bijective and crep.normal and crep.flat


def test_example_not_full_package():
    V, C, Cp = example_not_full()
    assert check_cleavage(V, C).flat
    rep = check_cleavage(V, Cp)
    assert rep.normal and rep.weakly_flat and rep.bijective
    ident = BundleMap(V, V, lambda n, s: BlockMap.identity(V.grading(n, s)))
    assert check_simplicial_map(ident) == []
    bad = check_weakly_flat_morphism(ident, Cp, C)
    assert bad and bad[0][0] == 2
    witnesses = {(f[2], tuple(f[3])) for f in bad}
    assert ((Fr(0), Fr(1), Fr(1)), (Fr(0), Fr(1), Fr(1))) in witnesses
    # level-three labels of the bundle satisfy the two-out-of-four relation
    for s in V.base.nerve_level(3):
        g = V.grading(3, s)
        for c in range(g.total):
            vec = tuple(Fr(1) if r == c else Fr(0) for r in range(g.total))
            l321 = V.face(3, 0, s).apply(vec)[V.grading(2, V.base.face(s, 0)).offset(7)]
            l210 = vec[g.offset(0b0111)]
            l310 = vec[g.offset(0b1011)]
            l320 = vec[g.offset(0b1101)]
            assert l310 + l321 == l320 + l210


def test_simplicial_map_reports_first_broken_face():
    """The identity doubled over one nondegenerate edge of a twisted bundle
    first breaks φ d_0 = d_0 φ at that edge."""
    B = build_sdp(twisted_order_one(), 3)
    G = B.base
    edge = next(s for s in G.nerve_level(1) if not G.is_degenerate(s))

    def phi(n, s):
        ident = BlockMap.identity(B.grading(n, s))
        return ident.scale(2) if (n, s) == (1, edge) else ident

    assert check_simplicial_map(BundleMap(B, B, lambda n, s: BlockMap.identity(B.grading(n, s)))) == []
    assert check_simplicial_map(BundleMap(B, B, phi))[0] == ("face", 1, 0, G.simplex_index(edge))


def test_one_bundles_morphisms_always_weakly_flat():
    """Between order-one bundles every simplicial map is weakly flat."""
    R = twisted_order_one(41)
    Rp = twisted_order_one(43)
    B, Bp = build_sdp(R, 4), build_sdp(Rp, 4)
    rng = random.Random(3)
    # random level-zero map extended freely is not simplicial in general, so
    # instead twist the canonical cleavage and use the identity bundle map

    psi = random_gauge(R.E, rng)
    Cpsi = twisted_cleavage(B, psi)
    ident = BundleMap(B, B, lambda n, s: BlockMap.identity(B.grading(n, s)))
    assert check_weakly_flat_morphism(ident, B.canonical_cleavage(), Cpsi) == []
    assert check_weakly_flat_morphism(ident, Cpsi, B.canonical_cleavage()) == []


def test_weak_versus_full_flatness_separated_by_twist():
    R = twisted_order_one(47)
    B = build_sdp(R, 4)
    rng = random.Random(8)
    psi = random_gauge(R.E, rng)
    C = twisted_cleavage(B, psi)
    rep = check_cleavage(B, C, check_interior=False)
    assert rep.normal and rep.weakly_flat
    assert not rep.flat  # weak and full flatness differ on this fixture


def test_truncation_extension_stability():
    R = twisted_order_one(53)
    B4 = build_sdp(R, 4)
    B5 = build_sdp(R, 5)
    rep4 = check_fibration(B4)
    rep5 = check_fibration(B5)
    assert rep4.lambda_by_level == {n: rep5.lambda_by_level[n] for n in rep4.lambda_by_level}
    c4 = check_cleavage(B4, B4.canonical_cleavage(), check_interior=False)
    c5 = check_cleavage(B5, B5.canonical_cleavage(), check_interior=False)
    assert c4.weakly_flat_by_level == {n: c5.weakly_flat_by_level[n] for n in c4.weakly_flat_by_level}


def test_cohomology_fixtures():
    triv = representation_ruth(unit_groupoid(1), {0: 1}, {0: RatMat.identity(1)})
    B = build_sdp(triv, 4)
    assert linear_cochain_cohomology(B, 2) == [1, 0, 0]
    G = cyclic_group(2)
    sign = representation_ruth(G, {0: 1}, {0: RatMat.identity(1), 1: RatMat.from_rows([[-1]])})
    Bs = build_sdp(sign, 4)
    assert linear_cochain_cohomology(Bs, 2)[0] == 0
    assert coboundary_matches_rep(Bs, sign)
    assert coboundary_matches_rep(build_sdp(small_rep(), 3), small_rep())


def _dense_coboundary(V, p):
    """delta: C^p -> C^{p+1} as a dense matrix, assembled entry by entry from
    the dense faces: the reference for the sparse rows of its transpose."""

    def offsets(q):
        level = V.base.nerve_level(q)
        starts = list(accumulate((V.fiber_dim(q, s) for s in level), initial=0))
        return dict(zip(level, starts)), starts[-1]

    src_off, src_dim = offsets(p)
    dst_off, dst_dim = offsets(p + 1)
    out = RatMat.zeros(dst_dim, src_dim)
    for t in V.base.nerve_level(p + 1):
        for i in range(p + 2):
            s = V.base.face(t, i)
            mat = V.face(p + 1, i, t).to_dense()  # fiber(t) -> fiber(s)
            sign = -1 if i % 2 else 1
            for r in range(mat.rows):
                for c in range(mat.cols):
                    if mat.data[r][c]:
                        out.data[dst_off[t] + c][src_off[s] + r] += sign * mat.data[r][c]
    return out


def _rows_times(rows, other):
    """The sparse rows of rows @ other, both given as sparse rows."""
    out = []
    for row in rows:
        acc = {}
        for c, v in row.items():
            for c2, w in other[c].items():
                acc[c2] = acc.get(c2, 0) + v * w
        out.append({c: v for c, v in acc.items() if v})
    return out


# Degrees checked: 0..min(L-1, 3), and 0..2 on pair(3), whose degree-3 dense
# reference alone takes about 3 s on its ten order-one fixtures.
COHOMOLOGY_CAP = {"pair(3)": 2}


def test_cohomology_matches_dense_reference(fixture_bundles):
    """On the fixtures of every base and a non-uniform unit(2) tower, the
    coboundaries compose to zero, the sparse Betti numbers equal those of the
    dense reference coboundary, and none is negative."""
    cases = [(fx["base"], B) for fx, B in fixture_bundles]
    cases.append(("unit(2)", build_sdp(_nonuniform_tower(8), 5, validate=False)))
    for base, B in cases:
        top = min(B.L - 1, COHOMOLOGY_CAP.get(base, 3))
        rows = [coboundary_rows(B, p) for p in range(top + 1)]
        for p in range(top):
            assert not any(_rows_times(rows[p], rows[p + 1])), (base, p)
        betti = linear_cochain_cohomology(B, top)
        deltas = [_dense_coboundary(B, p) for p in range(top + 1)]
        ranks = [0] + [d.rank() for d in deltas]
        assert betti == [d.cols - ranks[p + 1] - ranks[p] for p, d in enumerate(deltas)], base
        assert min(betti) >= 0, (base, betti)


def test_pullback_and_translation_kinds():
    Y = ChainComplex((0, 1, 1), {2: RatMat.from_rows([[1]])})
    V = pullback_svb(dk(Y, 3), pair_groupoid(2))
    assert verify_simplicial_identities(V, levels=range(3)).ok
    R = small_rep()
    T = translation_svb(R, 3)
    assert verify_simplicial_identities(T).ok


def _report_sha256(rep) -> str:
    return hashlib.sha256(canonical_dumps(dataclasses.asdict(rep)).encode()).hexdigest()


def _perturbed_cleavage(B, C, rng, top):
    """C with two fibers of level 1..top moved: one basis row gains a small
    multiple of a relative-horn-kernel vector, or of a random vector."""
    table = {}
    for _ in range(2):
        n = rng.randint(1, top)
        s = rng.choice(B.base.nerve_level(n))
        d = B.fiber_dim(n, s)
        rows = [list(r) for r in (table.get((n, s)) or C.subspace(n, s)).mat.data]
        vecs = relative_horn_kernel(B, n, rng.randrange(n + 1), s).mat.data
        v = rng.choice(vecs) if vecs and rng.random() < 0.5 else [Fr(rng.randint(-1, 1)) for _ in range(d)]
        r = rng.randrange(len(rows))
        rows[r] = [a + Fr(rng.choice([-2, -1, 1, 2]), 2) * b for a, b in zip(rows[r], v)]
        table[(n, s)] = Subspace.from_rows(d, rows)
    return explicit_cleavage(B, table, fallback=C)


def _pinned_cleavages(base, dims, seed):
    """Canonical, twisted and four perturbed cleavages of a twisted tower."""
    rng = random.Random(seed)
    R0 = random_strict_ruth(base, rng, dims)
    R = twisted_ruth_direct(R0, random_gauge(R0.E, rng))
    B = build_sdp(R, 2 * len(dims) + 1, validate=False)
    C = B.canonical_cleavage()
    Ct = twisted_cleavage(B, random_gauge(R.E, rng))
    perturbed = [_perturbed_cleavage(B, X, rng, top) for X in (C, Ct) for top in (len(dims), 3)]
    return B, [C, Ct] + perturbed


# sha256 of each canonical-JSON report, in the order of _pinned_cleavages
# (canonical, twisted, four perturbed); a change in how the checks are computed
# must leave every verdict and failure locus as it is
PINNED_CLEAVAGE_REPORTS = {
    "Z/2": [
        "a0307dc98687ac46861d4b384621d9801892a548e7c33cb42db1a3845e1a4cdf",
        "a0307dc98687ac46861d4b384621d9801892a548e7c33cb42db1a3845e1a4cdf",
        "3ba81f3d0151e1c25e3bca251c640bf497155b47e83951fd4e92fcd026936923",
        "a3fbed3442905fc11443bf432918b009edf725448b24505b087b5141b5ea746d",
        "d4e9267212c2aa7458db19a8279ca89d80230777dff52570bc6adcd2e80109b8",
        "a0307dc98687ac46861d4b384621d9801892a548e7c33cb42db1a3845e1a4cdf",
    ],
    "pair(2)": [
        "95ef06b6b74518d1b687b2c113b98637a4ccdac8298353932ff2b8e57460caf3",
        "95ef06b6b74518d1b687b2c113b98637a4ccdac8298353932ff2b8e57460caf3",
        "95ef06b6b74518d1b687b2c113b98637a4ccdac8298353932ff2b8e57460caf3",
        "95ef06b6b74518d1b687b2c113b98637a4ccdac8298353932ff2b8e57460caf3",
        "667219ceb745fdc3f8e5fb5415e1f97666311c8668967f5b0cb1a8f2bbe86d91",
        "95ef06b6b74518d1b687b2c113b98637a4ccdac8298353932ff2b8e57460caf3",
    ],
    "unit(2)": [
        "49111e8e2f823a66601f5aac650ae9fc0376ede38449a8944b44c6389c960698",
        "49111e8e2f823a66601f5aac650ae9fc0376ede38449a8944b44c6389c960698",
        "db8f72391e3278ad24f0ee97ef63e6eaf881dc3b8dbb8307665af1902cfa2aa7",
        "3ea8389249271f6dc43f54f6982d239ed7d2d52b14679003063da202454ce513",
        "96f2462df8cac2cb826e433bb9c3299fd2f23c3bc591b645928d06c52311fb6f",
        "3911c7d991fd44d4a87415692717c4de53c32dd2cc8d7d3632ead992ed96c00f",
    ],
    "not-full": [
        "77badee598efe8376c9d20d18e3ed425974b5322c9474ca525ffba00d2ac8742",
        "77badee598efe8376c9d20d18e3ed425974b5322c9474ca525ffba00d2ac8742",
    ],
}


@pytest.mark.parametrize("name, make_base, dims, seed", [
    ("Z/2", lambda: cyclic_group(2), (1, 1), 31),
    ("pair(2)", lambda: pair_groupoid(2), (1, 1), 32),
    ("unit(2)", lambda: unit_groupoid(2), (1, 1, 1), 33),
    ("not-full", None, None, None),
])
def test_cleavage_reports_pinned(name, make_base, dims, seed):
    """Full check_cleavage reports, interior closure included, stay byte-identical."""
    if make_base is None:
        V, C, Cp = example_not_full()
        cleavages = [C, Cp]
    else:
        V, cleavages = _pinned_cleavages(make_base(), dims, seed)
    digests = [_report_sha256(check_cleavage(V, C, check_interior=True)) for C in cleavages]
    assert digests == PINNED_CLEAVAGE_REPORTS[name]


def test_interior_closure_failure_pinned():
    """Zero cleavage fibers over two degenerate 2-simplices of an order-zero
    bundle keep it flat but break interior closure on level 3."""
    G = pair_groupoid(2)
    B = build_sdp(random_strict_ruth(G, random.Random(1), (1,)), 3)
    level = G.nerve_level(2)
    zeroed = {(2, level[i]): Subspace.zero(B.fiber_dim(2, level[i])) for i in (0, 4)}
    rep = check_cleavage(B, explicit_cleavage(B, zeroed, fallback=B.canonical_cleavage()))
    assert rep.weakly_flat and rep.flat and not rep.interior_closure_ok
    assert [f for f in rep.failures if f[0] == "interior closure"] == [
        ("interior closure", 3, 2, 2), ("interior closure", 3, 2, 10)]
    assert _report_sha256(rep) == "079f1dc9f0501e16b7e59b977130506a5c98e582e03cbf4721dd2fce54f9c0aa"


def _witness_closure(V, C, n, s, zero_section, i):
    """(witness dim, closed) by the witness formula: a kernel basis W of every
    constraint but face i's, then d_i @ W^T tested against C's equations."""
    eqs = [C.equations(n, s).to_dense()]
    if zero_section:
        eqs.append(V.restrict_map(n, s, (0,))[0].to_dense())
    for k in range(1, n):
        mat, base_s = V.prefix_map(n, s, k)
        eqs.append(C.equations(k, base_s).to_dense() @ mat.to_dense())
    for j in range(n + 1):
        if j != i:
            eqs.append(C.equations(n - 1, V.base.face(s, j)).to_dense() @ V.face(n, j, s).to_dense())
    W = kernel(RatMat.vstack(eqs))
    img = V.face(n, i, s).to_dense() @ W.mat.transpose()
    return W.dim, not W.dim or (C.equations(n - 1, V.base.face(s, i)).to_dense() @ img).is_zero()


def test_face_closures_match_witness_formula():
    """The rank closure of every fiber, face and zero-section variant gives the
    witness formula's dimension and verdict."""
    cases = [_pinned_cleavages(cyclic_group(2), (1, 1), 31),
             _pinned_cleavages(pair_groupoid(2), (1, 1), 32),
             _pinned_cleavages(unit_groupoid(2), (1, 1, 1), 33)]
    V, C, Cp = example_not_full()
    cases.append((V, [C, Cp]))
    verdicts = set()
    for V, cleavages in cases:
        for C in cleavages:
            for n in range(2, V.L + 1):
                for s in V.base.nerve_level(n):
                    closed = _face_closures(V, C, n, s, range(n + 1), (True, False))
                    for zero_section in (True, False):
                        for i in range(n + 1):
                            got = closed[zero_section, i]
                            assert got == _witness_closure(V, C, n, s, zero_section, i)
                            verdicts.add(got[1])
    assert verdicts == {True, False}


def _twisted_tower(base, dims, seed):
    rng = random.Random(seed)
    R0 = random_strict_ruth(base, rng, dims)
    return twisted_ruth_direct(R0, random_gauge(R0.E, rng))


def test_restrict_map_equals_identity_then_faces():
    V = build_sdp(_twisted_tower(cyclic_group(2), (1, 1), 41), 3)
    for n in range(4):
        for s in V.base.nerve_level(n):
            for bits in range(1, 1 << (n + 1)):
                verts = tuple(v for v in range(n + 1) if bits >> v & 1)
                ref, base, m = BlockMap.identity(V.grading(n, s)), s, n
                for v in reversed(range(n + 1)):
                    if v not in verts:
                        ref = V.face(m, v, base).compose(ref)
                        base, m = V.base.face(base, v), m - 1
                got, got_base = V.restrict_map(n, s, verts)
                assert got == ref and got.blocks == ref.blocks
                assert got_base == base == V.base.restrict_vertices(s, verts)


def _faces_bottom_up(V, n, s, verts):
    """The restriction to verts as faces deleting the missing vertices bottom up,
    each index shifted down by the deletions below it."""
    ref, base, deleted = BlockMap.identity(V.grading(n, s)), s, 0
    for v in range(n + 1):
        if v not in verts:
            ref = V.face(n - deleted, v - deleted, base).compose(ref)
            base = V.base.face(base, v - deleted)
            deleted += 1
    return ref, base


@pytest.mark.parametrize("over", ["pair(2)", "POINT"])
def test_restrict_map_equals_faces_deleted_bottom_up(over):
    """restrict_map is the composite of faces for every vertex subset, on a
    twisted pair(2) bundle and on dk over POINT, and lands over the groupoid's
    own restriction."""
    if over == "POINT":
        V = dk(ChainComplex((1, 2, 1), {1: RatMat.from_rows([[1, 0]]),
                                        2: RatMat.from_rows([[0], [1]])}), 4)
    else:
        V = build_sdp(_twisted_tower(pair_groupoid(2), (1, 1), 43), 3)
    for n in range(V.L + 1):
        for s in V.base.nerve_level(n):
            for k in range(1, n + 2):
                for verts in itertools.combinations(range(n + 1), k):
                    got, got_base = V.restrict_map(n, s, verts)
                    ref, base = _faces_bottom_up(V, n, s, verts)
                    assert got == ref, (n, s, verts)
                    if over == "POINT":
                        assert got_base is base is None
                    else:
                        assert got_base is base is V.base.restrict_vertices(s, verts)


def _perturbed_r2(R):
    """R with one entry of its first nonzero R_2 block over a nondegenerate simplex moved."""
    s = next(s for s in R.G.nerve_level(2) if not R.G.is_degenerate(s) and R.block(2, s, 0).rows)
    mat = R.block(2, s, 0).copy()
    mat.data[0][0] += Fr(7, 2)
    return R.with_block(2, s, 0, mat)


def _horn_law_bundle(name):
    if name == "Z/2":
        R = _twisted_tower(cyclic_group(2), (1, 1), 41)
    elif name == "unit(2)":
        R = _twisted_tower(unit_groupoid(2), (1, 1, 1), 43)
    else:
        R = _twisted_tower(pair_groupoid(2), (1, 1), 42)
        if name == "pair(2)-perturbed-R2":
            R = _perturbed_r2(R)
    return build_sdp(R, 2 * R.E.N + 3, validate=False)


# sha256 of the canonical-JSON check_fibration, rank_identities, core and
# verify_sdp reports, in that order; the perturbed bundle fails the identities,
# the fibration and the horn formula, so those failure lists are pinned too
PINNED_HORN_LAW_REPORTS = {
    "Z/2": [
        "29387decc1c87be66e4890f9de6375273dc74bfb47ed50ec192a12db389148b0",
        "7285778eaccc8e219e4f2cee9159fbd364d42a4f42a2cc4ac19a97972232cce8",
        "659da9269a6c5c8b5c4e660939ed5ee642b69f9ab281d87f6caa349ff4a9d36a",
        "0bac7277749796cbb850c573bbce63f8d9a967eaf625ca27df2240240405bc43",
    ],
    "pair(2)": [
        "29387decc1c87be66e4890f9de6375273dc74bfb47ed50ec192a12db389148b0",
        "83e7573f08f080f3170ac27b66ed79e0bb822919c6c07f324b67c88f14e59b0c",
        "d5d2386f8aa3af07ed5f5ec1110948b473e3f4bc8785ca44149916ccc458c700",
        "e7f9668c6a239b5a10e653af8a1332b707dc9ed89b3a6f18c045c0076c76e8af",
    ],
    "unit(2)": [
        "87629fbe2aee6a47ef711051ca80b27552da68a2bb4ff7d01d766a92ca1da2ec",
        "a2460692faddb97308e0236be209ea27128108c1028d3c67c30febf68a4da985",
        "0b1897a0aaebcd9f55cb2283082a520eb1fd8f056e7600cc3c0d71863da637e1",
        "19f144a51a01ea7551233436e4241bf66b7fa04df8ba5596e377d2b7377d7260",
    ],
    "pair(2)-perturbed-R2": [
        "500509f19af4886191e5227b56715a3a978e72ac456f6ad607bfff031c43dc65",
        "8c19cbce4674ff070ca289b73c261e3dba67ddb15b1248ff77334f473eeea3e8",
        "d5d2386f8aa3af07ed5f5ec1110948b473e3f4bc8785ca44149916ccc458c700",
        "14509153a0349902e9f5c599805a06be3a0a0011e1f44ccca16e328957f497d1",
    ],
}


@pytest.mark.parametrize("name", ["Z/2", "pair(2)", "unit(2)", "pair(2)-perturbed-R2"])
def test_horn_law_reports_pinned(name):
    """Fibration, rank-law, core and verify_sdp reports stay byte-identical."""
    B = _horn_law_bundle(name)
    E = core(B)
    reports = [
        dataclasses.asdict(check_fibration(B)),
        dataclasses.asdict(rank_identities(B)),
        {"N": E.N, "dims": [[E.dim(x, k) for k in E.degrees()] for x in range(B.base.n_objects)]},
        dataclasses.asdict(verify_sdp(B)),
    ]
    digests = [hashlib.sha256(canonical_dumps(r).encode()).hexdigest() for r in reports]
    assert digests == PINNED_HORN_LAW_REPORTS[name]


def test_horn_facts_computed_once(monkeypatch):
    """After verify_sdp, the rank law, the cleavage check and the split read
    every relative-horn kernel and horn dimension off the bundle, and each
    stored kernel is the null space of its own stacked faces."""
    import ruthvb.simplicial as simplicial
    from ruthvb.split import SplitContext

    calls = {"horn_system": 0, "sparse_kernel_basis": 0}
    for name in calls:
        def counted(*args, _fn=getattr(simplicial, name), _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(simplicial, name, counted)
    B = build_sdp(_twisted_tower(pair_groupoid(2), (1, 1), 42), 5)
    assert verify_sdp(B).ok
    after_verify = dict(calls)
    assert all(after_verify.values())
    assert rank_identities(B).ok
    assert check_cleavage(B, B.canonical_cleavage(), check_interior=False).ok
    ctx = SplitContext(B, B.canonical_cleavage())
    for s in B.base.nerve_level(1):
        ctx.split_matrix(1, s)
    assert calls == after_verify
    s = B.base.nerve_level(2)[5]
    assert relative_horn_kernel(B, 2, 0, s) is face_kernel(B, 2, s, range(1, 3))
    # over Z/2 some kernels change with k, so a memo key that lost the face
    # set would hand out the wrong one
    for V in (B, _horn_law_bundle("Z/2")):
        for n in range(1, 4):
            for s in V.base.nerve_level(n):
                for k in range(n + 1):
                    assert relative_horn_kernel(V, n, k, s) == kernel(horn_map_dense(V, n, k, s))


# ---------------------------------------------------------------------------
# Shared structure maps: one transport per grading pair, facts keyed by maps.
# ---------------------------------------------------------------------------


def _nonuniform_tower(seed):
    """A twisted order-one tower over unit(2) whose two objects have different dims."""
    rng = random.Random(seed)
    G = unit_groupoid(2)
    dims = {0: (1, 1), 1: (2, 1)}
    E = GradedBundle(G, dims)
    diff = {x: _staircase_boundary(rng, list(d)) for x, d in dims.items()}
    arrows = {g: {k: RatMat.identity(E.dim(G.arrow_src[g], k)) for k in E.degrees()}
              for g in range(G.n_arrows)}
    return twisted_ruth_direct(strict_ruth(E, diff, arrows), random_gauge(E, rng))


def _reference_horn_dim(V, n, k, s):
    """Horn-space dimension from the dense faces: slot product minus matching rank."""
    slots = [j for j in range(n + 1) if j != k]
    dims = [V.fiber_dim(n - 1, V.base.face(s, j)) for j in slots]
    off = {j: sum(dims[:p]) for p, j in enumerate(slots)}
    total = sum(dims)
    rows = []
    for p, j in enumerate(slots):
        for i in slots[:p]:
            a = V.face(n - 1, i, V.base.face(s, j)).to_dense()
            b = V.face(n - 1, j - 1, V.base.face(s, i)).to_dense()
            for r in range(a.rows):
                row = [Fr(0)] * total
                row[off[j]:off[j] + a.cols] = a.data[r]
                for c, x in enumerate(b.data[r]):
                    row[off[i] + c] -= x
                rows.append(row)
    return total - (RatMat.from_rows(rows, total).rank() if rows else 0)


def _assert_horn_gate(V, levels):
    for n in levels:
        for s in V.base.nerve_level(n):
            for k in range(n + 1):
                hs = horn_system(V, n, k, s)
                d = horn_dim(V, n, k, s)
                assert d == hs.total - sparse_rank(hs.rows)
                assert d == _reference_horn_dim(V, n, k, s), (n, k, s)


GATE_BASES = sorted(builtin_groupoids())


def _gate_bundle(name):
    if name == "unit(2)-nonuniform":
        return build_sdp(_nonuniform_tower(8), 5, validate=False)
    if name == "pair(2)-perturbed-R2":
        return _horn_law_bundle(name)
    return build_sdp(_twisted_tower(builtin_groupoids()[name], (1, 1), 7), 3, validate=False)


@pytest.mark.parametrize("name", GATE_BASES + ["unit(2)-nonuniform", "pair(2)-perturbed-R2"])
def test_horn_dim_equality_gate(name):
    """horn_dim, certified or eliminated, equals the rank of the whole system
    and the dense reference on every horn system: all seven built-in bases,
    non-uniform dims per object, and a bundle that fails the simplicial
    identities."""
    V = _gate_bundle(name)
    _assert_horn_gate(V, range(1, V.L + 1))


@pytest.mark.parametrize("name", GATE_BASES + ["unit(2)-nonuniform", "pair(2)-perturbed-R2"])
def test_horn_bounds_bracket_eliminated_dim(name):
    """The certificate's kernel counts bracket the eliminated horn dimension
    on every horn above level 1: Σ dim K_j always, and rank h_k wherever
    every face pair commutes."""
    V = _gate_bundle(name)
    for n in range(2, V.L + 1):
        for s in V.base.nerve_level(n):
            for k in range(n + 1):
                hs = horn_system(V, n, k, s)
                exact = hs.total - sparse_rank(hs.rows)
                lower, upper = horn_bounds(V, n, k, s)
                assert exact <= upper, (n, k, s)
                assert lower is None or lower <= exact, (n, k, s)


def test_fixture_horns_certified(fixture_bundles):
    """On the acceptance fixtures every horn above level 1 is certified by its
    two kernel counts: both are known and they agree."""
    for fx, B in fixture_bundles:
        assert check_fibration(B).is_fibration
        for n in range(2, B.L + 1):
            for s in B.base.nerve_level(n):
                for k in range(n + 1):
                    lower, upper = horn_bounds(B, n, k, s)
                    assert lower == upper, (fx["name"], n, k, s)


def _broken_face_bundle():
    """A fibration with the level-2 face d_1 over simplex 0 dropped to zero."""
    B = build_sdp(twisted_order_one(), 4)

    def face(n, i, s):
        m = B.face(n, i, s)
        if n == 2 and i == 1 and B.base.simplex_index(s) == 0:
            return BlockMap(m.src, m.dst, {})
        return m

    return SimpVB(B.base, B.L, B.grading, face, B.deg)


@pytest.mark.parametrize("build", [lambda: _horn_law_bundle("pair(2)-perturbed-R2"),
                                   _broken_face_bundle], ids=["perturbed-R2", "broken-face"])
def test_horn_fallback_matches_exact_only(build, monkeypatch):
    """Where a face identity fails, horns above level 1 are eliminated, and
    the fibration report and every horn dimension equal those of a run in
    which no horn is certified."""
    import ruthvb.simplicial as simplicial

    built = []
    real = simplicial.horn_system

    def recorded(fc, n, k, key):
        built.append(n)
        return real(fc, n, k, key)

    monkeypatch.setattr(simplicial, "horn_system", recorded)
    V = build()
    rep = check_fibration(V)
    assert not rep.is_fibration and max(built) >= 2
    monkeypatch.setattr(simplicial, "horn_bounds", lambda fc, n, k, key: (None, None))
    U = build()
    assert dataclasses.asdict(check_fibration(U)) == dataclasses.asdict(rep)
    for n in range(1, V.L + 1):
        for s in V.base.nerve_level(n):
            for k in range(n + 1):
                assert horn_dim(V, n, k, s) == horn_dim(U, n, k, s), (n, k, s)


def test_structure_maps_shared_per_grading():
    """Equal gradings are one object, and so is every positive face and
    degeneracy between the same two gradings; non-uniform dims keep apart."""
    B = build_sdp(_twisted_tower(pair_groupoid(2), (1, 1), 42), 4)
    for n in range(B.L + 1):
        level = B.base.nerve_level(n)
        assert len({id(B.grading(n, s)) for s in level}) == 1
        for i in range(1, n + 1):
            assert len({id(B.face(n, i, s)) for s in level}) == 1
        if n < B.L:
            for j in range(n + 1):
                assert len({id(B.deg(n, j, s)) for s in level}) == 1
    level = B.base.nerve_level(3)
    assert relative_horn_kernel(B, 3, 0, level[0]) is relative_horn_kernel(B, 3, 0, level[-1])
    V = build_sdp(_nonuniform_tower(8), 3, validate=False)
    for n in range(1, V.L + 1):
        x, y = (V.base.unit_simplex(o, n) for o in range(2))
        assert V.grading(n, x) != V.grading(n, y)
        assert V.face(n, 1, x) is not V.face(n, 1, y)


def _copied(m):
    """An equal map that is a distinct object."""
    return BlockMap._raw(m.src, m.dst, dict(m.blocks))


def test_perturbed_shared_face_reported_at_its_simplex():
    """One simplex gets a perturbed copy of a positive face that every other
    simplex shares.  Identity verdicts, fibration and horn dimensions equal
    those of a bundle in which no two simplices share a map object."""
    B = build_sdp(_twisted_tower(pair_groupoid(2), (1, 1), 42), 4)
    G = B.base
    s0 = G.nerve_level(2)[5]
    shared = B.face(2, 1, s0)
    moved = shared + BlockMap.transport(shared.src, shared.dst, [(*next(iter(shared.blocks)), Fr(1, 2))])

    def face(n, i, s):
        return moved if (n, i, s) == (2, 1, s0) else B.face(n, i, s)

    V = SimpVB(G, B.L, B.grading, face, B.deg)
    U = SimpVB(G, B.L, B.grading, lambda n, i, s: _copied(face(n, i, s)),
               lambda n, j, s: _copied(B.deg(n, j, s)))
    assert sum(V.face(2, 1, s) is shared for s in G.nerve_level(2)) == len(G.nerve_level(2)) - 1

    def involves_s0(v):
        if v.level == 2:
            return v.key == s0
        if v.level == 3:
            return s0 in {G.face(v.key, j) for j in range(4)}
        return v.level == 1 and s0 in {G.degeneracy(v.key, j) for j in range(2)}

    found = 0
    for n in range(B.L + 1):
        got = verify_simplicial_identities(V, levels=[n])
        assert got == verify_simplicial_identities(U, levels=[n])
        assert len(got.violations) < 10  # under the report's cap: the list is complete
        assert all(involves_s0(v) for v in got.violations)
        found += len(got.violations)
    assert found
    assert verify_simplicial_identities(B).ok
    assert dataclasses.asdict(check_fibration(V)) == dataclasses.asdict(check_fibration(U))
    _assert_horn_gate(V, range(1, V.L + 1))
    for n in range(1, V.L + 1):
        for s in G.nerve_level(n):
            for k in range(n + 1):
                assert relative_horn_kernel(V, n, k, s) == relative_horn_kernel(U, n, k, s)


@pytest.mark.parametrize("name", ["Z/2", "unit(2)"])
def test_kernels_and_horns_depend_on_k(name):
    """On these bases some relative-horn kernels change with k (on pair(2)
    they do not), so a memo that confused face sets would show here."""
    V = _horn_law_bundle(name)
    differ = 0
    for n in range(1, 4):
        for s in V.base.nerve_level(n):
            kers = [relative_horn_kernel(V, n, k, s) for k in range(n + 1)]
            differ += len(set(kers)) > 1
            for k in range(n + 1):
                assert kers[k] == kernel(horn_map_dense(V, n, k, s))
                assert horn_dim(V, n, k, s) == _reference_horn_dim(V, n, k, s)
    assert differ


# ---------------------------------------------------------------------------
# Face kernels through d_0: d_0 restricted to the positive-face kernel.
# ---------------------------------------------------------------------------


def _dense_face_kernel(V, n, s, faces):
    return kernel(RatMat.vstack([V.face(n, i, s).to_dense() for i in faces]))


def _dense_positive_face(B, n, i, s):
    """B with face (n, i) over s given a second entry in its last nonzero row,
    on the last column that no row reads, so ker d_i is no coordinate subspace."""
    face = B.face(n, i, s)
    hit = {c for row in face.sparse_rows() for c in row}
    c2 = max(c for c in range(face.src.total) if c not in hit)
    r = max(r for r, row in enumerate(face.sparse_rows()) if row)
    extra = BlockMap.from_rows(face.src, face.dst,
                               [[(c2, Fr(1, 2))] if q == r else [] for q in range(face.dst.total)])
    moved = face + extra

    def faces(m, j, t):
        return moved if (m, j, t) == (n, i, s) else B.face(m, j, t)

    return SimpVB(B.base, B.L, B.grading, faces, B.deg)


def _d0_kernel_bundles(kind, name):
    # at N <= 1 every such kernel on levels 1-3 is zero; N = 2 has nonzero
    # ones that change with the face set
    for N in (2,) if kind == "dense-face" else (0, 1, 2):
        B = build_sdp(_twisted_tower(builtin_groupoids()[name], (1,) * (N + 1), 11 + N), 3,
                      validate=False)
        if kind == "loaded":
            B = svb_from_doc(svb_to_doc(B))
        elif kind == "dense-face":
            s0 = B.base.nerve_level(3)[-1]
            B = _dense_positive_face(B, 3, 1, s0)
            assert any(len(row) > 1 for row in face_kernel(B, 3, s0, [1]).rows)
        yield B


@pytest.mark.parametrize("kind, name",
                         [("built", b) for b in GATE_BASES] + [("loaded", b) for b in GATE_BASES]
                         + [("dense-face", "Z/2"), ("dense-face", "pair(2)")])
def test_face_kernels_through_d0_match_dense(kind, name):
    """Every face kernel whose face set holds 0 and another face, levels 1-3,
    equals the null space of its stacked dense faces: on built bundles, whose
    positive faces are transports shared per grading; on loaded ones, where
    no two simplices share a map; and where a positive face has a row with
    two entries, so the kernel d_0 is restricted to is no coordinate subspace."""
    nonzero = 0
    for V in _d0_kernel_bundles(kind, name):
        for n in range(1, 4):
            sets = [(0, *rest) for size in range(1, n + 1)
                    for rest in itertools.combinations(range(1, n + 1), size)]
            for s in V.base.nerve_level(n):
                for faces in sets:
                    got = face_kernel(V, n, s, faces)
                    assert got == _dense_face_kernel(V, n, s, faces), (kind, n, s, faces)
                    nonzero += got.dim > 0
    assert nonzero
