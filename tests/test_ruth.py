import random
from fractions import Fraction as Fr

import pytest

from conftest import random_gauge, random_strict_ruth
from ruthvb.doldkan import ChainComplex
from ruthvb.errors import ValidationError
from ruthvb.exactla import RatMat
from ruthvb.groupoid import NerveSimplex, pair_groupoid, unit_groupoid
from ruthvb.ruth import (
    GaugeData,
    GradedBundle,
    Ruth,
    RuthMorphism,
    chain_complex_ruth,
    check_morphism,
    check_rh1,
    check_rh2,
    compose_morphisms,
    cycles_borders,
    gauge_twist,
    grothendieck,
    identity_morphism,
    representation_ruth,
    twisted_ruth_direct,
    uniform_bundle,
)


def two_object_rep():
    G = pair_groupoid(2)
    mats = {}
    for g in range(G.n_arrows):
        a, b = G.arrow_src[g], G.arrow_tgt[g]
        mats[g] = RatMat.from_rows([[Fr(2) ** (b - a)]])
    return representation_ruth(G, {0: 1, 1: 1}, mats)


def test_strict_rep_passes_axioms():
    R = two_object_rep()
    assert check_rh1(R).ok and check_rh2(R).ok


def test_chain_complex_over_point():
    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[3]])})
    R = chain_complex_ruth(unit_groupoid(1), Y)
    u = NerveSimplex(0, (0,))
    assert R.block(1, u, 0) == RatMat.identity(1)
    assert R.block(0, NerveSimplex(0, ()), 1) == RatMat.from_rows([[3]])
    # degree-zero coherence is exactly a squared differential
    assert check_rh2(R).ok


def test_rh1_violation_witnessed():
    R = two_object_rep()
    G = R.G
    degen = next(s for s in G.nerve_level(2) if G.is_degenerate(s))
    # an order-zero tower has no level-2 blocks; fake one by enlarging the cap
    bad = R.with_block(1, G.nerve_level(1)[0], 0, RatMat.from_rows([[5]]))
    rep = check_rh1(bad)
    assert not rep.ok or not check_rh2(bad).ok


def test_rh1_degenerate_block_witnessed():
    G = pair_groupoid(2)
    rng = random.Random(2)
    R = random_strict_ruth(G, rng, (1, 1))
    degen = next(s for s in G.nerve_level(2) if G.is_degenerate(s))
    bad = R.with_block(2, degen, 0, RatMat.from_rows([[1]]))
    rep = check_rh1(bad)
    assert not rep.ok
    kind, m, idx = rep.violations[0]
    assert kind == "degenerate" and m == 2 and idx == G.simplex_index(degen)


def test_rh2_violation_witnessed():
    G = pair_groupoid(2)
    rng = random.Random(1)
    R = random_strict_ruth(G, rng, (1, 1))
    s = next(t for t in G.nerve_level(2) if not G.is_degenerate(t))
    bad = R.with_block(2, s, 0, RatMat.from_rows([[1]]))
    rep = check_rh2(bad)
    assert not rep.ok
    m, idx = rep.violations[0]
    assert m >= 2


def test_rh2_homotopy_shape():
    """A twisted tower's level-two operator witnesses the composition defect."""
    G = pair_groupoid(2)
    rng = random.Random(5)
    R0 = random_strict_ruth(G, rng, (1, 1))
    psi = random_gauge(R0.E, rng)
    R = twisted_ruth_direct(R0, psi)
    assert check_rh1(R).ok and check_rh2(R).ok
    from ruthvb.ruth import rh2_sides

    for s in G.nerve_level(2):
        lhs, rhs = rh2_sides(R, 2, s)
        for deg in R.E.degrees():
            zero = R.block(2, s, deg).scale(0)  # an absent side is zero of this shape
            assert lhs.get(deg, zero) == rhs.get(deg, zero)
    assert any(R.operator(2, s) for s in G.nerve_level(2))


def test_tower_blocks_stored_as_entries():
    """A tower fixes each block's entry form once, when it is built: c times
    the identity as an int (a Fraction when not integral), any other nonzero
    block dense, a zero block not at all; block() gives the dense block."""
    G = unit_groupoid(1)
    E = GradedBundle(G, {0: (2, 2, 1)})
    obj, u = NerveSimplex(0, ()), NerveSimplex(0, (0,))
    lower = RatMat.from_rows([[1, 2], [0, 1]])
    given = {
        (1, u): {0: RatMat.identity(2).scale(3), 1: RatMat.identity(2).scale(Fr(1, 2)),
                 2: RatMat.zeros(1, 1)},
        (0, obj): {1: lower, 2: RatMat.zeros(2, 1)},
    }
    R = Ruth(E, given)
    assert R.ops == {(1, u): {0: 3, 1: Fr(1, 2)}, (0, obj): {1: lower}}
    assert type(R.ops[(1, u)][0]) is int and type(R.ops[(1, u)][1]) is Fr
    assert type(R.ops[(0, obj)][1]) is RatMat
    for (m, s), table in given.items():
        for deg, mat in table.items():
            assert R.block(m, s, deg) == mat
    assert R.entry(0, obj, 2) is None and R.entry(1, u, 2) is None
    assert R.entry(0, obj, 0) is None and R.block(0, obj, 0) == RatMat.zeros(0, 2)
    # entries already in stored form are accepted, a scalar only on a square slot
    assert Ruth(E, {(1, u): {0: Fr(6, 2), 1: Fr(1, 2)}, (0, obj): {1: lower}}) == R
    with pytest.raises(ValidationError):
        Ruth(E, {(0, obj): {2: 5}})
    assert Ruth(R.E, R.ops) == R

    # a twisted pair(2) (1,1) tower, read off its bundle: every block is 1x1
    G2 = pair_groupoid(2)
    rng = random.Random(5)
    R0 = random_strict_ruth(G2, rng, (1, 1))
    T = gauge_twist(R0, random_gauge(R0.E, rng))
    entries = [e for table in T.ops.values() for e in table.values()]
    assert any(m == 2 for m, _ in T.ops)
    assert all(type(e) is int or (type(e) is Fr and e.denominator > 1) for e in entries)
    assert all(e for e in entries)
    assert Ruth(T.E, T.ops) == T
    assert identity_morphism(T).ops[(0, NerveSimplex(0, ()))] == {0: 1, 1: 1}


def test_operator_tables_read_only():
    """ops and its inner tables refuse assignment, on towers, morphisms and
    gauges alike; rebuilding from ops and table equality still work."""
    G = pair_groupoid(2)
    rng = random.Random(4)
    R = random_strict_ruth(G, rng, (1, 1))
    psi = random_gauge(R.E, rng)
    s = next(t for t in G.nerve_level(1) if not G.is_degenerate(t))
    for table in (R, identity_morphism(R), psi):
        key = next(iter(table.ops))
        with pytest.raises(TypeError):
            table.ops[(1, s)] = {0: 1}
        with pytest.raises(TypeError):
            table.ops[key][0] = 1
    assert Ruth(R.E, R.ops) == R and Ruth(R.E, dict(R.ops)) == R
    T = twisted_ruth_direct(R, psi)
    assert Ruth(T.E, {**T.ops}) == T


def test_morphism_identity_and_perturbation():
    G = pair_groupoid(2)
    rng = random.Random(4)
    R = random_strict_ruth(G, rng, (1, 1))
    ident = identity_morphism(R)
    assert check_morphism(ident).ok
    s = next(t for t in G.nerve_level(1) if not G.is_degenerate(t))
    bad = RuthMorphism(R, R, {**identity_morphism(R).ops, (1, s): {0: RatMat.from_rows([[1]])}})
    # a lone degree-one operator breaks the mixed coherence somewhere
    rep = check_morphism(bad)
    assert not rep.ok
    # wrong-shaped blocks are rejected outright
    with pytest.raises(ValidationError):
        RuthMorphism(R, R, {(1, s): {1: RatMat.from_rows([[1]])}})


def test_morphism_zero_degree_is_chain_map():
    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[2]])})
    G = unit_groupoid(1)
    R = chain_complex_ruth(G, Y)
    obj = NerveSimplex(0, ())
    # psi_0 = multiplication by 3 commutes with the differential
    ops = {(0, obj): {0: RatMat.from_rows([[3]]), 1: RatMat.from_rows([[3]])}}
    from ruthvb.ruth import RuthMorphism

    psi = RuthMorphism(R, R, ops)
    assert check_morphism(psi).ok
    ops_bad = {(0, obj): {0: RatMat.from_rows([[3]]), 1: RatMat.from_rows([[4]])}}
    assert not check_morphism(RuthMorphism(R, R, ops_bad)).ok


def test_gauge_twist_produces_higher_operators():
    G = pair_groupoid(2)
    rng = random.Random(9)
    R0 = random_strict_ruth(G, rng, (1, 1))
    psi = random_gauge(R0.E, rng)
    R = gauge_twist(R0, psi)
    assert check_rh1(R).ok and check_rh2(R).ok
    assert R == twisted_ruth_direct(R0, psi)
    has_r2 = any(m == 2 for (m, _s) in R.ops)
    assert has_r2
    # identity gauge data twists to the tower itself
    trivial = GaugeData(R0.E, {})
    assert gauge_twist(R0, trivial) == R0


def test_compose_morphisms_and_gauge_class():
    G = pair_groupoid(2)
    rng = random.Random(21)
    R0 = random_strict_ruth(G, rng, (1, 1))
    psi1 = random_gauge(R0.E, rng)
    R1 = twisted_ruth_direct(R0, psi1)
    psi2 = random_gauge(R0.E, rng)
    R2 = twisted_ruth_direct(R1, psi2)
    m1 = psi1.as_morphism(R0, R1)
    m2 = psi2.as_morphism(R1, R2)
    comp = compose_morphisms(m2, m1)
    assert check_morphism(comp).ok
    assert comp.source is R0 and comp.target is R2
    assert comp.source.E == comp.target.E
    assert all(comp.ops.get(key, {}) == table for key, table in identity_morphism(R0).ops.items())


def test_cycles_borders():
    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[1]])})
    R = chain_complex_ruth(unit_groupoid(1), Y)
    zb = cycles_borders(R, 0)
    assert zb[0] == (1, 1, 0) and zb[1] == (0, 0, 0)
    Yz = ChainComplex((2, 1), {})
    Rz = chain_complex_ruth(unit_groupoid(1), Yz)
    zbz = cycles_borders(Rz, 0)
    assert zbz[0] == (2, 0, 2) and zbz[1] == (1, 0, 1)


def test_order_zero_functoriality_and_invertibility():
    R = two_object_rep()
    G = R.G
    from ruthvb.ordmaps import sigma, tau

    for s in G.nerve_level(2):
        g1 = G.restrict(s, sigma(1, 2))
        g2 = G.restrict(s, tau(1, 2))
        whole = G.face(s, 1)
        assert R.block(1, whole, 0) == R.block(1, g2, 0) @ R.block(1, g1, 0)
    for t in G.nerve_level(1):
        assert R.block(1, t, 0).rank() == 1


def test_translation_groupoid_data():
    R = two_object_rep()
    gr = grothendieck(R)
    G = R.G
    for pair in G.nerve_level(2):
        m = gr.mult_matrix(pair)
        # composing keeps the source coordinate
        assert m.data[-1] == [Fr(0), Fr(0) if m.cols == 3 else Fr(0), Fr(1)][-m.cols:]


def test_grothendieck_assoc_is_level_three_coherence():
    G = pair_groupoid(2)
    rng = random.Random(33)
    R = twisted_ruth_direct(random_strict_ruth(G, rng, (1, 1)), random_gauge(uniform_bundle(G, (1, 1)), rng))
    gr = grothendieck(R)

    for s in G.nerve_level(3):
        pair_hi = G.restrict_vertices(s, (1, 2, 3))
        pair_lo = G.restrict_vertices(s, (0, 1, 2))
        pair_out = G.restrict_vertices(s, (0, 2, 3))
        pair_skew = G.restrict_vertices(s, (0, 1, 3))
        x0, x1, x2, x3 = G.vertices(s)
        c3, c2, c1 = (R.E.dim(x, 1) for x in (x3, x2, x1))
        e0 = R.E.dim(x0, 0)
        # ((a3 . a2) . a1) and (a3 . (a2 . a1)) as maps on (c3, c2, c1, e)

        def embed(mat, keep_cols, total):
            out = RatMat.zeros(mat.rows, total)
            for r in range(mat.rows):
                for c, col in enumerate(keep_cols):
                    out.data[r][col] = mat.data[r][c]
            return out

        total = c3 + c2 + c1 + e0
        m_hi = gr.mult_matrix(pair_hi)      # (c3, c2, e1) -> (c,e) over x1 source
        m_lo = gr.mult_matrix(pair_lo)      # (c2, c1, e0)
        m_out = gr.mult_matrix(pair_out)
        m_skew = gr.mult_matrix(pair_skew)
        # left association: first compose the lower pair
        lo = embed(m_lo, list(range(c3, total)), total)          # (c21, e0)
        left_in = RatMat.vstack([
            embed(RatMat.identity(c3), list(range(c3)), total),
            lo,
        ])
        left = m_out @ left_in
        # right association: compose the upper pair; its source coordinate is e1 = t(a1)
        t1 = R.block(1, G.restrict_vertices(s, (0, 1)), 0)
        r0 = R.block(0, NerveSimplex(x1, ()), 1)
        e1_of = RatMat.hstack([RatMat.zeros(e0, c3 + c2), r0, t1])
        hi_in = RatMat.vstack([
            embed(RatMat.identity(c3 + c2), list(range(c3 + c2)), total),
            e1_of,
        ])
        hi = m_hi @ hi_in                                         # (c32, e1)
        right_in = RatMat.vstack([
            RatMat(hi.rows - e0, total, hi.data[: hi.rows - e0]),
            embed(RatMat.identity(c1), list(range(c3 + c2, c3 + c2 + c1)), total),
            embed(RatMat.identity(e0), list(range(c3 + c2 + c1, total)), total),
        ])
        right = m_skew @ right_in
        assert left == right


def _canonical_keys(X) -> bool:
    """Every (m, simplex) key of a table is the nerve's own object."""
    G = X.G
    return all(s is G.nerve_level(m)[G.simplex_index(s)] for m, s in X.ops)


def test_built_towers_keyed_by_canonical_simplices():
    rng = random.Random(7)
    R0 = random_strict_ruth(pair_groupoid(2), rng, (1, 1))
    psi = random_gauge(R0.E, rng)
    R = twisted_ruth_direct(R0, psi)
    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[1]])})
    identity = identity_morphism(R)
    tables = {
        "strict_ruth": R0,
        "chain_complex_ruth": chain_complex_ruth(unit_groupoid(2), Y),
        "representation_ruth": two_object_rep(),
        "twisted_ruth_direct": R,
        "GaugeData": psi,
        "identity_morphism": identity,
        "compose_morphisms": compose_morphisms(identity, psi.as_morphism(R0, R)),
    }
    for name, X in tables.items():
        # an order-zero representation has no differential, so no level-0 key
        assert name == "representation_ruth" or any(m == 0 for m, _ in X.ops), name
        assert X.ops and _canonical_keys(X), name
