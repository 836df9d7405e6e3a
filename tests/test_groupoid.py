import itertools

import pytest

from ruthvb.errors import ValidationError
from ruthvb.groupoid import (
    FinGroupoid,
    NerveSimplex,
    builtin_groupoids,
    cyclic_group,
    pair_groupoid,
    unit_groupoid,
)
from ruthvb.ordmaps import OrdMap, compose, delta, upsilon, vertex


def test_builtin_counts():
    cat = builtin_groupoids()
    assert cat["unit(1)"].n_objects == 1 and cat["unit(1)"].n_arrows == 1
    assert cat["pair(2)"].n_objects == 2 and cat["pair(2)"].n_arrows == 4
    assert cat["Z/2"].n_objects == 1 and cat["Z/2"].n_arrows == 2
    prod = cat["Z/2xpair(2)"]
    assert prod.n_objects == 2 and prod.n_arrows == 8


def test_validation_catches_broken_tables():
    G = pair_groupoid(2)
    comp = dict(G.comp)
    # swap one composite to a wrong-endpoint arrow
    (k, v) = next(iter(comp.items()))
    comp[k] = G.inv[v] if G.arrow_src[v] != G.arrow_tgt[v] else (v + 1) % G.n_arrows
    with pytest.raises(ValidationError):
        FinGroupoid(G.objects, G.arrow_src, G.arrow_tgt, comp, G.unit_of_obj, G.inv)


def test_nerve_counts_and_order():
    assert len(unit_groupoid(2).nerve_level(3)) == 2
    assert len(pair_groupoid(2).nerve_level(1)) == 4
    assert len(pair_groupoid(2).nerve_level(2)) == 8
    assert len(pair_groupoid(3).nerve_level(2)) == 27
    G = pair_groupoid(2)
    level = G.nerve_level(3)
    assert [s.arrows for s in level] == sorted(s.arrows for s in level)
    assert all(G.simplex_index(s) == i for i, s in enumerate(level))


def test_faces_degeneracies():
    G = pair_groupoid(2)
    s = G.nerve_level(2)[3]
    assert G.face(s, 0).arrows == s.arrows[1:]
    assert G.face(s, 2).arrows == s.arrows[:1]
    merged = G.face(s, 1)
    assert merged.arrows[0] == G.comp[(s.arrows[1], s.arrows[0])]
    for j in range(3):
        assert G.face(G.degeneracy(s, j), j) == s
    assert G.vertices(G.degeneracy(s, 1))[1] == G.vertices(G.degeneracy(s, 1))[2]


def test_restrict_contravariant_functorial():
    import random

    G = pair_groupoid(2)
    rng = random.Random(1)
    for s in G.nerve_level(4):
        for _ in range(3):
            m = rng.randint(0, 4)
            k = rng.randint(0, m)
            theta2 = OrdMap(m, 4, tuple(sorted(rng.randint(0, 4) for _ in range(m + 1))))
            theta1 = OrdMap(k, m, tuple(sorted(rng.randint(0, m) for _ in range(k + 1))))
            assert G.restrict(G.restrict(s, theta2), theta1) == G.restrict(s, compose(theta2, theta1))


def test_restrict_special_maps():
    G = pair_groupoid(2)
    s = G.nerve_level(3)[5]
    assert G.restrict(s, delta(0, 3)) == G.face(s, 0)
    t = G.nerve_level(1)[2]
    assert G.restrict(t, upsilon(1, 1)) == G.degeneracy(t, 1)
    assert G.restrict(t, upsilon(0, 1)) == G.degeneracy(t, 0)
    for i in range(4):
        assert G.restrict(s, vertex(i, 3)).x0 == G.vertex_obj(s, i)
    for j in range(3):
        t = G.nerve_level(2)[j]
        assert G.restrict(G.degeneracy(t, j), delta(j, 3)) == t


def test_nerve_is_one_groupoid():
    """Every horn at level > 1 has a unique filler; exhaustive at low levels."""
    for G in (pair_groupoid(2), cyclic_group(2)):
        for n in (2, 3):
            level = G.nerve_level(n)
            for k in range(n + 1):
                seen = {}
                for s in level:
                    horn = tuple(G.face(s, i) for i in range(n + 1) if i != k)
                    assert horn not in seen, "two fillers for one horn"
                    seen[horn] = s
                # surjectivity: every compatible tuple arises from a filler
                count = 0
                for tup in itertools.product(level_faces(G, n - 1), repeat=n):
                    if compatible(G, n, k, tup):
                        count += 1
                assert count == len(level)


def level_faces(G, n):
    return G.nerve_level(n)


def compatible(G, n, k, tup):
    idx = [i for i in range(n + 1) if i != k]
    faces = dict(zip(idx, tup))
    for a in idx:
        for b in idx:
            if a < b:
                if G.face(faces[b], a) != G.face(faces[a], b - 1):
                    return False
    return True


def test_unique_filler_injectivity_up_to_level_five():
    G = pair_groupoid(2)
    for n in (4, 5):
        for k in range(n + 1):
            seen = set()
            for s in G.nerve_level(n):
                horn = tuple(G.face(s, i) for i in range(n + 1) if i != k)
                assert horn not in seen
                seen.add(horn)


def test_unit_simplex_and_degenerate():
    G = cyclic_group(2)
    u = G.unit_simplex(0, 3)
    assert G.is_degenerate(u) and u.level == 3
    s = NerveSimplex(0, (1, 1, 1))
    assert not G.is_degenerate(s)
