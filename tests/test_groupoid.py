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
from ruthvb.ordmaps import OrdMap, compose, delta, sigma, tau, upsilon, vertex


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


# -- canonical simplices and their tables ---------------------------------


def _ref_vertex(G, s, i):
    return s.x0 if i == 0 else G.arrow_tgt[s.arrows[i - 1]]


def _ref_face(G, s, i):
    a = s.arrows
    if i == 0:
        return (_ref_vertex(G, s, 1), a[1:])
    if i == len(a):
        return (s.x0, a[:-1])
    return (s.x0, a[: i - 1] + (G.comp[(a[i], a[i - 1])],) + a[i + 1 :])


def _ref_degeneracy(G, s, j):
    return (s.x0, s.arrows[:j] + (G.unit_of_obj[_ref_vertex(G, s, j)],) + s.arrows[j:])


def _ref_restrict(G, s, verts):
    def arrow(a, b):
        if a == b:
            return G.unit_of_obj[_ref_vertex(G, s, a)]
        g = s.arrows[a]
        for i in range(a + 1, b):
            g = G.comp[(s.arrows[i], g)]
        return g

    return (_ref_vertex(G, s, verts[0]), tuple(arrow(a, b) for a, b in zip(verts, verts[1:])))


def test_nerve_maps_match_formulas_and_are_canonical():
    import random

    rng = random.Random(23)
    for name, G in builtin_groupoids().items():
        # degeneracies of level-4 simplices land on level 5 before it is enumerated
        simplices = [s for n in range(5) for s in G.nerve_level(n)]
        for s in simplices:
            n = s.level
            for j in range(n + 1):
                assert (G.degeneracy(s, j).x0, G.degeneracy(s, j).arrows) == _ref_degeneracy(G, s, j)
        canon = {(t.x0, t.arrows): t for n in range(6) for t in G.nerve_level(n)}
        for s in simplices:
            n = s.level
            for i in range(n + 1 if n else 0):
                assert G.face(s, i) is canon[_ref_face(G, s, i)], (name, s, i)
            for j in range(n + 1):
                assert G.degeneracy(s, j) is canon[_ref_degeneracy(G, s, j)], (name, s, j)
            for k in range(1, n + 2):
                for verts in itertools.combinations(range(n + 1), k):
                    assert G.restrict_vertices(s, verts) is canon[_ref_restrict(G, s, verts)]
            for _ in range(3):
                verts = tuple(sorted(rng.randint(0, n) for _ in range(rng.randint(2, 4))))
                assert G.restrict_vertices(s, verts) is canon[_ref_restrict(G, s, verts)]
            assert G.unit_simplex(s.x0, n) is canon[(s.x0, (G.unit_of_obj[s.x0],) * n)]
            # a simplex built by the caller reaches the same canonical objects
            fresh = NerveSimplex(s.x0, s.arrows)
            assert G.restrict_vertices(fresh, range(n + 1)) is s
            if n:
                assert G.face(fresh, 0) is G.face(s, 0)


def test_simplex_faces_belong_to_the_asking_groupoid():
    G = cyclic_group(3)
    swap = (1, 0, 2)  # relabel arrows 0 <-> 1, so the unit is arrow 1
    H = FinGroupoid(G.objects, G.arrow_src, G.arrow_tgt,
                    {(swap[b], swap[a]): swap[c] for (b, a), c in G.comp.items()},
                    [1], [swap[G.inv[g]] for g in swap])
    for first, second in ((G, H), (H, G)):
        s = first.nerve_level(2)[first.nerve_level(2).index(NerveSimplex(0, (2, 2)))]
        assert first.face(s, 1).arrows == ((1,) if first is G else (0,))
        assert second.face(s, 1).arrows == ((1,) if second is G else (0,))
        assert second.face(s, 1) is second.nerve_level(1)[second.face(s, 1).arrows[0]]
        assert first.degeneracy(s, 0).arrows == ((0,) if first is G else (1,)) + (2, 2)
        assert second.degeneracy(s, 0).arrows == ((0,) if second is G else (1,)) + (2, 2)
        assert second.restrict_vertices(s, (0, 2)).arrows == second.face(s, 1).arrows
        assert first.face(s, 1).arrows == ((1,) if first is G else (0,))


def test_filled_tables_leave_the_value_alone():
    import dataclasses

    G = pair_groupoid(2)
    s = G.nerve_level(3)[5]
    before = (hash(s), repr(s), dataclasses.fields(s), dataclasses.astuple(s))
    assert s == NerveSimplex(s.x0, s.arrows)
    G.face(s, 1), G.degeneracy(s, 2), G.restrict_vertices(s, (0, 3)), G.restrict_vertices(s, (1, 1))
    assert (hash(s), repr(s), dataclasses.fields(s), dataclasses.astuple(s)) == before
    assert [f.name for f in dataclasses.fields(s)] == ["x0", "arrows"]
    assert s == NerveSimplex(s.x0, s.arrows) and hash(s) == hash(NerveSimplex(s.x0, s.arrows))
    assert repr(s) == f"NerveSimplex(x0={s.x0}, arrows={s.arrows!r})"
    # a copy is a fresh simplex of the same value, and the groupoid reads it by value
    import copy
    import pickle

    for twin in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert twin == s and twin is not s and G.face(twin, 1) is G.face(s, 1)


def test_invalid_nerve_arguments_raise_value_error():
    G = pair_groupoid(3)
    s = NerveSimplex(0, (2, 6, 2))
    for verts in [(2, 1), (), (0, 4), (-1, 0), (3, 3, 2)]:
        with pytest.raises(ValueError):
            G.restrict_vertices(s, verts)
    for i in (-1, 4):
        with pytest.raises(ValueError):
            G.face(s, i)
        with pytest.raises(ValueError):
            G.degeneracy(s, i)
    with pytest.raises(ValueError):
        G.face(G.nerve_level(0)[1], 0)


def test_head_and_tail_by_vertices_are_the_canonical_restrictions():
    """The head on vertices 0..r and the tail on r..m of every m-simplex are
    the nerve's own objects, equal to the restrictions along sigma and tau."""
    for name, G in builtin_groupoids().items():
        for m in range(5):
            for s in G.nerve_level(m):
                for r in range(m + 1):
                    head = G.restrict_vertices(s, range(r + 1))
                    tail = G.restrict_vertices(s, range(r, m + 1))
                    assert head is G.nerve_level(r)[G.simplex_index(head)], (name, s, r)
                    assert tail is G.nerve_level(m - r)[G.simplex_index(tail)], (name, s, r)
                    assert head == G.restrict(s, sigma(r, m)) and head.arrows == s.arrows[:r]
                    assert tail == G.restrict(s, tau(m - r, m)) and tail.arrows == s.arrows[r:]
