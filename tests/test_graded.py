import random
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_strict_ruth
from ruthvb.documents import _block_map_to_json, rat_to_str
from ruthvb.doldkan import ChainComplex, dk
from ruthvb.errors import DimensionMismatch
from ruthvb.exactla import RatMat
from ruthvb.graded import BlockMap, Grading, _as_scalar
from ruthvb.groupoid import pair_groupoid
from ruthvb.sdp import build_sdp


def rand_blockmap(rng, src: Grading, dst: Grading, density=0.6) -> BlockMap:
    blocks = {}
    for dl in dst.labels:
        for sl in src.labels:
            if rng.random() > density:
                continue
            if rng.random() < 0.4 and dst.dim(dl) == src.dim(sl):
                blocks[(dl, sl)] = Fr(rng.randint(-3, 3))
            else:
                blocks[(dl, sl)] = RatMat.from_rows(
                    [[Fr(rng.randint(-2, 2)) for _ in range(src.dim(sl))]
                     for _ in range(dst.dim(dl))],
                    src.dim(sl),
                )
    return BlockMap(src, dst, blocks)


def test_grading_layout():
    g = Grading(("a", "b", "c"), (2, 0, 3))
    assert g.total == 5
    assert g.offset("c") == 2
    assert g.slice("c", (1, 2, 3, 4, 5)) == (3, 4, 5)
    for labels in ((1, 1), (None, None)):
        with pytest.raises(DimensionMismatch):
            Grading(labels, (1, 1))  # a block would hide the first copy


def test_scalar_block_must_be_square():
    g2 = Grading(("a",), (2,))
    g3 = Grading(("b",), (3,))
    with pytest.raises(DimensionMismatch):
        BlockMap(g2, g3, {("b", "a"): Fr(1)})


def test_compose_matches_dense():
    rng = random.Random(4)
    for _ in range(25):
        dims = lambda k: tuple(rng.randint(0, 3) for _ in range(k))
        ga = Grading(tuple(range(3)), dims(3))
        gb = Grading(tuple(range(2)), dims(2))
        gc = Grading(tuple(range(3)), dims(3))
        f = rand_blockmap(rng, ga, gb)
        g = rand_blockmap(rng, gb, gc)
        comp = g.compose(f)
        assert comp.to_dense() == g.to_dense() @ f.to_dense()


def test_add_neg_eq_apply():
    rng = random.Random(5)
    ga = Grading((0, 1), (2, 2))
    gb = Grading((0, 1), (2, 1))
    f = rand_blockmap(rng, ga, gb)
    g = rand_blockmap(rng, ga, gb)
    assert (f + g).to_dense() == f.to_dense() + g.to_dense()
    assert (-f).to_dense() == -(f.to_dense())
    assert (f - f).is_zero()
    vec = tuple(Fr(rng.randint(-3, 3)) for _ in range(ga.total))
    assert f.apply(vec) == tuple(f.to_dense().apply(vec))


def test_scalar_and_dense_blocks_compare_equal():
    g = Grading((0,), (2,))
    a = BlockMap(g, g, {(0, 0): Fr(3)})
    b = BlockMap(g, g, {(0, 0): RatMat.identity(2).scale(3)})
    assert a == b
    assert BlockMap.identity(g) == BlockMap(g, g, {(0, 0): RatMat.identity(2)})
    off = RatMat.identity(2).scale(3)
    off.data[0][1] = Fr(1, 2)
    for dense in (RatMat.identity(2).scale(Fr(5, 2)), off):
        assert a != BlockMap(g, g, {(0, 0): dense})
        assert BlockMap(g, g, {(0, 0): dense}) != a


def test_transport_and_sparse_rows():
    src = Grading((0, 1), (1, 2))
    dst = Grading((0, 1), (2, 1))
    t = BlockMap.transport(src, dst, [(1, 0, 1)])
    rows = t.sparse_rows()
    assert rows[dst.offset(1)] == {src.offset(0): Fr(1)}


def test_transport_built_directly():
    """Zero-dimensional labels drop out, ints are stored as they are, and the
    result equals the validating constructor's."""
    src = Grading((0, 1, 2), (1, 0, 2))
    dst = Grading((5, 6, 7), (2, 1, 0))
    pairs = [(5, 2, 1), (6, 0, -1), (7, 1, 1), (6, 1, 3), (7, 0, 1), (5, 0, 0)]
    t = BlockMap.transport(src, dst, pairs)
    assert t.blocks == {(5, 2): 1, (6, 0): -1}
    assert all(type(e) is int for e in t.blocks.values())
    assert t == BlockMap(src, dst, {(dl, sl): c for dl, sl, c in pairs})
    assert BlockMap.transport(src, dst, [(5, 2, Fr(4, 2))]).blocks == {(5, 2): 2}
    assert type(BlockMap.transport(src, dst, [(5, 2, Fr(4, 2))]).blocks[(5, 2)]) is int
    assert BlockMap.transport(src, dst, [(6, 0, Fr(1, 2))]).blocks == {(6, 0): Fr(1, 2)}
    with pytest.raises(DimensionMismatch):
        BlockMap.transport(src, dst, [(6, 2, 1)])  # a 1-dim label against a 2-dim one


def test_zero_dim_blocks_dropped():
    src = Grading((0, 1), (0, 2))
    dst = Grading((0,), (2,))
    m = BlockMap(src, dst, {(0, 0): RatMat.zeros(2, 0), (0, 1): Fr(2)})
    assert list(m.blocks) == [(0, 1)]


# scalars and entries chosen so that products and sums cancel often: 2 * 1/2,
# s + (-s), and dense products that vanish
SCALARS = [1, -1, 2, -2, Fr(1, 2), Fr(-1, 2), Fr(3, 2), Fr(2), Fr(-1)]
DENSE_ENTRIES = [Fr(0), Fr(0), Fr(0), Fr(1), Fr(-1), Fr(2), Fr(1, 2), Fr(-1, 2)]


def gradings(size):
    return st.tuples(*[st.integers(0, 3) for _ in range(size)]).map(
        lambda dims: Grading(tuple(range(len(dims))), dims)
    )


def block_maps(data, src: Grading, dst: Grading) -> BlockMap:
    """A map in either stored form: one in four is a transport of reads by 1."""
    if data.draw(st.integers(0, 3)) == 0:
        reads = []
        for dl in dst.labels:
            same = [sl for sl in src.labels if src.dim(sl) == dst.dim(dl)]
            sl = data.draw(st.sampled_from(same + [None]))
            if sl is not None:
                reads.append((dl, sl, 1))
        return BlockMap.transport(src, dst, reads)
    blocks = {}
    for dl in dst.labels:
        for sl in src.labels:
            do, si = dst.dim(dl), src.dim(sl)
            kind = data.draw(st.sampled_from(["none", "scalar", "dense"] if do == si else ["none", "dense"]))
            if kind == "scalar":
                blocks[(dl, sl)] = data.draw(st.sampled_from(SCALARS))
            elif kind == "dense":
                blocks[(dl, sl)] = RatMat(do, si, [
                    [data.draw(st.sampled_from(DENSE_ENTRIES)) for _ in range(si)] for _ in range(do)
                ])
    return BlockMap(src, dst, blocks)


def assert_stored(m: BlockMap):
    """Scalar blocks are ints, or Fractions that are not integral; none is zero."""
    for e in m.blocks.values():
        if isinstance(e, RatMat):
            assert not e.is_zero()
        else:
            assert type(e) is int or (type(e) is Fr and e.denominator != 1)
            assert e != 0


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_block_algebra_matches_dense(data):
    ga, gb, gc = data.draw(gradings(3)), data.draw(gradings(2)), data.draw(gradings(3))
    f, h = block_maps(data, ga, gb), block_maps(data, ga, gb)
    g, g2 = block_maps(data, gb, gc), block_maps(data, gb, gc)
    c = data.draw(st.sampled_from(SCALARS + [0]))
    F, H, G, G2 = f.to_dense(), h.to_dense(), g.to_dense(), g2.to_dense()
    results = {
        # f is the right operand three times: its cached index is filled, reused, reused again
        "compose": (g.compose(f), G @ F),
        "compose other left": (g2.compose(f), G2 @ F),
        "compose again": (g.compose(f), G @ F),
        "add": (f + h, F + H),
        "sub": (f - h, F - H),
        "neg": (-f, -F),
        "scale": (f.scale(c), F.scale(c)),
        "double": (f.scale(2), F.scale(2)),
        "cancel": (f + (-f), RatMat.zeros(F.rows, F.cols)),
    }
    for name, (m, dense) in results.items():
        assert_stored(m)
        assert m.to_dense() == dense, name
        assert all(type(x) is Fr for row in m.to_dense().data for x in row)
        # m may hold c*I densely (a product of dense blocks); from_dense holds the scalar c
        loaded = BlockMap.from_dense(m.src, m.dst, dense)
        assert m == loaded, name
        assert_stored(loaded)
        assert all(type(e) is not RatMat or _as_scalar(e) is None for e in loaded.blocks.values())
        if dense.rows and dense.cols:
            moved = dense.copy()
            i, j = data.draw(st.integers(0, dense.rows - 1)), data.draw(st.integers(0, dense.cols - 1))
            moved.data[i][j] += Fr(1, 2)
            assert m != BlockMap.from_dense(m.src, m.dst, moved), name
    assert results["cancel"][0].is_zero()
    assert (f == h) == (F == H)
    assert_stored(f)
    vec = tuple(data.draw(st.sampled_from(DENSE_ENTRIES)) for _ in range(ga.total))
    assert f.apply(vec) == F.apply(vec)
    rows = f.sparse_rows()
    assert all(v for r in rows for v in r.values())
    assert [[Fr(r.get(j, 0)) for j in range(ga.total)] for r in rows] == F.data


def _reference_dense(m: BlockMap) -> list[list[Fr]]:
    """m as dense rows, read block by block: the reference for every coordinate reader."""
    out = [[Fr(0)] * m.src.total for _ in range(m.dst.total)]
    for (dl, sl), e in m.blocks.items():
        doff, soff = m.dst.offset(dl), m.src.offset(sl)
        if type(e) is RatMat:
            for r, row in enumerate(e.data):
                out[doff + r][soff : soff + e.cols] = row
        else:
            for r in range(m.src.dim(sl)):
                out[doff + r][soff + r] = Fr(e)
    return out


def assert_readers_agree(m: BlockMap, vec):
    """apply, to_dense, sparse_rows and the document writer read the same coordinates."""
    ref = _reference_dense(m)
    dense = m.to_dense()
    assert (dense.rows, dense.cols) == (m.dst.total, m.src.total)
    assert dense.data == ref
    assert all(type(x) is Fr for row in dense.data for x in row)
    rows = m.sparse_rows()
    assert [{c: x for c, x in enumerate(row) if x} for row in ref] == rows
    assert all(type(x) is int or (type(x) is Fr and x.denominator != 1) for r in rows for x in r.values())
    assert _block_map_to_json(m) == [[rat_to_str(x) for x in row] for row in ref]
    out = m.apply(vec)
    assert out == tuple(sum((a * x for a, x in zip(row, vec)), Fr(0)) for row in ref)
    assert all(type(x) is Fr for x in out)


def test_coordinate_readers_agree_on_every_block_form():
    """Int and Fraction scalars, integral and non-integral dense blocks,
    zero-dimensional labels, and 0 x c and r x 0 maps."""
    src = Grading(("a", "z", "b"), (2, 0, 3))
    dst = Grading(("x", "y", "w"), (2, 3, 0))
    half = RatMat.from_rows([[Fr(1, 2), 0], [0, 1], [Fr(-3, 4), 2]])
    m = BlockMap(src, dst, {
        ("x", "a"): 3,
        ("y", "b"): Fr(1, 2),
        ("x", "b"): RatMat.from_rows([[1, 0, -2], [0, 0, 4]]),
        ("y", "a"): half,
        ("w", "a"): RatMat.zeros(0, 2),
        ("x", "z"): RatMat.zeros(2, 0),
    })
    assert set(m.blocks) == {("x", "a"), ("y", "b"), ("x", "b"), ("y", "a")}
    assert_readers_agree(m, (1, Fr(2, 3), -1, 0, 5))
    empty = Grading(("w",), (0,))
    for g_src, g_dst, vec in ((src, empty, (1, 2, 3, 4, 5)), (empty, dst, ()), (empty, empty, ())):
        assert_readers_agree(BlockMap.zero(g_src, g_dst), vec)
    assert _block_map_to_json(BlockMap.zero(empty, dst)) == [[] for _ in range(5)]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_coordinate_readers_agree(data):
    ga, gb = data.draw(gradings(3)), data.draw(gradings(3))
    m = block_maps(data, ga, gb)
    vec = tuple(data.draw(st.sampled_from(SCALARS + DENSE_ENTRIES)) for _ in range(ga.total))
    assert_readers_agree(m, vec)


def test_cancellations_keep_storage_rule():
    g1, g2 = Grading((0,), (1,)), Grading((0,), (2,))
    half = BlockMap(g1, g1, {(0, 0): Fr(1, 2)})
    assert half.blocks[(0, 0)] == Fr(1, 2)
    two = BlockMap(g1, g1, {(0, 0): Fr(2)})
    assert type(two.blocks[(0, 0)]) is int
    assert type(two.compose(half).blocks[(0, 0)]) is int
    assert two.compose(half) == BlockMap.identity(g1)
    assert type(half.scale(2).blocks[(0, 0)]) is int
    assert (half + half.scale(-1)).is_zero()
    a = BlockMap(g2, g2, {(0, 0): RatMat.from_rows([[1, 0], [0, 0]])})
    b = BlockMap(g2, g2, {(0, 0): RatMat.from_rows([[0, 0], [0, 1]])})
    assert a.compose(b).is_zero() and not a.compose(b).blocks
    # two middle paths that cancel, through int, Fraction and dense blocks: g∘f stores no block
    mid = Grading((0, 1), (1, 1))
    paths = [
        (BlockMap(g1, mid, {(0, 0): 1, (1, 0): 1}), BlockMap(mid, g1, {(0, 0): 1, (0, 1): -1})),
        (BlockMap(g1, mid, {(0, 0): Fr(1, 2), (1, 0): 1}), BlockMap(mid, g1, {(0, 0): 2, (0, 1): -1})),
        (BlockMap(g1, mid, {(0, 0): RatMat.from_rows([[2]]), (1, 0): 1}),
         BlockMap(mid, g1, {(0, 0): Fr(1, 2), (0, 1): -1})),
    ]
    for f, g in paths:
        assert g.compose(f).is_zero() and not g.compose(f).blocks
        assert g.compose(f) == BlockMap.zero(g1, g1)
    assert BlockMap(g2, g2, {(0, 0): Fr(0)}).is_zero()


# -- the row-map form: transports whose target labels each read one source by 1


def row_map(src: Grading, dst: Grading, reads: dict) -> BlockMap:
    """The transport in which target t reads source reads[t] by the identity."""
    m = BlockMap.transport(src, dst, [(t, a, 1) for t, a in reads.items()])
    assert m._rowmap is not None
    return m


def test_row_maps_compose_as_dense_products():
    """Every pairing of the two forms composes to the dense product, including
    a source read twice and labels of dim 0."""
    rng = random.Random(26)
    ga = Grading(("a0", "a1", "a2", "az"), (2, 1, 2, 0))
    gb = Grading(("b0", "b1", "b2", "bz"), (2, 1, 2, 0))
    gc = Grading(("c0", "c1", "c2", "c3", "cz"), (2, 1, 2, 2, 0))
    gd = Grading(("d0", "d1"), (3, 2))
    injective = row_map(ga, gb, {"b0": "a2", "b1": "a1", "b2": "a0", "bz": "az"})
    twice = row_map(gb, gc, {"c0": "b0", "c1": "b1", "c2": "b2", "c3": "b0", "cz": "bz"})
    assert injective._reads_injectively() and not twice._reads_injectively()
    cases = [
        ("row ∘ row", twice, injective, True),
        ("row ∘ blocks", twice, rand_blockmap(rng, ga, gb), False),
        ("blocks ∘ injective row", rand_blockmap(rng, gb, gd), injective, False),
        ("blocks ∘ row read twice", rand_blockmap(rng, gc, gd), twice, False),
        ("blocks ∘ blocks", rand_blockmap(rng, gb, gd), rand_blockmap(rng, ga, gb), False),
    ]
    for name, g, f, stays_row in cases:
        comp = g.compose(f)
        assert comp.to_dense() == g.to_dense() @ f.to_dense(), name
        assert (comp._rowmap is not None) == stays_row, name
        assert_stored(comp)
    # the generic loop sums the two paths through a source read twice
    back = BlockMap(gc, ga, {("a0", "c0"): 1, ("a0", "c3"): -1, ("a1", "c1"): Fr(1, 2)})
    assert back.compose(twice).blocks == {("a1", "b1"): Fr(1, 2)}
    # transports between labels of dim 0 hold no block, and compose to zero maps
    zero = Grading(("p", "q"), (0, 0))
    empty = row_map(zero, zero, {"p": "q", "q": "p"})
    assert empty.is_zero() and empty.blocks == {}
    for g, f in ((empty, empty), (BlockMap.zero(gb, zero), injective),
                 (row_map(zero, ga, {"az": "p"}), BlockMap.zero(gb, zero))):
        comp = g.compose(f)
        assert comp.is_zero() and comp.to_dense() == g.to_dense() @ f.to_dense()


def test_row_map_equals_its_blocks():
    src = Grading(("a", "b"), (2, 1))
    dst = Grading(("x", "y", "z"), (1, 2, 2))
    r = row_map(src, dst, {"x": "b", "y": "a", "z": "a"})
    same = BlockMap(src, dst, {("x", "b"): 1, ("y", "a"): 1, ("z", "a"): RatMat.identity(2)})
    assert same._rowmap is None
    assert r == same and same == r
    assert r == row_map(src, dst, {"z": "a", "x": "b", "y": "a"})
    other = BlockMap(src, dst, {("x", "b"): 1, ("y", "a"): 1, ("z", "a"): -1})
    assert r != other and other != r
    assert r != row_map(src, dst, {"x": "b", "y": "a"})
    assert r.blocks == {("x", "b"): 1, ("y", "a"): 1, ("z", "a"): 1}


def test_transport_keeps_blocks_unless_every_read_is_one():
    g = Grading(("a", "b"), (1, 1))
    for pairs in ([("a", "a", 1), ("b", "b", -1)], [("a", "b", 2)],
                  [("a", "a", 1), ("a", "b", 1)]):
        m = BlockMap.transport(g, g, pairs)
        assert m._rowmap is None, pairs
        assert m.blocks == {(t, a): c for t, a, c in pairs}
    assert BlockMap.transport(g, g, [("a", "b", Fr(1)), ("b", "b", 1)])._rowmap == {"a": "b", "b": "b"}
    assert BlockMap.identity(g)._rowmap == {"a": "a", "b": "b"}


def test_blocks_cannot_be_assigned():
    g = Grading(("a",), (1,))
    for m in (BlockMap.identity(g), BlockMap(g, g, {("a", "a"): 2})):
        with pytest.raises(AttributeError):
            m.blocks = {}
        assert m.to_dense() == RatMat.identity(1).scale(m.blocks[("a", "a")])


def test_mask_bundle_transports_are_row_maps():
    """Every positive face and every degeneracy of dk and of a semi-direct
    product is stored as a row map; only d_0 holds blocks."""
    Y = ChainComplex((1, 2, 1), {1: RatMat.from_rows([[1, 0]]), 2: RatMat.from_rows([[0], [1]])})
    R = random_strict_ruth(pair_groupoid(2), random.Random(3), (1, 1))
    for V in (dk(Y, 5), build_sdp(R, 4)):
        for n in range(V.L + 1):
            for s in V.base.nerve_level(n):
                for i in range(1, n + 1):
                    assert V.face(n, i, s)._rowmap is not None, (n, i, s)
                if n < V.L:
                    for j in range(n + 1):
                        assert V.deg(n, j, s)._rowmap is not None, (n, j, s)
