"""Shared generators: random chain complexes, strict towers, gauge data.

Everything is seeded; entries stay small so long products of rationals keep
bounded numerators and denominators.
"""

from __future__ import annotations

import random
from fractions import Fraction as Fr

import pytest

from ruthvb.doldkan import ChainComplex
from ruthvb.exactla import RatMat
from ruthvb.groupoid import FinGroupoid, cyclic_group, pair_groupoid, unit_groupoid
from ruthvb.ruth import GaugeData, GradedBundle, Ruth, strict_ruth, uniform_bundle


def _staircase_boundary(rng: random.Random, dims) -> dict[int, RatMat]:
    """Boundaries supported on disjoint staircases, exact by construction."""
    scales = [Fr(1), Fr(1, 2), Fr(2), Fr(1, 3), Fr(3), Fr(-1), Fr(-2)]
    ranks: list[int] = []
    boundary = {}
    for k in range(1, len(dims)):
        cap = min(dims[k - 1], dims[k])
        if k >= 2:
            cap = min(cap, dims[k - 1] - ranks[-1])
        r = rng.randint(0, max(cap, 0))
        ranks.append(r)
        D = RatMat.zeros(dims[k - 1], dims[k])
        for i in range(r):
            D.data[i][dims[k] - r + i] = rng.choice(scales)
        boundary[k] = D
    return boundary


def random_chain_complex(rng: random.Random, max_degree: int = 4, max_dim: int = 3) -> ChainComplex:
    """Exact-by-construction boundary with entries of height at most nine."""
    top = rng.randint(0, max_degree)
    dims = [rng.randint(0, max_dim) for _ in range(top + 1)]
    if sum(dims) == 0:
        dims[0] = 1
    Y = ChainComplex(dims, _staircase_boundary(rng, dims))
    for n in range(1, len(dims)):
        for row in Y.d(n).data:
            for x in row:
                assert abs(x.numerator) <= 9 and x.denominator <= 9
    return Y


def conjugated_chain_complex(rng: random.Random, max_degree: int = 4, max_dim: int = 3) -> ChainComplex:
    """Staircase complex conjugated by unitriangular moves, entries still small."""
    Y = random_chain_complex(rng, max_degree, max_dim)
    P = {}
    for k in range(len(Y.dims)):
        m = RatMat.identity(Y.dims[k])
        if Y.dims[k] >= 2:
            a, b = rng.sample(range(Y.dims[k]), 2)
            m.data[a][b] = Fr(rng.choice([-1, 1]))
        P[k] = m
    inv = {k: _unitriangular_inverse(P[k]) for k in P}
    boundary = {n: P[n - 1] @ Y.d(n) @ inv[n] for n in range(1, len(Y.dims))}
    Z = ChainComplex(Y.dims, boundary)
    for n in range(1, len(Z.dims)):
        for row in Z.d(n).data:
            for x in row:
                assert abs(x.numerator) <= 9 and x.denominator <= 9
    return Z


def _unitriangular_inverse(P: RatMat) -> RatMat:
    # P = I + single off-diagonal entry, so the inverse flips its sign
    inv = P.copy()
    for i in range(P.rows):
        for j in range(P.cols):
            if i != j and P.data[i][j]:
                inv.data[i][j] = -P.data[i][j]
    return inv


def horn_map_dense(fc, n: int, k: int, key) -> RatMat:
    """Dense reference: the faces d_j, j != k, stacked as one matrix fiber(n, key) -> product of faces."""
    return RatMat.vstack([fc.face(n, j, key).to_dense() for j in range(n + 1) if j != k])


def object_signs(G: FinGroupoid, rng: random.Random):
    return [Fr(rng.choice([1, -1, 2, 1, 1])) for _ in range(G.n_objects)]


def random_strict_ruth(G: FinGroupoid, rng: random.Random, dims) -> Ruth:
    """Strict tower: shared staircase differential, scalar frame arrow maps."""
    E = uniform_bundle(G, dims)
    N = len(dims) - 1
    ydims = list(dims)
    boundary = _staircase_boundary(rng, ydims)
    ChainComplex(ydims, boundary)  # raises if the staircase is not exact
    one_object = G.n_objects == 1
    if one_object:
        # group case: arrow maps must compose along the group law; use a
        # global character with values +-1 (squares to the identity)
        sign_of = {}
        for g in range(G.n_arrows):
            sign_of[g] = Fr(1)
        # order-two elements may act by -1
        for g in range(G.n_arrows):
            if not G.is_unit(g) and G.comp[(g, g)] == G.unit_of_obj[0] and rng.random() < 0.7:
                sign_of[g] = Fr(-1)
        arrow_scale = lambda g: sign_of[g]
    else:
        eps = object_signs(G, rng)
        arrow_scale = lambda g: eps[G.arrow_tgt[g]] / eps[G.arrow_src[g]]
    diff = {x: dict(boundary) for x in range(G.n_objects)}
    arrows = {
        g: {k: RatMat.identity(ydims[k]).scale(arrow_scale(g)) for k in range(N + 1)}
        for g in range(G.n_arrows)
    }
    return strict_ruth(E, diff, arrows)


def random_gauge(E: GradedBundle, rng: random.Random, spread=(-2, 2)) -> GaugeData:
    """Higher operators on nondegenerate simplices, small rational entries."""
    G = E.G
    higher = {}
    for m in range(1, E.N + 1):
        for s in G.nerve_level(m):
            if G.is_degenerate(s):
                continue
            table = {}
            for deg in E.degrees():
                rows = E.dim(G.vertex_obj(s, m), deg + m)
                cols = E.dim(s.x0, deg)
                if rows == 0 or cols == 0:
                    continue
                mat = RatMat.zeros(rows, cols)
                touched = False
                for i in range(rows):
                    for j in range(cols):
                        if rng.random() < 0.8:
                            mat.data[i][j] = Fr(rng.randint(*spread), rng.randint(1, 2))
                            touched = touched or mat.data[i][j] != 0
                if touched:
                    table[deg] = mat
            if table:
                higher[(m, s)] = table
    return GaugeData(E, higher)


def make_base(name: str) -> FinGroupoid:
    if name == "unit(2)":
        return unit_groupoid(2)
    if name == "pair(2)":
        return pair_groupoid(2)
    if name == "pair(3)":
        return pair_groupoid(3)
    if name == "Z/2":
        return cyclic_group(2)
    raise KeyError(name)


DIMS_BY_ORDER = {
    0: [(1,), (2,)],
    1: [(1, 1), (2, 1), (1, 2)],
    2: [(1, 1, 1)],
}

# (base, order, count): 50 fixtures total, heavier bases kept at lower order
FIXTURE_PLAN = [
    ("unit(2)", 0, 2), ("unit(2)", 1, 3), ("unit(2)", 2, 2),
    ("Z/2", 0, 3), ("Z/2", 1, 5), ("Z/2", 2, 3),
    ("pair(2)", 0, 4), ("pair(2)", 1, 8), ("pair(2)", 2, 3),
    ("pair(3)", 0, 7), ("pair(3)", 1, 10),
]
assert sum(c for _, _, c in FIXTURE_PLAN) == 50


def build_fixture_towers():
    """The 50 gauge-twisted towers shared by the acceptance criteria."""
    from ruthvb.ruth import gauge_twist

    out = []
    seed = 100
    for base_name, order, count in FIXTURE_PLAN:
        for c in range(count):
            seed += 1
            rng = random.Random(seed)
            G = make_base(base_name)
            dims = DIMS_BY_ORDER[order][c % len(DIMS_BY_ORDER[order])]
            R0 = random_strict_ruth(G, rng, dims)
            psi = random_gauge(R0.E, rng)
            R = gauge_twist(R0, psi)
            out.append({
                "name": f"{base_name}/N{order}/seed{seed}",
                "base": base_name,
                "order": order,
                "L": 2 * order + 3,
                "strict": R0,
                "gauge": psi,
                "tower": R,
            })
    return out


@pytest.fixture(scope="session")
def fixture_towers():
    return build_fixture_towers()


@pytest.fixture(scope="session")
def fixture_bundles(fixture_towers):
    """Semi-direct products of the 50 fixtures, built once and shared."""
    from ruthvb.sdp import build_sdp

    return [
        (fx, build_sdp(fx["tower"], fx["L"], validate=False)) for fx in fixture_towers
    ]
