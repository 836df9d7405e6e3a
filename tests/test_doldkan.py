import dataclasses
import hashlib
import random
from fractions import Fraction as Fr

import pytest

from conftest import horn_map_dense, random_chain_complex
from ruthvb.documents import canonical_dumps
from ruthvb.doldkan import (
    ChainComplex,
    check_unique_flat_cleavage,
    degenerate_span,
    dk,
    dk_classic,
    dk_sign_iso,
    half_twist_sign,
    mono_epi_duality,
    normalization_roundtrip,
    normalize,
    sign_flip,
    surjection_labels,
)
from ruthvb.errors import ValidationError
from ruthvb.exactla import RatMat, Subspace, intersect, kernel, preimage, sparse_kernel_basis
from ruthvb.graded import BlockMap
from ruthvb.groupoid import POINT
from ruthvb.ordmaps import zero_mono_masks
from ruthvb.simplicial import (
    face_kernel,
    horn_dim,
    verify_simplicial_identities,
)
from ruthvb.svb import Cleavage, SimpVB, _face_rows, _prefix_rows

TWO_STEP = ChainComplex((1, 2, 1), {1: RatMat.from_rows([[1, 0]]), 2: RatMat.from_rows([[0], [1]])})


def test_boundary_squared_rejected():
    with pytest.raises(ValidationError):
        ChainComplex((1, 1, 1), {1: RatMat.from_rows([[1]]), 2: RatMat.from_rows([[1]])})


def test_constant_complex_gives_constant_object():
    Y = ChainComplex((2,), {})
    X = dk(Y, 4)
    for n in range(5):
        assert X.dim(n) == 2
    norm = normalize(X)
    assert norm.dims == (2, 0, 0, 0, 0)


def test_dk_level_dims_count_monos():
    X = dk(TWO_STEP, 5)
    from math import comb

    for n in range(6):
        assert X.dim(n) == sum(comb(n, k) * TWO_STEP.dim(k) for k in range(n + 1))


def test_dk_case_blocks():
    # the boundary block sits on the primed index, interior deletions are signs
    Y = TWO_STEP
    X = dk(Y, 3)
    d0 = X.face(2, 0)
    src, dst = X.grading(2), X.grading(1)
    assert d0.blocks[(0b11, 0b111)] == Y.d(2)  # boundary block
    assert d0.blocks[(0b11, 0b101)] == Fr(1)  # drop the interior element
    assert d0.blocks[(0b11, 0b011)] == Fr(-1)  # drop the top element


def test_simplicial_identities_random(toplevel=6):
    rng = random.Random(7)
    for _ in range(5):
        Y = random_chain_complex(rng)
        rep = verify_simplicial_identities(dk(Y, toplevel))
        assert rep.ok, rep.violations[:3]


def test_roundtrip_constructed_iso():
    rng = random.Random(11)
    for _ in range(8):
        Y = random_chain_complex(rng)
        X = dk(Y, Y.max_degree + 3)
        norm, iso = normalization_roundtrip(Y, X)
        assert norm.dims[: len(Y.dims)] == Y.dims
        for n in range(1, len(Y.dims)):
            assert iso[n - 1] @ norm.boundary[n] == Y.d(n) @ iso[n]


def test_degenerate_span_is_top_kernel():
    Y = TWO_STEP
    X = dk(Y, 4)
    for n in range(1, 5):
        D = degenerate_span(X, n)
        full = (1 << (n + 1)) - 1
        g = X.grading(n)
        rows = RatMat.zeros(g.dim(full), g.total)
        for r in range(g.dim(full)):
            rows.data[r][g.offset(full) + r] = Fr(1)
        assert D == kernel(rows)
        assert D.dim + Y.dim(n) == X.dim(n)


def test_kernel_support_characterization():
    # positive-face kernels pick out the components containing the face index
    Y = TWO_STEP
    X = dk(Y, 4)
    for n in (2, 3):
        for i in range(1, n + 1):
            K = face_kernel(X, n, None, [i])
            g = X.grading(n)
            expect = []
            for mask in zero_mono_masks(n):
                if not (mask >> i) & 1:
                    continue
                for r in range(g.dim(mask)):
                    v = [Fr(0)] * g.total
                    v[g.offset(mask) + r] = Fr(1)
                    expect.append(v)
            assert K == Subspace.from_rows(g.total, expect)
    # and the full intersection is supported on the top index alone
    K = face_kernel(X, 2, None, [1, 2])
    g = X.grading(2)
    assert K.dim == g.dim(0b111)
    for row in K.mat.data:
        assert all(v == 0 for v in row[: g.offset(0b111)])


def test_kan_horns_fill_uniquely_above_top_degree():
    Y = TWO_STEP
    L = 5
    X = dk(Y, L)
    for n in range(1, L + 1):
        for k in range(n + 1):
            hd = horn_dim(X, n, k, None)
            stacked = horn_map_dense(X, n, k, None)
            assert stacked.rank() == hd  # fillers exist
            unique = X.dim(n) == stacked.rank()
            assert unique == (n > Y.max_degree)


def test_check_unique_flat_cleavage():
    rng = random.Random(3)
    for _ in range(3):
        Y = random_chain_complex(rng, max_degree=3, max_dim=2)
        X = dk(Y, Y.max_degree + 2)
        rep = check_unique_flat_cleavage(X)
        assert rep.ok


def test_horn_iso_details_match_dense_reference():
    """Each horn-iso rank is rank(h_k restricted to D), read off the dense horn map."""
    rng = random.Random(3)
    for _ in range(3):
        Y = random_chain_complex(rng, max_degree=3, max_dim=2)
        X = dk(Y, Y.max_degree + 2)
        expect = []
        for n in range(1, X.L + 1):
            D = degenerate_span(X, n)
            for k in range(n):
                rk = (horn_map_dense(X, n, k, None) @ D.mat.transpose()).rank()
                expect.append((n, k, f"rank {rk}, dim D {D.dim}, horn {horn_dim(X, n, k, None)}"))
        rep = check_unique_flat_cleavage(X)
        assert [(c.level, c.k, c.detail) for c in rep.horn_iso] == expect


def _reference_flat_witness(X, spans, n):
    """{w in D_n : s_k w in D_k for 0 < k < n, d_i w in D_{n-1} for i > 0} by preimages."""
    W = spans[n]
    for k in range(1, n):
        prefix = RatMat.identity(X.dim(n))
        for m in range(n, k, -1):
            prefix = X.face(m, m).to_dense() @ prefix
        W = intersect(W, preimage(prefix, spans[k]))
    for i in range(1, n + 1):
        W = intersect(W, preimage(X.face(n, i).to_dense(), spans[n - 1]))
    return W


def test_flat_witness_matches_preimage_reference():
    rng = random.Random(3)
    for _ in range(3):
        Y = random_chain_complex(rng, max_degree=3, max_dim=2)
        X = dk(Y, Y.max_degree + 2)
        spans = {n: degenerate_span(X, n) for n in range(X.L + 1)}
        D = Cleavage(X, basis_fn=lambda n, s: spans[n])
        refs = {n: _reference_flat_witness(X, spans, n) for n in range(2, X.L + 1)}
        for n, ref in refs.items():
            rows = _prefix_rows(X, D, n, None) + [r for F in _face_rows(X, D, n, None)[1:] for r in F]
            W = Subspace.span(X.dim(n), sparse_kernel_basis(rows, X.dim(n)))
            assert W == ref
        rep = check_unique_flat_cleavage(X)
        assert [c.detail for c in rep.flatness] == [f"witness dim {refs[n].dim}" for n in refs]


def test_trivial_complex_everything_degenerate():
    Y = ChainComplex((1,), {})
    X = dk(Y, 4)
    rep = check_unique_flat_cleavage(X)
    assert rep.ok
    for n in range(1, 5):
        assert degenerate_span(X, n).dim == X.dim(n)


def test_dk_classic_dims_and_normalization():
    rng = random.Random(13)
    for _ in range(6):
        Y = random_chain_complex(rng)
        L = Y.max_degree + 3
        Xc = dk_classic(Y, L)
        X = dk(Y, L)
        for n in range(L + 1):
            assert X.dim(n) == Xc.dim(n)
        assert verify_simplicial_identities(Xc, levels=range(min(L, 5) + 1)).ok
        norm, iso = normalization_roundtrip(Y, Xc)
        assert norm.dims[: len(Y.dims)] == Y.dims
        for n in range(1, len(Y.dims)):
            assert iso[n - 1] @ norm.boundary[n] == Y.d(n) @ iso[n]


def test_levelwise_identification_not_simplicial():
    """The epi/mono pairing matches levels but no degeneracy square commutes."""
    Y = ChainComplex((0, 1), {})
    L = 3
    X, Xc = dk(Y, L), dk_classic(Y, L)
    found = False
    for n in range(L):
        pairing_n = mono_epi_duality(n)
        pairing_n1 = mono_epi_duality(n + 1)
        iso_n = _pairing_iso(X, Xc, n, pairing_n)
        iso_n1 = _pairing_iso(X, Xc, n + 1, pairing_n1)
        for j in range(n + 1):
            lhs = iso_n1 @ X.deg(n, j).to_dense()
            rhs = Xc.deg(n, j).to_dense() @ iso_n
            if lhs != rhs:
                found = True
    assert found


def _pairing_iso(X, Xc, n, pairing):
    g, gc = X.grading(n), Xc.grading(n)
    out = RatMat.zeros(gc.total, g.total)
    for mask, label in pairing.items():
        d = g.dim(mask)
        assert d == gc.dim(label)
        for r in range(d):
            out.data[gc.offset(label) + r][g.offset(mask) + r] = Fr(1)
    return out


def test_sign_conventions():
    assert [half_twist_sign(n) for n in range(5)] == [1, 1, -1, -1, 1]
    Y = TWO_STEP
    iso = dk_sign_iso(Y, 4)
    Xf, X = dk(sign_flip(Y), 4), dk(Y, 4)
    for n in range(1, 5):
        for i in range(n + 1):
            assert iso[n - 1].compose(Xf.face(n, i)) == X.face(n, i).compose(iso[n])
    for n in range(4):
        for j in range(n + 1):
            assert iso[n + 1].compose(Xf.deg(n, j)) == X.deg(n, j).compose(iso[n])


def test_surjection_labels_counts():
    from math import comb

    for n in range(6):
        labels = surjection_labels(n)
        assert len(labels) == 2 ** n
        for k in range(n + 1):
            assert sum(1 for l in labels if l[-1] == k) == comb(n, k)


def _moved(m):
    """m with its first block, a transport block, moved by 1/2."""
    dl, sl = next(iter(m.blocks))
    return m + BlockMap.transport(m.src, m.dst, [(dl, sl, Fr(1, 2))])


def _perturbed_dk(Y):
    """dk(Y) with its (2, 1) face moved by 1/2 on one transport block."""
    X = dk(Y)

    def face(n, i, s=None):
        f = X.face(n, i)
        return _moved(f) if (n, i) == (2, 1) else f

    return SimpVB(POINT, X.L, X.grading, face, X.deg)


@pytest.mark.parametrize("j", [0, 1])
def test_degeneracy_perturbation_reported(j):
    """Moving a block of u_j at level 1 breaks d_j u_j = id = d_{j+1} u_j there."""
    X = dk(TWO_STEP)

    def deg(n, jj, s=None):
        u = X.deg(n, jj)
        return _moved(u) if (n, jj) == (1, j) else u

    rep = verify_simplicial_identities(SimpVB(POINT, X.L, X.grading, X.face, deg))
    assert rep.checked == verify_simplicial_identities(X).checked
    at_level_1 = {v.indices for v in rep.violations if v.identity == "d_i u_j" and v.level == 1}
    assert at_level_1 == {(0, j), (1, j), (2, j)}


def _identity_report_digests():
    digests = []
    for seed in range(10):
        Y = random_chain_complex(random.Random(seed), 3, 2)
        for build in (dk, dk_classic):
            rep = verify_simplicial_identities(build(Y))
            digests.append(hashlib.sha256(canonical_dumps(dataclasses.asdict(rep)).encode()).hexdigest())
    rep = verify_simplicial_identities(_perturbed_dk(TWO_STEP))
    assert not rep.ok
    digests.append(hashlib.sha256(canonical_dumps(dataclasses.asdict(rep)).encode()).hexdigest())
    return digests


# sha256 of the canonical-JSON identity reports (checked count and violations)
# of dk then dk_classic on random_chain_complex(Random(seed), 3, 2) for seeds
# 0..9, then of TWO_STEP's dk with one face block moved by a non-integral rational
PINNED_IDENTITY_REPORTS = [
    "224830862b6959d81a250017b569bd239b0af9580ef762f969d4535f6aa55896",
    "224830862b6959d81a250017b569bd239b0af9580ef762f969d4535f6aa55896",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "c0b8a04b85310b327ae55dd34f06d0668d1c1eded30e98b3ff0351e1915245df",
    "c0b8a04b85310b327ae55dd34f06d0668d1c1eded30e98b3ff0351e1915245df",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "fc08c7d3c4daf848e3bd3e823a316b17d09b57434377fdb044041c00394d9f50",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "c0b8a04b85310b327ae55dd34f06d0668d1c1eded30e98b3ff0351e1915245df",
    "c0b8a04b85310b327ae55dd34f06d0668d1c1eded30e98b3ff0351e1915245df",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "3c972b387b11e2b85319af23425da54222dd15f6ab59054c014faaea4ca81d89",
    "d7f0724220485d6069b105752d8d6ecab241ae229b8b3234856ab61949ab4680",
]


def test_identity_reports_pinned():
    assert _identity_report_digests() == PINNED_IDENTITY_REPORTS
