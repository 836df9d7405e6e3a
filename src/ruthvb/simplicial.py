"""Generic verification helpers for truncated simplicial vector bundles.

Every helper takes a SimpVB and walks its base through base.nerve_level,
base.face and base.degeneracy.  Simplicial vector spaces are bundles over
POINT, whose single simplex per level is None.  All checks are exact.

Facts that read structure maps alone are memoized by the identity of those
maps: an identity verdict per tuple of composed maps and a face kernel per
tuple of face maps.  Where a bundle hands several simplices the same map
object (one transport per pair of gradings), they share one computation;
where it does not, each simplex pays as before.  Over POINT, one simplex per
level, no two identities compose the same maps, so the identity sweep keeps
no verdict memo there and decides each identity directly.

In a mask-graded bundle the positive faces are index transports and only
d_0 carries tower data, so a face kernel whose face set holds 0 and another
face is d_0 restricted to the kernel of the other faces: that kernel is
shared per grading, and only d_0's rows are eliminated per simplex.  The
rule stops at face 0; chaining every face set onto its lowest face slowed
bundles over POINT, whose positive-face chains share nothing.

Horn dimensions are certified between two kernel counts (see horn_dim);
a horn system is built and eliminated only at level 1 and where the counts
disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactla import Subspace, _sub_scaled, restricted_kernel, sparse_kernel_basis, sparse_rank
from .graded import BlockMap
from .groupoid import POINT


@dataclass
class Violation:
    identity: str
    level: int
    key: object
    indices: tuple


@dataclass
class IdentityReport:
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_simplicial_identities(fc, levels=None) -> IdentityReport:
    """Exhaustively check all face/degeneracy identities up to the truncation.

    An identity is decided once per tuple of the maps it composes, keyed by
    their ids: the bundle keeps every face and degeneracy it hands out, so
    no id is reused while it lives.  Where simplices share their structure
    maps (one transport per grading pair), a verdict is read back for every
    simplex it covers, and a failing one is still recorded at each.  The
    d_i d_j verdicts and the per-simplex "all face pairs commute" flag go to
    the bundle (see _face_pairs), where horn_dim reads them; the d_i u_j and
    u_i u_j verdicts key on this sweep's own identity maps and stay local.
    Over POINT no verdict is memoized: no two identities share their maps.
    """
    report = IdentityReport()
    levels = range(fc.L + 1) if levels is None else levels
    verdicts: dict | None = None if fc.base is POINT else {}
    idents: dict = {}  # one identity map per grading object, alive for the sweep

    def record(name, n, key, idx):
        if len(report.violations) < 10:
            report.violations.append(Violation(name, n, key, idx))

    for n in levels:
        for key in fc.base.nerve_level(n):
            # d_i d_j = d_{j-1} d_i  (i < j), needs n >= 2
            if n >= 2:
                commute = True
                for i, j, ok in _face_pairs(fc, n, key):
                    report.checked += 1
                    if not ok:
                        commute = False
                        record("d_i d_j = d_{j-1} d_i", n, key, (i, j))
                fc._faces_commute[n, key] = commute
            # d_i u_j, needs level n+1 <= L
            if n + 1 <= fc.L:
                degs = {j: fc.deg(n, j, key) for j in range(n + 1)}
                dkeys = {j: fc.base.degeneracy(key, j) for j in range(n + 1)}
                g = fc.grading(n, key)
                ident = idents.get(id(g))
                if ident is None:
                    ident = idents[id(g)] = BlockMap.identity(g)
                for j in range(n + 1):
                    for i in range(n + 2):
                        lhs = fc.face(n + 1, i, dkeys[j])
                        if i == j or i == j + 1:
                            c, d = ident, None
                        elif i < j:
                            c, d = fc.deg(n - 1, j - 1, fc.base.face(key, i)), fc.face(n, i, key)
                        else:
                            c, d = fc.deg(n - 1, j, fc.base.face(key, i - 1)), fc.face(n, i - 1, key)
                        report.checked += 1
                        if not _holds(verdicts, lhs, degs[j], c, d):
                            record("d_i u_j", n, key, (i, j))
            # u_i u_j = u_{j+1} u_i (i <= j), needs level n+2 <= L
            if n + 2 <= fc.L:
                for j in range(n + 1):
                    uj = fc.deg(n, j, key)
                    kj = fc.base.degeneracy(key, j)
                    for i in range(j + 1):
                        report.checked += 1
                        if not _holds(verdicts, fc.deg(n + 1, i, kj), uj,
                                      fc.deg(n + 1, j + 1, fc.base.degeneracy(key, i)),
                                      fc.deg(n, i, key)):
                            record("u_i u_j = u_{j+1} u_i", n, key, (i, j))
    return report


def _holds(verdicts: dict | None, a, b, c, d) -> bool:
    """a∘b == c∘d, or a∘b == c when d is None; decided once per tuple of map ids
    in verdicts, or every time when verdicts is None."""
    if verdicts is None:
        return a.compose(b) == (c if d is None else c.compose(d))
    key = (id(a), id(b), id(c), id(d))
    ok = verdicts.get(key)
    if ok is None:
        ok = verdicts[key] = a.compose(b) == (c if d is None else c.compose(d))
    return ok


def _face_pairs(fc, n: int, key):
    """(i, j, d_i d_j == d_{j-1} d_i) over key, for 0 <= i < j <= n.

    Each verdict is decided once per bundle and kept in its write-once
    table, keyed by the ids of the four face maps, which the bundle's face
    table keeps alive; over POINT, where no two pairs share their maps, it
    is decided every time.
    """
    faces = [fc.face(n, i, key) for i in range(n + 1)]
    fkeys = [fc.base.face(key, i) for i in range(n + 1)]
    verdicts = None if fc.base is POINT else fc._pair_verdicts
    for j in range(1, n + 1):
        for i in range(j):
            yield i, j, _holds(verdicts, fc.face(n - 1, i, fkeys[j]), faces[j],
                               fc.face(n - 1, j - 1, fkeys[i]), faces[i])


def faces_commute(fc, n: int, key) -> bool:
    """Whether d_i d_j = d_{j-1} d_i holds for every pair i < j over key at level n.

    Read off the identity sweep when it has run over key; otherwise decided
    here through the same shared verdicts and stored.
    """
    ok = fc._faces_commute.get((n, key))
    if ok is None:
        ok = fc._faces_commute[n, key] = all(ok for _, _, ok in _face_pairs(fc, n, key))
    return ok


# ---------------------------------------------------------------------------
# Kernels of face collections and horn spaces.
# ---------------------------------------------------------------------------


def face_kernel(fc, n: int, key, face_indices) -> Subspace:
    """∩ ker d_i over the given face indices, inside fiber(n, key).

    Computed once per bundle and face set; every caller gets the same
    (immutable) Subspace.

    A face set holding 0 and another face is d_0's kernel restricted to the
    kernel of the other faces; only d_0's rows are eliminated per simplex.
    Every other face set is eliminated in one system, behind a second table
    keyed by the fiber's grading and the face maps themselves, so simplices
    that share their maps (every positive face of a uniform bundle) share
    one elimination.  Chaining the lowest face onto the rest pays only where
    the rest is shared, and positive-face chains over POINT share nothing.
    """
    faces = tuple(face_indices)
    memo = (n, key, faces)
    sub = fc._kernels.get(memo)
    if sub is None:
        if 0 in faces and len(faces) > 1:
            rest = face_kernel(fc, n, key, [i for i in faces if i])
            sub = restricted_kernel(rest, fc.face(n, 0, key).sparse_rows())
        else:
            g = fc.grading(n, key)
            maps = [fc.face(n, i, key) for i in faces]
            shared = (n, id(g), *map(id, maps))
            sub = fc._kernels_by_maps.get(shared)
            if sub is None:
                rows = [r for m in maps for r in m.sparse_rows() if r]
                sub = fc._kernels_by_maps[shared] = Subspace.span(
                    g.total, sparse_kernel_basis(rows, g.total))
        fc._kernels[memo] = sub
    return sub


@dataclass
class HornSystem:
    """The matching-equation system cutting the (n,k)-horn space out of the
    product of the slot fibers (j != k, in order): total coordinates, and
    one sparse row per coordinate of every d_i(v_j) = d_{j-1}(v_i), i < j."""

    total: int
    rows: list[dict[int, Fraction]]


def horn_system(fc, n: int, k: int, key) -> HornSystem:
    slots = [j for j in range(n + 1) if j != k]
    fkeys = {j: fc.base.face(key, j) for j in slots}
    offset = {}
    t = 0
    for j in slots:
        offset[j] = t
        t += fc.fiber_dim(n - 1, fkeys[j])
    rows = [_pair_row(offset[j], ra, offset[i], rb)
            for j in slots for i in slots if i < j
            for ra, rb in zip(fc.face(n - 1, i, fkeys[j]).sparse_rows(),
                              fc.face(n - 1, j - 1, fkeys[i]).sparse_rows())]
    return HornSystem(t, rows)


def _pair_row(oj: int, ra: dict, oi: int, rb: dict) -> dict[int, Fraction]:
    """Row ra of d_i at v_j's offset minus row rb of d_{j-1} at v_i's offset."""
    row = {oj + c: v for c, v in ra.items()}
    _sub_scaled(row, rb, 1, oi)
    return row


def horn_bounds(fc, n: int, k: int, key) -> tuple[int | None, int]:
    """(lower, upper) bounds of the (n,k)-horn dimension over key, from face kernels.

    upper = Σ dim K_j over the slots j != k, where K_j is the intersection of
    ker d_{e-1} over the slots e > j, inside the fiber over d_j(key).
    lower = rank h_k = dim V_n - dim ker h_k, or None unless every face pair
    commutes over key.  horn_dim states why lower <= horn dim <= upper.
    """
    upper = 0
    for j in range(n, -1, -1):
        if j == k:
            continue
        fkey = fc.base.face(key, j)
        faces = [e - 1 for e in range(j + 1, n + 1) if e != k]
        upper += face_kernel(fc, n - 1, fkey, faces).dim if faces else fc.fiber_dim(n - 1, fkey)
    lower = None
    if faces_commute(fc, n, key):
        lower = fc.fiber_dim(n, key) - face_kernel(fc, n, key, [i for i in range(n + 1) if i != k]).dim
    return lower, upper


def horn_dim(fc, n: int, k: int, key) -> int:
    """Dimension of the (n,k)-horn space over key; computed once per bundle.

    For n >= 2 it is certified between two kernel counts (horn_bounds):

    - upper: take the slots j != k from the top down.  Forgetting the last
      slot taken is a linear map between the horn's images in the slots
      taken so far, and its kernel is the tuples that vanish except at
      slot j; the matching equations d_j v_e = d_{e-1} v_j with the slots
      e > j then say d_{e-1} v_j = 0, so that kernel lies in K_j and
      dim Λ^n_k <= Σ dim K_j, for any maps.  Every K_j with j >= 1 is a
      positive-face kernel, shared per grading by face_kernel; K_0 is the
      (n-1, k-1)-relative horn kernel over d_0(key), and the first slot's
      K_j is its whole fiber.
    - lower: when d_i d_j = d_{j-1} d_i holds for every pair over key, the
      horn map h_k = (d_j)_{j != k} lands in the horn space, so its rank,
      dim V_n - dim ker h_k, is at most dim Λ^n_k.

    When every face pair commutes and the two counts agree, both equal
    dim Λ^n_k.
    Otherwise (a failed identity, a horn that h_k does not fill, and n = 1,
    whose system has no rows) the matching system is eliminated.
    """
    memo = (n, k, key)
    d = fc._horn_dims.get(memo)
    if d is None:
        lower, upper = horn_bounds(fc, n, k, key) if n >= 2 else (None, None)
        if lower is not None and lower == upper:
            d = upper
        else:
            hs = horn_system(fc, n, k, key)
            d = hs.total - sparse_rank(hs.rows)
        fc._horn_dims[memo] = d
    return d

