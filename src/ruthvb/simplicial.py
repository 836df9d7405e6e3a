"""Generic verification helpers for truncated simplicial vector bundles.

Every helper takes a SimpVB and walks its base through base.nerve_level,
base.face and base.degeneracy.  Simplicial vector spaces are bundles over
POINT, whose single simplex per level is None.  All checks are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactla import Subspace, sparse_kernel_basis, sparse_rank
from .graded import BlockMap, Grading


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
    """Exhaustively check all face/degeneracy identities up to the truncation."""
    report = IdentityReport()
    levels = range(fc.L + 1) if levels is None else levels

    def record(name, n, key, idx):
        if len(report.violations) < 10:
            report.violations.append(Violation(name, n, key, idx))

    for n in levels:
        for key in fc.base.nerve_level(n):
            # d_i d_j = d_{j-1} d_i  (i < j), needs n >= 2
            if n >= 2:
                faces = {i: fc.face(n, i, key) for i in range(n + 1)}
                fkeys = {i: fc.base.face(key, i) for i in range(n + 1)}
                for j in range(1, n + 1):
                    for i in range(j):
                        lhs = fc.face(n - 1, i, fkeys[j]).compose(faces[j])
                        rhs = fc.face(n - 1, j - 1, fkeys[i]).compose(faces[i])
                        report.checked += 1
                        if lhs != rhs:
                            record("d_i d_j = d_{j-1} d_i", n, key, (i, j))
            # d_i u_j, needs level n+1 <= L
            if n + 1 <= fc.L:
                degs = {j: fc.deg(n, j, key) for j in range(n + 1)}
                dkeys = {j: fc.base.degeneracy(key, j) for j in range(n + 1)}
                ident = BlockMap.identity(fc.grading(n, key))
                for j in range(n + 1):
                    for i in range(n + 2):
                        lhs = fc.face(n + 1, i, dkeys[j]).compose(degs[j])
                        if i == j or i == j + 1:
                            rhs = ident
                        elif i < j:
                            rhs = fc.deg(n - 1, j - 1, fc.base.face(key, i)).compose(
                                fc.face(n, i, key)
                            )
                        else:
                            rhs = fc.deg(n - 1, j, fc.base.face(key, i - 1)).compose(
                                fc.face(n, i - 1, key)
                            )
                        report.checked += 1
                        if lhs != rhs:
                            record("d_i u_j", n, key, (i, j))
            # u_i u_j = u_{j+1} u_i (i <= j), needs level n+2 <= L
            if n + 2 <= fc.L:
                for j in range(n + 1):
                    uj = fc.deg(n, j, key)
                    kj = fc.base.degeneracy(key, j)
                    for i in range(j + 1):
                        lhs = fc.deg(n + 1, i, kj).compose(uj)
                        rhs = fc.deg(n + 1, j + 1, fc.base.degeneracy(key, i)).compose(
                            fc.deg(n, i, key)
                        )
                        report.checked += 1
                        if lhs != rhs:
                            record("u_i u_j = u_{j+1} u_i", n, key, (i, j))
    return report


# ---------------------------------------------------------------------------
# Kernels of face collections and horn spaces.
# ---------------------------------------------------------------------------


def face_kernel(fc, n: int, key, face_indices) -> Subspace:
    """∩ ker d_i over the given face indices, inside fiber(n, key).

    Computed once per bundle and face set; every caller gets the same
    (immutable) Subspace.
    """
    memo = (n, key, tuple(face_indices))
    sub = fc._kernels.get(memo)
    if sub is None:
        g = fc.grading(n, key)
        rows = []
        for i in memo[2]:
            rows.extend(fc.face(n, i, key).sparse_rows())
        basis = sparse_kernel_basis([r for r in rows if r], g.total)
        sub = fc._kernels[memo] = Subspace.span(g.total, basis)
    return sub


@dataclass
class HornSystem:
    """The matching-equation system cutting the (n,k)-horn space out of a product."""

    n: int
    k: int
    key: object
    slots: tuple[int, ...]  # face indices j != k in order
    slot_gradings: tuple[Grading, ...]
    offsets: tuple[int, ...]
    total: int
    rows: list[dict[int, Fraction]]


def horn_system(fc, n: int, k: int, key) -> HornSystem:
    slots = tuple(j for j in range(n + 1) if j != k)
    gradings = tuple(fc.grading(n - 1, fc.base.face(key, j)) for j in slots)
    offsets = []
    t = 0
    for g in gradings:
        offsets.append(t)
        t += g.total
    slot_pos = {j: p for p, j in enumerate(slots)}
    rows: list[dict[int, Fraction]] = []
    if n >= 2:
        for j in slots:
            kj = fc.base.face(key, j)
            for i in slots:
                if i >= j:
                    continue
                # d_i(v_j) = d_{j-1}(v_i)
                a = fc.face(n - 1, i, kj).sparse_rows()
                b = fc.face(n - 1, j - 1, fc.base.face(key, i)).sparse_rows()
                oj = offsets[slot_pos[j]]
                oi = offsets[slot_pos[i]]
                for ra, rb in zip(a, b):
                    row = {oj + c: v for c, v in ra.items()}
                    for c, v in rb.items():
                        cc = oi + c
                        nv = row.get(cc, 0) - v
                        if nv:
                            row[cc] = nv
                        else:
                            row.pop(cc, None)
                    if row:
                        rows.append(row)
    return HornSystem(n, k, key, slots, gradings, tuple(offsets), t, rows)


def horn_dim(fc, n: int, k: int, key) -> int:
    """Dimension of the (n,k)-horn space over key; computed once per bundle."""
    memo = (n, k, key)
    d = fc._horn_dims.get(memo)
    if d is None:
        hs = horn_system(fc, n, k, key)
        d = fc._horn_dims[memo] = hs.total - sparse_rank(hs.rows, hs.total)
    return d


def horn_map_dense(fc, n: int, k: int, key):
    """Stacked faces (j != k) as one dense matrix fiber(n,key) -> product of faces."""
    from .exactla import RatMat

    mats = [fc.face(n, j, key).to_dense() for j in range(n + 1) if j != k]
    return RatMat.vstack(mats)
