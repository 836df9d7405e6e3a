"""Monotone maps between finite ordinals and the index combinatorics built on them.

An ``OrdMap`` is an order-preserving map [k] -> [n] between the ordinals
[k] = {0, ..., k}.  Injective maps are identified with their image sets,
encoded as bitmasks, which is how all the direct-sum index bookkeeping in
the rest of the library is driven.  Values are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import DimensionMismatch


@dataclass(frozen=True)
class OrdMap:
    """A monotone map [dom] -> [cod], stored as its tuple of images."""

    dom: int
    cod: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.dom < 0 or self.cod < 0:
            raise ValueError("ordinals must be nonnegative")
        if len(self.images) != self.dom + 1:
            raise ValueError("images must have length dom+1")
        prev = 0
        for v in self.images:
            if not 0 <= v <= self.cod:
                raise ValueError(f"image {v} outside [0..{self.cod}]")
            if v < prev:
                raise ValueError(f"images {self.images} not weakly monotone")
            prev = v

    def __call__(self, i: int) -> int:
        return self.images[i]

    def is_injective(self) -> bool:
        return len(set(self.images)) == len(self.images)

    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.cod + 1

    def preserves_zero(self) -> bool:
        return self.images[0] == 0


def identity(n: int) -> OrdMap:
    return OrdMap(n, n, tuple(range(n + 1)))


iota = identity


def delta(i: int, n: int) -> OrdMap:
    """The injection [n-1] -> [n] missing i."""
    if not 0 <= i <= n:
        raise ValueError(f"delta index {i} outside 0..{n}")
    return OrdMap(n - 1, n, tuple(v for v in range(n + 1) if v != i))


def upsilon(j: int, n: int) -> OrdMap:
    """The surjection [n+1] -> [n] repeating j."""
    if not 0 <= j <= n:
        raise ValueError(f"upsilon index {j} outside 0..{n}")
    return OrdMap(n + 1, n, tuple(v if v <= j else v - 1 for v in range(n + 2)))


def sigma(k: int, n: int) -> OrdMap:
    """The first inclusion [k] -> [n], i -> i."""
    if not 0 <= k <= n:
        raise ValueError(f"sigma index {k} outside 0..{n}")
    return OrdMap(k, n, tuple(range(k + 1)))


def tau(k: int, n: int) -> OrdMap:
    """The last inclusion [k] -> [n], i -> i + n - k."""
    if not 0 <= k <= n:
        raise ValueError(f"tau index {k} outside 0..{n}")
    return OrdMap(k, n, tuple(i + n - k for i in range(k + 1)))


def vertex(i: int, n: int) -> OrdMap:
    """The vertex inclusion [0] -> [n] hitting i."""
    if not 0 <= i <= n:
        raise ValueError(f"vertex index {i} outside 0..{n}")
    return OrdMap(0, n, (i,))


def compose(outer: OrdMap, inner: OrdMap) -> OrdMap:
    """Pointwise composite outer∘inner : [inner.dom] -> [outer.cod]."""
    if inner.cod != outer.dom:
        raise DimensionMismatch(
            f"cannot compose [{inner.dom}]->[{inner.cod}] into [{outer.dom}]->[{outer.cod}]"
        )
    return OrdMap(inner.dom, outer.cod, tuple(outer.images[v] for v in inner.images))


def prime(theta: OrdMap) -> OrdMap:
    """Shift a map one step up: theta'(0) = 0 and theta'(i+1) = theta(i)+1."""
    return OrdMap(theta.dom + 1, theta.cod + 1, (0,) + tuple(v + 1 for v in theta.images))


def factor_epi_mono(theta: OrdMap) -> tuple[OrdMap, OrdMap]:
    """Unique factorization theta = mono ∘ epi through the image ordinal."""
    values = sorted(set(theta.images))
    k = len(values) - 1
    rank = {v: r for r, v in enumerate(values)}
    epi = OrdMap(theta.dom, k, tuple(rank[v] for v in theta.images))
    mono = OrdMap(k, theta.cod, tuple(values))
    return epi, mono


# ---------------------------------------------------------------------------
# Bitmask encoding of injective maps preserving 0.
#
# An injective monotone alpha:[k]->[n] with alpha(0)=0 is the same as a subset
# of {0..n} containing 0; the canonical enumeration order is ascending bitmask.
# ---------------------------------------------------------------------------


def mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return tuple(out)


def tuple_to_mask(values) -> int:
    m = 0
    for v in values:
        m |= 1 << v
    return m


def mask_to_ordmap(mask: int, cod: int) -> OrdMap:
    values = mask_to_tuple(mask)
    return OrdMap(len(values) - 1, cod, values)


@lru_cache(maxsize=None)
def zero_mono_masks(n: int) -> tuple[int, ...]:
    """Bitmasks of all subsets of {0..n} containing 0, ascending."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(m for m in range(1, 1 << (n + 1), 2))


def enumerate_zero_monos(n: int) -> tuple[OrdMap, ...]:
    """All injective monotone alpha:[k]->[n] with alpha(0)=0, ascending image bitmask."""
    return tuple(mask_to_ordmap(m, n) for m in zero_mono_masks(n))


def prime_mask(mask: int) -> int:
    """Image set of prime(beta) when beta has the given image set."""
    return (mask << 1) | 1


def drop_rank(mask: int, i: int) -> int:
    """Remove the i-th lowest element of the set (0-indexed ranks)."""
    m = mask
    for _ in range(i):
        m &= m - 1
    # m's lowest set bit is the element of rank i
    low = m & -m
    return mask ^ low


def delta_on_mask(i: int, mask: int) -> int:
    """Image of a set under delta(i, .): shift elements >= i up by one."""
    low = mask & ((1 << i) - 1)
    high = (mask >> i) << (i + 1)
    return low | high


def upsilon_on_mask(j: int, mask: int) -> int | None:
    """Image set of upsilon_j ∘ alpha; None when the composite is not injective."""
    if (mask >> j) & 3 == 3:  # both j and j+1 present: collision
        return None
    low = mask & ((1 << (j + 1)) - 1)
    high = (mask >> (j + 1)) << j
    return low | high


# ---------------------------------------------------------------------------
# Classification of the factorizations driving every d_0 formula.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseI:
    """alpha is the prefix beta' ∘ sigma_k; carries k = alpha.dom."""

    k: int


@dataclass(frozen=True)
class CaseII:
    """alpha = beta' ∘ delta_i for an interior 1 <= i <= beta.dom."""

    i: int


def classify_d0(beta: OrdMap, alpha: OrdMap) -> CaseI | CaseII | None:
    """Decide how alpha factors through prime(beta), if at all.

    beta:[l]->[n-1] and alpha:[k]->[n] must be injective and 0-preserving.
    Returns CaseI(k) when alpha = beta'∘sigma_k (0 <= k <= l+1), CaseII(i)
    when alpha = beta'∘delta_i (1 <= i <= l), otherwise None.  At most one
    factorization can match; this is asserted.
    """
    for theta in (beta, alpha):
        if not (theta.is_injective() and theta.preserves_zero()):
            raise ValueError("classify_d0 requires injective 0-preserving maps")
    if alpha.cod != beta.cod + 1:
        raise DimensionMismatch("alpha must land one ordinal above beta")
    bp = prime(beta)
    l = beta.dom
    matches: list[CaseI | CaseII] = []
    for k in range(l + 2):
        if alpha == compose(bp, sigma(k, l + 1)):
            matches.append(CaseI(k))
    for i in range(1, l + 1):
        if alpha == compose(bp, delta(i, l + 1)):
            matches.append(CaseII(i))
    if len(matches) > 1:
        raise AssertionError(f"non-unique factorization for beta={beta}, alpha={alpha}")
    return matches[0] if matches else None


# ---------------------------------------------------------------------------
# Precomputed level tables used by the Dold-Kan and semi-direct-product faces.
# Entries are pure simplex-category combinatorics, shared by every bundle.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class D0Term:
    """One source block contributing to the d_0 row of a target index."""

    source_mask: int
    case: str  # "I" or "II"
    sign: int
    m: int | None = None  # Case I: degree shift (number of trailing arrows)
    tail: tuple[int, ...] | None = None  # Case I: vertex tuple of beta'∘tau_m in [n]


@lru_cache(maxsize=None)
def d0_row(beta_mask: int, n: int) -> tuple[D0Term, ...]:
    """All source blocks feeding target beta (a zero-mono of [n-1]) under d_0.

    Case I sources are the prefixes of beta' (operator blocks along the tail
    arrows); Case II sources delete one interior element of beta' (signed
    identity blocks).
    """
    bp = prime_mask(beta_mask)
    elems = mask_to_tuple(bp)
    l = len(elems) - 2  # beta:[l] -> [n-1]
    terms = []
    sign_l = -1 if l % 2 else 1
    for k in range(l + 2):
        m = l + 1 - k
        terms.append(
            D0Term(
                source_mask=tuple_to_mask(elems[: k + 1]),
                case="I",
                sign=sign_l,
                m=m,
                tail=elems[k:],
            )
        )
    for i in range(1, l + 1):
        terms.append(
            D0Term(
                source_mask=drop_rank(bp, i),
                case="II",
                sign=(-1 if (i + 1) % 2 else 1),
            )
        )
    return tuple(terms)


@lru_cache(maxsize=None)
def transport_face_table(n: int, i: int) -> tuple[tuple[int, int], ...]:
    """(target beta, source delta_i∘beta) pairs for the face i >= 1 at level n."""
    if i < 1:
        raise ValueError("transport table only covers positive faces")
    return tuple((b, delta_on_mask(i, b)) for b in zero_mono_masks(n - 1))


@lru_cache(maxsize=None)
def transport_degeneracy_table(n: int, j: int) -> tuple[tuple[int, int], ...]:
    """(target beta, source upsilon_j∘beta) pairs for u_j at level n, injective only."""
    out = []
    for b in zero_mono_masks(n + 1):
        src = upsilon_on_mask(j, b)
        if src is not None:
            out.append((b, src))
    return tuple(out)
