"""JSON document formats and canonical serialization.

Frozen conventions (see FORMATS.md): rationals are "p/q" strings (or "p" when
integral), matrices are row-major nested arrays, simplices are referenced by
their index in the canonical nerve enumeration, and fiber blocks follow the
ascending-bitmask order of the 0-preserving mono index.  Dumps are canonical:
sorted keys, compact separators, one trailing newline; identical inputs give
byte-identical documents.
"""

from __future__ import annotations

import json
import re
from contextlib import contextmanager
from fractions import Fraction

from .errors import DimensionMismatch, ValidationError
from .exactla import ZERO, Fr, RatMat, Subspace, _scalar
from .graded import BlockMap, Grading
from .groupoid import FinGroupoid
from .ruth import GradedBundle, Ruth
from .svb import Cleavage, SimpVB, explicit_cleavage


def rat_to_str(x: int | Fraction) -> str:
    if type(x) is int:
        return str(x)
    if type(x) is not Fraction:
        x = Fr(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# exactly what rat_to_str writes: ASCII digits, an optional minus, "p" or "p/q"
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _scalar_from_json(s, where="") -> int | Fraction:
    """The rational a document entry spells, as an int when integral.

    An entry is a "p" or "p/q" string with a nonzero q, or a plain JSON
    integer; a bool, a float, a sign other than a leading minus, a space, an
    underscore or a non-ASCII digit is rejected.
    """
    if type(s) is int:
        return s
    m = _RATIONAL.fullmatch(s) if type(s) is str else None
    if m is None:
        raise ValidationError(f"bad rational {s!r} at {where}")
    p, q = m.groups()
    if q is None:
        return int(p)
    if not int(q):
        raise ValidationError(f"bad rational {s!r} at {where}: zero denominator")
    return _scalar(Fr(int(p), int(q)))


def rat_from_str(s, where="") -> Fraction:
    if s == "0":
        return ZERO  # most entries of a document
    return Fr(_scalar_from_json(s, where))


def mat_to_json(m: RatMat):
    return [[rat_to_str(x) for x in row] for row in m.data]


def mat_from_json(rows, where="") -> RatMat:
    data = [[rat_from_str(x, where) for x in row] for row in rows]
    if not data:
        return RatMat(0, 0, [])
    if any(len(row) != len(data[0]) for row in data):
        raise ValueError(f"ragged matrix at {where}")
    return RatMat(len(data), len(data[0]), data)


def canonical_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def _reading(kind: str):
    """Report a missing or ill-typed field as a malformed document (an input error)."""
    try:
        yield
    except (KeyError, IndexError, TypeError, ValueError, DimensionMismatch) as e:
        raise ValidationError(f"malformed {kind} document: missing or bad field {e}") from None


def _count(x, what: str) -> int:
    """x itself when it is a non-negative int (a bool or a float is not)."""
    if type(x) is not int or x < 0:
        raise ValueError(f"{what} must be a non-negative integer, not {x!r}")
    return x


def _levels(table: dict, levels, name: str) -> dict:
    """table itself when its keys are exactly the given levels, as strings."""
    expected = [str(n) for n in levels]
    if set(table) != set(expected):
        raise ValueError(f"{name} has level keys {sorted(table)}, not {expected}")
    return table


def _per_simplex(G: FinGroupoid, n: int, entries):
    """Pair each level-n simplex, in canonical order, with its document entry."""
    level = G.nerve_level(n)
    if len(entries) != len(level):
        raise ValueError(f"level {n} has {len(entries)} entries for {len(level)} simplices")
    return zip(level, entries)


# ---------------------------------------------------------------------------
# Groupoids.
# ---------------------------------------------------------------------------


def groupoid_to_doc(G: FinGroupoid) -> dict:
    return {
        "kind": "groupoid",
        "name": G.name,
        "objects": list(G.objects),
        "arrows": [
            {"id": i, "name": G.arrow_names[i], "src": G.objects[G.arrow_src[i]],
             "tgt": G.objects[G.arrow_tgt[i]]}
            for i in range(G.n_arrows)
        ],
        "units": {G.objects[x]: G.unit_of_obj[x] for x in range(G.n_objects)},
        "inverses": [[g, G.inv[g]] for g in range(G.n_arrows)],
        "compose": sorted([g2, g1, g] for (g2, g1), g in G.comp.items()),
    }


def groupoid_from_doc(doc: dict) -> FinGroupoid:
    with _reading("groupoid"):
        objects = list(doc["objects"])
        oidx = {name: i for i, name in enumerate(objects)}
        arrows = doc["arrows"]
        n = len(arrows)
        # a negative or repeated id would wrap around or overwrite an arrow
        if sorted(a["id"] for a in arrows) != list(range(n)):
            raise ValueError(f"arrow ids must be 0..{n - 1}, each once")
        if sorted(g for g, _ in doc["inverses"]) != list(range(n)):
            raise ValueError(f"inverse keys must be 0..{n - 1}, each once")
        src = [0] * n
        tgt = [0] * n
        names = [""] * n
        for a in arrows:
            i = a["id"]
            src[i] = oidx[a["src"]]
            tgt[i] = oidx[a["tgt"]]
            names[i] = a.get("name", f"a{i}")
        units = [doc["units"][name] for name in objects]
        inv = [0] * n
        for g, h in doc["inverses"]:
            inv[g] = h
        comp = {(g2, g1): g for g2, g1, g in doc["compose"]}
        name = doc.get("name", "")
    return FinGroupoid(objects, src, tgt, comp, units, inv, name=name, arrow_names=names)


# ---------------------------------------------------------------------------
# Chain complexes.
# ---------------------------------------------------------------------------


def chain_to_doc(Y) -> dict:
    return {
        "kind": "chain_complex",
        "dims": list(Y.dims),
        "boundary": {str(n): mat_to_json(Y.d(n)) for n in range(1, len(Y.dims))},
    }


def chain_from_doc(doc: dict):
    from .doldkan import ChainComplex

    with _reading("chain complex"):
        dims = [_count(d, "dims entry") for d in doc["dims"]]
        boundary = {}
        for key, rows in doc.get("boundary", {}).items():
            n = int(key)
            if not 0 < n < len(dims):
                raise ValueError(f"boundary[{key}] has no degree {n} to start from")
            mat = mat_from_json(rows, f"boundary[{key}]")
            boundary[n] = mat if mat.rows else RatMat.zeros(0, dims[n])  # [] is every 0 x c
    return ChainComplex(dims, boundary)


# ---------------------------------------------------------------------------
# Operator towers.
# ---------------------------------------------------------------------------


def ruth_to_doc(R: Ruth) -> dict:
    G = R.G
    ops = []
    for (m, s), table in sorted(R.ops.items(), key=lambda kv: (kv[0][0], G.simplex_index(kv[0][1]))):
        for deg in sorted(table):
            ops.append({
                "m": m,
                "simplex": G.simplex_index(s),
                "degree": deg,
                "matrix": mat_to_json(R.block(m, s, deg)),
            })
    return {
        "kind": "ruth",
        "groupoid": groupoid_to_doc(G),
        "dims": {G.objects[x]: [R.E.dim(x, k) for k in R.E.degrees()] for x in range(G.n_objects)},
        "mcap": R.m_cap,
        "operators": ops,
    }


def ruth_from_doc(doc: dict) -> Ruth:
    with _reading("ruth"):
        G = groupoid_from_doc(doc["groupoid"])
        oidx = {name: i for i, name in enumerate(G.objects)}
        E = GradedBundle(G, {oidx[name]: tuple(_count(d, "dims entry") for d in v)
                             for name, v in doc["dims"].items()})
        ops: dict = {}
        for entry in doc.get("operators", []):
            # a negative index would wrap around, a bool would index as 0 or 1
            m = _count(entry["m"], "operator m")
            index = _count(entry["simplex"], "operator simplex")
            degree = _count(entry["degree"], "operator degree")
            # checked before the nerve is enumerated, whose size grows
            # exponentially in m: no block above the top degree has rows
            if degree + m - 1 > E.N:
                raise ValueError(f"operator m={m}, degree {degree} targets degree "
                                 f"{degree + m - 1}, above the top degree {E.N}")
            table = ops.setdefault((m, G.nerve_level(m)[index]), {})
            if degree in table:
                raise ValueError(f"operator m={m}, simplex {index}, degree {degree} is given twice")
            table[degree] = mat_from_json(entry["matrix"], f"operator m={m}")
        m_cap = doc.get("mcap")
        if m_cap is not None:
            _count(m_cap, "mcap")
    return Ruth(E, ops, m_cap=m_cap)


# ---------------------------------------------------------------------------
# Bundles and cleavages.
# ---------------------------------------------------------------------------


def _label_to_json(label):
    """A block mask or None as itself; no other label has a document form."""
    if label is None or (type(label) is int and label >= 0):
        return label
    raise ValueError(f"fiber label {label!r} is not a block mask or null")


def _block_map_to_json(m: BlockMap):
    """The row-major array of m, written from its sparse rows: "0" off their support."""
    out = [["0"] * m.src.total for _ in range(m.dst.total)]
    for line, row in zip(out, m.sparse_rows()):
        for c, x in row.items():
            line[c] = rat_to_str(x)
    return out


def svb_to_doc(V: SimpVB) -> dict:
    G = V.base
    fibers = {}
    faces = {}
    degs = {}
    for n in range(V.L + 1):
        level = []
        for s in G.nerve_level(n):
            g = V.grading(n, s)
            level.append([[_label_to_json(l), d] for l, d in zip(g.labels, g.dims)])
        fibers[str(n)] = level
        if n >= 1:
            faces[str(n)] = [
                [_block_map_to_json(V.face(n, i, s)) for i in range(n + 1)]
                for s in G.nerve_level(n)
            ]
        if n < V.L:
            degs[str(n)] = [
                [_block_map_to_json(V.deg(n, j, s)) for j in range(n + 1)]
                for s in G.nerve_level(n)
            ]
    return {
        "kind": "svb",
        "groupoid": groupoid_to_doc(G),
        "L": V.L,
        "fibers": fibers,
        "faces": faces,
        "degeneracies": degs,
    }


def _block_map_from_json(rows, src: Grading, dst: Grading, where: str) -> BlockMap:
    """Decode a row-major array of rationals straight into block storage.

    Shapes come from the gradings, because an empty array stands for every
    0 x c matrix.
    """
    if type(rows) is not list or any(type(row) is not list for row in rows):
        raise ValueError(f"{where} is not an array of rows")
    width = len(rows[0]) if rows else src.total
    if any(len(row) != width for row in rows):
        raise ValueError(f"ragged matrix at {where}")
    if (len(rows), width) != (dst.total, src.total):
        raise ValueError(f"{where} is {len(rows)}x{width}, not {dst.total}x{src.total}")
    sparse = []
    for row in rows:
        ents = []
        for c, x in enumerate(row):
            if x != "0":
                v = _scalar_from_json(x, where)
                if v:
                    ents.append((c, v))
        sparse.append(ents)
    return BlockMap.from_rows(src, dst, sparse)


def _structure_maps(G: FinGroupoid, table: dict, levels, step: int, gradings: dict, name: str):
    """Face (step -1) or degeneracy (step +1) maps keyed (n, index, simplex)."""
    move = G.face if step < 0 else G.degeneracy
    _levels(table, levels, name)
    maps = {}
    for n in levels:
        for s, entries in _per_simplex(G, n, table[str(n)]):
            if len(entries) != n + 1:
                raise ValueError(f"{name} at level {n} needs {n + 1} matrices, got {len(entries)}")
            for i, rows in enumerate(entries):
                maps[(n, i, s)] = _block_map_from_json(
                    rows, gradings[(n, s)], gradings[(n + step, move(s, i))], f"{name} n={n} i={i}"
                )
    return maps


def svb_from_doc(doc: dict) -> SimpVB:
    with _reading("svb"):
        G = groupoid_from_doc(doc["groupoid"])
        L = _count(doc["L"], "L")
        gradings = {}
        fibers = _levels(doc["fibers"], range(L + 1), "fibers")
        for n in range(L + 1):
            for s, blocks in _per_simplex(G, n, fibers[str(n)]):
                # a repeated label raises DimensionMismatch, a malformed document
                labels = (None if b[0] is None else _count(b[0], "fiber label") for b in blocks)
                gradings[(n, s)] = Grading(tuple(labels),
                                           tuple(_count(b[1], "block dimension") for b in blocks))
        faces = _structure_maps(G, doc.get("faces", {}), range(1, L + 1), -1, gradings, "face")
        degs = _structure_maps(G, doc.get("degeneracies", {}), range(L), 1, gradings,
                               "degeneracy")
    return SimpVB(G, L, lambda n, s: gradings[(n, s)], lambda n, i, s: faces[(n, i, s)],
                  lambda n, j, s: degs[(n, j, s)])


def cleavage_to_doc(V: SimpVB, C: Cleavage) -> dict:
    G = V.base
    fibers = {}
    for n in range(1, V.L + 1):
        fibers[str(n)] = [
            mat_to_json(C.subspace(n, s).mat) for s in G.nerve_level(n)
        ]
    return {"kind": "cleavage", "L": V.L, "fibers": fibers}


def cleavage_from_doc(V: SimpVB, doc: dict) -> Cleavage:
    table = {}
    with _reading("cleavage"):
        if _count(doc["L"], "L") != V.L:
            raise ValueError(f"cleavage L={doc['L']} but the bundle has L={V.L}")
        fibers = _levels(doc["fibers"], range(1, V.L + 1), "fibers")
        for n in range(1, V.L + 1):
            for s, rows in _per_simplex(V.base, n, fibers[str(n)]):
                mat = mat_from_json(rows, f"cleavage n={n}")
                if mat.rows and mat.cols != V.fiber_dim(n, s):
                    raise ValueError(f"cleavage n={n} has rows of length {mat.cols}")
                table[(n, s)] = Subspace.from_rows(V.fiber_dim(n, s), mat.data)
    return explicit_cleavage(V, table)


def load_document(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except json.JSONDecodeError as e:
        raise ValidationError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from None


def save_document(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_dumps(doc))
