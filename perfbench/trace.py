"""Outside-in layer tracing for the benchmark.

The library has no spans of its own, so the tracer wraps public callables of
the ``ruthvb`` modules from the benchmark process.  Modules import each other
by name (``svb`` binds ``kernel`` and ``is_complement`` from ``exactla``), so
a function is replaced at every ``ruthvb.*`` module attribute bound to it;
methods are replaced on their class.  Self time is a span's duration minus
the time of the spans it encloses, computed from a stack.

``groupoid`` and ``ordmaps`` are memoized tables called about 10^5 times per
item; they are deliberately not wrapped and their cost lands in the callers'
self time.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

# module -> wrapped callables; the span name is "<module>.<callable>" with
# dunders shortened ("split.SplitContext.init", "graded.BlockMap.eq")
SPANS = {
    "exactla": ["RatMat.rref", "RatMat.inverse", "is_complement", "kernel", "left_solver",
                "sparse_kernel_basis"],
    "simplicial": ["horn_system", "horn_dim", "face_kernel", "verify_simplicial_identities"],
    "graded": ["BlockMap.compose", "BlockMap.__eq__", "BlockMap.to_dense"],
    "svb": ["SimpVB.face", "relative_horn_kernel", "check_fibration", "core", "rank_identities",
            "check_cleavage"],
    "sdp": ["verify_sdp", "d0_paths_agree"],
    "split": ["SplitContext.__init__", "SplitContext.horn_fill", "SplitContext.retraction_vector",
              "extract_ruth", "roundtrip_bundle"],
    "ruth": ["check_rh2", "twisted_ruth_direct", "check_morphism"],
    "documents": ["svb_to_doc", "svb_from_doc", "canonical_dumps", "save_document",
                  "load_document"],
    "doldkan": ["dk", "dk_classic", "normalization_roundtrip"],
}


def _horn_key(fc, n, k, key):
    return (id(fc), n, k, key)


def _face_kernel_key(fc, n, key, face_indices):
    return (id(fc), n, key, tuple(face_indices))


# span -> key of its arguments, for distinct keys per item
DISTINCT = {
    "simplicial.horn_system": _horn_key,
    "simplicial.face_kernel": _face_kernel_key,
    "svb.relative_horn_kernel": _horn_key,
}

# span -> (size counter, size of the arguments, measured after the call)
SIZES = {
    "exactla.RatMat.rref": ("exactla.RatMat.rref.cells", lambda mat: mat.rows * mat.cols, False),
    "exactla.sparse_kernel_basis": ("exactla.sparse_kernel_basis.rows",
                                    lambda rows, nvars: len(rows), False),
    "documents.load_document": ("documents.bytes_read", os.path.getsize, False),
    "documents.save_document": ("documents.bytes_written", lambda path, doc: os.path.getsize(path),
                                True),
}

FACE_SPAN = "svb.SimpVB.face"


def span_name(module: str, path: str) -> str:
    return f"{module}.{path.replace('__init__', 'init').replace('__eq__', 'eq')}"


class Tracer:
    """Span stack and counters; install() wraps, uninstall() restores."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.sizes = defaultdict(int)
        self.distinct = defaultdict(int)  # span -> distinct keys, summed over items
        self.face_misses = 0
        self._stack: list[float] = []
        self._keys = defaultdict(set)
        self._alive: list = []  # keeps keyed objects alive so ids stay unique per item
        self._bundles: dict = {}
        self._patched: list = []

    def _wrap(self, fn, name):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack
        keys, alive, sizes, bundles = self._keys[name], self._alive, self.sizes, self._bundles
        key_fn = DISTINCT.get(name)
        size_key, size_fn, size_after = SIZES.get(name, (None, None, False))
        is_face = name == FACE_SPAN

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                keys.add(key_fn(*args, **kwargs))
                alive.append(args[0])
            if is_face:
                bundles[id(args[0])] = args[0]
            if size_key is not None and not size_after:
                sizes[size_key] += size_fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child
                if stack:
                    stack[-1] += dt
                if size_after:
                    sizes[size_key] += size_fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def end_item(self) -> None:
        """Fold per-item distinct keys and bundle face-cache sizes into the totals."""
        for name, keys in self._keys.items():
            self.distinct[name] += len(keys)
            keys.clear()
        self._alive.clear()
        self.face_misses += sum(len(b._faces) for b in self._bundles.values())
        self._bundles.clear()

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ruthvb" or n.startswith("ruthvb."))]
        for mod_name, paths in SPANS.items():
            mod = sys.modules["ruthvb." + mod_name]
            for path in paths:
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(mod, owner_name)
                    original = owner.__dict__[attr]
                    targets = [owner]
                else:
                    original = getattr(mod, attr)
                    targets = modules
                wrapper = self._wrap(original, span_name(mod_name, path))
                for target in targets:
                    for a, value in list(vars(target).items()):
                        if value is original:
                            self._patched.append((target, a, original))
                            setattr(target, a, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    _FIELDS = ("calls", "total", "self_time", "sizes", "distinct")

    def raw(self) -> dict:
        out = {f: dict(getattr(self, f)) for f in self._FIELDS}
        out["face_misses"] = self.face_misses
        return out

    def merge(self, raw: dict) -> None:
        """Add another tracer's raw() counts, e.g. from a traced subprocess."""
        for f in self._FIELDS:
            target = getattr(self, f)
            for k, v in raw[f].items():
                target[k] += v
        self.face_misses += raw["face_misses"]


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    for stat, names in (
        ("calls", ["exactla.RatMat.rref", "exactla.is_complement", "exactla.sparse_kernel_basis",
                   "simplicial.horn_system", "simplicial.face_kernel", "graded.BlockMap.compose",
                   FACE_SPAN, "svb.relative_horn_kernel", "split.SplitContext.horn_fill"]),
        ("self_s", ["exactla.RatMat.rref", "exactla.sparse_kernel_basis", "simplicial.horn_system",
                    "simplicial.horn_dim", "graded.BlockMap.compose", "graded.BlockMap.eq",
                    "graded.BlockMap.to_dense", FACE_SPAN]),
        ("total_s", ["exactla.is_complement", "exactla.kernel", "exactla.left_solver",
                     "exactla.RatMat.inverse", "simplicial.verify_simplicial_identities",
                     "svb.check_fibration", "svb.core", "svb.rank_identities",
                     "svb.check_cleavage", "sdp.verify_sdp", "sdp.d0_paths_agree",
                     "split.SplitContext.init", "split.extract_ruth", "split.roundtrip_bundle",
                     "split.SplitContext.retraction_vector", "ruth.check_rh2",
                     "ruth.twisted_ruth_direct", "ruth.check_morphism", "documents.svb_to_doc",
                     "documents.svb_from_doc", "documents.canonical_dumps", "doldkan.dk",
                     "doldkan.dk_classic", "doldkan.normalization_roundtrip"]),
    ):
        source = {"calls": t.calls, "self_s": t.self_time, "total_s": t.total}[stat]
        for name in names:
            out[f"{name}.{stat}"] = (source[name], "count" if stat == "calls" else "s")
    for name in DISTINCT:
        calls = t.calls[name]
        out[f"{name}.distinct_ratio"] = (t.distinct[name] / calls if calls else 0.0, "ratio")
    face_calls = t.calls[FACE_SPAN]
    hits = face_calls - t.face_misses
    out[f"{FACE_SPAN}.hit_ratio"] = (hits / face_calls if face_calls else 0.0, "ratio")
    for size_key, _, _ in SIZES.values():
        out[size_key] = (t.sizes[size_key], "bytes" if size_key.startswith("documents") else "count")
    return out
