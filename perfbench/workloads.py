"""The four benchmark workloads: inputs from a seed, items, negative controls.

Every workload has a fixed item set per seed.  A pass runs the whole set once
and builds every bundle fresh, because users pay for face assembly and horn
kernels on every run.  Each item returns True when its verdict is the expected
one; the negative controls expect a failing verdict, so a checker that stops
deciding shows up as a failed item.

Library calls go through module attributes (``sdp.verify_sdp``) so that the
tracer's wrappers see them.

Why each base x order class is in a timed set (L = 2N+3 throughout):

* unit(2), Z/2, pair(2) and pair(3) at order 0: cheap bundles whose faces are
  almost all transports; they keep the dense and sparse layers honest on
  trivial input and cover every base.
* unit(2)/N1-N2: two isolated objects, so every higher simplex is
  degenerate; order 2 reaches level 7 in a fraction of a second.
* Z/2/N1 and pair(2)/N1: the acceptance classes with twisted operators on
  nondegenerate simplices, where horn systems, complements and witness
  kernels carry real rational entries.  They are the bulk of each pass.
* Left out: pair(3)/N1 (6-8 s per verify or split item on a 2-core machine),
  Z/2/N2 (15-18 s) and pair(2)/N2 (26-30 s).  A pass holding even one of
  them would leave no room in a run for the repeated passes the medians
  need.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction as Fr

from ruthvb import doldkan, documents, ruth, sdp, simplicial, split, svb
from ruthvb.exactla import RatMat
from ruthvb.graded import BlockMap

from . import gen

# (base, order, count) per pass; smoke plans keep the benchmark's own tests fast
VERIFY_PLAN = [
    ("unit(2)", 0, 1), ("unit(2)", 1, 1), ("unit(2)", 2, 2),
    ("Z/2", 0, 1), ("Z/2", 1, 3),
    ("pair(2)", 0, 1), ("pair(2)", 1, 3),
    ("pair(3)", 0, 2),
]
SPLIT_PLAN = [
    ("unit(2)", 1, 1), ("unit(2)", 2, 2),
    ("Z/2", 0, 1), ("Z/2", 1, 3),
    ("pair(2)", 0, 1), ("pair(2)", 1, 3),
    ("pair(3)", 0, 2),
]
CLI_PLAN = [("pair(3)", 0, 1), ("pair(2)", 1, 1), ("Z/2", 1, 1), ("unit(2)", 2, 1)]
DOLDKAN_COMPLEXES = 100
DK_LEVEL = 7

SMOKE_PLAN = [("unit(2)", 1, 1), ("pair(2)", 0, 1)]
SMOKE_COMPLEXES = 3


class Item:
    """One unit of work: run(ctx) returns True when the verdict is as expected."""

    def __init__(self, label: str, run, control: bool = False):
        self.label = label
        self.run = run
        self.control = control


class PassContext:
    """What an item may use during a pass: the tracer (or None) and outside timers."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.outside: dict[str, float] = {}

    def add_time(self, name: str, seconds: float) -> None:
        self.outside[name] = self.outside.get(name, 0.0) + seconds


def _towers(plan, rng):
    """Generated and validated towers of a plan, in plan order."""
    out = []
    for base, order, count in plan:
        for c in range(count):
            R = gen.twisted_tower(base, order, c, rng)
            ruth.validate_ruth(R)
            out.append((f"{base}/N{order}#{c}", R, order))
    return out


# ---------------------------------------------------------------------------
# verify: build, identities, order, core, rank law, zeroth-face self-oracle.
# ---------------------------------------------------------------------------


def _verify_item(R, order):
    def run(ctx):
        B = sdp.build_sdp(R, 2 * order + 3, validate=False)
        ver = sdp.verify_sdp(B)
        if not (ver.ok and ver.order == order and ver.core_ok):
            return False
        rank = svb.rank_identities(B)
        if not (rank.ok and all(cap == tot for cap, tot in rank.coverage.values())):
            return False
        return sdp.d0_paths_agree(B)

    return run


def _coherence_control(R, order, seed):
    # a perturbed block of a multi-object, order >= 1 tower must break the
    # coherence and the double zeroth face together
    def run(ctx):
        rep = sdp.rh2_sensitivity(R, L=2 * order + 3, rng=random.Random(seed))
        return rep.outcome == "broken" and rep.ok

    return run


def setup_verify(seed: int, work_dir: str, smoke: bool) -> list[Item]:
    rng = random.Random(seed)
    items = [Item(label, _verify_item(R, order))
             for label, R, order in _towers(SMOKE_PLAN if smoke else VERIFY_PLAN, rng)]
    (label, R, order), = _towers([("pair(2)", 1, 1)], rng)
    items.append(Item("control:rh2-sensitivity " + label,
                      _coherence_control(R, order, rng.randrange(1 << 30)), control=True))
    return items


# ---------------------------------------------------------------------------
# split: twisted cleavage, validated split context, round trip.
# ---------------------------------------------------------------------------


def _split_item(R, order, chi):
    def run(ctx):
        B = sdp.build_sdp(R, 2 * order + 3, validate=False)
        C = sdp.twisted_cleavage(B, chi)
        sc = split.SplitContext(B, C, validate="cleavage")
        R2, rep = split.roundtrip_bundle(sc)
        if not rep.ok or R2 != ruth.twisted_ruth_direct(R, chi):
            return False
        return ruth.check_morphism(chi.as_morphism(R, R2)).ok

    return run


def _not_full_control(ctx):
    # the identity map from the modified cleavage to the canonical one of the
    # order-two counterexample is not weakly flat; the checker must say so
    V, C, Cp = sdp.example_not_full()
    ident = svb.BundleMap(V, V, lambda n, s: BlockMap.identity(V.grading(n, s)))
    bad = svb.check_weakly_flat_morphism(ident, Cp, C)
    return any(f[2] == (Fr(0), Fr(1), Fr(1)) and f[3][2] == 1 for f in bad)


def setup_split(seed: int, work_dir: str, smoke: bool) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for label, R, order in _towers(SMOKE_PLAN if smoke else SPLIT_PLAN, rng):
        items.append(Item(label, _split_item(R, order, gen.gauge(R.E, rng))))
    items.append(Item("control:not-full-identity", _not_full_control, control=True))
    return items


# ---------------------------------------------------------------------------
# cli: build-sdp --out, then split on the written documents, one subprocess
# at a time.
# ---------------------------------------------------------------------------

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")


def _cli(args, cwd, ctx, timer):
    """Run the command line once; returns the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([_SRC, _ROOT])
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "ruthvb.cli", "--quiet", *args]
    else:
        cmd = [sys.executable, "-m", "perfbench.cli_traced", "trace.json", "--quiet", *args]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=150)
    if ctx.tracer is None:
        ctx.add_time(timer, time.perf_counter() - t0)
    else:
        path = os.path.join(cwd, "trace.json")
        with open(path) as fh:
            ctx.tracer.merge(json.load(fh))
        os.remove(path)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _CliItem:
    """build-sdp then split in one directory; reports must repeat byte for byte."""

    def __init__(self, cwd):
        self.cwd = cwd
        self.first = None  # report digests of the first pass

    def __call__(self, ctx):
        j = functools.partial(os.path.join, self.cwd)
        for name in ("build.json", "split.json", "recovered.json"):
            if os.path.exists(j(name)):
                os.remove(j(name))
        if _cli(["build-sdp", "tower.json", "--out", "out", "--json", "build.json"],
                self.cwd, ctx, "cli.build_sdp.wall_s") != 0:
            return False
        if _cli(["split", "out/svb.json", "out/cleavage.json", "--out", "recovered.json",
                 "--json", "split.json"], self.cwd, ctx, "cli.split.wall_s") != 0:
            return False
        # splitting along the canonical cleavage returns the input tower verbatim
        if _sha256(j("recovered.json")) != _sha256(j("tower.json")):
            return False
        digests = (_sha256(j("build.json")), _sha256(j("split.json")))
        if self.first is None:
            self.first = digests
        return digests == self.first


def _perturbed_control(cwd):
    def run(ctx):
        return _cli(["build-sdp", "tower.json", "--json", "build.json"], cwd, ctx,
                    "cli.build_sdp.wall_s") == 1

    return run


def _perturb_block(R, rng):
    """Copy of R with one operator block of level >= 2 changed."""
    G, E = R.G, R.E
    candidates = [
        (m, s, deg)
        for m in range(2, E.N + 2)
        for s in G.nerve_level(m)
        if not G.is_degenerate(s)
        for deg in E.degrees()
        if E.dim(G.vertex_obj(s, m), deg + m - 1) and E.dim(s.x0, deg)
    ]
    m, s, deg = rng.choice(candidates)
    mat = R.block(m, s, deg).copy()
    delta = Fr(rng.randint(1, 5), rng.randint(1, 3))
    mat.data[rng.randrange(mat.rows)][rng.randrange(mat.cols)] += delta
    return R.with_block(m, s, deg, mat)


def _write_tower(cwd, R):
    os.makedirs(os.path.join(cwd, "out"))
    documents.save_document(os.path.join(cwd, "tower.json"), documents.ruth_to_doc(R))


def setup_cli(seed: int, work_dir: str, smoke: bool) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for i, (label, R, order) in enumerate(_towers(SMOKE_PLAN if smoke else CLI_PLAN, rng)):
        cwd = os.path.join(work_dir, f"item{i}")
        _write_tower(cwd, R)
        items.append(Item(label, _CliItem(cwd)))
    (label, R, order), = _towers([("pair(2)", 1, 1)], rng)
    cwd = os.path.join(work_dir, "control")
    _write_tower(cwd, _perturb_block(R, rng))
    items.append(Item("control:perturbed-build " + label, _perturbed_control(cwd), control=True))
    return items


# ---------------------------------------------------------------------------
# doldkan: random chain complexes through both inverses and normalization.
# ---------------------------------------------------------------------------


def _dk_item(Y):
    def run(ctx):
        X = doldkan.dk(Y, DK_LEVEL)
        if not simplicial.verify_simplicial_identities(X).ok:
            return False
        norm, iso = doldkan.normalization_roundtrip(Y, X)
        k = len(Y.dims)
        if tuple(norm.dims[:k]) != Y.dims or any(norm.dims[k:]):
            return False
        for n in range(1, k):
            if iso[n - 1] @ norm.boundary[n] != Y.d(n) @ iso[n]:
                return False
        Xc = doldkan.dk_classic(Y, DK_LEVEL)
        return all(X.dim(n) == Xc.dim(n) for n in range(DK_LEVEL + 1))

    return run


def _pairing(X, Xc, n):
    g, gc = X.grading(n), Xc.grading(n)
    out = RatMat.zeros(gc.total, g.total)
    for mask, label in doldkan.mono_epi_duality(n).items():
        for r in range(g.dim(mask)):
            out.data[gc.offset(label) + r][g.offset(mask) + r] = Fr(1)
    return out


def _pairing_control(ctx):
    # the levelwise pairing of the two inverses is not a simplicial map
    Y = doldkan.ChainComplex((0, 1), {})
    X, Xc = doldkan.dk(Y, 3), doldkan.dk_classic(Y, 3)
    for n in range(3):
        iso_n, iso_n1 = _pairing(X, Xc, n), _pairing(X, Xc, n + 1)
        for j in range(n + 1):
            if iso_n1 @ X.deg(n, j).to_dense() != Xc.deg(n, j).to_dense() @ iso_n:
                return True
    return False


def setup_doldkan(seed: int, work_dir: str, smoke: bool) -> list[Item]:
    rng = random.Random(seed)
    items = []
    for i, dims in enumerate(gen.complex_shapes(SMOKE_COMPLEXES if smoke else DOLDKAN_COMPLEXES)):
        Y = gen.chain_complex(rng, dims)
        items.append(Item(f"complex#{i} dims={list(Y.dims)}", _dk_item(Y)))
    items.append(Item("control:dk-pairing", _pairing_control, control=True))
    return items


WORKLOADS = {
    "verify": setup_verify,
    "split": setup_split,
    "cli": setup_cli,
    "doldkan": setup_doldkan,
}


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
