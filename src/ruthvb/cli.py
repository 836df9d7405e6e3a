"""Batch front end: document validation, construction, splitting, demos.

Exit codes: 0 when every check passes, 1 on a validation failure, 2 on an
input error (unreadable file, malformed document, bad arguments).  Reports
are canonical JSON and byte-identical across runs on identical inputs; wall
time goes to stderr, never into the report.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time

from .errors import RuthvbError, ValidationError
from . import documents as docs

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_INPUT = 2

FIXTURE_DIR_ENV = "RUTHVB_FIXTURE_DIR"


def _resolve(path: str) -> str:
    if os.path.exists(path):
        return path
    root = os.environ.get(FIXTURE_DIR_ENV)
    if root:
        alt = os.path.join(root, path)
        if os.path.exists(alt):
            return alt
    return path


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Report:
    def __init__(self, command: str, inputs: list[str]):
        self.doc = {
            "command": command,
            "inputs": [{"path": p, "sha256": _digest(p)} for p in inputs],
            "results": [],
        }

    def add(self, name: str, passed: bool, witness=None):
        entry = {"name": name, "pass": bool(passed)}
        if witness is not None:
            entry["witness"] = witness
        self.doc["results"].append(entry)

    @property
    def ok(self) -> bool:
        return all(r["pass"] for r in self.doc["results"])

    def emit(self, args) -> None:
        text = docs.canonical_dumps(self.doc)
        if args.json:
            with open(args.json, "w") as fh:
                fh.write(text)
        if not args.quiet:
            for r in self.doc["results"]:
                line = f"[{'PASS' if r['pass'] else 'FAIL'}] {r['name']}"
                if not r["pass"] and "witness" in r:
                    line += f"  witness: {r['witness']}"
                print(line)


def _witness_str(items, cap=3):
    return [str(w) for w in items[:cap]]


def _with_mcap(R, mcap):
    """R with its coherence check cap overridden by --mcap, when given."""
    if mcap is None:
        return R
    if mcap < 0:
        raise ValidationError(f"--mcap must be non-negative, not {mcap}")
    from .ruth import Ruth

    return Ruth(R.E, R.ops, m_cap=mcap)


def cmd_validate(args) -> int:
    from .simplicial import verify_simplicial_identities
    from .svb import check_cleavage

    path = _resolve(args.path)
    doc = docs.load_document(path)
    rep = Report(f"validate {args.kind}", [path])
    if args.kind == "groupoid":
        G = docs.groupoid_from_doc(doc)  # constructor validates every axiom
        rep.add("groupoid axioms", True)
        rep.add("nerve sizes", True, witness=[len(G.nerve_level(n)) for n in range(3)])
    elif args.kind == "ruth":
        from .ruth import check_rh1, check_rh2

        R = _with_mcap(docs.ruth_from_doc(doc), args.mcap)
        r1 = check_rh1(R)
        rep.add("units and degeneracies", r1.ok, witness=_witness_str(r1.violations))
        r2 = check_rh2(R)
        rep.add("coherence tower", r2.ok, witness=_witness_str(r2.violations))
    elif args.kind == "svb":
        V = docs.svb_from_doc(doc)
        idrep = verify_simplicial_identities(V)
        rep.add(
            "simplicial identities",
            idrep.ok,
            witness=[f"{v.identity} at level {v.level}, indices {v.indices}" for v in idrep.violations[:3]],
        )
    elif args.kind == "cleavage":
        if not args.svb:
            raise ValidationError("validating a cleavage needs --svb")
        vpath = _resolve(args.svb)
        V = docs.svb_from_doc(docs.load_document(vpath))
        C = docs.cleavage_from_doc(V, doc)
        crep = check_cleavage(V, C, check_interior=False)  # interior closure is not reported
        for name, ok, tag in (("bijective onto horns", crep.bijective, "complement"),
                              ("normal", crep.normal, "normality"),
                              ("weakly flat", crep.weakly_flat, "weak flatness"),
                              ("flat", crep.flat, "flatness")):
            # each line lists its own failures, the bijectivity line even when it passes
            witness = _witness_str([f for f in crep.failures if f[0] == tag])
            rep.add(name, ok, witness=witness if tag == "complement" or not ok else None)
    rep.emit(args)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def cmd_build_sdp(args) -> int:
    from .ruth import check_rh1, check_rh2
    from .sdp import build_sdp, d0_paths_agree, verify_sdp
    from .svb import check_cleavage

    path = _resolve(args.path)
    R = _with_mcap(docs.ruth_from_doc(docs.load_document(path)), args.mcap)
    rep = Report("build-sdp", [path])
    r1, r2 = check_rh1(R), check_rh2(R)
    rep.add("input tower axioms", r1.ok and r2.ok,
            witness=_witness_str(r1.violations + r2.violations))
    if not (r1.ok and r2.ok):
        rep.emit(args)
        return EXIT_VALIDATION
    B = build_sdp(R, args.level, validate=False)
    ver = verify_sdp(B)
    rep.add("simplicial identities", ver.identities_ok, witness=_witness_str(ver.failures))
    rep.add("fibration of the declared order", ver.order_ok, witness=ver.order)
    rep.add("core recovers the bundle", ver.core_ok)
    rep.add("zeroth-face self-oracle", d0_paths_agree(B))
    C = B.canonical_cleavage()
    crep = check_cleavage(B, C, check_interior=False)
    rep.add("canonical cleavage normal and weakly flat",
            crep.bijective and crep.normal and crep.weakly_flat)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        docs.save_document(os.path.join(args.out, "svb.json"), docs.svb_to_doc(B))
        docs.save_document(os.path.join(args.out, "cleavage.json"), docs.cleavage_to_doc(B, C))
    rep.emit(args)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def cmd_split(args) -> int:
    from .split import SplitContext, roundtrip_bundle

    vpath = _resolve(args.svb)
    cpath = _resolve(args.cleavage)
    V = docs.svb_from_doc(docs.load_document(vpath))
    C = docs.cleavage_from_doc(V, docs.load_document(cpath))
    rep = Report("split", [vpath, cpath])
    try:
        ctx = SplitContext(V, C)
    except ValidationError as e:
        rep.add("cleavage is normal, weakly flat, bijective", False, witness=str(e.witness))
        rep.emit(args)
        return EXIT_VALIDATION
    R, rt = roundtrip_bundle(ctx)
    rep.add("extracted tower passes both axioms", True)
    rep.add("splitting map intertwines all operators", rt.simplicial_ok, witness=_witness_str(rt.failures))
    rep.add("splitting map invertible on every fiber", rt.invertible_ok)
    rep.add("cleavage maps onto the canonical one", rt.cleavage_ok)
    rep.doc["identity_checks"] = rt.checked
    if args.out:
        docs.save_document(args.out, docs.ruth_to_doc(R))
    rep.emit(args)
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def cmd_examples(args) -> int:
    from .gallery import SCENARIOS, run_scenarios

    names = list(SCENARIOS) if args.name in (None, "all") else [args.name]
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValidationError(f"unknown scenario {unknown[0]!r}; choices: {', '.join(SCENARIOS)}")
    ok, lines, results = run_scenarios(names)
    if not args.quiet:
        for line in lines:
            print(line)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(docs.canonical_dumps({"command": "examples", "scenarios": results}))
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_cohomology(args) -> int:
    from .svb import linear_cochain_cohomology

    path = _resolve(args.path)
    V = docs.svb_from_doc(docs.load_document(path))
    rep = Report("cohomology", [path])
    dims = linear_cochain_cohomology(V, args.max_degree)
    for p, d in enumerate(dims):
        rep.add(f"H^{p}", True, witness=d)
    rep.doc["betti"] = dims
    rep.emit(args)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subparser from clobbering flags given before the command
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", default=argparse.SUPPRESS,
                        help="write the canonical JSON report here")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="suppress the per-check lines")
    p = argparse.ArgumentParser(prog="ruthvb", description=__doc__, parents=[common])
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="validate a document", parents=[common])
    v.add_argument("kind", choices=["groupoid", "ruth", "svb", "cleavage"])
    v.add_argument("path")
    v.add_argument("--svb", help="bundle document a cleavage belongs to")
    v.add_argument("--mcap", type=int, help="override the coherence check cap")
    v.set_defaults(fn=cmd_validate)

    b = sub.add_parser("build-sdp", help="build and verify a semi-direct product", parents=[common])
    b.add_argument("path", help="tower document")
    b.add_argument("--level", type=int, help="truncation level (default 2N+3)")
    b.add_argument("--mcap", type=int)
    b.add_argument("--out", help="directory for the bundle and cleavage documents (created if missing)")
    b.set_defaults(fn=cmd_build_sdp)

    s = sub.add_parser("split", help="split a bundle along a cleavage", parents=[common])
    s.add_argument("svb")
    s.add_argument("cleavage")
    s.add_argument("--out", help="file for the extracted tower document")
    s.set_defaults(fn=cmd_split)

    e = sub.add_parser("examples", help="run the demonstration gallery", parents=[common])
    e.add_argument("name", nargs="?", help="scenario name, or 'all'")
    e.set_defaults(fn=cmd_examples)

    c = sub.add_parser("cohomology", help="fiberwise-linear cochain cohomology", parents=[common])
    c.add_argument("path", help="bundle document")
    c.add_argument("--max-degree", type=int, default=2)
    c.set_defaults(fn=cmd_cohomology)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.json = getattr(args, "json", None)
    args.quiet = getattr(args, "quiet", False)
    start = time.monotonic()
    try:
        code = args.fn(args)
    except (FileNotFoundError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValidationError as e:
        # malformed documents are input errors; failed axioms inside commands
        # are reported by the commands themselves
        print(f"invalid input: {e}", file=sys.stderr)
        return EXIT_INPUT
    except RuthvbError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if not getattr(args, "quiet", False):
            print(f"elapsed: {time.monotonic() - start:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
