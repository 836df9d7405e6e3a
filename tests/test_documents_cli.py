import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_chain_complex, random_gauge, random_strict_ruth
from ruthvb import documents as docs
from ruthvb.cli import main
from ruthvb.doldkan import ChainComplex, dk_classic
from ruthvb.exactla import RatMat
from ruthvb.errors import ValidationError
from ruthvb.groupoid import builtin_groupoids, pair_groupoid, unit_groupoid
from ruthvb.ruth import chain_complex_ruth, check_rh2, gauge_twist, twisted_ruth_direct
from ruthvb.sdp import build_sdp
from ruthvb.simplicial import verify_simplicial_identities
from ruthvb.svb import check_cleavage, pullback_svb


def test_rational_strings():
    assert docs.rat_to_str(Fr(3, 2)) == "3/2"
    assert docs.rat_to_str(Fr(-4)) == "-4"
    assert docs.rat_from_str("3/2") == Fr(3, 2)
    assert docs.rat_from_str("-4") == Fr(-4)
    assert docs.rat_from_str(7) == Fr(7)  # a plain JSON integer
    assert docs.rat_from_str("6/4") == Fr(3, 2)
    assert docs.rat_to_str(5) == "5"
    for bad in ("1/0", "1/00", True, 1.0, "", "-", "1/", "/2", "0x1", "1.5", "1e2", None):
        with pytest.raises(ValidationError):
            docs.rat_from_str(bad)


def test_groupoid_doc_roundtrip():
    G = pair_groupoid(3)
    doc = docs.groupoid_to_doc(G)
    H = docs.groupoid_from_doc(json.loads(docs.canonical_dumps(doc)))
    assert H.objects == G.objects
    assert H.comp == G.comp
    assert H.inv == G.inv


def test_ruth_doc_roundtrip():
    G = pair_groupoid(2)
    rng = random.Random(5)
    R0 = random_strict_ruth(G, rng, (1, 1))
    R = gauge_twist(R0, random_gauge(R0.E, rng))
    doc = docs.ruth_to_doc(R)
    R2 = docs.ruth_from_doc(json.loads(docs.canonical_dumps(doc)))
    assert R2.E.N == R.E.N
    for (m, s), table in R.ops.items():
        for deg, mat in table.items():
            s2 = R2.G.nerve_level(m)[G.simplex_index(s)]
            assert R2.block(m, s2, deg) == R.block(m, s, deg)
    assert check_rh2(R2).ok


def test_svb_and_cleavage_doc_roundtrip():
    G = pair_groupoid(2)
    rng = random.Random(6)
    R = random_strict_ruth(G, rng, (1, 1))
    B = build_sdp(R, 3)
    doc = docs.svb_to_doc(B)
    V = docs.svb_from_doc(json.loads(docs.canonical_dumps(doc)))
    for n in range(1, 4):
        for idx, s in enumerate(G.nerve_level(n)):
            s2 = V.base.nerve_level(n)[idx]
            assert V.face(n, 0, s2).to_dense() == B.face(n, 0, s).to_dense()
    cdoc = docs.cleavage_to_doc(B, B.canonical_cleavage())
    C = docs.cleavage_from_doc(V, json.loads(docs.canonical_dumps(cdoc)))
    from ruthvb.svb import check_cleavage, pullback_svb

    rep = check_cleavage(V, C, check_interior=False)
    assert rep.bijective and rep.normal and rep.weakly_flat


def _storage(m):
    """Each block of m with its storage kind: int, Fraction (scalar blocks) or RatMat."""
    return {key: (type(e).__name__, e) for key, e in m.blocks.items()}


@pytest.mark.parametrize("base,dims", [("Z/2", (1, 1)), ("pair(2)", (1, 1)), ("unit(2)", (1, 1, 1)),
                                       ("pair(2)", (2, 1))])
def test_svb_doc_storage_roundtrip(base, dims):
    """A reloaded bundle holds the built one's blocks, and writes the same bytes again."""
    rng = random.Random(12)
    R0 = random_strict_ruth(builtin_groupoids()[base], rng, dims)
    R = twisted_ruth_direct(R0, random_gauge(R0.E, rng))
    B = build_sdp(R, 2 * R.E.N + 3)
    text = docs.canonical_dumps(docs.svb_to_doc(B))
    V = docs.svb_from_doc(json.loads(text))
    kinds = set()
    for n in range(B.L + 1):
        for s, t in zip(B.base.nerve_level(n), V.base.nerve_level(n)):
            pairs = [(B.face(n, i, s), V.face(n, i, t)) for i in range(n + 1) if n]
            pairs += [(B.deg(n, j, s), V.deg(n, j, t)) for j in range(n + 1) if n < B.L]
            for built, loaded in pairs:
                assert _storage(loaded) == _storage(built), (n, s)
                kinds.update(kind for kind, _ in _storage(built).values())
    assert "int" in kinds  # the transports
    if max(dims) > 1:
        assert "RatMat" in kinds
    assert docs.canonical_dumps(docs.svb_to_doc(V)) == text


@settings(max_examples=40, deadline=None)
@given(base=st.sampled_from(sorted(builtin_groupoids())),
       dims=st.lists(st.integers(0, 2), min_size=1, max_size=2),
       seed=st.integers(0, 2**16))
def test_svb_and_cleavage_docs_roundtrip_property(base, dims, seed):
    """Documents reload to the same bytes and the same cleavage verdicts, on every base.

    Dimensions include zero, so some fibers and some face matrices are empty.
    """
    rng = random.Random(seed)
    R0 = random_strict_ruth(builtin_groupoids()[base], rng, tuple(dims))
    B = build_sdp(twisted_ruth_direct(R0, random_gauge(R0.E, rng)), 3)
    C = B.canonical_cleavage()
    text = docs.canonical_dumps(docs.svb_to_doc(B))
    ctext = docs.canonical_dumps(docs.cleavage_to_doc(B, C))
    V = docs.svb_from_doc(json.loads(text))
    D = docs.cleavage_from_doc(V, json.loads(ctext))
    assert docs.canonical_dumps(docs.svb_to_doc(V)) == text
    assert docs.canonical_dumps(docs.cleavage_to_doc(V, D)) == ctext
    assert check_cleavage(V, D, check_interior=False) == check_cleavage(B, C, check_interior=False)


@pytest.mark.parametrize("make_tower", [
    lambda: chain_complex_ruth(unit_groupoid(1), ChainComplex((0, 1), {})),
    lambda: random_strict_ruth(pair_groupoid(2), random.Random(1), (0, 1)),
], ids=["unit(1)-dims(0,1)", "pair(2)-dims(0,1)"])
def test_svb_doc_roundtrip_zero_dim_fibers(make_tower):
    """A 0 x c face matrix is written as [] and must reload as 0 x c, not 0 x 0."""
    B = build_sdp(make_tower(), 3)
    assert any(B.fiber_dim(0, s) == 0 for s in B.base.nerve_level(0))
    text = docs.canonical_dumps(docs.svb_to_doc(B))
    V = docs.svb_from_doc(json.loads(text))
    assert docs.canonical_dumps(docs.svb_to_doc(V)) == text
    assert verify_simplicial_identities(V).ok


def test_chain_doc_roundtrip():
    """Chain-complex documents round-trip byte for byte, zero-dimensional degrees included."""
    rng = random.Random(11)
    draws = [random_chain_complex(rng) for _ in range(40)]
    draws.append(ChainComplex((2, 0, 1), {}))
    assert any(0 in Y.dims[:-1] for Y in draws)  # some 0 x c boundary is written as []
    for Y in draws:
        text = docs.canonical_dumps(docs.chain_to_doc(Y))
        Z = docs.chain_from_doc(json.loads(text))
        assert Z == Y
        assert docs.canonical_dumps(docs.chain_to_doc(Z)) == text


@pytest.mark.parametrize("boundary", [
    {"1": [["1", "0"], ["0"]]},  # ragged
    {"2": [["1", "0"], ["0", "1"]]},  # no degree 2: would be dropped silently
    {"0": [["1", "0"], ["0", "1"]]},
], ids=["ragged", "above-top", "degree-0"])
def test_chain_doc_bad_boundary(boundary):
    doc = {"kind": "chain_complex", "dims": [2, 2], "boundary": boundary}
    with pytest.raises(ValidationError):
        docs.chain_from_doc(doc)


def _drop_L(svb, cleavage, ruth):
    del svb["L"]
    return ["validate", "svb", "svb.json"]


def _drop_fibers(svb, cleavage, ruth):
    del svb["fibers"]
    return ["validate", "svb", "svb.json"]


def _simplex_out_of_range(svb, cleavage, ruth):
    ruth["operators"][0]["simplex"] = 99
    return ["validate", "ruth", "ruth.json"]


def _operator_above_top_degree(svb, cleavage, ruth):
    # degree + m - 1 lies above the top degree: rejected before level 99 of
    # the nerve, with 2^100 simplices on pair(2), is enumerated
    ruth["operators"][0]["m"] = 99
    return ["validate", "ruth", "ruth.json"]


def _duplicate_operator_entry(svb, cleavage, ruth):
    ruth["operators"].append(dict(ruth["operators"][0]))  # the last copy won silently
    return ["validate", "ruth", "ruth.json"]


def _extra_cleavage_fiber(svb, cleavage, ruth):
    cleavage["fibers"]["1"].append(cleavage["fibers"]["1"][0])
    return ["validate", "cleavage", "cleavage.json", "--svb", "svb.json"]


def _negative_simplex(svb, cleavage, ruth):
    ruth["operators"][0]["simplex"] = -4
    return ["validate", "ruth", "ruth.json"]


def _unit_out_of_range(svb, cleavage, ruth):
    ruth["groupoid"]["units"]["o0"] = 99
    return ["validate", "groupoid", "groupoid.json"]


def _negative_unit(svb, cleavage, ruth):
    ruth["groupoid"]["units"]["o1"] = -1  # would wrap around to the true unit, arrow 3
    return ["validate", "groupoid", "groupoid.json"]


def _inverse_out_of_range(svb, cleavage, ruth):
    ruth["groupoid"]["inverses"][1][1] = 99
    return ["validate", "groupoid", "groupoid.json"]


def _negative_inverse(svb, cleavage, ruth):
    ruth["groupoid"]["inverses"][3][1] = -1
    return ["validate", "groupoid", "groupoid.json"]


def _composite_out_of_range(svb, cleavage, ruth):
    ruth["groupoid"]["compose"][0][2] = 99
    return ["validate", "groupoid", "groupoid.json"]


def _negative_arrow_id(svb, cleavage, ruth):
    ruth["groupoid"]["arrows"][3]["id"] = -1  # would wrap around to arrow 3
    ruth["groupoid"]["inverses"][3] = [-1, 3]
    return ["validate", "groupoid", "groupoid.json"]


def _negative_arrow_id_only(svb, cleavage, ruth):
    ruth["groupoid"]["arrows"][3]["id"] = -1
    return ["validate", "groupoid", "groupoid.json"]


def _duplicate_arrow_id(svb, cleavage, ruth):
    ruth["groupoid"]["arrows"][2]["id"] = 1
    return ["validate", "groupoid", "groupoid.json"]


def _negative_inverse_key(svb, cleavage, ruth):
    ruth["groupoid"]["inverses"][3][0] = -1  # would wrap around to arrow 3
    return ["validate", "groupoid", "groupoid.json"]


def _missing_inverse(svb, cleavage, ruth):
    del ruth["groupoid"]["inverses"][2]
    return ["validate", "groupoid", "groupoid.json"]


def _mcap_string(svb, cleavage, ruth):
    ruth["mcap"] = "x"
    return ["validate", "ruth", "ruth.json"]


def _mcap_float(svb, cleavage, ruth):
    ruth["mcap"] = 1.5
    return ["validate", "ruth", "ruth.json"]


def _mcap_bool(svb, cleavage, ruth):
    ruth["mcap"] = True
    return ["validate", "ruth", "ruth.json"]


def _mcap_negative(svb, cleavage, ruth):
    ruth["mcap"] = -3  # would pass the coherence tower without checking a level
    return ["validate", "ruth", "ruth.json"]


def _mcap_flag_negative(svb, cleavage, ruth):
    return ["validate", "ruth", "ruth.json", "--mcap", "-5"]


def _mcap_flag_negative_build(svb, cleavage, ruth):
    return ["build-sdp", "ruth.json", "--mcap", "-5"]


def _ragged(rows):
    rows.append(rows[0] + ["0"])  # one row longer than the others


def _ragged_operator(svb, cleavage, ruth):
    _ragged(ruth["operators"][0]["matrix"])
    return ["validate", "ruth", "ruth.json"]


def _ragged_face(svb, cleavage, ruth):
    _ragged(svb["faces"]["1"][0][0])
    return ["validate", "svb", "svb.json"]


def _ragged_cleavage(svb, cleavage, ruth):
    _ragged(cleavage["fibers"]["1"][0])
    return ["validate", "cleavage", "cleavage.json", "--svb", "svb.json"]


def _negative_tower_dim(svb, cleavage, ruth):
    ruth["dims"]["o0"][1] = -1
    ruth["operators"] = []  # no stored block whose shape could disagree
    return ["validate", "ruth", "ruth.json"]


def _negative_L(svb, cleavage, ruth):
    svb["L"] = -1  # would check no level at all
    return ["validate", "svb", "svb.json"]


def _negative_block_dim(svb, cleavage, ruth):
    svb["L"] = 0  # level 0 has no faces that could disagree with the block
    svb["fibers"]["0"][0][0][1] = -1
    return ["validate", "svb", "svb.json"]


def _string_degree(svb, cleavage, ruth):
    ruth["operators"][0]["degree"] = "0"
    return ["validate", "ruth", "ruth.json"]


def _negative_degree(svb, cleavage, ruth):
    ruth["operators"][0]["degree"] = -1  # an empty block there was dropped silently
    ruth["operators"][0]["matrix"] = []
    return ["validate", "ruth", "ruth.json"]


def _bool_simplex(svb, cleavage, ruth):
    ruth["operators"][0]["simplex"] = True  # would index as simplex 1
    return ["validate", "ruth", "ruth.json"]


def _float_degree(svb, cleavage, ruth):
    ruth["operators"][0]["degree"] = float(ruth["operators"][0]["degree"])
    return ["validate", "ruth", "ruth.json"]


def _cleavage_wrong_L(svb, cleavage, ruth):
    cleavage["L"] = 99
    cleavage["fibers"]["4"] = cleavage["fibers"]["3"]
    return ["validate", "cleavage", "cleavage.json", "--svb", "svb.json"]


def _cleavage_without_L(svb, cleavage, ruth):
    del cleavage["L"]
    return ["validate", "cleavage", "cleavage.json", "--svb", "svb.json"]


def _cleavage_stray_level(svb, cleavage, ruth):
    cleavage["fibers"]["4"] = "junk"  # above L = 3
    return ["validate", "cleavage", "cleavage.json", "--svb", "svb.json"]


def _svb_stray_level(svb, cleavage, ruth):
    svb["fibers"]["9"] = "junk"
    svb["faces"]["9"] = "junk"
    return ["validate", "svb", "svb.json"]


def _repeated_fiber_label(svb, cleavage, ruth):
    assert svb["fibers"]["1"][0] == [[1, 1], [3, 1]]
    svb["fibers"]["1"][0] = [[1, 1], [1, 1]]  # block 1 would hide the first copy
    return ["validate", "svb", "svb.json"]


def _fiber_label(value):
    """A corruptor renaming the first block of a level-1 fiber; labels are masks or null."""

    def corrupt(svb, cleavage, ruth):
        assert svb["fibers"]["1"][0] == [[1, 1], [3, 1]]
        svb["fibers"]["1"][0][0][0] = value
        return ["validate", "svb", "svb.json"]

    corrupt.__name__ = f"_fiber_label({value!r})"
    return corrupt


def _operator_entry(value):
    """A corruptor writing value over the tower's 1/2 entry; each was read as a rational."""

    def corrupt(svb, cleavage, ruth):
        matrix = ruth["operators"][2]["matrix"]
        assert matrix == [["1/2"]]
        matrix[0][0] = value
        return ["validate", "ruth", "ruth.json"]

    corrupt.__name__ = f"_operator_entry({value!r})"
    return corrupt


def _face_entry_bool(svb, cleavage, ruth):
    rows = svb["faces"]["1"][0][0]
    assert rows[0][0] == "1"
    rows[0][0] = True  # was read as 1, the same map
    return ["validate", "svb", "svb.json"]


@pytest.mark.parametrize("corrupt", [_drop_L, _drop_fibers, _simplex_out_of_range,
                                     _operator_above_top_degree, _duplicate_operator_entry,
                                     _extra_cleavage_fiber, _negative_simplex,
                                     _unit_out_of_range, _negative_unit, _inverse_out_of_range,
                                     _negative_inverse, _composite_out_of_range,
                                     _negative_arrow_id, _negative_arrow_id_only,
                                     _duplicate_arrow_id, _negative_inverse_key,
                                     _missing_inverse, _mcap_string, _mcap_float, _mcap_bool,
                                     _mcap_negative, _mcap_flag_negative,
                                     _mcap_flag_negative_build, _ragged_operator, _ragged_face,
                                     _ragged_cleavage, _negative_tower_dim, _negative_L,
                                     _negative_block_dim, _string_degree, _negative_degree,
                                     _bool_simplex, _float_degree, _cleavage_wrong_L,
                                     _cleavage_without_L, _cleavage_stray_level,
                                     _svb_stray_level, _repeated_fiber_label,
                                     _fiber_label("m1"), _fiber_label(1.0), _fiber_label(True),
                                     _fiber_label([1]),
                                     _operator_entry(True), _operator_entry("1_0"),
                                     _operator_entry(" 1 "), _operator_entry("+1"),
                                     _operator_entry("1/-2"), _operator_entry("\u0661"),
                                     _face_entry_bool])
def test_cli_malformed_documents_exit_2(corrupt, tmp_path, monkeypatch):
    """README promises exit code 2 on a malformed document, not a traceback."""
    R = random_strict_ruth(pair_groupoid(2), random.Random(4), (1, 1))
    B = build_sdp(R, 3)
    svb, ruth = docs.svb_to_doc(B), docs.ruth_to_doc(R)
    cleavage = docs.cleavage_to_doc(B, B.canonical_cleavage())
    argv = corrupt(svb, cleavage, ruth)
    monkeypatch.chdir(tmp_path)
    for name, doc in (("svb.json", svb), ("cleavage.json", cleavage), ("ruth.json", ruth),
                      ("groupoid.json", ruth["groupoid"])):
        docs.save_document(name, doc)
    assert main(["--quiet"] + argv) == 2


def test_svb_writer_rejects_labels_without_document_form():
    """dk_classic labels its blocks by tuples: writing them as null would give
    a document with repeated labels, which the loader rejects."""
    Y = ChainComplex((1, 1), {1: RatMat.from_rows([[1]])})
    with pytest.raises(ValueError, match="fiber label"):
        docs.svb_to_doc(pullback_svb(dk_classic(Y, 3), unit_groupoid(1)))


@pytest.fixture()
def doc_dir(tmp_path):
    G = pair_groupoid(2)
    rng = random.Random(8)
    R0 = random_strict_ruth(G, rng, (1, 1))
    R = gauge_twist(R0, random_gauge(R0.E, rng))
    docs.save_document(str(tmp_path / "groupoid.json"), docs.groupoid_to_doc(G))
    docs.save_document(str(tmp_path / "ruth.json"), docs.ruth_to_doc(R))
    return tmp_path, R


def test_cli_validate_groupoid(doc_dir, capsys):
    path, _ = doc_dir
    assert main(["validate", "groupoid", str(path / "groupoid.json")]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_cli_validate_ruth_and_exit_codes(doc_dir, tmp_path):
    path, R = doc_dir
    assert main(["--quiet", "validate", "ruth", str(path / "ruth.json")]) == 0
    # corrupt one operator entry: validation failure, exit code 1
    doc = docs.load_document(str(path / "ruth.json"))
    for entry in doc["operators"]:
        if entry["m"] == 2:
            entry["matrix"][0][0] = "7/2"
            break
    bad = tmp_path / "bad.json"
    docs.save_document(str(bad), doc)
    assert main(["--quiet", "validate", "ruth", str(bad)]) == 1
    # unreadable input: exit code 2
    assert main(["--quiet", "validate", "ruth", str(tmp_path / "missing.json")]) == 2
    # malformed JSON: exit code 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["--quiet", "validate", "ruth", str(broken)]) == 2


def test_cli_build_and_split_pipeline(doc_dir, tmp_path):
    path, R = doc_dir
    out = tmp_path / "out"
    out.mkdir()
    code = main([
        "--quiet", "--json", str(tmp_path / "rep.json"),
        "build-sdp", str(path / "ruth.json"), "--out", str(out),
    ])
    assert code == 0
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert all(r["pass"] for r in rep["results"])
    code = main([
        "--quiet", "--json", str(tmp_path / "cert.json"),
        "split", str(out / "svb.json"), str(out / "cleavage.json"),
        "--out", str(tmp_path / "recovered.json"),
    ])
    assert code == 0
    recovered = docs.ruth_from_doc(docs.load_document(str(tmp_path / "recovered.json")))
    doc = docs.ruth_to_doc(recovered)
    original = docs.load_document(str(path / "ruth.json"))
    assert doc["operators"] == original["operators"]


def test_cli_build_creates_missing_out_dir(doc_dir, tmp_path):
    path, _ = doc_dir
    out = tmp_path / "missing" / "nested"
    assert main(["--quiet", "build-sdp", str(path / "ruth.json"), "--out", str(out)]) == 0
    V = docs.svb_from_doc(docs.load_document(str(out / "svb.json")))
    docs.cleavage_from_doc(V, docs.load_document(str(out / "cleavage.json")))


def test_cli_build_rejects_invalid_tower(doc_dir, tmp_path):
    path, _ = doc_dir
    doc = docs.load_document(str(path / "ruth.json"))
    entry = next(e for e in doc["operators"] if e["m"] == 1)
    entry["matrix"][0][0] = "9/7"
    bad = tmp_path / "bad.json"
    docs.save_document(str(bad), doc)
    assert main(["--quiet", "build-sdp", str(bad)]) == 1


def test_cli_split_rejects_bad_cleavage(doc_dir, tmp_path):
    path, _ = doc_dir
    out = tmp_path / "out"
    out.mkdir()
    assert main(["--quiet", "build-sdp", str(path / "ruth.json"), "--out", str(out)]) == 0
    cdoc = docs.load_document(str(out / "cleavage.json"))
    width = len(cdoc["fibers"]["2"][0][0])
    cdoc["fibers"]["2"][0] = [["0"] * (width - 1) + ["1"]]
    bad = tmp_path / "bad_cleavage.json"
    docs.save_document(str(bad), cdoc)
    assert main(["--quiet", "split", str(out / "svb.json"), str(bad)]) == 1


def test_cli_validate_cleavage_witnesses_by_line(tmp_path, monkeypatch):
    """Each line of `validate cleavage` lists the failures of its own check;
    only the bijectivity line carries a witness list when it passes."""
    G = pair_groupoid(2)
    rng = random.Random(5)
    R0 = random_strict_ruth(G, rng, (1, 1))
    R = twisted_ruth_direct(R0, random_gauge(R0.E, rng))
    monkeypatch.chdir(tmp_path)
    docs.save_document("ruth.json", docs.ruth_to_doc(R))
    (tmp_path / "out").mkdir()
    assert main(["--quiet", "build-sdp", "ruth.json", "--out", "out"]) == 0

    def results(cleavage):
        code = main(["--quiet", "--json", "rep.json", "validate", "cleavage", cleavage,
                     "--svb", "out/svb.json"])
        return code, json.loads((tmp_path / "rep.json").read_text())["results"]

    # the canonical cleavage of this twisted tower is weakly flat but not flat
    assert results("out/cleavage.json") == (1, [
        {"name": "bijective onto horns", "pass": True, "witness": []},
        {"name": "normal", "pass": True},
        {"name": "weakly flat", "pass": True},
        {"name": "flat", "pass": False, "witness": ["('flatness', 2, 2)", "('flatness', 2, 5)"]},
    ])
    cdoc = docs.load_document("out/cleavage.json")
    cdoc["fibers"]["1"][1] = [["0", "1"]]
    docs.save_document("bad.json", cdoc)
    assert results("bad.json") == (1, [
        {"name": "bijective onto horns", "pass": False, "witness": ["('complement', 1, 0, 1)"]},
        {"name": "normal", "pass": True},
        {"name": "weakly flat", "pass": False,
         "witness": ["('weak flatness', 2, 2)", "('weak flatness', 2, 3)"]},
        {"name": "flat", "pass": False,
         "witness": ["('flatness', 2, 2)", "('flatness', 2, 3)", "('flatness', 2, 5)"]},
    ])


def test_cli_determinism(doc_dir, tmp_path):
    path, _ = doc_dir
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["--quiet", "--json", str(a), "validate", "ruth", str(path / "ruth.json")]) == 0
    assert main(["--quiet", "--json", str(b), "validate", "ruth", str(path / "ruth.json")]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_examples_subcommand(capsys):
    assert main(["--quiet", "examples", "translation"]) == 0
    with_json = main(["examples", "not-full"])
    assert with_json == 0


def test_cli_cohomology(doc_dir, tmp_path):
    path, R = doc_dir
    out = tmp_path / "out"
    out.mkdir()
    main(["--quiet", "build-sdp", str(path / "ruth.json"), "--out", str(out)])
    code = main([
        "--quiet", "--json", str(tmp_path / "coh.json"),
        "cohomology", str(out / "svb.json"), "--max-degree", "1",
    ])
    assert code == 0
    rep = json.loads((tmp_path / "coh.json").read_text())
    assert "betti" in rep


def test_cli_cohomology_negative_degree(doc_dir, tmp_path):
    path, R = doc_dir
    out = tmp_path / "out"
    out.mkdir()
    main(["--quiet", "build-sdp", str(path / "ruth.json"), "--out", str(out)])
    code = main(["--quiet", "cohomology", str(out / "svb.json"), "--max-degree", "-1"])
    assert code == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ruthvb.cli", "examples", "dk-sign", "--quiet"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0


def test_fixture_dir_env(doc_dir, tmp_path, monkeypatch):
    path, _ = doc_dir
    monkeypatch.setenv("RUTHVB_FIXTURE_DIR", str(path))
    assert main(["--quiet", "validate", "groupoid", "groupoid.json"]) == 0


# sha256 of every file the pinned pipeline writes; a change to any of these
# means a canonical document or report is no longer byte-identical
PINNED_SHA256 = {
    "ruth.json": "cb1c2c2bd9fb3d9ef475bc70b1a566b388f08cd2ad0cb42e7fe34ea5e3f5cb5e",
    "ruth_bad.json": "add182416f3df71bb6fbfcc69361cc59447f4b1cbb32c68e8a8a9d61454e4169",
    "validate.json": "da6756a0e467a16f51815d95ac9e7f157eced70826e0bd47c36ce927f9f1dc93",
    "build.json": "a2f1b7ccd515e591f3f4ad9d6aaa1342b085075f401d110c3a384ee88389e722",
    "out/svb.json": "a6f2938ae5404144abe02bf3e474917cfe8dbf3f694446e689ce74b591bb1a89",
    "out/cleavage.json": "b7901029dfa7496c96591ed804337ecf5c17664a00ddafa1eb1d5c90dd102b90",
    "split.json": "a08ebc2b5a8acf291f5598f3b572f33ffb1da4d9eb3900c0540284981aefebfd",
    "recovered.json": "cb1c2c2bd9fb3d9ef475bc70b1a566b388f08cd2ad0cb42e7fe34ea5e3f5cb5e",
}


def test_cli_outputs_pinned(tmp_path, monkeypatch):
    """validate, build-sdp and split write the same bytes on a fixed twisted tower."""
    G = pair_groupoid(2)
    rng = random.Random(5)
    R0 = random_strict_ruth(G, rng, (1, 1))
    R = twisted_ruth_direct(R0, random_gauge(R0.E, rng))
    monkeypatch.chdir(tmp_path)
    doc = docs.ruth_to_doc(R)
    docs.save_document("ruth.json", doc)
    entry = next(e for e in doc["operators"] if e["m"] == 2)
    entry["matrix"][0][0] = "7/2"
    docs.save_document("ruth_bad.json", doc)
    assert main(["--quiet", "--json", "validate.json", "validate", "ruth", "ruth_bad.json"]) == 1
    (tmp_path / "out").mkdir()
    assert main(["--quiet", "--json", "build.json", "build-sdp", "ruth.json", "--out", "out"]) == 0
    assert main([
        "--quiet", "--json", "split.json", "split", "out/svb.json", "out/cleavage.json",
        "--out", "recovered.json",
    ]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_SHA256}
    assert digests == PINNED_SHA256
    assert digests["recovered.json"] == digests["ruth.json"]
