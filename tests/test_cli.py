"""Exit codes and JSON output of the command-line interface."""

import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from linfgraph import Tree, named_graph, save_instance, tk4_instance, w4_witness
from linfgraph.cli import main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def w4_file(tmp_path):
    p = tmp_path / "w4.json"
    save_instance(*w4_witness(), p)
    return str(p)


@pytest.fixture
def k3_file(tmp_path):
    from linfgraph import DistanceFunction

    g = named_graph("K_3")
    p = tmp_path / "k3.json"
    save_instance(g, DistanceFunction.from_values([3, 4, 5]), p)
    return str(p)


def test_usage_errors_exit_2(run, tmp_path):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    code, _, err = run("validate", str(tmp_path / "missing.json"))
    assert code == 2 and "error:" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{nope")
    code, _, err = run("validate", str(broken))
    assert code == 2 and "parse error" in err


_EDGE = '{"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "d": %s}]}'
_HOSTILE = {
    "not_utf8": b"\xff\xfe{}",
    "directory": None,
    "long_integer": (_EDGE % ("1" * 5000)).encode(),
    "deep_nesting": b"[" * 200_000 + b"]" * 200_000,
    "huge_weight": (_EDGE % '"1e5000"').encode(),
    "huge_coordinate": b'{"type": "realization", "k": 1, "points": [[0, ["1e5000"]], [1, ["0"]]]}',
}


@pytest.mark.parametrize("kind", sorted(_HOSTILE))
@pytest.mark.parametrize("argv", [
    ["validate", "HOSTILE"],
    ["realize", "HOSTILE", "--dim", "2"],
    ["classify", "HOSTILE"],
    ["verify", "HOSTILE", "--certificate", "CERT"],
    ["verify", "EDGE", "--certificate", "HOSTILE"],
], ids=["validate", "realize", "classify", "verify-instance", "verify-certificate"])
def test_hostile_files_exit_2(run, tmp_path, kind, argv):
    edge = tmp_path / "edge.json"
    edge.write_text(_EDGE % '"1"')
    cert = tmp_path / "cert.json"
    cert.write_text('{"type": "realization", "k": 1, "points": [[0, ["0"]], [1, ["1"]]]}')
    assert run("verify", str(edge), "--certificate", str(cert))[0] == 0
    hostile = tmp_path / kind
    if _HOSTILE[kind] is None:
        hostile.mkdir()
    else:
        hostile.write_bytes(_HOSTILE[kind])
    files = {"HOSTILE": str(hostile), "EDGE": str(edge), "CERT": str(cert)}
    code, out, err = run(*(files.get(a, a) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_gen_into_a_directory_exits_2(run, tmp_path):
    code, out, err = run("gen", "--family", "w4-witness", "-o", str(tmp_path))
    assert code == 2 and out == "" and err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["realize", "--dim", "0"],
    ["realize", "--dim", "-3"],
    ["generic-check", "--budget", "-1"],
    ["bounds", "--samples", "-1"],
])
def test_out_of_range_numbers_are_usage_errors(run, w4_file, argv):
    code, out, err = run(argv[0], w4_file, *argv[1:])
    assert code == 2 and out == "" and "must be at least" in err


@pytest.mark.parametrize("argv", [["realize", "--dim", "2", "--threads", "2"], ["min-dim", "--threads", "2"]])
def test_threads_option_is_a_usage_error(run, w4_file, argv):
    # the search runs in one process, so there is no --threads option
    code, out, err = run(argv[0], w4_file, *argv[1:])
    assert code == 2 and out == "" and "--threads" in err


def test_verify_rejects_malformed_certificates(run, w4_file, tmp_path):
    cert = tmp_path / "cert.json"
    for obj in ({"type": "cover"},
                {"type": "cover", "parts": [{"arcs": [[1]], "potential": []}]},
                {"type": "realization", "points": [[1, ["0"]]]},
                {"type": "minor_embedding", "pattern": {"vertices": [], "edges": []}},
                # an arc that is no edge, under a potential that passes every edge
                {"type": "cover", "parts": [{"arcs": [[1, 99]],
                                             "potential": [[v, "0"] for v in w4_witness()[0].vertices]}]}):
        cert.write_text(json.dumps(obj))
        code, _, err = run("verify", w4_file, "--certificate", str(cert))
        assert code == 2 and "error:" in err


@pytest.mark.parametrize("pattern", [None, [], "w4"])
@pytest.mark.parametrize("command", ["verify", "render"])
def test_embedding_without_a_pattern_object_names_the_field(run, w4_file, tmp_path, pattern, command):
    cert = tmp_path / "emb.json"
    obj = {"type": "minor_embedding", "branch_sets": [], "edge_realization": []}
    if pattern is not None:
        obj["pattern"] = pattern
    cert.write_text(json.dumps(obj))
    code, out, err = run(command, w4_file, "--certificate", str(cert))
    assert code == 2 and out == ""
    assert err == "error: embedding: field 'pattern' must be an instance object\n"


_CERT_KEYS = ["k", "parts", "arcs", "potential", "points", "pattern", "vertices",
              "edges", "u", "v", "d", "branch_sets", "edge_realization", "realization"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 6) | st.floats(allow_nan=False)
    | st.sampled_from(["1/2", "3", "x", "1/0", "cover"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_CERT_KEYS), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["cover", "realization", "minor_embedding"]),
    fields=st.dictionaries(st.sampled_from(_CERT_KEYS), _JSON, max_size=5),
    command=st.sampled_from(["verify", "convert-l1", "render"]),
)
def test_random_certificates_keep_the_exit_code_contract(kind, fields, command):
    with tempfile.TemporaryDirectory() as tmp:
        inst, cert = Path(tmp, "w4.json"), Path(tmp, "cert.json")
        save_instance(*w4_witness(), inst)
        cert.write_text(json.dumps({**fields, "type": kind}))
        argv = {"verify": ["verify", str(inst)], "convert-l1": ["convert-l1"],
                "render": ["render", str(inst)]}[command]
        # an uncaught exception fails the test with its traceback
        assert main(argv + ["--certificate", str(cert)]) in (0, 1, 2)


_VERTEX = st.integers(-1, 5) | st.sampled_from(["a", "b", True, None, 1.5, [1]])
_CLEAN_WEIGHT = st.integers(1, 30) | st.fractions(1, 20, max_denominator=7).map(str)
_WEIGHT = (_CLEAN_WEIGHT | st.integers(-2, 0)
           | st.sampled_from(["0", "-1/4", "1/0", "x", 2.5, None, [1]]))


@st.composite
def _plausible_instance(draw):
    # mostly well-formed, so the commands get past parsing and run
    n = draw(st.integers(1, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9)) if pairs else []
    weight = draw(st.sampled_from([None, _CLEAN_WEIGHT, _WEIGHT]))
    edges = [{"u": u, "v": v, **({} if weight is None else {"d": draw(weight)})}
             for u, v in picks]
    vertices = list(range(n))
    if draw(st.integers(0, 3)) == 0:
        vertices.append(draw(_VERTEX))
        edges.append(draw(st.fixed_dictionaries({"u": _VERTEX, "v": _VERTEX},
                                                optional={"d": _WEIGHT}) | _JSON))
    return {"vertices": vertices, "edges": edges}


_INSTANCE = (
    _plausible_instance()
    | st.dictionaries(st.sampled_from(["vertices", "edges", "u", "v", "d"]), _JSON, max_size=3)
    | _JSON
)
_INSTANCE_ARGV = [
    ["validate", "FILE"], ["realize", "FILE", "--dim", "2"], ["min-dim", "FILE"],
    ["classify", "FILE"], ["generic-check", "FILE"], ["bounds", "FILE", "--samples", "1"],
    ["certify-exceeds2", "FILE"], ["render", "FILE"],
    ["gen", "--family", "random", "--graph", "FILE"],
]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(obj=_INSTANCE, argv=st.sampled_from(_INSTANCE_ARGV))
def test_random_instances_keep_the_exit_code_contract(run, tmp_path, obj, argv):
    inst = tmp_path / "instance.json"
    inst.write_text(json.dumps(obj))
    code, _, err = run(*(str(inst) if a == "FILE" else a for a in argv))
    assert code in (0, 1, 2) and "Traceback" not in err


def test_validate(run, w4_file, tmp_path):
    code, out, _ = run("validate", w4_file)
    assert code == 0 and json.loads(out) == {"valid": True, "violations": []}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "d": "10/1"},
                  {"u": 2, "v": 3, "d": "1/1"},
                  {"u": 1, "v": 3, "d": "1/1"}],
    }))
    code, out, _ = run("validate", str(bad))
    assert code == 1
    report = json.loads(out)
    assert not report["valid"] and report["violations"][0]["edge"] == [1, 2]


def test_unprintable_numbers_keep_the_verdict(run, tmp_path):
    # values past the interpreter's int-to-str limit: a violation's path
    # length with a denominator of about 6,000 digits, and a squared
    # distance of 6,001 digits from a coordinate of 3,001
    big = 10**3000
    tri = tmp_path / "tri.json"
    tri.write_text(json.dumps({
        "vertices": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "d": f"1/{big + 1}"},
                  {"u": 2, "v": 3, "d": f"1/{big + 3}"},
                  {"u": 1, "v": 3, "d": "1/1"}],
    }))
    code, out, err = run("validate", str(tri))
    assert code == 1 and "Traceback" not in err
    (violation,) = json.loads(out)["violations"]
    assert violation["edge"] == [1, 3] and "too long to print" in violation["length"]

    cert = tmp_path / "far.json"
    cert.write_text(json.dumps({
        "type": "realization", "k": 1,
        "points": [[1, ["0"]], [2, ["1e3000"]], [3, ["0"]]],
    }))
    code, out, err = run("verify", str(tri), "--certificate", str(cert), "--norm", "2")
    assert code == 1 and "Traceback" not in err
    report = json.loads(out)
    assert report["ok"] is False and "too long to print" in report["detail"]


def test_unwritable_certificate_exits_2_without_a_file(run, tmp_path):
    # the far vertex's potential has a denominator of about 6,000 digits,
    # past the interpreter's int-to-str limit, so the cover cannot be written
    big = 10**3000
    path3 = tmp_path / "path3.json"
    path3.write_text(json.dumps({
        "vertices": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "d": f"1/{big + 1}"},
                  {"u": 2, "v": 3, "d": f"1/{big + 3}"}],
    }))
    cert = tmp_path / "c.json"
    code, out, err = run("realize", str(path3), "--dim", "1", "--certificate", str(cert))
    assert code == 2 and out == ""
    (line,) = [x for x in err.splitlines() if x.startswith("error:")]
    assert "too long to write" in line and "Traceback" not in err
    assert not cert.exists()


def test_commands_require_weights(run, tmp_path):
    p = tmp_path / "plain.json"
    save_instance(named_graph("K_3"), None, p)
    code, _, err = run("realize", str(p), "--dim", "2")
    assert code == 2 and "no edge weights" in err


def test_generic_check(run, w4_file, k3_file, tmp_path):
    code, out, _ = run("generic-check", k3_file)
    assert code == 0 and json.loads(out)["status"] == "generic"

    # 1+1 == 2 splits the triangle cycle evenly
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({
        "vertices": [1, 2, 3],
        "edges": [{"u": 1, "v": 2, "d": "1/1"},
                  {"u": 2, "v": 3, "d": "1/1"},
                  {"u": 1, "v": 3, "d": "2/1"}],
    }))
    code, out, _ = run("generic-check", str(flat))
    assert code == 1
    report = json.loads(out)
    assert report["status"] == "not_generic" and len(report["cycle"]) == 3

    code, out, err = run("generic-check", w4_file, "--budget", "2")
    assert code == 2 and json.loads(out)["status"] == "budget_exceeded"
    assert "inconclusive" in err


def test_realize_and_verify_roundtrip(run, w4_file, tmp_path):
    code, out, err = run("realize", w4_file, "--dim", "2")
    assert code == 1 and json.loads(out) == {"realizable": False, "k": 2,
                                             "nodes": json.loads(out)["nodes"]}
    assert "search finished" in err

    cert = tmp_path / "cover.json"
    code, out, _ = run("realize", w4_file, "--dim", "3", "--certificate", str(cert))
    assert code == 0 and json.loads(out)["realizable"] is True
    assert cert.exists()

    assert run("verify", w4_file, "--certificate", str(cert))[0] == 0

    obj = json.loads(cert.read_text())
    obj["parts"][0]["potential"][0][1] = "999/1"
    cert.write_text(json.dumps(obj))
    code, out, _ = run("verify", w4_file, "--certificate", str(cert))
    assert code == 1 and json.loads(out)["ok"] is False


def test_realize_rejects_more_dimensions_than_edges(run, w4_file):
    # the witness has 8 edges: one per part always suffices, so a larger
    # --dim is a usage error rather than a search padded to that many parts
    code, out, err = run("realize", w4_file, "--dim", str(10**12))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "always suffice" in err
    code, out, _ = run("realize", w4_file, "--dim", "8")
    assert code == 0 and json.loads(out)["realizable"] is True
    assert run("realize", w4_file, "--dim", "9")[0] == 2


def test_min_dim(run, w4_file, tmp_path):
    code, out, _ = run("min-dim", w4_file)
    assert code == 0 and json.loads(out) == {"min_dimension": 3}
    # a 21-vertex path with unit weights embeds on a line
    from linfgraph import DistanceFunction

    path = tmp_path / "path21.json"
    save_instance(named_graph("path_21"), DistanceFunction.from_values([1] * 20), path)
    code, out, _ = run("min-dim", str(path))
    assert code == 0 and json.loads(out) == {"min_dimension": 1}


def test_bounds(run, tmp_path):
    p = tmp_path / "k4.json"
    save_instance(named_graph("K_4"), None, p)
    wit = tmp_path / "wit.json"
    code, out, _ = run("bounds", str(p), "--samples", "4", "--witness-out", str(wit))
    assert code == 0
    b = json.loads(out)
    assert 2 <= b["lower"] <= b["upper"] == 3
    assert b["exact"] == (b["lower"] == b["upper"])


@pytest.mark.parametrize("name", ["path_21", "C_21", "path_33"])
def test_bounds_past_the_caps(run, tmp_path, name):
    p = tmp_path / f"{name}.json"
    save_instance(named_graph(name), None, p)
    code, out, _ = run("bounds", str(p), "--samples", "2")
    assert code == 0
    b = json.loads(out)
    assert 1 <= b["lower"] <= b["upper"]


def test_classify(run, tmp_path):
    k4 = tmp_path / "k4.json"
    save_instance(named_graph("K_4"), None, k4)
    code, out, _ = run("classify", str(k4))
    assert code == 0 and json.loads(out) == {"verdict": "dim_at_most_2"}

    k5 = tmp_path / "k5.json"
    save_instance(named_graph("K_5"), None, k5)
    code, out, _ = run("classify", str(k5))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "exceeds_2"
    assert report["witness"]["type"] == "minor_embedding"


def test_certify_exceeds2(run, tmp_path):
    c6 = tmp_path / "c6.json"
    save_instance(named_graph("C_6"), None, c6)
    code, out, _ = run("certify-exceeds2", str(c6))
    assert code == 0 and json.loads(out) == {"verdict": "dim_at_most_2"}

    k5 = tmp_path / "k5.json"
    wit = tmp_path / "wit.json"
    save_instance(named_graph("K_5"), None, k5)
    code, out, _ = run("certify-exceeds2", str(k5), "--witness-out", str(wit))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "exceeds_2" and report["exhausted_at_2"] is True

    # the emitted weights defeat the 2-dimensional search end to end
    assert run("validate", str(wit))[0] == 0
    assert run("realize", str(wit), "--dim", "2")[0] == 1


def test_certify_exceeds2_points_verify_in_the_sum_norm(run, tmp_path):
    w5 = tmp_path / "w5.json"
    wit = tmp_path / "wit.json"
    save_instance(named_graph("W_5"), None, w5)
    code, out, _ = run("certify-exceeds2", str(w5), "--witness-out", str(wit))
    assert code == 1
    realization = json.loads(out)["realization"]
    assert (realization["type"], realization["norm"], realization["k"]) == ("realization", 1, 3)
    points = tmp_path / "points.json"
    points.write_text(json.dumps(realization))
    assert run("verify", str(wit), "--certificate", str(points), "--norm", "1")[0] == 0

    _, coords = realization["points"][0]
    coords[0] = str(Fraction(coords[0]) + 1)
    points.write_text(json.dumps(realization))
    code, out, _ = run("verify", str(wit), "--certificate", str(points), "--norm", "1")
    assert code == 1 and json.loads(out)["ok"] is False


def test_certify_exceeds2_classifies_once(run, tmp_path, monkeypatch):
    import linfgraph.minors

    calls = []
    real = linfgraph.minors.classify_dim2

    def counting(g):
        calls.append(g)
        return real(g)

    # the command imports classify_dim2 from minors when it runs
    monkeypatch.setattr(linfgraph.minors, "classify_dim2", counting)
    k5 = tmp_path / "k5.json"
    save_instance(named_graph("K_5"), None, k5)
    assert run("certify-exceeds2", str(k5))[0] == 1
    assert len(calls) == 1


def test_minor(run, tmp_path):
    k5 = tmp_path / "k5.json"
    save_instance(named_graph("K_5"), None, k5)
    cert = tmp_path / "emb.json"
    code, out, _ = run("minor", str(k5), "--pattern", "w4", "--certificate", str(cert))
    assert code == 0 and json.loads(out)["contains"] is True

    assert run("verify", str(k5), "--certificate", str(cert))[0] == 0

    code, out, _ = run("minor", str(k5), "--pattern", "k4e")
    assert code == 1 and json.loads(out) == {"contains": False}

    patt = tmp_path / "patt.json"
    save_instance(named_graph("C_4"), None, patt)
    assert run("minor", str(k5), "--pattern", str(patt))[0] == 0

    # the doubled 5-vertex path is W4-free, read off its K4 pieces
    tk4 = tmp_path / "tk4.json"
    save_instance(*tk4_instance(Tree.build(named_graph("path_5"))), tk4)
    code, out, _ = run("minor", str(tk4), "--pattern", "w4")
    assert code == 1 and json.loads(out) == {"contains": False}


def test_gen_families_and_byte_stability(run, tmp_path):
    for family in ("w4-witness", "k4e-witness", "k7"):
        f1, f2 = tmp_path / f"{family}1.json", tmp_path / f"{family}2.json"
        assert run("gen", "--family", family, "-o", str(f1))[0] == 0
        assert run("gen", "--family", family, "-o", str(f2))[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    code, out, _ = run("gen", "--family", "w4-witness")
    assert code == 0 and json.loads(out)["vertices"] == [1, 2, 3, 4, 5]


def test_gen_tk4_and_random(run, tmp_path):
    tree = tmp_path / "tree.json"
    save_instance(named_graph("path_3"), None, tree)
    out_f = tmp_path / "tk4.json"
    code = main(["gen", "--family", "tk4", "--tree", str(tree),
                 "--integer-scaled", "-o", str(out_f)])
    assert code == 0
    obj = json.loads(out_f.read_text())
    assert len(obj["vertices"]) == 6 and len(obj["edges"]) == 11

    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["gen", "--family", "random", "--name", "K_4", "--seed", "5",
                 "-o", str(r1)]) == 0
    assert main(["gen", "--family", "random", "--name", "K_4", "--seed", "5",
                 "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    assert run("validate", str(r1))[0] == 0
    assert run("generic-check", str(r1))[0] == 0

    code, _, err = run("gen", "--family", "tk4")
    assert code == 2 and "--tree" in err


def test_convert_l1_and_norm_verification(run, k3_file, tmp_path):
    cert = tmp_path / "cover2.json"
    assert run("realize", k3_file, "--dim", "2", "--certificate", str(cert))[0] == 0

    l1 = tmp_path / "l1.json"
    code, _, _ = run("convert-l1", "--certificate", str(cert), "-o", str(l1))
    assert code == 0
    obj = json.loads(l1.read_text())
    assert obj["type"] == "realization" and obj["norm"] == 1

    # the image matches the weights in the sum norm, not (generally) max norm
    assert run("verify", k3_file, "--certificate", str(l1), "--norm", "1")[0] == 0

    code, _, err = run("convert-l1", "--certificate", str(tmp_path / "nope.json"))
    assert code == 2


def test_convert_l1_rejects_other_dimensions(run, w4_file, tmp_path):
    cert = tmp_path / "cover3.json"
    assert run("realize", w4_file, "--dim", "3", "--certificate", str(cert))[0] == 0
    code, _, err = run("convert-l1", "--certificate", str(cert))
    assert code == 2 and "k=3" in err


def test_render(run, k3_file, tmp_path):
    code, out, _ = run("render", k3_file)
    assert code == 0 and out.startswith("graph {") and 'label="3"' in out

    k5 = tmp_path / "k5.json"
    save_instance(named_graph("K_5"), None, k5)
    emb = tmp_path / "emb.json"
    run("minor", str(k5), "--pattern", "w4", "--certificate", str(emb))
    dot = tmp_path / "out.dot"
    code, _, _ = run("render", str(k5), "--certificate", str(emb), "-o", str(dot))
    assert code == 0 and dot.read_text().count("style=filled") == 5
