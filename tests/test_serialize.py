"""JSON instance and certificate files, and DOT rendering."""

import json
from fractions import Fraction

import pytest

from linfgraph import (
    DistanceFunction,
    Graph,
    InputError,
    contains_minor,
    cover_from_obj,
    cover_to_obj,
    decide_realizable,
    build_realization,
    embedding_from_obj,
    embedding_to_obj,
    instance_from_obj,
    instance_to_obj,
    k4ek4_witness,
    k7_generic,
    load_certificate,
    load_instance,
    named_graph,
    realization_from_obj,
    realization_to_obj,
    render_dot,
    save_certificate,
    save_instance,
    tk4_instance,
    Tree,
    w4_witness,
)


# -- instance round-trips -----------------------------------------------------


def _generators():
    yield w4_witness()
    yield k4ek4_witness()
    yield k7_generic()
    yield tk4_instance(Tree.build(named_graph("path_3")))
    yield named_graph("petersen"), None


def test_save_load_save_is_byte_stable(tmp_path):
    for i, (g, d) in enumerate(_generators()):
        p1, p2 = tmp_path / f"a{i}.json", tmp_path / f"b{i}.json"
        save_instance(g, d, p1)
        g2, d2 = load_instance(p1)
        assert g2 == g
        assert (d2.weights if d2 else None) == (d.weights if d else None)
        save_instance(g2, d2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_weights_are_written_as_reduced_fractions(tmp_path):
    g = Graph.build([1, 2], [(1, 2)])
    d = DistanceFunction.from_values([Fraction(2, 4)])
    p = tmp_path / "half.json"
    save_instance(g, d, p)
    assert '"1/2"' in p.read_text()
    _, d2 = load_instance(p)
    assert d2.weights == (Fraction(1, 2),)


def test_instance_obj_parsing_accepts_string_fraction_weights():
    obj = {
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "d": "7/2"}],
    }
    g, d = instance_from_obj(obj)
    assert d.weights == (Fraction(7, 2),)


def test_instance_parse_diagnostics(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"vertices": [1, 2],\n  "edges": [}\n')
    with pytest.raises(InputError) as exc:
        load_instance(p)
    assert "line 2" in str(exc.value) and "column" in str(exc.value)


def test_instance_field_diagnostics():
    with pytest.raises(InputError, match="vertices"):
        instance_from_obj({"edges": []})
    with pytest.raises(InputError, match="edges\\[0\\]"):
        instance_from_obj({"vertices": [1, 2], "edges": [{"u": 1}]})
    with pytest.raises(InputError, match="edges\\[1\\]"):
        instance_from_obj(
            {"vertices": [1, 2, 3],
             "edges": [{"u": 1, "v": 2, "d": "1"}, {"u": 1, "v": 3, "d": "x/y"}]}
        )
    # a weight too long to write back, from the exponent form or a big int
    for huge in ("1e5000", "1e-5000", 10**5000):
        with pytest.raises(InputError, match="edges\\[0\\]: bad weight"):
            instance_from_obj({"vertices": [1, 2], "edges": [{"u": 1, "v": 2, "d": huge}]})
    with pytest.raises(InputError, match="vertex ids"):
        instance_from_obj({"vertices": [1.5], "edges": []})
    with pytest.raises(InputError, match="all or none"):
        instance_from_obj(
            {"vertices": [1, 2, 3],
             "edges": [{"u": 1, "v": 2, "d": "1"}, {"u": 1, "v": 3}]}
        )
    with pytest.raises(InputError, match="duplicate"):
        instance_from_obj(
            {"vertices": [1, 2],
             "edges": [{"u": 1, "v": 2}, {"u": 2, "v": 1}]}
        )


def test_metadata_is_ignored_on_load(tmp_path):
    p = tmp_path / "meta.json"
    p.write_text('{"vertices": [1, 2, 3, 4], "metadata": {"note": "unit cycle"}, "edges": '
                 '[{"u": 1, "v": 2}, {"u": 2, "v": 3}, {"u": 3, "v": 4}, {"u": 1, "v": 4}]}')
    g, d = load_instance(p)
    assert g == named_graph("C_4") and d is None


# -- certificate round-trips ----------------------------------------------------


def test_cover_certificate_round_trip(tmp_path):
    g, d = w4_witness()
    cover = decide_realizable(g, d, 3).cover
    obj = cover_to_obj(g, cover)
    p = tmp_path / "cover.json"
    save_certificate(obj, p)
    back = cover_from_obj(load_certificate(p))
    assert back.check(g, d)
    assert back.parts == cover.parts
    assert back.potentials == cover.potentials


def test_realization_certificate_round_trip(tmp_path):
    g, d = k4ek4_witness()
    r = build_realization(g, d, decide_realizable(g, d, 3).cover)
    p = tmp_path / "real.json"
    save_certificate(realization_to_obj(r), p)
    back = realization_from_obj(load_certificate(p))
    assert back == r


def test_embedding_certificate_round_trip(tmp_path):
    host = named_graph("K_5")
    emb = contains_minor(host, named_graph("W_4"))
    p = tmp_path / "emb.json"
    save_certificate(embedding_to_obj(emb), p)
    back = embedding_from_obj(load_certificate(p))
    assert back.check(host)
    assert back.branch_sets == emb.branch_sets
    assert back.edge_realization == emb.edge_realization


def test_certificate_type_mismatches():
    g, d = w4_witness()
    cover_obj = cover_to_obj(g, decide_realizable(g, d, 3).cover)
    with pytest.raises(InputError):
        realization_from_obj(cover_obj)
    with pytest.raises(InputError):
        embedding_from_obj(cover_obj)
    with pytest.raises(InputError):
        cover_from_obj({"type": "realization"})


def test_certificate_file_needs_a_type(tmp_path):
    p = tmp_path / "untyped.json"
    p.write_text('{"k": 2}\n')
    with pytest.raises(InputError, match="type"):
        load_certificate(p)


# -- DOT rendering ----------------------------------------------------------------


def test_dot_output_structure():
    g, d = w4_witness()
    dot = render_dot(g, d)
    assert dot.startswith("graph {") and dot.endswith("}\n")
    assert dot.count(" -- ") == 8
    assert 'label="200"' in dot and 'label="18"' in dot


def test_dot_fraction_labels():
    g, d = tk4_instance(Tree.build(named_graph("path_3")))
    dot = render_dot(g, d)
    assert 'label="1/4"' in dot and 'label="3/4"' in dot


def test_dot_branch_set_coloring():
    host = named_graph("K_5")
    emb = contains_minor(host, named_graph("W_4"))
    dot = render_dot(host, emb=emb)
    # five branch sets cover all five host vertices, so five fill colors
    assert dot.count("style=filled") == 5
    assert len({ln.split('fillcolor="')[1].split('"')[0]
                for ln in dot.splitlines() if "fillcolor" in ln}) == 5


def test_dot_escapes_string_ids():
    g = Graph.build(['sa"y', "b"], [('sa"y', "b")])
    dot = render_dot(g)
    assert '"b" -- "sa\\"y";' in dot
