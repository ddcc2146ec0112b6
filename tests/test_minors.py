"""Minor containment, the dimension-2 classifier, and witness pullbacks."""

import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from linfgraph import (
    Graph,
    InputError,
    MinorEmbedding,
    Tree,
    blocks,
    certificate_exceeds_2,
    classify_dim2,
    contains_minor,
    decide_realizable,
    k4ek4_witness,
    min_dimension,
    named_graph,
    pullback_points,
    shortest_path_table,
    tk4_instance,
    validate_distance_function,
    verify_realization,
    w4_witness,
)
from linfgraph import minors
from linfgraph.minors import _minor_search, _three_connected_pieces, _wheel_in_piece

from atlas import connected_graphs_upto
from oracles import _connected, brute_has_minor, is_minor_model

W4 = named_graph("W_4")
K4E = named_graph("K4eK4")


def _subdivide_all(g: Graph) -> Graph:
    """Insert one new vertex in the middle of every edge."""
    verts = list(g.vertices)
    edges = []
    for u, v in g.edges:
        w = f"mid:{u}:{v}"
        verts.append(w)
        edges += [(u, w), (w, v)]
    return Graph.build(verts, edges)


def _grid(rows: int, cols: int) -> Graph:
    def v(r, c):
        return r * cols + c

    edges = [(v(r, c), v(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    edges += [(v(r, c), v(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    return Graph.build(range(rows * cols), edges)


def _subdivide_edges(g: Graph, targets) -> Graph:
    verts = list(g.vertices)
    edges = []
    targets = {tuple(sorted(t, key=str)) for t in targets}
    for u, v in g.edges:
        if tuple(sorted((u, v), key=str)) in targets:
            w = f"mid:{u}:{v}"
            verts.append(w)
            edges += [(u, w), (w, v)]
        else:
            edges.append((u, v))
    return Graph.build(verts, edges)


# -- contains_minor ---------------------------------------------------------


def test_k5_contains_the_wheel():
    emb = contains_minor(named_graph("K_5"), W4)
    assert emb is not None and emb.check(named_graph("K_5"))
    assert emb.pattern == W4


def test_w4_needs_all_its_edges():
    # removing two spokes leaves max degree 3, killing the hub
    k5 = named_graph("K_5")
    pruned = Graph.build(k5.vertices, [e for e in k5.edges if e not in ((1, 2), (1, 3))])
    assert contains_minor(pruned, W4) is None


def test_glued_cliques_contain_k4():
    emb = contains_minor(K4E, named_graph("K_4"))
    assert emb is not None and emb.check(K4E)


def test_petersen_contains_the_wheel():
    # contracting the five spokes yields K5
    emb = contains_minor(named_graph("petersen"), W4)
    assert emb is not None and emb.check(named_graph("petersen"))


def test_pattern_must_be_connected_and_nonempty():
    g = named_graph("K_4")
    with pytest.raises(InputError):
        contains_minor(g, Graph.build([], []))
    with pytest.raises(InputError):
        contains_minor(g, Graph.build([1, 2, 3], [(1, 2)]))


def test_minor_search_within_components():
    two_triangles = Graph.build(
        range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    )
    emb = contains_minor(two_triangles, named_graph("K_3"))
    assert emb is not None and emb.check(two_triangles)
    assert contains_minor(two_triangles, named_graph("K_4")) is None


def test_contains_minor_matches_brute_force():
    patterns = [
        named_graph("K_3"),
        named_graph("K_4"),
        named_graph("C_4"),
        named_graph("C_5"),
        named_graph("star_3"),
    ]
    for g in connected_graphs_upto(5):
        for h in patterns:
            emb = contains_minor(g, h)
            assert (emb is not None) == brute_has_minor(g, h)
            if emb is not None:
                assert emb.check(g)


def test_contains_minor_matches_brute_force_on_the_patterns_themselves():
    hosts = [
        K4E,
        named_graph("K_6"),
        named_graph("W_5"),
        named_graph("C_6"),
        named_graph("path_6"),
        named_graph("star_5"),
    ]
    for g in hosts:
        for h in (W4, K4E):
            assert (contains_minor(g, h) is not None) == brute_has_minor(g, h)


# -- MinorEmbedding.check tampering -------------------------------------------


def test_check_rejects_broken_embeddings():
    k2 = Graph.build(["a", "b"], [("a", "b")])
    path = named_graph("path_4")

    good = MinorEmbedding(k2, {"a": frozenset({1, 2}), "b": frozenset({3, 4})},
                          {("a", "b"): (2, 3)})
    assert good.check(path)

    # a missing branch set
    assert not MinorEmbedding(k2, {"a": frozenset({1, 2})}, {("a", "b"): (2, 3)}).check(path)
    # an empty branch set
    assert not MinorEmbedding(
        k2, {"a": frozenset(), "b": frozenset({3, 4})}, {("a", "b"): (2, 3)}
    ).check(path)
    # overlapping branch sets
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 2, 3}), "b": frozenset({3, 4})}, {("a", "b"): (2, 3)}
    ).check(path)
    # a disconnected branch set (1 and 3 are not adjacent on the path)
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 3}), "b": frozenset({4})}, {("a", "b"): (3, 4)}
    ).check(path)
    # a vertex outside the host
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 99}), "b": frozenset({3, 4})}, {("a", "b"): (2, 3)}
    ).check(path)
    # a missing realizing edge
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 2}), "b": frozenset({3, 4})}, {}
    ).check(path)
    # a realizing pair that is not a host edge
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 2}), "b": frozenset({3, 4})}, {("a", "b"): (1, 4)}
    ).check(path)
    # orientation must point from a's set into b's set
    assert not MinorEmbedding(
        k2, {"a": frozenset({1, 2}), "b": frozenset({3, 4})}, {("a", "b"): (3, 2)}
    ).check(path)


# -- classify_dim2 ------------------------------------------------------------


def test_classifier_on_the_minimal_patterns():
    for g, expected_pattern in ((W4, W4), (K4E, K4E)):
        c = classify_dim2(g)
        assert c.verdict == "exceeds_2"
        assert c.witness.pattern == expected_pattern
        assert c.witness.check(g)


def test_classifier_accepts_small_and_sparse_graphs():
    for name in ("K_4", "C_6", "path_6", "star_5", "K_3"):
        assert classify_dim2(named_graph(name)).verdict == "dim_at_most_2"
    assert classify_dim2(Graph.build([], [])).verdict == "dim_at_most_2"


def test_classifier_finds_wheels_in_dense_graphs():
    for name in ("K_5", "K_6", "W_5", "petersen"):
        c = classify_dim2(named_graph(name))
        assert c.verdict == "exceeds_2" and c.witness.check(named_graph(name))


def test_classifier_sees_through_subdivision():
    host = _subdivide_all(W4)
    c = classify_dim2(host)
    assert c.verdict == "exceeds_2"
    assert c.witness.pattern == W4
    assert c.witness.check(host)

    host2 = _subdivide_edges(K4E, [(2, 3), (4, 5)])
    c2 = classify_dim2(host2)
    assert c2.verdict == "exceeds_2"
    assert c2.witness.pattern == K4E
    assert c2.witness.check(host2)


def test_classifier_works_per_block():
    # a wheel with a pendant path hanging off a rim vertex
    w4 = W4
    verts = list(w4.vertices) + ["p1", "p2"]
    edges = list(w4.edges) + [(3, "p1"), ("p1", "p2")]
    g = Graph.build(verts, edges)
    c = classify_dim2(g)
    assert c.verdict == "exceeds_2" and c.witness.check(g)

    # two harmless blocks glued at a cut vertex stay harmless
    k4a = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    k4b = [(4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)]
    glued = Graph.build(range(1, 8), k4a + k4b)
    assert classify_dim2(glued).verdict == "dim_at_most_2"


def test_blocks_and_harmless_classification_build_no_graph(monkeypatch):
    # blocks are subsequences of a canonical graph, built without
    # Graph.build, and the witness check searches g itself; only a W4
    # witness writes its five-vertex wheel down with Graph.build, so K4eK4
    # witnesses, glued from two K4 pieces, run under this guard too
    exceeding = {
        "K4eK4": K4E,
        "doubled path_3": tk4_instance(Tree.build(named_graph("path_3")))[0],
    }
    graphs = {
        "tree": Graph.build([1, "a", 2, "b", 3], [(1, "a"), ("a", 2), ("a", "b"), ("b", 3)]),
        "C_6": named_graph("C_6"),
        "K_4": named_graph("K_4"),
        "bowtie": Graph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]),
        "K_4 with one edge subdivided": _subdivide_edges(named_graph("K_4"), [(1, 2)]),
    }

    def no_build(*args, **kwargs):
        raise AssertionError("Graph.build was called")

    monkeypatch.setattr(Graph, "build", no_build)
    for name, g in graphs.items():
        assert sum(b.m for b in blocks(g)) == g.m, name
        assert classify_dim2(g).verdict == "dim_at_most_2", name
    for name, g in exceeding.items():
        c = classify_dim2(g)
        assert c.verdict == "exceeds_2" and c.witness.pattern == K4E, name


def _model_mutations(g: Graph, emb: MinorEmbedding):
    """(kind, embedding) for emb's mutations: each branch set with a vertex
    of g not adjacent to it added ('apart'), with one member removed
    ('removed', which splits the set in two where that member is a cut
    vertex of it) and with a vertex not in g added ('absent')."""
    adjacent = {v: set(g.neighbors(v)) for v in g.vertices}
    for pv, bs in emb.branch_sets.items():
        near = set(bs).union(*(adjacent[x] for x in bs))
        apart = next((v for v in g.vertices if v not in near), None)
        changed = [("absent", bs | {"not-in-g"})]
        if apart is not None:
            changed.append(("apart", bs | {apart}))
        if len(bs) > 1:
            changed += [("removed", bs - {x}) for x in bs]
        for kind, new in changed:
            yield kind, MinorEmbedding(emb.pattern, {**emb.branch_sets, pv: new},
                                       emb.edge_realization)


def test_witness_check_matches_the_reference_on_mutated_witnesses():
    graphs = [g for g in connected_graphs_upto(6) if classify_dim2(g).verdict == "exceeds_2"]
    graphs += [_subdivide_all(W4), _subdivide_all(K4E),
               tk4_instance(Tree.build(named_graph("path_3")))[0]]
    kinds = dict.fromkeys(("apart", "absent", "removed", "split"), 0)
    for g in graphs:
        emb = classify_dim2(g).witness
        assert emb.check(g) and is_minor_model(g, emb)
        for kind, mutant in _model_mutations(g, emb):
            ok = mutant.check(g)
            assert ok == is_minor_model(g, mutant), (g.edges, kind, mutant.branch_sets)
            if kind != "removed":
                assert not ok
            kinds[kind] += 1
            if kind == "removed" and not all(_connected(bs, g.edges)
                                             for bs in mutant.branch_sets.values()):
                assert not ok
                kinds["split"] += 1
    assert len(graphs) == 37 + 3 and all(kinds.values()), kinds


def test_classifier_agrees_with_brute_minors_on_small_graphs():
    for g in connected_graphs_upto(5):
        expected = brute_has_minor(g, W4)  # the 6-vertex pattern cannot fit
        got = classify_dim2(g).verdict == "exceeds_2"
        assert got == expected


def _seeded_connected_gnp(count: int):
    rng = random.Random(20261018)
    out = []
    while len(out) < count:
        n = (7, 8)[len(out) % 2]
        p = rng.choice((0.3, 0.4, 0.5, 0.6))
        g = Graph.build(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < p])
        if g.is_connected():
            out.append(g)
    return out


def _seeded_subdivided_atlas(count: int):
    """Atlas graphs with one or two edges subdivided (at most 8 vertices),
    so that pieces and witnesses run through smoothed chains."""
    rng = random.Random(20261018)
    atlas = list(connected_graphs_upto(6))
    out = []
    while len(out) < count:
        g = rng.choice(atlas)
        if g.m < 2:
            continue
        verts, edges = list(g.vertices), set(g.edges)
        for i, (u, v) in enumerate(rng.sample(g.edges, rng.randint(1, 2))):
            w = f"s{i}"
            verts.append(w)
            edges -= {(u, v)}
            edges |= {(u, w), (w, v)}
        out.append(Graph.build(verts, edges))
    return out


def test_classifier_agrees_with_the_minor_oracle():
    graphs = (list(connected_graphs_upto(6)) + _seeded_connected_gnp(300)
              + _seeded_subdivided_atlas(60))
    assert len(graphs) == 143 + 300 + 60
    for g in graphs:
        c = classify_dim2(g)
        # the oracle is the branch-set search: contains_minor(g, W4) reads
        # the pieces, as the classifier does
        has_w4 = _minor_search(g, W4) is not None
        emb = contains_minor(g, W4)
        assert (emb is not None) == has_w4
        if emb is not None:
            assert emb.pattern == W4 and emb.check(g)
        expected = has_w4 or _minor_search(g, K4E) is not None
        assert (c.verdict == "exceeds_2") == expected
        if c.witness is not None:
            assert c.witness.check(g)


def test_w4_containment_never_searches_branch_sets(monkeypatch):
    def no_search(g, h):
        raise AssertionError("contains_minor(g, W4) reached the branch-set search")

    monkeypatch.setattr(minors, "_minor_search", no_search)
    # the doubled paths are W4-free: every piece is a K4
    for n in (5, 6):
        g, _ = tk4_instance(Tree.build(named_graph(f"path_{n}")))
        start = time.perf_counter()
        assert contains_minor(g, W4) is None
        assert time.perf_counter() - start < 1.0
    for g in (named_graph("petersen"), _subdivide_all(named_graph("W_7")), _grid(6, 6)):
        emb = contains_minor(g, W4)
        assert emb is not None and emb.pattern == W4 and emb.check(g)


def _piece_sizes(g: Graph) -> list:
    return sorted(len(piece) for piece in _three_connected_pieces(g))


def test_split_at_separation_pairs():
    assert _piece_sizes(K4E) == [4, 4]
    assert _piece_sizes(_subdivide_all(named_graph("W_5"))) == [6]
    assert _piece_sizes(named_graph("C_5")) == []
    assert _piece_sizes(named_graph("C_6")) == []
    assert _piece_sizes(named_graph("petersen")) == [10]
    # K4 with its edge 23 subdivided by 9
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    assert _piece_sizes(Graph.build([0, 1, 2, 3, 9], k4 + [(2, 9), (3, 9)])) == [4]
    # without the edge 23, the first clique of K4eK4 smooths into the edge 01
    assert _piece_sizes(Graph.build(K4E.vertices, [e for e in K4E.edges if e != (2, 3)])) == [4]


def test_splitter_smooths_in_linear_time(monkeypatch):
    # smoothing makes no cut-vertex search, so a fully subdivided graph
    # costs the splitter as many as the graph itself; without smoothing,
    # the subdivided graphs took 1,642, 70 and 27
    calls = []
    cut_vertex = minors._cut_vertex

    def counted(adj, gone):
        calls.append(None)
        return cut_vertex(adj, gone)

    monkeypatch.setattr(minors, "_cut_vertex", counted)
    for name, expected in (("W_40", 41), ("petersen", 10), ("K4eK4", 9)):
        for g in (named_graph(name), _subdivide_all(named_graph(name))):
            calls.clear()
            list(_three_connected_pieces(g))
            assert len(calls) == expected, (name, g.n)
    g = _subdivide_all(named_graph("W_40"))
    assert g.n == 121
    c = classify_dim2(g)
    assert c.verdict == "exceeds_2"
    assert c.witness.pattern == W4 and c.witness.check(g)


def test_wheel_found_through_a_virtual_edge():
    # the rim edge 1-2 of W4 replaced by a diamond 1-x-2, 1-y-2, x-y: only the
    # piece with the virtual edge 12 is a wheel
    edges = [e for e in W4.edges if e != (1, 2)]
    edges += [(1, "x"), ("x", 2), (1, "y"), ("y", 2), ("x", "y")]
    g = Graph.build(list(W4.vertices) + ["x", "y"], edges)
    assert _piece_sizes(g) == [4, 5]
    c = classify_dim2(g)
    assert c.verdict == "exceeds_2"
    assert c.witness.pattern == W4 and c.witness.check(g)


def test_classifier_on_large_wheels_and_grids():
    # each is one 3-connected piece, contracted to five vertices for the
    # wheel; these take milliseconds
    for g in (named_graph("W_12"), _grid(4, 5), _grid(6, 6)):
        start = time.perf_counter()
        c = classify_dim2(g)
        assert time.perf_counter() - start < 1.0
        assert c.verdict == "exceeds_2"
        assert c.witness.pattern == W4 and c.witness.check(g)


def test_classifier_on_large_doubled_trees():
    # a chain and a star of K4s glued along real spine edges: W4-free, so
    # the witness is K4eK4, built from two K4 pieces
    for tree in (named_graph("path_8"), named_graph("star_5")):
        g, _ = tk4_instance(Tree.build(tree))
        start = time.perf_counter()
        c = classify_dim2(g)
        assert time.perf_counter() - start < 1.0
        assert c.verdict == "exceeds_2"
        assert c.witness.pattern == K4E and c.witness.check(g)
        start = time.perf_counter()
        d, outcome = certificate_exceeds_2(g)
        assert time.perf_counter() - start < 1.0
        assert outcome.exhausted and validate_distance_function(g, d).valid


# -- the K4eK4 rule on generated 2-sums ----------------------------------------


def _glue(edges: set, n: int, u: int, v: int, kind: str, keep: bool):
    """Glue a K4, a triangle or a 4-cycle (a path of three edges) onto the
    edge uv, keeping uv or deleting it (a 2-sum); new vertices are numbered
    from n.  Returns the new edge set and vertex count."""
    edges = set(edges)
    if kind == "K4":
        s, t = n, n + 1
        edges |= {(u, s), (u, t), (v, s), (v, t), (s, t)}
        n += 2
    else:
        inner = list(range(n, n + (1 if kind == "triangle" else 2)))
        walk = [u, *inner, v]
        edges |= set(zip(walk, walk[1:]))
        n += len(inner)
    if not keep:
        edges -= {(u, v), (v, u)}
    return edges, n


_K4_EDGES = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def _glued_pieces(count: int, seed: int = 20261018, max_n: int = 8) -> list:
    """Seeded edge-gluings of K4s, triangles and 4-cycles onto a K4 or a
    triangle, followed by up to two edge deletions or subdivisions.  Every
    piece is W4-free, so each graph is too, while many hold K4eK4."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        edges, n = (set(_K4_EDGES), 4) if rng.random() < 0.7 else ({(0, 1), (1, 2), (0, 2)}, 3)
        for _ in range(rng.randint(1, 3)):
            u, v = rng.choice(sorted(edges))
            kind = rng.choice(("K4", "K4", "triangle", "cycle"))
            edges, n = _glue(edges, n, u, v, kind, keep=rng.random() < 0.4)
        for _ in range(rng.randint(0, 2)):
            e = rng.choice(sorted(edges))
            edges.discard(e)
            if rng.random() < 0.5:
                edges |= {(e[0], n), (n, e[1])}
                n += 1
        if n <= max_n:
            out.append(Graph.build(range(n), edges))
    return out


def _named_gluings() -> dict:
    """Hand-built gluings: one K4 piece among cycles; two K4s separated by
    a chain of triangles; two K4s glued along a real edge and along a
    deleted one."""
    one, n = _glue(_K4_EDGES, 4, 0, 1, "cycle", keep=True)
    one, n = _glue(one, n, 2, 3, "triangle", keep=False)
    chain, m = _glue(_K4_EDGES, 4, 0, 1, "triangle", keep=False)  # 0-4-1
    chain, m = _glue(chain, m, 0, 4, "triangle", keep=False)  # 0-5-4
    chain, m = _glue(chain, m, 5, 4, "K4", keep=False)
    real, k = _glue(_K4_EDGES, 4, 0, 1, "K4", keep=True)
    return {
        "one_k4": (Graph.build(range(n), one), 1),
        "k4_triangles_k4": (Graph.build(range(m), chain), 2),
        "k4_real_edge_k4": (Graph.build(range(k), real), 2),
        "k4_deleted_edge_k4": (K4E, 2),
    }


def test_named_gluings_split_into_their_k4s():
    for name, (g, k4s) in _named_gluings().items():
        assert _piece_sizes(g) == [4] * k4s, name
        c = classify_dim2(g)
        assert (c.verdict == "exceeds_2") == (k4s >= 2), name
        if k4s >= 2:
            assert c.witness.pattern == K4E and c.witness.check(g), name


def test_k4ek4_rule_agrees_with_the_minor_oracle_on_gluings():
    graphs = [g for g, _ in _named_gluings().values()] + _glued_pieces(150)
    verdicts = []
    for g in graphs:
        c = classify_dim2(g)
        expected = contains_minor(g, K4E) is not None
        assert (c.verdict == "exceeds_2") == expected
        if c.witness is not None:
            assert c.witness.pattern == K4E and c.witness.check(g)
        verdicts.append(c.verdict)
    # the set must exercise both sides of the rule
    assert verdicts.count("exceeds_2") >= 40 and verdicts.count("dim_at_most_2") >= 40


def test_wheel_written_down_on_every_labelling_of_the_five_vertex_graphs():
    k5 = named_graph("K_5")
    k5e = Graph.build(k5.vertices, [e for e in k5.edges if e != (1, 2)])
    for base in (W4, k5e, k5):
        for labels in permutations("abcde"):
            name = dict(zip(base.vertices, labels))
            g = Graph.build(labels, [(name[u], name[v]) for u, v in base.edges])
            # the one piece is g itself: no contraction, the wheel written down
            piece = next(_three_connected_pieces(g))
            emb = _wheel_in_piece(g, piece)
            assert len(piece) == 5 and emb.pattern == W4 and emb.check(g)


def test_classifier_never_searches_branch_sets(monkeypatch):
    def no_search(g, h):
        raise AssertionError("classify_dim2 reached the branch-set search")

    monkeypatch.setattr(minors, "_minor_search", no_search)
    graphs = list(connected_graphs_upto(6)) + _seeded_connected_gnp(300)
    graphs += [g for g, _ in _named_gluings().values()] + _glued_pieces(150)
    for g in graphs:
        c = classify_dim2(g)
        if c.witness is not None:
            assert c.witness.check(g)


def test_classifier_raises_when_a_witness_fails_its_check(monkeypatch):
    monkeypatch.setattr(MinorEmbedding, "check", lambda self, g: False)
    with pytest.raises(RuntimeError):
        classify_dim2(named_graph("W_5"))


# -- pullback_points -----------------------------------------------------------


def _identity_embedding(h: Graph) -> MinorEmbedding:
    """h as a minor of any graph that contains it as a subgraph."""
    return MinorEmbedding(
        h,
        {v: frozenset({v}) for v in h.vertices},
        {(u, v): (u, v) for u, v in h.edges},
    )


def _l1(p, q):
    return sum(abs(a - b) for a, b in zip(p, q))


def test_pullback_through_identity_gives_the_witness_points():
    h = Fraction(1, 2)
    assert pullback_points(K4E, _identity_embedding(K4E)) == {
        0: (8, -6, -29 * h, 35 * h), 1: (0, h, 0, 71 * h),
        2: (-43 * h, h, -29 * h, 105 * h), 3: (8, -6, -29 * h, 189 * h),
        4: (8, 107 * h, 0, 35 * h), 5: (0, 0, 0, 0),
    }


@pytest.mark.parametrize("witness", [w4_witness, k4ek4_witness])
def test_witness_points_realize_the_witness_in_the_sum_norm(witness):
    g, d = witness()
    points = pullback_points(g, _identity_embedding(g))
    assert verify_realization(g, d, points, norm=1).ok
    assert all(type(x) is Fraction for p in points.values() for x in p)


def test_w4_points_are_the_shortest_path_metric():
    # so between branch sets the pullback is the shortest-path closure
    g, d = w4_witness()
    points = pullback_points(g, _identity_embedding(g))
    vs, dist, _ = shortest_path_table(g, d)
    assert all(_l1(points[a], points[b]) == dist[i][j]
               for i, a in enumerate(vs) for j, b in enumerate(vs))


def test_pullback_gives_subdivision_vertices_their_sets_point():
    host = _subdivide_all(W4)
    emb = classify_dim2(host).witness
    _, d = w4_witness()
    at = pullback_points(W4, _identity_embedding(W4))
    points = pullback_points(host, emb)
    assert set(points) == set(host.vertices)
    for pv, bs in emb.branch_sets.items():
        assert all(points[x] == at[pv] for x in bs)
    for u, v in W4.edges:
        assert points[f"mid:{u}:{v}"] in (points[u], points[v])
    for (pu, pv), (x, y) in emb.edge_realization.items():
        assert _l1(points[x], points[y]) == d.of(W4, pu, pv)


def test_pullback_gives_an_outside_vertex_a_neighbouring_sets_point():
    host = Graph.build(range(1, 8), list(W4.edges) + [(2, 6), (3, 6), (6, 7)])
    at = pullback_points(W4, _identity_embedding(W4))
    points = pullback_points(host, _identity_embedding(W4))
    assert points[6] == at[2]  # 2 reaches 6 before 3 does
    assert points[7] == at[2]


def test_certificate_on_the_wheel_plus_a_disjoint_triangle():
    edges = list(W4.edges) + [(6, 7), (7, 8), (6, 8)]
    host = Graph.build(range(1, 9), edges)
    d, outcome = certificate_exceeds_2(host)
    assert outcome.exhausted
    assert validate_distance_function(host, d).valid
    # the triangle lies in no branch set's component: one point, zero weights
    assert [d.of(host, u, v) for u, v in [(6, 7), (7, 8), (6, 8)]] == [0, 0, 0]
    points = pullback_points(host, classify_dim2(host).witness)
    assert verify_realization(host, d, points, norm=1).ok


def test_pullback_input_errors():
    with pytest.raises(InputError):  # the embedding does not fit the host
        pullback_points(named_graph("C_4"), _identity_embedding(W4))
    k3 = named_graph("K_3")
    with pytest.raises(InputError):  # a pattern with no witness points
        pullback_points(k3, _identity_embedding(k3))


# -- certificate_exceeds_2 ------------------------------------------------------


def test_certificate_refused_for_harmless_graphs():
    with pytest.raises(InputError):
        certificate_exceeds_2(named_graph("K_4"))


def test_certificate_on_k5():
    g = named_graph("K_5")
    d, outcome = certificate_exceeds_2(g)
    assert outcome.exhausted and outcome.nodes > 0
    assert validate_distance_function(g, d).valid
    assert min_dimension(g, d) == 3


def test_certificate_on_the_glued_cliques():
    d, outcome = certificate_exceeds_2(K4E)
    assert outcome.exhausted
    assert d.weights == k4ek4_witness()[1].weights


def test_certificate_on_a_subdivided_wheel():
    host = _subdivide_all(W4)
    d, outcome = certificate_exceeds_2(host)
    assert outcome.exhausted
    assert validate_distance_function(host, d).valid
    # branch-set interiors carry zero weight, realizing edges the originals
    assert any(w == 0 for w in d.weights)


def test_certificate_searches_the_pattern_not_the_host():
    # the pulled-back weights are zero inside every part, so the k = 2
    # search contracts each part to one class: it searches the five
    # pattern vertices, not the nine of the host, in the W4 witness's count
    g = named_graph("W_8")
    d, outcome = certificate_exceeds_2(g)
    assert outcome.exhausted and outcome.nodes == 32
    assert decide_realizable(*w4_witness(), 2).nodes == 32
    assert 0 in d.weights
