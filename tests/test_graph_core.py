from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from linfgraph import (
    DistanceFunction,
    Graph,
    InputError,
    blocks,
    is_generic,
    validate_distance_function,
)
from linfgraph.graph_core import _blend, _closure, _distances, _simple_cycles, to_fraction
from linfgraph.minors import _three_connected_pieces

from atlas import connected_graphs_upto
from oracles import (
    brute_blocks,
    brute_cycles,
    brute_is_generic,
    copying_simple_cycles,
    fraction_blend,
    fraction_floyd_warshall,
    sp_by_relaxation,
)


# -- strategies ----------------------------------------------------------------

@st.composite
def small_graph(draw, max_n=6, min_n=2):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    return Graph.build(range(n), picks)


@st.composite
def weighted_graph(draw, max_n=6):
    g = draw(small_graph(max_n=max_n))
    ws = draw(
        st.lists(st.integers(0, 30), min_size=g.m, max_size=g.m)
    )
    return g, DistanceFunction.from_values(ws)


# -- construction --------------------------------------------------------------

def test_build_sorts_and_canonicalizes():
    g = Graph.build([3, 1, 2], [(3, 1), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.edge_id(3, 1) == 0


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        Graph.build([1, 2], [(1, 3)])
    with pytest.raises(InputError):
        Graph.build([1, 2], [(1, 1)])
    with pytest.raises(InputError):
        Graph.build([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(InputError):
        Graph.build([True], [])
    assert Graph.build([1, 1], []).vertices == (1,)  # vertex lists are sets


def test_mixed_vertex_ids_order():
    g = Graph.build(["b", 2, "a", 1], [(1, "a")])
    assert g.vertices == (1, 2, "a", "b")


def test_to_fraction_forms():
    assert to_fraction("7/2") == Fraction(7, 2)
    assert to_fraction(3) == 3
    assert to_fraction(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(InputError):
        to_fraction(0.5)
    with pytest.raises(InputError):
        to_fraction("x/y")


def test_distance_function_from_map_checks():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3)])
    d = DistanceFunction.from_map(g, {(2, 1): 5, (2, 3): "1/2"})
    assert d.weights == (Fraction(5), Fraction(1, 2))
    with pytest.raises(InputError):
        DistanceFunction.from_map(g, {(1, 2): 5})
    with pytest.raises(InputError):
        DistanceFunction.from_map(g, {(1, 2): -1, (2, 3): 1})


def test_distance_function_clears_denominators_once():
    d = DistanceFunction.from_values(["1/2", "2/3", 0, 5])
    assert d.scale == 6 and d.integers == (3, 4, 0, 30)
    assert d.integers is d.integers
    assert DistanceFunction(()).scale == 1 and DistanceFunction(()).integers == ()


# -- validation ----------------------------------------------------------------

def test_validate_flags_long_edge_with_witness_path():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    d = DistanceFunction.from_map(g, {(1, 2): 1, (2, 3): 1, (1, 3): 5})
    report = validate_distance_function(g, d)
    assert not report.valid
    (v,) = report.violations
    assert v.edge == (1, 3)
    assert v.path == (1, 2, 3)
    assert v.length == 2


def test_violation_path_searches_past_a_dead_end():
    # 0-1 weighs 0, so the greedy step from 0 along the distance table can
    # go to 1, from where no tight arc leads on to 3
    g = Graph.build(range(4), [(0, 1), (0, 2), (2, 3), (0, 3)])
    d = DistanceFunction.from_map(g, {(0, 1): 0, (0, 2): 1, (2, 3): 1, (0, 3): 5})
    (v,) = validate_distance_function(g, d).violations
    assert v.edge == (0, 3)
    assert v.path == (0, 2, 3)
    assert v.length == 2


def test_validate_accepts_zero_weights():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    d = DistanceFunction.from_values([0, 1, 1])
    assert validate_distance_function(g, d).valid


@settings(max_examples=60, deadline=None)
@given(weighted_graph())
def test_validate_matches_relaxation_oracle(gd):
    g, d = gd
    sp = sp_by_relaxation(g, d)
    expect = all(sp[u][v] == d.weights[eid] for eid, (u, v) in enumerate(g.edges))
    assert validate_distance_function(g, d).valid == expect


@settings(max_examples=40, deadline=None)
@given(weighted_graph())
def test_metric_closure_is_valid(gd):
    g, d = gd
    closed = DistanceFunction(tuple(Fraction(x, d.scale) for x in _closure(g, d.integers)))
    assert validate_distance_function(g, closed).valid


_MIXED = st.builds(Fraction, st.integers(0, 20), st.sampled_from([1, 2, 3, 4, 6, 7, 9]))


@st.composite
def mixed_weights(draw):
    """A small graph with mixed-denominator weights, zeros included."""
    g = draw(small_graph())
    return g, draw(st.lists(_MIXED, min_size=g.m, max_size=g.m))


@settings(max_examples=80, deadline=None)
@given(mixed_weights())
def test_distances_on_cleared_integers(gw):
    g, ws = gw
    expect = fraction_floyd_warshall(g, ws)
    vs, vi = g.vertices, g.vertex_index
    ends = [(vi[u], vi[v]) for u, v in g.edges]
    dist = _distances(g.n, ends, ws)
    assert {(a, b): dist[i][j] for i, a in enumerate(vs) for j, b in enumerate(vs)} == expect
    scale = 2520  # a common multiple of every denominator drawn
    idist = _distances(g.n, ends, [int(w * scale) for w in ws])
    assert idist == [[None if x is None else x * scale for x in row] for row in dist]


@settings(max_examples=80, deadline=None)
@given(mixed_weights())
def test_validation_and_closure_match_fraction_floyd_warshall(gw):
    g, ws = gw
    d = DistanceFunction(tuple(ws))
    sp = fraction_floyd_warshall(g, ws)
    report = validate_distance_function(g, d)
    short = [e for e, w in zip(g.edges, ws) if sp[e] < w]
    assert report.valid == (not short)
    assert [v.edge for v in report.violations] == short
    for v in report.violations:
        assert type(v.length) is Fraction and v.length == sp[v.edge]
        assert (v.path[0], v.path[-1]) == v.edge
        assert sum(d.weights[g.edge_id(a, b)] for a, b in zip(v.path, v.path[1:])) == v.length
    closed = _closure(g, d.integers)
    assert all(type(w) is int for w in closed)
    assert tuple(Fraction(w, d.scale) for w in closed) == tuple(sp[e] for e in g.edges)


# -- genericity ----------------------------------------------------------------

def test_generic_triangle():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    assert is_generic(g, DistanceFunction.from_values([3, 4, 5])).status == "generic"


def test_not_generic_reports_cycle_and_split():
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    d = DistanceFunction.from_values([1, 1, 2])
    report = is_generic(g, d)
    assert report.status == "not_generic"
    total = sum(d.weights[e] for e in report.cycle)
    assert sum(d.weights[e] for e in report.subset) * 2 == total


def test_forest_is_vacuously_generic():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3)])
    report = is_generic(g, DistanceFunction.from_values([1, 1, 1]))
    assert report.status == "generic"
    assert report.pairs_checked == 0


def test_generic_budget_exceeded():
    # odd weights share their 2-adic valuation, so the cycle is searched
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = is_generic(g, DistanceFunction.from_values([3, 5, 7, 11]), budget=2)
    assert report.status == "budget_exceeded"
    # the one 4-cycle is charged 2**1 + 2**2 half-sums
    report = is_generic(g, DistanceFunction.from_values([3, 5, 7, 11]), budget=5)
    assert report.status == "budget_exceeded" and report.pairs_checked == 0
    report = is_generic(g, DistanceFunction.from_values([3, 5, 7, 11]), budget=6)
    assert report.status == "generic" and report.pairs_checked == 6


def test_distinct_valuations_prove_genericity_without_a_search():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    report = is_generic(g, DistanceFunction.from_values([1, 2, 4, 8]), budget=0)
    assert report.status == "generic" and report.pairs_checked == 0
    # over a common denominator: 1/3, 2/3, 4/3, 8/3 clear to 1, 2, 4, 8
    d = DistanceFunction.from_values(["1/3", "2/3", "4/3", "8/3"])
    assert is_generic(g, d, budget=0).status == "generic"


@st.composite
def _tied_weights(draw):
    n = draw(st.integers(3, 6))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=3, max_size=9))
    g = Graph.build(range(n), edges)
    # small numerators over at most two denominators make equal splits common
    den = st.sampled_from([1, draw(st.integers(1, 7))])
    ws = [Fraction(draw(st.integers(0, 6)), draw(den)) for _ in range(g.m)]
    return g, DistanceFunction(tuple(ws))


@settings(max_examples=150, deadline=None)
@given(_tied_weights())
def test_is_generic_matches_brute_force(gd):
    g, d = gd
    report = is_generic(g, d)
    assert (report.status == "generic") == brute_is_generic(g, d)
    if report.status == "not_generic":
        assert frozenset(report.cycle) in brute_cycles(g)
        assert report.cycle[0] in report.subset and report.subset <= set(report.cycle)
        total = sum(d.weights[e] for e in report.cycle)
        assert sum(d.weights[e] for e in report.subset) * 2 == total


def test_simple_cycles_keep_the_copying_order():
    graphs = list(connected_graphs_upto(6))
    graphs.append(Graph.build(range(7), [(i, j) for i in range(7) for j in range(i + 1, 7)]))
    for g in graphs:
        assert list(_simple_cycles(g)) == list(copying_simple_cycles(g))


# -- the generic blend -----------------------------------------------------------

def _assert_blend_properties(g: Graph, w, seed: int):
    # what random_distance_function relies on: valid, generic, within
    # 2**-20 of each integer weight, and fixed by the seed
    out = _blend(w, seed)
    assert validate_distance_function(g, out).valid
    assert brute_is_generic(g, out)
    for x, x0 in zip(out.weights, w):
        assert abs(x - x0) <= x0 * Fraction(1, 2**20)
    assert _blend(w, seed).weights == out.weights


def test_perturb_repairs_unit_square():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert is_generic(g, DistanceFunction.from_values([1, 1, 1, 1])).status == "not_generic"
    _assert_blend_properties(g, (1, 1, 1, 1), 0)
    assert is_generic(g, _blend((1, 1, 1, 1), 0)).status == "generic"


# positive integer weights only: the blend is proven for valid positive
# integers; a list of wide ones, low * m >= 2**20, pushes its exponent past 20
_SMALL = st.lists(st.integers(1, 20), max_size=12)
_WIDE = st.lists(st.integers(2**20, 2**60), max_size=12)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_SMALL, _WIDE), st.integers(0, 2**32))
@example([2**40 + 3, 2**41, 5 * 2**38], 7)
def test_blend_matches_the_fraction_oracle(ws, seed):
    assert _blend(ws, seed).weights == fraction_blend(ws, seed)


@st.composite
def _valid_tied_weights(draw):
    g = draw(small_graph(max_n=5, min_n=3))
    ws = [draw(st.integers(1, 6)) for _ in range(g.m)]
    # the metric closure makes the weights valid; an edge it shortens then
    # weighs exactly its shortest path, a tie
    sp = fraction_floyd_warshall(g, ws)
    return g, tuple(int(sp[e]) for e in g.edges)


@settings(max_examples=80, deadline=None)
@given(_valid_tied_weights(), st.integers(0, 2**32))
def test_perturbation_is_valid_generic_close_and_deterministic(gd, seed):
    _assert_blend_properties(*gd, seed)


# -- blocks and suppression ------------------------------------------------------

def test_blocks_of_bowtie():
    g = Graph.build(range(5), [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    bs = blocks(g)
    assert sorted(b.n for b in bs) == [3, 3]
    assert sorted(b.m for b in bs) == [3, 3]


def test_bridges_are_single_edge_blocks():
    g = Graph.build(range(4), [(0, 1), (1, 2), (2, 3)])
    assert sorted(b.m for b in blocks(g)) == [1, 1, 1]


@settings(max_examples=50, deadline=None)
@given(small_graph())
def test_blocks_partition_edges(g):
    seen = []
    for b in blocks(g):
        seen.extend(frozenset(e) for e in b.edges)
    assert sorted(seen, key=sorted) == sorted(
        (frozenset(e) for e in g.edges), key=sorted
    )
    assert len(set(seen)) == len(seen) == g.m


@st.composite
def mixed_id_graph(draw, max_n=7):
    """Up to 7 vertices with int and str ids (3 and "3" are distinct), and
    any edge set: isolated vertices, bridges and several components."""
    ids = draw(st.lists(st.sampled_from([0, 1, 3, 10, -2, "0", "3", "a", "b", "x1"]),
                        unique=True, max_size=max_n))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    picks = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.build(ids, [e if draw(st.booleans()) else e[::-1] for e in picks])


@settings(max_examples=150, deadline=None)
@given(mixed_id_graph())
def test_blocks_match_the_cycle_oracle(g):
    bs = blocks(g)
    assert {frozenset(b.edges) for b in bs} == brute_blocks(g)
    assert sum(b.m for b in bs) == g.m
    edges = set(g.edges)
    for b in bs:
        # built directly in g's order, yet exactly what Graph.build gives
        assert b == Graph.build(b.vertices, b.edges)
        assert set(b.edges) <= edges


# degree-2 suppression now happens inside the 3-connected splitter: a piece is
# an adjacency dict, and smoothing to a triangle leaves no piece at all

def test_suppress_c5_to_triangle():
    g = Graph.build(range(1, 6), [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert list(_three_connected_pieces(g)) == []


def _is_k4(piece: dict) -> bool:
    return len(piece) == 4 and all(len(nbrs) == 3 for nbrs in piece.values())


def test_suppress_subdivided_k4():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]
    g = Graph.build(list(range(4)) + [9], k4 + [(2, 9), (3, 9)])  # edge 23 subdivided by 9
    pieces = [piece for piece, _ in _three_connected_pieces(g)]
    assert len(pieces) == 1 and _is_k4(pieces[0])


def test_suppress_k4ek4_minus_edge_reaches_k4():
    # dropping the shared-triangle edge creates suppressible vertices; the
    # fixpoint is a plain K4
    from linfgraph import named_graph

    k4ek4 = named_graph("K4eK4")
    g = Graph.build(k4ek4.vertices, [e for e in k4ek4.edges if e != (2, 3)])
    pieces = [piece for piece, _ in _three_connected_pieces(g)]
    assert len(pieces) == 1 and _is_k4(pieces[0])
