from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from linfgraph import (
    DistanceFunction,
    Graph,
    InputError,
    NegativeCycle,
    Orientation,
    Potential,
    apply_forcing,
    build_bidirected,
    find_potential,
    is_feasible_set,
    k4ek4_witness,
    named_graph,
    w4_witness,
)

from oracles import bellman_ford_potential, orientation_feasible


def _forced_potential(g, d, f):
    return find_potential(apply_forcing(build_bidirected(g, d), f))


def _triangle(w12=1, w23=1, w13=1):
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    d = DistanceFunction.from_map(g, {(1, 2): w12, (2, 3): w23, (1, 3): w13})
    return g, d


# -- arc systems ----------------------------------------------------------------

def test_build_bidirected_has_both_arcs():
    g, d = _triangle(2, 3, 4)
    lengths = build_bidirected(g, d)
    assert lengths.length(1, 2) == 2 and lengths.length(2, 1) == 2
    assert len(list(lengths.arcs())) == 6


def test_apply_forcing_negates_exactly_the_orientation():
    g, d = _triangle(2, 3, 4)
    forced = apply_forcing(build_bidirected(g, d), Orientation.of([(2, 1)]))
    assert forced.length(2, 1) == -2
    assert forced.length(1, 2) == 2
    assert forced.length(2, 3) == 3


def test_apply_forcing_unknown_arc():
    g, d = _triangle()
    with pytest.raises(InputError):
        apply_forcing(build_bidirected(g, d), Orientation.of([(1, 4)]))


def test_orientation_rejects_both_arcs_of_an_edge():
    with pytest.raises(InputError):
        Orientation.of([(1, 2), (2, 1)])


def test_orientation_reverse():
    f = Orientation.of([(1, 2), (3, 2)])
    assert set(f.reverse().arcs) == {(2, 1), (2, 3)}


# -- find_potential ---------------------------------------------------------------

def test_single_forced_edge_pins_the_gap():
    g = Graph.build(["u", "v"], [("u", "v")])
    d = DistanceFunction.from_values([7])
    res = find_potential(apply_forcing(build_bidirected(g, d), Orientation.of([("u", "v")])))
    assert isinstance(res, Potential)
    assert res.values == {"u": Fraction(0), "v": Fraction(-7)}


def test_cyclically_forced_triangle_is_negative():
    g, d = _triangle(1, 1, 1)
    forced = apply_forcing(
        build_bidirected(g, d), Orientation.of([(1, 2), (2, 3), (3, 1)])
    )
    res = find_potential(forced)
    assert isinstance(res, NegativeCycle)
    assert res.total < 0
    assert sum(forced.length(u, v) for u, v in res.arcs()) == res.total


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_find_potential_matches_textbook_bellman_ford(data):
    n = data.draw(st.integers(2, 5))
    g = Graph.build(
        range(n), [(i, j) for i in range(n) for j in range(i + 1, n)]
    )
    ws = data.draw(st.lists(st.integers(0, 8), min_size=g.m, max_size=g.m))
    d = DistanceFunction.from_values(ws)
    dirs = data.draw(st.lists(st.sampled_from([0, 1, None]), min_size=g.m, max_size=g.m))
    arcs = []
    for eid, dr in enumerate(dirs):
        if dr is None:
            continue
        u, v = g.edges[eid]
        arcs.append((u, v) if dr == 0 else (v, u))
    forced = apply_forcing(build_bidirected(g, d), Orientation.of(arcs))
    res = find_potential(forced)
    oracle = bellman_ford_potential(
        g.vertices, [(u, v, l) for (u, v), l in forced.arcs()]
    )
    if oracle is None:
        assert isinstance(res, NegativeCycle)
        assert res.total < 0
        # the reported cycle really exists in the arc system
        assert sum(forced.length(u, v) for u, v in res.arcs()) == res.total
    else:
        assert isinstance(res, Potential)
        assert res.check(forced)


# -- feasibility ------------------------------------------------------------------

def test_feasibility_matches_oracle_on_triangles():
    g, d = _triangle(3, 4, 5)
    for dirs in product((0, 1), repeat=3):
        forced = [
            (u, v) if dr == 0 else (v, u)
            for (u, v), dr in zip(g.edges, dirs)
        ]
        lib = _forced_potential(g, d, Orientation.of(forced))
        assert isinstance(lib, Potential) == orientation_feasible(g, d, forced)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reversal_symmetry(data):
    n = data.draw(st.integers(2, 5))
    g = Graph.build(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    ws = data.draw(st.lists(st.integers(1, 9), min_size=g.m, max_size=g.m))
    d = DistanceFunction.from_values(ws)
    k = data.draw(st.integers(1, g.m))
    dirs = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
    arcs = [
        (u, v) if dr else (v, u) for (u, v), dr in zip(g.edges[:k], dirs)
    ]
    f = Orientation.of(arcs)
    a = _forced_potential(g, d, f)
    b = _forced_potential(g, d, f.reverse())
    assert isinstance(a, Potential) == isinstance(b, Potential)


def test_stars_are_always_feasible():
    for name in ("W_4", "K_5", "petersen", "K4eK4"):
        g = named_graph(name)
        from linfgraph import random_distance_function

        d = random_distance_function(g, seed=11)
        for v in g.vertices:
            star = Orientation.of([(u, v) for u in g.neighbors(v)])
            assert isinstance(_forced_potential(g, d, star), Potential)


def test_is_feasible_set_glued_clique_pair():
    # derived with the exhaustive-orientation oracle: the two outer
    # triangle-edges 23 and 45 of the glued-clique witness fit in one part
    g, d = k4ek4_witness()
    res = is_feasible_set(g, d, [(2, 3), (4, 5)])
    assert res is not None
    orientation, potential = res
    assert potential.check(apply_forcing(build_bidirected(g, d), orientation))


def test_is_feasible_set_empty_and_cap():
    g, d = _triangle()
    orientation, potential = is_feasible_set(g, d, [])
    assert len(orientation) == 0
    # a 31-edge set: feasibility has no size cap
    star = named_graph("star_31")
    from linfgraph import random_distance_function

    ds = random_distance_function(star, seed=0)
    orientation, potential = is_feasible_set(star, ds, list(star.edges))
    assert {frozenset(a) for a in orientation.arcs} == {frozenset(e) for e in star.edges}
    assert potential.check(apply_forcing(build_bidirected(star, ds), orientation))


def test_feasible_sets_downward_closed_on_witness():
    g, d = w4_witness()
    res = is_feasible_set(g, d, [(1, 2), (3, 4), (3, 5)])
    if res is not None:
        for drop in [(1, 2), (3, 4), (3, 5)]:
            sub = [e for e in [(1, 2), (3, 4), (3, 5)] if e != drop]
            assert is_feasible_set(g, d, sub) is not None
