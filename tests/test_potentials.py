from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from linfgraph import (
    DistanceFunction,
    Graph,
    InputError,
    Orientation,
    Potential,
    decide_realizable,
    named_graph,
    random_distance_function,
    w4_witness,
)
from linfgraph.graph_core import _clear
from linfgraph.realizability import _Ctx, _part_certified

from oracles import orientation_feasible


def _triangle(w12=1, w23=1, w13=1):
    g = Graph.build([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    d = DistanceFunction.from_map(g, {(1, 2): w12, (2, 3): w23, (1, 3): w13})
    return g, d


# -- orientations and the part check ------------------------------------------

def test_orientation_rejects_both_arcs_of_an_edge():
    with pytest.raises(InputError):
        Orientation.of([(1, 2), (2, 1)])


def test_single_forced_edge_pins_the_gap():
    g = Graph.build(["u", "v"], [("u", "v")])
    d = DistanceFunction.from_values([7])
    w = _clear(d.weights)
    cover = decide_realizable(g, d, 1).cover
    (orientation,), (potential,) = cover.parts, cover.potentials
    assert orientation.arcs == (("u", "v"),)
    assert potential.values == {"u": Fraction(0), "v": Fraction(-7)}
    # the part check accepts exactly the gap 7 along the forced arc
    for gap in (6, 7, 8, -7):
        p = Potential({"u": Fraction(gap), "v": Fraction(0)})
        assert _part_certified(g, d, orientation, p, w) == (gap == 7)
    # an unforced edge only bounds the gap
    assert _part_certified(g, d, Orientation.of([]), Potential({"u": 3, "v": -4}), w)
    assert not _part_certified(g, d, Orientation.of([]), Potential({"u": 0}), w)
    # an arc that is no edge of g is an input error, not a failed check
    with pytest.raises(InputError):
        _part_certified(g, d, Orientation.of([("v", "w")]), potential, w)


def test_cyclically_forced_triangle_is_negative():
    # 1->2 and 2->3 fit together (1 + 1 = d13); closing the cycle with 3->1
    # makes it negative, and the relaxation rejects the closing arc
    g, d = _triangle(1, 1, 2)
    assert orientation_feasible(g, d, [(1, 2), (2, 3)])
    assert not orientation_feasible(g, d, [(1, 2), (2, 3), (3, 1)])
    ctx = _Ctx(g, d)
    part = ctx.try_add(ctx.try_add(ctx.empty, 0), 2)  # arcs 1->2 and 2->3
    assert part is not None
    assert ctx.try_add(part, 5) is None  # arc 3->1, against edge (1, 3)


# -- feasibility ------------------------------------------------------------------

def test_feasibility_matches_oracle_on_triangles():
    # every orientation of a 3-4-5 triangle, folded in through the search's
    # relaxation; a surviving part's potential passes the part check
    g, d = _triangle(3, 4, 5)
    ctx = _Ctx(g, d)
    for dirs in product((0, 1), repeat=3):
        forced = [(u, v) if dr == 0 else (v, u) for (u, v), dr in zip(g.edges, dirs)]
        part = ctx.empty
        for eid, dr in enumerate(dirs):
            part = part and ctx.try_add(part, 2 * eid + dr)
        assert (part is not None) == orientation_feasible(g, d, forced)
        if part is not None:
            potential = Potential({v: Fraction(x) for v, x in zip(g.vertices, part[1])})
            assert _part_certified(g, d, Orientation.of(forced), potential, _clear(d.weights))


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
    # reversing every forced arc keeps feasibility, so the search may fix
    # the direction of the first edge it places in a part
    assert orientation_feasible(g, d, arcs) == orientation_feasible(g, d, [(v, u) for u, v in arcs])


def _arc(g, u, v):
    """The search's id of the arc u -> v."""
    eid = g.edge_id(u, v)
    return 2 * eid + (g.edges[eid] != (u, v))


def _fold(ctx, arcs):
    """The part with the given arcs forced, through the search's
    relaxation, or None when they are infeasible together."""
    part = ctx.empty
    for aid in arcs:
        part = part and ctx.try_add(part, aid)
    return part


def test_stars_are_always_feasible():
    # so the stars around a vertex cover always realize: the oracle and the
    # search's relaxation both accept every star, all arcs into its center
    for name in ("W_4", "K_5", "petersen", "K4eK4"):
        g = named_graph(name)
        d = random_distance_function(g, seed=11)
        ctx = _Ctx(g, d)
        for v in g.vertices:
            assert orientation_feasible(g, d, [(u, v) for u, _ in g.adjacency[v]])
            assert _fold(ctx, [_arc(g, u, v) for u, _ in g.adjacency[v]]) is not None


def test_feasible_sets_downward_closed_on_witness():
    # every orientation of three wheel edges that fits in one part, as the
    # search's relaxation and the oracle agree, keeps each two of its arcs
    g, d = w4_witness()
    ctx = _Ctx(g, d)
    eids = [g.edge_id(u, v) for u, v in [(1, 2), (3, 4), (3, 5)]]
    fits = 0
    for dirs in product((0, 1), repeat=3):
        forced = [g.edges[e][::1 - 2 * dr] for e, dr in zip(eids, dirs)]
        arcs = [_arc(g, u, v) for u, v in forced]
        assert (_fold(ctx, arcs) is not None) == orientation_feasible(g, d, forced)
        if _fold(ctx, arcs) is not None:
            fits += 1
            for drop in arcs:
                assert _fold(ctx, [a for a in arcs if a != drop]) is not None
    assert fits
