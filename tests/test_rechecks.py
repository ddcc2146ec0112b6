"""The exact re-checks against their Fraction oracles, and the search's
conflict table against the table over all arc pairs."""

import math
import random
from fractions import Fraction

import pytest

from linfgraph import (
    Cover,
    DistanceFunction,
    Graph,
    InputError,
    Orientation,
    Potential,
    Realization,
    Tree,
    build_realization,
    classify_dim2,
    decide_realizable,
    k4ek4_witness,
    k7_generic,
    named_graph,
    pullback_points,
    random_distance_function,
    tk4_instance,
    verify_realization,
    w4_witness,
)
from linfgraph.graph_core import _clear, _closure
from linfgraph.instances import _l1_weights
from linfgraph.realizability import _Ctx, _part_certified

from oracles import (
    all_pairs_conflicts,
    fraction_cover_check,
    fraction_part_certified,
    fraction_verify_realization,
)


def _outcome(check, *args):
    """What a check returns, or the type of error it raises."""
    try:
        return check(*args)
    except InputError:
        return InputError


def _scale(values) -> int:
    """The common denominator of some exact rationals."""
    return math.lcm(*(Fraction(x).denominator for x in values))


def _mixed(x):
    """x as an int when it is integral, so that ints and Fractions mix."""
    return int(x) if Fraction(x).denominator == 1 else x


def _covered():
    """(g, d, k) cases the search covers, with and without denominators."""
    w4g, w4d = w4_witness()
    cases = [pytest.param(w4g, w4d, 3, id="W4"),
             pytest.param(*k4ek4_witness(), 3, id="K4eK4"),
             pytest.param(*k7_generic(), 5, id="K7"),
             pytest.param(w4g, DistanceFunction(tuple(w / 7 for w in w4d.weights)), 3, id="W4-over-7"),
             pytest.param(*tk4_instance(Tree.build(named_graph("path_4"))), 4, id="tk4-path_4")]
    for name, k in (("C_9", 2), ("petersen", 3), ("K_5", 4)):
        g = named_graph(name)
        cases.append(pytest.param(g, random_distance_function(g, 11), k, id=name))
    return cases


def _part_variants(g, d, orientation, potential):
    """The part itself and mutated copies: a label shifted by a third of
    the certificate's unit, a denominator it did not have; a forced arc
    reversed; a vertex missing; ints and Fractions mixed and shifted
    negative, which keeps it certified."""
    values = potential.values
    scale = _scale([*values.values(), *d.weights])
    out = [(orientation, potential)]
    for v in g.vertices[:3]:
        for delta in (Fraction(1, 3 * scale), -Fraction(1, 3 * scale)):
            out.append((orientation, Potential({**values, v: values[v] + delta})))
    for i in range(min(2, len(orientation))):
        u, v = orientation.arcs[i]
        out.append((Orientation.of([*orientation.arcs[:i], (v, u), *orientation.arcs[i + 1:]]),
                    potential))
    out.append((orientation, Potential({x: q for x, q in values.items() if x != g.vertices[-1]})))
    low = -1 - max(abs(q) for q in values.values())
    out.append((orientation, Potential({x: _mixed(q + low) for x, q in values.items()})))
    out.append((orientation, Potential({x: _mixed(q) for x, q in values.items()})))
    return out


def _weight_variants(d):
    """d and copies with one weight off by the weights' smallest unit."""
    unit = Fraction(1, d.scale)
    out = [d]
    for eid in (0, len(d.weights) - 1):
        for delta in (unit, -unit):
            ws = list(d.weights)
            if ws[eid] + delta >= 0:
                ws[eid] += delta
                out.append(DistanceFunction(tuple(ws)))
    return out


@pytest.mark.parametrize("g, d, k", _covered())
def test_part_and_cover_checks_match_the_fraction_oracle(g, d, k):
    cover = decide_realizable(g, d, k).cover
    assert cover is not None and cover.check(g, d)
    for dd in _weight_variants(d):
        assert cover.check(g, dd) == fraction_cover_check(g, dd, cover)
        for orientation, potential in zip(cover.parts, cover.potentials):
            for o, p in _part_variants(g, dd, orientation, potential):
                assert (_outcome(_part_certified, g, dd, o, p, _clear(dd.weights))
                        == _outcome(fraction_part_certified, g, dd, o, p))
    # a tampered part inside a cover
    o, p = _part_variants(g, d, cover.parts[0], cover.potentials[0])[1]
    tampered = Cover((o, *cover.parts[1:]), (p, *cover.potentials[1:]))
    assert tampered.check(g, d) == fraction_cover_check(g, d, tampered) is False


def test_part_check_with_an_arc_off_the_graph_raises_like_the_oracle():
    g, d = w4_witness()
    p = Potential(dict.fromkeys(g.vertices, 0))
    stray = Orientation.of([(1, 99)])
    assert _outcome(_part_certified, g, d, stray, p, _clear(d.weights)) is InputError
    assert _outcome(fraction_part_certified, g, d, stray, p) is InputError


def _point_variants(g, points):
    """The points and mutated copies: a coordinate shifted by a third of
    the certificate's unit; a vertex missing; ints and Fractions mixed and
    translated negative, which keeps distances."""
    scale = _scale([x for p in points.values() for x in p])
    out = [points]
    for v in g.vertices[:3]:
        for i in range(len(points[v])):
            p = list(points[v])
            p[i] += Fraction(1, 3 * scale)
            out.append({**points, v: tuple(p)})
    out.append({v: p for v, p in points.items() if v != g.vertices[0]})
    low = -1 - max((abs(x) for p in points.values() for x in p), default=0)
    out.append({v: tuple(_mixed(x + low) for x in p) for v, p in points.items()})
    out.append({v: tuple(_mixed(x) for x in p) for v, p in points.items()})
    return out


def _realized():
    """(g, d, points) certificates: max-norm realizations from covers,
    sum-norm points pulled back from witnesses, a 3-4-5 triangle."""
    out = []
    for case in _covered():
        g, d, k = case.values
        realization = build_realization(g, d, decide_realizable(g, d, k).cover)
        out.append(pytest.param(g, d, realization, id=f"{case.id}-inf"))
    for name in ("W_4", "K4eK4", "W_6"):
        g = named_graph(name)
        points = pullback_points(g, classify_dim2(g).witness)
        out.append(pytest.param(g, _l1_weights(g, points), points, id=f"{name}-sum"))
    triangle = Graph.build([1, 2, 3], [(1, 2), (1, 3), (2, 3)])
    out.append(pytest.param(triangle, DistanceFunction.from_values([3, 4, 5]),
                            {1: (Fraction(0), 0), 2: (3, 0), 3: (0, Fraction(4))}, id="3-4-5"))
    return out


@pytest.mark.parametrize("g, d, points", _realized())
def test_verify_realization_matches_the_fraction_oracle(g, d, points):
    as_map = points.points if isinstance(points, Realization) else points
    for dd in _weight_variants(d):
        for pts in [points, *_point_variants(g, as_map)]:
            for norm in ("inf", 1, 2):
                assert (_outcome(verify_realization, g, dd, pts, norm)
                        == _outcome(fraction_verify_realization, g, dd, pts, norm))


def test_verify_realization_reports_mismatches_as_rationals():
    g = Graph.build([1, 2], [(1, 2)])
    d = DistanceFunction.from_values([Fraction(1, 2)])
    points = {1: (Fraction(1, 3), 0), 2: (0, Fraction(1, 5))}
    for norm, detail in (("inf", "max-norm distance 1/3 != weight 1/2"),
                         (1, "sum-norm distance 8/15 != weight 1/2"),
                         (2, "squared distance 34/225 != squared weight 1/4")):
        res = verify_realization(g, d, points, norm)
        assert res == fraction_verify_realization(g, d, points, norm)
        assert (res.ok, res.edge, res.detail) == (False, (1, 2), detail)


# -- the conflict table --------------------------------------------------------


def _metric_closure(g, d):
    """d replaced by its shortest-path closure, which is valid."""
    return DistanceFunction(tuple(Fraction(x, d.scale) for x in _closure(g, d.integers)))


def _random_weighted(rng, n, p):
    """A seeded G(n, p) graph, not necessarily connected, with small
    rational weights closed to shortest-path distances (so some tie)."""
    es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph.build(range(n), es)
    raw = DistanceFunction(tuple(Fraction(rng.randint(1, 12), rng.choice((1, 2, 3))) for _ in es))
    return g, _metric_closure(g, raw)


def _weighted():
    """Seeded random weighted graphs, one of them disconnected, and the
    families of the search benchmark: cycles, K_7 and K_8, doubled trees."""
    rng = random.Random(19)
    out = [pytest.param(*_random_weighted(rng, rng.randint(4, 8), 0.5), id=f"gnp{i}")
           for i in range(8)]
    apart = Graph.build(range(7), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5)])
    out.append(pytest.param(apart, _metric_closure(apart, DistanceFunction.from_values(
        [3, 4, 5, 2, Fraction(7, 2), 1, 6, 4])), id="two-components"))
    for name in ("C_12", "C_17", "K_7", "K_8"):
        g = named_graph(name)
        out.append(pytest.param(g, random_distance_function(g, 3), id=name))
    out.append(pytest.param(*k7_generic(), id="k7_generic"))
    for name in ("path_4", "path_6", "star_4"):
        out.append(pytest.param(*tk4_instance(Tree.build(named_graph(name))), id=f"tk4-{name}"))
    return out


@pytest.mark.parametrize("g, d", _weighted())
def test_conflict_table_matches_all_arc_pairs(g, d):
    conflict = _Ctx(g, d).conflict
    assert conflict == all_pairs_conflicts(g, d)
    # orphan seeding relies on it: reversing both arcs keeps a conflict
    arcs = range(2 * g.m)
    assert all(conflict[a] >> b & 1 == conflict[a ^ 1] >> (b ^ 1) & 1 for a in arcs for b in arcs)


# -- padding a cover to k parts -------------------------------------------------------


def test_padding_a_cover_shares_one_empty_part():
    g, d = w4_witness()
    cover = decide_realizable(g, d, 10**4).cover
    assert cover.k == 10**4
    opened = sum(1 for o in cover.parts if o.arcs)
    pads = list(zip(cover.parts[opened:], cover.potentials[opened:]))
    assert len(pads) == 10**4 - opened > 0
    assert all(o is pads[0][0] and p is pads[0][1] for o, p in pads)
    assert pads[0][0].arcs == () and set(pads[0][1].values.values()) == {0}
    assert cover.check(g, d)
