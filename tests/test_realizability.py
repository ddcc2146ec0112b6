"""Cover search, realizations, and the combinatorial dimension bounds."""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfgraph import (
    CapExceeded,
    Cover,
    DistanceFunction,
    FinfBounds,
    Graph,
    InputError,
    Realization,
    build_realization,
    certificate_exceeds_2,
    decide_realizable,
    finf_bounds,
    is_generic,
    k4ek4_witness,
    k7_generic,
    min_dimension,
    named_graph,
    random_distance_function,
    shortest_path_table,
    tk4_instance,
    Tree,
    VerifyResult,
    verify_realization,
    vertex_cover_number,
    w4_witness,
)
from linfgraph import graph_core, realizability
from linfgraph.realizability import (
    _RULES,
    _Ctx,
    _children,
    _dfs,
    _distinct_valuations,
    _propagate,
    _root,
    _short,
)

from atlas import connected_graphs, connected_graphs_upto
from oracles import (
    bellman_ford_potential,
    brute_is_generic,
    brute_min_dimension,
    brute_rank,
    brute_realizable,
    brute_vertex_cover,
    feasible_family,
    forced_arcs,
)


# -- decide_realizable ---------------------------------------------------------


def test_single_edge_realizes_in_one_dimension():
    g = Graph.build(["u", "v"], [("u", "v")])
    d = DistanceFunction.from_values([7])
    out = decide_realizable(g, d, 1)
    assert out.cover is not None
    r = build_realization(g, d, out.cover)
    assert r.points == {"u": (Fraction(0),), "v": (Fraction(-7),)}


def test_w4_witness_needs_three_dimensions():
    g, d = w4_witness()
    out = decide_realizable(g, d, 2)
    assert out.exhausted and out.nodes == 32
    out = decide_realizable(g, d, 3)
    assert out.cover is not None
    assert out.cover.check(g, d)


def test_k4ek4_witness_needs_three_dimensions():
    g, d = k4ek4_witness()
    out = decide_realizable(g, d, 2)
    assert out.exhausted and out.nodes == 152
    assert decide_realizable(g, d, 3).cover is not None


def test_prune_counts_add_up():
    g, d = k4ek4_witness()
    out = decide_realizable(g, d, 2)
    assert out.prunes == {
        "conflict": 75, "infeasible": 29, "lookahead": 0, "unit": 10, "forest": 0}
    assert out.expanded == 38
    assert out.nodes == sum(out.prunes.values()) + out.expanded


def test_threads_keyword_is_gone():
    g, d = w4_witness()
    with pytest.raises(TypeError):
        decide_realizable(g, d, 2, threads=2)
    with pytest.raises(TypeError):
        min_dimension(g, d, threads=2)


def _closure(g, raw):
    """The metric closure of raw edge weights {edge: int}: every edge
    shortened to the shortest path between its endpoints."""
    vs, dist, _ = shortest_path_table(g, DistanceFunction.from_map(g, raw))
    vi = {v: i for i, v in enumerate(vs)}
    return DistanceFunction.from_map(g, {(u, v): dist[vi[u]][vi[v]] for u, v in g.edges})


def test_equal_weight_four_cycle_realizes_on_a_line():
    # the whole cycle is one part, which the forest rule would reject; the
    # weights are not generic, so the rule stays off
    g = named_graph("C_4")
    d = DistanceFunction.from_values([1] * 4)
    assert not _Ctx(g, d).generic
    out = decide_realizable(g, d, 1)
    assert out.cover is not None and out.prunes["forest"] == 0
    assert verify_realization(g, d, build_realization(g, d, out.cover)).ok


def test_search_matches_brute_force_on_tied_small_weights():
    # integer weights 1-3 tie often: the gate must keep the forest rule off
    # wherever a cycle can be one part
    rng = random.Random(20240611)
    decisions = 0
    for g in connected_graphs_upto(5):
        if g.m == 0:
            continue
        for _ in range(3):
            d = _closure(g, {e: rng.randint(1, 3) for e in g.edges})
            family = feasible_family(g, d)
            for k in (1, 2, 3):
                found = decide_realizable(g, d, k).cover is not None
                assert found == brute_realizable(g, d, k, family=family), (g.edges, d.weights, k)
                decisions += 1
    assert decisions == 270


def _arc(g, u, v):
    """The search's arc id of u->v: 2e along edge e as stored, 2e + 1 against."""
    eid = g.edge_id(u, v)
    return 2 * eid + (g.edges[eid] != (u, v))


def test_unit_propagation_prunes_what_the_lookahead_passes():
    # K_4 at k = 2, with the edges 0-2 and 1-2 left.  Part 0, the star
    # 0->3, 1->3, 2->3, pins p = (5, 4, 5, 0) up to a shift and blocks both
    # arcs of each; part 1, the arc 0->1, blocks 2->0 and 1->2.  Each edge
    # left keeps one option, so the lookahead passes, and both are units in
    # part 1: 0->2 and 2->1.  Forcing 0->2 blocks 2->1, since together they
    # would make p(0) - p(1) = 3 + 2, not 4.
    g = Graph.build([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ctx = _Ctx(g, DistanceFunction.from_values([4, 3, 5, 2, 4, 5]))
    rest = _rest(g, [(0, 2), (1, 2)])
    star = ctx.empty
    for u in (0, 1, 2):
        star = ctx.try_add(star, _arc(g, u, 3))
    parts = [star, ctx.try_add(ctx.empty, _arc(g, 0, 1))]
    options = {(u, v): [i for i, p in enumerate(parts) if not (p[2] >> _arc(g, u, v)) & 1]
               for u, v in [(0, 2), (2, 0), (1, 2), (2, 1)]}
    assert options == {(0, 2): [1], (2, 0): [], (1, 2): [], (2, 1): [1]}
    assert _RULES[_propagate(ctx, rest, parts)[0] - 1] == "unit"


def _rest(g, edges):
    """A node's mask of edges left: arc 2e of each edge e."""
    return sum(1 << 2 * g.edge_id(u, v) for u, v in edges)


def _options(parts, eid):
    """How many (part, arc) pairs of edge eid no part blocks."""
    return sum(not (p[2] >> a) & 1 for p in parts for a in (2 * eid, 2 * eid + 1))


def _replay(ctx, masks):
    """The node whose open parts force the arc sets masks, in order: the
    arcs of each are added one at a time, which relaxes every subset of a
    feasible set on the way, and so yields the same potentials as the
    search that found them."""
    parts, rest = [], ctx.full
    for mask in masks:
        part, arcs = ctx.empty, mask
        while arcs:
            low = arcs & -arcs
            arcs ^= low
            part = ctx.try_add(part, low.bit_length() - 1)
            if part is None:
                raise RuntimeError("a recorded part is infeasible")
        parts.append(part)
        rest &= ~(mask | mask >> 1)
    return len(parts), parts, rest


def _prefixes(ctx, cover):
    """(edges left, node) for every prefix of ctx's tie-break order: the
    node whose open parts are cover's parts (arc masks) cut to the prefix,
    the empty ones left out."""
    order = [bit.bit_length() >> 1 for bit in ctx.bits]
    arcs = 0
    for e in order:
        arcs |= 3 << 2 * e
        node = _replay(ctx, [mask for mask in (c & arcs for c in cover) if mask])
        yield [e for e in order if node[2] >> 2 * e & 1], node


def _reversed(mask):
    """The arc set with every arc reversed."""
    even = int("01" * (mask.bit_length() // 2 + 1), 2)
    return (mask & even) << 1 | (mask >> 1) & even


def _on_cover(cover, parts):
    """Whether each part lies, as it is or reversed, in its own part of
    cover (arc masks): the edge of its lowest arc names that part."""
    seen = set()
    for mask, _, _ in parts:
        e = (mask & -mask).bit_length() - 1 >> 1
        j = next(j for j, c in enumerate(cover) if c >> 2 * e & 3)
        if j in seen or (mask & ~cover[j] and _reversed(mask) & ~cover[j]):
            return False
        seen.add(j)
    return True


@pytest.mark.parametrize("name, k", [("K_7", 4), ("W_8", 2)])
def test_unit_propagation_keeps_every_state_on_a_cover(name, k):
    # every prefix of a cover with all k parts open has a completion, the
    # rest of that cover, so propagation must let it through, units and all,
    # and every unit it forces takes the cover's (part, arc)
    g = named_graph(name)
    d = random_distance_function(g, 3)
    ctx = _Ctx(g, d)
    cover = [p[0] for p in _dfs(ctx, k, _root(ctx), [0] * 7)]
    states = units = 0
    for left, (used, parts, rest) in _prefixes(ctx, cover):
        if used == k:
            slot, grown, rest_after = _propagate(ctx, rest, parts)
            assert slot == 0, left
            assert all(p[0] & ~c == 0 for p, c in zip(grown, cover))
            states += 1
            units += (rest ^ rest_after).bit_count()
    assert states >= 10 and units >= 20


def test_search_matches_brute_force_with_unit_prunes():
    # weights within a factor 2 keep every edge a shortest path, which
    # gives the conflict table, and so the unit rule, something to force
    rng = random.Random(1414)
    graphs = list(connected_graphs(4) + connected_graphs(5))
    graphs += rng.sample([g for g in connected_graphs(6) if g.m <= 9], 12)
    units = 0
    for g in graphs:
        d = _closure(g, {e: rng.randint(10, 20) for e in g.edges})
        family = feasible_family(g, d)
        for k in (2, 3):
            out = decide_realizable(g, d, k)
            assert (out.cover is not None) == brute_realizable(g, d, k, family=family), (
                g.edges, d.weights, k)
            units += out.prunes["unit"]
    assert units > 0


def test_orphan_seeding_prunes_what_the_open_parts_pass():
    # K_4 at k = 2, edge 0-1 of weight 3, the others 2.  Part 0, the star
    # 0->1, 0->2, 0->3, pins p = (0, -3, -2, -2) up to a shift, so the
    # gaps on 1-2, 1-3 and 2-3 are 1, 1 and 0, none of them 2: it blocks
    # both arcs of each, and all three are orphans.  With the last part
    # unopened, each edge keeps both arcs there, so propagation over the
    # parts as they stand passes: only the seed prunes.
    # Seeded with 1->2, the last part leaves 1-3 and 2-3 one arc each,
    # 1->3 and 3->2, and together they make p(1) - p(2) = 4, not 2.
    g = Graph.build([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    ctx = _Ctx(g, DistanceFunction.from_values([3, 2, 2, 2, 2, 2]))
    assert not ctx.generic  # 0-2-1-3 splits 2 + 2 = 2 + 2: no forest rule
    rest = _rest(g, [(1, 2), (1, 3), (2, 3)])
    star = ctx.empty
    for v in (1, 2, 3):
        star = ctx.try_add(star, _arc(g, 0, v))
    assert all(_options([star], g.edge_id(u, v)) == 0 for u, v in [(1, 2), (1, 3), (2, 3)])
    assert _propagate(ctx, rest, [star, ctx.empty])[0] == 0
    seeded = ctx.try_add(ctx.empty, _arc(g, 1, 2))
    placed = 1 << _arc(g, 1, 2)
    assert _RULES[_propagate(ctx, rest & ~placed, [star, seeded])[0] - 1] == "unit"
    # in the search, a child with k - 1 parts open and an orphan is the
    # seeded node: the root's one child opens part 0 with 0->1, which
    # leaves 2-3 an orphan, so part 1 opens with 2->3, units and all
    counter = [0] * 7
    (used, parts, _), = _children(ctx, 2, _root(ctx), counter)
    assert used == 2 and counter == [1, 0, 0, 0, 0, 0, 1]
    assert parts[0][0] == 1 << _arc(g, 0, 1) and parts[1][0] >> _arc(g, 2, 3) & 1


def test_orphan_seeding_keeps_every_state_on_a_cover():
    # covers found with shuffled tie-break orders, followed from the root of
    # the default search: each node has a completion, the rest of that
    # cover, so exactly one child, the one that places the picked edge (and
    # its units) as the cover does, up to reversing a part, must survive
    # every rule.  Where a prefix of either order leaves k - 1 of the
    # cover's parts open, its last part holds the lowest orphan one way or
    # the other, and reversing that part gives either arc, so both seeds
    # must pass
    steps = states = 0
    for name, k in [("K_5", 3), ("K_7", 4), ("W_10", 2), ("W_12", 2)]:
        g = named_graph(name)
        for seed in range(3):
            d = random_distance_function(g, seed)
            ctx = _Ctx(g, d)
            rng = random.Random(seed)
            for _ in range(3):
                shuffled = _Ctx(g, d)
                shuffled.bits = rng.sample(ctx.bits, len(ctx.bits))
                cover = [p[0] for p in _dfs(shuffled, k, _root(shuffled), [0] * 7)]
                node = _root(ctx)
                while node[2]:
                    kids = [c for c in _children(ctx, k, node, [0] * 7) if _on_cover(cover, c[1])]
                    assert len(kids) == 1, (name, seed, node[2])
                    node = kids[0]
                    steps += 1
                for c in (ctx, shuffled):
                    for left, (used, parts, rest) in _prefixes(c, cover):
                        orphans = [e for e in left if _options(parts, e) == 0]
                        if used != k - 1 or not orphans:
                            continue
                        e = min(orphans)
                        for arc in (2 * e, 2 * e + 1):
                            seeded = c.try_add(c.empty, arc)
                            assert _propagate(c, rest & ~(1 << 2 * e), parts + [seeded])[0] == 0
                        states += 1
    assert steps == 457 and states >= 30


def test_search_matches_brute_force_with_orphan_seeding(monkeypatch):
    # the sweep of the unit rule's test at k = 2, 3 and 4, counting the
    # seeded nodes that propagation prunes: their last part holds one arc,
    # of an edge that every other part blocks both ways.  A part opened by
    # branching starts on an edge that some open part could take, since a
    # node with k - 1 parts open and an orphan is seeded instead
    seeded_prunes = []

    def counting(ctx, rest, parts):
        out = _propagate(ctx, rest, parts)
        last = parts[-1][0]
        if out[0] and last & last - 1 == 0 and all(
                p[2] >> (last.bit_length() - 1 & ~1) & 3 == 3 for p in parts[:-1]):
            seeded_prunes.append(out[0])
        return out

    monkeypatch.setattr(realizability, "_propagate", counting)
    rng = random.Random(1515)
    graphs = list(connected_graphs(4) + connected_graphs(5))
    graphs += rng.sample([g for g in connected_graphs(6) if g.m <= 9], 12)
    for g in graphs:
        d = _closure(g, {e: rng.randint(10, 20) for e in g.edges})
        family = feasible_family(g, d)
        for k in (2, 3, 4):
            out = decide_realizable(g, d, k)
            assert (out.cover is not None) == brute_realizable(g, d, k, family=family), (
                g.edges, d.weights, k)
    assert len(seeded_prunes) > 0


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_distinct_valuations_open_the_gate(data):
    # weights 2**20 + odd * 2**v with pairwise distinct v, v possibly
    # negative: the odd * 2**v part is below 2**14, so each weight has the
    # valuation v, and every edge is shorter than any path of two edges
    g = data.draw(st.sampled_from(connected_graphs_upto(5)[3:]))
    exps = data.draw(st.lists(st.integers(-6, 8), min_size=g.m, max_size=g.m, unique=True))
    odds = data.draw(st.lists(st.integers(0, 20), min_size=g.m, max_size=g.m))
    d = DistanceFunction.from_values(
        [2**20 + (2 * o + 1) * Fraction(2) ** v for o, v in zip(odds, exps)])
    assert brute_is_generic(g, d)
    scale = math.lcm(*(q.denominator for q in d.weights))
    w = [int(q * scale) for q in d.weights]
    assert list(d.integers) == w
    assert _distinct_valuations(w) and _Ctx(g, d).generic


@st.composite
def _distinct_valuation_weighted(draw):
    # weights 2^m + 2^i, i a permutation of 0..m-1: distinct valuations,
    # and within a factor 2, so every edge is a shortest path
    n = draw(st.integers(min_value=2, max_value=6))
    pool = list(itertools.combinations(range(n), 2))
    g = Graph.build(range(n), draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=10)))
    exps = draw(st.permutations(range(g.m)))
    return g, DistanceFunction.from_values([2**g.m + 2**i for i in exps])


@settings(max_examples=60, deadline=None)
@given(_distinct_valuation_weighted(), st.data())
def test_rank_matches_brute_rank(gd, data):
    # a mask's odd bits (reverse arcs) name no edge, and the edges left
    # once the rank reaches n - 1 cannot raise it: the count stops there
    g, d = gd
    ctx = _Ctx(g, d)
    assert ctx.generic
    masks = data.draw(st.lists(st.integers(0, 4**g.m - 1), min_size=1, max_size=8))
    every_arc = ctx.full | ctx.full << 1
    spanned = 0
    for mask in masks + [ctx.full, every_arc]:
        r = brute_rank(g, [e for e in range(g.m) if mask >> 2 * e & 1])
        assert ctx.rank(mask) == r, (g.edges, mask)
        spanned += r == g.n - 1
    assert ctx.rank(every_arc) == ctx.rank(ctx.full)
    assert spanned or brute_rank(g, range(g.m)) < g.n - 1


@pytest.mark.parametrize("name, k", [("K_5", 3), ("K_7", 4), ("W_8", 2)])
def test_forest_rule_matches_brute_ranks_on_cover_prefixes(name, k):
    # every prefix node of a found cover, judged as a node of a j-part
    # search for each j from its open parts to k: _short prunes exactly when
    # the brute ranks of what each part can hold (its own edges and the
    # edges left that it does not block both ways), with rank(rest) for
    # each unused part, fall short of the edges to cover.  At j = k the
    # cover completes the node, so neither prunes.  _short reads its parts
    # and changes none of them
    g = named_graph(name)
    ctx = _Ctx(g, random_distance_function(g, 3))
    assert ctx.generic
    cover = [p[0] for p in _dfs(ctx, k, _root(ctx), [0] * 7)]
    verdicts = []
    for left, (used, parts, rest) in _prefixes(ctx, cover):
        held = []
        for mask, _, b in parts:
            own = [e for e in range(g.m) if mask >> 2 * e & 3]
            free = [e for e in left if b >> 2 * e & 3 != 3]
            held.append(brute_rank(g, own + free))
        before = list(parts)
        for j in range(used, k + 1):
            short = sum(held) + (j - used) * brute_rank(g, left) < g.m
            assert _short(ctx, j, used, parts, rest) == short, (name, left, j)
            assert len(parts) == len(before) and all(p is q for p, q in zip(parts, before))
            verdicts.append((j == k, short))
    assert (True, True) not in verdicts and (False, True) in verdicts


def test_edgeless_graph_realizes_immediately():
    g = Graph.build([1, 2, 3], [])
    d = DistanceFunction.from_values([])
    out = decide_realizable(g, d, 2)
    assert out.cover is not None and out.nodes == 0
    r = build_realization(g, d, out.cover)
    assert all(p == (0, 0) for p in r.points.values())


def test_rejects_nonpositive_dimension_and_weight_mismatch():
    g = Graph.build([1, 2], [(1, 2)])
    d = DistanceFunction.from_values([1])
    with pytest.raises(InputError):
        decide_realizable(g, d, 0)
    with pytest.raises(InputError):
        decide_realizable(g, DistanceFunction((Fraction(1), Fraction(2))), 1)


def test_rejects_invalid_distance_function():
    g = named_graph("C_3")
    d = DistanceFunction.from_values([10, 1, 1])
    with pytest.raises(InputError):
        decide_realizable(g, d, 2)


def test_edge_orders_and_pruning_agree_on_verdicts():
    # the pruned search in weight order against the unpruned brute-force
    # cover decision, on the two witnesses that defeat every 2-part cover
    for g, d in (w4_witness(), k4ek4_witness()):
        family = feasible_family(g, d)
        for k in (2, 3):
            out = decide_realizable(g, d, k)
            assert out.exhausted == (not brute_realizable(g, d, k, family=family))
            assert out.exhausted == (k == 2)


def test_failed_re_verification_raises(monkeypatch):
    g, d = w4_witness()
    monkeypatch.setattr(Cover, "check", lambda self, g, d: False)
    with pytest.raises(RuntimeError):
        decide_realizable(g, d, 3)


def test_failed_part_check_fails_the_cover_check(monkeypatch):
    # Cover.check runs the part check on every part, so the search's
    # re-verification raises when it fails
    g, d = w4_witness()
    cover = decide_realizable(g, d, 3).cover
    assert cover.check(g, d)
    monkeypatch.setattr(realizability, "_part_certified", lambda *args: False)
    assert not cover.check(g, d)
    with pytest.raises(RuntimeError):
        decide_realizable(g, d, 3)


def test_progress_callback_fires(monkeypatch):
    g, d = w4_witness()
    seen = []
    monkeypatch.setattr(realizability, "_PROGRESS_EVERY", 10)
    decide_realizable(g, d, 2, progress=seen.append)
    assert seen and seen[0] == 10


@st.composite
def _small_weighted(draw):
    n = draw(st.integers(min_value=2, max_value=5))
    verts = list(range(n))
    pool = list(itertools.combinations(verts, 2))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=7))
    g = Graph.build(verts, edges)
    raw = {e: draw(st.integers(min_value=1, max_value=12)) for e in g.edges}
    return g, _closure(g, raw)


@st.composite
def _zero_weighted(draw):
    """A graph of _small_weighted with raw weights that can be 0 before
    the closure, and one of them always is."""
    g, _ = draw(_small_weighted())
    raw = {e: draw(st.one_of(st.just(0), st.integers(min_value=1, max_value=12))) for e in g.edges}
    raw[draw(st.sampled_from(g.edges))] = 0
    return g, _closure(g, raw)


@settings(max_examples=40, deadline=None)
@given(_zero_weighted(), st.integers(min_value=1, max_value=3))
def test_contracted_search_matches_brute_force_on_zero_weights(gd, k):
    g, d = gd
    out = decide_realizable(g, d, k)
    assert (out.cover is not None) == brute_realizable(g, d, k)
    assert out.cover is None or out.cover.check(g, d)


@settings(max_examples=25, deadline=None)
@given(_zero_weighted())
def test_min_dimension_matches_brute_force_on_zero_weights(gd):
    g, d = gd
    assert min_dimension(g, d) == brute_min_dimension(g, d)


_LONGER = "weights are not a valid distance function: edge ({!r}, {!r}) is longer than a path between its endpoints"


@pytest.mark.parametrize("weights, edge", [
    # 0-1 and 1-2 weigh 0, so the positive 0-2 lies inside one class
    ({(0, 1): 0, (1, 2): 0, (0, 2): 4}, (0, 2)),
    # 0-1 weighs 0, so 0-2 and 1-2 join one pair of classes; 0-2 is heavier
    ({(0, 1): 0, (1, 2): 3, (0, 2): 5}, (0, 2)),
    # as above with the heavier edge second
    ({(0, 1): 0, (0, 2): 3, (1, 2): 5}, (1, 2)),
    # 3-5 lies inside the class {3, 4, 5}, but the lower-id 0-1 is longer
    # than the path 0-2-1 and is the edge named, as with no zero weight
    ({(0, 1): 5, (0, 2): 1, (1, 2): 1, (3, 4): 0, (4, 5): 0, (3, 5): 2}, (0, 1)),
])
def test_contraction_rejects_invalid_zero_weights(weights, edge):
    g = Graph.build(range(6), weights)
    d = DistanceFunction.from_map(g, weights)
    assert not graph_core.validate_distance_function(g, d).valid
    for call in (lambda: decide_realizable(g, d, 2), lambda: min_dimension(g, d)):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == _LONGER.format(*edge)


def test_all_zero_weights_realize_on_a_line():
    # every vertex of a component sits at one point: the search has no
    # edge to place, and the first part takes every zero-weight edge
    g = named_graph("K4eK4")
    d = DistanceFunction.from_values([0] * g.m)
    out = decide_realizable(g, d, 1)
    assert out.cover is not None and out.nodes == 0
    assert len(out.cover.parts[0]) == g.m
    r = build_realization(g, d, out.cover)
    assert set(r.points.values()) == {(0,)}
    assert min_dimension(g, d) == 1


def test_cover_with_zero_weight_edges_checks_on_the_input():
    # the W_8 certificate's weights realize at k = 3; the lifted cover puts
    # every zero-weight edge in its first part and passes every check
    g = named_graph("W_8")
    d, _ = certificate_exceeds_2(g)
    zero = [e for e, w in zip(g.edges, d.weights) if w == 0]
    assert zero
    cover = decide_realizable(g, d, 3).cover
    assert cover is not None and cover.check(g, d)
    first = {frozenset(a) for a in cover.parts[0].arcs}
    assert {frozenset(e) for e in zero} <= first
    r = build_realization(g, d, cover)
    assert verify_realization(g, d, r).ok


def test_forest_rule_gates_on_the_quotient():
    # a generic 6-cycle with one vertex split by a zero-weight edge: the
    # input's weights hold a zero and never pass the 2-adic test, the
    # quotient's do, and the rule prunes the root's one child at k = 1
    cycle = [2**6 + 2**i for i in range(6)]
    edges = [(i, i + 1) for i in range(5)] + [(5, 6), (6, 0)]
    g = Graph.build(range(7), edges)
    d = DistanceFunction.from_map(g, dict(zip(edges, cycle + [0])))
    assert not _distinct_valuations(d.integers) and _Ctx(g, d).generic
    out = decide_realizable(g, d, 1)
    assert out.exhausted and out.nodes == 1 and out.prunes["forest"] == 1
    assert not brute_realizable(g, d, 1)
    assert decide_realizable(g, d, 2).cover.check(g, d)


@settings(max_examples=40, deadline=None)
@given(_small_weighted(), st.integers(min_value=1, max_value=3))
def test_realizability_is_monotone_in_dimension(gd, k):
    g, d = gd
    if decide_realizable(g, d, k).cover is not None:
        assert decide_realizable(g, d, k + 1).cover is not None


@settings(max_examples=25, deadline=None)
@given(_small_weighted(), st.integers(min_value=1, max_value=3))
def test_search_matches_brute_force_oracle(gd, k):
    g, d = gd
    assert (decide_realizable(g, d, k).cover is not None) == brute_realizable(g, d, k)


@settings(max_examples=60, deadline=None)
@given(_small_weighted(), st.data())
def test_relaxation_matches_find_potential(gd, data):
    # fold arcs into one part through the search's relaxation and compare
    # each step with an independent Fraction Bellman-Ford on the same arcs
    g, d = gd
    q = data.draw(st.integers(min_value=1, max_value=6))
    d = DistanceFunction(tuple(w / q for w in d.weights))
    ctx = _Ctx(g, d)
    eids = data.draw(st.permutations(range(g.m)))
    dirs = data.draw(st.lists(st.integers(0, 1), min_size=g.m, max_size=g.m))
    part, arcs, blocked = ctx.empty, [], 0
    for eid, dr in zip(eids, dirs):
        u, v = g.edges[eid]
        arcs.append((u, v) if dr == 0 else (v, u))
        blocked |= ctx.conflict[2 * eid + dr]
        ref = bellman_ford_potential(g.vertices, forced_arcs(g, d, arcs))
        part = ctx.try_add(part, 2 * eid + dr)
        if part is None:
            assert ref is None
            return
        assert ref is not None
        _, dist, part_blocked = part
        assert part_blocked == blocked
        for i, x in enumerate(g.vertices):
            assert dist[i] == ref[x] * ctx.scale


# -- Cover and Realization checking --------------------------------------------


def test_cover_check_rejects_tampering():
    g, d = w4_witness()
    cover = decide_realizable(g, d, 3).cover
    assert cover.check(g, d)
    # dropping a part leaves edges uncovered
    assert not Cover(cover.parts[:-1], cover.potentials[:-1]).check(g, d)
    # mismatched lengths
    assert not Cover(cover.parts, cover.potentials[:-1]).check(g, d)
    # breaking a potential value violates tightness or the edge bound
    p0 = cover.potentials[0]
    v0 = g.vertices[0]
    bent = type(p0)({**p0.values, v0: p0.values[v0] + 1})
    assert not Cover(cover.parts, (bent,) + cover.potentials[1:]).check(g, d)


def test_build_realization_rejects_foreign_cover():
    g, d = w4_witness()
    cover = decide_realizable(g, d, 3).cover
    other_g, other_d = k4ek4_witness()
    with pytest.raises(InputError):
        build_realization(other_g, other_d, cover)


def test_build_realization_distances_are_exact():
    g, d = k4ek4_witness()
    cover = decide_realizable(g, d, 3).cover
    r = build_realization(g, d, cover)
    assert r.k == 3
    assert verify_realization(g, d, r).ok
    assert verify_realization(g, d, r.points).ok  # plain mapping also accepted


def test_verify_realization_reports_the_bad_edge():
    g = Graph.build([1, 2], [(1, 2)])
    d = DistanceFunction.from_values([5])
    res = verify_realization(g, d, {1: (0,), 2: (4,)})
    assert not res.ok and res.edge == (1, 2) and "5" in res.detail


def test_verify_realization_norms():
    g = Graph.build([1, 2], [(1, 2)])
    pts = {1: (Fraction(0), Fraction(0)), 2: (Fraction(3), Fraction(4))}
    assert verify_realization(g, DistanceFunction.from_values([4]), pts, norm="inf").ok
    assert verify_realization(g, DistanceFunction.from_values([7]), pts, norm=1).ok
    assert verify_realization(g, DistanceFunction.from_values([5]), pts, norm=2).ok
    assert not verify_realization(g, DistanceFunction.from_values([5]), pts, norm="inf").ok
    with pytest.raises(InputError):
        verify_realization(g, DistanceFunction.from_values([5]), pts, norm="3")


def _distance_by_list(pu, pv, norm):
    """The reference formula: a list of differences summed from Fraction(0)."""
    diffs = [a - b for a, b in zip(pu, pv)]
    if norm == "inf":
        return max((abs(x) for x in diffs), default=Fraction(0))
    if norm == 1:
        return sum((abs(x) for x in diffs), Fraction(0))
    return sum((x * x for x in diffs), Fraction(0))


_COORD = st.integers(-4, 4) | st.fractions(-4, 4, max_denominator=6)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 4), k=st.integers(0, 3),
       norm=st.sampled_from([1, 2, "inf"]))
def test_verify_realization_matches_the_list_formula(data, n, k, norm):
    # a small pool of points, so that edges often join equal points
    pool = data.draw(st.lists(st.tuples(*[_COORD] * k), min_size=1, max_size=n))
    g = Graph.build(list(range(n)), [(i, j) for i in range(n) for j in range(i + 1, n)])
    points = {v: data.draw(st.sampled_from(pool)) for v in g.vertices}
    weights = []
    for u, v in g.edges:
        exact = _distance_by_list(points[u], points[v], norm)
        choices = [Fraction(0), Fraction(1, 2), Fraction(5)] + ([exact] if norm != 2 else [])
        weights.append(data.draw(st.sampled_from(choices)))
    d = DistanceFunction.from_values(weights)
    expected = VerifyResult(True)
    for eid, (u, v) in enumerate(g.edges):
        got = _distance_by_list(points[u], points[v], norm)
        want = d.weights[eid] ** 2 if norm == 2 else d.weights[eid]
        if got != want:
            detail = realizability._MISMATCH[norm].format(got, want)
            expected = VerifyResult(False, (u, v), detail)
            break
    assert verify_realization(g, d, points, norm=norm) == expected


def test_verify_realization_input_errors():
    g = Graph.build([1, 2], [(1, 2)])
    d = DistanceFunction.from_values([1])
    with pytest.raises(InputError):
        verify_realization(g, d, {1: (0, 0)})  # vertex 2 missing
    with pytest.raises(InputError):
        verify_realization(g, d, Realization({1: (0, 0), 2: (1,)}, 2))


# -- vertex cover ----------------------------------------------------------------


def test_vertex_cover_known_values():
    assert vertex_cover_number(named_graph("K_7")) == 6
    assert vertex_cover_number(named_graph("W_4")) == 3
    assert vertex_cover_number(named_graph("star_6")) == 1
    assert vertex_cover_number(named_graph("C_5")) == 3
    assert vertex_cover_number(Graph.build([1], [])) == 0


def test_bounds_match_brute_oracles_on_small_graphs():
    for g in connected_graphs_upto(5):
        assert vertex_cover_number(g) == brute_vertex_cover(g)


def test_caps_are_enforced():
    with pytest.raises(CapExceeded):
        vertex_cover_number(named_graph("path_33"))


# -- min_dimension ---------------------------------------------------------------


def test_trees_realize_in_one_dimension():
    g = named_graph("path_5")
    d = DistanceFunction.from_values([1, 2, 3, 4])
    assert min_dimension(g, d) == 1
    star = named_graph("star_4")
    ds = DistanceFunction.from_values([1, 2, 4, 8])
    assert min_dimension(star, ds) == 1


def test_witness_instances_have_min_dimension_three():
    assert min_dimension(*w4_witness()) == 3
    assert min_dimension(*k4ek4_witness()) == 3


def test_tk4_path3_needs_three_dimensions():
    path3 = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
    g, d = tk4_instance(Tree.build(path3))
    assert min_dimension(g, d) == 3


def test_min_dimension_builds_one_context(monkeypatch):
    # every k of the scan, 1 to 4 on the doubled 4-vertex path, runs on the
    # same search context
    built = []
    init = _Ctx.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    g, d = tk4_instance(Tree.build(named_graph("path_4")))
    monkeypatch.setattr(_Ctx, "__init__", counting)
    assert min_dimension(g, d) == 4
    assert len(built) == 1


def test_min_dimension_runs_no_genericity_search(monkeypatch):
    # 5, 6, 4 have 2-adic valuations 0, 1, 2, so the gate needs no cycle
    # search, and the scan itself asks no genericity question
    def refuse(*args, **kwargs):
        raise AssertionError("ran a genericity search, a cycle enumeration or a start bound")

    c3 = named_graph("C_3")
    assert is_generic(c3, DistanceFunction.from_values([3, 5, 7])).status == "generic"
    monkeypatch.setattr(graph_core, "is_generic", refuse)
    monkeypatch.setattr(graph_core, "_simple_cycles", refuse)
    monkeypatch.setattr(realizability, "is_generic", refuse, raising=False)
    monkeypatch.setattr(realizability, "_block_density", refuse)
    assert min_dimension(c3, DistanceFunction.from_values([5, 6, 4])) == 2
    # the witnesses' weights share valuations: the forest rule stays off
    # and nothing tries to prove them generic
    for witness, nodes in ((w4_witness, 32), (k4ek4_witness, 152)):
        out = decide_realizable(*witness(), 2)
        assert out.exhausted and out.nodes == nodes and out.prunes["forest"] == 0
    # generic weights whose valuations collide leave the rule off too
    assert not _Ctx(c3, DistanceFunction.from_values([3, 5, 7])).generic


def test_min_dimension_rejects_invalid_weights():
    g = named_graph("C_3")
    with pytest.raises(InputError):
        min_dimension(g, DistanceFunction.from_values([10, 1, 1]))


def test_min_dimension_puts_a_long_path_on_a_line():
    # a tree embeds on a line: each vertex at its distance from the root
    g = named_graph("path_21")
    assert min_dimension(g, DistanceFunction.from_values([1] * g.m)) == 1


@settings(max_examples=20, deadline=None)
@given(_small_weighted())
def test_min_dimension_matches_brute_force(gd):
    g, d = gd
    assert min_dimension(g, d) == brute_min_dimension(g, d)


# -- finf_bounds ------------------------------------------------------------------


def test_finf_bounds_on_trees_and_cliques():
    g = named_graph("path_4")
    b = finf_bounds(g, samples=3, seed=1)
    # every tree realizes in one dimension; the cover-number upper bound is 2
    assert (b.lower, b.upper) == (1, 2) and b.witness is None

    star = named_graph("star_5")
    bs = finf_bounds(star, samples=2, seed=1)
    assert (bs.lower, bs.upper) == (1, 1) and bs.witness is None

    k4 = named_graph("K_4")
    b4 = finf_bounds(k4, samples=4, seed=0)
    assert b4.lower >= 2 and b4.upper == 3
    if b4.witness is not None:
        assert min_dimension(k4, b4.witness) == b4.lower


@pytest.mark.parametrize("name, lower, upper", [
    ("path_21", 1, 10), ("C_21", 2, 11), ("path_33", 1, 32),
])
def test_finf_bounds_past_the_caps(name, lower, upper):
    # neither bound has a size cap: path_33, past VERTEX_COVER_CAP, takes
    # the greedy matching's 32 endpoints as its upper bound
    b = finf_bounds(named_graph(name), samples=2)
    assert (b.lower, b.upper) == (lower, upper)


def test_finf_bounds_raises_when_bounds_cross(monkeypatch):
    monkeypatch.setattr(realizability, "vertex_cover_number", lambda g: 0)
    with pytest.raises(RuntimeError):
        finf_bounds(named_graph("K_4"), samples=1)


def test_finf_bounds_rejects_negative_samples():
    with pytest.raises(InputError):
        finf_bounds(named_graph("K_4"), samples=-1)


def test_finf_bounds_edgeless():
    assert finf_bounds(Graph.build([1, 2], []), samples=2) == FinfBounds(0, 0, None)


def test_k7_generic_realizes_at_five_not_four():
    g, d = k7_generic()
    assert decide_realizable(g, d, 5).cover is not None
    out = decide_realizable(g, d, 4)
    assert out.exhausted and out.nodes == 48
    assert out.prunes["unit"] > 0


def test_forest_rule_prunes_a_generic_cycle_on_a_line():
    # a cycle is no forest, so with generic weights one part cannot hold
    # it: the rule prunes the root's one child, where the other rules
    # would search on
    g = named_graph("C_12")
    d = DistanceFunction.from_values([2**12 + 2**i for i in range(12)])
    out = decide_realizable(g, d, 1)
    assert out.exhausted and out.nodes == 1 and out.prunes["forest"] == 1


def _clique_generic(n):
    """K_n with weights 2^m + 2^rank, as k7_generic: rank m down to 1 along
    the edges ordered by endpoints."""
    g = named_graph(f"K_{n}")
    return g, DistanceFunction.from_values([2**g.m + 2**(g.m - i) for i in range(g.m)])


@pytest.mark.parametrize("n, k, nodes, found", [(8, 5, 127, True), (8, 4, 17, False), (9, 6, 192, True)])
def test_cliques_search_without_a_heavy_tail(n, k, nodes, found):
    # branching in the fixed order of decreasing weight takes over a
    # million nodes, and seconds, on K_8 at k = 5 and K_9 at k = 6; the
    # pinned counts and the time bound guard against that tail
    g, d = _clique_generic(n)
    start = time.perf_counter()
    out = decide_realizable(g, d, k)
    assert time.perf_counter() - start < 0.5
    assert out.nodes == nodes and (out.cover is not None) == found
    assert out.cover is None or out.cover.check(g, d)


@pytest.mark.parametrize("name, k, found", [("K_8", 5, True), ("K4eK4", 2, False)])
def test_search_is_deterministic(name, k, found):
    # two runs, each on a fresh context, take the same nodes and prunes and
    # return the same cover, orientations and potentials alike
    g, d = _clique_generic(8) if name == "K_8" else k4ek4_witness()
    first, second = decide_realizable(g, d, k), decide_realizable(g, d, k)
    assert (first.nodes, first.prunes, first.expanded) == (second.nodes, second.prunes, second.expanded)
    assert (first.cover is not None) == (second.cover is not None) == found
    if found:
        assert first.cover.parts == second.cover.parts
        assert first.cover.potentials == second.cover.potentials
