"""The acceptance gate: nine end-to-end criteria, one test per criterion.

Each test prints one PASS line with its key numbers (visible under -s, or in
captured output); any failure surfaces as a plain assertion error.  The
2-dimensional realizations produced along the way feed the sum-norm parity
check in criterion 7 through a module-level accumulator, so the file is
meant to run in order; criterion 7 falls back to self-generated samples when
run alone.
"""

import itertools
import json
import random
import time

from linfgraph import (
    Graph,
    Tree,
    build_realization,
    certificate_exceeds_2,
    classify_dim2,
    decide_realizable,
    k4ek4_witness,
    k7_generic,
    linf2_to_l1_2,
    min_dimension,
    named_graph,
    pullback_points,
    random_distance_function,
    save_instance,
    tk4_instance,
    validate_distance_function,
    verify_realization,
    vertex_cover_number,
    w4_witness,
)
from linfgraph.cli import main
from linfgraph.graph_core import vertex_key

from atlas import connected_graphs_upto
from oracles import brute_arboricity, brute_realizable, edge_set_feasible, feasible_family

SAMPLES_PER_GRAPH = 20

# (g, d, realization) triples with k = 2, shared with criterion 7
_REALIZATIONS_2D: list = []


def _accumulate_2d(g, d):
    outcome = decide_realizable(g, d, 2)
    assert outcome.cover is not None
    _REALIZATIONS_2D.append((g, d, build_realization(g, d, outcome.cover)))


def test_criterion_1_wheel_witness_cli(tmp_path, capsys):
    t0 = time.monotonic()
    p = str(tmp_path / "w4.json")
    save_instance(*w4_witness(), p)

    assert main(["realize", p, "--dim", "2"]) == 1
    assert main(["realize", p, "--dim", "3"]) == 0
    assert main(["min-dim", p]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1]) == {"min_dimension": 3}
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 1: PASS (wheel witness: k=2 no, k=3 yes, min-dim 3; {elapsed:.2f}s)")


def test_criterion_2_glued_cliques_witness_cli(tmp_path, capsys):
    t0 = time.monotonic()
    p = str(tmp_path / "k4e.json")
    save_instance(*k4ek4_witness(), p)

    assert main(["realize", p, "--dim", "2"]) == 1
    assert main(["realize", p, "--dim", "3"]) == 0
    assert main(["min-dim", p]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1]) == {"min_dimension": 3}
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 2: PASS (glued-cliques witness: k=2 no, k=3 yes, min-dim 3; {elapsed:.2f}s)")


def test_criterion_3_classifier_matches_search_on_small_graphs():
    t0 = time.monotonic()
    harmless = exceeding = 0
    for gi, g in enumerate(connected_graphs_upto(6)):
        c = classify_dim2(g)
        if c.verdict == "dim_at_most_2":
            harmless += 1
            for i in range(SAMPLES_PER_GRAPH):
                d = random_distance_function(g, seed=1009 * gi + i)
                _accumulate_2d(g, d)
        else:
            exceeding += 1
            d, outcome = certificate_exceeds_2(g)  # asserts k=2 exhaustion
            assert outcome.exhausted
            # f_1 > 2 too: the weights are sum-norm distances of points
            assert verify_realization(g, d, pullback_points(g, c.witness), norm=1).ok
    assert harmless + exceeding == 143
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    print(
        f"criterion 3: PASS ({harmless} graphs realize 20/20 generic samples at k=2, "
        f"{exceeding} graphs certified exceeding with sum-norm points; {elapsed:.1f}s)"
    )


def _one_step_minors(g: Graph):
    for eid in range(g.m):
        yield Graph.build(g.vertices, [e for i, e in enumerate(g.edges) if i != eid])
    for u, v in g.edges:
        merged = set()
        for a, b in g.edges:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                merged.add(tuple(sorted((a2, b2), key=vertex_key)))
        yield Graph.build([x for x in g.vertices if x != v], merged)
    for w in g.vertices:
        yield Graph.build(
            [x for x in g.vertices if x != w], [e for e in g.edges if w not in e]
        )


def test_criterion_4_one_step_minors_are_harmless():
    t0 = time.monotonic()
    count = 0
    for base in (named_graph("W_4"), named_graph("K4eK4")):
        for g in _one_step_minors(base):
            count += 1
            assert classify_dim2(g).verdict == "dim_at_most_2"
            assert g.is_connected()
            for i in range(SAMPLES_PER_GRAPH):
                d = random_distance_function(g, seed=104729 * count + i)
                _accumulate_2d(g, d)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(
        f"criterion 4: PASS ({count} one-step minors all classify dim_at_most_2 "
        f"and realize 20/20 samples at k=2; {elapsed:.1f}s)"
    )


def test_criterion_5_tree_of_cliques():
    t0 = time.monotonic()
    trees = {
        "edge": Graph.build([1, 2], [(1, 2)]),
        "path-3": named_graph("path_3"),
        "star-3": named_graph("star_3"),
        # unbounded: the dimension grows with the tree
        "path-8": named_graph("path_8"),
        "path-12": named_graph("path_12"),
        "star-7": named_graph("star_7"),
        "star-11": named_graph("star_11"),
    }
    rng = random.Random(20261018)
    for n in (6, 9, 12):
        # seeded random trees: vertex i hangs off a random earlier vertex
        edges = [(i, rng.randrange(1, i)) for i in range(2, n + 1)]
        trees[f"random-{n}"] = Graph.build(range(1, n + 1), edges)
    pairs_refuted = 0
    for tg in trees.values():
        g, d = tk4_instance(Tree.build(tg))
        assert validate_distance_function(g, d).valid
        assert min_dimension(g, d) == tg.n
        spines = [g.edge_id(f"{v}+", f"{v}-") for v in tg.vertices]
        for e1, e2 in itertools.combinations(spines, 2):
            # no feasible set can hold two spine edges at once
            assert not edge_set_feasible(g, d, [e1, e2])
            pairs_refuted += 1
        for spine in spines:
            assert edge_set_feasible(g, d, [spine])

    g3, d3 = tk4_instance(Tree.build(named_graph("path_3")))
    outcome = decide_realizable(g3, d3, 2)
    assert outcome.exhausted
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    print(
        f"criterion 5: PASS ({len(trees)} instances valid, each needs as many "
        f"dimensions as its tree has vertices, up to 12; {pairs_refuted} spine pairs "
        f"infeasible, path-3 instance needs k >= 3; {elapsed:.1f}s)"
    )


def test_criterion_6_bound_sandwich():
    t0 = time.monotonic()
    rng = random.Random(20260814)
    pool_cache = {n: list(itertools.combinations(range(n), 2)) for n in range(2, 8)}
    graphs = []
    while len(graphs) < 50:
        n = rng.randint(2, 7)
        pool = pool_cache[n]
        m = rng.randint(n - 1, len(pool))
        g = Graph.build(range(n), rng.sample(pool, m))
        if g.is_connected():
            graphs.append(g)
    for i, g in enumerate(graphs):
        d = random_distance_function(g, seed=31 * i + 7)
        lo, hi = brute_arboricity(g), vertex_cover_number(g)
        k = min_dimension(g, d)
        assert lo <= k <= hi, f"sandwich broken on {g.edges}: {lo} <= {k} <= {hi}"
        if k == 2:
            _accumulate_2d(g, d)

    assert vertex_cover_number(named_graph("W_4")) == 3
    for n in range(2, 8):
        assert vertex_cover_number(named_graph(f"K_{n}")) == n - 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1200.0
    print(
        f"criterion 6: PASS (50 random graphs respect arboricity <= min-dim <= "
        f"cover number; known corner values reproduced; {elapsed:.1f}s)"
    )


def test_criterion_7_sum_norm_parity():
    if not _REALIZATIONS_2D:  # standalone run: generate a small sample set
        for gi, g in enumerate(connected_graphs_upto(4)):
            if classify_dim2(g).verdict != "dim_at_most_2":
                continue
            for i in range(5):
                _accumulate_2d(g, random_distance_function(g, seed=7 * gi + i))
    checked = 0
    for g, d, r in _REALIZATIONS_2D:
        assert r.k == 2
        image = linf2_to_l1_2(r.points)
        assert verify_realization(g, d, image, norm=1).ok
        checked += 1
    print(f"criterion 7: PASS ({checked} realizations map exactly to the sum norm)")


def test_criterion_8_pruned_search_equals_brute_force():
    t0 = time.monotonic()
    decisions = 0
    for gi, g in enumerate(connected_graphs_upto(5)):
        for i in range(SAMPLES_PER_GRAPH):
            d = random_distance_function(g, seed=7919 * gi + i)
            family = feasible_family(g, d)
            for k in (1, 2, 3):
                fast = decide_realizable(g, d, k).cover is not None
                assert fast == brute_realizable(g, d, k, family=family)
                decisions += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 1800.0
    print(
        f"criterion 8: PASS ({decisions} decisions agree with the brute-force "
        f"enumerator; {elapsed:.1f}s)"
    )


def test_criterion_9_k7_stress():
    g, d = k7_generic()
    t0 = time.monotonic()
    out5 = decide_realizable(g, d, 5)
    cover_elapsed = time.monotonic() - t0
    assert out5.cover is not None
    assert cover_elapsed < 60.0
    t0 = time.monotonic()
    out4 = decide_realizable(g, d, 4)
    assert out4.exhausted
    print(
        f"criterion 9: PASS (k=5 cover in {cover_elapsed:.2f}s; k=4 exhausted "
        f"after {out4.nodes} nodes in {time.monotonic() - t0:.1f}s)"
    )
