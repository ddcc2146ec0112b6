"""The named graphs and benchmark weight generators."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linfgraph import (
    DistanceFunction,
    FinfBounds,
    Graph,
    InputError,
    Tree,
    finf_bounds,
    is_generic,
    k4ek4_witness,
    k7_generic,
    linf2_to_l1_2,
    named_graph,
    random_distance_function,
    tk4_instance,
    validate_distance_function,
    w4_witness,
)
from linfgraph import graph_core
from linfgraph.graph_core import _closure, format_fraction
from linfgraph.realizability import _distinct_valuations

from oracles import is_planar_rotation, is_tree_decomposition


# -- named graphs -----------------------------------------------------------


def test_named_graph_shapes():
    k5 = named_graph("K_5")
    assert (k5.n, k5.m) == (5, 10)
    w4 = named_graph("W_4")
    assert (w4.n, w4.m) == (5, 8)
    assert w4.degree(5) == 4  # the hub
    c6 = named_graph("C_6")
    assert (c6.n, c6.m) == (6, 6) and all(c6.degree(v) == 2 for v in c6.vertices)
    p4 = named_graph("path_4")
    assert (p4.n, p4.m) == (4, 3)
    s3 = named_graph("star_3")
    assert (s3.n, s3.m) == (4, 3) and s3.degree(0) == 3
    pet = named_graph("petersen")
    assert (pet.n, pet.m) == (10, 15)
    assert all(pet.degree(v) == 3 for v in pet.vertices)


def test_glued_cliques_shape():
    g = named_graph("K4eK4")
    assert (g.n, g.m) == (6, 10)
    assert not g.has_edge(0, 1)  # the shared edge is removed
    assert g.degree(0) == g.degree(1) == 4
    assert g.degree(2) == g.degree(3) == g.degree(4) == g.degree(5) == 3


def test_named_graph_rejections():
    for bad in ("Q_3", "K_0", "W_2", "C_2", "frob", "K_x"):
        with pytest.raises(InputError):
            named_graph(bad)


# -- the two 5- and 6-vertex witnesses ----------------------------------------


def test_w4_witness_values():
    g, d = w4_witness()
    assert g == named_graph("W_4")
    m = dict(zip(g.edges, d.weights))
    assert m[(1, 2)] == 18 and m[(2, 3)] == 17 and m[(3, 4)] == 20 and m[(1, 4)] == 24
    assert all(m[(i, 5)] == 200 for i in (1, 2, 3, 4))
    assert validate_distance_function(g, d).valid


def test_k4ek4_witness_values():
    g, d = k4ek4_witness()
    assert g == named_graph("K4eK4")
    m = dict(zip(g.edges, d.weights))
    assert m == {
        (0, 2): 71, (1, 2): 53, (0, 3): 77, (1, 3): 88, (2, 3): 78,
        (0, 4): 74, (1, 4): 79, (0, 5): 46, (1, 5): 36, (4, 5): 79,
    }
    assert validate_distance_function(g, d).valid
    assert is_generic(g, d).status == "generic"


def test_k7_weights_are_valid_generic_and_frozen():
    g, d = k7_generic()
    assert (g.n, g.m) == (7, 21)
    m = dict(zip(g.edges, d.weights))
    assert m[(1, 2)] == 2**21 + 2**21  # first edge, rank 21
    assert m[(6, 7)] == 2**21 + 2      # last edge, rank 1
    assert len({*m.values()}) == 21    # all distinct
    assert validate_distance_function(g, d).valid
    assert is_generic(g, d).status == "generic"


# -- the tree-of-cliques construction -----------------------------------------


def test_tree_build_validation():
    with pytest.raises(InputError):
        Tree.build(named_graph("C_3"))  # cyclic
    with pytest.raises(InputError):
        Tree.build(Graph.build([1, 2, 3], [(1, 2)]))  # disconnected
    with pytest.raises(InputError):
        # n - 1 edges, but a triangle and an isolated vertex
        Tree.build(Graph.build([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)]))
    with pytest.raises(InputError):
        Tree.build(Graph.build([], []))  # empty


def test_tk4_of_a_single_edge_is_a_clique():
    t = Tree.build(Graph.build(["a", "b"], [("a", "b")]))
    g, d = tk4_instance(t)
    assert (g.n, g.m) == (4, 6)
    assert set(g.vertices) == {"a+", "a-", "b+", "b-"}
    m = dict(zip(g.edges, d.weights))
    assert m[("a+", "a-")] == 1 and m[("b+", "b-")] == 1
    assert m[("a+", "b+")] == Fraction(1, 2) and m[("a-", "b-")] == Fraction(1, 2)
    assert m[("a+", "b-")] == Fraction(1, 2) and m[("a-", "b+")] == Fraction(1, 2)
    assert validate_distance_function(g, d).valid


def test_tk4_of_the_three_vertex_path():
    t = Tree.build(named_graph("path_3"))
    g, d = tk4_instance(t)
    assert (g.n, g.m) == (6, 11)  # 2|V| vertices, |V| + 4|E| edges
    m = dict(zip(g.edges, d.weights))
    assert m[("1+", "2+")] == Fraction(1, 2) and m[("1+", "2-")] == Fraction(1, 2)
    assert m[("2+", "3+")] == Fraction(1, 4) and m[("2+", "3-")] == Fraction(3, 4)
    assert validate_distance_function(g, d).valid


def test_tk4_spine_weights_and_order_dependence():
    # the tree's edges are numbered in its canonical order: (1, 2) first
    g, d = tk4_instance(Tree.build(named_graph("path_3")))
    w = d.weights
    assert w[g.edge_id("1+", "2+")] == Fraction(1, 2) and w[g.edge_id("2+", "3+")] == Fraction(1, 4)
    for v in ("1", "2", "3"):
        assert w[g.edge_id(f"{v}+", f"{v}-")] == 1


def test_tk4_integer_scaling():
    t = Tree.build(named_graph("path_3"))
    g, d = tk4_instance(t, integer_scaled=True)
    assert all(w.denominator == 1 for w in d.weights)
    _, d0 = tk4_instance(t)
    assert tuple(w * 4 for w in d0.weights) == d.weights


def _tk4_decomposition(t):
    """The doubled tree's tree decomposition: a bag {v+, v-, w+, w-} per
    tree edge vw.  With the tree rooted at its first vertex, the bag of the
    edge from c up to its parent hangs off the bag of the edge above it,
    and the bags of the root's edges off the first of them."""
    g = t.graph
    root = g.vertices[0]
    parent, order = {root: None}, [root]
    for v in order:
        for w, _ in g.adjacency[v]:
            if w not in parent:
                parent[w] = v
                order.append(w)
    below = order[1:]
    index = {c: i for i, c in enumerate(below)}
    bags = [frozenset({f"{c}+", f"{c}-", f"{parent[c]}+", f"{parent[c]}-"}) for c in below]
    links = [(index[c], 0 if parent[c] == root else index[parent[c]]) for c in below[1:]]
    return bags, links


def _tk4_rotation(t, reverse=True):
    """A rotation system of the doubled tree: around v+ the spine v+v-,
    then w-, w+ for each tree neighbour w in turn; around v- the spine,
    then w+, w- for each w in reverse.  Each clique on the spine v+v- then
    lies in a face of the clique before it, so the rotation is planar."""
    rotation = {}
    for v in t.graph.vertices:
        ws = [w for w, _ in t.graph.adjacency[v]]
        rotation[f"{v}+"] = [f"{v}-"] + [x for w in ws for x in (f"{w}-", f"{w}+")]
        rotation[f"{v}-"] = [f"{v}+"] + [x for w in (ws[::-1] if reverse else ws) for x in (f"{w}+", f"{w}-")]
    return rotation


@pytest.mark.parametrize("tree", ["path_2", "path_4", "path_6", "star_4"])
def test_doubled_trees_have_tree_width_three_and_are_planar(tree):
    # the paper's third claim, f_inf unbounded on planar graphs and on
    # graphs of tree-width 3, rests on the doubled trees being both
    t = Tree.build(named_graph(tree))
    g, _ = tk4_instance(t)
    bags, links = _tk4_decomposition(t)
    assert is_tree_decomposition(g, bags, links)
    assert max(len(b) for b in bags) - 1 == 3
    assert is_planar_rotation(g, _tk4_rotation(t))


def test_structural_oracles_reject_what_they_should():
    t = Tree.build(named_graph("path_4"))
    g, _ = tk4_instance(t)
    bags, links = _tk4_decomposition(t)
    # 3+ and 3- sit in the second and third bags only, which these links do not join
    assert not is_tree_decomposition(g, bags, [(1, 0), (2, 0)])
    assert not is_tree_decomposition(g, bags[:1] + [bags[1] - {"3-"}] + bags[2:], links)
    assert not is_tree_decomposition(g, bags, links[:1])
    # the same order around v- as around v+ glues the hub's cliques wrongly
    star = Tree.build(named_graph("star_4"))
    assert not is_planar_rotation(tk4_instance(star)[0], _tk4_rotation(star, reverse=False))
    for name in ("K_5", "K_6"):
        k = named_graph(name)
        assert not is_planar_rotation(k, {v: [w for w, _ in k.adjacency[v]] for v in k.vertices})


def test_tk4_name_collisions_are_rejected():
    g = Graph.build([1, "1"], [(1, "1")])  # both render as "1+" / "1-"
    with pytest.raises(InputError):
        tk4_instance(Tree.build(g))
    with pytest.raises(InputError):
        tk4_instance(Tree.build(Graph.build(["solo"], [])))


# -- the max-norm / sum-norm change of coordinates -----------------------------


def test_isometry_on_a_known_square():
    pts = {1: (Fraction(0), Fraction(0)), 2: (Fraction(2), Fraction(2))}
    out = linf2_to_l1_2(pts)
    assert out[1] == (0, 0) and out[2] == (0, 2)


def test_isometry_rejects_wrong_dimension():
    with pytest.raises(InputError):
        linf2_to_l1_2({1: (1, 2, 3)})


@settings(max_examples=200)
@given(
    st.fractions(min_value=-100, max_value=100),
    st.fractions(min_value=-100, max_value=100),
)
def test_isometry_preserves_norms_pointwise(a, b):
    (x, y) = linf2_to_l1_2({0: (a, b)})[0]
    assert abs(x) + abs(y) == max(abs(a), abs(b))


# -- random weights --------------------------------------------------------------


def test_random_distance_function_is_deterministic_valid_and_generic():
    g = named_graph("K_5")
    d1 = random_distance_function(g, seed=7)
    d2 = random_distance_function(g, seed=7)
    assert d1.weights == d2.weights
    assert random_distance_function(g, seed=8).weights != d1.weights
    assert validate_distance_function(g, d1).valid
    assert is_generic(g, d1).status == "generic"


# random_distance_function(named_graph(name), seed), exactly; every draw is
# blended, so the pins cover the closure and the blend (no genericity check
# runs).  The closure of ("petersen", 3) is already generic.
_RANDOM_PINS = {
    ("C_14", 62): [
        "380490127971/16777216", "573109185627/67108864", "2144732856943611/68719476736",
        "510999962695/8388608", "43612130596347/1073741824", "12517670377851/268435456",
        "752490991723/33554432", "52658397358075/2147483648", "90932962958331/4294967296",
        "547071199483/536870912", "293431889998843/8589934592", "773230831518715/34359738368",
        "276441019753467/17179869184", "532172850235/134217728",
    ],
    ("petersen", 1): [
        "147740024585/8388608", "1110248005205/134217728", "4594992167452949/137438953472",
        "259308405693/16777216", "139453160424725/2147483648", "253042052458773/4294967296",
        "926337665245461/17179869184", "26713060563989/536870912", "29549346958101/1073741824",
        "825639575541/67108864", "466304155758869/8589934592", "255361341096213/68719476736",
        "1714428518309/33554432", "15226718320533/268435456", "9517642989845/34359738368",
    ],
    ("K_6", 13): [
        "7669999212249/268435456", "3116264358361/134217728", "836452704125401/34359738368",
        "88839472557/4194304", "331382196158937/17179869184", "7093669080025/536870912",
        "26371075017177/1073741824", "750008009817/67108864", "155759540409/16777216",
        "87973735100889/4294967296", "50001969324505/8589934592", "32958817441/8388608",
        "618944493145/33554432", "34716223465/2097152", "4063037125081/2147483648",
    ],
    ("petersen", 3): [
        "523297659871/16777216", "1147224992095/67108864", "52066766017375/1073741824",
        "2084936226879/33554432", "36024847015/4194304", "118609760289631/68719476736",
        "264157420188511/4294967296", "1168058220151647/34359738368",
        "16489974778719/536870912", "210830691567/8388608", "132368620110687/2147483648",
        "1072658483413855/17179869184", "13973126122591/268435456",
        "2649723970527/134217728", "261125179704159/8589934592",
    ],
}


@pytest.mark.parametrize("name, seed", sorted(_RANDOM_PINS))
def test_random_distance_function_is_pinned(name, seed):
    d = random_distance_function(named_graph(name), seed)
    assert [format_fraction(w) for w in d.weights] == _RANDOM_PINS[name, seed]


def test_random_distance_function_blends_a_generic_closure():
    # the integer closure of this draw is generic already, and it is
    # blended all the same
    g = named_graph("petersen")
    rng = random.Random(3)
    closure = DistanceFunction.from_values(
        _closure(g, [rng.randint(1, 2**16) for _ in range(g.m)]))
    assert is_generic(g, closure).status == "generic"
    d = random_distance_function(g, 3)
    assert d.weights != closure.weights
    assert validate_distance_function(g, d).valid
    assert is_generic(g, d).status == "generic"
    for w, c in zip(d.weights, closure.weights):
        assert abs(w - c) < c * Fraction(1, 2**20)


def test_random_distance_function_runs_no_genericity_search(monkeypatch):
    # the blend of a closure is generic by construction, so nothing asks
    def refuse(*args, **kwargs):
        raise AssertionError("ran a genericity search or a cycle enumeration")

    graphs = {name: named_graph(name) for name in ("petersen", "K_9", "C_30", "W_16")}
    monkeypatch.setattr(graph_core, "is_generic", refuse)
    monkeypatch.setattr(graph_core, "_simple_cycles", refuse)
    drawn = {name: random_distance_function(g, seed=5) for name, g in graphs.items()}
    monkeypatch.undo()
    for name, d in drawn.items():
        g = graphs[name]
        assert validate_distance_function(g, d).valid
        # distinct 2-adic valuations prove genericity in O(m), which
        # is_generic tries before its cycle search, also on K_9
        assert _distinct_valuations(d.integers)
        assert is_generic(g, d, budget=0).status == "generic"


def test_random_distance_function_runs_one_distances(monkeypatch):
    # the closure is valid by construction; only building it needs distances
    calls = []
    distances = graph_core._distances

    def counting(*args):
        calls.append(args)
        return distances(*args)

    monkeypatch.setattr(graph_core, "_distances", counting)
    random_distance_function(named_graph("W_6"), seed=3)
    assert len(calls) == 1


def test_random_distance_function_on_disconnected_graphs():
    # the closure measures each edge inside its own component, and the
    # blend's genericity proof is per cycle: no component needs the others
    two = Graph.build(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    d = random_distance_function(two, seed=0)
    assert validate_distance_function(two, d).valid
    assert is_generic(two, d).status == "generic"
    bounds = finf_bounds(two)
    assert (bounds.lower, bounds.upper) == (2, 4)
    g = Graph.build([1, 2, 3, 4], [(1, 2), (2, 3), (1, 3)])
    assert finf_bounds(g) == FinfBounds(2, 2, None)
