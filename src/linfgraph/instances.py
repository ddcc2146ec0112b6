"""Generators for the benchmark instances and named graphs.

Includes the two weight functions that defeat every 2-dimensional search
(on the 4-wheel and on the glued-clique graph), each the sum-norm distances
of points that the minor pullback reuses, a generic weighting of K7
needing exactly 5 dimensions, the tree-of-cliques family whose dimension
requirement grows with the tree, the exact isometry between 2-dimensional
max-norm and sum-norm space, and a seeded random generator for valid
generic weights.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import InputError
from .graph_core import (
    DistanceFunction,
    Graph,
    _Record,
    _blend,
    _clear,
    _closure,
    _set,
)


class Tree(_Record):
    """A connected acyclic graph.  Its i-th edge (1-based) in the graph's
    canonical order controls the weights its clique receives in
    tk4_instance."""

    graph: Graph

    def __init__(self, graph):
        _set(self, "graph", graph)

    @staticmethod
    def build(graph: Graph) -> "Tree":
        # a connected graph on n vertices is a tree iff it has n - 1 edges
        if graph.n == 0 or graph.m != graph.n - 1 or not graph.is_connected():
            raise InputError("tree must be connected and acyclic")
        return Tree(graph)


def named_graph(name: str) -> Graph:
    """Canonical named graphs: K_n, W_n (n-cycle rim 1..n plus hub n+1),
    C_n, path_n, star_n (hub 0, leaves 1..n), K4eK4, petersen."""
    if name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, 5 + i) for i in range(5)]
        return Graph.build(range(10), outer + inner + spokes)
    if name == "K4eK4":
        edges = [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                 (0, 4), (1, 4), (0, 5), (1, 5), (4, 5)]
        return Graph.build(range(6), edges)
    try:
        family, size = name.rsplit("_", 1)
        n = int(size)
    except ValueError:
        raise InputError(f"unknown graph name {name!r}") from None
    if n < 1:
        raise InputError(f"size must be positive in {name!r}")
    if family == "K":
        return Graph.build(
            range(1, n + 1), [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        )
    if family == "W":
        if n < 3:
            raise InputError("wheel rim needs at least 3 vertices")
        rim = [(i, i % n + 1) for i in range(1, n + 1)]
        spokes = [(i, n + 1) for i in range(1, n + 1)]
        return Graph.build(range(1, n + 2), rim + spokes)
    if family == "C":
        if n < 3:
            raise InputError("cycle needs at least 3 vertices")
        return Graph.build(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])
    if family == "path":
        return Graph.build(range(1, n + 1), [(i, i + 1) for i in range(1, n)])
    if family == "star":
        return Graph.build(range(0, n + 1), [(0, i) for i in range(1, n + 1)])
    raise InputError(f"unknown graph name {name!r}")


# The witness points in the sum norm, W_4 in R^3 and K4eK4 in R^4, written
# doubled: each witness weight is the l1 distance between its ends' points.
_WITNESS_POINTS = {
    name: {v: tuple(Fraction(x, 2) for x in p) for v, p in doubled.items()}
    for name, doubled in {
        "W_4": {1: (18, 22, 0), 2: (0, 17, 13), 3: (0, -17, 13), 4: (20, -24, 0),
                5: (383, 0, 13)},
        "K4eK4": {0: (16, -12, -29, 35), 1: (0, 1, 0, 71), 2: (-43, 1, -29, 105),
                  3: (16, -12, -29, 189), 4: (16, 107, 0, 35), 5: (0, 0, 0, 0)},
    }.items()
}


def _l1_weights(g: Graph, points) -> DistanceFunction:
    """The sum-norm distances between the ends of each edge, summed over
    integers on the points' cleared denominators."""
    k = len(next(iter(points.values())))
    scale, flat = _clear([x for p in points.values() for x in p])
    cleared = {v: flat[i * k:(i + 1) * k] for i, v in enumerate(points)}
    return DistanceFunction(tuple(
        Fraction(sum(abs(a - b) for a, b in zip(cleared[u], cleared[v])), scale)
        for u, v in g.edges
    ))


def w4_witness() -> tuple[Graph, DistanceFunction]:
    """4-wheel weights not realizable in 2 dimensions: rim 18, 17, 20, 24
    around 1-2-3-4, spokes 200, the l1 distances of points in R^3."""
    g = named_graph("W_4")
    return g, _l1_weights(g, _WITNESS_POINTS["W_4"])


def k4ek4_witness() -> tuple[Graph, DistanceFunction]:
    """Glued-clique weights not realizable in 2 dimensions, the l1
    distances of points in R^4; generic."""
    g = named_graph("K4eK4")
    return g, _l1_weights(g, _WITNESS_POINTS["K4eK4"])


def k7_generic() -> tuple[Graph, DistanceFunction]:
    """K7 with weights 2^21 + 2^rank, rank descending along the ordering
    of edges by endpoints: the first edge (1,2) gets rank 21, the last
    (6,7) gets rank 1.  Valid (all weights within a factor 2) and generic
    (distinct powers of two cannot cancel)."""
    g = named_graph("K_7")
    base = 2**21
    weights = {}
    rank = 21
    for i in range(1, 8):
        for j in range(i + 1, 8):
            weights[(i, j)] = base + 2**rank
            rank -= 1
    return g, DistanceFunction.from_map(g, weights)


def tk4_instance(t: Tree, integer_scaled: bool = False) -> tuple[Graph, DistanceFunction]:
    """The tree-of-cliques construction: each tree vertex v becomes a spine
    edge v+v− of weight 1; each i-th tree edge vw becomes a 4-clique on
    {v+, v−, w+, w−} with parallel pairs weighted 2^-i and crossing pairs
    1 − 2^-i, the tree's edges numbered in its canonical order (`edges`).
    With integer_scaled, all weights are multiplied by 2^|E|."""
    g_t = t.graph
    if g_t.n < 2:
        raise InputError("tree needs at least two vertices")
    plus = {v: f"{v}+" for v in g_t.vertices}
    minus = {v: f"{v}-" for v in g_t.vertices}
    names = list(plus.values()) + list(minus.values())
    if len(set(names)) != 2 * g_t.n:
        raise InputError("vertex names collide under +/- suffixing")
    edges: list[tuple] = []
    weights: dict[tuple, Fraction] = {}

    def add(a, b, w):
        edges.append((a, b))
        weights[(a, b)] = w

    for v in g_t.vertices:
        add(plus[v], minus[v], Fraction(1))
    for i, (v, w) in enumerate(g_t.edges, start=1):
        near = Fraction(1, 2**i)
        far = 1 - near
        add(plus[v], plus[w], near)
        add(minus[v], minus[w], near)
        add(plus[v], minus[w], far)
        add(minus[v], plus[w], far)
    g = Graph.build(names, edges)
    d = DistanceFunction.from_map(g, weights)
    if integer_scaled:
        scale = 2 ** g_t.m
        d = DistanceFunction(tuple(w * scale for w in d.weights))
    return g, d


def linf2_to_l1_2(points) -> dict:
    """The exact isometry from 2-dimensional max-norm space to sum-norm
    space, (x, y) -> ((x-y)/2, (x+y)/2), applied pointwise to a vertex-to-
    vector map:  max(|a|,|b|) = |a-b|/2 + |a+b|/2 for all a, b."""
    out = {}
    for v, vec in points.items():
        if len(vec) != 2:
            raise InputError(f"vertex {v!r} has a {len(vec)}-dimensional point, expected 2")
        x, y = vec
        out[v] = (Fraction(x - y, 2), Fraction(x + y, 2))
    return out


def random_distance_function(g: Graph, seed: int = 0) -> DistanceFunction:
    """Seeded valid generic weights: uniform integers in [1, 2^16], replaced
    by their shortest-path closure (restoring validity), then always blended
    by `graph_core._blend`, by a relative deviation below 2**-20.  Every
    step runs on integers, and each weight becomes a Fraction once at the
    end.  The closure is valid by construction and its weights are
    positive, so the blend is valid and generic by construction (the proof
    is in `_blend`'s docstring): no validation pass and no genericity
    search runs.  g need not be connected: the closure measures each edge
    inside its own component.  Deterministic per (g, seed)."""
    rng = random.Random(seed)
    return _blend(_closure(g, [rng.randint(1, 2**16) for _ in range(g.m)]), seed)
