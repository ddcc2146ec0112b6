"""Seeded input generator for the benchmark, standard library only.

Nothing here calls a linfgraph generator, so a change to
`random_distance_function` or `perturb_to_generic` leaves the benchmark's
inputs unchanged.  An instance is a plain dict:

    {"name": str, "vertices": [int, ...], "edges": [(u, v), ...],
     "weights": [Fraction, ...] or None}

with `weights[i]` belonging to `edges[i]`.

Generic weights by construction (`generic_weights`).  Edge e gets
    w_e = a_e + 2**-p_e,   A <= a_e < 2A integers,   p_e >= 1 pairwise distinct.
Valid: w_e < 2A <= a_x + a_y < w_x + w_y, so every edge is strictly shorter
than any path of two or more edges, hence the unique shortest path between
its endpoints.  Generic: for a cycle split into edge sets S and T,
    sum_S w - sum_T w = (sum_S a - sum_T a) + (sum_S 2**-p - sum_T 2**-p).
The first bracket is an integer.  The second is a signed sum of distinct
powers of two, which is nonzero (its smallest power cannot be cancelled by
the others, all multiples of twice it) and of absolute value below
sum_e 2**-p_e < 1.  An integer plus a number strictly between -1 and 1 and
not 0 is never 0, so no cycle splits into two halves of equal weight.

Which inputs a run gets.  Weights and random graphs are drawn from
`BASE_SEED`, and the seeds given to `random_distance_function` are fixed
too, so every run asks the same questions and the answers pinned in
expected.json hold for every seed.  The run's seed only picks the seed the
CLI's `gen` draws with.  Vertices are not relabelled by the seed: relabelling changes the arc order of the
Bellman-Ford relaxation and the tie-breaks of the edge order, which moved
single search calls by up to 1.8x (W4 witness at k=2), and the branch-set
search time of W_8 by three orders of magnitude (1.03 s, 0.39 s, 0.001 s
under three relabellings).  Spreads across seeds would then measure the
seed, not the code.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

BASE_SEED = 20151125


# -- graph families -----------------------------------------------------------


def complete(n):
    return list(range(1, n + 1)), list(combinations(range(1, n + 1), 2))


def cycle(n):
    return list(range(1, n + 1)), [(i, i % n + 1) for i in range(1, n + 1)]


def wheel(n):
    """Rim 1..n, hub n+1."""
    rim = [(i, i % n + 1) for i in range(1, n + 1)]
    return list(range(1, n + 2)), rim + [(i, n + 1) for i in range(1, n + 1)]


def path(n):
    return list(range(1, n + 1)), [(i, i + 1) for i in range(1, n)]


def star(n):
    """Hub 0, leaves 1..n."""
    return list(range(n + 1)), [(0, i) for i in range(1, n + 1)]


def grid(rows, cols):
    vs = list(range(rows * cols))
    es = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                es.append((v, v + 1))
            if r + 1 < rows:
                es.append((v, v + cols))
    return vs, es


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return list(range(10)), outer + inner + spokes


def k4ek4():
    """Two 4-cliques {0,1,2,3} and {0,1,4,5} glued along 01, with 01 removed."""
    return list(range(6)), [(0, 2), (1, 2), (0, 3), (1, 3), (2, 3),
                            (0, 4), (1, 4), (0, 5), (1, 5), (4, 5)]


def is_connected(vertices, edges):
    if not vertices:
        return True
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {vertices[0]}
    stack = [vertices[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vertices)


def connected_gnp(rng, n, p):
    """G(n, p) redrawn until connected."""
    vs = list(range(n))
    while True:
        es = [e for e in combinations(vs, 2) if rng.random() < p]
        if is_connected(vs, es):
            return vs, es


def connected_atlas(max_n):
    """Every connected graph on 1..max_n vertices, one per isomorphism class,
    on vertices 0..n-1.  Orbit marking over edge bitmasks: the first mask of
    each class is kept and every permuted image of it is marked seen."""
    out = []
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        bit = {p: i for i, p in enumerate(pairs)}
        maps = [[bit[tuple(sorted((pi[a], pi[b])))] for a, b in pairs]
                for pi in permutations(range(n))]
        seen = set()
        for mask in range(1 << len(pairs)):
            if mask in seen:
                continue
            es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            if not is_connected(list(range(n)), es):
                continue
            out.append((list(range(n)), es))
            for mp in maps:
                img = 0
                for i in range(len(pairs)):
                    if mask >> i & 1:
                        img |= 1 << mp[i]
                seen.add(img)
    return out


# -- weights ------------------------------------------------------------------


def generic_weights(rng, m, lo_int, max_exp):
    """m weights a + 2**-p, valid and generic on any graph (module docstring).
    Integer parts in [lo_int, 2*lo_int); p drawn without repetition from
    1..max_exp, so denominators reach 2**max_exp."""
    exps = rng.sample(range(1, max_exp + 1), m)
    return [Fraction(rng.randrange(lo_int, 2 * lo_int)) + Fraction(1, 2 ** p) for p in exps]


def powers_of_two_weights(m):
    """w_i = 2**(m+2) + 2**(m-i) for the i-th edge (0-based): ranks m..1
    descend along the edge list, as in the paper's K7 stress instance.
    Valid: every weight is below 2**(m+3), every two-edge path above it.
    Generic: in a split S, T of a cycle the big terms give c * 2**(m+2) with
    c = |S| - |T|, the small terms a signed sum of distinct powers of two,
    nonzero and of absolute value below 2**(m+1); for c = 0 the total is
    that nonzero sum, otherwise the big term dominates."""
    return [Fraction(2 ** (m + 2) + 2 ** (m - i)) for i in range(m)]


def tk4_weights(tree_vertices, tree_edges):
    """The doubled-tree family: tree vertex v becomes spine edge v+ v- of
    weight 1, the i-th tree edge vw (1-based) a 4-clique on v+, v-, w+, w-
    with parallel pairs at 2**-i and crossing pairs at 1 - 2**-i.  Vertex
    ids: v+ = 2v, v- = 2v + 1 for tree vertices 0..n-1."""
    es, ws = [], []
    for v in tree_vertices:
        es.append((2 * v, 2 * v + 1))
        ws.append(Fraction(1))
    for i, (v, w) in enumerate(tree_edges, start=1):
        near = Fraction(1, 2 ** i)
        for a, b, x in ((2 * v, 2 * w, near), (2 * v + 1, 2 * w + 1, near),
                        (2 * v, 2 * w + 1, 1 - near), (2 * v + 1, 2 * w, 1 - near)):
            es.append((a, b))
            ws.append(x)
    return [x for v in tree_vertices for x in (2 * v, 2 * v + 1)], es, ws


def w4_witness():
    """4-wheel weights that defeat every 2-dimensional search (the paper's):
    rim 18, 17, 20, 24 around 1-2-3-4, spokes 200 to hub 5."""
    triples = [(1, 2, 18), (2, 3, 17), (3, 4, 20), (1, 4, 24),
               (1, 5, 200), (2, 5, 200), (3, 5, 200), (4, 5, 200)]
    return instance("W4w", range(1, 6), [t[:2] for t in triples],
                    [Fraction(t[2]) for t in triples])


def k4ek4_witness():
    """Glued-clique weights that defeat every 2-dimensional search (the
    paper's), on the edges of `k4ek4()`."""
    vs, es = k4ek4()
    return instance("K4eK4w", vs, es,
                    [Fraction(w) for w in (71, 53, 77, 88, 78, 74, 79, 46, 36, 79)])


# -- instances ------------------------------------------------------------------


def instance(name, vertices, edges, weights=None):
    return {"name": name, "vertices": list(vertices), "edges": list(edges),
            "weights": None if weights is None else list(weights)}
