"""Independent brute-force reference implementations.

Everything here is written the slow, obviously-correct way and shares no
code with the library: plain Bellman-Ford off an edge list, exhaustive
subset and orientation enumeration, exhaustive vertex assignments for
minors, certificate checks in Fraction arithmetic, and the conflict table
over every pair of arcs.  (The certificate checks return the library's
result record and print rationals as it does, so that results compare
equal.)  Unit and acceptance tests compare the library's answers against
these on small inputs.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

from linfgraph import DistanceFunction, Graph, InputError, Realization, VerifyResult
from linfgraph.graph_core import _printable


def bellman_ford_potential(vertices, arcs):
    """Textbook: relax every arc |V| - 1 times from an all-zero start, then
    one more pass to detect a negative cycle.  arcs: list of (u, v, length).
    Returns {vertex: value} or None."""
    dist = {v: Fraction(0) for v in vertices}
    for _ in range(len(vertices) - 1):
        for u, v, l in arcs:
            if dist[u] + l < dist[v]:
                dist[v] = dist[u] + l
    for u, v, l in arcs:
        if dist[u] + l < dist[v]:
            return None
    return dist


def forced_arcs(g: Graph, d: DistanceFunction, forced):
    """Arc list of the bidirected system with the given arcs negated."""
    forced = set(forced)
    arcs = []
    for eid, (u, v) in enumerate(g.edges):
        w = d.weights[eid]
        arcs.append((u, v, -w if (u, v) in forced else w))
        arcs.append((v, u, -w if (v, u) in forced else w))
    return arcs


def potential_fits(g: Graph, d: DistanceFunction, forced, values) -> bool:
    """values[v] - values[u] <= length on every arc of the forced system."""
    return all(values[v] - values[u] <= l for u, v, l in forced_arcs(g, d, forced))


def orientation_feasible(g: Graph, d: DistanceFunction, forced) -> bool:
    return bellman_ford_potential(g.vertices, forced_arcs(g, d, forced)) is not None


def edge_set_feasible(g: Graph, d: DistanceFunction, eids) -> bool:
    """Some orientation of the edge set works; first edge direction fixed
    (reversal symmetry makes the other half redundant)."""
    eids = sorted(eids)
    if not eids:
        return True
    for dirs in product((0, 1), repeat=len(eids) - 1):
        forced = [g.edges[eids[0]]]
        for eid, dr in zip(eids[1:], dirs):
            u, v = g.edges[eid]
            forced.append((u, v) if dr == 0 else (v, u))
        if orientation_feasible(g, d, forced):
            return True
    return False


def feasible_family(g: Graph, d: DistanceFunction):
    """All feasible edge sets as frozensets of edge ids, found bottom-up;
    supersets of infeasible sets are skipped (feasibility is downward
    closed)."""
    feasible = {frozenset()}
    frontier = [frozenset()]
    while frontier:
        nxt = []
        for base in frontier:
            start = max(base) + 1 if base else 0
            for eid in range(start, g.m):
                cand = base | {eid}
                if cand in feasible:
                    continue
                if any(cand - {e} not in feasible for e in cand):
                    continue
                if edge_set_feasible(g, d, cand):
                    feasible.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return feasible


def brute_realizable(g: Graph, d: DistanceFunction, k: int, family=None) -> bool:
    """Unpruned cover decision: can k feasible sets union to all edges?
    Maximal feasible sets suffice (downward closure)."""
    if family is None:
        family = feasible_family(g, d)
    masks = {sum(1 << e for e in f) for f in family}
    maximal = [m for m in masks if not any(m != o and m | o == o for o in masks)]
    full = (1 << g.m) - 1
    reach = {0}
    for _ in range(k):
        reach = {r | m for r in reach for m in maximal}
        if full in reach:
            return True
    return full in reach


def brute_min_dimension(g: Graph, d: DistanceFunction) -> int:
    family = feasible_family(g, d)
    k = 1
    while not brute_realizable(g, d, k, family):
        k += 1
    return k


def brute_cycles(g: Graph):
    """Every simple cycle as a frozenset of edge ids: the edge subsets in
    which each touched vertex has degree two and which are connected."""
    out = []
    for size in range(3, g.m + 1):
        for eids in combinations(range(g.m), size):
            deg = {}
            for e in eids:
                for x in g.edges[e]:
                    deg[x] = deg.get(x, 0) + 1
            if any(c != 2 for c in deg.values()):
                continue
            # with every degree two, the set is one cycle iff it is connected
            reach = {g.edges[eids[0]][0]}
            grew = True
            while grew:
                grew = False
                for e in eids:
                    u, v = g.edges[e]
                    if (u in reach) != (v in reach):
                        reach |= {u, v}
                        grew = True
            if len(reach) == len(deg):
                out.append(frozenset(eids))
    return out


def brute_blocks(g: Graph) -> set:
    """The edge classes of g's blocks, as frozensets of edge tuples: two
    edges share a block iff they are equal or some simple cycle holds
    both.  The cycles are every vertex sequence of three or more distinct
    vertices that starts at its least vertex index and closes with edges;
    so at most 7 vertices."""
    if g.n > 7:
        raise ValueError("brute_blocks enumerates vertex sequences on at most 7 vertices")
    together = {e: {e} for e in g.edges}
    for size in range(3, g.n + 1):
        for seq in permutations(range(g.n), size):
            if seq[0] != min(seq) or seq[1] > seq[-1]:
                continue
            vs = [g.vertices[i] for i in seq]
            cycle = []
            for a, b in zip(vs, vs[1:] + vs[:1]):
                if (a, b) in together:
                    cycle.append((a, b))
                elif (b, a) in together:
                    cycle.append((b, a))
                else:
                    break
            else:
                for e in cycle:
                    together[e].update(cycle)
    return {frozenset(c) for c in together.values()}


def brute_is_generic(g: Graph, d: DistanceFunction) -> bool:
    """No cycle splits into two edge sets of equal Fraction weight: for each
    cycle, every subset holding its smallest edge id is summed directly."""
    for cycle in brute_cycles(g):
        first, *rest = sorted(cycle)
        half = sum((d.weights[e] for e in cycle), Fraction(0)) / 2
        for size in range(len(rest) + 1):
            for others in combinations(rest, size):
                if d.weights[first] + sum((d.weights[e] for e in others), Fraction(0)) == half:
                    return False
    return True


def fraction_blend(weights, seed: int) -> tuple:
    """The generic blend as first written, in Fraction arithmetic:
    (1-t)*w + t*r_i for each weight w (all positive integers), with the
    least weight `low` and the seeded permutation of 1..m."""
    m = len(weights)
    low = min(weights, default=0)
    t = Fraction(1, 2 ** max(20, (low * m).bit_length() + 1))
    scale = Fraction(low, 2 ** (m + 3))
    exponents = list(range(1, m + 1))
    random.Random(seed).shuffle(exponents)
    return tuple(
        (1 - t) * w + t * scale * (2 ** (m + 2) + 2 ** exponents[i])
        for i, w in enumerate(weights)
    )


def sp_by_relaxation(g: Graph, d: DistanceFunction):
    """All-pairs shortest paths by per-source edge relaxation (no
    Floyd-Warshall).  Returns {u: {v: distance-or-None}}."""
    out = {}
    for s in g.vertices:
        dist = {v: None for v in g.vertices}
        dist[s] = Fraction(0)
        for _ in range(g.n - 1):
            for eid, (u, v) in enumerate(g.edges):
                w = d.weights[eid]
                for a, b in ((u, v), (v, u)):
                    if dist[a] is not None and (dist[b] is None or dist[a] + w < dist[b]):
                        dist[b] = dist[a] + w
        out[s] = dist
    return out


def fraction_floyd_warshall(g: Graph, weights):
    """Textbook Floyd-Warshall in Fraction arithmetic over vertex pairs.
    weights: indexed by edge id.  Returns {(a, b): distance or None}, None
    for an unreachable pair."""
    dist = {(a, b): Fraction(0) if a == b else None for a in g.vertices for b in g.vertices}
    for eid, (u, v) in enumerate(g.edges):
        w = Fraction(weights[eid])
        for a, b in ((u, v), (v, u)):
            if dist[a, b] is None or w < dist[a, b]:
                dist[a, b] = w
    for k in g.vertices:
        for a in g.vertices:
            for b in g.vertices:
                if dist[a, k] is None or dist[k, b] is None:
                    continue
                if dist[a, b] is None or dist[a, k] + dist[k, b] < dist[a, b]:
                    dist[a, b] = dist[a, k] + dist[k, b]
    return dist


def copying_simple_cycles(g: Graph):
    """The simple-cycle enumeration as first written, copying the path and
    the visited set at every step: each cycle once, as edge ids, keyed by
    its smallest edge id, in the order the library's enumeration must
    keep (genericity reports and budget cut-offs depend on it)."""
    for base, (u, v) in enumerate(g.edges):
        stack = [(v, [base], {v})]
        while stack:
            x, path_edges, used = stack.pop()
            for y, eid in g.adjacency[x]:
                if eid <= base:
                    continue
                if y == u:
                    yield tuple(path_edges + [eid])
                elif y not in used and y != u:
                    stack.append((y, path_edges + [eid], used | {y}))


def brute_vertex_cover(g: Graph) -> int:
    for size in range(g.n + 1):
        for subset in combinations(g.vertices, size):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in g.edges):
                return size
    raise AssertionError("all vertices always cover")


def brute_rank(g: Graph, eids) -> int:
    """Graphic-matroid rank of the edges eids: n minus the number of
    components of the spanning subgraph they form, counted by breadth-first
    search."""
    nbrs = {v: [] for v in g.vertices}
    for e in eids:
        u, v = g.edges[e]
        nbrs[u].append(v)
        nbrs[v].append(u)
    seen, components = set(), 0
    for s in g.vertices:
        if s in seen:
            continue
        components += 1
        seen.add(s)
        queue = [s]
        for x in queue:
            for y in nbrs[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return g.n - components


def brute_arboricity(g: Graph) -> int:
    """Smallest j admitting a partition of E into j forests, by direct
    backtracking with per-forest cycle checks (union-find)."""
    if g.m == 0:
        return 0

    def find(p, x):
        while p[x] != x:
            x = p[x]
        return x

    def assign(eid, parents):
        if eid == g.m:
            return True
        u, v = g.edges[eid]
        for p in parents:
            ru, rv = find(p, u), find(p, v)
            if ru == rv:
                continue
            p[ru] = rv
            if assign(eid + 1, parents):
                return True
            p[ru] = ru
        return False

    j = 1
    while True:
        parents = [{v: v for v in g.vertices} for _ in range(j)]
        if assign(0, parents):
            return j
        j += 1


def brute_has_minor(g: Graph, h: Graph) -> bool:
    """Exhaustive: every assignment of g-vertices to pattern vertices or to
    'unused' (0), checking nonemptiness, connectivity, and edge realization."""
    hv = list(h.vertices)
    hidx = {pv: i + 1 for i, pv in enumerate(hv)}
    nbrs = {v: {w for w, _ in g.adjacency[v]} for v in g.vertices}

    def connected(members) -> bool:
        it = iter(members)
        seen = {next(it)}
        stack = list(seen)
        while stack:
            x = stack.pop()
            for y in nbrs[x] & members:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == len(members)

    for assignment in product(range(len(hv) + 1), repeat=g.n):
        classes = {i: set() for i in range(1, len(hv) + 1)}
        for gi, cls in enumerate(assignment):
            if cls:
                classes[cls].add(g.vertices[gi])
        if any(not c or not connected(c) for c in classes.values()):
            continue
        of = {g.vertices[gi]: cls for gi, cls in enumerate(assignment)}
        if all(
            any({of[a], of[b]} == {hidx[pu], hidx[pv]} for a, b in g.edges)
            for pu, pv in h.edges
        ):
            return True
    return False


def _connected(nodes, links) -> bool:
    """Whether the links (pairs of nodes) join the nonempty set nodes."""
    nodes = set(nodes)
    start = next(iter(nodes))
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for a, b in links:
            for p, q in ((a, b), (b, a)):
                if p == x and q in nodes and q not in seen:
                    seen.add(q)
                    stack.append(q)
    return seen == nodes


def is_three_connected(g: Graph) -> bool:
    """Whether g has at least four vertices and stays connected after
    deleting any two of them.  Then it does after deleting one: on four or
    more vertices, a vertex that disconnects g still does with a second
    one, taken from a component of two or more vertices if there is one,
    else from one of at least three single-vertex components."""
    if g.n < 4:
        return False
    for pair in combinations(g.vertices, 2):
        rest = set(g.vertices) - set(pair)
        if not _connected(rest, [(a, b) for a, b in g.edges if a in rest and b in rest]):
            return False
    return True


def is_minor_model(g: Graph, emb) -> bool:
    """Whether emb's branch sets and realizing edges model its pattern in g,
    the plain way: the pattern's vertices, and nothing else, have a
    nonempty set of vertices of g, the sets are pairwise disjoint, the
    edges of g inside each set join it (`_connected`), and the pattern's
    edges, and nothing else, are realized, each by an edge of g from its
    first end's set to its second end's."""
    if set(emb.branch_sets) != set(emb.pattern.vertices):
        return False
    if set(emb.edge_realization) != set(emb.pattern.edges):
        return False
    sets = [emb.branch_sets.get(pv) for pv in emb.pattern.vertices]
    if not all(sets):
        return False
    sets = [set(s) for s in sets]
    if not all(s <= set(g.vertices) for s in sets):
        return False
    if len(set().union(*sets)) != sum(len(s) for s in sets):
        return False
    if not all(_connected(s, g.edges) for s in sets):
        return False
    of = dict(zip(emb.pattern.vertices, sets))
    host = {frozenset(e) for e in g.edges}
    for pu, pv in emb.pattern.edges:
        real = emb.edge_realization.get((pu, pv))
        if real is None or frozenset(real) not in host:
            return False
        a, b = real
        if a not in of[pu] or b not in of[pv]:
            return False
    return True


def is_tree_decomposition(g: Graph, bags, links) -> bool:
    """Whether bags (vertex sets) joined by links (pairs of bag indices)
    form a tree decomposition of g: the links form a tree on the bags,
    every vertex and every edge of g lies in some bag, and the bags that
    hold a vertex are connected in that tree (running intersection)."""
    nodes = range(len(bags))
    if not bags or len(links) != len(bags) - 1 or not _connected(nodes, links):
        return False
    for v in g.vertices:
        holding = [i for i in nodes if v in bags[i]]
        if not holding or not _connected(holding, links):
            return False
    return all(any(u in b and v in b for b in bags) for u, v in g.edges)


def is_planar_rotation(g: Graph, rotation) -> bool:
    """Whether rotation, a cyclic order of its neighbours at each vertex of
    the connected graph g, embeds g in the sphere: its faces, traced as
    orbits of darts (u, v) -> (v, the neighbour after u around v), number
    F with V - E + F = 2 (Euler), as they do for exactly the planar
    rotation systems."""
    nbrs = {v: set() for v in g.vertices}
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    if any(len(rotation[v]) != len(nbrs[v]) or set(rotation[v]) != nbrs[v] for v in g.vertices):
        return False
    if not _connected(g.vertices, g.edges):
        return False
    after = {(v, x): rotation[v][(i + 1) % len(rotation[v])] for v in g.vertices
             for i, x in enumerate(rotation[v])}
    darts = {(u, v) for u, v in g.edges} | {(v, u) for u, v in g.edges}
    faces = 0
    while darts:
        faces += 1
        u, v = dart = darts.pop()
        while True:
            u, v = v, after[(v, u)]
            if (u, v) == dart:
                break
            darts.remove((u, v))
    return g.n - g.m + faces == 2


def fraction_part_certified(g: Graph, d: DistanceFunction, orientation, potential) -> bool:
    """The part check in Fraction arithmetic: the labelled points are the
    vertices, no edge's gap exceeds its weight, and every forced arc is
    tight.  An arc that is no edge of g raises InputError."""
    values = potential.values
    if set(values) != set(g.vertices):
        return False
    for eid, (u, v) in enumerate(g.edges):
        if abs(values[u] - values[v]) > d.weights[eid]:
            return False
    return all(d.weights[g.edge_id(u, v)] == values[u] - values[v] for u, v in orientation.arcs)


def fraction_cover_check(g: Graph, d: DistanceFunction, cover) -> bool:
    """A cover checks when each part is certified and the parts' arcs cover E."""
    if len(cover.parts) != len(cover.potentials):
        return False
    if not all(fraction_part_certified(g, d, o, p) for o, p in zip(cover.parts, cover.potentials)):
        return False
    return {g.edge_id(u, v) for o in cover.parts for u, v in o.arcs} == set(range(g.m))


_MISMATCH = {
    "inf": "max-norm distance {} != weight {}",
    1: "sum-norm distance {} != weight {}",
    2: "squared distance {} != squared weight {}",
}


def fraction_verify_realization(g: Graph, d: DistanceFunction, points, norm="inf") -> VerifyResult:
    """Each edge's endpoint distance under the norm (1, 2 by squares, or
    'inf') against its weight, in Fraction arithmetic; the first mismatch
    is reported with its edge and both values."""
    if norm not in (1, 2, "inf"):
        raise InputError(f"unsupported norm {norm!r}")
    if isinstance(points, Realization):
        k, points = points.k, points.points
    else:
        k = len(next(iter(points.values()))) if points else 0
    for v in g.vertices:
        if v not in points:
            raise InputError(f"no coordinates for vertex {v!r}")
        if len(points[v]) != k:
            raise InputError(f"vertex {v!r} has {len(points[v])} coordinates, expected {k}")
    extra = set(points) - set(g.vertices)
    if extra:
        raise InputError(f"coordinates for {extra.pop()!r}, which is no vertex")
    for eid, (u, v) in enumerate(g.edges):
        gaps = [abs(a - b) for a, b in zip(points[u], points[v])]
        w = d.weights[eid]
        if norm == "inf":
            got, want = max(gaps, default=0), w
        elif norm == 1:
            got, want = sum(gaps), w
        else:
            got, want = sum(x * x for x in gaps), w * w
        if got != want:
            detail = _MISMATCH[norm].format(_printable(got), _printable(want))
            return VerifyResult(False, (u, v), detail)
    return VerifyResult(True)


def all_pairs_conflicts(g: Graph, d: DistanceFunction):
    """The conflict table over every pair of arcs of distinct edges, arc 2e
    along edge e as stored in g.edges and arc 2e + 1 against it: arcs a =
    (ta, ha) and b = (tb, hb) conflict when the closed walk ta -> ha ~> tb
    -> hb ~> ta is negative with both forced, i.e. when sp(ha, tb) +
    sp(hb, ta) < w(a) + w(b) over Fraction shortest paths.  One bitmask of
    conflicting arcs per arc."""
    sp = sp_by_relaxation(g, d)
    arcs = [(u, v, w) for (a, b), w in zip(g.edges, d.weights) for u, v in ((a, b), (b, a))]
    masks = [0] * len(arcs)
    for a, (ta, ha, wa) in enumerate(arcs):
        for b, (tb, hb, wb) in enumerate(arcs):
            if a >> 1 == b >> 1 or sp[ha][tb] is None or sp[hb][ta] is None:
                continue
            if sp[ha][tb] + sp[hb][ta] < wa + wb:
                masks[a] |= 1 << b
    return masks
