"""Independent answer checks, exact and standard library only.

Nothing here calls linfgraph: realizations are re-checked with the
benchmark's own Fraction max-norm arithmetic, weight functions with its own
Dijkstra, minor witnesses with its own connectivity test.  Every function
returns None when the answer holds and a one-line reason when it does not.
All checks run outside the timed region.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction


def _key(u, v):
    return frozenset((u, v))


def shortest_paths(vertices, weighted_edges):
    """All-pairs distances by Dijkstra from every vertex; weights >= 0."""
    adj = {v: [] for v in vertices}
    for u, v, w in weighted_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    order = {v: i for i, v in enumerate(vertices)}
    dist = {}
    for s in vertices:
        best = {s: Fraction(0)}
        heap = [(Fraction(0), order[s], s)]
        while heap:
            dx, _, x = heapq.heappop(heap)
            if dx > best[x]:
                continue
            for y, w in adj[x]:
                cand = dx + w
                if y not in best or cand < best[y]:
                    best[y] = cand
                    heapq.heappush(heap, (cand, order[y], y))
        dist[s] = best
    return dist


def distance_function(vertices, edges, weights):
    """Every weight is nonnegative and equals the shortest-path distance
    between the edge's endpoints."""
    if len(weights) != len(edges):
        return f"{len(weights)} weights for {len(edges)} edges"
    if any(w < 0 for w in weights):
        return "negative weight"
    dist = shortest_paths(vertices, [(u, v, w) for (u, v), w in zip(edges, weights)])
    for (u, v), w in zip(edges, weights):
        if dist[u][v] != w:
            return f"edge ({u}, {v}) weight {w} exceeds the path distance {dist[u][v]}"
    return None


def realization(inst, points, k):
    """points: vertex -> k exact coordinates with max-norm edge distances
    equal to the instance's weights."""
    for v in inst["vertices"]:
        p = points.get(v)
        if p is None or len(p) != k:
            return f"vertex {v} has no {k}-dimensional point"
        if not all(isinstance(x, (int, Fraction)) for x in p):
            return f"vertex {v} has an inexact coordinate"
    for (u, v), w in zip(inst["edges"], inst["weights"]):
        got = max(abs(Fraction(a) - Fraction(b)) for a, b in zip(points[u], points[v]))
        if got != w:
            return f"edge ({u}, {v}): max-norm distance {got} != weight {w}"
    return None


MAX_DEVIATION = Fraction(1, 2 ** 20)


def random_weights(inst, program_edges, seed, weights):
    """Output of random_distance_function(g, seed), given in the program's
    edge order.  Its documented recipe is: integers uniform in [1, 2**16]
    drawn from random.Random(seed) in edge order, replaced by their
    shortest-path closure, then perturbed by a relative deviation of at most
    2**-20.  Checks validity with our own shortest paths and the deviation
    against our own closure of the same raw draw."""
    if {_key(u, v) for u, v in program_edges} != {_key(u, v) for u, v in inst["edges"]}:
        return "edge set differs from the instance"
    bad = distance_function(inst["vertices"], list(program_edges), list(weights))
    if bad:
        return bad
    rng = random.Random(seed)
    raw = [Fraction(rng.randint(1, 2 ** 16)) for _ in program_edges]
    dist = shortest_paths(inst["vertices"], [(u, v, w) for (u, v), w in zip(program_edges, raw)])
    for (u, v), w in zip(program_edges, weights):
        closed = dist[u][v]
        if abs(w - closed) > MAX_DEVIATION * closed:
            return f"edge ({u}, {v}): {w} deviates from the closure {closed} by more than 2**-20"
    return None


def _connected(vertex_set, adj):
    start = next(iter(vertex_set))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in vertex_set and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == vertex_set


# (vertex count, edge count, sorted degree sequence) of the two excluded patterns
PATTERNS = {(5, 8, (3, 3, 3, 3, 4)), (6, 10, (3, 3, 3, 3, 4, 4))}


def minor_witness(inst, pattern_vertices, pattern_edges, branch_sets, edge_realization):
    """A W4 or K4eK4 minor of the instance's graph: disjoint nonempty
    connected branch sets, and every pattern edge realized by a host edge
    between the two branch sets."""
    deg = {p: 0 for p in pattern_vertices}
    for a, b in pattern_edges:
        deg[a] += 1
        deg[b] += 1
    shape = (len(pattern_vertices), len(pattern_edges), tuple(sorted(deg.values())))
    if shape not in PATTERNS:
        return f"pattern with shape {shape} is neither W4 nor K4eK4"
    adj = {v: set() for v in inst["vertices"]}
    for u, v in inst["edges"]:
        adj[u].add(v)
        adj[v].add(u)
    used = set()
    for p in pattern_vertices:
        bs = set(branch_sets.get(p, ()))
        if not bs or not bs <= adj.keys():
            return f"branch set of {p} is empty or leaves the graph"
        if bs & used:
            return f"branch set of {p} overlaps another"
        if not _connected(bs, adj):
            return f"branch set of {p} is not connected"
        used |= bs
    for a, b in pattern_edges:
        real = edge_realization.get((a, b))
        if real is None:
            return f"pattern edge ({a}, {b}) is not realized"
        x, y = real
        if y not in adj[x] or x not in branch_sets[a] or y not in branch_sets[b]:
            return f"pattern edge ({a}, {b}) realized by a non-edge or outside its branch sets"
    return None
