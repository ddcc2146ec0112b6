"""Minor detection, the dimension-2 classifier, and witness pullbacks.

A graph needs more than two dimensions for some weights exactly when it has
a minor isomorphic to one of two patterns: the 4-wheel, or two 4-cliques
glued along an edge that is then removed.  `classify_dim2` decides this by
decomposing into blocks, suppressing degree-2 vertices, and running an exact
branch-set search for the two patterns; a positive verdict always carries a
re-validated embedding.  `pullback_distance` transports weights from a minor
pattern up to the host graph (zero inside branch sets, shortest-path closure
elsewhere), so non-realizability witnesses transfer along minors, and
`certificate_exceeds_2` packages that into a concrete weight function on
which the k = 2 search provably exhausts.

The classifier verdict applies to the sum norm as well: two-dimensional
max-norm and sum-norm geometry are exactly isometric (see linf2_to_l1_2),
so the same two patterns are excluded in both settings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .errors import InputError
from .graph_core import (
    DistanceFunction,
    Graph,
    blocks,
    shortest_path_table,
    suppress_degree_2,
    validate_distance_function,
    vertex_key,
)
from .realizability import SearchOutcome, decide_realizable
from .instances import k4ek4_witness, named_graph, w4_witness


@dataclass(frozen=True)
class MinorEmbedding:
    """Branch sets in a host graph realizing a pattern as a minor.

    branch_sets maps each pattern vertex to a connected set of host
    vertices; edge_realization maps each pattern edge (as stored in the
    pattern) to the host edge joining the two branch sets, oriented so its
    first endpoint lies in the branch set of the pattern edge's first
    endpoint.
    """

    pattern: Graph
    branch_sets: dict
    edge_realization: dict

    def check(self, g: Graph) -> bool:
        seen = set()
        for pv in self.pattern.vertices:
            bs = self.branch_sets.get(pv)
            if not bs:
                return False
            if not all(v in g.vertex_index for v in bs):
                return False
            if seen & set(bs):
                return False
            seen |= set(bs)
            if not g.induced(bs).is_connected():
                return False
        for pu, pv in self.pattern.edges:
            real = self.edge_realization.get((pu, pv))
            if real is None:
                return False
            gu, gv = real
            if not g.has_edge(gu, gv):
                return False
            if gu not in self.branch_sets[pu] or gv not in self.branch_sets[pv]:
                return False
        return True


@dataclass(frozen=True)
class Classification:
    verdict: str  # "dim_at_most_2" | "exceeds_2"
    witness: MinorEmbedding | None = None


# -- exact minor containment ---------------------------------------------------


def _minor_search(g: Graph, h: Graph) -> MinorEmbedding | None:
    """Complete backtracking over branch sets.  Pattern vertices receive
    anchor host vertices (decreasing pattern degree); branch sets then grow
    one unused host vertex at a time toward the first unrealized pattern
    edge.  Growing only toward that edge is complete: inside any true
    embedding, some adjacent unused vertex of its branch set always extends
    the partial one."""
    pvs = sorted(h.vertices, key=lambda x: (-h.degree(x), vertex_key(x)))
    porder = {pv: i for i, pv in enumerate(pvs)}
    pedges = sorted(h.edges, key=lambda e: (max(porder[e[0]], porder[e[1]]),
                                            min(porder[e[0]], porder[e[1]])))
    comp_of = {}
    for comp in g.components():
        for v in comp:
            comp_of[v] = min(comp, key=vertex_key)

    def realize(bsets: dict, used: set, ei: int):
        while ei < len(pedges):
            pu, pv = pedges[ei]
            su, sv = bsets[pu], bsets[pv]
            hit = None
            for a in su:
                for b, _ in g.adjacency[a]:
                    if b in sv:
                        hit = (a, b)
                        break
                if hit:
                    break
            if hit is None:
                break
            ei += 1
        else:
            real = {}
            for pu, pv in h.edges:
                found = None
                for a in bsets[pu]:
                    for b, _ in g.adjacency[a]:
                        if b in bsets[pv]:
                            found = (a, b)
                            break
                    if found:
                        break
                real[(pu, pv)] = found
            return {pv: frozenset(s) for pv, s in bsets.items()}, real

        pu, pv = pedges[ei]
        su, sv = bsets[pu], bsets[pv]
        # reachability prune: the two sets must touch through unused vertices
        frontier, reach = list(su), set(su)
        ok = False
        while frontier and not ok:
            x = frontier.pop()
            for y, _ in g.adjacency[x]:
                if y in sv:
                    ok = True
                    break
                if y not in reach and y not in used:
                    reach.add(y)
                    frontier.append(y)
        if not ok:
            return None
        for side in (pu, pv):
            s = bsets[side]
            candidates = sorted(
                {y for x in s for y, _ in g.adjacency[x] if y not in used},
                key=vertex_key,
            )
            for y in candidates:
                bsets[side] = s | {y}
                used.add(y)
                res = realize(bsets, used, ei)
                if res is not None:
                    return res
                used.discard(y)
            bsets[side] = s
        return None

    def place(i: int, bsets: dict, used: set):
        if i == len(pvs):
            return realize(dict(bsets), set(used), 0)
        for a in g.vertices:
            if a in used:
                continue
            if used and comp_of[a] != comp_of[next(iter(used))]:
                continue
            bsets[pvs[i]] = {a}
            used.add(a)
            res = place(i + 1, bsets, used)
            if res is not None:
                return res
            used.discard(a)
            del bsets[pvs[i]]
        return None

    if g.n < h.n or g.m < h.m:
        return None
    found = place(0, {}, set())
    if found is None:
        return None
    bsets, real = found
    emb = MinorEmbedding(h, bsets, real)
    assert emb.check(g), "minor search produced an invalid embedding"
    return emb


def contains_minor(g: Graph, h: Graph) -> MinorEmbedding | None:
    """Certified embedding of h as a minor of g, or None after exhaustive
    search.  h must be connected."""
    if h.n == 0:
        raise InputError("pattern graph is empty")
    if not h.is_connected():
        raise InputError("pattern graph must be connected")
    return _minor_search(g, h)


# -- the dimension-2 classifier -------------------------------------------------


def _lift_through_suppression(emb: MinorEmbedding, log) -> MinorEmbedding:
    """Transport an embedding in the suppressed graph back to the original:
    replay the log backwards, re-inserting each removed vertex.  A removed
    vertex w with neighbors u, v matters only when the shortcut edge uv was
    used; w then joins the branch set at u (or the common set), and a
    realizing edge (u, v) is rerouted through (w, v)."""
    bsets = {pv: set(s) for pv, s in emb.branch_sets.items()}
    real = dict(emb.edge_realization)
    owner = {}
    for pv, s in bsets.items():
        for x in s:
            owner[x] = pv
    for step in reversed(log.steps):
        if step.kind != "smooth":
            continue  # deleted-shortcut removals leave a plain subgraph
        w, u, v = step.w, step.u, step.v
        pu, pv_ = owner.get(u), owner.get(v)
        if pu is None or pv_ is None:
            continue
        if pu == pv_:
            bsets[pu].add(w)
            owner[w] = pu
            continue
        for pedge, (a, b) in real.items():
            if (a, b) == (u, v):
                bsets[pu].add(w)
                owner[w] = pu
                real[pedge] = (w, v)
                break
            if (a, b) == (v, u):
                bsets[pv_].add(w)
                owner[w] = pv_
                real[pedge] = (w, u)
                break
    return MinorEmbedding(
        emb.pattern, {pv: frozenset(s) for pv, s in bsets.items()}, real
    )


def classify_dim2(g: Graph) -> Classification:
    """Excluded-minor test for two-dimensional realizability of all weights
    (max norm and, equivalently, sum norm)."""
    w4 = named_graph("W_4")
    k4e = named_graph("K4eK4")
    for block in blocks(g):
        if block.n < 5 or block.is_forest():
            continue
        reduced, log = suppress_degree_2(block)
        if reduced.n < 5 or reduced.is_forest():
            continue
        for pattern in (w4, k4e) if reduced.n >= 6 else (w4,):
            emb = _minor_search(reduced, pattern)
            if emb is None:
                continue
            lifted = _lift_through_suppression(emb, log)
            assert lifted.check(g), "lifted witness failed validation"
            return Classification("exceeds_2", lifted)
    return Classification("dim_at_most_2")


# -- minor-monotone weight transport --------------------------------------------


class WeakenedCertificateWarning(UserWarning):
    """Raised when a pulled-back pattern weight had to be lowered to the
    host graph's closure distance; indicates an inconsistent input pair."""


def pullback_distance(g: Graph, emb: MinorEmbedding, d_h: DistanceFunction) -> DistanceFunction:
    """Weights on g that force any realization to restrict to one of the
    pattern: zero inside branch sets, the pattern weight on realizing edges,
    and shortest-path closure values elsewhere.  Edges left unreachable by
    the closure are zeroed one at a time, re-closing after each, which keeps
    the result a valid distance function."""
    if not emb.check(g):
        raise InputError("embedding does not validate against the graph")
    h = emb.pattern
    if len(d_h.weights) != h.m:
        raise InputError("pattern weights do not match the pattern graph")

    assigned: dict[int, object] = {}
    for pv, bs in emb.branch_sets.items():
        sub = g.induced(bs)
        for u, v in sub.edges:
            assigned[g.edge_id(u, v)] = 0  # exact zero, Fraction-compatible
    for pedge, (gu, gv) in emb.edge_realization.items():
        eid = g.edge_id(gu, gv)
        w = d_h.of(h, *pedge)
        prev = assigned.get(eid)
        if prev is not None and prev != w:
            raise InputError("realizing edge doubly assigned with different weights")
        assigned[eid] = w

    def closure_distances():
        _, sp, _ = shortest_path_table(g, [assigned.get(e) for e in range(g.m)])
        return sp

    weakened = []
    while len(assigned) < g.m:
        sp = closure_distances()
        vi = g.vertex_index
        progress = False
        for eid, (u, v) in enumerate(g.edges):
            if eid in assigned:
                continue
            dist = sp[vi[u]][vi[v]]
            if dist is not None:
                assigned[eid] = dist
                progress = True
        if not progress:
            eid = min(e for e in range(g.m) if e not in assigned)
            assigned[eid] = 0
    sp = closure_distances()
    vi = g.vertex_index
    for eid, (u, v) in enumerate(g.edges):
        dist = sp[vi[u]][vi[v]]
        if dist < assigned[eid]:
            weakened.append(g.edges[eid])
            assigned[eid] = dist
    if weakened:
        warnings.warn(
            f"pattern weights exceeded the host closure on {weakened}; "
            "certificate weakened to the closure values",
            WeakenedCertificateWarning,
        )
    from fractions import Fraction

    result = DistanceFunction(tuple(Fraction(assigned[e]) for e in range(g.m)))
    report = validate_distance_function(g, result)
    assert report.valid, "pullback closure must yield a valid distance function"
    return result


def certificate_exceeds_2(g: Graph) -> tuple[DistanceFunction, SearchOutcome]:
    """Concrete weights on g that defeat every 2-dimensional search, built by
    pulling the matching pattern witness back through a found embedding; the
    returned outcome is the exhausted k = 2 search on those weights."""
    classification = classify_dim2(g)
    if classification.verdict != "exceeds_2":
        raise InputError("graph realizes every weight function in 2 dimensions")
    emb = classification.witness
    if emb.pattern.n == 5:
        wg, wd = w4_witness()
    else:
        wg, wd = k4ek4_witness()
    assert emb.pattern == wg, "classifier witness pattern mismatch"
    d = pullback_distance(g, emb, wd)
    outcome = decide_realizable(g, d, 2)
    assert outcome.exhausted, "pulled-back witness must defeat the k=2 search"
    return d, outcome
