"""Minor detection, the dimension-2 classifier, and witness pullbacks.

A graph needs more than two dimensions for some weights exactly when it has
a minor isomorphic to one of two patterns: the 4-wheel W4, or two 4-cliques
glued along an edge that is then removed (K4eK4).  `classify_dim2` decides
this per block, after suppressing degree-2 vertices.  The W4 half is
structural: the block is split at separation pairs, and it has a W4 minor
iff some piece is 3-connected with at least five vertices.  That rests on
two facts: a 3-connected minor of a 2-sum lies inside one of the summands
(Tutte), and every 3-connected graph on at least five vertices has an edge
whose contraction keeps it 3-connected (Thomassen), so contracting down to
five vertices, where W4 is spanning, builds the witness.  K4eK4 is still
found by the exact branch-set search, which `contains_minor` also uses.  A
positive verdict always carries a re-validated embedding.
`pullback_distance` transports weights from a minor pattern up to the host
graph (zero inside branch sets, shortest-path closure elsewhere), so
non-realizability witnesses transfer along minors, and
`certificate_exceeds_2` packages that into a concrete weight function on
which the k = 2 search provably exhausts.

The classifier verdict applies to the sum norm as well: two-dimensional
max-norm and sum-norm geometry are exactly isometric (see linf2_to_l1_2),
so the same two patterns are excluded in both settings.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

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


_W4 = named_graph("W_4")
_K4E = named_graph("K4eK4")


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

    def touching(su: set, sv: set):
        """The first host edge from su into sv, or None."""
        for a in su:
            for b, _ in g.adjacency[a]:
                if b in sv:
                    return a, b
        return None

    def realize(bsets: dict, used: set, ei: int):
        while ei < len(pedges):
            pu, pv = pedges[ei]
            if touching(bsets[pu], bsets[pv]) is None:
                break
            ei += 1
        else:
            real = {(pu, pv): touching(bsets[pu], bsets[pv]) for pu, pv in h.edges}
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
    if not emb.check(g):
        raise RuntimeError("minor search produced an invalid embedding")
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


# -- separation-pair pieces (the W4 half of the classifier) ----------------------
#
# A piece of a 2-connected graph is one side of a split at a separation pair
# {a, b} plus a virtual edge ab, which stands for an a-b path through the other
# side.  A piece is a pair (adj, hanging): neighbor sets over the vertex indices
# of the split graph, which keep set iteration deterministic whatever the vertex
# ids, and a map from each virtual edge (a, b), a < b, to its hanging side, the
# vertices the splits cut away behind it.  Hanging sides of different virtual
# edges of one piece are disjoint from each other and from the piece, and each
# holds the interior of an a-b path of the split graph.


def _cut_vertex(adj: dict, gone: set):
    """Some cut vertex of the graph adj minus the vertices in gone, or None
    when there is none.  That graph must be connected."""
    root = next(v for v in adj if v not in gone)
    index = {root: 0}
    low = {root: 0}
    root_children = 0
    stack = [(root, None, iter(adj[root]))]
    while stack:
        x, parent, it = stack[-1]
        for y in it:
            if y in gone or y == parent:
                continue
            if y in index:
                if index[y] < low[x]:
                    low[x] = index[y]
                continue
            index[y] = low[y] = len(index)
            stack.append((y, x, iter(adj[y])))
            break
        else:
            stack.pop()
            if parent == root:
                root_children += 1
                if root_children > 1:
                    return root
            elif parent is not None:
                if low[x] >= index[parent]:
                    return parent
                if low[x] < low[parent]:
                    low[parent] = low[x]
    return None


def _index_adjacency(g: Graph) -> dict:
    """Neighbor sets of g over vertex indices."""
    vi = g.vertex_index
    adj = {i: set() for i in range(g.n)}
    for u, v in g.edges:
        adj[vi[u]].add(vi[v])
        adj[vi[v]].add(vi[u])
    return adj


def _split_side(piece: tuple, keep: set, a: int, b: int, real_ab: bool) -> tuple:
    """The side of a piece on the vertices keep, which hold a and b, plus the
    virtual edge ab when ab is not an edge of the split graph."""
    padj, phanging = piece
    adj = {v: padj[v] & keep for v in keep}
    ab = (min(a, b), max(a, b))
    hanging = {e: h for e, h in phanging.items()
               if e != ab and e[0] in keep and e[1] in keep}
    if not real_ab:
        adj[a].add(b)
        adj[b].add(a)
        behind = set(padj).union(*phanging.values())
        behind -= keep.union(*hanging.values())
        hanging[ab] = frozenset(behind)
    return adj, hanging


def _three_connected_pieces(g: Graph):
    """Yield the 3-connected pieces (at least four vertices) of a
    2-connected graph g, split at separation pairs until none is left."""
    adj0 = _index_adjacency(g)
    work = [(adj0, {})]
    while work:
        piece = work.pop()
        adj = piece[0]
        if len(adj) < 4:
            continue
        pair = None
        for a in adj:
            b = _cut_vertex(adj, {a})
            if b is not None:
                pair = a, b
                break
        if pair is None:
            yield piece
            continue
        a, b = pair
        start = next(v for v in adj if v != a and v != b)
        comp, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp and y != a and y != b:
                    comp.add(y)
                    stack.append(y)
        real_ab = b in adj0[a]
        work.append(_split_side(piece, set(adj) - comp, a, b, real_ab))
        work.append(_split_side(piece, comp | {a, b}, a, b, real_ab))


def _wheel_in_piece(g: Graph, piece: tuple) -> MinorEmbedding:
    """A W4 embedding in g from its 3-connected piece on at least five
    vertices.  Contract edges of the piece while it stays 3-connected (one
    always does: Thomassen, JCTB 1980) down to five vertices, where W4 is
    spanning; then expand the contracted classes into branch sets and route
    each used virtual edge through its hanging side."""
    padj, hanging = piece
    adj = {v: set(ns) for v, ns in padj.items()}
    classes = {v: [v] for v in adj}
    while len(adj) > 5:
        # adj/uv is 3-connected iff adj minus {u, v} has no cut vertex
        edge = next(((u, v) for u in adj for v in adj[u]
                     if u < v and _cut_vertex(adj, {u, v}) is None), None)
        if edge is None:
            raise RuntimeError("a 3-connected piece had no contractible edge")
        u, v = edge
        for x in adj.pop(v):
            adj[x].discard(v)
            if x != u:
                adj[x].add(u)
                adj[u].add(x)
        classes[u] += classes.pop(v)
    five = Graph.build(adj, [(u, v) for u in adj for v in adj[u] if u < v])
    emb5 = _minor_search(five, _W4)
    if emb5 is None:
        raise RuntimeError("a 3-connected graph on five vertices has no W4")

    gadj = _index_adjacency(g)

    def through(a: int, b: int) -> list:
        """Interior of an a-b path inside the hanging side of virtual ab."""
        inside = hanging[(min(a, b), max(a, b))]
        prev, stack = {a: None}, [a]
        while b not in prev:
            if not stack:
                raise RuntimeError("a virtual edge has no path through its hanging side")
            x = stack.pop()
            for y in gadj[x]:
                if y not in prev and (y in inside or y == b):
                    prev[y] = x
                    stack.append(y)
        path = []
        x = prev[b]
        while x != a:
            path.append(x)
            x = prev[x]
        return path[::-1]

    owner = {}
    bsets = {}
    for pv, (rep,) in emb5.branch_sets.items():
        bsets[pv] = set(classes[rep])
        for x in classes[rep]:
            owner[x] = pv
    for a, b in hanging:
        if a in owner and owner.get(b) == owner[a]:
            bsets[owner[a]].update(through(a, b))
    real = {}
    for pedge, (x, y) in emb5.edge_realization.items():
        a, b = next((a, b) for a in classes[x] for b in classes[y] if b in padj[a])
        if (min(a, b), max(a, b)) in hanging:
            path = through(a, b)
            bsets[pedge[0]].update(path)
            a = path[-1]
        real[pedge] = (g.vertices[a], g.vertices[b])
    return MinorEmbedding(
        _W4,
        {pv: frozenset(g.vertices[x] for x in s) for pv, s in bsets.items()},
        real,
    )


def classify_dim2(g: Graph) -> Classification:
    """Excluded-minor test for two-dimensional realizability of all weights
    (max norm and, equivalently, sum norm).

    Each block is reduced by `suppress_degree_2` and split at separation
    pairs.  The block has a W4 minor iff some piece is 3-connected with at
    least five vertices: every piece is a minor of the block, a 3-connected
    minor of a 2-sum lies inside one summand (Tutte), and a 3-connected graph
    on at least five vertices contracts, keeping 3-connectivity (Thomassen's
    contractible edge), to a five-vertex graph that contains W4.  The witness
    comes from that contraction.  Blocks with no such piece are searched for
    K4eK4 by the exact branch-set search.  Every witness is re-checked on the
    reduced block and on g."""
    for block in blocks(g):
        if block.n < 5 or block.is_forest():
            continue
        reduced, log = suppress_degree_2(block)
        if reduced.n < 5 or reduced.is_forest():
            continue
        emb = None
        for piece in _three_connected_pieces(reduced):
            if len(piece[0]) >= 5:
                emb = _wheel_in_piece(reduced, piece)
                break
        if emb is None and reduced.n >= 6:
            emb = _minor_search(reduced, _K4E)
        if emb is None:
            continue
        if not emb.check(reduced):
            raise RuntimeError("classifier witness failed validation on the reduced block")
        lifted = _lift_through_suppression(emb, log)
        if not lifted.check(g):
            raise RuntimeError("lifted witness failed validation")
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
    the result a valid distance function.  The closure runs over integers,
    the pattern weights times `d_h.scale`; the result is converted back to
    Fractions and re-validated from them."""
    if not emb.check(g):
        raise InputError("embedding does not validate against the graph")
    h = emb.pattern
    if len(d_h.weights) != h.m:
        raise InputError("pattern weights do not match the pattern graph")

    assigned: dict[int, int] = {}
    for pv, bs in emb.branch_sets.items():
        sub = g.induced(bs)
        for u, v in sub.edges:
            assigned[g.edge_id(u, v)] = 0
    for pedge, (gu, gv) in emb.edge_realization.items():
        eid = g.edge_id(gu, gv)
        w = d_h.integers[h.edge_id(*pedge)]
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
    result = DistanceFunction(tuple(Fraction(assigned[e], d_h.scale) for e in range(g.m)))
    report = validate_distance_function(g, result)
    if not report.valid:
        raise RuntimeError("pullback closure must yield a valid distance function")
    return result


def certificate_exceeds_2(g: Graph) -> tuple[DistanceFunction, SearchOutcome]:
    """Concrete weights on g that defeat every 2-dimensional search, built by
    pulling the matching pattern witness back through a found embedding; the
    returned outcome is the exhausted k = 2 search on those weights."""
    classification = classify_dim2(g)
    if classification.verdict != "exceeds_2":
        raise InputError("graph realizes every weight function in 2 dimensions")
    return _certificate_from_witness(g, classification.witness)


def _certificate_from_witness(g: Graph, emb: MinorEmbedding) -> tuple[DistanceFunction, SearchOutcome]:
    """Pull the pattern's witness weights back through the classifier's
    embedding emb and exhaust the k = 2 search on them."""
    wg, wd = w4_witness() if emb.pattern.n == 5 else k4ek4_witness()
    if emb.pattern != wg:
        raise RuntimeError("classifier witness pattern mismatch")
    d = pullback_distance(g, emb, wd)
    outcome = decide_realizable(g, d, 2)
    if not outcome.exhausted:
        raise RuntimeError("pulled-back witness must defeat the k=2 search")
    return d, outcome
