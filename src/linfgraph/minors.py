"""Minor detection, the dimension-2 classifier, and witness pullbacks.

A graph needs more than two dimensions for some weights exactly when it has
a minor isomorphic to one of two patterns: the 4-wheel W4, or two 4-cliques
glued along an edge that is then removed (K4eK4).  `classify_dim2` decides
this per block with no search: the block, its degree-2 vertices smoothed
(each smoothing is a split whose triangle side holds no piece), is split
at separation pairs (Tutte's 2-sum decomposition).  It has a
W4 minor iff some piece is 3-connected with at least five vertices: a
3-connected minor of a 2-sum lies inside one of the summands (Tutte), and
every 3-connected graph on at least five vertices has an edge whose
contraction keeps it 3-connected (Thomassen), so contracting down to five
vertices, where the wheel is written down, builds the witness.  Otherwise it
has a K4eK4 minor iff at least two pieces are K4s, and the witness joins two
of them by two disjoint paths.  `contains_minor` answers W4 by the same
pieces and runs the exact branch-set search for every other pattern.  A
positive verdict always carries a re-validated embedding.

`pullback_points` carries a pattern's witness points up to a host graph
with the pattern as a minor.  Each branch set takes its pattern vertex's
witness point, and a breadth-first search from the branch sets extends them
to a partition of each component into connected parts.  Weighting each
host edge by the sum-norm distance of its ends' points gives zero inside
every part, the pattern weight on every realizing edge, and, by the
triangle inequality, a valid distance function.  A 2-dimensional
realization of these weights, under either norm, puts each part, joined by
zero-weight edges, at one point, so it restricts to a realization of the
pattern's witness, which has none.  `certificate_exceeds_2` returns the
weights with the exhausted k = 2 search on them.  That search contracts
every zero-weight edge before it starts (see `realizability`), so it runs
on one class per part: the pattern's vertices, joined wherever their parts
touch, plus one isolated class per component that holds no branch set.
Its nodes count this contracted search, whatever the size of the host.

The verdict holds for the sum norm as well, since two-dimensional max-norm
and sum-norm geometry are exactly isometric (see linf2_to_l1_2).  So the
same two patterns are excluded for f_1, which asks only about weights that
are sum-norm distances of points in some R^m.  A graph classified
`dim_at_most_2` realizes every valid distance function in the max-norm
plane, sum-norm weights are valid, and linf2_to_l1_2 carries the
realization to the sum-norm plane: f_1 <= 2.  An `exceeds_2` certificate
has points in R^3 (W4) or R^4 (K4eK4) whose sum-norm weights exhaust the
k = 2 search: f_1 > 2.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations
from typing import TYPE_CHECKING

from .errors import InputError
from .graph_core import (
    DistanceFunction,
    Graph,
    _Record,
    _set,
    blocks,
    validate_distance_function,
    vertex_key,
)
from .instances import _WITNESS_POINTS, _l1_weights, named_graph

if TYPE_CHECKING:
    from .realizability import SearchOutcome


_W4 = named_graph("W_4")
_K4E = named_graph("K4eK4")


class MinorEmbedding(_Record):
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

    def __init__(self, pattern, branch_sets, edge_realization):
        _set(self, "pattern", pattern)
        _set(self, "branch_sets", branch_sets)
        _set(self, "edge_realization", edge_realization)

    def check(self, g: Graph) -> bool:
        adjacency = g.adjacency
        seen = set()
        for pv in self.pattern.vertices:
            bs = self.branch_sets.get(pv)
            if not bs:
                return False
            members = set(bs)
            if not members <= adjacency.keys() or not seen.isdisjoint(members):
                return False
            seen |= members
            # connected: a stack search of g from one member reaches them all
            start = next(iter(members))
            reached, stack = {start}, [start]
            while stack:
                for y, _ in adjacency[stack.pop()]:
                    if y in members and y not in reached:
                        reached.add(y)
                        stack.append(y)
            if len(reached) != len(members):
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


class Classification(_Record):
    verdict: str  # "dim_at_most_2" | "exceeds_2"
    witness: MinorEmbedding | None

    def __init__(self, verdict, witness=None):
        _set(self, "verdict", verdict)
        _set(self, "witness", witness)


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
    search.  h must be connected.  For h = W4 no search runs: g has a W4
    minor iff some block has a piece on five or more vertices, and the
    witness is built in that piece (the proof is in `classify_dim2`)."""
    if h.n == 0:
        raise InputError("pattern graph is empty")
    if not h.is_connected():
        raise InputError("pattern graph must be connected")
    if h != _W4:
        return _minor_search(g, h)
    for block in blocks(g):
        if block.n < 5:
            continue
        piece = next((p for p in _three_connected_pieces(block) if len(p) >= 5), None)
        if piece is not None:
            emb = _wheel_in_piece(block, piece)
            if not emb.check(g):
                raise RuntimeError("W4 witness failed validation")
            return emb
    return None


# -- separation-pair pieces -------------------------------------------------------
#
# A piece of a 2-connected graph is one side of a split at a separation pair
# {a, b} plus a virtual edge ab when ab is not an edge of the split graph; the
# virtual edge stands for an a-b path through the other side.  A piece maps each
# of its vertices to its neighbor set, over the vertex indices of the split graph,
# which keeps set iteration deterministic whatever the vertex ids.  Each component
# of the split graph minus a 3-connected piece attaches to the two ends of one
# edge of the piece; the components at ab are the side of ab, and a virtual edge
# is routed through its side.  Sides of different edges are disjoint.


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


def _split_side(adj: dict, keep: set, a: int, b: int) -> dict:
    """The side of a piece on the vertices keep, which hold a and b, with
    the edge ab, virtual when ab is not an edge of the split graph."""
    side = {v: adj[v] & keep for v in keep}
    side[a].add(b)
    side[b].add(a)
    return side


def _three_connected_pieces(g: Graph):
    """Yield the 3-connected pieces (at least four vertices) of a
    2-connected graph g.  Each degree-2 vertex w is first replaced by the
    edge between its two neighbors, until the minimum degree is 3 or three
    vertices are left: that is the split at w's neighbors whose triangle
    side holds no piece.  The rest is split at separation pairs until none
    is left."""
    adj0 = _index_adjacency(g)
    stack = [w for w in adj0 if len(adj0[w]) == 2]
    while stack and len(adj0) > 3:
        w = stack.pop()
        if w not in adj0 or len(adj0[w]) != 2:
            continue
        u, v = adj0.pop(w)
        adj0[u].discard(w)
        adj0[v].discard(w)
        adj0[u].add(v)
        adj0[v].add(u)
        stack += [x for x in (u, v) if len(adj0[x]) == 2]
    work = [adj0]
    while work:
        adj = work.pop()
        if len(adj) < 4:
            continue
        pair = None
        for a in adj:
            b = _cut_vertex(adj, {a})
            if b is not None:
                pair = a, b
                break
        if pair is None:
            yield adj
            continue
        a, b = pair
        start = next(v for v in adj if v != a and v != b)
        comp, stack = {start}, [start]
        while stack:
            for y in adj[stack.pop()]:
                if y not in comp and y != a and y != b:
                    comp.add(y)
                    stack.append(y)
        work.append(_split_side(adj, set(adj) - comp, a, b))
        work.append(_split_side(adj, comp | {a, b}, a, b))


def _sides(gadj: dict, piece: dict) -> dict:
    """The components of the split graph gadj minus the piece's vertices,
    merged by the pair (a, b), a < b, of piece vertices they attach to."""
    sides, seen = {}, set(piece)
    for s in gadj:
        if s in seen:
            continue
        comp, stack, ends = {s}, [s], set()
        seen.add(s)
        while stack:
            for y in gadj[stack.pop()]:
                if y in piece:
                    ends.add(y)
                elif y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        sides.setdefault(tuple(sorted(ends)), set()).update(comp)
    return sides


def _path_through(gadj: dict, a: int, b: int, sides: dict) -> list:
    """Interior of an a-b path for the piece edge ab: empty when ab is an
    edge of the split graph gadj, else through the side of ab."""
    if b in gadj[a]:
        return []
    inside = sides.get((min(a, b), max(a, b)))
    if inside is None:
        raise RuntimeError("a virtual edge has no side to route through")
    prev, stack = {a: None}, [a]
    while b not in prev:
        if not stack:
            raise RuntimeError("a virtual edge has no path through its side")
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


def _two_disjoint_paths(gadj: dict, starts: tuple, ends: set) -> list:
    """Two vertex-disjoint paths, one from each of the two starts to one of
    the two ends, as vertex lists (a start that is an end is a one-vertex
    path).  They are found as two augmenting paths of a unit flow in which
    vertex v is entered at node 2v and left at node 2v + 1, so that each
    vertex carries at most one path (Menger)."""
    source, sink = -1, -2

    def forward(node):
        if node == source:
            return [2 * v for v in starts]
        v, out = divmod(node, 2)
        if not out:
            return [node + 1]
        nxt = [2 * y for y in gadj[v]]
        return nxt + [sink] if v in ends else nxt

    flow = set()
    for _ in range(2):
        back = {n: p for p, n in flow if n != sink}
        prev, queue = {source: None}, deque([source])
        while sink not in prev:
            if not queue:
                raise RuntimeError("no two disjoint paths join the separation pairs")
            node = queue.popleft()
            steps = [m for m in forward(node) if (node, m) not in flow]
            if node in back:
                steps.append(back[node])
            for m in steps:
                if m not in prev:
                    prev[m] = node
                    queue.append(m)
        node = sink
        while node != source:
            p = prev[node]
            if (node, p) in flow:
                flow.discard((node, p))
            else:
                flow.add((p, node))
            node = p
    succ = {p: n for p, n in flow if p != source}
    paths = []
    for v in starts:
        node, path = 2 * v, []
        while node != sink:
            if node % 2 == 0:
                path.append(node // 2)
            node = succ[node]
        paths.append(path)
    return paths


def _wheel_in_piece(g: Graph, piece: dict) -> MinorEmbedding:
    """A W4 embedding in g from its 3-connected piece on at least five
    vertices.  Contract edges of the piece while it stays 3-connected (one
    always does: Thomassen, JCTB 1980) down to five vertices, write the
    wheel down there, then expand the contracted classes into branch sets
    and route each used virtual edge through its side.

    At five vertices every degree is at least 3 and five degrees of 3
    would sum to an odd number, so some vertex has degree 4: the hub.  The
    other four induce a 2-connected graph, which has a Hamiltonian 4-cycle:
    the rim.  The first hub in index order is taken, then the first rim
    listed from the first of the other vertices."""
    adj = {v: set(ns) for v, ns in piece.items()}
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
    five = sorted(adj)
    hub = next((v for v in five if len(adj[v]) == 4), None)
    first, *rest = (v for v in five if v != hub)
    rim = next(((first, *order) for order in permutations(rest)
                if all(b in adj[a] for a, b in zip((first, *order), (*order, first)))), None)
    if hub is None or rim is None:
        raise RuntimeError("a 3-connected graph on five vertices has no W4")
    *rim_pvs, hub_pv = _W4.vertices  # W_4: rim 1..4 in cycle order, hub 5
    at = dict(zip((hub_pv, *rim_pvs), (hub, *rim)))

    gadj = _index_adjacency(g)
    sides = _sides(gadj, piece)
    owner = {}
    bsets = {}
    for pv, rep in at.items():
        bsets[pv] = set(classes[rep])
        for x in classes[rep]:
            owner[x] = pv
    for a in piece:
        for b in piece[a]:
            if a < b and owner[a] == owner[b]:
                bsets[owner[a]].update(_path_through(gadj, a, b, sides))
    real = {}
    for pedge in _W4.edges:
        x, y = at[pedge[0]], at[pedge[1]]
        a, b = next((a, b) for a in classes[x] for b in classes[y] if b in piece[a])
        path = _path_through(gadj, a, b, sides)
        bsets[pedge[0]].update(path)
        real[pedge] = (g.vertices[path[-1] if path else a], g.vertices[b])
    return MinorEmbedding(
        _W4,
        {pv: frozenset(g.vertices[x] for x in s) for pv, s in bsets.items()},
        real,
    )


def _glued_cliques(g: Graph, p: dict, q: dict) -> MinorEmbedding:
    """A K4eK4 embedding in g from two of its K4 pieces p and q (the proof
    is in `classify_dim2`).  ab is the edge of p whose side holds the
    vertices of q not in p, and xy the edge of q whose side holds those of
    p not in q; two disjoint paths join a, b to x, y.  The path from a is
    the branch set of 0 and the one from b that of 1; the other two
    vertices of p are 2 and 3, those of q are 4 and 5.  The edges of p
    other than ab and of q other than xy realize the pattern's, each
    virtual one routed through its side."""
    gadj = _index_adjacency(g)
    sides_p, sides_q = _sides(gadj, p), _sides(gadj, q)
    a, b = next(e for e, s in sides_p.items() if not s.isdisjoint(q))
    x, y = next(e for e, s in sides_q.items() if not s.isdisjoint(p))
    from_a, from_b = _two_disjoint_paths(gadj, (a, b), {x, y})
    c, d = sorted(set(p) - {a, b})
    z, w = sorted(set(q) - {x, y})
    # K4eK4: the cliques 0123 and 0145 without the edge 01
    chains = {0: from_a, 1: from_b, 2: [c], 3: [d], 4: [z], 5: [w]}
    bsets = {pv: set(chain) for pv, chain in chains.items()}
    real = {}
    for pu, pv in _K4E.edges:
        if pv <= 3:  # an edge of p, between the first vertices of the chains
            u, v, sides = chains[pu][0], chains[pv][0], sides_p
        else:  # an edge of q, between their last vertices
            u, v, sides = chains[pu][-1], chains[pv][-1], sides_q
        path = _path_through(gadj, u, v, sides)
        bsets[pu].update(path)
        real[(pu, pv)] = (g.vertices[path[-1] if path else u], g.vertices[v])
    return MinorEmbedding(
        _K4E,
        {pv: frozenset(g.vertices[x] for x in s) for pv, s in bsets.items()},
        real,
    )


def classify_dim2(g: Graph) -> Classification:
    """Excluded-minor test for two-dimensional realizability of all weights
    (max norm and, equivalently, sum norm), with no branch-set search.

    Each block on five or more vertices is 2-connected.  Its degree-2
    vertices are smoothed: a vertex w with neighbors u and v is replaced by
    the edge uv, until the minimum degree is 3 or three vertices are left.
    Smoothing w is the split at {u, v} whose triangle side u, w, v holds no
    piece.  It also keeps every minor of minimum degree 3, as W4 and K4eK4
    are: no branch set of such a minor is {w} alone, so a model either
    misses w or contracts w into a neighbor in its branch set.  The
    smoothed block is split at separation pairs (Tutte, Connectivity in
    Graphs, 1966).  The pieces with at least four vertices and no
    separation pair are the block's 3-connected components; those on four
    vertices are K4s.  Every piece is a minor of the block, each virtual
    edge, smoothed ones included, contracted from a path through its side.

    W4.  The block has a W4 minor iff some piece has at least five
    vertices.  W4 is 3-connected, and a 3-connected minor of a 2-sum lies
    inside one summand.  Conversely a 3-connected graph on at least five
    vertices contracts, keeping 3-connectivity (Thomassen's contractible
    edge), to five vertices, where `_wheel_in_piece` writes the wheel down.

    K4eK4.  When every piece has at most four vertices, the block has a
    K4eK4 minor iff at least two pieces are K4s.
    If: let P and Q be K4 pieces.  Let ab be the edge of P whose side holds
    the vertices of Q not in P, and xy the edge of Q whose side holds those
    of P not in Q; P and Q share no vertex but a, b, x and y.  Call the
    vertices in both the side of ab with a, b and the side of xy with x, y
    the part between.  No vertex v separates {a, b} from {x, y} in that
    part: the block minus v is connected, and a path in it from a vertex of
    P other than a, b, v to a vertex of Q other than x, y, v last leaves
    {a, b} and then first meets {x, y} inside the part.  So by Menger two
    disjoint paths join a and b to x and y, and any two such paths lie in
    the part, since each meets a, b, x and y only at its ends.  Contract
    them.  With the other five edges of P and of Q, virtual ones
    contracted through their sides, this is a K4 on a, b, c, d and a K4 on
    a, b, z, w without the edge ab: K4eK4.  The sides used belong to
    distinct edges of P or of Q, and lie outside the part between, so they
    are disjoint from each other and from the paths.
    Only if: the smoothed block has the block's K4eK4 minors and its
    pieces.  Those pieces, with the cycles and bonds the splits also
    leave, form a tree, two of them adjacent when they share a virtual
    edge.  A leaf has one virtual edge.  A cycle leaf would give its other
    vertices degree 2 in the smoothed block and a bond leaf would be
    parallel edges, so every leaf is 3-connected, here a K4.  A tree of two
    nodes or more has two leaves, so with fewer than two K4 pieces the
    smoothed block is one node: a K4 or a triangle, neither with the six
    vertices of degree 3 that K4eK4 needs.  (A smoothed block on five or
    more vertices is never one such node, so there the rule always finds
    two K4s.)

    Every witness is re-checked on g."""
    for block in blocks(g):
        if block.n < 5:
            continue
        emb, cliques = None, []
        for piece in _three_connected_pieces(block):
            if len(piece) >= 5:
                emb = _wheel_in_piece(block, piece)
                break
            cliques.append(piece)
        if emb is None and len(cliques) >= 2:
            emb = _glued_cliques(block, cliques[0], cliques[1])
        if emb is None:
            continue
        if not emb.check(g):
            raise RuntimeError("classifier witness failed validation")
        return Classification("exceeds_2", emb)
    return Classification("dim_at_most_2")


# -- minor-monotone witness transport --------------------------------------------


def pullback_points(g: Graph, emb: MinorEmbedding) -> dict:
    """One sum-norm point per vertex of g, pulled back from the witness
    points of emb's pattern, W4 or K4eK4.  Each branch set takes its
    pattern vertex's point, a breadth-first search from all branch sets at
    once gives every other vertex the point of the set that reaches it
    first, and a component with no branch set takes the first pattern
    vertex's point.  The module docstring shows why the sum-norm distances
    of these points defeat every 2-dimensional realization."""
    if not emb.check(g):
        raise InputError("embedding does not validate against the graph")
    if emb.pattern not in (_W4, _K4E):
        raise InputError("pattern is neither W4 nor K4eK4")
    at = _WITNESS_POINTS["W_4" if emb.pattern == _W4 else "K4eK4"]
    points, queue = {}, deque()
    for pv in emb.pattern.vertices:
        for x in sorted(emb.branch_sets[pv], key=vertex_key):
            points[x] = at[pv]
            queue.append(x)
    while queue:
        x = queue.popleft()
        for y, _ in g.adjacency[x]:
            if y not in points:
                points[y] = points[x]
                queue.append(y)
    first = at[emb.pattern.vertices[0]]
    return {v: points.get(v, first) for v in g.vertices}


def certificate_exceeds_2(g: Graph) -> tuple[DistanceFunction, SearchOutcome]:
    """Concrete weights on g that defeat every 2-dimensional search: the
    sum-norm distances of the witness points pulled back through the
    classifier's embedding.  The returned outcome is the exhausted k = 2
    search on those weights."""
    classification = classify_dim2(g)
    if classification.verdict != "exceeds_2":
        raise InputError("graph realizes every weight function in 2 dimensions")
    d, outcome, _ = _certificate_from_witness(g, classification.witness)
    return d, outcome


def _certificate_from_witness(g: Graph, emb: MinorEmbedding) -> tuple[DistanceFunction, SearchOutcome, dict]:
    """The witness points pulled back through the classifier's embedding
    emb, their sum-norm weights and the exhausted k = 2 search on them.
    The weights are re-validated and the points re-verified against them.
    The weights are zero inside every part, so the search contracts each
    part to one class before it starts, and its nodes count that search
    on the pattern's vertices (see the module docstring)."""
    from .realizability import decide_realizable, verify_realization

    points = pullback_points(g, emb)
    d = _l1_weights(g, points)
    if not validate_distance_function(g, d).valid:
        raise RuntimeError("pulled-back weights must be a valid distance function")
    if not verify_realization(g, d, points, norm=1).ok:
        raise RuntimeError("pulled-back points must realize their weights in the sum norm")
    outcome = decide_realizable(g, d, 2)
    if not outcome.exhausted:
        raise RuntimeError("pulled-back witness must defeat the k=2 search")
    return d, outcome, points
