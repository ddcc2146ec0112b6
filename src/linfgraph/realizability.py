"""Deciding realizability in k-dimensional max-norm space.

A weighted graph induces a bidirected arc system: each edge uv contributes
arcs (u, v) and (v, u), both of length d_uv.  Forcing an arc (u, v) negates
its length; a potential p (p(v) - p(u) <= length(u, v) on every arc) then
pins p(u) - p(v) = d_uv exactly on each forced arc, i.e. forced arcs point
from the higher potential to the lower.  A set of edges is *feasible* when
some orientation of it can be forced while a potential still exists, which
happens exactly when no directed cycle of negative total length appears.
One check, `_part_certified`, decides whether a given potential certifies
a given orientation, exactly over a common denominator that it takes from
the potential's Fractions and the weights, independently of the search;
`Cover.check` runs it on every part.

A weighted graph embeds in dimension k exactly when its edge set is the
union of k feasible sets; each feasible set contributes one coordinate via
the certifying potential.  `decide_realizable` runs a complete backtracking
search over per-edge (part, direction) assignments with eight sound
reductions: zero-weight edges are contracted before the search, parts are
first used in increasing order, the first edge of each part has a fixed
direction (global reversal symmetry), a precomputed table of arc pairs
whose joint forcing closes a negative walk rejects assignments before the
full check runs, once all k parts are open every remaining edge must still
fit some part without such a conflict (the lookahead), unit propagation,
orphan seeding once k - 1 parts are open, and, for generic weights, the
forest rule.

Zero-weight contraction.  The ends of every zero-weight edge are merged,
and the search runs on the classes this leaves, with one edge per pair of
classes that positive edges join; its nodes count this contracted search.
Two checks on the original weights come first: no positive edge lies
inside a class, and the edges between one pair of classes share one
weight.  Each failure is a violation of validity, reported as InputError
naming the lowest-id edge of g longer than a path, as on any invalid
input: a positive edge inside a class is longer than the zero-weight path
joining its ends, and of two edges between one pair of classes with
different weights, the heavier is longer than the lighter one joined to
its ends by zero-weight paths.  With both checks passed, the quotient's
own shortest-path check is exactly the original one.  Let c map each
vertex to its class.  A path of g maps to a walk of the quotient of the
same length (its zero-weight edges vanish, and each other edge weighs
what its class pair's edge does), and a path of the quotient
lifts to a path of g of the same length (consecutive edges are joined
inside their class by zero-weight paths).  So dist_g(u, v) =
dist_q(c(u), c(v)) for all u, v: a zero-weight edge meets the condition
d_uv = dist_g(u, v) trivially, and a positive edge uv meets it exactly
when the quotient edge c(u)c(v) meets the quotient's.
The covers correspond as well.  A zero-weight edge uv allows |p(u) - p(v)|
<= 0, so every potential of (g, d) is constant on each class, and every
zero-weight edge is tight, either way, in every part.  Two edges between
classes A and B forced into one part point the same way, since p(A) -
p(B) = w = p(B) - p(A) needs w = 0.  So a cover of (g, d) gives one of
the quotient, each quotient edge taking the part and direction of any of
its edges, with the class potentials; and a cover of the quotient lifts
back: each positive edge takes its class pair's part and direction, each
zero-weight edge the first part, and each vertex its class's potential.
The lifted cover is re-verified on (g, d) like any other.

Each node branches on the edge left with the fewest (open part, arc)
options that no conflict blocks: first an edge no open part can take,
then one with one option, two, three or more, ties broken by decreasing
weight, then edge id.  This is fail-first branching, as in Brelaz's
DSATUR colouring (CACM 1979) and the search order of Haralick and Elliott
(Artificial Intelligence 1980): an edge with few options either fails
early or fixes much of what follows.

Each part carries the bitmask of the arcs it blocks (the OR of the conflict
table over its arcs), so the conflict check is one bit test and the
lookahead is k big-integer operations against the node's mask of the
edges left.  Feasibility of every attempted part is established over
integers obtained by clearing denominators: adding an arc t->h relaxes
only from h, label-correcting in FIFO order, starting from the parent part's
potential, and rejects the part as soon as t's label would drop, since any
negative cycle runs through the new arc.  Results are memoized per arc set.

Unit propagation, the unit rule of Davis, Logemann and Loveland (CACM
1962).  Once all k parts are open, no new part can take an edge, so in
any completion every remaining edge takes one arc in one part, and that
(part, arc) is one the part does not block.  An edge with a single such
option, a unit, must therefore take it, and forcing every unit into its
part loses no completion.  A forced arc blocks more in its part, which
can leave new units, so the rounds repeat to a fixpoint.  The node is
pruned if two units of one part conflict, if an edge is left with no
option at all, or if the memoized relaxation finds a part infeasible with
its forced arcs.  The options are counted for all edges at once with a
saturating ones/twos pair of bitmasks.  A child that survives keeps the
grown parts, and its edges left no longer include the units: each unit
takes its one option in every completion of the child, so the search
never branches on it.

Orphan seeding, the same rule one part earlier.  Once k - 1 parts are
open, a remaining edge whose arcs every open part blocks, an orphan, can
only go to the last part.  Reversing every arc of one part keeps it
feasible (negate its potential), and reverses every arc pair in the
conflict table alike, so if the node has a completion it has one whose
last part takes arc 2e of the lowest orphan e.  That completion also
completes the node with its last part seeded by 2e alone and e placed, so
unit propagation on the seeded node prunes only nodes with no completion.
The child is the seeded node, units and all: the branching rule would take
an orphan next anyway, and only the last part can hold it.

The forest rule.  With generic weights (no cycle splits into two halves of
equal weight) every feasible part is a forest: a cycle inside one part
would make the signed sum of its weights, taken along its forced
directions, equal the potential's change around the cycle, which is zero.
Part i's final edge set therefore lies in F_i, the edges it holds, plus
E_i, the edges still to come whose arcs it does not both block, and has at
most rank(F_i + E_i) edges, where rank is the graphic-matroid rank (n minus
the number of components); an unused part can hold any remaining edge.  A
cover needs sum_i rank(F_i + E_i) >= the number of edges to cover, and a
child that falls short is pruned (the forest-cover counting of
Nash-Williams, J. LMS 1964, and Edmonds, J. Res. NBS 1965).  A rank is
a union-find pass over an edge mask, memoized per mask, so the parts carry
nothing for the rule and a rank met before costs one lookup.  The rule
applies only when the weights are proven generic by the O(m) 2-adic test
`_distinct_valuations`; otherwise it stays off, and the search runs no
cycle enumeration.

A cover's potentials are the ones the search relaxed, divided by the scale
factor; the cover is then re-verified before it is returned, exactly over a
common denominator taken from its own Fractions and the weights, not from
the search's integers, so a positive answer is always certified.

Nothing the search context holds depends on k: the relaxation and rank
caches are keyed by arc sets and edge masks.  `min_dimension` therefore
scans k = 1, 2, ... on one context, and each k reuses what the smaller
ones relaxed.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from typing import Callable, Iterable

from .errors import CapExceeded, InputError
from .graph_core import (
    DistanceFunction,
    Graph,
    VertexId,
    _Record,
    _clear,
    _distinct_valuations,
    _printable,
    _set,
    blocks,
    shortest_path_table,
    vertex_key,
)

VERTEX_COVER_CAP = 32
# the prune rules of `_children`, in the order they are tried
_RULES = ("conflict", "infeasible", "lookahead", "unit", "forest")
# nodes between two calls of a search's progress callback
_PROGRESS_EVERY = 250_000


class Orientation(_Record):
    """A choice of direction for a set of edges; at most one arc per edge."""

    arcs: tuple[tuple[VertexId, VertexId], ...]

    def __init__(self, arcs):
        _set(self, "arcs", arcs)

    @classmethod
    def of(cls, arcs: Iterable[tuple[VertexId, VertexId]]) -> "Orientation":
        seen = set()
        out = []
        for u, v in arcs:
            key = frozenset((u, v))
            if key in seen:
                raise InputError(f"two arcs over the same edge {u!r}-{v!r}")
            seen.add(key)
            out.append((u, v))
        out.sort(key=lambda a: (vertex_key(a[0]), vertex_key(a[1])))
        return cls(tuple(out))

    def __len__(self) -> int:
        return len(self.arcs)


class Potential(_Record):
    """Vertex labels satisfying p(v) - p(u) <= length(u, v) on every arc."""

    values: dict

    def __init__(self, values):
        _set(self, "values", values)

    def __getitem__(self, v: VertexId) -> Fraction:
        return self.values[v]


def _part_certified(g: Graph, d: DistanceFunction, orientation: Orientation, potential: Potential,
                    weights) -> bool:
    """Whether potential certifies orientation on (g, d): every vertex has a
    label, no edge's gap exceeds its weight in either direction, and every
    forced arc is tight.  This is the potential condition on the forced arc
    system: a forced arc of length -w and its reverse of length w pin the
    gap to exactly w.

    The labels and weights are compared as integers over one common
    denominator that `_clear` takes from them, the same predicate exactly,
    and nothing of the search is read.  `weights` is `_clear(d.weights)`,
    so that a caller checking many parts clears the weights once."""
    values = potential.values
    vs = g.vertices
    if any(v not in values for v in vs):
        return False
    base, w = weights
    scale, labels = _clear([values[v] for v in vs], base)
    if scale != base:
        w = [x * (scale // base) for x in w]
    label = dict(zip(vs, labels))
    for (u, v), x in zip(g.edges, w):
        if abs(label[u] - label[v]) > x:
            return False
    # edge_id first: an arc that is no edge of g raises InputError
    return all(w[g.edge_id(u, v)] == label[u] - label[v] for u, v in orientation.arcs)


class Cover(_Record):
    """k orientations whose edge sets jointly cover E, each certified by a
    potential that makes exactly its forced arcs tight."""

    parts: tuple[Orientation, ...]
    potentials: tuple[Potential, ...]

    def __init__(self, parts, potentials):
        _set(self, "parts", parts)
        _set(self, "potentials", potentials)

    @property
    def k(self) -> int:
        return len(self.parts)

    def check(self, g: Graph, d: DistanceFunction) -> bool:
        if len(self.parts) != len(self.potentials):
            return False
        weights = _clear(d.weights)
        if not all(_part_certified(g, d, o, p, weights) for o, p in zip(self.parts, self.potentials)):
            return False
        covered = {g.edge_id(u, v) for o in self.parts for u, v in o.arcs}
        return covered == set(range(g.m))


class Realization(_Record):
    """Exact coordinates, one per vertex, in k-dimensional space."""

    points: dict
    k: int

    def __init__(self, points, k):
        _set(self, "points", points)
        _set(self, "k", k)


class SearchOutcome(_Record):
    """Either a certified Cover or a proof of exhaustion with node counts.

    Every child the search tries is one node, and is either pruned by the
    first rule that rejects it or expanded: `prunes` maps each rule
    ('conflict', 'infeasible', 'lookahead', 'unit', 'forest') to the
    children it rejected, so nodes == sum(prunes.values()) + expanded.
    The nodes are those of the contracted search, which runs on the
    classes that zero-weight edges join (see the module docstring); with
    no zero weight, that is the search on g itself."""

    cover: Cover | None
    nodes: int
    prunes: dict
    expanded: int

    def __init__(self, cover, nodes, prunes, expanded):
        _set(self, "cover", cover)
        _set(self, "nodes", nodes)
        _set(self, "prunes", prunes)
        _set(self, "expanded", expanded)

    @property
    def exhausted(self) -> bool:
        return self.cover is None


class VerifyResult(_Record):
    ok: bool
    edge: tuple | None
    detail: str | None

    def __init__(self, ok, edge=None, detail=None):
        _set(self, "ok", ok)
        _set(self, "edge", edge)
        _set(self, "detail", detail)


class FinfBounds(_Record):
    lower: int
    upper: int
    witness: DistanceFunction | None

    def __init__(self, lower, upper, witness):
        _set(self, "lower", lower)
        _set(self, "upper", upper)
        _set(self, "witness", witness)


# -- internal search engine ---------------------------------------------------

_UNSEEN = object()  # cache miss marker; None caches an infeasible arc set


class _Ctx:
    """Scaled integer view of the search problems of one (g, d), for every
    k: nothing it holds depends on the number of parts, so one context
    serves a whole k-scan.  Every edge is to be covered, and the branching
    rule breaks its ties by decreasing weight, then edge id: the order of
    `bits`.

    The search runs on the quotient of g by its zero-weight edges
    (`_contract`): `n`, `m`, `w` and the arcs are the quotient's, `cls`
    maps each vertex index of g to its class, and `lift` maps each edge of
    g to the quotient arc along it, or to None at weight zero.  With no
    zero weight, class i is vertex i and quotient edge e is edge e, along
    arc 2e: the search is the one on g.

    Arc 2e runs along quotient edge e as stored, arc 2e + 1 against it.
    A part is a triple (mask, dist, blocked): the bitmask of its forced
    arcs, its potential as integers over `scale` (the greatest solution
    <= 0 of its difference constraints), and the OR of `conflict` over its
    arcs, i.e. every arc that cannot join it.  A search node is (used,
    parts, rest): the open parts in order of first use and the mask of arc
    2e of every edge e still to place.

    The caches are independent of k as well.  `cache` maps an arc set to
    the greatest solution <= 0 of its constraints (or None when it has
    none), which depends on the mask alone, and `ranks`, for the forest
    rule, maps an edge mask (arc 2e for edge e) to its graphic-matroid
    rank.

    On zero-weight inputs the forest rule gates on the quotient's weights
    (`_distinct_valuations` of `w`); the original weights, with a zero
    among them, never pass that test.  This is sound because the quotient
    is a valid instance in its own right, whose covers are exactly the
    ones the search seeks (the module docstring proves both): generic
    quotient weights make each of its feasible parts a forest."""

    def __init__(self, g: Graph, d: DistanceFunction):
        if len(d.weights) != g.m:
            raise InputError("weight count does not match the graph")
        self.g = g
        self.scale = d.scale
        vi = g.vertex_index
        ends = [(vi[u], vi[v]) for u, v in g.edges]
        quotient, ends, self.w, self.cls, self.lift = _contract(g, ends, d.integers)
        n, m = quotient.n, quotient.m
        self.n = n
        self.m = m
        self.tail = [0] * (2 * m)
        self.head = [0] * (2 * m)
        for eid, (i, j) in enumerate(ends):
            self.tail[2 * eid], self.head[2 * eid] = i, j
            self.tail[2 * eid + 1], self.head[2 * eid + 1] = j, i
        # per-vertex out-arcs (aid, head, weight) for the relaxation
        self.out = [[] for _ in range(n)]
        for aid in range(2 * m):
            self.out[self.tail[aid]].append((aid, self.head[aid], self.w[aid >> 1]))
        _, self.sp, _ = shortest_path_table(quotient, self.w)
        for eid in range(m):
            if self.sp[self.tail[2 * eid]][self.head[2 * eid]] != self.w[eid]:
                _invalid(g, d.integers)
        self.conflict = self._conflicts()
        order = sorted(range(m), key=lambda e: (-self.w[e], e))
        # arc 2e of each edge e, in order: the root's rest
        self.bits = [1 << 2 * e for e in order]
        self.full = sum(self.bits)
        self.empty = (0, (0,) * n, 0)
        self.cache: dict = {}
        self.progress: Callable | None = None
        self.generic = _distinct_valuations(self.w)
        if self.generic:
            self.ranks: dict = {}
            # (arc-2e bit, tail, head) of each edge e, in order
            self.forward = [(1 << 2 * e, self.tail[2 * e], self.head[2 * e]) for e in order]

    def _conflicts(self):
        # arcs a=(ta,ha), b=(tb,hb) in one part close the walk
        # ta->ha ~> tb->hb ~> ta; it is negative iff sp(ha,tb)+sp(hb,ta) < wa+wb.
        # sp is symmetric, so reversing both arcs walks the same closed walk
        # backwards: (a, b) conflicts exactly when (a^1, b^1) does, and each
        # edge pair e < f takes two tests, (2e, 2f) and (2e, 2f+1).
        sp, w, tail, head = self.sp, self.w, self.tail, self.head
        masks = [0] * (2 * self.m)
        for e in range(self.m):
            su, sv = sp[tail[2 * e]], sp[head[2 * e]]  # arc 2e is u->v
            we = w[e]
            for f in range(e + 1, self.m):
                x, y = tail[2 * f], head[2 * f]  # arc 2f is x->y
                if sv[x] is None:  # e and f lie in different components
                    continue
                limit = we + w[f]
                if sv[x] + su[y] < limit:  # 2e with 2f, so 2e+1 with 2f+1
                    masks[2 * e] |= 1 << 2 * f
                    masks[2 * f] |= 1 << 2 * e
                    masks[2 * e + 1] |= 2 << 2 * f
                    masks[2 * f + 1] |= 2 << 2 * e
                if sv[y] + su[x] < limit:  # 2e with 2f+1, so 2e+1 with 2f
                    masks[2 * e] |= 2 << 2 * f
                    masks[2 * f + 1] |= 1 << 2 * e
                    masks[2 * e + 1] |= 1 << 2 * f
                    masks[2 * f] |= 2 << 2 * e
        return masks

    def bf(self, mask: int, dist0, new_aid: int):
        """The greatest fixpoint <= dist0 of the constraints of `mask`, which
        adds the forced arc new_aid = t->h to a mask dist0 is feasible for;
        None on a negative cycle.

        FIFO label correction from h.  Every negative cycle runs through the
        new arc, and one exists exactly when dist[t] would drop, so the
        search stops there; otherwise dist[t] stays put and the pass ends."""
        t, h = self.tail[new_aid], self.head[new_aid]
        dh = dist0[t] - self.w[new_aid >> 1]
        if dist0[h] <= dh:
            return dist0
        dist = list(dist0)
        dist[h] = dh
        out = self.out
        queued = [False] * self.n
        queued[h] = True
        queue = deque((h,))
        while queue:
            u = queue.popleft()
            queued[u] = False
            du = dist[u]
            for aid, v, w in out[u]:
                cand = du - w if (mask >> aid) & 1 else du + w
                if cand < dist[v]:
                    if v == t:
                        return None
                    dist[v] = cand
                    if not queued[v]:
                        queued[v] = True
                        queue.append(v)
        return tuple(dist)

    def try_add(self, part, aid: int):
        """The part with arc aid forced, or None when that is infeasible;
        relaxation results are memoized per arc set."""
        mask0, dist0, blocked0 = part
        new_mask = mask0 | (1 << aid)
        dist = self.cache.get(new_mask, _UNSEEN)
        if dist is _UNSEEN:
            dist = self.cache[new_mask] = self.bf(new_mask, dist0, aid)
        if dist is None:
            return None
        return new_mask, dist, blocked0 | self.conflict[aid]

    def rank(self, edges: int) -> int:
        """The graphic-matroid rank of an edge mask (arc 2e for edge e):
        n minus the number of components of the spanning subgraph it
        forms; memoized per mask.  The count stops at n - 1, a spanning
        tree, since no further edge can raise it."""
        r = self.ranks.get(edges)
        if r is None:
            root = list(range(self.n))
            r, full = 0, self.n - 1
            for bit, u, v in self.forward:
                if r == full:
                    break
                if edges & bit:
                    r += _union(root, u, v)
            self.ranks[edges] = r
        return r


def _union(root: list, u: int, v: int) -> int:
    """Merge the union-find classes of u and v; 1 if they were apart."""
    while root[u] != u:
        root[u] = u = root[root[u]]
    while root[v] != v:
        root[v] = v = root[root[v]]
    if u == v:
        return 0
    root[u] = v
    return 1


def _invalid(g: Graph, w):
    """Raise InputError naming the lowest-id edge of g that the integer
    weights w make longer than a path between its ends.  It is called
    only on weights that fail validity, so such an edge exists."""
    vi = g.vertex_index
    _, sp, _ = shortest_path_table(g, w)
    u, v = next((u, v) for (u, v), x in zip(g.edges, w) if sp[vi[u]][vi[v]] != x)
    raise InputError(
        f"weights are not a valid distance function: edge ({u!r}, {v!r}) "
        "is longer than a path between its endpoints"
    )


def _contract(g: Graph, ends: list, w):
    """The quotient of g by its zero-weight edges, whose ends are the
    vertex index pairs `ends` and whose integer weights are w:
    (quotient, ends, weights, cls, lift).  The quotient is an index graph
    on the classes, numbered by their first vertex, with one edge per pair
    of classes that positive edges join, numbered by its first original
    edge; it is built directly, with its edges in that order and not
    sorted, for `shortest_path_table`, which reads only its vertex indices
    and edge ends.  cls maps each vertex index to its class, and lift each
    original edge to the quotient arc that runs along it, or to None at
    weight zero.  Raises InputError through `_invalid` when a positive
    edge lies inside a class or two edges between one pair of classes
    differ in weight."""
    root = list(range(g.n))
    for (i, j), x in zip(ends, w):
        if not x:
            _union(root, i, j)
    cls, ids = [], {}
    for r in root:
        while root[r] != r:
            r = root[r]
        cls.append(ids.setdefault(r, len(ids)))
    pairs, qends, qw, lift = {}, [], [], []
    for (i, j), x in zip(ends, w):
        a, b = cls[i], cls[j]
        if not x:
            lift.append(None)
            continue
        if a == b:  # a zero-weight path joins its ends
            _invalid(g, w)
        q = pairs.setdefault((a, b) if a < b else (b, a), len(qends))
        if q == len(qends):
            qends.append((a, b))
            qw.append(x)
        elif qw[q] != x:  # the lighter edge and zero-weight paths are shorter
            _invalid(g, w)
        lift.append(2 * q if qends[q][0] == a else 2 * q + 1)
    quotient = Graph(tuple(range(len(ids))), tuple(qends))
    return quotient, qends, tuple(qw), cls, lift


def _propagate(ctx: _Ctx, rest: int, parts):
    """Unit propagation at a node whose k parts are all open and whose
    edges left are rest: (slot, parts, rest), where slot is the counter
    slot of the rule that prunes the node, 3 (lookahead) or 4 (unit), or 0
    when it survives, with the parts grown by every unit and the rest
    without them.

    Every edge of rest must take an arc that its part does not block.  The
    first round prunes the node when some edge has no such (part, arc):
    the lookahead.  An edge with exactly one, a unit, must take it, and its
    arc blocks more in its part (`try_add` ORs in the same conflict mask),
    which can leave an edge with one option or none, so the rounds repeat
    to a fixpoint.  The node is pruned as a unit if two units of one part
    conflict, if a later round finds an edge with no option, or if
    `try_add` finds a part infeasible with the arcs forced into it.
    Relaxing once at the fixpoint prunes exactly when relaxing arc by arc
    would, since a superset of an infeasible arc set is infeasible, and
    spares the relaxation wherever the conflict table already prunes."""
    blocked = [part[2] for part in parts]
    forced = [0] * len(parts)  # the arcs forced into each part
    slot = 3
    while True:
        # ones: edges with at least one option; twos: with at least two
        ones = twos = 0
        for b in blocked:
            free = rest & ~b
            twos |= ones & free
            ones |= free
            free = rest & ~(b >> 1)
            twos |= ones & free
            ones |= free
        if rest & ~ones:
            return slot, None, None
        units = ones & ~twos
        if not units:
            break
        rest ^= units
        slot = 4
        for i, b in enumerate(blocked):
            arcs = (units & ~b) | (units & ~(b >> 1)) << 1
            if arcs:
                forced[i] |= arcs
                while arcs:
                    low = arcs & -arcs
                    arcs ^= low
                    b |= ctx.conflict[low.bit_length() - 1]
                # two of the part's units conflict (the table is symmetric)
                if forced[i] & b:
                    return 4, None, None
                blocked[i] = b
    if slot == 3:
        return 0, parts, rest
    grown = list(parts)
    for i, arcs in enumerate(forced):
        part = parts[i]
        while arcs:
            low = arcs & -arcs
            arcs ^= low
            part = ctx.try_add(part, low.bit_length() - 1)
            if part is None:
                return 4, None, None
        grown[i] = part
    return 0, grown, rest


def _pick(ctx: _Ctx, parts, rest: int) -> int:
    """The edge a node branches on, fail first: the edge of rest with the
    fewest (open part, arc) options that its part does not block, counted
    to three with saturating bitmasks.  An edge with none, which only a new
    part can take, comes first, then one, two, three or more; ties go to
    the first edge in ctx.bits."""
    ones = twos = threes = 0
    for part in parts:
        b = part[2]
        free = rest & ~b
        threes |= twos & free
        twos |= ones & free
        ones |= free
        free = rest & ~(b >> 1)
        threes |= twos & free
        twos |= ones & free
        ones |= free
    cand = rest & ~ones or ones & ~twos or twos & ~threes or rest
    for bit in ctx.bits:
        if cand & bit:
            return bit.bit_length() >> 1


def _short(ctx: _Ctx, k: int, used: int, parts, rest: int) -> bool:
    """The forest rule at a node (used, parts, rest) of a k-part search:
    whether the ranks of what its parts can hold, its own edges and the
    edges of rest whose arcs it does not both block, plus k - used unused
    parts holding rank(rest) each, add up to fewer than the edges to
    cover."""
    total = (k - used) * ctx.rank(rest) if used < k else 0
    for mask, _, b in parts:
        total += ctx.rank((mask | mask >> 1 | rest & ~(b & b >> 1)) & ctx.full)
    return total < ctx.m


def _children(ctx: _Ctx, k: int, node, counter: list):
    """Yield every child node of node = (used, parts, rest) in a k-part
    search that survives the conflict check, the feasibility check, unit
    propagation (the lookahead is its first round) and the forest rule.
    The node branches on the edge `_pick` chooses, into each open part
    either way and into the next part, unopened, along the edge.

    Propagation runs once all k parts are open, and a child that survives
    it keeps its units: every completion of the child places each unit
    its one way, so the child's parts hold them and its rest drops them.
    A child with k - 1 parts open and an orphan left, an edge that every
    open part blocks both ways, opens its last part at once with arc 2e of
    the lowest orphan e, and propagation runs on all k parts.  counter
    holds [nodes, one count per rule of _RULES, expanded]: each child tried
    is one node, and counts once more, under the first rule that rejects
    it or as expanded."""
    used, parts, rest = node
    eid = _pick(ctx, parts, rest)
    after = rest ^ 1 << 2 * eid
    for label in range(min(used + 1, k)):
        fresh = label == used
        part = ctx.empty if fresh else parts[label]
        blocked0 = part[2]
        for dr in (0,) if fresh else (0, 1):
            aid = 2 * eid + dr
            counter[0] += 1
            if ctx.progress and counter[0] % _PROGRESS_EVERY == 0:
                ctx.progress(counter[0])
            if (blocked0 >> aid) & 1:
                counter[1] += 1
                continue
            added = ctx.try_add(part, aid)
            if added is None:
                counter[2] += 1
                continue
            new_parts = list(parts)
            if fresh:
                new_parts.append(added)
            else:
                new_parts[label] = added
            new_used, new_rest = used + fresh, after
            if new_used == k - 1:
                # orphans: edges left whose arcs every open part blocks
                orphans = after
                for p in new_parts:
                    orphans &= p[2] & p[2] >> 1
                if orphans:
                    low = orphans & -orphans
                    new_parts.append(ctx.try_add(ctx.empty, low.bit_length() - 1))
                    new_used, new_rest = k, after ^ low
            slot = 0
            if new_used == k:
                slot, new_parts, new_rest = _propagate(ctx, new_rest, new_parts)
            if slot:
                counter[slot] += 1
                continue
            if ctx.generic and _short(ctx, k, new_used, new_parts, new_rest):
                counter[5] += 1
                continue
            counter[6] += 1
            yield new_used, new_parts, new_rest


def _dfs(ctx: _Ctx, k: int, node, counter: list):
    """The parts of a k-part cover below node, or None when the subtree is
    exhausted."""
    if not node[2]:
        return node[1]
    for child in _children(ctx, k, node, counter):
        parts = _dfs(ctx, k, child, counter)
        if parts is not None:
            return parts
    return None


def _root(ctx: _Ctx):
    return 0, [], ctx.full


def _certified_parts(ctx: _Ctx, k: int, parts):
    """The k orientations the open parts of a cover describe, each paired
    with the potential the search relaxed for it, as exact rationals, lifted
    from the classes to g: each positive edge takes its class pair's part
    and direction, each zero-weight edge goes to the first part as stored,
    and each vertex takes its class's potential.  The parts left unopened
    share one empty orientation and one zero potential.  The callers
    re-verify these exactly."""
    g = ctx.g
    orientations, potentials = [], []
    for mask, dist, _ in parts:
        arcs = []
        for (u, v), aid in zip(g.edges, ctx.lift):
            if aid is None:
                continue
            if (mask >> aid) & 1:
                arcs.append((u, v))
            elif (mask >> (aid ^ 1)) & 1:
                arcs.append((v, u))
        orientations.append(Orientation.of(arcs))
        potentials.append(Potential(
            {v: Fraction(dist[c], ctx.scale) for v, c in zip(g.vertices, ctx.cls)}
        ))
    unopened = k - len(parts)
    orientations += [Orientation(())] * unopened
    potentials += [Potential(dict.fromkeys(g.vertices, Fraction(0)))] * unopened
    zero = [e for e, aid in zip(g.edges, ctx.lift) if aid is None]
    if zero:
        orientations[0] = Orientation.of(orientations[0].arcs + tuple(zero))
    return tuple(orientations), tuple(potentials)


def _assignment_to_cover(ctx: _Ctx, d: DistanceFunction, k: int, parts) -> Cover:
    cover = Cover(*_certified_parts(ctx, k, parts))
    if not cover.check(ctx.g, d):
        raise RuntimeError("assembled cover failed re-verification")
    return cover


def decide_realizable(
    g: Graph,
    d: DistanceFunction,
    k: int,
    *,
    progress: Callable | None = None,
) -> SearchOutcome:
    """Complete search for a k-part cover of (g, d); exact and
    deterministic.  Returns a certified Cover or an exhaustion outcome.
    `progress`, if given, is called with the node count every
    _PROGRESS_EVERY nodes."""
    if k <= 0:
        raise InputError(f"dimension must be positive, got {k}")
    ctx = _Ctx(g, d)
    ctx.progress = progress
    return _search(ctx, d, k)


def _search(ctx: _Ctx, d: DistanceFunction, k: int) -> SearchOutcome:
    """The k-part cover search on ctx, its cover re-verified."""
    counter = [0] * 7
    parts = _dfs(ctx, k, _root(ctx), counter)
    cover = None if parts is None else _assignment_to_cover(ctx, d, k, parts)
    return SearchOutcome(cover, counter[0], dict(zip(_RULES, counter[1:6])), counter[6])


# -- realizations -------------------------------------------------------------


def build_realization(g: Graph, d: DistanceFunction, cover: Cover) -> Realization:
    """Coordinates from a certified cover: coordinate i of a vertex is its
    value under part i's potential."""
    if not cover.check(g, d):
        raise InputError("cover does not certify (g, d)")
    points = {
        v: tuple(p.values[v] for p in cover.potentials) for v in g.vertices
    }
    realization = Realization(points, cover.k)
    if not verify_realization(g, d, realization, norm="inf").ok:
        raise RuntimeError("realization from a certified cover failed verification")
    return realization


_MISMATCH = {
    "inf": "max-norm distance {} != weight {}",
    1: "sum-norm distance {} != weight {}",
    2: "squared distance {} != squared weight {}",
}


def verify_realization(g: Graph, d: DistanceFunction, points, norm="inf") -> VerifyResult:
    """Exact check that every edge's endpoint distance equals its weight
    under the requested norm (1, 2, or 'inf'; 2 compares squares).  Accepts
    a Realization or a plain vertex-to-vector mapping.

    The coordinates and weights are compared as integers over one common
    denominator that `_clear` takes from them; a mismatch is reported as
    the rationals they stand for."""
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
    vs = g.vertices
    base, w = _clear(d.weights)
    scale, flat = _clear([x for v in vs for x in points[v]], base)
    if scale != base:
        w = [x * (scale // base) for x in w]
    cleared = {v: flat[i * k:(i + 1) * k] for i, v in enumerate(vs)}
    for eid, (u, v) in enumerate(g.edges):
        gaps = [abs(a - b) for a, b in zip(cleared[u], cleared[v])]
        if norm == "inf":
            got, want = max(gaps, default=0), w[eid]
        elif norm == 1:
            got, want = sum(gaps), w[eid]
        else:
            got, want = sum(x * x for x in gaps), w[eid] ** 2
        if got != want:
            q = d.weights[eid]
            if norm == 2:
                got, q = Fraction(got, scale * scale), q * q
            else:
                got = Fraction(got, scale)
            detail = _MISMATCH[norm].format(_printable(got), _printable(q))
            return VerifyResult(False, (u, v), detail)
    return VerifyResult(True)


# -- combinatorial bounds ------------------------------------------------------


def vertex_cover_number(g: Graph) -> int:
    """Exact minimum vertex cover size by branch and bound."""
    if g.n > VERTEX_COVER_CAP:
        raise CapExceeded(f"{g.n} vertices exceeds the cap {VERTEX_COVER_CAP}")
    edges = [frozenset(e) for e in g.edges]
    best = [len(g.vertices)]

    def matching_bound(es) -> int:
        used, size = set(), 0
        for e in es:
            if not (e & used):
                used |= e
                size += 1
        return size

    def rec(es, size):
        if size + matching_bound(es) >= best[0]:
            return
        if not es:
            best[0] = size
            return
        deg: dict = {}
        for e in es:
            for x in e:
                deg[x] = deg.get(x, 0) + 1
        x = max(deg, key=lambda v: (deg[v], str(v)))
        # either x is in the cover, or every neighbor of x is
        rec([e for e in es if x not in e], size + 1)
        nbrs = {next(iter(e - {x})) for e in es if x in e}
        rec([e for e in es if not (e & nbrs)], size + len(nbrs))

    rec(edges, 0)
    return best[0]


def _block_density(g: Graph) -> int:
    """max over blocks B of ceil(m_B / (n_B - 1)): a lower bound on the
    arboricity, since a forest on n_B vertices has at most n_B - 1 edges."""
    return max((-(-b.m // (b.n - 1)) for b in blocks(g)), default=0)


def min_dimension(g: Graph, d: DistanceFunction) -> int:
    """Least k admitting a realization: the cover search for k = 1, 2, ...
    on one search context, until a k has a cover.  Every k below the answer
    is an exhausted search, and the answer's cover is re-verified exactly,
    independently of the search.  The small k cost little: with weights
    whose 2-adic valuations are distinct (`_distinct_valuations`), the
    forest rule prunes every k with k * rank(g) < m at the root, and
    otherwise the conflict table and the lookahead exhaust them quickly.
    The scan ends by the vertex cover number at the latest, where the stars
    around a minimum vertex cover realize any weights.  The weights must be
    a valid distance function; InputError otherwise."""
    ctx = _Ctx(g, d)
    k = 1
    while _search(ctx, d, k).cover is None:
        k += 1
    return k


def finf_bounds(g: Graph, samples: int = 5, seed: int = 0) -> FinfBounds:
    """Bounds on the largest min_dimension over all valid weight functions.

    Upper bound: a vertex cover, since the stars around it realize any
    weights; the least one (`vertex_cover_number`) up to VERTEX_COVER_CAP
    vertices, the endpoints of a greedy maximal matching above.  Lower
    bound: the block density, the largest ceil(m_B / (n_B - 1)) over the
    blocks B of g, which is at most the arboricity, improved by the best
    min_dimension seen over `samples` seeded random weight functions; the
    maximizing weights are returned as witness.  The random samples are
    generic, so their min_dimension is at least the arboricity, and with
    samples >= 1 so is the lower bound.
    """
    from .instances import random_distance_function

    if samples < 0:
        raise InputError(f"samples must be at least 0, got {samples}")
    if g.m == 0:
        return FinfBounds(0, 0, None)
    if g.n <= VERTEX_COVER_CAP:
        upper = vertex_cover_number(g)
    else:
        matched: set = set()
        for u, v in g.edges:
            if u not in matched and v not in matched:
                matched |= {u, v}
        upper = len(matched)
    lower = _block_density(g)
    witness = None
    for i in range(samples):
        cand = random_distance_function(g, seed * 1_000_003 + i)
        k = min_dimension(g, cand)
        if k > lower:
            lower = k
            witness = cand
    if lower > upper:
        raise RuntimeError(f"lower bound {lower} exceeds upper bound {upper}")
    return FinfBounds(lower, upper, witness)
