"""Simple graphs with exact rational edge weights, plus structural preprocessing.

Vertex ids are ints or strings.  Edge weights are `fractions.Fraction` at
every boundary; floats are rejected on input so every comparison made by
the decision procedures is exact.  Inside, shortest paths, the
genericity search and the generic blend run on integers: a
`DistanceFunction` clears its denominators once (`scale`, `integers`),
which preserves every sum and comparison exactly, and values leave the
package as Fractions again.  Every shortest path is found by one
routine, `_distances`, a Floyd-Warshall over vertex indices that returns
the distances alone: validation and the metric closure (`_closure`) run
it on a graph, and the realizability search on its contracted quotient.
Certificates are re-checked exactly over a common denominator that each
check takes from the certificate's own Fractions and the weights, with
`_clear`, the one clearing routine, independently of the search.  A weight
function is *valid* when each edge is a shortest path between its
endpoints, and *generic* when no cycle can be split into two edge sets of
equal total weight.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import InputError

VertexId = int | str


def vertex_key(v: VertexId):
    """Sort key giving a total order over mixed int/str vertex ids."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise InputError(f"vertex id must be an int or a str, got {v!r}")
    return (0, v, "") if isinstance(v, int) else (1, 0, v)


def edge_key(e: tuple):
    """Sort key for canonical (u, v) edge tuples under mixed vertex ids."""
    return (vertex_key(e[0]), vertex_key(e[1]))


def to_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or 'num/den' string to Fraction; floats are rejected."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"not a rational value: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse rational {x!r}: {exc}") from None
    raise InputError(f"weights must be exact rationals, got {type(x).__name__} {x!r}")


def format_fraction(q: Fraction) -> str:
    """Canonical 'num/den' form used in JSON files.  A value with more
    digits than the interpreter converts to a string (its int-to-str limit)
    raises InputError, so a file is never written with it."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise InputError(
            f"rational too long to write: {q.numerator.bit_length()}-bit numerator, "
            f"{q.denominator.bit_length()}-bit denominator"
        ) from None


def _printable(q) -> str:
    """str(q) for a message, or a short note when q has more digits than
    the interpreter converts to a string (its int-to-str limit)."""
    try:
        return str(q)
    except ValueError:
        return (f"<rational too long to print: {q.numerator.bit_length()}-bit numerator, "
                f"{q.denominator.bit_length()}-bit denominator>")


def _clear(values, scale: int = 1) -> tuple[int, tuple[int, ...]]:
    """Exact rationals (ints or Fractions) over one common denominator:
    (scale, integers), where the new scale is the lcm of the given one and
    the values' denominators and each integer is its value times it.  Sums,
    differences and comparisons of the integers are those of the values,
    multiplied by the scale, so exact checks can run on them."""
    ratios = [x.as_integer_ratio() for x in values]
    scale = math.lcm(scale, *[q for _, q in ratios])
    return scale, tuple([p * (scale // q) for p, q in ratios])


_set = object.__setattr__  # how a record's __init__ stores its fields


class _Record:
    """Base of the package's immutable records.

    A subclass lists its fields as annotations in its class body, which
    make its `_fields` tuple, and stores each one in its own `__init__`
    with `_set`.  Records of the same class are equal when their fields
    are, hash by their fields, print as `Name(field=value, ...)` and
    refuse assignment and deletion.  These methods are written once here,
    not generated per class at import, because every CLI process compiles
    and sets up the package afresh.  No `__slots__`, so that a record can
    hold `cached_property` values."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # its own, not its bases'
        # the field values, as a tuple for two or more fields
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Immutable simple graph with stable, contiguous edge ids.

    `edges` is sorted lexicographically by endpoint keys; an edge's position
    in that tuple is its id.  Build instances through `Graph.build`.  A
    subgraph whose vertices and edges are taken in a canonical graph's own
    order is canonical already, and is built directly with `Graph(...)`
    (as `blocks` does).
    """

    vertices: tuple[VertexId, ...]
    edges: tuple[tuple[VertexId, VertexId], ...]

    def __init__(self, vertices, edges):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    @classmethod
    def build(cls, vertices: Iterable[VertexId], edges: Iterable[tuple[VertexId, VertexId]]) -> "Graph":
        vs = sorted(set(vertices), key=vertex_key)
        vset = set(vs)
        seen: set[tuple] = set()
        norm: list[tuple[VertexId, VertexId]] = []
        for u, v in edges:
            if u not in vset or v not in vset:
                raise InputError(f"edge ({u!r}, {v!r}) references an unknown vertex")
            if u == v:
                raise InputError(f"loop at vertex {u!r} is not allowed")
            a, b = sorted((u, v), key=vertex_key)
            if (a, b) in seen:
                raise InputError(f"duplicate edge ({a!r}, {b!r})")
            seen.add((a, b))
            norm.append((a, b))
        norm.sort(key=edge_key)
        return cls(tuple(vs), tuple(norm))

    # -- basic accessors ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def vertex_index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def edge_index(self) -> dict:
        idx = {}
        for i, (u, v) in enumerate(self.edges):
            idx[(u, v)] = i
            idx[(v, u)] = i
        return idx

    @cached_property
    def adjacency(self) -> dict:
        adj: dict = {v: [] for v in self.vertices}
        for i, (u, v) in enumerate(self.edges):
            adj[u].append((v, i))
            adj[v].append((u, i))
        return {v: tuple(nbrs) for v, nbrs in adj.items()}

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return (u, v) in self.edge_index

    def edge_id(self, u: VertexId, v: VertexId) -> int:
        try:
            return self.edge_index[(u, v)]
        except KeyError:
            raise InputError(f"no edge ({u!r}, {v!r})") from None

    def degree(self, v: VertexId) -> int:
        return len(self.adjacency[v])

    # -- connectivity ------------------------------------------------------

    def components(self) -> list[frozenset]:
        seen: set = set()
        comps = []
        for s in self.vertices:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                x = stack.pop()
                for y, _ in self.adjacency[x]:
                    if y not in comp:
                        comp.add(y)
                        stack.append(y)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1


class DistanceFunction(_Record):
    """Edge weights for a fixed graph, indexed by edge id.  Nonnegative, exact.

    `scale` (the lcm of the denominators) and `integers` (each weight times
    `scale`) are the cached clearing of denominators by `_clear`: shortest
    paths, validation and the genericity search run on `integers`, and a
    value that leaves the package is divided by `scale` back into a
    Fraction.  Certificate checks read neither: each clears `weights`
    together with the certificate's own Fractions, so a certificate is
    re-checked exactly and independently of the search."""

    weights: tuple[Fraction, ...]

    def __init__(self, weights):
        _set(self, "weights", weights)

    @cached_property
    def _cleared(self) -> tuple[int, tuple[int, ...]]:
        return _clear(self.weights)

    @property
    def scale(self) -> int:
        return self._cleared[0]

    @property
    def integers(self) -> tuple[int, ...]:
        return self._cleared[1]

    @classmethod
    def from_map(cls, g: Graph, mapping: Mapping) -> "DistanceFunction":
        weights = []
        for u, v in g.edges:
            if (u, v) in mapping:
                q = to_fraction(mapping[(u, v)])
            elif (v, u) in mapping:
                q = to_fraction(mapping[(v, u)])
            else:
                raise InputError(f"no weight given for edge ({u!r}, {v!r})")
            if q < 0:
                raise InputError(f"negative weight {q} on edge ({u!r}, {v!r})")
            weights.append(q)
        if len(mapping) != g.m:
            raise InputError(f"{len(mapping)} weights given for {g.m} edges")
        return cls(tuple(weights))

    @classmethod
    def from_values(cls, values: Iterable) -> "DistanceFunction":
        ws = tuple(to_fraction(x) for x in values)
        if any(w < 0 for w in ws):
            raise InputError("negative weight")
        return cls(ws)

    def __getitem__(self, eid: int) -> Fraction:
        return self.weights[eid]

    def __len__(self) -> int:
        return len(self.weights)


# -- validation (each edge must be a shortest path) -------------------------


class Violation(_Record):
    """A strictly shorter path witnessing that an edge weight is too large."""

    edge: tuple[VertexId, VertexId]
    path: tuple[VertexId, ...]
    length: Fraction

    def __init__(self, edge, path, length):
        _set(self, "edge", edge)
        _set(self, "path", path)
        _set(self, "length", length)


class ValidationReport(_Record):
    valid: bool
    violations: tuple[Violation, ...]

    def __init__(self, valid, violations):
        _set(self, "valid", valid)
        _set(self, "violations", violations)


def _distances(n: int, ends, w) -> list[list]:
    """Exact all-pairs shortest distances (Floyd-Warshall) on vertex
    indices 0..n-1, where edge e joins ends[e] with nonnegative weight
    w[e].  The package passes integers (a DistanceFunction's `integers`),
    several times faster than Fractions.  dist[i][j] is None when j is
    unreachable from i; the diagonal is the int 0."""
    dist = [[None] * n for _ in range(n)]
    for i in range(n):
        dist[i][i] = 0
    for (i, j), x in zip(ends, w):
        if dist[i][j] is None or x < dist[i][j]:
            dist[i][j] = dist[j][i] = x
    for k in range(n):
        # with nonnegative weights, pass k does not change row k, so it is read once
        row = [(j, dkj) for j, dkj in enumerate(dist[k]) if dkj is not None]
        for di in dist:
            dik = di[k]
            if dik is None:
                continue
            for j, dkj in row:
                alt = dik + dkj
                dij = di[j]
                if dij is None or alt < dij:
                    di[j] = alt
    return dist


def _tight_path(g: Graph, w, row, u: VertexId, v: VertexId) -> tuple[VertexId, ...]:
    """A shortest u-v path under weights w, given u's distances `row` by
    vertex index: a breadth-first search from u along tight arcs x->y,
    those with row[x] + w(xy) == row[y].  Each arc of a shortest path from
    u is tight, so the search reaches v, and any path of tight arcs from u
    is a shortest one."""
    vi = g.vertex_index
    parent = {u: u}
    queue = [u]
    for x in queue:  # the loop also visits what it appends
        if x == v:
            break
        dx = row[vi[x]]
        for y, eid in g.adjacency[x]:
            if y not in parent and dx + w[eid] == row[vi[y]]:
                parent[y] = x
                queue.append(y)
    path = [v]
    while path[-1] != u:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def validate_distance_function(g: Graph, d: DistanceFunction) -> ValidationReport:
    """Check that every edge weight equals the shortest-path distance between
    its endpoints.  Violations carry an explicit shorter witness path."""
    if len(d.weights) != g.m:
        raise InputError("weight count does not match the graph")
    w = d.integers
    vi = g.vertex_index
    ends = [(vi[u], vi[v]) for u, v in g.edges]
    dist = _distances(g.n, ends, w)
    violations = []
    for (u, v), (i, j), x in zip(g.edges, ends, w):
        if dist[i][j] < x:
            path = _tight_path(g, w, dist[i], u, v)
            violations.append(Violation((u, v), path, Fraction(dist[i][j], d.scale)))
    return ValidationReport(not violations, tuple(violations))


# -- genericity --------------------------------------------------------------


class GenericityReport(_Record):
    """Outcome of `is_generic`, read through `status`: 'generic',
    'not_generic' (with the offending cycle and the edge subset whose total
    is exactly half the cycle weight), or 'budget_exceeded'.
    `pairs_checked` counts the half-sums charged by the cycle search, 0
    when the 2-adic proof answers.  A report has no truth value of its
    own: 'budget_exceeded' is neither answer.
    """

    status: str
    pairs_checked: int
    cycle: tuple[int, ...] | None
    subset: frozenset | None

    def __init__(self, status, pairs_checked, cycle=None, subset=None):
        _set(self, "status", status)
        _set(self, "pairs_checked", pairs_checked)
        _set(self, "cycle", cycle)
        _set(self, "subset", subset)


def _simple_cycles(g: Graph) -> Iterator[tuple[int, ...]]:
    """Yield each simple cycle once, as edge ids, keyed by its smallest edge id.

    For each base edge uv, a depth-first search lists the simple paths from
    v back to u over edges with larger ids.  Its stack holds the steps still
    to take, each (vertex, edge into it, depth); the path's edges and
    vertices, and the set of those vertices, are cut back to a step's depth
    and extended in place, never copied."""
    adjacency = g.adjacency
    for base, (u, v) in enumerate(g.edges):
        path, verts, used = [], [], set()
        stack = [(v, base, 0)]
        while stack:
            x, e, depth = stack.pop()
            if len(verts) > depth:
                used.difference_update(verts[depth:])
                del verts[depth:]
                del path[depth:]
            path.append(e)
            verts.append(x)
            used.add(x)
            depth += 1
            for y, eid in adjacency[x]:
                if eid > base:
                    if y == u:
                        yield (*path, eid)
                    elif y not in used:
                        stack.append((y, eid, depth))


def _signed_sums(ws, first: int, stop: int, start: dict) -> dict:
    """Extend `start` ({signed sum: bitmask of the positions signed +}) by
    every sign choice for positions first..stop-1 of `ws`, keeping one mask
    per distinct sum."""
    sums = start
    for pos in range(first, stop):
        w, bit = ws[pos], 1 << pos
        nxt = {}
        for s, mask in sums.items():
            nxt.setdefault(s + w, mask | bit)
            nxt.setdefault(s - w, mask)
        sums = nxt
    return sums


def _distinct_valuations(w) -> bool:
    """Whether the integer weights w (denominators cleared) are nonzero
    with pairwise distinct 2-adic valuations, an O(m) certificate that
    they are generic.  Then every nonempty signed sum of them is nonzero:
    its term of least valuation v is not divisible by 2**(v + 1) while
    every other term is, so the sum is not either.  In particular no cycle
    splits into two halves of equal weight."""
    lowest = {x & -x for x in w}  # 2**valuation, 0 for a zero weight
    return 0 not in lowest and len(lowest) == len(w)


def is_generic(g: Graph, d: DistanceFunction, budget: int = 10**6) -> GenericityReport:
    """Search every cycle for an equal-weight split of its edges.

    Weights whose 2-adic valuations are pairwise distinct are generic by
    an O(m) proof (`_distinct_valuations`), tried first: they are reported
    'generic' with `pairs_checked` 0, whatever the budget.

    Otherwise the cycles are searched.  A cycle with weights w_0..w_{L-1}
    splits evenly exactly when some signed sum of its weights is zero.
    Fixing w_0 to `+` counts each unordered split once.  The search is a
    meet in the middle (Horowitz and Sahni, JACM 1974): over integers with
    the denominators cleared, it lists the distinct signed sums of the
    first half of the cycle (w_0 signed `+`) and of the second half, and
    reports a tie when a second-half sum's negation is a first-half sum.
    A cycle of length L costs about 2 * 2**(L/2) half-sums instead of
    2**(L-1) subsets.

    Work is metered in half-sums, reported as `pairs_checked`: a cycle is
    charged the most sums its two halves can have, 2**(h-1) + 2**(L-h) for
    a first half of h edges, and the search stops with 'budget_exceeded'
    before the count would pass `budget`.  A 'not_generic' report carries
    the cycle and the edges signed `+`, which include the cycle's first
    edge and weigh exactly half the cycle.
    """
    if len(d.weights) != g.m:
        raise InputError("weight count does not match the graph")
    w = d.integers
    if _distinct_valuations(w):
        return GenericityReport("generic", 0)
    checked = 0
    for cycle in _simple_cycles(g):
        ws = [w[e] for e in cycle]
        h = (len(cycle) + 1) // 2
        cost = 2 ** (h - 1) + 2 ** (len(cycle) - h)
        if checked + cost > budget:
            return GenericityReport("budget_exceeded", checked)
        checked += cost
        left = _signed_sums(ws, 1, h, {ws[0]: 1})
        right = _signed_sums(ws, h, len(ws), {0: 0})
        for s, mask in right.items():
            if -s in left:
                plus = left[-s] | mask
                members = frozenset(e for i, e in enumerate(cycle) if plus >> i & 1)
                return GenericityReport("not_generic", checked, cycle, members)
    return GenericityReport("generic", checked)


# -- generic blend --------------------------------------------------------------


def _closure(g: Graph, w) -> tuple[int, ...]:
    """The shortest-path distance between each edge's ends, under integer
    weights `w` indexed by edge id: valid by construction."""
    vi = g.vertex_index
    ends = [(vi[u], vi[v]) for u, v in g.edges]
    dist = _distances(g.n, ends, w)
    return tuple([dist[i][j] for i, j in ends])


def _blend(w, seed: int) -> DistanceFunction:
    """Generic weights close to the valid positive integer weights `w`.
    The result is valid and generic by construction, as proven below, so
    no check runs after it.  Deterministic for a fixed seed.

    Each weight is blended toward a reference function r,
    (1-t)*w_i + t*r_i.  With m edges, the least weight `low` and a seeded
    permutation s of 1..m,

        r_i = low/2**(m+3) * (2**(m+2) + 2**s(i)),   low/2 < r_i <= 5*low/8,
        t = 2**-T,   T = max(20, (low*m).bit_length() + 1).

    So result_i is the integer (2**T - 1) * 2**(m+3) * w_i +
    low * (2**(m+2) + 2**s(i)) over 2**(T+m+3), one Fraction per weight.

    Close: 0 < r_i < w_i, so |result_i - w_i| = t*(w_i - r_i) < t*w_i, a
    relative deviation below t <= 2**-20.

    Valid: under r any two edges weigh more than low >= r_i, so each edge
    is the shortest path between its endpoints; the blend is a convex
    combination of two valid functions, hence valid.

    Generic: take a cycle and signs e_i = +-1 on its edges.  The signed sum
    of the result is (1-t)*S + t*R with S = sum e_i*w_i and R = sum e_i*r_i.
    R/(low/2**(m+3)) is 2**(m+2) * sum e_i plus a signed sum of distinct
    powers of two; the latter is nonzero (its smallest power is not a
    multiple of twice itself) and below 2**(m+1) in size, so it cannot
    cancel a multiple of 2**(m+2), and R != 0.  If S = 0 the signed sum is
    t*R != 0.  Otherwise S is a nonzero integer, so (1-t)*|S| >= 1/2,
    while t*|R| < t*m*low < 1/2 because low*m < 2**b for
    b = (low*m).bit_length(); the sum is again nonzero.  So no cycle
    splits into two halves of equal weight.
    """
    m = len(w)
    low = min(w, default=0)
    t_exp = max(20, (low * m).bit_length() + 1)
    keep = ((1 << t_exp) - 1) << (m + 3)
    den = 1 << (t_exp + m + 3)
    base = 1 << (m + 2)
    exponents = list(range(1, m + 1))
    random.Random(seed).shuffle(exponents)
    return DistanceFunction(tuple([
        Fraction(keep * x + low * (base + (1 << e)), den) for x, e in zip(w, exponents)
    ]))


# -- block decomposition ------------------------------------------------------


def blocks(g: Graph) -> list[Graph]:
    """2-connected blocks (bridges come out as single-edge blocks).

    The blocks partition E(g); isolated vertices do not appear.  Each block
    keeps g's order: its vertices and edges are subsequences of g's, so it
    equals `Graph.build` of its own vertices and edges and is built
    directly, with no sort or check.
    """
    index = {}
    low = {}
    counter = [0]
    edge_stack: list[int] = []
    out: list[Graph] = []
    edges = g.edges
    order = g.vertex_index.__getitem__

    def collect(limit: int):
        comp = []
        while True:
            e = edge_stack.pop()
            comp.append(e)
            if e == limit:
                break
        comp.sort()
        es = tuple([edges[e] for e in comp])
        vs = sorted({x for e in es for x in e}, key=order)
        out.append(Graph(tuple(vs), es))

    for root in g.vertices:
        if root in index:
            continue
        # iterative DFS; work items are (vertex, parent edge id, neighbor iterator)
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack = [(root, -1, iter(g.adjacency[root]))]
        while stack:
            x, peid, it = stack[-1]
            advanced = False
            for y, eid in it:
                if eid == peid:
                    continue
                if y not in index:
                    edge_stack.append(eid)
                    index[y] = low[y] = counter[0]
                    counter[0] += 1
                    stack.append((y, eid, iter(g.adjacency[y])))
                    advanced = True
                    break
                if index[y] < index[x]:
                    edge_stack.append(eid)
                    if index[y] < low[x]:
                        low[x] = index[y]
            if advanced:
                continue
            stack.pop()
            if stack:
                px = stack[-1][0]
                if low[x] < low[px]:
                    low[px] = low[x]
                if low[x] >= index[px]:
                    collect(peid)
    return out
