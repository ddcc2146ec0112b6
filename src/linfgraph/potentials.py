"""Arc-length systems, vertex potentials, and feasibility of forced orientations.

A weighted graph induces a bidirected arc system: each edge uv contributes
arcs (u, v) and (v, u), both of length d_uv.  Forcing an arc (u, v) negates
its length; a potential p (p(v) - p(u) <= length(u, v) on every arc) then
pins p(u) - p(v) = d_uv exactly on each forced arc, i.e. forced arcs point
from the higher potential to the lower.  A set of edges is *feasible* when
some orientation of it can be forced while a potential still exists, which
happens exactly when no directed cycle of negative total length appears.

This module checks one given orientation (`find_potential` on the forced
arc system), in Fraction arithmetic and independently of the search.
Whether some orientation of an edge set works is decided by
`realizability.is_feasible_set`, a one-part run of the cover search; the
search relaxes its own integer potentials and does not call
`find_potential`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InputError
from .graph_core import DistanceFunction, Graph, VertexId, vertex_key


@dataclass(frozen=True)
class ArcLengths:
    """Lengths for both arcs of every edge of a graph."""

    vertices: tuple[VertexId, ...]
    lengths: dict

    def arcs(self):
        return self.lengths.items()

    def length(self, u: VertexId, v: VertexId) -> Fraction:
        try:
            return self.lengths[(u, v)]
        except KeyError:
            raise InputError(f"no arc ({u!r}, {v!r})") from None


@dataclass(frozen=True)
class Orientation:
    """A choice of direction for a set of edges; at most one arc per edge."""

    arcs: tuple[tuple[VertexId, VertexId], ...]

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

    def reverse(self) -> "Orientation":
        return Orientation.of(tuple((v, u) for u, v in self.arcs))

    def __len__(self) -> int:
        return len(self.arcs)


@dataclass(frozen=True)
class Potential:
    """Vertex labels satisfying p(v) - p(u) <= length(u, v) on every arc."""

    values: dict

    def check(self, lengths: ArcLengths) -> bool:
        return all(
            self.values[v] - self.values[u] <= l for (u, v), l in lengths.arcs()
        )

    def __getitem__(self, v: VertexId) -> Fraction:
        return self.values[v]


@dataclass(frozen=True)
class NegativeCycle:
    """A directed cycle whose arc lengths sum to a negative total."""

    vertices: tuple[VertexId, ...]
    total: Fraction

    def arcs(self):
        vs = self.vertices
        return [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]


def build_bidirected(g: Graph, d: DistanceFunction) -> ArcLengths:
    """Both arcs of every edge, each at the edge's weight."""
    if len(d.weights) != g.m:
        raise InputError("weight count does not match the graph")
    lengths = {}
    for eid, (u, v) in enumerate(g.edges):
        w = d.weights[eid]
        lengths[(u, v)] = w
        lengths[(v, u)] = w
    return ArcLengths(g.vertices, lengths)


def apply_forcing(lengths: ArcLengths, f: Orientation) -> ArcLengths:
    """Negate exactly the arcs in f; all other arcs are unchanged."""
    out = dict(lengths.lengths)
    for u, v in f.arcs:
        if (u, v) not in out:
            raise InputError(f"arc ({u!r}, {v!r}) is not in the arc system")
        out[(u, v)] = -out[(u, v)]
    return ArcLengths(lengths.vertices, out)


def find_potential(lengths: ArcLengths) -> Potential | NegativeCycle:
    """Label-correcting search for a potential; total function.

    Runs layered relaxation rounds from an all-zero start (equivalent to a
    virtual source with zero-length arcs to every vertex).  If values are
    still improving after |V| rounds, the improving walk must contain a
    strictly negative directed cycle, which is reconstructed from the
    per-round parents and returned.
    """
    verts = list(lengths.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    arcs = [(idx[u], idx[v], l) for (u, v), l in lengths.arcs()]
    zero = Fraction(0)
    dist = [zero] * n
    parents: list[list[int | None]] = []
    for _ in range(n):
        new = list(dist)
        par: list[int | None] = [None] * n
        changed = False
        for u, v, l in arcs:
            cand = dist[u] + l
            if cand < new[v]:
                new[v] = cand
                par[v] = u
                changed = True
        if not changed:
            return Potential({verts[i]: dist[i] for i in range(n)})
        dist = new
        parents.append(par)
    # still improving after n rounds: walk the parents back through the rounds
    x = next(v for v in range(n) if parents[-1][v] is not None)
    walk = [x]
    cur = x
    for layer in range(n - 1, -1, -1):
        cur = parents[layer][cur]
        walk.append(cur)
    walk.reverse()  # n+1 vertices, so some vertex repeats
    last_seen: dict[int, int] = {}
    lo = hi = None
    for pos, v in enumerate(walk):
        if v in last_seen:
            lo, hi = last_seen[v], pos
            break
        last_seen[v] = pos
    cycle = walk[lo:hi]
    total = zero
    for i in range(len(cycle)):
        u, v = cycle[i], cycle[(i + 1) % len(cycle)]
        total += lengths.lengths[(verts[u], verts[v])]
    assert total < 0, "extracted cycle must be strictly negative"
    return NegativeCycle(tuple(verts[i] for i in cycle), total)
