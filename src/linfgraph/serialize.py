"""Instance and certificate files.

Instances are JSON: {"vertices": [...], "edges": [{"u": ..., "v": ...,
"d": "num/den"}, ...]}; loading ignores any other field, such as a
"metadata" object.  Rationals are always written as "numerator/denominator"
strings so round-trips are exact; saving is byte-stable (sorted keys,
canonical fraction form, trailing newline).  Certificates carry covers,
realizations, or minor embeddings and can be re-verified independently of
any search.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import InputError
from .graph_core import DistanceFunction, Graph, format_fraction, to_fraction

if TYPE_CHECKING:
    from .minors import MinorEmbedding
    from .realizability import Cover, Realization


def _read_json(path):
    """The JSON value stored in the file at path.  A file that is not UTF-8,
    not JSON, or past the parser's limits (an integer longer than the
    interpreter's digit limit, nesting deeper than the recursion limit)
    raises InputError; OSError passes through."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path}: cannot parse: {exc}") from None


def _rational(x, what: str):
    """to_fraction(x), rejecting as `what` any value that does not parse or
    that `format_fraction` cannot write back (more digits than the
    interpreter converts), so that every value read can be saved again.
    The message leaves x out, since such a value cannot be printed."""
    try:
        q = to_fraction(x)
        format_fraction(q)
    except (InputError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from None
    return q


def _parse_vertex(x, where: str):
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise InputError(f"{where}: vertex ids must be integers or strings, got {x!r}")
    return x


def instance_to_obj(g: Graph, d: DistanceFunction | None = None) -> dict:
    edges = []
    for eid, (u, v) in enumerate(g.edges):
        entry: dict = {"u": u, "v": v}
        if d is not None:
            entry["d"] = format_fraction(d.weights[eid])
        edges.append(entry)
    return {"vertices": list(g.vertices), "edges": edges}


def instance_from_obj(obj) -> tuple[Graph, DistanceFunction | None]:
    if not isinstance(obj, dict):
        raise InputError("instance must be a JSON object")
    if "vertices" not in obj or "edges" not in obj:
        raise InputError("instance needs 'vertices' and 'edges' fields")
    if not isinstance(obj["vertices"], list):
        raise InputError("field 'vertices': expected a list")
    if not isinstance(obj["edges"], list):
        raise InputError("field 'edges': expected a list")
    vertices = [_parse_vertex(x, "field 'vertices'") for x in obj["vertices"]]
    edges = []
    weights = {}
    with_d = 0
    for i, entry in enumerate(obj["edges"]):
        where = f"edges[{i}]"
        if not isinstance(entry, dict) or "u" not in entry or "v" not in entry:
            raise InputError(f"{where}: expected an object with 'u' and 'v'")
        u = _parse_vertex(entry["u"], where)
        v = _parse_vertex(entry["v"], where)
        edges.append((u, v))
        if "d" in entry:
            with_d += 1
            weights[(u, v)] = _rational(entry["d"], f"{where}: bad weight")
    g = Graph.build(vertices, edges)
    if with_d == 0:
        return g, None
    if with_d != len(edges):
        raise InputError(f"{with_d} of {len(edges)} edges carry weights; need all or none")
    return g, DistanceFunction.from_map(g, weights)


def save_instance(g: Graph, d: DistanceFunction | None, path) -> None:
    obj = instance_to_obj(g, d)
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_instance(path) -> tuple[Graph, DistanceFunction | None]:
    obj = _read_json(path)
    try:
        return instance_from_obj(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


# -- certificates -------------------------------------------------------------


def cover_to_obj(g: Graph, cover: Cover) -> dict:
    parts = []
    for orientation, potential in zip(cover.parts, cover.potentials):
        parts.append(
            {
                "arcs": [[u, v] for u, v in orientation.arcs],
                "potential": [[v, format_fraction(q)] for v, q in sorted(
                    potential.values.items(), key=lambda kv: g.vertex_index[kv[0]]
                )],
            }
        )
    return {"type": "cover", "k": cover.k, "parts": parts}


def _certificate_of(obj, kind: str) -> dict:
    if not isinstance(obj, dict) or obj.get("type") != kind:
        raise InputError(f"certificate is not a {kind.replace('_', ' ')}")
    return obj


def _list_field(obj: dict, key: str, where: str) -> list:
    value = obj.get(key)
    if not isinstance(value, list):
        raise InputError(f"{where}: field {key!r} must be a list")
    return value


def _pairs(items: list, where: str) -> list:
    for i, item in enumerate(items):
        if not isinstance(item, list) or len(item) != 2:
            raise InputError(f"{where}[{i}]: expected a two-element list")
    return items


def cover_from_obj(obj) -> Cover:
    from .realizability import Cover, Orientation, Potential

    obj = _certificate_of(obj, "cover")
    parts, potentials = [], []
    for i, part in enumerate(_list_field(obj, "parts", "cover")):
        where = f"parts[{i}]"
        if not isinstance(part, dict):
            raise InputError(f"{where}: expected an object")
        arcs = [
            (_parse_vertex(u, where), _parse_vertex(v, where))
            for u, v in _pairs(_list_field(part, "arcs", where), f"{where}.arcs")
        ]
        parts.append(Orientation.of(arcs))
        potentials.append(Potential({
            _parse_vertex(v, where): _rational(q, f"{where}: bad potential value")
            for v, q in _pairs(_list_field(part, "potential", where), f"{where}.potential")
        }))
    return Cover(tuple(parts), tuple(potentials))


def realization_to_obj(realization: Realization) -> dict:
    return {
        "type": "realization",
        "k": realization.k,
        "points": [
            [v, [format_fraction(q) for q in vec]]
            for v, vec in sorted(realization.points.items(), key=lambda kv: str(kv[0]))
        ],
    }


def realization_from_obj(obj) -> Realization:
    from .realizability import Realization

    obj = _certificate_of(obj, "realization")
    k = obj.get("k")
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise InputError("realization: field 'k' must be a nonnegative integer")
    points = {}
    for v, vec in _pairs(_list_field(obj, "points", "realization"), "points"):
        if not isinstance(vec, list):
            raise InputError(f"point of vertex {v!r}: expected a list of coordinates")
        points[_parse_vertex(v, "points")] = tuple(_rational(q, "points: bad coordinate") for q in vec)
    return Realization(points, k)


def embedding_to_obj(emb: MinorEmbedding) -> dict:
    return {
        "type": "minor_embedding",
        "pattern": instance_to_obj(emb.pattern),
        "branch_sets": [
            [pv, sorted(bs, key=str)] for pv, bs in sorted(
                emb.branch_sets.items(), key=lambda kv: str(kv[0])
            )
        ],
        "edge_realization": [
            [list(pe), list(ge)] for pe, ge in sorted(
                emb.edge_realization.items(), key=lambda kv: str(kv[0])
            )
        ],
    }


def embedding_from_obj(obj) -> MinorEmbedding:
    from .minors import MinorEmbedding

    obj = _certificate_of(obj, "minor_embedding")
    if not isinstance(obj.get("pattern"), dict):
        raise InputError("embedding: field 'pattern' must be an instance object")
    pattern, _ = instance_from_obj(obj["pattern"])
    branch_sets = {}
    for pv, bs in _pairs(_list_field(obj, "branch_sets", "embedding"), "branch_sets"):
        if not isinstance(bs, list):
            raise InputError(f"branch set of {pv!r}: expected a list of vertices")
        branch_sets[_parse_vertex(pv, "branch_sets")] = frozenset(
            _parse_vertex(x, "branch_sets") for x in bs
        )
    real = {}
    for pe, ge in _pairs(_list_field(obj, "edge_realization", "embedding"), "edge_realization"):
        pe, ge = _pairs([pe, ge], "edge_realization")
        real[tuple(_parse_vertex(x, "edge_realization") for x in pe)] = tuple(
            _parse_vertex(x, "edge_realization") for x in ge
        )
    return MinorEmbedding(pattern, branch_sets, real)


def save_certificate(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_certificate(path) -> dict:
    obj = _read_json(path)
    if not isinstance(obj, dict) or "type" not in obj:
        raise InputError(f"{path}: certificate needs a 'type' field")
    return obj


# -- DOT rendering -------------------------------------------------------------

_PALETTE = (
    "lightblue", "lightpink", "palegreen", "khaki", "plum",
    "lightsalmon", "paleturquoise", "wheat", "thistle", "lightgray",
)


def _dot_id(v) -> str:
    s = str(v)
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def render_dot(g: Graph, d: DistanceFunction | None = None, emb: MinorEmbedding | None = None) -> str:
    """Graphviz text; edge labels show weights, branch sets share colors."""
    color_of = {}
    if emb is not None:
        for i, pv in enumerate(emb.pattern.vertices):
            for x in emb.branch_sets.get(pv, ()):
                color_of[x] = _PALETTE[i % len(_PALETTE)]
    lines = ["graph {"]
    for v in g.vertices:
        attrs = []
        if v in color_of:
            attrs.append(f'style=filled fillcolor="{color_of[v]}"')
        lines.append(f"  {_dot_id(v)}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";")
    for eid, (u, v) in enumerate(g.edges):
        attrs = []
        if d is not None:
            attrs.append(f'label="{d.weights[eid]}"')
        lines.append(
            f"  {_dot_id(u)} -- {_dot_id(v)}" + (f" [{' '.join(attrs)}]" if attrs else "") + ";"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
