"""Command-line interface.

Decision commands follow a stable exit-code contract for scripting:
0 = yes / at-most (realizable, generic, valid, minor found, dimension ok),
1 = no / exceeds (exhausted search, not generic, invalid, no minor),
2 = usage errors, parse errors, or an inconclusive budget-limited check.
Standard output carries one machine-readable JSON object per run; node
counts and diagnostics go to standard error.  Each command imports the
modules it runs, so a call compiles no search or classifier it does not use.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import CapExceeded, InputError


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _progress(label: str):
    def cb(n: int) -> None:
        print(f"{label}: {n} nodes", file=sys.stderr)

    return cb


def _need_weights(path):
    from .serialize import load_instance

    g, d = load_instance(path)
    if d is None:
        raise InputError(f"{path}: instance has no edge weights")
    return g, d


def _cmd_validate(args) -> int:
    from .graph_core import _printable, validate_distance_function

    g, d = _need_weights(args.instance)
    report = validate_distance_function(g, d)
    _emit(
        {
            "valid": report.valid,
            "violations": [
                {"edge": list(v.edge), "path": list(v.path), "length": _printable(v.length)}
                for v in report.violations
            ],
        }
    )
    return 0 if report.valid else 1


def _cmd_generic_check(args) -> int:
    from .graph_core import is_generic

    g, d = _need_weights(args.instance)
    report = is_generic(g, d, budget=args.budget)
    out = {"status": report.status, "pairs_checked": report.pairs_checked}
    if report.status == "not_generic":
        out["cycle"] = [list(g.edges[e]) for e in report.cycle]
        out["subset"] = sorted(list(g.edges[e]) for e in report.subset)
    _emit(out)
    if report.status == "generic":
        return 0
    if report.status == "not_generic":
        return 1
    print("genericity check hit its budget; inconclusive", file=sys.stderr)
    return 2


def _cmd_realize(args) -> int:
    from .realizability import build_realization, decide_realizable
    from .serialize import cover_to_obj, realization_to_obj, save_certificate

    g, d = _need_weights(args.instance)
    enough = max(1, g.m)
    if args.dim > enough:
        raise InputError(
            f"--dim {args.dim} is more than the {enough} dimensions that always suffice "
            f"for {g.m} edges (one edge uv per part, with potential dist(u, x))"
        )
    outcome = decide_realizable(g, d, args.dim, progress=_progress("search"))
    print(f"search finished after {outcome.nodes} nodes", file=sys.stderr)
    if outcome.cover is None:
        _emit({"realizable": False, "k": args.dim, "nodes": outcome.nodes})
        return 1
    realization = build_realization(g, d, outcome.cover)
    if args.certificate:
        obj = cover_to_obj(g, outcome.cover)
        obj["realization"] = realization_to_obj(realization)
        save_certificate(obj, args.certificate)
    _emit({"realizable": True, "k": args.dim, "nodes": outcome.nodes})
    return 0


def _cmd_min_dim(args) -> int:
    from .realizability import min_dimension

    g, d = _need_weights(args.instance)
    k = min_dimension(g, d)
    _emit({"min_dimension": k})
    return 0


def _cmd_bounds(args) -> int:
    from .realizability import finf_bounds
    from .serialize import load_instance, save_instance

    g, _ = load_instance(args.instance)
    bounds = finf_bounds(g, samples=args.samples, seed=args.seed)
    _emit({"lower": bounds.lower, "upper": bounds.upper, "exact": bounds.lower == bounds.upper})
    if args.witness_out and bounds.witness is not None:
        save_instance(g, bounds.witness, args.witness_out)
    return 0


def _cmd_classify(args) -> int:
    from .minors import classify_dim2
    from .serialize import embedding_to_obj, load_instance

    g, _ = load_instance(args.instance)
    c = classify_dim2(g)
    out = {"verdict": c.verdict}
    if c.witness is not None:
        out["witness"] = embedding_to_obj(c.witness)
    _emit(out)
    return 0 if c.verdict == "dim_at_most_2" else 1


def _cmd_certify_exceeds2(args) -> int:
    from .minors import _certificate_from_witness, classify_dim2
    from .realizability import Realization
    from .serialize import load_instance, realization_to_obj, save_instance

    g, _ = load_instance(args.instance)
    c = classify_dim2(g)
    if c.verdict == "dim_at_most_2":
        _emit({"verdict": "dim_at_most_2"})
        return 0
    d, outcome, points = _certificate_from_witness(g, c.witness)
    if args.witness_out:
        save_instance(g, d, args.witness_out)
    realization = realization_to_obj(Realization(points, len(points[g.vertices[0]])))
    realization["norm"] = 1
    _emit(
        {
            "verdict": "exceeds_2",
            "weights": [str(w) for w in d.weights],
            "nodes": outcome.nodes,
            "exhausted_at_2": outcome.exhausted,
            "realization": realization,
        }
    )
    return 1


def _cmd_minor(args) -> int:
    from .instances import named_graph
    from .minors import contains_minor
    from .serialize import embedding_to_obj, load_instance, save_certificate

    g, _ = load_instance(args.instance)
    if args.pattern == "w4":
        h = named_graph("W_4")
    elif args.pattern == "k4e":
        h = named_graph("K4eK4")
    else:
        h, _ = load_instance(args.pattern)
    emb = contains_minor(g, h)
    if emb is None:
        _emit({"contains": False})
        return 1
    obj = embedding_to_obj(emb)
    if args.certificate:
        save_certificate(obj, args.certificate)
    _emit({"contains": True, "witness": obj})
    return 0


def _cmd_gen(args) -> int:
    from .instances import (
        Tree,
        k4ek4_witness,
        k7_generic,
        named_graph,
        random_distance_function,
        tk4_instance,
        w4_witness,
    )
    from .serialize import instance_to_obj, load_instance, save_instance

    if args.family == "w4-witness":
        g, d = w4_witness()
    elif args.family == "k4e-witness":
        g, d = k4ek4_witness()
    elif args.family == "k7":
        g, d = k7_generic()
    elif args.family == "tk4":
        if not args.tree:
            raise InputError("tk4 needs --tree FILE with a tree instance")
        tg, _ = load_instance(args.tree)
        g, d = tk4_instance(Tree.build(tg), integer_scaled=args.integer_scaled)
    elif args.family == "random":
        if not args.name and not args.graph:
            raise InputError("random needs --name NAME or --graph FILE")
        g = named_graph(args.name) if args.name else load_instance(args.graph)[0]
        d = random_distance_function(g, seed=args.seed)
    else:
        raise InputError(f"unknown family {args.family!r}")
    if args.out:
        save_instance(g, d, args.out)
    else:
        _emit(instance_to_obj(g, d))
    return 0


def _cmd_convert_l1(args) -> int:
    from .instances import linf2_to_l1_2
    from .realizability import Realization
    from .serialize import (
        load_certificate,
        realization_from_obj,
        realization_to_obj,
        save_certificate,
    )

    obj = load_certificate(args.certificate)
    if obj.get("type") == "cover" and "realization" in obj:
        obj = obj["realization"]
    realization = realization_from_obj(obj)
    if realization.k != 2:
        raise InputError(f"conversion needs a 2-dimensional realization, got k={realization.k}")
    image = Realization(linf2_to_l1_2(realization.points), 2)
    out = realization_to_obj(image)
    out["norm"] = 1
    if args.out:
        save_certificate(out, args.out)
    else:
        _emit(out)
    return 0


def _cmd_verify(args) -> int:
    from .serialize import (
        cover_from_obj,
        embedding_from_obj,
        load_certificate,
        load_instance,
        realization_from_obj,
    )

    obj = load_certificate(args.certificate)
    kind = obj["type"]
    if kind == "cover":
        g, d = _need_weights(args.instance)
        ok = cover_from_obj(obj).check(g, d)
        detail = None if ok else "cover failed re-verification"
    elif kind == "realization":
        from .realizability import verify_realization

        g, d = _need_weights(args.instance)
        norm = {"1": 1, "2": 2, "inf": "inf"}[args.norm]
        res = verify_realization(g, d, realization_from_obj(obj), norm=norm)
        ok, detail = res.ok, res.detail
    elif kind == "minor_embedding":
        g, _ = load_instance(args.instance)
        ok = embedding_from_obj(obj).check(g)
        detail = None if ok else "embedding failed re-verification"
    else:
        raise InputError(f"unknown certificate type {kind!r}")
    _emit({"ok": ok, **({"detail": detail} if detail else {})})
    return 0 if ok else 1


def _cmd_render(args) -> int:
    from .serialize import embedding_from_obj, load_certificate, load_instance, render_dot

    g, d = load_instance(args.instance)
    emb = None
    if args.certificate:
        emb = embedding_from_obj(load_certificate(args.certificate))
    text = render_dot(g, d, emb)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="linfgraph",
        description="Exact realizability of weighted graphs in low-dimensional max-norm space",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def cmd(name, func, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=func)
        return sp

    sp = cmd("validate", _cmd_validate, help="check that weights form a distance function")
    sp.add_argument("instance")

    sp = cmd("generic-check", _cmd_generic_check, help="search cycles for an equal split")
    sp.add_argument("instance")
    sp.add_argument("--budget", type=_at_least(0), default=10**6,
                    help="most half-sums to enumerate, about 2 * 2**(L/2) per cycle of "
                         "length L (default: 10**6); exit 2 when it runs out")

    sp = cmd("realize", _cmd_realize, help="decide realizability in a given dimension")
    sp.add_argument("instance")
    sp.add_argument("--dim", type=_at_least(1), required=True)
    sp.add_argument("--certificate", help="write the cover and realization here")

    sp = cmd("min-dim", _cmd_min_dim, help="smallest dimension admitting a realization")
    sp.add_argument("instance")

    sp = cmd("bounds", _cmd_bounds, help="sandwich the worst-case dimension of a graph")
    sp.add_argument("instance")
    sp.add_argument("--samples", type=_at_least(0), default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--witness-out", help="save the maximizing weights here")

    sp = cmd("classify", _cmd_classify, help="excluded-minor test for dimension 2")
    sp.add_argument("instance")

    sp = cmd("certify-exceeds2", _cmd_certify_exceeds2,
             help="weights, and sum-norm points, defeating every 2-dimensional search")
    sp.add_argument("instance")
    sp.add_argument("--witness-out", help="save the certificate weights here")

    sp = cmd("minor", _cmd_minor, help="exact minor containment with branch-set witness")
    sp.add_argument("instance")
    sp.add_argument("--pattern", required=True, help="w4, k4e, or an instance file")
    sp.add_argument("--certificate", help="write the embedding here")

    sp = cmd("gen", _cmd_gen, help="generate a benchmark instance")
    sp.add_argument("--family", required=True,
                    choices=["w4-witness", "k4e-witness", "k7", "tk4", "random"])
    sp.add_argument("--tree", help="tree instance file (tk4)")
    sp.add_argument("--integer-scaled", action="store_true", help="clear denominators (tk4)")
    sp.add_argument("--name", help="named graph (random), e.g. K_4, W_4, C_5, petersen")
    sp.add_argument("--graph", help="graph instance file (random)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--out", help="output file (default: stdout)")

    sp = cmd("convert-l1", _cmd_convert_l1, help="map a 2-dimensional realization to sum-norm coordinates")
    sp.add_argument("--certificate", required=True)
    sp.add_argument("-o", "--out")

    sp = cmd("verify", _cmd_verify, help="re-check a certificate against an instance")
    sp.add_argument("instance")
    sp.add_argument("--certificate", required=True)
    sp.add_argument("--norm", choices=["1", "2", "inf"], default="inf")

    sp = cmd("render", _cmd_render, help="DOT output with weights and branch-set colors")
    sp.add_argument("instance")
    sp.add_argument("--certificate", help="minor-embedding certificate to color")
    sp.add_argument("-o", "--out")

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (InputError, CapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
