"""The four workloads: each is a fixed batch of calls.

Every workload is one closed-loop caller that makes one call at a time,
with threads=1, in one process.  A call is a `Call`: `run` is the timed
part; `observe` reduces its result to the value pinned in expected.json;
`verify` re-checks any certificate with the benchmark's own arithmetic;
`nodes` reads the search node count, which is reported but never gated on.
`observe` and `verify` run outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import check
import inputs as I

WHY = {
    "search": "the whole decision engine without genericity checks or minors: "
              "lookahead-bound dense calls, relaxation-bound cycle exhaustions, "
              "and certificate rebuilds in Fraction",
    "mindim": "min_dimension and random_distance_function, where the cycle-split "
              "genericity enumeration does most of the work and the k-scan "
              "covers at its first k",
    "classify": "classify_dim2 on an atlas sweep plus wheels, grids and a doubled "
                "tree: branch-set search, blocks, degree-2 suppression and pullback",
    "cli": "one CLI subprocess at a time on small instance files: the package "
           "import, the cli and serialize layers, measured nowhere else",
}


@dataclass
class Call:
    label: str
    run: Callable
    observe: Callable
    verify: Callable = lambda result: None
    nodes: Callable = lambda result: None


# -- instance files -------------------------------------------------------------


def _fmt(q):
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def write_instance(inst, path):
    """Our own writer of the documented instance format."""
    edges = []
    for i, (u, v) in enumerate(inst["edges"]):
        entry = {"u": u, "v": v}
        if inst["weights"] is not None:
            entry["d"] = _fmt(inst["weights"][i])
        edges.append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"vertices": inst["vertices"], "edges": edges}, fh)


def read_weighted(path):
    """(edges, weights) of an instance file, read with our own parser."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    edges = [(e["u"], e["v"]) for e in obj["edges"]]
    return edges, [Fraction(e["d"]) for e in obj["edges"]]


def load(lg, workdir, inst):
    """Write the instance as a file and load it back through the program's
    load_instance, as a user of the package would."""
    path = os.path.join(workdir, f"{inst['name']}.json")
    write_instance(inst, path)
    return lg.load_instance(path)


# -- search -----------------------------------------------------------------------


def _search_instances():
    """Fixed (instance, dimensions) pairs; weights are drawn from BASE_SEED."""
    out = []
    # Lookahead-bound: the paper's K7 stress instance needs 5 dimensions and
    # its k = 4 exhaustion visits 2.1M nodes.
    vs, es = I.complete(7)
    out.append((I.instance("K7p2", vs, es, I.powers_of_two_weights(len(es))), (3, 4, 5)))
    # Relaxation-bound: k = 1 exhausts on a generic cycle (a line embedding
    # would split the cycle into two halves of equal weight); k = 2 covers.
    # Denominators up to 2**60 make the scaled integers wide.
    for n in range(12, 19):
        vs, es = I.cycle(n)
        ks = (1, 2) if n <= 16 else (2,)
        base = random.Random(f"{I.BASE_SEED}:C{n}")
        out.append((I.instance(f"C{n}", vs, es, I.generic_weights(base, n, 1000, 60)), ks))
    # Dense random cliques at their minimum dimension and one less.
    for n, mins in ((7, (4, 4, 4)), (8, (5, 4, 5))):
        for j, kmin in enumerate(mins):
            base = random.Random(f"{I.BASE_SEED}:K{n}r{j}")
            vs, es = I.complete(n)
            out.append((I.instance(f"K{n}r{j}", vs, es, I.generic_weights(base, len(es), 1000, 60)),
                        (kmin - 1, kmin)))
    # Doubled trees: minimum dimension grows with the tree.
    for name, (tv, te), kmin in (("tk4_path4", I.path(4), 4), ("tk4_path6", I.path(6), 6),
                                 ("tk4_star4", I.star(4), 5)):
        lo = min(tv)
        vs, es, ws = I.tk4_weights([v - lo for v in tv], [(u - lo, v - lo) for u, v in te])
        out.append((I.instance(name, vs, es, ws), (kmin - 1, kmin)))
    # The two excluded-minor witnesses: k = 2 exhausts, k = 3 covers.
    out.append((I.w4_witness(), (2, 3)))
    out.append((I.k4ek4_witness(), (2, 3)))
    return out


def search(lg, workdir):
    calls = []
    for inst, ks in _search_instances():
        g, d = load(lg, workdir, inst)
        for k in ks:
            def run(g=g, d=d, k=k):
                out = lg.decide_realizable(g, d, k)
                real = lg.build_realization(g, d, out.cover) if out.cover is not None else None
                return out, real

            def verify(result, inst=inst, k=k):
                out, real = result
                if real is None:
                    return None
                if real.k != k:
                    return f"realization has k={real.k}, asked {k}"
                return check.realization(inst, real.points, k)

            calls.append(Call(f"{inst['name']}@k{k}", run,
                              observe=lambda r: r[1] is not None,
                              verify=verify, nodes=lambda r: r[0].nodes))
    return calls


# -- mindim -------------------------------------------------------------------------


def _mindim_instances():
    """Graphs with weights drawn from BASE_SEED.  Weights within a factor 2
    of each other make every graph but K6 cover at k = arboricity, so the
    k-scan rarely exhausts and the search stays a small share."""
    graphs = [(f"C{n}", I.cycle(n)) for n in range(14, 19)]
    graphs += [(f"W{n}", I.wheel(n)) for n in range(6, 10)]
    graphs += [("grid3x4", I.grid(3, 4)), ("petersen", I.petersen()),
               ("K5", I.complete(5)), ("K6", I.complete(6))]
    base = random.Random(f"{I.BASE_SEED}:gnp")
    graphs += [(f"gnp{n}", I.connected_gnp(base, n, 0.4)) for n in (8, 9, 10)]
    out = []
    for name, (vs, es) in graphs:
        ws = I.generic_weights(random.Random(f"{I.BASE_SEED}:{name}"), len(es), 1000, 60)
        out.append(I.instance(name, vs, es, ws))
    return out


def mindim(lg, workdir):
    calls = []
    for i, inst in enumerate(_mindim_instances()):
        g, d = load(lg, workdir, inst)
        # fixed per graph: the retry work of random_distance_function varies
        # with its seed (1.2 s to 2.0 s on the 3x5 grid over eight seeds)
        rdf_seed = 1000 + i

        def verify_rdf(out, inst=inst, g=g, s=rdf_seed):
            return check.random_weights(inst, g.edges, s, out.weights)

        calls.append(Call(f"{inst['name']}.random_distance_function",
                          lambda g=g, s=rdf_seed: lg.random_distance_function(g, s),
                          observe=lambda out: None, verify=verify_rdf))
        calls.append(Call(f"{inst['name']}.min_dimension",
                          lambda g=g, d=d: lg.min_dimension(g, d),
                          observe=lambda k: k))
    return calls


# -- classify ---------------------------------------------------------------------------


def _classify_instances():
    out = [I.instance(f"atlas{i}", vs, es) for i, (vs, es) in enumerate(I.connected_atlas(6))]
    base = random.Random(f"{I.BASE_SEED}:classify")
    for n in (7, 8, 9, 10):
        for j, p in enumerate((0.25, 0.35, 0.45)):
            vs, es = I.connected_gnp(base, n, p)
            out.append(I.instance(f"gnp{n}_{j}", vs, es))
    for n in range(5, 9):
        out.append(I.instance(f"W{n}", *I.wheel(n)))
    out.append(I.instance("grid3x4", *I.grid(3, 4)))
    out.append(I.instance("grid4x4", *I.grid(4, 4)))
    tv, te = I.path(4)
    vs, es, _ = I.tk4_weights([v - 1 for v in tv], [(u - 1, v - 1) for u, v in te])
    out.append(I.instance("tk4_path4", vs, es))
    return out


def _verify_classification(inst, c):
    if c.verdict != "exceeds_2":
        return None
    w = c.witness
    return check.minor_witness(inst, w.pattern.vertices, w.pattern.edges,
                               w.branch_sets, w.edge_realization)


def _verify_certificate(inst, g, result):
    d, outcome = result
    if outcome.cover is not None:
        return "the k=2 search on the certificate weights found a cover"
    return check.distance_function(inst["vertices"], list(g.edges), list(d.weights))


def classify(lg, workdir, expected):
    calls = []
    for inst in _classify_instances():
        g, _ = load(lg, workdir, inst)
        label = f"{inst['name']}.classify_dim2"
        calls.append(Call(label, lambda g=g: lg.classify_dim2(g),
                          observe=lambda c: c.verdict,
                          verify=lambda c, inst=inst: _verify_classification(inst, c)))
        if expected.get(label) == "exceeds_2":
            calls.append(Call(f"{inst['name']}.certificate_exceeds_2",
                              lambda g=g: lg.certificate_exceeds_2(g),
                              observe=lambda r: r[1].exhausted,
                              verify=lambda r, inst=inst, g=g: _verify_certificate(inst, g, r),
                              nodes=lambda r: r[1].nodes))
    return calls


# -- cli ---------------------------------------------------------------------------------------


def _cli_instances():
    out = [I.w4_witness(), I.k4ek4_witness()]
    for name, (vs, es) in (("C8", I.cycle(8)), ("K5", I.complete(5)), ("petersen", I.petersen())):
        ws = I.generic_weights(random.Random(f"{I.BASE_SEED}:cli:{name}"), len(es), 1000, 60)
        out.append(I.instance(name, vs, es, ws))
    return out


def _cli_observe(argv, result):
    """Exit code plus the answer printed on stdout."""
    code, stdout, _ = result
    if code not in (0, 1, 2):
        return [code, None]
    try:
        obj = json.loads(stdout.strip().splitlines()[-1]) if stdout.strip() else {}
    except json.JSONDecodeError:
        return [code, "unparsable stdout"]
    key = {"validate": "valid", "generic-check": "status", "realize": "realizable",
           "verify": "ok", "min-dim": "min_dimension", "classify": "verdict"}.get(argv[0])
    return [code, obj.get(key) if key else None]


def _cli_verify(argv, inst, files, result):
    code, stdout, _ = result
    if code not in (0, 1, 2):
        return f"exit code {code} is outside the 0/1/2 contract"
    if argv[0] == "realize" and code == 0:
        with open(files["cert"], encoding="utf-8") as fh:
            obj = json.load(fh)["realization"]
        points = {v: tuple(Fraction(x) for x in vec) for v, vec in obj["points"]}
        return check.realization(inst, points, obj["k"])
    if argv[0] == "classify" and code == 1:
        w = json.loads(stdout.strip().splitlines()[-1])["witness"]
        pattern = w["pattern"]
        return check.minor_witness(
            inst, pattern["vertices"], [(e["u"], e["v"]) for e in pattern["edges"]],
            {pv: set(bs) for pv, bs in w["branch_sets"]},
            {tuple(pe): tuple(ge) for pe, ge in w["edge_realization"]})
    if argv[0] == "gen":
        edges, weights = read_weighted(files["gen"])
        return check.random_weights(inst, edges, files["gen_seed"], weights)
    return None


# dimension passed to `realize`: each file's minimum, so a certificate is written
CLI_DIM = {"W4w": 3, "K4eK4w": 3, "C8": 2, "K5": 3, "petersen": 2}


def cli(lg, seed, workdir, in_process=False):
    """CLI calls on small instance files, as subprocesses or (for the traced
    run) as in-process calls of cli.main with the same arguments.  The seed
    is passed to `gen`."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lg.__file__)))

    def subprocess_run(argv):
        p = subprocess.run([sys.executable, "-m", "linfgraph.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=120)
        return p.returncode, p.stdout, p.stderr

    def in_process_run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lg.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    runner = in_process_run if in_process else subprocess_run
    calls = []
    for inst in _cli_instances():
        name = inst["name"]
        files = {"inst": os.path.join(workdir, f"{name}.json"),
                 "cert": os.path.join(workdir, f"{name}.cert.json"),
                 "gen": os.path.join(workdir, f"{name}.gen.json"),
                 "gen_seed": seed}
        write_instance(inst, files["inst"])
        for argv in (["validate", files["inst"]],
                     ["generic-check", files["inst"]],
                     ["realize", files["inst"], "--dim", str(CLI_DIM[name]),
                      "--certificate", files["cert"]],
                     ["verify", files["inst"], "--certificate", files["cert"]],
                     ["min-dim", files["inst"]],
                     ["classify", files["inst"]],
                     ["gen", "--family", "random", "--graph", files["inst"],
                      "--seed", str(seed), "-o", files["gen"]]):
            calls.append(Call(f"{name}.{argv[0]}", lambda argv=argv: runner(argv),
                              observe=lambda r, argv=argv: _cli_observe(argv, r),
                              verify=lambda r, argv=argv, inst=inst, files=files:
                                  _cli_verify(argv, inst, files, r)))
    return calls
