"""One workload process: set up, run the closed loop, check, report.

Started by run.py.  By hand it only re-pins answers after a deliberate
change of them:

    python3 perfbench/worker.py --workload search --seed 0 --seconds 0 --pin

Prints human-readable lines on stderr and one JSON object as the last line
of stdout.  `--t0` is the parent's
CLOCK_MONOTONIC reading taken just before this process was spawned, so
setup_s counts interpreter start, the linfgraph import, input generation
and instance loading, up to the first timed call.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import workloads  # noqa: E402  (sibling modules, found through sys.path[0])
from calib import Reference  # noqa: E402
from spans import Tracer  # noqa: E402

EXPECTED = os.path.join(HERE, "expected.json")
SLOW = 7
ROUND_TIME = 0.5
HEAVY = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


class Loop:
    """Runs calls one at a time, recording latency, answers and failures,
    with a host-speed reference sample between calls (see calib.py)."""

    def __init__(self, expected):
        self.expected = expected  # label -> pinned answer, or None when pinning
        self.lat = {}  # label -> [(start, seconds), ...]
        self.ref = Reference()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.observed = {}
        self.nodes = {}

    def one(self, call, tracer=None, call_id=None):
        span = tracer.begin("bench.call", call_id) if tracer else None
        t = time.perf_counter()
        try:
            result, reason = call.run(), None
        except Exception as exc:  # a raising call is a failed call, not a crash
            result, reason = None, f"raised {exc!r}"
        dt = time.perf_counter() - t
        if tracer:
            tracer.end(span)
        self.lat.setdefault(call.label, []).append((t, dt))
        self.attempted += 1
        if reason is None:
            obs = call.observe(result)
            self.observed[call.label] = obs
            if self.expected is not None:
                if call.label not in self.expected:
                    reason = "no pinned answer"
                elif obs != self.expected[call.label]:
                    reason = f"answered {obs!r}, pinned {self.expected[call.label]!r}"
            if reason is None:
                reason = call.verify(result)
            n = call.nodes(result)
            if n is not None:
                self.nodes[call.label] = n
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{call.label}: {reason}")
        self.ref.sample()
        return dt

    def timed(self, calls, seconds):
        """One whole pass in order, then rounds until `seconds` have elapsed.
        The heavy calls are the SLOW slowest of the first pass that took more
        than HEAVY times its median latency; the rest are cheap.  Before each
        heavy call in turn, rounds of the cheap calls run for ROUND_TIME
        times as long as the heavy call last took, at least one round; then
        the heavy call runs, unless its last latency says it would end after
        `seconds`.  So heavy calls get one or more samples, cheap calls many,
        spread over the whole run, and a workload of like calls (cli) runs
        whole passes.  SLOW is below the ten calls beyond call_tail_ms, so
        the calls that set call_p50_ms and call_tail_ms all have many
        samples."""
        start = time.perf_counter()
        lat = [self.one(call) for call in calls]
        order = sorted(range(len(calls)), key=lambda i: -lat[i])
        cut = HEAVY * statistics.median(lat)
        heavy = [calls[i] for i in order[:SLOW] if lat[i] > cut]
        cheap = [calls[i] for i in sorted(order[len(heavy):])]
        last = {call.label: dt for call, dt in zip(calls, lat)}

        def left():
            return seconds - (time.perf_counter() - start)

        while True:
            for call in heavy or [None]:
                budget = ROUND_TIME * last[call.label] if call else 0.0
                while True:
                    for c in cheap:
                        if left() <= 0:
                            return
                        budget -= self.one(c)
                    if budget <= 0:
                        break
                if call is not None and last[call.label] <= left():
                    last[call.label] = self.one(call)

    def once(self, calls, tracer=None):
        """One pass; returns its wall time (sum of call latencies), raw and
        host-adjusted."""
        samples = []
        for i, c in enumerate(calls):
            self.one(c, tracer, f"{c.label}#{i}")
            samples.append(self.lat[c.label][-1])
        return (sum(dt for _, dt in samples),
                sum(dt * self.ref.scale(t, dt) for t, dt in samples))

    def adjusted(self):
        """Each call's latency: the median over its repetitions of the
        host-adjusted time."""
        return {label: statistics.median(dt * self.ref.scale(t, dt) for t, dt in xs)
                for label, xs in self.lat.items()}


def tail(values):
    """Highest percentile with at least ten values beyond it: the value with
    exactly ten larger ones.  Returns (value, percentile, count)."""
    xs = sorted(values)
    n = len(xs)
    r = max(n - 10, 1)
    return xs[r - 1], 100.0 * r / n, n


def build(lg, name, seed, workdir, expected):
    if name == "search":
        return workloads.search(lg, workdir)
    if name == "mindim":
        return workloads.mindim(lg, workdir)
    if name == "classify":
        return workloads.classify(lg, workdir, expected or {})
    return workloads.cli(lg, seed, workdir)


LAYER_METRICS = [
    # (metric, span name, field, unit)
    ("graph_core.is_generic.total_s", "graph_core.is_generic", "total_s", "s"),
    ("graph_core.is_generic.calls", "graph_core.is_generic", "calls", "count"),
    ("graph_core.is_generic.pairs", "graph_core.is_generic", "pairs", "count"),
    ("graph_core.is_generic.budget_exceeded", "graph_core.is_generic", "budget_exceeded", "count"),
    ("graph_core.perturb_to_generic.self_s", "graph_core.perturb_to_generic", "self_s", "s"),
    ("instances.random_distance_function.self_s", "instances.random_distance_function", "self_s", "s"),
    ("graph_core.validate_distance_function.total_s", "graph_core.validate_distance_function",
     "total_s", "s"),
    ("graph_core.blocks.total_s", "graph_core.blocks", "total_s", "s"),
    ("graph_core.suppress_degree_2.total_s", "graph_core.suppress_degree_2", "total_s", "s"),
    ("realizability.decide_realizable.self_s", "realizability.decide_realizable", "self_s", "s"),
    ("realizability.decide_realizable.calls", "realizability.decide_realizable", "calls", "count"),
    ("realizability.decide_realizable.nodes", "realizability.decide_realizable", "nodes", "count"),
    ("realizability.arboricity.total_s", "realizability.arboricity", "total_s", "s"),
    ("realizability.vertex_cover_number.total_s", "realizability.vertex_cover_number",
     "total_s", "s"),
    ("realizability.build_realization.self_s", "realizability.build_realization", "self_s", "s"),
    ("realizability.verify_realization.total_s", "realizability.verify_realization",
     "total_s", "s"),
    ("potentials.find_potential.total_s", "potentials.find_potential", "total_s", "s"),
    ("potentials.find_potential.calls", "potentials.find_potential", "calls", "count"),
    ("minors.classify_dim2.self_s", "minors.classify_dim2", "self_s", "s"),
    ("minors.classify_dim2.calls", "minors.classify_dim2", "calls", "count"),
    ("minors.pullback_distance.self_s", "minors.pullback_distance", "self_s", "s"),
    ("minors.certificate_exceeds_2.self_s", "minors.certificate_exceeds_2", "self_s", "s"),
    ("serialize.load_instance.total_s", "serialize.load_instance", "total_s", "s"),
    ("serialize.save_instance.total_s", "serialize.save_instance", "total_s", "s"),
    ("serialize.save_certificate.total_s", "serialize.save_certificate", "total_s", "s"),
    ("cli.main.self_s", "cli.main", "self_s", "s"),
]


def layer_metrics(summary, with_setup):
    """Per-layer metrics of the traced pass; the serialize layer also counts
    the instance loading done during setup."""
    def get(span, field):
        src = with_setup if span.startswith("serialize.") else summary
        return src[span][field] if span in src else 0.0

    out = {metric: (get(span, field), unit) for metric, span, field, unit in LAYER_METRICS}
    dr = "realizability.decide_realizable"
    self_s, calls = get(dr, "self_s"), get(dr, "calls")
    out[dr + ".nodes_per_s"] = (get(dr, "nodes") / self_s if self_s else 0.0, "1/s")
    out[dr + ".found_ratio"] = (get(dr, "found") / calls if calls else 0.0, "ratio")
    cd = "minors.classify_dim2"
    calls = get(cd, "calls")
    out[cd + ".exceeds_ratio"] = (get(cd, "exceeds") / calls if calls else 0.0, "ratio")
    return out


def print_shares(summary, denom):
    log(f"layer shares of the traced pass ({denom:.3f} s of calls):")
    log(f"  {'span':44s} {'self_s':>9s} {'total_s':>9s} {'calls':>8s} {'self%':>6s} {'total%':>6s}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {name:44s} {row['self_s']:9.4f} {row['total_s']:9.4f} {int(row['calls']):8d} "
            f"{100 * row['self_s'] / denom:6.1f} {100 * row['total_s'] / denom:6.1f}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=int, default=time.monotonic_ns(),
                    help="parent's CLOCK_MONOTONIC ns at spawn")
    ap.add_argument("--workdir", default=os.path.join(ROOT, ".perfbench-work", "pin"))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--pin", action="store_true", help="record answers into expected.json")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    t = time.perf_counter()
    import linfgraph as lg
    import linfgraph.cli  # noqa: F401  (bound as lg.cli for in-process calls)
    import_s = time.perf_counter() - t

    os.makedirs(args.workdir, exist_ok=True)
    pins = pinned_nodes = None
    if not args.pin:
        with open(EXPECTED, encoding="utf-8") as fh:
            pinned = json.load(fh)[args.workload]
        pins, pinned_nodes = pinned["answers"], pinned["nodes"]

    tracer = Tracer() if args.trace else None
    setup_span = None
    if tracer:
        tracer.install()
        setup_span = tracer.begin("bench.setup", "setup")
    calls = build(lg, args.workload, args.seed, args.workdir, pins)
    setup_s = (time.monotonic_ns() - args.t0) / 1e9
    if tracer:
        tracer.end(setup_span)
        tracer.uninstall()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return

    if args.pin:
        pin(lg, args, calls)
        return

    loop = Loop(pins)
    loop.timed(calls, args.seconds)
    lat = loop.adjusted()
    raw = {label: statistics.median(dt for _, dt in xs) for label, xs in loop.lat.items()}
    with open(os.path.join(os.path.dirname(args.workdir),
                           f"calls-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"calls": {label: {"adjusted_s": lat[label], "samples": xs}
                             for label, xs in loop.lat.items()},
                   "reference": list(zip(loop.ref.starts, loop.ref.times))}, fh)
    wall_s = sum(lat.values())
    tail_value, tail_pct, n_calls = tail(lat.values())
    report = {
        "setup_s": setup_s, "import_s": import_s, "wall_s": wall_s,
        "call_p50_ms": 1000 * statistics.median(lat.values()),
        "call_tail_ms": 1000 * tail_value, "tail_percentile": tail_pct, "calls_per_pass": n_calls,
        "raw_wall_s": sum(raw.values()), "raw_p50_ms": 1000 * statistics.median(raw.values()),
        "host_scale": loop.ref.overall(), "ref_samples": len(loop.ref.times),
        "min_samples": min(len(xs) for xs in loop.lat.values()),
        "nodes_per_pass": sum(loop.nodes.values()),
    }
    ru = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    report["peak_rss_mb"] = resource.getrusage(ru).ru_maxrss / 1024

    if tracer:
        if args.workload == "cli":
            inproc = workloads.cli(lg, args.seed, args.workdir, in_process=True)
            untraced = loop.once(inproc)[1]
            report["cli_startup_s"] = wall_s - untraced
            log(f"cli.startup_s {wall_s - untraced:.4f} s = {100 * (1 - untraced / wall_s):.1f}% "
                f"of the {wall_s:.4f} s subprocess pass; in-process main {untraced:.4f} s "
                f"(both host-adjusted)")
        else:
            inproc, untraced = calls, wall_s
        tracer.install()
        traced, traced_adjusted = loop.once(inproc, tracer)
        tracer.uninstall()
        summary = tracer.summary()
        print_shares(summary, traced)
        metrics = layer_metrics(summary, tracer.summary(with_setup=True))
        metrics["trace.wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced_adjusted - untraced, "s")
        report["layers"] = metrics
        tracer.dump(os.path.join(os.path.dirname(args.workdir),
                                 f"spans-{args.workload}-seed{args.seed}.jsonl"))

    moved = sorted(k for k, n in loop.nodes.items() if pinned_nodes.get(k, n) != n)
    if moved:
        log(f"node counts differ from the pinned ones on {len(moved)} calls "
            f"(reported, not gated): {', '.join(moved[:8])}")
    report.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    print(json.dumps(report))


def pin(lg, args, calls):
    """Record every call's answer and node count into expected.json.  For
    classify a second pass adds the certificate calls of exceeding graphs."""
    loop = Loop(None)
    loop.once(calls)
    if args.workload == "classify":
        calls = build(lg, args.workload, args.seed, args.workdir, loop.observed)
        loop = Loop(None)
        loop.once(calls)
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data[args.workload] = {"answers": loop.observed, "nodes": loop.nodes}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps({"pinned": len(loop.observed), "failed": loop.failed, "errors": loop.errors}))


if __name__ == "__main__":
    main()
