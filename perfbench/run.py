"""linfgraph benchmark: four closed-loop workloads, end-to-end metrics, and a
traced run that splits time by module.

    python3 perfbench/run.py --workload {search,mindim,classify,cli,all}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  Each workload runs in a fresh worker
process (perfbench/worker.py), one call at a time, with threads=1.  Set-up
is measured in that worker and in SETUP_PROBES more set-up-only workers;
setup_s is their median.  Times are host-adjusted (see calib.py).  With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced pass (see METRICS.md).  Exit code 0 when a result was printed, whether or not
every answer checked out (`correct` says that); another code, and no
result, when the workload could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("search", "mindim", "classify", "cli")
SETUP_PROBES = 8
RUN_BUDGET_S = 170  # a run must finish within 180 s


class BenchError(RuntimeError):
    pass


def spawn(argv, timeout):
    """Run a worker to completion; its last stdout line is its JSON report."""
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv,
                            "--t0", str(t0)],
                           capture_output=True, text=True, timeout=max(timeout, 1), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(argv[:2])} exceeded {timeout:.0f} s") from None
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(argv[:2])} exited {p.returncode}:\n{p.stderr[-3000:]}")
    return json.loads(lines[-1]), p.stderr


def reference_process(timeout):
    """Wall time of a fresh interpreter running calib.py, the host-speed
    reference for set-up."""
    t = time.perf_counter()
    try:
        subprocess.run([sys.executable, os.path.join(HERE, "calib.py")], check=True,
                       capture_output=True, timeout=max(timeout, 1), cwd=ROOT)
    except (subprocess.SubprocessError, OSError) as exc:
        raise BenchError(f"reference process failed: {exc}") from None
    return time.perf_counter() - t


def run_workload(name, seed, seconds, trace, deadline):
    """Set-up probes, then the measuring worker; returns (result, report lines)."""
    workdir = os.path.join(WORKDIR, f"run-{os.getpid()}-{name}")
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir", workdir]
    try:
        probes = []
        # each set-up is paired with a reference process started just before it
        for i in range(SETUP_PROBES + 1):
            ref = reference_process(deadline - time.monotonic())
            argv = common + (["--seconds", "0", "--setup-only"] if i < SETUP_PROBES else
                             ["--seconds", str(seconds), "--trace", str(trace)])
            report, stderr = spawn(argv, deadline - time.monotonic())
            probes.append((report, ref))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw_setups = [p["setup_s"] for p, _ in probes]
    setups = [p["setup_s"] * calib.REF_PROCESS_NOMINAL_S / ref for p, ref in probes]
    imports = [p["import_s"] for p, _ in probes]
    lines = [f"workload {name} (seed {seed}, {seconds} s, trace {trace})"]
    lines += ["  " + ln for ln in stderr.strip().splitlines()]
    attempted, failed = report["attempted"], report["failed"]
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in report["layers"].items()}
        metrics["cli.startup_s"] = {"value": report.get("cli_startup_s", 0.0), "unit": "s"}
        metrics["linfgraph.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "call_p50_ms": {"value": report["call_p50_ms"], "unit": "ms"},
            "call_tail_ms": {"value": report["call_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    for key, m in metrics.items():
        lines.append(f"  {key:50s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} calls; "
                 f"carried by the 'failed' and 'attempted' fields)")
    lines.append(f"  call_tail_ms is p{report['tail_percentile']:.1f} of "
                 f"{report['calls_per_pass']} calls (each the median of at least "
                 f"{report['min_samples']} samples); setup_s is the median of {len(setups)} set-ups; "
                 f"search nodes per pass {report['nodes_per_pass']}")
    lines.append(f"  host-adjusted times (perfbench/calib.py): run-wide scale "
                 f"{report['host_scale']:.4f} from {report['ref_samples']} reference samples; "
                 f"raw wall_s {report['raw_wall_s']:.6g} s, raw call_p50_ms "
                 f"{report['raw_p50_ms']:.6g} ms, raw setup_s {statistics.median(raw_setups):.6g} s")
    lines += [f"  FAILED {e}" for e in report["errors"]]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}, lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "linfgraph", "__init__.py")):
        print(f"error: no linfgraph sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    budget = RUN_BUDGET_S * len(names)
    deadline = time.monotonic() + budget
    results = {}
    try:
        for name in names:
            results[name], lines = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
