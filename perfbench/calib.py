"""Host-speed reference for the benchmark's timings.

The benchmark runs on a few vCPUs of a shared host whose speed drifts in
phases of seconds to minutes: the same deterministic calls ran 1.6x slower
in one 24 s run than in the next, best-of-repetitions included.  So a run
also times `reference()`, a fixed piece of pure-Python work of the same kind
as linfgraph's hot loops (integer relaxations over an arc list, dict and
tuple traffic, `Fraction` sums), between the workload's calls, so that it
sees the same phases.  It lives here, not in linfgraph: a change to the
program never changes it.

Each timed call is scaled by `REF_NOMINAL_S / r`, where `r` is the median
reference time within WINDOW_S seconds of the call.  The result is the time
the call would have taken on a host where the reference takes
REF_NOMINAL_S, which is about its median on the machine of baseline.json.
Set-up is scaled the same way, by a reference process (see below).
A program change moves these adjusted times as it moves raw ones; a change
of host speed that slows the program and the reference alike cancels out.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REF_NOMINAL_S = 0.0007
WINDOW_S = 1.0
EVERY_S = 0.02
# Set-up is mostly interpreter start, imports and pure-Python input
# generation, so its reference is a whole process: a fresh interpreter that
# runs this file, doing REF_PROCESS_REPS reference() calls.  It takes about
# REF_PROCESS_NOMINAL_S on the machine of baseline.json.
REF_PROCESS_REPS = 70
REF_PROCESS_NOMINAL_S = 0.13

_N = 40
_ARCS = [(u, (u * 7 + k * 11 + 3) % _N, (u * 31 + k * 17) % 97 + 1)
         for u in range(_N) for k in range(3)]
_FRACS = [Fraction(i * 37 % 101 + 1, (i * 53) % 64 + 1) for i in range(24)]


def reference():
    """Fixed work: Bellman-Ford from eight sources over a fixed arc list,
    then a few Fraction sums.  Returns a value so the work cannot be skipped."""
    acc = 0
    for s in range(8):
        dist = {s: 0}
        for _ in range(6):
            changed = False
            for u, v, w in _ARCS:
                du = dist.get(u)
                if du is None:
                    continue
                nd = du + w
                if nd < dist.get(v, nd + 1):
                    dist[v] = nd
                    changed = True
            if not changed:
                break
        acc += sum(dist.values())
    total = Fraction(0)
    for q in _FRACS:
        total += q
    return acc, total


class Reference:
    """Reference samples taken between workload calls, at most one per
    EVERY_S seconds, so that they spread over the whole run."""

    def __init__(self):
        self.starts = []
        self.times = []

    def sample(self):
        t = time.perf_counter()
        if self.starts and t - (self.starts[-1] + self.times[-1]) < EVERY_S:
            return
        reference()
        self.starts.append(t)
        self.times.append(time.perf_counter() - t)

    def scale(self, start, seconds):
        """REF_NOMINAL_S over the median reference time within WINDOW_S of
        the interval [start, start + seconds]."""
        i = bisect.bisect_left(self.starts, start - WINDOW_S)
        j = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        return REF_NOMINAL_S / statistics.median(self.times[i:j] or self.times)

    def overall(self):
        """REF_NOMINAL_S over the median of all samples."""
        return REF_NOMINAL_S / statistics.median(self.times)


if __name__ == "__main__":
    for _ in range(REF_PROCESS_REPS):
        reference()
