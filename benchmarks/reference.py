"""Host-speed reference for the gaugecert benchmark.

The benchmark runs on a few vCPUs of a shared host whose speed moves in
phases: the same call can take 1.8 times as long for seconds or minutes at a
time, with no steal time to show it.  A set of runs that catches a slow phase
would then differ from one that did not by more than any bound worth
checking.  So the operation timings are interleaved with a fixed
pure-Python reference task, run in the same process and thread, and each
timing is reported scaled to the speed at which the reference takes
NOMINAL_S:

    reported = measured * NOMINAL_S / (median of the nearby reference times)

The reference does not touch gaugecert, so a change to the library moves the
scaled figures exactly as it moves the raw ones; the raw figures go into the
result record beside them.  The cyclic garbage collector is off while the
reference runs, so its time does not grow with the objects the library
keeps alive.
"""

from __future__ import annotations

import gc
import json
import re
import statistics
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# about the median reference time between operations on the 2-vCPU Xeon VM
# the benchmark was tuned on (Python 3.11); it only sets the scale of the
# reported figures
NOMINAL_S = 0.004
# each timing is scaled by the median of this many reference times around it
NEIGHBOURS = 9


_DOC = {f"k{i}": [i, str(i) * 3, {"x": i / 7, "y": [i, -i]}] for i in range(60)}
_PAIR = re.compile(r"(\d+)-(\w+)")


def _work():
    # three parts: small-integer, rational, list and dict arithmetic; big-integer
    # arithmetic; JSON, sorting and text.  Their mix followed the workloads'
    # speed across host phases better than any one part alone, which over- or
    # under-corrected.
    total = Fraction(0)
    counts = {}
    powers = []
    for i in range(1, 200):
        total += Fraction(i * i + 1, 2 * i + 3)
        counts[i % 37] = counts.get(i % 37, 0) + i * i
        powers.append(i ** 5 % 1009)
    powers.sort()
    x, y, acc = 3 ** 1500, 7 ** 1000, 0
    for i in range(55):
        acc = (acc + (x * y + i) // (y + i)) % x
    for _ in range(2):
        text = json.dumps(_DOC, sort_keys=True)
        items = sorted(json.loads(text).items(), key=lambda kv: kv[1][1])
        _PAIR.findall(" ".join(f"{k}-{v[1]}" for k, v in items))
    return total, counts, powers, acc


def reference_s() -> float:
    """Wall time of one run of the fixed reference task."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _work()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(times, refs):
    """``times`` scaled to the nominal reference speed.

    ``refs`` is a list of (position, reference seconds) in run order, where
    position is the number of timings taken before that reference ran.  Each
    timing is scaled by the median of the NEIGHBOURS references nearest to
    it in run order.
    """
    if not refs:
        raise ValueError("no reference timings to scale by")
    positions = [p for p, _ in refs]
    half = NEIGHBOURS // 2
    out = []
    for i, t in enumerate(times):
        k = bisect_left(positions, i + 1)  # first reference taken after timing i
        lo = max(0, min(k - half, len(refs) - NEIGHBOURS))
        local = statistics.median(r for _, r in refs[lo:lo + NEIGHBOURS])
        out.append(t * NOMINAL_S / local)
    return out
