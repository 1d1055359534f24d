"""Machine-speed calibration for the time metrics.

The benchmark runs on a shared 2-core VM that switches between a fast
and a slow state every few seconds as its neighbours come and go: a
fixed pure-Python loop takes about 30 ms in one state and 55 ms in the
other, and two runs of the same commit a minute apart differed by 30% in
raw round time.  The slow state belongs to the CPU the work runs on: the
same loop timed in a second process during the rounds correlates with
them at only 0.2.  So the worker times the loop itself, right before
every operation of a round, and scales that operation's seconds to the
speed at which the loop takes REFERENCE_S:

    calibrated = raw * REFERENCE_S / (loop time just before the operation)

A round's calibrated time is the sum over its operations.  In one
170-second stretch of criteria-sweep rounds, the spread (standard
deviation of the logarithm) of the mean over eight consecutive rounds
was 0.070 raw, 0.049 with one loop per round and the run's mean scale,
and 0.020 with one loop per operation.  A change to the package does not
touch the loop, so a slower program still reads slower; only the
machine's own speed is divided out.  Raw times and the loop times are
kept in every run record.

Set-up has a known start and end, so each set-up sample is scaled by
the mean of the loops its own process runs just before its imports and
just after its warm-up (three each), and ``setup_s`` is the median of
the scaled samples.  In 45 set-ups of criteria-sweep, taken five at a
time, the spread (q3 - q1) / median of the medians was 0.19 raw, 0.135
with the loops after set-up alone and 0.061 with the loops before and
after.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# Time of one reference loop on this machine in its fast state (2.0 GHz
# Xeon VM, Python 3.11), so calibrated seconds read close to raw ones.
REFERENCE_S = 0.02


def reference_loop() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    t0 = perf_counter()
    acc = 0.0
    table: dict = {}
    for i in range(86_000):
        acc += (i * 0.5) % 7.0
        table[i & 63] = acc
    return perf_counter() - t0


def speed_scale(reference_times) -> float:
    """Factor that turns seconds into calibrated seconds, given the loop times around them."""
    return REFERENCE_S / statistics.fmean(reference_times)


def calibrated_setup(setups, reference_times) -> float:
    """Median set-up time, each sample scaled by the loops of its own process."""
    return statistics.median(s * speed_scale(refs) for s, refs in zip(setups, reference_times))
