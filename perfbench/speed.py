"""The host's CPU speed, sampled while a workload runs.

The baseline machine is a 2-vCPU virtual machine on a shared host.
Its CPU switches every few seconds between a fast state and a state
about 1.5x slower, with the neighbours' load; one identical sweep
campaign, repeated back to back, took between 1.7 s and 3.2 s within
five minutes, and process CPU time tracked wall time throughout.  A
median over the campaigns of a run cannot remove that, because the
share of time spent in the slow state differs from run to run.

A probe thread therefore runs a fixed pure-Python loop every
``PERIOD`` seconds while a campaign runs and records the thread CPU
time each loop took.  The mean of those samples, against the loop's
time at the reference speed, is the factor by which the host ran slow
during that campaign; :meth:`SpeedProbe.scale` divides it out of the
campaign's wall time.  The probe holds the interpreter lock for about
one millisecond per period (about 1% of the campaign), the same on
every commit.  Only the single-threaded, in-process workloads use it:
the ``serve`` workload keeps both vCPUs busy, so its timings stay raw.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from typing import List

#: seconds between probe loops
PERIOD = 0.1
#: iterations of the probe loop (about 0.7 ms on the baseline machine)
LOOP = 1_000
#: thread CPU seconds of one probe loop at the reference speed: the
#: fast state of the baseline machine (2-vCPU Intel Xeon VM, Python 3.11)
REFERENCE = 0.70e-3

# The probe loop does what an interpreter does, list indexing and dict
# lookups, at random over about 2.5 MB.  A loop of pure arithmetic
# tracked the slow state less well: normalised campaign times still
# varied by 5.7% against 3.7% with this loop.
_KEYS = [f"k{i}" for i in range(4096)]
_INDEX = {key: i for i, key in enumerate(_KEYS)}
_TABLE = list(range(1 << 16))


def _loop() -> int:
    total = 0
    slot = 0
    for _ in range(LOOP):
        slot = (slot * 1103515245 + 12345) & 0xFFFF
        total += _TABLE[slot] + _INDEX[_KEYS[slot & 4095]]
    return total


class SpeedProbe:
    """Context manager: samples the CPU speed while its block runs.

    The slow state is a property of the vCPU, so the calling thread and
    the probe thread (which inherits its mask) are pinned to one vCPU
    for the length of the block; the workload must be single-threaded.
    """

    def __init__(self) -> None:
        #: thread CPU seconds of each probe loop
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._affinity)

    def _run(self) -> None:
        while True:
            started = time.thread_time()
            _loop()
            self.samples.append(time.thread_time() - started)
            if self._stop.wait(PERIOD):
                return

    def slowdown(self) -> float:
        """How many times slower than the reference the host ran."""
        return statistics.fmean(self.samples) / REFERENCE

    def scale(self, wall_seconds: float) -> float:
        """``wall_seconds`` at the reference CPU speed."""
        return wall_seconds / self.slowdown()
