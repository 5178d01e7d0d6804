"""Machine-speed probe: how fast this CPU runs plain Python while a job runs.

On a shared host the CPU that runs the benchmark is slowed, for spells of
a fraction of a second up to minutes, by other tenants: the same job takes
anything from 1x to 1.7x its uncontended time, and the share of slow
spells drifts from minute to minute.  Medians over a run cannot remove
that drift.  The probe measures it instead: a thread wakes every
``INTERVAL_S`` and times a fixed pure-Python loop (``REF_S`` long on an
uncontended CPU).  The mean loop time over a job, divided by ``REF_S``, is
the job's slowdown, and the job's wall time divided by it is the job's
time at uncontended speed.

The loop is the same kind of work as the program's hot paths (bytecode,
small tuples, dict stores, float arithmetic), and it tracks their slowdown
(measured: 1x..1.5x spells cut the spread of single axiom_suite jobs from
0.16 to 0.03 of their median).  A loop walking a large array of objects
does not track it; the slow spells are not memory-bound.

The process must be pinned to one CPU (``pin_to_one_cpu``), so that the
probe measures the CPU the job runs on.  It holds the GIL for one loop
(about 0.2 ms) every ``INTERVAL_S``, about 1% of the job.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

INTERVAL_S = 0.02
# the loop's time on an uncontended 2-vCPU Intel Xeon VM, Python 3.11
REF_S = 180e-6


def probe_loop() -> float:
    acc = 0.0
    d = {}
    for i in range(1200):
        t = (i, i * 0.5)
        d[i & 63] = t
        acc += t[1] * 0.25
    return acc


def time_probe_loop() -> float:
    start = time.perf_counter()
    probe_loop()
    return time.perf_counter() - start


def pin_to_one_cpu() -> int:
    """Pin this process (and the processes it starts) to its highest
    allowed CPU; returns that CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """``with SpeedProbe() as probe: ...`` samples the loop time in a thread
    until the block ends; ``probe.slowdown`` is then the mean sample over
    ``REF_S``.  The thread is stopped and joined on every way out."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="speed-probe", daemon=True)

    def _sample(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(time_probe_loop())

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.samples:  # a block shorter than one interval
            self.samples.append(time_probe_loop())

    @property
    def slowdown(self) -> float:
        return statistics.fmean(self.samples) / REF_S
