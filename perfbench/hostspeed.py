"""Host speed, sampled while the benchmark runs.

The benchmark runs on shared machines whose speed at running the same
Python code drifts by tens of percent within minutes.  While a run
measures, a background thread runs a fixed interpreter-bound chunk
every :data:`PERIOD_S` and records the chunk's thread CPU time (which
leaves out any wait for the interpreter lock).  :meth:`HostSpeed.factor`
is :data:`REFERENCE_S` over the mean chunk time within an interval.
A host time measured in that interval, multiplied by the factor, is the
time the same work takes at the reference speed; a rate is divided by
it.  The chunk never calls into the program, so a program that gets
faster still reads faster.  It does share cores, caches and the
interpreter with the program, so a change in how much the program runs
in parallel can move the factor as well; the result notes therefore
print every scaled metric next to its unscaled value.

The CPUs of a shared host drift apart too: one vCPU can run markedly
slower than the other for minutes.  The sampler therefore takes its
samples on each CPU the process may use in turn, and a workload with
one busy thread pins the whole process to one CPU (see ``run.py``), so
that the chunk is timed on the CPU the work runs on.
"""

from __future__ import annotations

import bisect
import itertools
import os
import statistics
import threading
import time

#: Chunk CPU time that defines the reference speed: scaled times read
#: as on a host that runs the chunk in this long.
REFERENCE_S = 375e-6
PERIOD_S = 0.05


class _Registers:
    __slots__ = ("a", "b")

    def __init__(self):
        self.a, self.b = 0, 1


def _chunk() -> int:
    """Work shaped like the simulators' inner loops: interpreter-bound
    register shuffling, then numpy operations on 32-element lanes.
    numpy is imported here, not at module level, so that a set-up timed
    from before the sampler starts includes numpy's import."""
    import numpy as np

    regs, state = [0] * 32, _Registers()
    for i in range(750):
        rd = (i * 7) & 31
        regs[rd] = (regs[(rd + 1) & 31] + i) & 0xFFFFFFFF
        state.a = state.b + regs[rd]
    lanes, values, acc = (np.arange(32, dtype=np.uint32),
                          np.arange(32, dtype=np.float64), 0)
    for i in range(30):
        lanes = ((lanes + i) & 0xFFFF).astype(np.uint32)
        scaled = np.where(lanes > 100, values * 1.5, values)
        acc += int(lanes[3]) + int(scaled.sum() > 0)
    return acc + state.a


class HostSpeed:
    """Background sampler; use as a context manager around the run."""

    def __init__(self, period: float = PERIOD_S):
        self._period = period
        self._at = []     # perf_counter() when each sample ended
        self._cpu = []    # the sample's thread CPU seconds
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="host-speed")

    def _sample(self) -> None:
        start = time.thread_time()
        _chunk()
        cpu = time.thread_time() - start
        self._cpu.append(cpu)
        self._at.append(time.perf_counter())  # last: readers index by it

    def _loop(self) -> None:
        # Each sample runs on the next CPU this process may use, so the
        # factor covers every CPU the program's threads can run on.
        cpus = itertools.cycle(sorted(os.sched_getaffinity(0)))
        while not self._stop.wait(self._period):
            os.sched_setaffinity(0, {next(cpus)})  # this thread only
            self._sample()

    def __enter__(self) -> "HostSpeed":
        _chunk()  # imports numpy outside any sample
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Reference over measured speed for ``[start, end]`` (perf_counter
        times); the nearest sample stands in for an interval with none."""
        count = len(self._at)
        lo = bisect.bisect_left(self._at, start, 0, count)
        hi = bisect.bisect_right(self._at, end, 0, count)
        if lo >= hi:
            lo, hi = min(lo, count - 1), min(lo, count - 1) + 1
        return REFERENCE_S / statistics.fmean(self._cpu[lo:hi])
