"""The service's priority job queue with request coalescing.

One :class:`Job` is one unit of guest execution.  The queue gives the
serving layer three properties the bare worker pool does not have:

* **Coalescing** -- identical points (same cache key) that are
  queued or running share a single execution; late
  arrivals attach to the in-flight job and wake on the same event.
  Under a repeated-point load (the common case for a result service)
  this collapses a thundering herd to one simulation.
* **Priorities** -- interactive kernel calls are dequeued before
  queued sweep batch work, FIFO within a priority class.
* **Backpressure** -- admission is bounded by a configurable queue
  depth; when full, :meth:`JobQueue.submit` refuses instead of letting
  latency grow without bound (the server maps that to 429).

The queue is the *scheduling* layer only: execution, deadlines and
caching live in :mod:`repro.serve.executor`.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..harness.parallel import SweepPoint, point_key
from ..harness.runner import SafeRunOutcome
from ..sim.lockstep import LOCKSTEP_MIN_WIDTH

#: Lower sorts first in the ready heap.
PRIORITY_RANK = {"interactive": 0, "batch": 1}

#: ``JobQueue.submit`` verdicts.
ADMIT_NEW = "new"
ADMIT_COALESCED = "coalesced"
ADMIT_FULL = "full"
ADMIT_CLOSED = "closed"


class Job:
    """One admitted execution request and its completion state."""

    def __init__(self, point: SweepPoint, priority: str = "interactive",
                 deadline_at: Optional[float] = None):
        self.point = point
        self.priority = priority
        #: Absolute ``time.monotonic()`` deadline, or ``None``.
        self.deadline_at = deadline_at
        #: Coalescing identity: the disk-cache key (program hash +
        #: config + version salt).  A profiled request is the same
        #: point: its profile is built from the outcome afterwards.
        self.key: str = point_key(point)
        self.admitted_at = time.monotonic()
        #: How many *extra* requests attached to this execution.
        self.coalesced = 0
        #: How many times a worker has picked this job up.  The fleet
        #: supervisor bumps it per dispatch; a job whose worker died
        #: re-enters the queue, and once the count exceeds the
        #: redelivery bound the point is quarantined as poison.
        self.deliveries = 0
        self._done = threading.Event()
        self._callbacks_lock = threading.Lock()
        self._callbacks: List = []
        self.outcome: Optional[SafeRunOutcome] = None
        #: Set instead of ``outcome`` when the deadline cancelled the
        #: run (maps to a structured 504).
        self.timeout_detail: Optional[str] = None

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def timed_out(self) -> bool:
        return self.timeout_detail is not None

    def resolve(self, outcome: SafeRunOutcome) -> None:
        self.outcome = outcome
        self._done.set()
        self._fire_callbacks()

    def resolve_timeout(self, detail: str) -> None:
        self.timeout_detail = detail
        self._done.set()
        self._fire_callbacks()

    def add_done_callback(self, callback) -> None:
        """Run ``callback(job)`` once the job completes (immediately if
        it already has).  Used by the sweep journal to record progress
        without polling."""
        fire_now = False
        with self._callbacks_lock:
            if self._done.is_set():
                fire_now = True
            else:
                self._callbacks.append(callback)
        if fire_now:
            callback(self)

    def _fire_callbacks(self) -> None:
        with self._callbacks_lock:
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                pass  # a journal hiccup must never wedge a waiter

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)


def _stream(point: SweepPoint) -> Tuple:
    """What lockstep lanes share: every field of ``point`` but its seed."""
    return (point.name, point.ftype, point.mode, point.mem_latency,
            point.instruction_budget)


class JobQueue:
    """Bounded, coalescing, two-priority ready queue.

    ``inflight`` tracks jobs from admission until :meth:`finish` --
    i.e. both queued and currently-executing work -- which is exactly
    the coalescing window: a duplicate of a *finished* job is answered
    by the result cache instead.
    """

    def __init__(self, max_depth: int = 64):
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._heap: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._inflight: Dict[str, Job] = {}
        self._queued = 0
        self._closed = False

    @property
    def depth(self) -> int:
        """Jobs admitted but not yet picked up by a worker."""
        with self._lock:
            return self._queued

    @property
    def inflight(self) -> int:
        """Jobs admitted but not yet finished (queued + running)."""
        with self._lock:
            return len(self._inflight)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def submit(self, job: Job) -> Tuple[Job, str]:
        """Admit one job: ``(job, 'new')``, ``(existing, 'coalesced')``,
        ``(job, 'full')`` or ``(job, 'closed')``."""
        with self._lock:
            existing = self._inflight.get(job.key)
            if existing is not None:
                existing.coalesced += 1
                return existing, ADMIT_COALESCED
            if self._closed:
                return job, ADMIT_CLOSED
            if self._queued >= self.max_depth:
                return job, ADMIT_FULL
            self._admit_locked(job)
            return job, ADMIT_NEW

    def submit_all(self, jobs: List[Job],
                   force: bool = False) -> Optional[List[Tuple[Job, str]]]:
        """Atomically admit a batch (a sweep), or refuse it whole.

        Coalesced entries don't consume queue slots; if the *new* jobs
        don't all fit, nothing is admitted and ``None`` is returned, so
        a half-admitted sweep can never wedge the queue.  ``force``
        bypasses the depth cap (never the closed flag): journal replay
        re-admits work that was already accepted before a crash, and
        refusing it would break the durability promise.
        """
        with self._lock:
            if self._closed:
                return None
            verdicts: List[Tuple[Job, str]] = []
            fresh: List[Job] = []
            matched: Dict[str, Job] = {}
            for job in jobs:
                existing = self._inflight.get(job.key) or matched.get(job.key)
                if existing is not None:
                    verdicts.append((existing, ADMIT_COALESCED))
                else:
                    matched[job.key] = job
                    fresh.append(job)
                    verdicts.append((job, ADMIT_NEW))
            if not force and self._queued + len(fresh) > self.max_depth:
                return None
            for job in fresh:
                self._admit_locked(job)
            for existing, verdict in verdicts:
                if verdict == ADMIT_COALESCED:
                    existing.coalesced += 1
            return verdicts

    def _admit_locked(self, job: Job) -> None:
        rank = PRIORITY_RANK.get(job.priority, len(PRIORITY_RANK))
        heapq.heappush(self._heap, (rank, next(self._seq), job))
        self._inflight[job.key] = job
        self._queued += 1
        self._ready.notify()

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Take the best ready job; ``None`` on timeout.

        The job stays in the coalescing index until :meth:`finish`.
        """
        with self._ready:
            if not self._heap:
                self._ready.wait(timeout)
            if not self._heap:
                return None
            _, _, job = heapq.heappop(self._heap)
            self._queued -= 1
            return job

    def pop_compatible(self, head: Job) -> List[Job]:
        """Pop every ready job batchable with ``head``, or none.

        Lockstep-compatible jobs share ``head``'s instruction stream --
        same kernel, FP type, vectorization mode, memory latency and
        instruction budget, differing only in seed -- and carry no
        deadline (a deadline-derived budget cap is per-job, which a
        shared batch cannot honour).  They are taken only when they
        make a batch of at least :data:`~repro.sim.lockstep.
        LOCKSTEP_MIN_WIDTH` with ``head``; a narrower batch is slower
        than its jobs run one after another, so they stay queued for
        free workers.  Popped jobs stay in the coalescing index until
        :meth:`finish`, exactly like :meth:`pop`.  Admission is
        untouched: batching is a pop-time decision by the executor.
        """
        if head.deadline_at is not None:
            return []
        stream = _stream(head.point)
        with self._lock:
            taken, kept = [], []
            for entry in self._heap:
                job = entry[2]
                compatible = (job.deadline_at is None
                              and _stream(job.point) == stream)
                (taken if compatible else kept).append(entry)
            if len(taken) < LOCKSTEP_MIN_WIDTH - 1:
                return []
            self._heap[:] = kept
            heapq.heapify(self._heap)
            self._queued -= len(taken)
        taken.sort()
        return [entry[2] for entry in taken]

    def requeue(self, job: Job) -> None:
        """Put a popped-but-unfinished job back on the ready heap.

        Failover path: the worker holding the job died, so the job --
        still registered in the coalescing index, still awaited by its
        admitted waiters -- goes back for another worker to pick up.
        Bypasses admission control deliberately: the job was already
        admitted once, and refusing a redelivery would strand waiters.
        """
        rank = PRIORITY_RANK.get(job.priority, len(PRIORITY_RANK))
        with self._lock:
            heapq.heappush(self._heap, (rank, next(self._seq), job))
            self._queued += 1
            self._ready.notify()

    def finish(self, job: Job) -> None:
        """Close the coalescing window for a completed job."""
        with self._lock:
            if self._inflight.get(job.key) is job:
                del self._inflight[job.key]

    def close(self) -> None:
        """Stop admitting new work (drain mode); queued jobs still run."""
        with self._lock:
            self._closed = True

    def wake_all(self) -> None:
        """Nudge every blocked :meth:`pop` (used on shutdown)."""
        with self._ready:
            self._ready.notify_all()
