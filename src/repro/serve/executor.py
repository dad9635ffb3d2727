"""Bounded worker pool that drains the job queue.

Each worker thread pops the best ready job, enforces its deadline, and
runs the point crash-isolated via
:func:`repro.harness.parallel.run_point` (the same worker body the
parallel sweep harness uses), so a trapping or runaway guest comes
back as a status row -- never a dead server.

**Deadlines cancel via the instruction budget.**  The simulator's only
preemption mechanism is ``max_instructions``, so a wall-clock deadline
is translated into an instruction cap using a calibrated
guest-MIPS estimate (an EWMA over observed runs, seeded
conservatively).  When a run stops on a deadline-derived cap -- or its
deadline already passed while it sat in the queue -- the job resolves
as a structured timeout rather than a normal ``budget_exceeded``
outcome, and the result is *not* cached (it was produced under a
tighter budget than the request asked for).
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

from ..harness.parallel import (DiskResultCache, SweepPoint,
                                run_group_lockstep, run_point)
from ..harness.runner import SafeRunOutcome
from .jobs import Job, JobQueue
from .metrics import ServeMetrics

#: Guest-MIPS estimate before any run has been observed.  Deliberately
#: low: a pessimistic estimate under-caps the budget, which errs toward
#: honouring the wall-clock deadline.
DEFAULT_MIPS_ESTIMATE = 1.0

#: EWMA weight of the newest observation.
MIPS_EWMA_ALPHA = 0.25

#: Never cap a deadline budget below this many instructions -- enough
#: for the harness to produce a well-formed partial outcome.
MIN_DEADLINE_BUDGET = 1_000

#: Worker poll interval while idle (also the drain latency floor).
_POLL_SECONDS = 0.05


class MipsEstimator:
    """Shared EWMA of observed guest MIPS, for deadline -> budget maps.

    Both executors (the in-process thread pool here and the
    multi-process fleet in :mod:`repro.serve.fleet`) translate
    wall-clock deadlines into instruction caps through one of these.
    """

    def __init__(self, initial: float = DEFAULT_MIPS_ESTIMATE,
                 alpha: float = MIPS_EWMA_ALPHA):
        self._lock = threading.Lock()
        self._mips = initial
        self._alpha = alpha

    def estimate(self) -> float:
        with self._lock:
            return self._mips

    def observe(self, observed: float) -> None:
        if observed <= 0.0:
            return
        with self._lock:
            self._mips += self._alpha * (observed - self._mips)

    def budget_for(self, point: SweepPoint,
                   deadline_remaining_s: Optional[float]) -> int:
        """The effective ``max_instructions`` for one execution."""
        if deadline_remaining_s is None:
            return point.instruction_budget
        cap = int(deadline_remaining_s * self.estimate() * 1e6)
        cap = max(MIN_DEADLINE_BUDGET, cap)
        return min(point.instruction_budget, cap)


class KernelExecutor:
    """N worker threads over one :class:`JobQueue`."""

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        cache: Optional[DiskResultCache] = None,
        metrics: Optional[ServeMetrics] = None,
        runner: Callable[..., SafeRunOutcome] = run_point,
    ):
        self.queue = queue
        self.cache = cache
        self.metrics = metrics
        self._runner = runner
        # Batched execution goes through the lockstep engine directly,
        # not through ``runner``; a caller that injects its own runner
        # gets purely scalar semantics.
        self._batching = runner is run_point
        self._estimator = MipsEstimator()
        self._stop = threading.Event()
        self._busy = 0
        self._busy_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        for index in range(max(1, workers)):
            thread = threading.Thread(
                target=self._worker_loop, name=f"serve-worker-{index}",
                daemon=True)
            thread.start()
            self._threads.append(thread)

    @property
    def workers(self) -> int:
        return len(self._threads)

    @property
    def busy(self) -> int:
        with self._busy_lock:
            return self._busy

    # ------------------------------------------------------------------
    # Deadline -> instruction budget
    # ------------------------------------------------------------------
    def mips_estimate(self) -> float:
        return self._estimator.estimate()

    def _observe_mips(self, observed: float) -> None:
        self._estimator.observe(observed)

    def budget_for(self, point: SweepPoint,
                   deadline_remaining_s: Optional[float]) -> int:
        """The effective ``max_instructions`` for one execution."""
        return self._estimator.budget_for(point, deadline_remaining_s)

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            job = self.queue.pop(timeout=_POLL_SECONDS)
            if job is None:
                continue
            peers = self.queue.pop_compatible(job) if self._batching else []
            with self._busy_lock:
                self._busy += 1
            try:
                if peers:
                    self._execute_lockstep([job] + peers)
                else:
                    self._execute(job)
            finally:
                self.queue.finish(job)
                for peer in peers:
                    self.queue.finish(peer)
                with self._busy_lock:
                    self._busy -= 1

    def _execute_lockstep(self, jobs: List[Job]) -> None:
        """Run a batch of compatible jobs as one lockstep stream.

        Each job resolves with the exact outcome its scalar execution
        would have produced (the engine is bit-identical per lane).
        None of the jobs carries a deadline (:meth:`JobQueue.
        pop_compatible` guarantees it), so the budget is each point's
        own and results are cacheable.  A host-side
        batch failure falls back to per-job scalar execution, so
        batching can never lose work.
        """
        width = len(jobs)
        outcomes = run_group_lockstep([job.point for job in jobs])
        fallbacks = 0
        for job in jobs:
            outcome = outcomes[job.point]
            if outcome.status == "error":
                fallbacks += 1
                self._execute(job)
                continue
            if outcome.run is not None:
                # A lane's guest_mips is the batch's *aggregate* rate
                # (its sim_seconds is a 1/width share of the wall
                # clock); feed the estimator the per-lane rate so
                # deadline caps for scalar runs stay conservative.
                self._observe_mips(outcome.run.guest_mips / width)
            if self.cache is not None:
                try:
                    self.cache.put(job.point, outcome)
                except Exception:
                    pass  # cache is an optimisation, never a failure
            job.resolve(outcome)
        if self.metrics is not None:
            self.metrics.count_lockstep_batch(width, fallbacks)

    def _execute(self, job: Job) -> None:
        now = time.monotonic()
        remaining = None
        if job.deadline_at is not None:
            remaining = job.deadline_at - now
            if remaining <= 0.0:
                if self.metrics is not None:
                    self.metrics.count_timeout()
                job.resolve_timeout(
                    "deadline expired while queued "
                    f"({(now - job.admitted_at) * 1e3:.0f} ms waiting)")
                return
        budget = self.budget_for(job.point, remaining)
        deadline_limited = budget < job.point.instruction_budget
        try:
            outcome = self._runner(job.point, max_instructions=budget)
        except BaseException as exc:  # belt and braces (runner is safe)
            outcome = SafeRunOutcome(
                status="error",
                detail=f"executor: {type(exc).__name__}: {exc}")
        if outcome.run is not None:
            self._observe_mips(outcome.run.guest_mips)
        if outcome.status == "budget_exceeded" and deadline_limited:
            # The cap we imposed -- not the request's own budget --
            # stopped the run: that is a deadline cancellation.
            if self.metrics is not None:
                self.metrics.count_timeout()
            job.resolve_timeout(
                f"execution cancelled at {budget} instructions "
                f"(deadline-derived cap; estimate "
                f"{self.mips_estimate():.2f} MIPS)")
            return
        if self.cache is not None and not deadline_limited:
            try:
                self.cache.put(job.point, outcome)
            except Exception:
                pass  # cache is an optimisation, never a failure source
        job.resolve(outcome)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> bool:
        """Finish all admitted work, then stop the workers.

        Call :meth:`JobQueue.close` first so nothing new is admitted.
        Returns ``True`` when the queue emptied in time.
        """
        deadline = time.monotonic() + timeout
        drained = False
        while time.monotonic() < deadline:
            if self.queue.depth == 0 and self.busy == 0:
                drained = True
                break
            time.sleep(_POLL_SECONDS)
        self._stop.set()
        self.queue.wake_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        return drained
