"""Supervised multi-process serving fleet: crash-tolerant execution.

The in-process :class:`~repro.serve.executor.KernelExecutor` isolates
guest misbehaviour (traps, runaway budgets) but shares one interpreter
with the server: a worker that segfaults the host, leaks without
bound, or wedges in a C extension takes the whole service with it.
This module supervises N **worker subprocesses** instead, each with
its own fast-path engine and warm predecoded-program cache, and makes
the failure modes explicit:

* **Health**: every worker runs a heartbeat thread; the supervisor
  tracks the last beat it received and treats a stale-but-alive worker
  (e.g. SIGSTOP'd, or wedged outside the interpreter loop) as hung.
  Every dispatched request additionally has a wall-clock watchdog.
* **Restart policy**: a dead or hung worker is killed and respawned
  with exponential backoff; a per-worker circuit breaker ejects a slot
  from the routing set after ``breaker_threshold`` consecutive
  failures, so one bad slot (corrupt state, poisoned environment)
  cannot consume the fleet's capacity in a crash loop.
* **Failover**: a job whose worker died is redelivered to a healthy
  worker (kernel points are idempotent -- same point, same bits).
  Redelivery is bounded: after ``max_deliveries`` fatal dispatches the
  point is quarantined as *poison* and answered with a structured
  error, so one pathological configuration cannot serially kill every
  worker.
* **Terminal answers**: every admitted job resolves -- with a result,
  a structured timeout, or a structured error -- even when all workers
  are ejected or the fleet is force-stopped.  Waiters never hang.

The supervisor drains the same :class:`~repro.serve.jobs.JobQueue` the
thread executor does (cache-first admission, coalescing and
backpressure are unchanged); ``repro serve --workers N`` selects it.

Chaos hooks (used by :mod:`repro.serve.chaos` and the lifecycle
tests) are plumbed through :class:`FleetConfig`: scripted per-request
latency and a "crash on this seed" trapdoor that simulates a
pathological point killing its host process.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..harness.parallel import DiskResultCache, SweepPoint, run_point
from ..harness.runner import SafeRunOutcome
from .executor import MipsEstimator
from .jobs import Job, JobQueue
from .metrics import ServeMetrics

#: Worker poll interval while idle (also the drain latency floor).
_POLL_SECONDS = 0.05

#: Exit code a worker uses for the scripted chaos crash, so tests can
#: tell a deliberate kill from an accidental one.
CHAOS_EXIT_CODE = 86

#: Environment knobs honoured by :meth:`FleetConfig.from_env`, so a
#: CLI-launched fleet can be put under chaos without code changes.
CHAOS_LATENCY_ENV = "REPRO_FLEET_CHAOS_LATENCY_MS"
CHAOS_EXIT_SEED_ENV = "REPRO_FLEET_CHAOS_EXIT_SEED"


@dataclass
class FleetConfig:
    """Supervision policy for one fleet."""

    #: Heartbeat period inside each worker.
    heartbeat_interval: float = 0.25
    #: A worker whose last received beat is older than this (while its
    #: process still exists) is presumed hung and killed.
    heartbeat_timeout: float = 5.0
    #: Wall-clock watchdog for one dispatched request with no deadline.
    watchdog_seconds: float = 120.0
    #: Slack added on top of a request's own deadline before the
    #: watchdog fires (the deadline path must answer first).
    watchdog_grace: float = 5.0
    #: Fatal dispatches before a point is quarantined as poison.
    max_deliveries: int = 3
    #: Consecutive worker failures before the circuit breaker ejects
    #: the slot from the routing set.
    breaker_threshold: int = 5
    #: Exponential restart backoff: ``base * 2**(failures-1)``, capped.
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: Chaos: injected latency before every execution (milliseconds).
    chaos_latency_ms: float = 0.0
    #: Chaos: a worker dispatched a point with this seed exits
    #: immediately with :data:`CHAOS_EXIT_CODE`.
    chaos_exit_seed: Optional[int] = None

    @classmethod
    def from_env(cls, **overrides) -> "FleetConfig":
        """A config whose chaos knobs default from the environment."""
        kwargs = dict(overrides)
        raw = os.environ.get(CHAOS_LATENCY_ENV, "").strip()
        if raw and "chaos_latency_ms" not in kwargs:
            kwargs["chaos_latency_ms"] = float(raw)
        raw = os.environ.get(CHAOS_EXIT_SEED_ENV, "").strip()
        if raw and "chaos_exit_seed" not in kwargs:
            kwargs["chaos_exit_seed"] = int(raw)
        return cls(**kwargs)


# ----------------------------------------------------------------------
# Worker subprocess body
# ----------------------------------------------------------------------
def _worker_main(conn, parent_conn, worker_index: int,
                 heartbeat_interval: float, chaos_latency_ms: float,
                 chaos_exit_seed: Optional[int]) -> None:
    """One worker process: recv task, run point, send outcome, repeat.

    The process exits (never raises) on any pipe failure -- a closed
    pipe means the supervisor is gone, and an orphaned worker must not
    linger.  A heartbeat thread proves liveness even while the main
    thread is deep inside a long simulation.
    """
    # The supervisor's signal handlers (e.g. the CLI's SIGTERM drain
    # hook) are inherited across fork; a worker must die by default.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    # Fork copies the supervisor's end of our own pipe into this
    # process; left open, recv() below would never EOF after the
    # supervisor is SIGKILL'd and the orphan would block forever.
    if parent_conn is not None:
        try:
            parent_conn.close()
        except OSError:
            pass

    # Workers forked later inherit *earlier siblings'* parent pipe
    # ends too, which keeps those siblings' pipes open in a cycle no
    # close() here can break -- so the heartbeat loop also watches the
    # supervisor pid directly and exits once it is reparented.
    supervisor_pid = os.getppid()

    send_lock = threading.Lock()

    def send(message) -> bool:
        with send_lock:
            try:
                conn.send(message)
                return True
            except Exception:
                os._exit(0)

    def heartbeat_loop() -> None:
        while True:
            time.sleep(heartbeat_interval)
            if os.getppid() != supervisor_pid:  # supervisor SIGKILL'd
                os._exit(0)
            send(("hb", worker_index))

    threading.Thread(target=heartbeat_loop, daemon=True).start()
    send(("ready", os.getpid()))

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            os._exit(0)
        if message is None:  # orderly shutdown
            os._exit(0)
        task_id, point_tuple, max_instructions = message
        point = SweepPoint(*point_tuple)
        if chaos_exit_seed is not None and point.seed == chaos_exit_seed:
            os._exit(CHAOS_EXIT_CODE)
        if chaos_latency_ms > 0.0:
            time.sleep(chaos_latency_ms / 1e3)
        try:
            outcome = run_point(point, max_instructions=max_instructions)
        except BaseException as exc:  # belt and braces (runner is safe)
            outcome = SafeRunOutcome(
                status="error",
                detail=f"fleet worker: {type(exc).__name__}: {exc}")
        send(("done", task_id, outcome))


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class WorkerSlot:
    """Supervisor-side state for one worker position."""

    index: int
    process: Optional[object] = None
    conn: Optional[object] = None
    state: str = "starting"  # starting|idle|busy|backoff|ejected|stopped
    pid: Optional[int] = None
    last_heartbeat: float = field(default_factory=time.monotonic)
    restarts: int = 0
    consecutive_failures: int = 0
    requests: int = 0
    current_kernel: Optional[str] = None


class FleetSupervisor:
    """N supervised worker subprocesses over one :class:`JobQueue`.

    Drop-in for :class:`~repro.serve.executor.KernelExecutor` from the
    app's point of view: same ``workers``/``busy`` surface, same
    ``drain``; plus :meth:`fleet_snapshot` for ``/metrics`` and direct
    slot access for the chaos harness.
    """

    def __init__(
        self,
        queue: JobQueue,
        workers: int = 2,
        cache: Optional[DiskResultCache] = None,
        metrics: Optional[ServeMetrics] = None,
        config: Optional[FleetConfig] = None,
    ):
        import multiprocessing

        self.queue = queue
        self.cache = cache
        self.metrics = metrics
        self.config = config or FleetConfig()
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            self._ctx = multiprocessing.get_context()
        self._estimator = MipsEstimator()
        self._stop = threading.Event()
        self._state_lock = threading.Lock()
        self._task_seq = 0
        # Fleet-wide counters (read by fleet_snapshot under the lock).
        self.restarts_total = 0
        self.worker_failures = 0
        self.breaker_trips = 0
        self.redeliveries = 0
        self.poisoned = 0
        self._poison: Dict[str, int] = {}
        self.slots: List[WorkerSlot] = [
            WorkerSlot(index=i) for i in range(max(1, workers))]
        self._threads: List[threading.Thread] = []
        for slot in self.slots:
            thread = threading.Thread(
                target=self._slot_loop, args=(slot,),
                name=f"fleet-slot-{slot.index}", daemon=True)
            thread.start()
            self._threads.append(thread)

    # -- surface shared with KernelExecutor ----------------------------
    @property
    def workers(self) -> int:
        return len(self.slots)

    @property
    def active_workers(self) -> int:
        """Slots still in the routing set (breaker not tripped)."""
        return sum(1 for slot in self.slots
                   if slot.state not in ("ejected", "stopped"))

    @property
    def available(self) -> bool:
        return self.active_workers > 0

    @property
    def busy(self) -> int:
        return sum(1 for slot in self.slots if slot.state == "busy")

    def mips_estimate(self) -> float:
        return self._estimator.estimate()

    def budget_for(self, point: SweepPoint,
                   deadline_remaining_s: Optional[float]) -> int:
        return self._estimator.budget_for(point, deadline_remaining_s)

    def is_poisoned(self, key: str) -> bool:
        with self._state_lock:
            return key in self._poison

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: WorkerSlot, respawn: bool) -> bool:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, parent_conn, slot.index,
                  self.config.heartbeat_interval,
                  self.config.chaos_latency_ms, self.config.chaos_exit_seed),
            name=f"repro-fleet-worker-{slot.index}", daemon=True)
        try:
            process.start()
        except Exception:
            parent_conn.close()
            child_conn.close()
            return False
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.pid = process.pid
        slot.last_heartbeat = time.monotonic()
        slot.state = "idle"
        if respawn:
            slot.restarts += 1
            with self._state_lock:
                self.restarts_total += 1
        return True

    def _kill_worker(self, slot: WorkerSlot) -> None:
        process, conn = slot.process, slot.conn
        slot.process = None
        slot.conn = None
        slot.pid = None
        slot.current_kernel = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            try:
                process.kill()
            except Exception:
                pass
            process.join(timeout=5.0)

    def _backoff_delay(self, slot: WorkerSlot) -> float:
        if slot.consecutive_failures <= 0:
            return 0.0
        exponent = slot.consecutive_failures - 1
        return min(self.config.backoff_cap,
                   self.config.backoff_base * (2.0 ** exponent))

    def _heartbeat_stale(self, slot: WorkerSlot) -> bool:
        return (time.monotonic() - slot.last_heartbeat
                > self.config.heartbeat_timeout)

    def _drain_idle_messages(self, slot: WorkerSlot) -> bool:
        """Consume hb/ready chatter; False if the pipe is dead."""
        conn = slot.conn
        if conn is None:
            return False
        try:
            while conn.poll(0):
                conn.recv()
                slot.last_heartbeat = time.monotonic()
        except (EOFError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Failure accounting
    # ------------------------------------------------------------------
    def _record_failure(self, slot: WorkerSlot, reason: str) -> None:
        self._kill_worker(slot)
        slot.consecutive_failures += 1
        tripped = slot.consecutive_failures >= self.config.breaker_threshold
        with self._state_lock:
            self.worker_failures += 1
            if tripped:
                self.breaker_trips += 1
        if tripped:
            slot.state = "ejected"
        else:
            slot.state = "backoff"

    def _fail_job(self, job: Job, reason: str) -> None:
        """One fatal dispatch: redeliver, or quarantine as poison."""
        if job.deliveries >= self.config.max_deliveries:
            with self._state_lock:
                self._poison[job.key] = job.deliveries
                self.poisoned += 1
            job.resolve(SafeRunOutcome(
                status="error",
                detail=(f"poison point quarantined after {job.deliveries} "
                        f"fatal deliveries (last: {reason})")))
            self.queue.finish(job)
        else:
            with self._state_lock:
                self.redeliveries += 1
            self.queue.requeue(job)

    def _resolve_unservable(self, job: Job, detail: str) -> None:
        job.resolve(SafeRunOutcome(status="error", detail=detail))
        self.queue.finish(job)

    # ------------------------------------------------------------------
    # Slot loop
    # ------------------------------------------------------------------
    def _slot_loop(self, slot: WorkerSlot) -> None:
        while not self._stop.is_set():
            if slot.state == "ejected":
                self._reap_if_fleet_dead()
                return
            if slot.process is None or not slot.process.is_alive():
                if slot.process is not None:
                    # Died while idle (crash loop, OOM kill, chaos).
                    self._record_failure(slot, "worker died while idle")
                    continue
                delay = self._backoff_delay(slot)
                if delay > 0.0 and self._stop.wait(delay):
                    break
                if self._stop.is_set():
                    break
                if not self._spawn(slot, respawn=slot.consecutive_failures
                                   > 0 or slot.restarts > 0):
                    slot.consecutive_failures += 1
                    continue
            if not self._drain_idle_messages(slot):
                self._record_failure(slot, "pipe closed while idle")
                continue
            if self._heartbeat_stale(slot):
                self._record_failure(slot, "heartbeat stale while idle")
                continue
            job = self.queue.pop(timeout=_POLL_SECONDS)
            if job is None:
                continue
            self._handle(slot, job)
        slot.state = "stopped"

    def _handle(self, slot: WorkerSlot, job: Job) -> None:
        if self.is_poisoned(job.key):
            self._resolve_unservable(
                job, "point is quarantined as poison "
                     f"(killed {self.config.max_deliveries} workers)")
            return
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
                self.queue.finish(job)
                return
        self._dispatch(slot, job, remaining)

    def _dispatch(self, slot: WorkerSlot, job: Job,
                  deadline_remaining_s: Optional[float]) -> None:
        job.deliveries += 1
        budget = self.budget_for(job.point, deadline_remaining_s)
        deadline_limited = budget < job.point.instruction_budget
        with self._state_lock:
            self._task_seq += 1
            task_id = self._task_seq
        try:
            slot.conn.send((task_id, tuple(job.point), budget))
        except (OSError, ValueError, BrokenPipeError):
            self._record_failure(slot, "send to worker failed")
            self._fail_job(job, "worker unreachable at dispatch")
            return
        slot.state = "busy"
        slot.current_kernel = job.point.name
        watchdog = self.config.watchdog_seconds
        if deadline_remaining_s is not None:
            watchdog = min(watchdog,
                           deadline_remaining_s + self.config.watchdog_grace)
        watchdog_at = time.monotonic() + watchdog

        reply = None
        failure_reason = None
        while True:
            if self._stop.is_set():
                self._kill_worker(slot)
                self._resolve_unservable(job, "fleet shut down mid-request")
                slot.state = "stopped"
                return
            try:
                if slot.conn.poll(_POLL_SECONDS):
                    message = slot.conn.recv()
                    slot.last_heartbeat = time.monotonic()
                    if message and message[0] == "done" \
                            and message[1] == task_id:
                        reply = message
                        break
                    continue  # hb / ready / stale chatter
            except (EOFError, OSError):
                failure_reason = "worker died mid-request"
                break
            if not slot.process.is_alive():
                # One last non-blocking poll: the result may have been
                # flushed just before the process exited.
                try:
                    if slot.conn.poll(0):
                        continue
                except (EOFError, OSError):
                    pass
                failure_reason = "worker died mid-request"
                break
            if self._heartbeat_stale(slot):
                failure_reason = ("worker hung mid-request (heartbeat "
                                  f"stale > {self.config.heartbeat_timeout}s)")
                break
            if time.monotonic() >= watchdog_at:
                failure_reason = (f"watchdog expired after {watchdog:.1f}s "
                                  "mid-request")
                break

        slot.current_kernel = None
        if reply is None:
            self._record_failure(slot, failure_reason or "no reply")
            self._fail_job(job, failure_reason or "no reply")
            return

        _, _, outcome = reply
        slot.consecutive_failures = 0
        slot.requests += 1
        slot.state = "idle"
        if outcome.run is not None:
            self._estimator.observe(outcome.run.guest_mips)
        if outcome.status == "budget_exceeded" and deadline_limited:
            if self.metrics is not None:
                self.metrics.count_timeout()
            job.resolve_timeout(
                f"execution cancelled at {budget} instructions "
                f"(deadline-derived cap; estimate "
                f"{self.mips_estimate():.2f} MIPS)")
            self.queue.finish(job)
            return
        if self.cache is not None and not deadline_limited:
            try:
                self.cache.put(job.point, outcome)
            except Exception:
                pass  # cache is an optimisation, never a failure source
        job.resolve(outcome)
        self.queue.finish(job)

    def _reap_if_fleet_dead(self) -> None:
        """When the last slot ejects, keep answering the queue with
        structured errors so no admitted waiter hangs forever."""
        if self.active_workers > 0:
            return
        while not self._stop.is_set():
            job = self.queue.pop(timeout=_POLL_SECONDS)
            if job is None:
                continue
            self._resolve_unservable(
                job, "no healthy workers (all circuit breakers open)")

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def fleet_snapshot(self) -> Dict:
        now = time.monotonic()
        with self._state_lock:
            counters = {
                "restarts": self.restarts_total,
                "worker_failures": self.worker_failures,
                "breaker_trips": self.breaker_trips,
                "redeliveries": self.redeliveries,
                "poisoned": self.poisoned,
            }
        workers = []
        for slot in self.slots:
            workers.append({
                "index": slot.index,
                "pid": slot.pid,
                "state": slot.state,
                "restarts": slot.restarts,
                "consecutive_failures": slot.consecutive_failures,
                "requests": slot.requests,
                "current_kernel": slot.current_kernel,
                "heartbeat_age_s": round(now - slot.last_heartbeat, 3),
            })
        counters["active_workers"] = self.active_workers
        counters["workers"] = workers
        return counters

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> bool:
        """Finish all admitted work, then stop workers and threads.

        Call :meth:`JobQueue.close` first so nothing new is admitted.
        Returns ``True`` when the queue emptied in time; either way,
        the fleet is stopped afterwards and any still-running job is
        answered with a structured error rather than dropped.
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
            thread.join(timeout=10.0)
        for slot in self.slots:
            if slot.conn is not None:
                try:
                    slot.conn.send(None)
                except (OSError, ValueError, BrokenPipeError):
                    pass
            self._kill_worker(slot)
            slot.state = "stopped"
        return drained
