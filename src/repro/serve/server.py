"""JSON-over-HTTP front end: routing, admission, backpressure, drain.

Stdlib only (``http.server`` + ``threading``).  One
:class:`ReproServeApp` owns the whole serving state -- queue, worker
pool, disk cache, metrics, sweep-job registry -- and is independent of
the transport, so tests can drive it directly; :class:`ReproHTTPServer`
is a thin ``ThreadingHTTPServer`` that parses requests and maps app
results to status codes.

Endpoints::

    GET  /healthz           liveness (also reports drain state)
    GET  /metrics           queue depth, cache hit rate, guest MIPS,
                            latency percentiles, per-kernel counters
    POST /v1/kernel         run one point; ?profile=1 attaches a
                            repro.profile JSON payload (built from the
                            outcome, however it was served); ?verify=1 gates
                            admission on the static precision verifier
                            (422 with findings when it proves the
                            configuration unsafe)
    POST /v1/sweep          submit a point list; returns a job id
    GET  /v1/jobs/<id>      poll a sweep job

Admission for a kernel point is **cache first** (hits are answered
synchronously without touching the queue), then **coalescing** (an
identical in-flight point shares one execution), then the bounded
queue -- refused admissions return 429 with a ``Retry-After`` hint.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..harness.parallel import SweepPoint, resolve_cache
from ..harness.runner import SafeRunOutcome, kernel_profile
from .executor import KernelExecutor
from .fleet import FleetConfig, FleetSupervisor
from .jobs import ADMIT_CLOSED, ADMIT_COALESCED, ADMIT_FULL, Job, JobQueue
from .journal import SweepJournal, SweepJournalWriter, job_status_label
from .metrics import ServeMetrics
from .schema import (SERVE_SCHEMA_VERSION, KernelRequest,
                     RequestValidationError, error_payload,
                     outcome_payload, parse_kernel_request,
                     parse_sweep_request, point_payload)
from .verify import StaticVerifier

#: Ceiling on how long one synchronous /v1/kernel call may block.
MAX_SYNC_WAIT_SECONDS = 300.0

#: Completed sweep jobs retained for polling (oldest evicted first).
MAX_RETAINED_JOBS = 256


def _result_payload(outcome: SafeRunOutcome,
                    request: KernelRequest) -> Dict:
    """A response's ``result``: the outcome, plus its profile when the
    request asked for one.  The profile is built here from the run's
    trace, so executed, coalesced, lockstep-batched and cached outcomes
    all profile the same way."""
    profile = None
    if request.profile and outcome.run is not None:
        profile = kernel_profile(outcome.run,
                                 request.point.seed).to_payload()
    return outcome_payload(outcome, profile)


class SweepJob:
    """One async sweep: a list of (point, per-point state) rows."""

    def __init__(self, job_id: str, rows: List[Dict]):
        self.job_id = job_id
        self.rows = rows  # {"point", "source", "job"|"payload"}
        self.submitted_at = time.time()

    def status_payload(self, include_results: bool = True) -> Dict:
        completed = 0
        results = []
        for row in self.rows:
            job: Optional[Job] = row.get("job")
            if job is None or job.done:
                completed += 1
                if include_results:
                    results.append(self._row_payload(row))
        done = completed == len(self.rows)
        payload = {
            "schema": SERVE_SCHEMA_VERSION,
            "job_id": self.job_id,
            "status": "done" if done else "running",
            "total": len(self.rows),
            "completed": completed,
        }
        if include_results and done:
            payload["results"] = results
        return payload

    @staticmethod
    def _row_payload(row: Dict) -> Dict:
        entry = {"point": point_payload(row["point"]),
                 "served_from": row["source"]}
        job: Optional[Job] = row.get("job")
        if job is None:
            entry["result"] = row["payload"]
        elif job.timed_out:
            entry.update(error_payload("deadline_exceeded",
                                       job.timeout_detail))
        else:
            entry["result"] = outcome_payload(job.outcome)
        return entry


class ReproServeApp:
    """Transport-independent serving core."""

    def __init__(
        self,
        workers: int = 2,
        cache_dir: Optional[str] = None,
        max_queue: int = 64,
        default_deadline_ms: Optional[int] = None,
        runner=None,
        worker_processes: Optional[int] = None,
        journal_path: Optional[str] = None,
        fleet_config: Optional[FleetConfig] = None,
        verify_config=None,
    ):
        # A service without a cache cannot amortize anything, so when
        # no directory is given (and no env default), use a private
        # per-process one.
        if cache_dir is None:
            cache = resolve_cache(None)
            if cache is None:
                import tempfile

                self._cache_tmp = tempfile.TemporaryDirectory(
                    prefix="repro-serve-cache-")
                cache = resolve_cache(self._cache_tmp.name)
        else:
            cache = resolve_cache(cache_dir)
        self.cache = cache
        self.max_queue = max_queue
        self.default_deadline_ms = default_deadline_ms
        self.metrics = ServeMetrics()
        self.queue = JobQueue(max_depth=max_queue)
        if worker_processes:
            # Supervised multi-process fleet: crash-isolated workers,
            # heartbeats, failover, circuit breakers (repro.serve.fleet).
            self.executor = FleetSupervisor(
                self.queue, workers=worker_processes, cache=self.cache,
                metrics=self.metrics,
                config=fleet_config or FleetConfig.from_env())
        else:
            # Pop-time lockstep coalescing: compatible queued sweep
            # points (same program/config, seed-only variation) share
            # one batched instruction stream, bit-identical per point.
            # The fleet path stays per-point (its failover protocol
            # redelivers single jobs).
            kwargs = {} if runner is None else {"runner": runner}
            self.executor = KernelExecutor(
                self.queue, workers=workers, cache=self.cache,
                metrics=self.metrics, **kwargs)
        # Static admission gate for ?verify=1 requests.  ``verify_config``
        # (a repro.analysis LintConfig) tightens or relaxes the checks;
        # the default arms every absint-backed lint with its defaults.
        self.verifier = StaticVerifier(verify_config)
        self.draining = False
        self._jobs: "collections.OrderedDict[str, SweepJob]" = \
            collections.OrderedDict()
        self._jobs_lock = threading.Lock()
        self._job_seq = itertools.count(1)
        self.journal: Optional[SweepJournal] = None
        self.journal_replayed_sweeps = 0
        if journal_path is not None:
            self.journal = SweepJournal(journal_path)
            for sweep in self.journal.incomplete():
                self._replay_sweep(sweep)

    def _replay_sweep(self, journaled) -> None:
        """Re-admit one crash-interrupted sweep from the journal.

        Cache-first admission means points that completed (and were
        cached) before the crash are answered without re-execution;
        only the unfinished tail is dispatched again.  Admission is
        forced past the depth cap -- this work was already accepted.
        """
        result = self._admit_sweep(
            [SweepPoint(*point) for point in journaled.points],
            deadline_ms=journaled.deadline_ms,
            priority=journaled.priority,
            job_id=journaled.job_id,
            journal_begin=False,  # the begin record survived the crash
            force=True)
        if isinstance(result, SweepJob):
            self.journal_replayed_sweeps += 1

    # ------------------------------------------------------------------
    # Endpoint logic: each returns (http_status, headers, payload)
    # ------------------------------------------------------------------
    @property
    def _executor_available(self) -> bool:
        return getattr(self.executor, "available", True)

    def _fleet_snapshot(self) -> Optional[Dict]:
        snapshot_fn = getattr(self.executor, "fleet_snapshot", None)
        return snapshot_fn() if snapshot_fn is not None else None

    def _journal_snapshot(self) -> Optional[Dict]:
        if self.journal is None:
            return None
        return {
            "path": self.journal.path,
            "replayed_sweeps": self.journal_replayed_sweeps,
            "skipped_records": self.journal.skipped_records,
        }

    def healthz(self) -> Tuple[int, Dict, Dict]:
        status = "draining" if self.draining else "ok"
        if not self.draining and not self._executor_available:
            status = "degraded"  # all circuit breakers open
        payload = {
            "status": status,
            "version": __version__,
            "schema": SERVE_SCHEMA_VERSION,
        }
        fleet = self._fleet_snapshot()
        if fleet is not None:
            payload["fleet"] = {"active_workers": fleet["active_workers"],
                                "workers": len(fleet["workers"])}
        return 200, {}, payload

    def metrics_payload(self) -> Tuple[int, Dict, Dict]:
        payload = {
            "schema": SERVE_SCHEMA_VERSION,
            "version": __version__,
        }
        payload.update(self.metrics.snapshot(
            queue_depth=self.queue.depth,
            inflight=self.queue.inflight,
            workers=self.executor.workers,
            cache=self.cache,
            fleet=self._fleet_snapshot(),
            journal=self._journal_snapshot()))
        return 200, {}, payload

    def _deadline_at(self, deadline_ms: Optional[int]) -> Optional[float]:
        effective = deadline_ms if deadline_ms is not None \
            else self.default_deadline_ms
        if effective is None:
            return None
        return time.monotonic() + effective / 1e3

    def _retry_after(self) -> int:
        """Seconds until a queue slot plausibly frees up."""
        mean = None
        snap = self.metrics.latency_snapshot()
        if snap["mean_ms"] is not None:
            mean = snap["mean_ms"] / 1e3
        per_slot = mean if mean else 0.5
        workers = max(1, self.executor.workers)
        estimate = (self.queue.depth + 1) * per_slot / workers
        return max(1, int(estimate + 0.999))

    def run_kernel(self, request: KernelRequest) -> Tuple[int, Dict, Dict]:
        """Synchronous single-point execution (the hot endpoint)."""
        started = time.monotonic()
        point = request.point

        # Static pre-admission gate: prove the configuration safe (or
        # refuse it) before it can consume a queue slot.  Verdicts are
        # cached by program fingerprint, so the compile+lint cost is
        # paid once per (kernel, ftype, mode).
        verified = None
        if request.verify:
            verdict, from_cache = self.verifier.verify(point)
            self.metrics.count_verification(rejected=not verdict.ok,
                                            cached=from_cache)
            if not verdict.ok:
                return 422, {}, error_payload(
                    "verification_failed", verdict.detail,
                    fingerprint=verdict.fingerprint,
                    findings=list(verdict.findings))
            verified = {"fingerprint": verdict.fingerprint,
                        "finding_count": verdict.finding_count,
                        "cached_verdict": from_cache}

        # Cache-first admission: hits never touch the queue.
        if self.cache is not None:
            cached = self.cache.get(point)
            if cached is not None:
                self.metrics.record_served(
                    point.name, "cache", cached,
                    time.monotonic() - started)
                payload = {
                    "schema": SERVE_SCHEMA_VERSION,
                    "served_from": "cache",
                    "point": point_payload(point),
                    "result": _result_payload(cached, request),
                }
                if verified is not None:
                    payload["verified"] = verified
                return 200, {}, payload

        if not self._executor_available:
            return 503, {}, error_payload(
                "no_healthy_workers",
                "every fleet worker has been ejected by its circuit "
                "breaker; restart the server")

        job = Job(point, priority=request.priority,
                  deadline_at=self._deadline_at(request.deadline_ms))
        job, verdict = self.queue.submit(job)
        if verdict == ADMIT_FULL:
            self.metrics.count_shed()
            retry = self._retry_after()
            return 429, {"Retry-After": str(retry)}, error_payload(
                "queue_full",
                f"queue depth {self.max_queue} reached; retry later",
                retry_after_seconds=retry)
        if verdict == ADMIT_CLOSED:
            return 503, {}, error_payload(
                "draining", "server is draining; not accepting new work")

        wait = MAX_SYNC_WAIT_SECONDS
        if job.deadline_at is not None:
            wait = min(wait, max(0.0, job.deadline_at - time.monotonic())
                       + 10.0)
        if not job.wait(wait):
            return 504, {}, error_payload(
                "wait_timeout",
                f"gave up waiting after {wait:.0f}s (job still running)")

        latency = time.monotonic() - started
        if job.timed_out:
            self.metrics.record_served(point.name, "executed", None, latency)
            return 504, {}, error_payload(
                "deadline_exceeded", job.timeout_detail,
                deadline_ms=request.deadline_ms
                if request.deadline_ms is not None
                else self.default_deadline_ms)

        source = "coalesced" if verdict == ADMIT_COALESCED else "executed"
        self.metrics.record_served(point.name, source, job.outcome, latency)
        payload = {
            "schema": SERVE_SCHEMA_VERSION,
            "served_from": source,
            "point": point_payload(point),
            "result": _result_payload(job.outcome, request),
        }
        if verified is not None:
            payload["verified"] = verified
        return 200, {}, payload

    def submit_sweep(self, request) -> Tuple[int, Dict, Dict]:
        """Async sweep: admit every point (atomically), return a job id."""
        if not self._executor_available:
            return 503, {}, error_payload(
                "no_healthy_workers",
                "every fleet worker has been ejected by its circuit "
                "breaker; restart the server")
        result = self._admit_sweep(list(request.points),
                                   deadline_ms=request.deadline_ms,
                                   priority=request.priority)
        if not isinstance(result, SweepJob):
            return result
        payload = result.status_payload(include_results=False)
        payload["poll"] = f"/v1/jobs/{result.job_id}"
        return 202, {}, payload

    def _admit_sweep(self, points: List, deadline_ms: Optional[int],
                     priority: str, job_id: Optional[str] = None,
                     journal_begin: bool = True, force: bool = False):
        """Admit a point list as one sweep; the journaled core.

        Returns the registered :class:`SweepJob`, or an HTTP error
        triple when admission is refused.  ``force`` (journal replay)
        bypasses the depth cap -- the work was accepted before a crash
        and refusing it again would break durability.
        """
        deadline_at = self._deadline_at(deadline_ms)
        rows: List[Dict] = []
        to_admit: List[Tuple[Dict, Job]] = []
        for point in points:
            row: Dict = {"point": point}
            cached = self.cache.get(point) if self.cache is not None else None
            if cached is not None:
                row["source"] = "cache"
                row["payload"] = outcome_payload(cached)
                row["job"] = None
                self.metrics.record_served(point.name, "cache", cached, 0.0)
            else:
                job = Job(point, priority=priority, deadline_at=deadline_at)
                to_admit.append((row, job))
            rows.append(row)

        if to_admit:
            verdicts = self.queue.submit_all(
                [job for _, job in to_admit], force=force)
            if verdicts is None:
                if self.queue.closed:
                    return 503, {}, error_payload(
                        "draining",
                        "server is draining; not accepting new work")
                self.metrics.count_shed()
                retry = self._retry_after()
                return 429, {"Retry-After": str(retry)}, error_payload(
                    "queue_full",
                    f"sweep needs {len(to_admit)} slots; queue depth "
                    f"{self.max_queue} reached", retry_after_seconds=retry)
            for (row, _), (admitted, verdict) in zip(to_admit, verdicts):
                row["job"] = admitted
                row["source"] = ("coalesced" if verdict == ADMIT_COALESCED
                                 else "executed")

        if job_id is None:
            job_id = f"sweep-{next(self._job_seq):06d}-{os.urandom(3).hex()}"
        sweep = SweepJob(job_id, rows)
        with self._jobs_lock:
            self._jobs[job_id] = sweep
            while len(self._jobs) > MAX_RETAINED_JOBS:
                self._jobs.popitem(last=False)
        self._journal_sweep(sweep, priority, deadline_ms, journal_begin)
        return sweep

    def _journal_sweep(self, sweep: SweepJob, priority: str,
                       deadline_ms: Optional[int],
                       journal_begin: bool) -> None:
        """Make one admitted sweep durable (no-op without a journal).

        The ``begin`` record is fsynced before the 202 leaves the
        server; each row then reports its completion through one
        :class:`SweepJournalWriter`, which emits ``end`` exactly once.
        """
        if self.journal is None:
            return
        if journal_begin:
            self.journal.record_begin(
                sweep.job_id, [row["point"] for row in sweep.rows],
                priority=priority, deadline_ms=deadline_ms)
        writer = SweepJournalWriter(self.journal, sweep.job_id,
                                    len(sweep.rows))
        for index, row in enumerate(sweep.rows):
            job: Optional[Job] = row.get("job")
            if job is None:
                writer.point_done(index, "cache")
            else:
                job.add_done_callback(
                    lambda done_job, i=index:
                        writer.point_done(i, job_status_label(done_job)))

    def job_status(self, job_id: str) -> Tuple[int, Dict, Dict]:
        with self._jobs_lock:
            sweep = self._jobs.get(job_id)
        if sweep is None:
            return 404, {}, error_payload(
                "unknown_job", f"no sweep job {job_id!r} (jobs are "
                f"evicted after {MAX_RETAINED_JOBS} newer submissions)")
        return 200, {}, sweep.status_payload()

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self, timeout: float = 60.0) -> bool:
        """Stop admission, finish queued work, stop the workers."""
        self.draining = True
        self.queue.close()
        return self.executor.drain(timeout=timeout)

    def close(self) -> None:
        if self.journal is not None:
            self.journal.close()
        tmp = getattr(self, "_cache_tmp", None)
        if tmp is not None:
            tmp.cleanup()


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"

    @property
    def app(self) -> ReproServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # -- helpers -------------------------------------------------------
    def _send(self, status: int, payload: Dict,
              headers: Optional[Dict] = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)
        self.app.metrics.count_response(status)

    def _read_json(self) -> Optional[Dict]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise RequestValidationError("empty request body")
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestValidationError(f"invalid JSON body: {exc}")

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        app = self.app
        if parsed.path == "/healthz":
            app.metrics.count_request("healthz")
            self._send(*self._pack(app.healthz()))
        elif parsed.path == "/metrics":
            app.metrics.count_request("metrics")
            self._send(*self._pack(app.metrics_payload()))
        elif parsed.path.startswith("/v1/jobs/"):
            app.metrics.count_request("jobs")
            job_id = parsed.path[len("/v1/jobs/"):]
            self._send(*self._pack(app.job_status(job_id)))
        else:
            self._send(404, error_payload(
                "not_found", f"no route for GET {parsed.path}"))

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        parsed = urlparse(self.path)
        app = self.app
        try:
            if parsed.path == "/v1/kernel":
                app.metrics.count_request("kernel")
                body = self._read_json()
                query = parse_qs(parsed.query)
                if query.get("profile", ["0"])[-1] in ("1", "true"):
                    body = dict(body)
                    body["profile"] = True
                if query.get("verify", ["0"])[-1] in ("1", "true"):
                    body = dict(body)
                    body["verify"] = True
                request = parse_kernel_request(body)
                self._send(*self._pack(app.run_kernel(request)))
            elif parsed.path == "/v1/sweep":
                app.metrics.count_request("sweep")
                request = parse_sweep_request(self._read_json())
                self._send(*self._pack(app.submit_sweep(request)))
            else:
                self._send(404, error_payload(
                    "not_found", f"no route for POST {parsed.path}"))
        except RequestValidationError as exc:
            app.metrics.count_rejected()
            self._send(400, error_payload("invalid_request", str(exc)))

    @staticmethod
    def _pack(result: Tuple[int, Dict, Dict]):
        status, headers, payload = result
        return status, payload, headers


class ReproHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    # Ephemeral-port reuse in quick test cycles.
    allow_reuse_address = True

    def __init__(self, address, app: ReproServeApp, verbose: bool = False):
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose


def make_server(app: ReproServeApp, host: str = "127.0.0.1",
                port: int = 0, verbose: bool = False) -> ReproHTTPServer:
    """Bind (``port=0`` picks an ephemeral port) but don't serve yet."""
    return ReproHTTPServer((host, port), app, verbose=verbose)


def run_server(server: ReproHTTPServer, app: ReproServeApp,
               install_signals: bool = True,
               drain_timeout: float = 60.0) -> bool:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    On signal: admission closes (new work gets 503), queued and running
    jobs finish and their waiting clients get real responses, then the
    listener shuts down.  Returns whether the drain completed in time.
    """
    stop = threading.Event()

    def request_stop(signum=None, frame=None):
        stop.set()

    if install_signals:
        signal.signal(signal.SIGTERM, request_stop)
        signal.signal(signal.SIGINT, request_stop)

    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.1},
        daemon=True)
    thread.start()
    try:
        stop.wait()
    except KeyboardInterrupt:  # pragma: no cover - direct ^C fallback
        pass
    drained = app.drain(timeout=drain_timeout)
    server.shutdown()
    thread.join(timeout=5.0)
    server.server_close()
    app.close()
    return drained
