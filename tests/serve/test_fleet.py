"""Fleet lifecycle edges: crashes, failover, quarantine, durability.

These tests inject *real* process faults (SIGKILL, scripted worker
exits) into a live :class:`~repro.serve.fleet.FleetSupervisor`, using
the chaos hooks on :class:`~repro.serve.fleet.FleetConfig` to widen
timing windows deterministically instead of racing the scheduler.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time

from repro.serve.fleet import CHAOS_LATENCY_ENV, FleetConfig
from repro.serve.schema import parse_kernel_request
from repro.serve.server import ReproServeApp

#: Fast supervision for tests: near-instant restart backoff.
FAST = dict(backoff_base=0.01, backoff_cap=0.1)


@contextlib.contextmanager
def fleet_app(tmp_path, workers=2, **config_kwargs):
    config = FleetConfig(**{**FAST, **config_kwargs})
    app = ReproServeApp(worker_processes=workers,
                        cache_dir=str(tmp_path / "cache"),
                        fleet_config=config)
    try:
        yield app
    finally:
        app.queue.close()
        app.executor.drain(timeout=30.0)
        app.close()


def kernel_request(seed, **extra):
    body = {"kernel": "atax", "ftype": "float16", "mode": "auto",
            "seed": seed}
    body.update(extra)
    return parse_kernel_request(body)


def wait_for(predicate, timeout=15.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestFleetBasics:
    def test_executes_and_serves_cache(self, tmp_path):
        with fleet_app(tmp_path) as app:
            status, _, payload = app.run_kernel(kernel_request(1))
            assert status == 200
            assert payload["served_from"] == "executed"
            assert payload["result"]["status"] == "ok"
            status, _, again = app.run_kernel(kernel_request(1))
            assert status == 200 and again["served_from"] == "cache"
            # The fleet answer is bit-identical to the first execution.
            assert (again["result"]["run"]["outputs"]
                    == payload["result"]["run"]["outputs"])

    def test_metrics_expose_per_worker_state(self, tmp_path):
        with fleet_app(tmp_path) as app:
            app.run_kernel(kernel_request(2))
            _, _, metrics = app.metrics_payload()
            fleet = metrics["fleet"]
            assert fleet["active_workers"] == 2
            assert len(fleet["workers"]) == 2
            for key in ("restarts", "worker_failures", "breaker_trips",
                        "redeliveries", "poisoned"):
                assert key in fleet
            for worker in fleet["workers"]:
                assert worker["state"] in ("starting", "idle", "busy",
                                           "backoff", "ejected", "stopped")
                assert worker["restarts"] == 0

    def test_healthz_reports_fleet(self, tmp_path):
        with fleet_app(tmp_path) as app:
            assert wait_for(lambda: app.executor.active_workers == 2)
            _, _, payload = app.healthz()
            assert payload["status"] == "ok"
            assert payload["fleet"] == {"active_workers": 2, "workers": 2}


class TestFailover:
    def test_sigkill_mid_request_fails_over_and_answers(self, tmp_path):
        # Injected latency holds the point mid-execution long enough
        # to SIGKILL its worker underneath it deterministically.
        with fleet_app(tmp_path, workers=2,
                       chaos_latency_ms=1500.0) as app:
            result = {}

            def call():
                result["response"] = app.run_kernel(kernel_request(3))

            thread = threading.Thread(target=call, daemon=True)
            thread.start()

            def busy_slot():
                return next((slot for slot in app.executor.slots
                             if slot.state == "busy"
                             and slot.pid is not None), None)

            assert wait_for(lambda: busy_slot() is not None)
            victim = busy_slot()
            os.kill(victim.pid, signal.SIGKILL)

            thread.join(timeout=60.0)
            assert not thread.is_alive()
            status, _, payload = result["response"]
            # The waiter got a real result from the redelivery, not an
            # error: kernel points are idempotent.
            assert status == 200
            assert payload["result"]["status"] == "ok"

            snapshot = app.executor.fleet_snapshot()
            assert snapshot["worker_failures"] >= 1
            assert snapshot["redeliveries"] >= 1
            assert wait_for(
                lambda: app.executor.fleet_snapshot()["restarts"] >= 1)

    def test_poison_point_quarantined_after_max_deliveries(self, tmp_path):
        # Seed 4242 makes every worker that touches it exit: the
        # pathological-point-kills-its-host scenario.  Redelivery must
        # stop at max_deliveries instead of serially killing workers.
        with fleet_app(tmp_path, workers=2, max_deliveries=2,
                       chaos_exit_seed=4242) as app:
            status, _, payload = app.run_kernel(kernel_request(4242))
            assert status == 200
            assert payload["result"]["status"] == "error"
            assert "poison" in payload["result"]["detail"]

            snapshot = app.executor.fleet_snapshot()
            assert snapshot["poisoned"] == 1
            assert snapshot["redeliveries"] == 1  # deliveries 1 -> 2
            from repro.harness.parallel import point_key
            assert app.executor.is_poisoned(
                point_key(kernel_request(4242).point))

            # Resubmission is answered instantly from quarantine -- no
            # further worker is sacrificed.
            failures_before = snapshot["worker_failures"]
            status, _, payload = app.run_kernel(kernel_request(4242))
            assert status == 200
            assert "quarantined" in payload["result"]["detail"]
            assert (app.executor.fleet_snapshot()["worker_failures"]
                    == failures_before)

            # A healthy point still executes fine afterwards.
            status, _, payload = app.run_kernel(kernel_request(5))
            assert status == 200 and payload["result"]["status"] == "ok"

    def test_breaker_ejects_slot_and_fleet_degrades(self, tmp_path):
        # One worker, breaker at 2: two scripted crashes eject the only
        # slot, and the fleet must degrade loudly -- structured errors
        # for the inflight waiter, 503 + degraded health for new work.
        with fleet_app(tmp_path, workers=1, breaker_threshold=2,
                       max_deliveries=10, chaos_exit_seed=4242) as app:
            status, _, payload = app.run_kernel(kernel_request(4242))
            assert status == 200
            assert payload["result"]["status"] == "error"
            assert "no healthy workers" in payload["result"]["detail"]

            snapshot = app.executor.fleet_snapshot()
            assert snapshot["breaker_trips"] == 1
            assert snapshot["active_workers"] == 0
            assert not app.executor.available

            _, _, health = app.healthz()
            assert health["status"] == "degraded"

            status, _, payload = app.run_kernel(kernel_request(6))
            assert status == 503
            assert payload["error"]["type"] == "no_healthy_workers"


class TestSupervisorDurability:
    """SIGKILL the whole server mid-sweep; the journal must resume it."""

    @staticmethod
    def _launch(tmp_path, latency_ms):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        env["PYTHONUNBUFFERED"] = "1"
        if latency_ms:
            env[CHAOS_LATENCY_ENV] = str(latency_ms)
        else:
            env.pop(CHAOS_LATENCY_ENV, None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1",
             "--journal", str(tmp_path / "sweeps.jsonl"),
             "--cache-dir", str(tmp_path / "cache")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        deadline = time.monotonic() + 60.0
        port = None
        captured = []
        while time.monotonic() < deadline:
            line = proc.stdout.readline()
            if not line:
                break
            captured.append(line)
            if "listening on http://" in line:
                port = int(line.split("http://", 1)[1]
                           .split()[0].rsplit(":", 1)[1])
                break
        assert port is not None, \
            f"server never reported its port: {''.join(captured)!r}"
        # Keep draining the pipe: a full pipe buffer would wedge the
        # server (and its forked workers, which inherit the fd).
        drainer = threading.Thread(
            target=lambda: [captured.append(line)
                            for line in proc.stdout],
            daemon=True)
        drainer.start()
        proc.captured_output = captured
        return proc, port

    def test_sigkilled_supervisor_resumes_sweep_from_journal(self,
                                                             tmp_path):
        from repro.serve import ServeClient

        journal_path = tmp_path / "sweeps.jsonl"
        points = [{"kernel": "atax", "ftype": "float16", "mode": "auto",
                   "seed": seed} for seed in (21, 22, 23, 24)]

        proc, port = self._launch(tmp_path, latency_ms=400)
        worker_pids = []
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=60.0)
            worker_pids = [worker["pid"]
                           for worker in client.metrics()["fleet"]["workers"]
                           if worker["pid"]]
            job_id = client.sweep(points)["job_id"]

            # Wait until at least one point completed (journaled +
            # cached), then SIGKILL with the sweep still incomplete.
            def done_points():
                try:
                    with open(journal_path, encoding="utf-8") as handle:
                        return sum(1 for line in handle
                                   if '"point_done"' in line)
                except OSError:
                    return 0

            assert wait_for(lambda: done_points() >= 1, timeout=60.0,
                            interval=0.02)
            first_boot_done = done_points()
            assert first_boot_done < len(points), \
                "sweep finished before the kill; slow it down"
        finally:
            proc.kill()
            proc.wait(timeout=10.0)

        # The SIGKILL'd supervisor must not leak immortal workers:
        # each orphan notices the reparenting and exits on its own.
        # (Leaked orphans accumulate across runs and starve the host.)
        def orphans_gone():
            for pid in worker_pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                return False
            return True

        assert wait_for(orphans_gone, timeout=15.0), \
            f"orphaned fleet workers survived the supervisor: {worker_pids}"

        # Restart against the same journal + cache: the sweep must
        # replay under the same job id and run only the unfinished tail.
        proc, port = self._launch(tmp_path, latency_ms=0)
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=60.0)
            status = client.wait_job(job_id, timeout=120.0)
            assert status["status"] == "done"
            assert status["completed"] == len(points)
            for row in status["results"]:
                assert row["result"]["status"] == "ok"

            metrics = client.metrics()
            assert metrics["journal"]["replayed_sweeps"] == 1
            # Points finished before the kill were served from the
            # cache, not re-executed.
            assert metrics["served"].get("cache", 0) >= first_boot_done
            executed = metrics["served"].get("executed", 0)
            assert executed <= len(points) - first_boot_done + 1
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)
