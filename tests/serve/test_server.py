"""Server edge cases: coalescing, backpressure, deadlines, drain.

Timing-sensitive behaviours are made deterministic with a *gated*
runner -- a stand-in for :func:`repro.harness.parallel.run_point` that
blocks until the test releases it -- so "identical requests while one
is in flight" and "queue full" are constructed states, not races.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.harness.parallel import SweepPoint
from repro.harness.runner import SafeRunOutcome, run_kernel
from repro.kernels import KERNELS
from repro.serve import ReproServeApp, ServeClient, ServeClientError
from repro.serve.executor import KernelExecutor
from repro.serve.jobs import Job, JobQueue
from repro.serve.server import make_server
from repro.sim import BLOCK_CACHE_SIZE
from repro.sim.lockstep import LOCKSTEP_MIN_WIDTH


class GatedRunner:
    """Counts executions; each blocks until :meth:`release`."""

    def __init__(self, outcome=None):
        self.gate = threading.Event()
        self.started = threading.Event()
        self.calls = 0
        self._lock = threading.Lock()
        self.outcome = outcome or SafeRunOutcome(status="ok")

    def __call__(self, point, max_instructions=None, profile=False):
        with self._lock:
            self.calls += 1
        self.started.set()
        assert self.gate.wait(20.0), "test never released the gate"
        return self.outcome

    def release(self):
        self.gate.set()


@contextlib.contextmanager
def serving(**app_kwargs):
    app = ReproServeApp(**app_kwargs)
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{server.server_address[1]}",
                         timeout=60.0)
    try:
        yield app, client
    finally:
        server.shutdown()
        thread.join(timeout=5.0)
        server.server_close()
        app.queue.close()
        app.executor.drain(timeout=10.0)
        app.close()


# ----------------------------------------------------------------------
# Acceptance: bit-identity with the one-shot harness, cache behaviour
# ----------------------------------------------------------------------
class TestKernelEndpoint:
    def test_results_bit_identical_to_direct_run(self):
        from repro.serve.schema import outcome_payload

        direct = run_kernel(KERNELS["gemm"], "float16", "auto",
                            mem_latency=1, seed=0)
        expected = outcome_payload(
            SafeRunOutcome(status="ok", run=direct))["run"]
        with serving(workers=2) as (app, client):
            response = client.run_kernel("gemm", "float16", "auto")
            got = response["result"]["run"]
            assert got["cycles"] == expected["cycles"]
            assert got["instret"] == expected["instret"]
            assert got["sqnr_db"] == expected["sqnr_db"]
            assert got["outputs"] == expected["outputs"]  # bit-identical
            assert response["served_from"] == "executed"

    def test_repeat_request_served_from_cache_with_metrics_hit(self):
        with serving(workers=2) as (app, client):
            first = client.run_kernel("atax", "float8", "scalar")
            second = client.run_kernel("atax", "float8", "scalar")
            assert first["served_from"] == "executed"
            assert second["served_from"] == "cache"
            assert (first["result"]["run"]["outputs"]
                    == second["result"]["run"]["outputs"])
            metrics = client.metrics()
            assert metrics["cache"]["hits"] == 1
            assert metrics["cache"]["hit_rate"] == 0.5
            assert metrics["cache"]["disk"]["hits"] == 1
            assert metrics["per_kernel"]["atax"]["requests"] == 2
            assert metrics["per_kernel"]["atax"]["executions"] == 1

    def test_repeat_point_reuses_compiled_program(self):
        # A new seed misses the result cache but not the compile cache.
        with serving(workers=2) as (app, client):
            first = client.run_kernel("syrk", "float16", "scalar", seed=11)
            before = client.metrics()["compile_cache"]
            second = client.run_kernel("syrk", "float16", "scalar", seed=12)
            after = client.metrics()["compile_cache"]
            assert first["served_from"] == second["served_from"] == "executed"
            assert before["entries"] >= 1
            assert after["hits"] == before["hits"] + 1
            assert after["misses"] == before["misses"]
            assert after["lints"] == before["lints"]

    def test_repeat_point_reuses_generated_blocks(self):
        # A new seed runs the same text: every block comes from the
        # process-wide block cache.
        with serving(workers=2) as (app, client):
            client.run_kernel("syrk", "float16", "scalar", seed=21)
            before = client.metrics()["block_cache"]
            client.run_kernel("syrk", "float16", "scalar", seed=22)
            after = client.metrics()["block_cache"]
            assert before["entries"] >= 1
            assert before["maxsize"] == BLOCK_CACHE_SIZE
            assert after["hits"] > before["hits"]
            assert after["misses"] == before["misses"]
            assert after["compiled"] == before["compiled"]

    def test_trap_free_outcome_statuses_are_results_not_errors(self):
        with serving(workers=1) as (app, client):
            # An exhausted *request-chosen* budget is a 200 result row.
            response = client.run_kernel("gemm", "float16", "auto",
                                         instruction_budget=100)
            assert response["result"]["status"] == "budget_exceeded"

    def test_profile_attaches_payload(self):
        from repro.profile import validate_payload

        with serving(workers=1) as (app, client):
            response = client.run_kernel("gemm", "float16", "auto",
                                         profile=True)
            assert response["served_from"] == "executed"
            validate_payload(response["result"]["profile"])
            # A profiled run is cached like any other, and a repeat
            # profiles the cached outcome to the same payload.
            again = client.run_kernel("gemm", "float16", "auto",
                                      profile=True)
            assert again["served_from"] == "cache"
            assert again["result"]["profile"] \
                == response["result"]["profile"]

    def test_profiled_request_is_served_from_cache(self):
        from repro.profile import validate_payload

        with serving(workers=1) as (app, client):
            plain = client.run_kernel("atax", "float16", "scalar")
            assert "profile" not in plain["result"]
            profiled = client.run_kernel("atax", "float16", "scalar",
                                         profile=True)
            assert profiled["served_from"] == "cache"
            validate_payload(profiled["result"]["profile"])
            direct = run_kernel(KERNELS["atax"], "float16", "scalar",
                                profile=True)
            assert profiled["result"]["profile"] \
                == direct.profile.to_payload()

    def test_profile_query_parameter(self):
        import json

        with serving(workers=1) as (app, client):
            body = json.dumps({"kernel": "atax"}).encode()
            request = urllib.request.Request(
                client.base_url + "/v1/kernel?profile=1", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=60) as response:
                payload = json.loads(response.read())
            assert "profile" in payload["result"]

    def test_invalid_request_is_structured_400(self):
        with serving(workers=1) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client.run_kernel("nonesuch")
            assert info.value.status == 400
            assert info.value.error_type == "invalid_request"
            assert client.metrics()["rejected"] == 1

    def test_unknown_route_404(self):
        with serving(workers=1) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client._request("GET", "/v2/kernel")
            assert info.value.status == 404


# ----------------------------------------------------------------------
# Coalescing: concurrent identical requests share one execution
# ----------------------------------------------------------------------
class TestLockstepBatching:
    @staticmethod
    def _run_queued(points):
        """Queue every point before the worker starts, so its first pop
        sees all of them; returns the resolved jobs and the metrics."""
        from repro.serve.metrics import ServeMetrics

        queue = JobQueue(max_depth=64)
        jobs = [queue.submit(Job(point))[0] for point in points]
        metrics = ServeMetrics()
        executor = KernelExecutor(queue, workers=1, metrics=metrics)
        try:
            assert all(job.wait(120.0) for job in jobs)
        finally:
            queue.close()
            executor.drain(timeout=10.0)
        return jobs, metrics

    def test_two_compatible_jobs_run_unbatched_in_the_app(self,
                                                          monkeypatch):
        # A two-lane batch runs 2.8-4x slower than its two jobs one
        # after another, so the executor the app builds runs each alone.
        from repro.serve import server as server_module

        queue = JobQueue(max_depth=64)
        jobs = [queue.submit(Job(SweepPoint("atax", "float16", "auto",
                                            seed=seed)))[0]
                for seed in (0, 1)]
        # The app's worker starts on a queue that already holds both.
        monkeypatch.setattr(server_module, "JobQueue",
                            lambda max_depth: queue)
        app = ReproServeApp(workers=1)
        try:
            assert all(job.wait(120.0) for job in jobs)
        finally:
            queue.close()
            app.executor.drain(timeout=10.0)
            app.close()
        assert app.metrics.lockstep_batches == 0
        assert [job.outcome.status for job in jobs] == ["ok", "ok"]

    def test_profiled_seed_variants_share_one_batch(self):
        from repro.profile import validate_payload
        from repro.serve.schema import KernelRequest
        from repro.serve.server import _result_payload

        points = [SweepPoint("atax", "float16", "auto", seed=seed)
                  for seed in range(LOCKSTEP_MIN_WIDTH)]
        jobs, metrics = self._run_queued(points)
        assert (metrics.lockstep_batches, metrics.lockstep_lanes,
                metrics.lockstep_fallbacks) == (1, LOCKSTEP_MIN_WIDTH, 0)
        for point, job in zip(points, jobs):
            result = _result_payload(job.outcome,
                                     KernelRequest(point, profile=True))
            validate_payload(result["profile"])
            direct = run_kernel(KERNELS["atax"], "float16", "auto",
                                seed=point.seed, profile=True)
            assert result["profile"] == direct.profile.to_payload()

    def test_failed_batch_reruns_every_job_on_the_scalar_path(
            self, monkeypatch):
        from repro.harness import parallel

        def broken_batch(*args, **kwargs):
            raise RuntimeError("lane state corrupted")

        monkeypatch.setattr(parallel, "run_kernel_batch", broken_batch)
        points = [SweepPoint("atax", "float16", "auto", seed=seed)
                  for seed in range(LOCKSTEP_MIN_WIDTH)]
        jobs, metrics = self._run_queued(points)
        assert all(job.outcome.ok for job in jobs)
        assert (metrics.lockstep_batches, metrics.lockstep_lanes,
                metrics.lockstep_fallbacks) == (
                    1, LOCKSTEP_MIN_WIDTH, LOCKSTEP_MIN_WIDTH)
        direct = run_kernel(KERNELS["atax"], "float16", "auto", seed=1)
        assert jobs[1].outcome.run.cycles == direct.cycles


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_execution(self):
        runner = GatedRunner()
        with serving(workers=1, runner=runner) as (app, client):
            responses = []

            def call():
                responses.append(client.run_kernel("gemm"))

            leader = threading.Thread(target=call)
            leader.start()
            assert runner.started.wait(10.0)  # leader is now executing
            followers = [threading.Thread(target=call) for _ in range(3)]
            for thread in followers:
                thread.start()
            deadline = time.monotonic() + 10.0
            while app.queue.inflight and \
                    next(iter(app.queue._inflight.values())).coalesced < 3:
                assert time.monotonic() < deadline, "followers never attached"
                time.sleep(0.01)
            runner.release()
            leader.join(10.0)
            for thread in followers:
                thread.join(10.0)

            assert runner.calls == 1  # four requests, one simulation
            assert len(responses) == 4
            sources = sorted(r["served_from"] for r in responses)
            assert sources == ["coalesced"] * 3 + ["executed"]
            metrics = client.metrics()
            assert metrics["served"]["coalesced"] == 3
            assert metrics["served"]["executed"] == 1

    def test_request_after_completion_does_not_coalesce(self):
        with serving(workers=1) as (app, client):
            client.run_kernel("atax")
            # The point has left the in-flight window; the repeat is a
            # cache hit, not a coalesced attach.
            response = client.run_kernel("atax")
            assert response["served_from"] == "cache"


# ----------------------------------------------------------------------
# Backpressure: 429 + Retry-After when the queue is full
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_full_queue_returns_429_with_retry_after(self):
        runner = GatedRunner()
        with serving(workers=1, max_queue=1, runner=runner) as (app, client):
            threads = []
            responses = []

            def call(seed):
                try:
                    responses.append(client.run_kernel("gemm", seed=seed))
                except ServeClientError as exc:
                    responses.append(exc)

            threads.append(threading.Thread(target=call, args=(0,)))
            threads[-1].start()
            assert runner.started.wait(10.0)  # worker busy with seed=0
            threads.append(threading.Thread(target=call, args=(1,)))
            threads[-1].start()
            deadline = time.monotonic() + 10.0
            while app.queue.depth < 1:  # seed=1 occupies the only slot
                assert time.monotonic() < deadline
                time.sleep(0.01)

            with pytest.raises(ServeClientError) as info:
                client.run_kernel("gemm", seed=2)
            assert info.value.status == 429
            assert info.value.error_type == "queue_full"
            assert info.value.retry_after is not None
            assert info.value.retry_after >= 1

            runner.release()
            for thread in threads:
                thread.join(10.0)
            assert all(isinstance(r, dict) for r in responses)
            assert client.metrics()["shed"] == 1

    def test_oversized_sweep_rejected_atomically(self):
        runner = GatedRunner()
        with serving(workers=1, max_queue=2, runner=runner) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client.sweep([{"kernel": "gemm", "seed": i}
                              for i in range(5)])
            assert info.value.status == 429
            assert app.queue.depth == 0  # nothing half-admitted
            runner.release()


# ----------------------------------------------------------------------
# Deadlines: structured timeout via the instruction-budget mechanism
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_deadline_expiry_returns_structured_timeout(self):
        with serving(workers=1) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client.run_kernel("gemm", "float16", "auto", seed=11,
                                  deadline_ms=1)
            assert info.value.status == 504
            assert info.value.error_type == "deadline_exceeded"
            assert "instructions" in info.value.detail
            assert client.metrics()["timeouts"] == 1

    def test_deadline_capped_run_is_not_cached(self):
        with serving(workers=1) as (app, client):
            with pytest.raises(ServeClientError):
                client.run_kernel("gemm", seed=12, deadline_ms=1)
            # The same point without a deadline must execute fresh --
            # the truncated partial run never entered the cache.
            response = client.run_kernel("gemm", seed=12)
            assert response["served_from"] == "executed"
            assert response["result"]["status"] == "ok"

    def test_server_default_deadline_applies(self):
        with serving(workers=1, default_deadline_ms=1) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client.run_kernel("gemm", seed=13)
            assert info.value.error_type == "deadline_exceeded"

    def test_deadline_expired_while_queued(self):
        # Executor-level determinism: a job whose deadline passed
        # before a worker picked it up times out without running.
        queue = JobQueue(max_depth=4)
        executor = KernelExecutor(queue, workers=1)
        job = Job(SweepPoint("gemm", "float16", "auto"),
                  deadline_at=time.monotonic() - 0.1)
        queue.submit(job)
        assert job.wait(10.0)
        assert job.timed_out and "queued" in job.timeout_detail
        queue.close()
        executor.drain(timeout=5.0)

    def test_budget_cap_derives_from_mips_estimate(self):
        queue = JobQueue(max_depth=1)
        executor = KernelExecutor(queue, workers=1)
        point = SweepPoint("gemm", "float16", "auto")
        assert executor.budget_for(point, None) == point.instruction_budget
        capped = executor.budget_for(point, 0.001)
        assert capped < point.instruction_budget
        assert capped >= 1_000  # MIN_DEADLINE_BUDGET floor
        queue.close()
        executor.drain(timeout=5.0)


# ----------------------------------------------------------------------
# Sweeps
# ----------------------------------------------------------------------
class TestSweep:
    def test_sweep_lifecycle_with_dedup_and_cache(self):
        with serving(workers=2) as (app, client):
            submitted = client.sweep([
                {"kernel": "atax", "ftype": "float16"},
                {"kernel": "atax", "ftype": "float8"},
                {"kernel": "atax", "ftype": "float16"},  # duplicate
            ])
            assert submitted["total"] == 3
            done = client.wait_job(submitted["job_id"], timeout=120.0)
            assert done["status"] == "done"
            assert done["completed"] == 3
            sources = [row["served_from"] for row in done["results"]]
            assert sources.count("coalesced") == 1  # duplicate attached
            float16_rows = [row for row in done["results"]
                            if row["point"]["ftype"] == "float16"]
            assert (float16_rows[0]["result"]["run"]["outputs"]
                    == float16_rows[1]["result"]["run"]["outputs"])

            # Resubmission is answered from cache, synchronously done.
            again = client.sweep([{"kernel": "atax", "ftype": "float16"}])
            status = client.job(again["job_id"])
            assert status["status"] == "done"
            assert status["results"][0]["served_from"] == "cache"

    def test_unknown_job_404(self):
        with serving(workers=1) as (app, client):
            with pytest.raises(ServeClientError) as info:
                client.job("sweep-999999-ffffff")
            assert info.value.status == 404
            assert info.value.error_type == "unknown_job"


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------
class TestDrain:
    def test_drain_completes_inflight_and_refuses_new(self):
        runner = GatedRunner()
        with serving(workers=1, runner=runner) as (app, client):
            responses = []

            def call():
                responses.append(client.run_kernel("gemm"))

            waiter = threading.Thread(target=call)
            waiter.start()
            assert runner.started.wait(10.0)

            drained = []
            drainer = threading.Thread(
                target=lambda: drained.append(app.drain(timeout=30.0)))
            drainer.start()
            deadline = time.monotonic() + 10.0
            while not app.queue.closed:
                assert time.monotonic() < deadline
                time.sleep(0.01)

            # New work is refused while draining...
            with pytest.raises(ServeClientError) as info:
                client.run_kernel("atax", seed=99)
            assert info.value.status == 503
            assert info.value.error_type == "draining"
            assert client.healthz()["status"] == "draining"

            # ...but the in-flight job still completes and answers.
            runner.release()
            waiter.join(10.0)
            drainer.join(30.0)
            assert drained == [True]
            assert responses and responses[0]["served_from"] == "executed"

    def test_sigterm_drains_inflight_job_before_exit(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env.pop("REPRO_RESULT_CACHE", None)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "1", "--cache-dir", str(tmp_path / "cache")],
            cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            banner = process.stdout.readline()
            assert "listening on" in banner, banner
            port = int(banner.split("http://", 1)[1]
                       .split()[0].rsplit(":", 1)[1])
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=120.0)
            assert client.healthz()["status"] == "ok"

            responses = []
            thread = threading.Thread(target=lambda: responses.append(
                client.run_kernel("gemm", "float16", "auto")))
            thread.start()
            time.sleep(0.15)  # let the request reach the worker
            process.send_signal(signal.SIGTERM)
            thread.join(120.0)

            stdout, stderr = process.communicate(timeout=60.0)
            assert process.returncode == 0, stderr
            assert "drained=clean" in stdout
            # The in-flight request was answered, not dropped.
            assert responses and responses[0]["result"]["status"] == "ok"
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
