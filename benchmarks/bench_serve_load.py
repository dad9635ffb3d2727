"""Closed-loop load test of the kernel-execution service.

Boots an in-process server on an ephemeral port and drives it with K
closed-loop client threads (each issues its next request as soon as
the previous one answers) over real HTTP, in two phases:

* **cold**  -- every request is a distinct point (unique seed): all of
  them simulate.  This measures raw single-process service throughput.
* **repeat** -- the same request count over a small set of repeated
  points: after each point's first execution, requests are answered by
  the disk cache (or coalesce onto an in-flight run).  This is the
  workload a result service actually sees, and the speedup over cold
  is the value of cache-first admission + coalescing.

Absolute requests-per-second is host-dependent; the repeat/cold
*ratio* is not (both phases run on the same host seconds apart), so
the committed ``results/BENCH_serve_load.json`` baseline gates on the
ratio with a generous tolerance, and on a hard floor of 2x.
"""

import os
import statistics
import threading
import time

from repro.analysis.serialize import committed_record, write_canonical
from repro.harness.parallel import run_point
from repro.serve import ReproServeApp, ServeClient, make_server

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_serve_load.json")

#: The repeated-point workload must beat the cold one by at least this
#: factor on any host (acceptance floor).
MIN_REPEAT_SPEEDUP = 2.0

#: The measured ratio may not fall below baseline * (1 - tolerance).
#: Generous: thread scheduling jitter on small CI hosts is real.
REGRESSION_TOLERANCE = 0.50

KERNEL = "atax"          # smallest kernel: highest request rate
CLIENTS = 4              # closed-loop client threads
REQUESTS_PER_CLIENT = 6
REPEATED_POINTS = 2      # distinct points in the repeat phase

SWEEP_KERNEL = "gemm"    # warm-sweep phase: enough work per point to
SWEEP_SEEDS = 24         # make batching visible over HTTP overhead
#: A seed-varied sweep through the lockstep-coalescing executor must
#: beat the same sweep with coalescing disabled by at least this
#: factor on any host (acceptance floor; both legs share a host).
MIN_SWEEP_LOCKSTEP_SPEEDUP = 1.2


def run_phase(client_count, requests_per_client, port, seed_fn):
    """Drive the server closed-loop; returns throughput + latency."""
    latencies = []
    errors = []
    lock = threading.Lock()

    def worker(worker_index):
        client = ServeClient(f"http://127.0.0.1:{port}", timeout=120.0)
        for index in range(requests_per_client):
            seed = seed_fn(worker_index, index)
            start = time.perf_counter()
            try:
                response = client.run_kernel_retrying(
                    KERNEL, "float16", "auto", seed=seed)
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append((elapsed, response["served_from"]))
            except Exception as exc:  # noqa: BLE001 - recorded, asserted on
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(client_count)]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start

    assert not errors, errors[:3]
    times = sorted(lat for lat, _ in latencies)
    sources = {}
    for _, source in latencies:
        sources[source] = sources.get(source, 0) + 1
    return {
        "requests": len(latencies),
        "wall_seconds": round(wall, 4),
        "rps": round(len(latencies) / wall, 3),
        "p50_ms": round(1e3 * times[len(times) // 2], 3),
        "p95_ms": round(1e3 * times[min(len(times) - 1,
                                        int(0.95 * len(times)))], 3),
        "mean_ms": round(1e3 * statistics.fmean(times), 3),
        "served_from": sources,
    }


def scalar_runner(point, **overrides):
    """:func:`run_point` behind a wrapper: the executor batches only
    when its runner is ``run_point`` itself, so this runs every point
    alone."""
    return run_point(point, **overrides)


def measure_warm_sweep(batched):
    """One seed-varied sweep, all points simulating, batched or not.

    'Warm' means compiler and import caches are hot (run after the
    closed-loop phases); the result cache is fresh per call, so every
    point executes.  The sweep is admitted at once, so the default
    executor coalesces all of its queued points into one lockstep run
    at pop time; the scalar leg injects :func:`scalar_runner`, which is
    never batched.  A single worker thread keeps the queue deep.  The
    scalar/lockstep wall ratio is the serve-side value of batching on
    exactly the workload it targets.
    """
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-swp-") as cache_dir:
        app = ReproServeApp(workers=1, cache_dir=cache_dir, max_queue=128,
                            runner=None if batched else scalar_runner)
        server = make_server(app)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            client = ServeClient(f"http://127.0.0.1:{port}", timeout=300.0)
            points = [{"kernel": SWEEP_KERNEL, "ftype": "float16",
                       "mode": "auto", "seed": seed}
                      for seed in range(SWEEP_SEEDS)]
            start = time.perf_counter()
            job = client.sweep(points, priority="batch")
            client.wait_job(job["job_id"], timeout=300.0)
            wall = time.perf_counter() - start
            metrics = client.metrics()
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
            app.queue.close()
            app.executor.drain(timeout=10.0)
            app.close()
    return {
        "batched": batched,
        "points": SWEEP_SEEDS,
        "wall_seconds": round(wall, 4),
        "points_per_second": round(SWEEP_SEEDS / wall, 3),
        "batching": metrics["lockstep"],
    }


def collect():
    import tempfile

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as cache_dir:
        app = ReproServeApp(workers=2, cache_dir=cache_dir, max_queue=128)
        server = make_server(app)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever,
                                  kwargs={"poll_interval": 0.05},
                                  daemon=True)
        thread.start()
        try:
            # One throwaway request warms imports and the compiler.
            ServeClient(f"http://127.0.0.1:{port}", timeout=120.0) \
                .run_kernel(KERNEL, "float16", "auto", seed=999_999)

            cold = run_phase(
                CLIENTS, REQUESTS_PER_CLIENT, port,
                # Globally unique seeds: every request simulates.
                seed_fn=lambda worker, index:
                    1 + worker * REQUESTS_PER_CLIENT + index)
            repeat = run_phase(
                CLIENTS, REQUESTS_PER_CLIENT, port,
                # A few shared seeds (disjoint from the cold range):
                # cache hits + coalescing dominate after the first
                # execution of each point.
                seed_fn=lambda worker, index:
                    500_000 + index % REPEATED_POINTS)

            client = ServeClient(f"http://127.0.0.1:{port}", timeout=120.0)
            metrics = client.metrics()
        finally:
            server.shutdown()
            thread.join(timeout=5.0)
            server.server_close()
            app.queue.close()
            app.executor.drain(timeout=10.0)
            app.close()

    # Warm-sweep batched throughput: same sweep with the pop-time
    # lockstep coalescer off, then on (imports/compiler now warm).
    sweep_scalar = measure_warm_sweep(batched=False)
    sweep_batched = measure_warm_sweep(batched=True)

    reused = (repeat["served_from"].get("cache", 0)
              + repeat["served_from"].get("coalesced", 0))
    return {
        "schema": 2,
        "kernel": KERNEL,
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "repeated_points": REPEATED_POINTS,
        "cold": cold,
        "repeat": repeat,
        "warm_sweep": {"scalar": sweep_scalar, "lockstep": sweep_batched},
        "sweep_lockstep_speedup": round(
            sweep_scalar["wall_seconds"] / sweep_batched["wall_seconds"], 3),
        "repeat_speedup_rps": round(repeat["rps"] / cold["rps"], 3),
        "repeat_reuse_fraction": round(reused / repeat["requests"], 3),
        "server_metrics": {
            "served": metrics["served"],
            "cache_hit_rate": metrics["cache"]["hit_rate"],
            "latency": metrics["latency"],
            "guest_mips": metrics["guest"]["mips"],
        },
    }


def test_serve_load(capsys):
    payload = collect()
    baseline = committed_record(BASELINE_PATH, payload)

    with capsys.disabled():
        print(f"\nserve load: cold {payload['cold']['rps']} rps "
              f"(p95 {payload['cold']['p95_ms']} ms), repeat "
              f"{payload['repeat']['rps']} rps "
              f"(p95 {payload['repeat']['p95_ms']} ms) -> "
              f"{payload['repeat_speedup_rps']}x, "
              f"{payload['repeat_reuse_fraction']:.0%} reused; "
              f"warm sweep {payload['sweep_lockstep_speedup']}x batched")

    # Acceptance floor: coalescing + cache reuse must be a clear win
    # on a repeated-point workload, on any host.
    assert payload["repeat_speedup_rps"] >= MIN_REPEAT_SPEEDUP

    # The repeated phase must actually exercise reuse, not recompute.
    assert payload["repeat_reuse_fraction"] >= 0.5

    # The batched warm sweep must actually batch, and must win.
    batching = payload["warm_sweep"]["lockstep"]["batching"]
    assert batching["batches"] >= 1
    assert batching["lanes"] >= 2 * batching["batches"]
    assert payload["sweep_lockstep_speedup"] >= MIN_SWEEP_LOCKSTEP_SPEEDUP

    # Regression gate against the committed baseline (ratio only;
    # absolute rps is informational).
    floor = baseline["repeat_speedup_rps"] * (1 - REGRESSION_TOLERANCE)
    assert payload["repeat_speedup_rps"] >= floor, (
        f"repeat-workload speedup {payload['repeat_speedup_rps']}x "
        f"regressed >{REGRESSION_TOLERANCE:.0%} vs baseline "
        f"{baseline['repeat_speedup_rps']}x")


if __name__ == "__main__":
    result = collect()
    print(write_canonical(BASELINE_PATH, result).read_text(), end="")
