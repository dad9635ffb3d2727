"""serve_mixed: a closed loop of 2 clients against an in-process server.

The server is a ``ReproServeApp`` (2 executor threads, lockstep
coalescing on) behind the stdlib HTTP front end on loopback; its result
cache starts empty.  Two client threads share one seeded request
stream and each sends its next request only when the last one
answered.  The stream is built from blocks of 20 requests over five
kernel/format configs, interleaved in the same order in every block:

* 10 unique seeds, which execute;
* 7 repeats of a 5-point hot set, which hit the cache or coalesce;
* 2 unique seeds with ``verify=1`` (the static precision gate);
* 1 unique seed with ``profile=1`` (the reference-engine profiler).

The seed picks every request's data seed; the kinds and configs follow
a fixed pattern, so runs with different seeds put the same load on the
server.  The first :data:`PREFIX` requests -- which every run completes
-- give ``guest_cycles`` and ``sqnr_db_mean`` and are checked against
direct harness runs.
"""

from __future__ import annotations

import itertools
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from common import (UNSCALED, Outcome, finite_mean, latency_metrics, p50,
                    peak_rss_mb, rng_for, scaled)

#: Client, server and executor threads share the host's CPUs; no pinning.
ONE_CPU = False
CLIENTS = 2
EXECUTOR_THREADS = 2
CONFIGS = (
    ("atax", "float16", "auto"),
    ("syrk", "float8", "manual"),
    ("gemm", "float16alt", "auto"),
    ("nn_softmax", "posit16", "auto"),
    ("svm", "float16", "auto"),
)
BLOCK = ("unique", "hot", "unique", "verify", "unique", "hot", "unique",
         "hot", "unique", "profile", "unique", "hot", "unique", "hot",
         "unique", "verify", "unique", "hot", "unique", "hot")
PREFIX = 3 * len(BLOCK)
#: Requests every run sends; peak RSS is read when the last one answers.
MIN_REQUESTS = 20 * len(BLOCK)
WARM_SEED = (1 << 31) + 1
#: Cache-hit requests timed over HTTP and directly, for ``serve.http_ms``.
HTTP_SAMPLES = 25


@dataclass(frozen=True)
class Request:
    kind: str
    kernel: str
    ftype: str
    mode: str
    seed: int

    @property
    def point(self):
        return (self.kernel, self.ftype, self.mode, self.seed)

    def send(self, client, sleep):
        return client.run_kernel_retrying(
            self.kernel, self.ftype, self.mode, seed=self.seed,
            verify=self.kind == "verify", profile=self.kind == "profile",
            sleep=sleep)


@dataclass
class Record:
    request: Request
    latency: float
    done_at: float
    payload: Optional[Dict] = None
    error: str = ""

    @property
    def run(self) -> Dict:
        return self.payload["result"].get("run", {})

    @property
    def ok(self) -> bool:
        return (self.payload is not None
                and self.payload["result"]["status"] == "ok"
                and self.run.get("exit_reason") == "halt")


def stream(seed: int):
    """The seeded request sequence (unbounded, block by block)."""
    rng = rng_for("serve_mixed", seed)
    hot = [Request("hot", *config, rng.randrange(1 << 20))
           for config in CONFIGS]
    fresh = itertools.count(rng.randrange(1 << 21, 1 << 30))
    hot_turn = itertools.count()
    for block in itertools.count():
        unique = iter(CONFIGS * 2)
        verify = iter(CONFIGS[(2 * block + i) % len(CONFIGS)] for i in (0, 1))
        for kind in BLOCK:
            if kind == "hot":
                yield hot[next(hot_turn) % len(hot)]
            elif kind == "unique":
                yield Request(kind, *next(unique), next(fresh))
            elif kind == "verify":
                yield Request(kind, *next(verify), next(fresh))
            else:
                yield Request(kind, *CONFIGS[block % len(CONFIGS)],
                              next(fresh))


@dataclass
class Server:
    app: object
    server: object
    thread: threading.Thread
    cache_dir: str

    @property
    def url(self) -> str:
        return f"http://127.0.0.1:{self.server.server_address[1]}"


def setup(workdir: str) -> Server:
    """Imports, server boot and one warm-up request per config."""
    import tempfile

    from repro.serve import ReproServeApp, ServeClient, make_server

    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=workdir)
    app = ReproServeApp(workers=EXECUTOR_THREADS, cache_dir=cache_dir)
    server = make_server(app)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    booted = Server(app, server, thread, cache_dir)
    client = ServeClient(booted.url)
    for offset, config in enumerate(CONFIGS):
        client.run_kernel(*config, seed=WARM_SEED + offset)
    # The measured stream starts against an empty result cache.
    for name in os.listdir(cache_dir):
        os.remove(os.path.join(cache_dir, name))
    return booted


def teardown(booted: Server) -> None:
    import shutil

    booted.server.shutdown()
    booted.thread.join(timeout=10.0)
    booted.server.server_close()
    booted.app.drain(timeout=30.0)
    booted.app.close()
    shutil.rmtree(booted.cache_dir, ignore_errors=True)


@dataclass
class Window:
    records: Dict[int, Record]
    start: float
    end: float
    retries: int
    rss_mb: float


def closed_loop(url: str, seed: int, seconds: float,
                min_requests: int = MIN_REQUESTS) -> Window:
    """Drive the stream for ``seconds`` and at least ``min_requests``."""
    from repro.serve import ServeClient

    requests = enumerate(stream(seed))
    lock = threading.Lock()
    records: Dict[int, Record] = {}
    retries = []
    rss = []
    start = time.perf_counter()
    deadline = start + seconds
    stopped = False

    def next_request():
        # Stop only at a block boundary, so every run sends whole blocks.
        nonlocal stopped
        with lock:
            index, request = next(requests)
            if stopped or (index >= min_requests and index % len(BLOCK) == 0
                           and time.perf_counter() >= deadline):
                stopped = True
                return None
            return index, request

    def retry_sleep(delay):
        retries.append(delay)
        time.sleep(delay)

    def client_loop():
        client = ServeClient(url)
        while (item := next_request()) is not None:
            index, request = item
            sent = time.perf_counter()
            try:
                payload, error = request.send(client, retry_sleep), ""
            except Exception as exc:  # recorded; fails the run afterwards
                payload, error = None, f"{type(exc).__name__}: {exc}"
            done = time.perf_counter()
            records[index] = Record(request, done - sent, done, payload,
                                    error)
            if index == min_requests - 1:
                rss.append(peak_rss_mb())

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return Window(records, start, time.perf_counter(), len(retries), rss[0])


def check_against_harness(outcome: Outcome, records: Dict[int, Record]):
    """Responses must match direct harness runs of the same points."""
    from repro.harness.parallel import SweepPoint, run_point
    from repro.serve import outcome_payload

    def fingerprint(run):
        return (run["cycles"], run["instret"], run["sqnr_db"],
                {name: out["sha256"] for name, out in run["outputs"].items()})

    by_point: Dict[tuple, List[Record]] = {}
    for record in records.values():
        if record.ok:
            by_point.setdefault(record.request.point, []).append(record)
    for point, group in by_point.items():
        if len({repr(fingerprint(r.run)) for r in group}) != 1:
            outcome.mismatch(f"responses for {point} disagree")
    for point in {records[i].request.point for i in range(PREFIX)
                  if i in records and records[i].ok}:
        kernel, ftype, mode, seed = point
        direct = outcome_payload(
            run_point(SweepPoint(kernel, ftype, mode, seed=seed)))["run"]
        if fingerprint(direct) != fingerprint(by_point[point][0].run):
            outcome.mismatch(f"response for {point} differs from a direct "
                             f"harness run")


def http_overhead_ms(booted: Server, request: Request) -> float:
    """A cache hit over HTTP minus the same call made to the app."""
    from repro.serve import (SERVE_SCHEMA_VERSION, ServeClient,
                             parse_kernel_request)

    client = ServeClient(booted.url)
    direct_request = parse_kernel_request({
        "schema": SERVE_SCHEMA_VERSION, "kernel": request.kernel,
        "ftype": request.ftype, "mode": request.mode,
        "seed": request.seed})
    over_http, direct = [], []
    for _ in range(HTTP_SAMPLES):
        start = time.perf_counter()
        client.run_kernel(request.kernel, request.ftype, request.mode,
                          seed=request.seed)
        over_http.append(time.perf_counter() - start)
        start = time.perf_counter()
        booted.app.run_kernel(direct_request)
        direct.append(time.perf_counter() - start)
    return 1e3 * (statistics.median(over_http) - statistics.median(direct))


def serve_layer_metrics(records: Dict[int, Record], retries: int):
    ok = [r for r in records.values() if r.ok]
    served = {source: [r for r in ok if r.payload["served_from"] == source]
              for source in ("executed", "cache", "coalesced")}
    executed = [r for r in served["executed"] if r.request.kind != "profile"]
    sim_ms = [1e3 * r.run["sim_seconds"] for r in executed]
    return {
        "serve.executed_ms_p50": 1e3 * p50([r.latency for r in executed]),
        "serve.cache_ms_p50": 1e3 * p50([r.latency
                                         for r in served["cache"]]),
        "serve.sim_ms_p50": p50(sim_ms),
        "serve.non_sim_ms_p50": p50([1e3 * r.latency - sim
                                     for r, sim in zip(executed, sim_ms)]),
        "serve.served_executed": float(len(served["executed"])),
        "serve.served_cache": float(len(served["cache"])),
        "serve.served_coalesced": float(len(served["coalesced"])),
        "serve.cache_hit_rate": len(served["cache"]) / max(1, len(ok)),
        "serve.retries": float(retries),
        "profile.request_ms_p50": 1e3 * p50(
            [r.latency for r in ok if r.request.kind == "profile"]),
    }


def run(seed: int, seconds: float, trace: bool, booted: Server,
        speed) -> Outcome:
    outcome = Outcome()
    tracer = None
    if trace:
        import spans

        # The untraced baseline gets servers of its own, so the traced
        # run still starts with an empty result cache.  Its first pass
        # fills the program's value caches; the second is as warm as
        # the traced run and is the overhead baseline.
        for _ in range(2):
            baseline = setup(os.path.dirname(booted.cache_dir))
            try:
                untraced = closed_loop(baseline.url, seed, 0.0, PREFIX)
            finally:
                teardown(baseline)
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        window = closed_loop(booted.url, seed, seconds)
    finally:
        if tracer is not None:
            tracer.restore()
    records, start = window.records, window.start
    wall = window.end - start
    outcome.speed = speed.factor(start, window.end)

    ok = [r for r in records.values() if r.ok]
    outcome.attempted = len(records)
    for index, record in sorted(records.items()):
        if not record.ok:
            outcome.fail(f"request {index} ({record.request}) failed: "
                         f"{record.error or record.payload}")
    outcome.notes.append(
        f"closed loop, {CLIENTS} clients, {len(records)} requests in "
        f"{wall:.2f} s; latency p50 and p95 over {len(ok)} samples "
        f"({len(ok) - math.ceil(0.95 * len(ok))} beyond p95)")
    if trace:
        outcome.metrics.update(spans.layer_metrics(tracer))
        outcome.metrics.update(serve_layer_metrics(records, window.retries))
        outcome.metrics["serve.http_ms"] = http_overhead_ms(
            booted, next(r.request for r in ok
                         if r.payload["served_from"] == "cache"))
        app_seconds = sum(s.seconds for s in tracer.spans
                          if s.name == "serve.app")
        outcome.metrics["trace.coverage"] = app_seconds / sum(
            r.latency for r in ok)
        prefix_end = max(records[i].done_at for i in range(PREFIX))

        def host_metrics(host):
            return {"trace.overhead": (
                scaled(host, start, prefix_end)
                / scaled(host, untraced.start, untraced.end) - 1)}
        outcome.notes.extend(f"hook not found: {m}" for m in tracer.missing)
    else:
        prefix = [records[i] for i in range(PREFIX) if records[i].ok]

        def host_metrics(host):
            busy = scaled(host, start, window.end)
            return {**latency_metrics(
                [(r.done_at - r.latency, r.done_at) for r in ok], host),
                "points_per_s": len(ok) / busy,
                "rps": len(ok) / busy}
        outcome.metrics.update({
            "guest_cycles": float(sum(r.run["cycles"] for r in prefix)),
            "sqnr_db_mean": finite_mean(r.run["sqnr_db"] for r in prefix
                                        if r.run["sqnr_db"] is not None),
            "peak_rss_mb": window.rss_mb,
        })
    outcome.metrics.update(host_metrics(speed))
    outcome.raw.update(host_metrics(UNSCALED))
    check_against_harness(outcome, records)
    return outcome
