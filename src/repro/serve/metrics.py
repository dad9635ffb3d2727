"""Service metrics: counters, latency percentiles, guest throughput.

Everything the ``/metrics`` endpoint exposes is aggregated here, under
one lock, so a snapshot is internally consistent.  Latencies are kept
in a bounded reservoir (most recent ``RESERVOIR_SIZE`` requests), which
is exact for short runs and a moving window under sustained load --
the right trade for a service that must never grow without bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, Optional

from ..compiler import compile_cache_info
from ..harness.parallel import DiskResultCache
from ..harness.runner import SafeRunOutcome
from ..sim import block_cache_info

RESERVOIR_SIZE = 2048

#: How a request was satisfied.
SOURCES = ("cache", "executed", "coalesced")


class LatencyReservoir:
    """Sliding window of request latencies with exact percentiles."""

    def __init__(self, size: int = RESERVOIR_SIZE):
        self._window = deque(maxlen=size)
        self.count = 0
        self.total_ms = 0.0

    def record(self, latency_ms: float) -> None:
        self._window.append(latency_ms)
        self.count += 1
        self.total_ms += latency_ms

    def percentile(self, pct: float) -> Optional[float]:
        if not self._window:
            return None
        ordered = sorted(self._window)
        index = min(len(ordered) - 1, int(pct / 100.0 * len(ordered)))
        return ordered[index]

    def snapshot(self) -> Dict:
        mean = self.total_ms / self.count if self.count else None
        return {
            "count": self.count,
            "mean_ms": round(mean, 3) if mean is not None else None,
            "p50_ms": _round(self.percentile(50)),
            "p95_ms": _round(self.percentile(95)),
            "p99_ms": _round(self.percentile(99)),
        }


def _round(value: Optional[float]) -> Optional[float]:
    return round(value, 3) if value is not None else None


class ServeMetrics:
    """One instance per server; thread-safe."""

    def __init__(self):
        self._lock = threading.Lock()
        self.started_at = time.time()
        self.requests: Dict[str, int] = {}
        self.responses: Dict[str, int] = {}  # by status class, e.g. "200"
        self.served: Dict[str, int] = {s: 0 for s in SOURCES}
        self.shed = 0          # 429s under backpressure
        self.rejected = 0      # 400s (schema violations)
        self.timeouts = 0      # deadline-cancelled executions
        self.errors = 0        # host-side failures ('error' outcomes)
        self.verifications = 0           # ?verify=1 admission checks
        self.verification_rejects = 0    # 422s from the static gate
        self.verification_cache_hits = 0  # verdicts served from cache
        self.lockstep_batches = 0    # lockstep batches formed
        self.lockstep_lanes = 0      # total lanes across those batches
        self.lockstep_fallbacks = 0  # lanes retried on the scalar path
        self.latency = LatencyReservoir()
        self.guest_instructions = 0
        self.guest_sim_seconds = 0.0
        self.per_kernel: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def count_request(self, endpoint: str) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1

    def count_response(self, status: int) -> None:
        key = str(status)
        with self._lock:
            self.responses[key] = self.responses.get(key, 0) + 1

    def count_shed(self) -> None:
        with self._lock:
            self.shed += 1

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def count_timeout(self) -> None:
        with self._lock:
            self.timeouts += 1

    def count_lockstep_batch(self, width: int, fallbacks: int = 0) -> None:
        """One executor-formed lockstep batch of ``width`` lanes, of
        which ``fallbacks`` errored host-side and re-ran scalar."""
        with self._lock:
            self.lockstep_batches += 1
            self.lockstep_lanes += width
            self.lockstep_fallbacks += fallbacks

    def count_verification(self, rejected: bool, cached: bool) -> None:
        with self._lock:
            self.verifications += 1
            if rejected:
                self.verification_rejects += 1
            if cached:
                self.verification_cache_hits += 1

    def record_served(self, kernel: str, source: str,
                      outcome: Optional[SafeRunOutcome],
                      latency_s: float) -> None:
        """One answered kernel request (any admission path)."""
        with self._lock:
            self.served[source] = self.served.get(source, 0) + 1
            self.latency.record(latency_s * 1e3)
            row = self.per_kernel.setdefault(
                kernel, {"requests": 0, "executions": 0, "cache_hits": 0,
                         "cycles": 0, "instret": 0})
            row["requests"] += 1
            if source == "cache":
                row["cache_hits"] += 1
            if outcome is None:
                return
            if outcome.status == "error":
                self.errors += 1
            if source == "executed" and outcome.run is not None:
                row["executions"] += 1
                row["cycles"] += outcome.run.cycles
                row["instret"] += outcome.run.instret
                self.guest_instructions += outcome.run.instret
                self.guest_sim_seconds += outcome.run.sim_seconds

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def latency_snapshot(self) -> Dict:
        with self._lock:
            return self.latency.snapshot()

    def guest_mips(self) -> Optional[float]:
        with self._lock:
            if self.guest_sim_seconds <= 0.0:
                return None
            return self.guest_instructions / self.guest_sim_seconds / 1e6

    def snapshot(self, queue_depth: int, inflight: int, workers: int,
                 cache: Optional[DiskResultCache],
                 fleet: Optional[Dict] = None,
                 journal: Optional[Dict] = None) -> Dict:
        mips = self.guest_mips()
        with self._lock:
            cache_hits = self.served.get("cache", 0)
            executed = self.served.get("executed", 0)
            lookups = cache_hits + executed
            payload = {
                "uptime_seconds": round(time.time() - self.started_at, 3),
                "queue": {"depth": queue_depth, "inflight": inflight,
                          "workers": workers},
                "requests": dict(self.requests),
                "responses": dict(self.responses),
                "served": dict(self.served),
                "shed": self.shed,
                "rejected": self.rejected,
                "timeouts": self.timeouts,
                "errors": self.errors,
                "verification": {
                    "checks": self.verifications,
                    "rejects": self.verification_rejects,
                    "cache_hits": self.verification_cache_hits,
                },
                # This process's compile cache: every executor thread
                # and the verify gate share it; fleet workers keep
                # their own.
                "compile_cache": compile_cache_info()._asdict(),
                # This process's generated simulator blocks, shared the
                # same way.
                "block_cache": block_cache_info()._asdict(),
                "cache": {
                    "hit_rate": (round(cache_hits / lookups, 4)
                                 if lookups else None),
                    "hits": cache_hits,
                    "misses": executed,
                },
                "lockstep": {
                    "batches": self.lockstep_batches,
                    "lanes": self.lockstep_lanes,
                    "mean_width": (
                        round(self.lockstep_lanes / self.lockstep_batches, 3)
                        if self.lockstep_batches else None),
                    "fallbacks": self.lockstep_fallbacks,
                },
                "guest": {
                    "instructions": self.guest_instructions,
                    "sim_seconds": round(self.guest_sim_seconds, 4),
                    "mips": round(mips, 4) if mips is not None else None,
                },
                "latency": self.latency.snapshot(),
                "per_kernel": {k: dict(v)
                               for k, v in self.per_kernel.items()},
            }
        if cache is not None:
            # The disk cache keeps its own counters (shared with any
            # co-resident sweeps); expose them alongside ours.
            payload["cache"]["disk"] = {
                "root": cache.root,
                "hits": cache.hits,
                "misses": cache.misses,
                "quarantined": cache.quarantined,
                "reaped_stale": getattr(cache, "reaped_stale", 0),
            }
        if fleet is not None:
            # Per-worker supervision state (restarts, breaker trips,
            # redeliveries, poison quarantine) from the fleet
            # supervisor, so chaos runs are observable end to end.
            payload["fleet"] = fleet
        if journal is not None:
            payload["journal"] = journal
        return payload
