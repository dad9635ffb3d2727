"""Helpers shared by the workloads: percentiles, digests, result records."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List


class _Unscaled:
    """Stands in for a :class:`hostspeed.HostSpeed` to leave host times
    as measured; the result notes print them next to the scaled ones."""

    @staticmethod
    def factor(start: float, end: float) -> float:
        return 1.0


UNSCALED = _Unscaled()

#: A latency is scaled for host speed over at least this many seconds
#: around it, so a short operation is not scaled by one noisy sample.
SCALE_SPAN_S = 1.0


def percentile(values, q: float) -> float:
    """The ``q`` percentile (0..100), linearly interpolated."""
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def p50(values, idle: float = 0.0) -> float:
    """The median; ``idle`` when the layer saw no samples."""
    return percentile(values, 50) if values else idle


def latency_metrics(intervals, speed) -> Dict[str, float]:
    """p50 and p95 of operations given as ``(start, end)`` times, each
    scaled to the reference host speed around it."""
    scaled_ms = []
    for start, end in intervals:
        pad = max(0.0, (SCALE_SPAN_S - (end - start)) / 2)
        scaled_ms.append(1e3 * (end - start)
                         * speed.factor(start - pad, end + pad))
    return {"latency_p50_ms": percentile(scaled_ms, 50),
            "latency_p95_ms": percentile(scaled_ms, 95)}


def finite_mean(values) -> float:
    """Mean over finite values (a bit-exact output has infinite SQNR)."""
    finite = [v for v in values if math.isfinite(v)]
    return statistics.fmean(finite) if finite else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rng_for(tag: str, seed: int) -> random.Random:
    """A deterministic generator for one workload part and seed."""
    return random.Random(f"perfbench:{tag}:{seed}")


def outputs_digest(outputs: Dict) -> str:
    """SHA-256 over every output array's name, dtype and raw bytes."""
    import numpy as np

    digest = hashlib.sha256()
    for name in sorted(outputs):
        data = np.ascontiguousarray(outputs[name])
        digest.update(f"{name}:{data.dtype}:{data.shape}".encode())
        digest.update(data.tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class RunSummary:
    """What must repeat exactly when one point is run again."""

    exit_reason: str
    cycles: int
    instret: int
    digest: str
    sqnr: str  # repr() of the SQNR float, so NaN/inf compare exactly

    @classmethod
    def of(cls, run) -> "RunSummary":
        return cls(run.exit_reason, run.cycles, run.instret,
                   outputs_digest(run.outputs), repr(float(run.sqnr_db())))

    @property
    def sqnr_db(self) -> float:
        return float(self.sqnr)


@dataclass
class Outcome:
    """One workload run: operation counts, metric values, check failures."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Host-time metrics as measured, before host speed scaling.
    raw: Dict[str, float] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: Host speed factor over the measured window (see hostspeed.py).
    speed: float = 1.0

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)

    def fail(self, message: str, count: int = 1) -> None:
        """``count`` operations failed or did not halt; that fails the
        benchmark as a check does, besides lowering ``success_rate``."""
        self.failed += count
        self.mismatch(message)

    @property
    def success_rate(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)


def compare_summaries(outcome: Outcome, what: str, expected: Dict,
                      got: Dict) -> None:
    """Record a mismatch for every key whose summaries differ."""
    if expected.keys() != got.keys():
        outcome.mismatch(f"{what}: ran {len(got)} points, expected "
                         f"{len(expected)}")
    for key in expected.keys() & got.keys():
        if expected[key] != got[key]:
            outcome.mismatch(f"{what}: {key} gave {got[key]}, expected "
                             f"{expected[key]}")


def totals(summaries) -> Dict[str, float]:
    """``guest_cycles`` and ``sqnr_db_mean`` over a fixed point set."""
    summaries = list(summaries)
    return {"guest_cycles": float(sum(s.cycles for s in summaries)),
            "sqnr_db_mean": finite_mean(s.sqnr_db for s in summaries)}


def measure(unit_at, run_unit, seconds: float, trace: bool, speed,
            min_units: int):
    """Run whole work units until ``seconds`` have gone; check unit 0.

    ``unit_at(i)`` gives the inputs of unit ``i`` (a pass or a round);
    ``run_unit(inputs, outcome, latencies, keep)`` runs one, appending
    ``(start, end)`` of each completed operation and returning per-point
    :class:`RunSummary` records when ``keep``.  Unit 0 is run again
    outside the timed window -- untraced (twice) before a traced run,
    after an untraced one -- and must repeat exactly.  ``speed`` is the run's
    :class:`hostspeed.HostSpeed`.  At least ``min_units`` units run, and
    peak RSS is read after that many: the program's value caches keep
    filling for a while, so a read at the end of the window would grow
    with the host's speed.  Returns the outcome, the unit 0 summaries
    and the tracer (None when untraced).
    """
    outcome, latencies, tracer = Outcome(), [], None
    if trace:
        import spans

        # The first run of unit 0 fills the program's value caches; the
        # second, as warm as the traced one, is the overhead baseline.
        reference = run_unit(unit_at(0), Outcome(), None, True)
        start = time.perf_counter()
        run_unit(unit_at(0), Outcome(), None, False)
        untraced = (start, time.perf_counter())
        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        start = time.perf_counter()
        deadline = start + seconds
        for index in itertools.count():
            unit_start = time.perf_counter()
            summaries = run_unit(unit_at(index), outcome, latencies,
                                 index == 0)
            if index == 0:
                first, first_unit = summaries, (unit_start,
                                                time.perf_counter())
            if index + 1 == min_units:
                rss = peak_rss_mb()
            if index + 1 >= min_units and time.perf_counter() >= deadline:
                break
        end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.restore()
    wall = end - start
    outcome.speed = speed.factor(start, end)

    if trace:
        compare_summaries(outcome, "traced unit 0", reference, first)
        outcome.metrics.update(spans.layer_metrics(tracer))
        outcome.metrics["trace.coverage"] = tracer.covered() / wall

        def host_metrics(host):
            return {"trace.overhead": (scaled(host, *first_unit)
                                       / scaled(host, *untraced) - 1)}
        outcome.notes.extend(f"hook not found: {m}" for m in tracer.missing)
    else:
        again = run_unit(unit_at(0), Outcome(), None, True)
        compare_summaries(outcome, "unit 0 rerun", first, again)
        outcome.metrics.update(totals(first.values()))
        outcome.metrics["peak_rss_mb"] = rss

        def host_metrics(host):
            busy = scaled(host, start, end)
            done = outcome.attempted - outcome.failed
            return {**latency_metrics(latencies, host),
                    "points_per_s": done / busy,
                    "rps": len(latencies) / busy}
    outcome.metrics.update(host_metrics(speed))
    outcome.raw.update(host_metrics(UNSCALED))
    outcome.notes.append(
        f"{outcome.attempted} points, {len(latencies)} operations in "
        f"{index + 1} whole units over {wall:.2f} s; latency percentiles "
        f"over {len(latencies)} operations")
    return outcome, first, tracer


def scaled(speed, start: float, end: float) -> float:
    """Seconds from ``start`` to ``end``, at the reference host speed."""
    return (end - start) * speed.factor(start, end)
