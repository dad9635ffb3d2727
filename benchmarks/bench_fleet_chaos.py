"""Chaos regression gate for the supervised serving fleet.

Runs one seeded :class:`repro.serve.chaos.ChaosScenario` -- a 2-worker
fleet under closed-loop load with a scripted mid-request worker
SIGKILL, a corrupted disk-cache entry, and a concurrent overload burst
-- and gates on the two robustness invariants, which are host-speed
independent (events fire at response-count triggers, not wall-clock):

* **zero lost requests**: every admitted request gets a terminal
  answer even while a worker dies and restarts;
* **digest parity**: every surviving result is SHA-256 bit-identical
  to the same workload run with no chaos.

The committed ``results/BENCH_fleet_chaos.json`` baseline additionally
records the fault/recovery counters (restarts, redeliveries, cache
quarantines) so a silent loss of fault *coverage* -- a scenario that
stops actually killing anyone -- also fails the gate.
"""

import os

from repro.analysis.serialize import committed_record, write_canonical
from repro.serve.chaos import ChaosScenario, run_chaos_scenario

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_fleet_chaos.json")

#: The one scenario this gate runs.  Small on purpose (single-core CI
#: hosts): 14 requests over 3 distinct atax points, injected latency
#: widening the kill window so the SIGKILL lands mid-request.
SCENARIO = ChaosScenario(
    seed=7,
    workers=2,
    kernel="atax",
    distinct_points=3,
    requests=14,
    clients=3,
    latency_ms=120.0,
    kill_at=(3,),
    corrupt_at=(7,),
    overload_burst=3,
    overload_at=10,
)


def collect():
    report = run_chaos_scenario(SCENARIO)
    fleet = report["chaos"]["metrics"]["fleet"]
    disk = report["chaos"]["metrics"]["disk_cache"] or {}
    report["coverage"] = {
        "kills_delivered": sum(
            1 for event in report["chaos"]["events"]
            if event["action"] == "kill" and event["result"] == "killed"),
        "entries_corrupted": sum(
            1 for event in report["chaos"]["events"]
            if event["action"] == "corrupt"
            and event["result"].startswith("corrupted")),
        "restarts": fleet["restarts"],
        "redeliveries": fleet["redeliveries"],
        "cache_quarantined": disk.get("quarantined", 0),
        "burst_answered": (report["chaos"]["overload"] or {}).get(
            "answered", 0),
    }
    return report


def test_fleet_chaos(capsys):
    report = collect()
    baseline = committed_record(BASELINE_PATH, report)

    coverage = report["coverage"]
    with capsys.disabled():
        print(f"\nfleet chaos: {report['chaos']['answered']}/"
              f"{report['scenario']['requests']} answered, "
              f"{coverage['kills_delivered']} kill(s), "
              f"{coverage['restarts']} restart(s), "
              f"{coverage['redeliveries']} redeliver(y/ies), "
              f"{coverage['entries_corrupted']} corrupt probe(s), "
              f"{len(report['digest_mismatches'])} digest mismatch(es)")

    # Invariant 1: no admitted request may be lost.
    assert report["lost_requests"] == 0, report["chaos"]
    # Invariant 2: surviving results are bit-identical to no-chaos.
    assert report["digest_mismatches"] == [], report["digest_mismatches"]
    assert report["ok"]

    # Fault coverage: the scenario must actually have hurt something,
    # otherwise the invariants above were tested against nothing.
    assert coverage["kills_delivered"] >= 1, report["chaos"]["events"]
    assert coverage["restarts"] >= 1, report["chaos"]["metrics"]["fleet"]
    assert coverage["entries_corrupted"] >= 1, report["chaos"]["events"]
    assert coverage["burst_answered"] == SCENARIO.overload_burst

    # Regression gate vs the committed baseline: coverage counters may
    # wiggle (a kill can land between requests), but never to zero.
    for key in ("kills_delivered", "entries_corrupted", "restarts"):
        assert (coverage[key] > 0) == (baseline["coverage"][key] > 0), (
            f"fault coverage changed for {key}: "
            f"{baseline['coverage'][key]} -> {coverage[key]}")


if __name__ == "__main__":
    result = collect()
    print(write_canonical(BASELINE_PATH, result).read_text(), end="")
