"""Host performance of the simulator itself: guest MIPS and wall-clock.

Unlike the other benchmarks (which reproduce *guest* metrics from the
paper), this one measures the *host*: how many guest instructions per
second the interpreter retires with the fast-path block engine on and
off, end-to-end wall-clock for representative figure sweeps, and the
effect of worker-per-point parallelism.

Guest MIPS is a simulation-rate metric, so it is computed over the
simulation phase (``KernelRun.sim_seconds``); compile/staging cost is
reported separately as part of end-to-end wall-clock.  The committed
``results/BENCH_host_perf.json`` is the baseline the CI smoke compares
against: the fast/reference speedup *ratio* is host-independent, so the
gate fails when the ratio regresses by more than 30%, while absolute
MIPS is recorded for information only.
"""

import json
import os
import time

from repro.analysis.serialize import read_canonical
from repro.harness.experiments import clear_cache, fig1_points
from repro.harness.parallel import SweepPoint, run_points
from repro.harness.runner import run_kernel, run_kernel_batch
from repro.kernels import KERNELS

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_host_perf.json")

#: The fast/reference guest-MIPS ratio may not regress more than this
#: against the committed baseline (ratios are host-independent).
REGRESSION_TOLERANCE = 0.30

#: Lockstep batch widths measured (seed-varied lanes per fig1 config).
LOCKSTEP_BATCHES = (4, 16, 64, 128)

#: Aggregate-MIPS floor for the lockstep engine at batch >= 16,
#: relative to the single-point fast path (a host-independent ratio).
LOCKSTEP_SPEEDUP_FLOOR = 10.0


def _sweep_points():
    return [SweepPoint(*p) for p in fig1_points()]


def measure_guest_mips(points, fast_path):
    """Aggregate guest MIPS over the sim phase, plus end-to-end wall."""
    wall_start = time.perf_counter()
    instret, sim_seconds = 0, 0.0
    for p in points:
        run = run_kernel(
            KERNELS[p.name], p.ftype, p.mode, mem_latency=p.mem_latency,
            seed=p.seed, max_instructions=p.instruction_budget,
            trap_ok=True, fast_path=fast_path)
        instret += run.trace.instret
        sim_seconds += run.sim_seconds
    wall = time.perf_counter() - wall_start
    return {
        "instructions": instret,
        "sim_seconds": round(sim_seconds, 4),
        "wall_seconds": round(wall, 4),
        "guest_mips": round(instret / sim_seconds / 1e6, 4),
    }


def measure_lockstep(points, batch):
    """Aggregate guest MIPS with ``batch`` seed-varied lanes per config.

    The fig1 sweep varies *configs*, so lockstep batching is exercised
    the way the sweep harness uses it: each config becomes one batched
    run over ``batch`` seeds (bit-identical per lane to the scalar
    path, enforced by the differential suite).  The sum of per-lane
    ``sim_seconds`` shares is the batch's simulation wall-clock, so
    ``guest_mips`` here is directly comparable to the single-point
    rows above.
    """
    wall_start = time.perf_counter()
    instret, sim_seconds = 0, 0.0
    for p in points:
        runs = run_kernel_batch(
            KERNELS[p.name], p.ftype, p.mode, mem_latency=p.mem_latency,
            seeds=list(range(batch)), max_instructions=p.instruction_budget,
            trap_ok=True)
        instret += sum(r.trace.instret for r in runs)
        sim_seconds += sum(r.sim_seconds for r in runs)
    wall = time.perf_counter() - wall_start
    return {
        "batch": batch,
        "instructions": instret,
        "sim_seconds": round(sim_seconds, 4),
        "wall_seconds": round(wall, 4),
        "guest_mips": round(instret / sim_seconds / 1e6, 4),
    }


def measure_jobs(points, jobs):
    """Wall-clock of a worker-per-point sweep (crash isolation kept)."""
    start = time.perf_counter()
    results = run_points(points, jobs=jobs)
    wall = time.perf_counter() - start
    ok = sum(1 for o in results.values() if o.status == "ok")
    return {"jobs": jobs, "wall_seconds": round(wall, 4),
            "points": len(results), "ok": ok,
            "cpu_count": os.cpu_count()}


def collect():
    points = _sweep_points()
    # Warm imports/compile caches so neither path pays first-run cost.
    run_kernel(KERNELS[points[0].name], points[0].ftype, points[0].mode,
               trap_ok=True)
    reference = measure_guest_mips(points, fast_path=False)
    fast = measure_guest_mips(points, fast_path=True)
    lockstep = [measure_lockstep(points, batch)
                for batch in LOCKSTEP_BATCHES]
    best = max((row for row in lockstep if row["batch"] >= 16),
               key=lambda row: row["guest_mips"])
    payload = {
        "schema": 2,
        "sweep": "fig1",
        "points": len(points),
        "reference": reference,
        "fast": fast,
        "lockstep": lockstep,
        "speedup_guest_mips": round(
            fast["guest_mips"] / reference["guest_mips"], 3),
        "speedup_wall": round(
            reference["wall_seconds"] / fast["wall_seconds"], 3),
        "speedup_lockstep_vs_fast": round(
            best["guest_mips"] / fast["guest_mips"], 3),
        "lockstep_best_batch": best["batch"],
        "parallel": [measure_jobs(points, jobs) for jobs in (1, 2)],
    }
    return payload


def test_host_perf(capsys):
    from conftest import save_result

    baseline = read_canonical(BASELINE_PATH)  # before save_result writes
    clear_cache()
    payload = collect()
    save_result("BENCH_host_perf", payload)

    with capsys.disabled():
        print(f"\nhost perf: ref {payload['reference']['guest_mips']} MIPS, "
              f"fast {payload['fast']['guest_mips']} MIPS "
              f"({payload['speedup_guest_mips']}x sim-phase, "
              f"{payload['speedup_wall']}x end-to-end), "
              f"lockstep best {payload['speedup_lockstep_vs_fast']}x "
              f"at batch={payload['lockstep_best_batch']}")

    # Sanity floor: the block engine must be a clear win on any host.
    assert payload["speedup_guest_mips"] >= 2.0

    # Lockstep floor: at batch >= 16 the batched engine must deliver
    # >= 10x the single-point fast path's aggregate guest MIPS.
    assert payload["speedup_lockstep_vs_fast"] >= LOCKSTEP_SPEEDUP_FLOOR, (
        f"lockstep speedup {payload['speedup_lockstep_vs_fast']}x below "
        f"the {LOCKSTEP_SPEEDUP_FLOOR}x floor")

    # Regression gates against the committed baseline (ratios are
    # host-independent; absolute MIPS is informational).
    if baseline and "speedup_guest_mips" in baseline:
        floor = baseline["speedup_guest_mips"] * (1 - REGRESSION_TOLERANCE)
        assert payload["speedup_guest_mips"] >= floor, (
            f"fast-path speedup {payload['speedup_guest_mips']}x regressed "
            f">{REGRESSION_TOLERANCE:.0%} vs baseline "
            f"{baseline['speedup_guest_mips']}x")
    if baseline and "speedup_lockstep_vs_fast" in baseline:
        floor = baseline["speedup_lockstep_vs_fast"] \
            * (1 - REGRESSION_TOLERANCE)
        assert payload["speedup_lockstep_vs_fast"] >= floor, (
            f"lockstep speedup {payload['speedup_lockstep_vs_fast']}x "
            f"regressed >{REGRESSION_TOLERANCE:.0%} vs baseline "
            f"{baseline['speedup_lockstep_vs_fast']}x")


if __name__ == "__main__":
    clear_cache()
    result = collect()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(BASELINE_PATH, "w") as handle:
        json.dump(result, handle, indent=2)
        handle.write("\n")
    print(json.dumps(result, indent=2))
