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

Each engine is timed over the sweep three times, reference and fast
alternating, and the ratio is taken between the median runs, so one
run slowed by a neighbour on a shared host does not fail the gate.

The lockstep engine is gated on its own rate, scaled to a reference
host speed by the sampler of ``perfbench/hostspeed.py``: the ratio of
two separately timed engines moves whenever either one changes, and
host drift moves it further.  The lockstep/fast ratio is still
reported.

The crossover gate ties :data:`~repro.harness.parallel.
LOCKSTEP_MIN_WIDTH` to a measurement: for one config, the wall of a
lockstep batch over the wall of the same seeds run one after another
on the block engine must be above 1 at width 4 and below 1 at the
minimum width.
"""

import os
import sys
import time

from repro.analysis.serialize import committed_record, write_canonical
from repro.harness.experiments import clear_cache, fig1_points
from repro.harness.parallel import LOCKSTEP_MIN_WIDTH, SweepPoint, run_points
from repro.harness.runner import run_kernel, run_kernel_batch
from repro.kernels import KERNELS

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))
from hostspeed import HostSpeed  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_host_perf.json")

#: The fast/reference guest-MIPS ratio may not regress more than this
#: against the committed baseline (ratios are host-independent).
REGRESSION_TOLERANCE = 0.30

#: Lockstep batch widths measured (seed-varied lanes per fig1 config).
LOCKSTEP_BATCHES = (4, 16, 64, 128)

#: Floor on lockstep's aggregate guest MIPS at its best batch (>= 16),
#: scaled to the reference host speed of ``perfbench/hostspeed.py``.
#: 10 runs on a 2-vCPU VM read 7.95-9.01 (median 8.53); with the batch
#: dispatch loop slowed by 30% three runs read 6.73-7.17.  The floor
#: sits 12% under the healthy median, between the two.
LOCKSTEP_SCALED_MIPS_FLOOR = 7.5

#: Config and widths of the crossover gate.  gemm float16 auto reads
#: lockstep/serial 1.8-2.4 at width 4 and 0.49-0.62 at width 16 (min
#: of 3, 2-vCPU VM; both walls come from one host minutes apart, so the
#: ratio does not depend on the host).  svm, the slowest config to
#: batch, crosses only at about 24.
CROSSOVER_CONFIG = ("gemm", "float16", "auto")
CROSSOVER_WIDTHS = (4, LOCKSTEP_MIN_WIDTH)

#: Timed runs per engine (reference/fast alternating, median taken)
#: and per crossover width (serial/lockstep interleaved, min taken).
REPEATS = 3

#: Stochastic rounding in lockstep: the wall of a 32-lane SR batch over
#: its RNE twin, the median of REPEATS interleaved pairs.  Lanes rounded
#: one element at a time read 1.5-1.7; batched, 1.2-1.3 (2-vCPU VM,
#: docs/performance.md "SR in lockstep").
SR_CONFIG = ("nn_mlp_train", "float8", "auto")
SR_LANES = 32
SR_OVER_RNE_CEILING = 1.4


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


def measure_lockstep(points, batch, speed):
    """Aggregate guest MIPS with ``batch`` seed-varied lanes per config.

    The fig1 sweep varies *configs*, so lockstep batching is exercised
    the way the sweep harness uses it: each config becomes one batched
    run over ``batch`` seeds (bit-identical per lane to the scalar
    path, enforced by the differential suite).  The sum of per-lane
    ``sim_seconds`` shares is the batch's simulation wall-clock, so
    ``guest_mips`` here is directly comparable to the single-point
    rows above.  ``scaled_guest_mips`` divides it by the host speed
    factor ``speed`` measured over the same interval.
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
    wall_end = time.perf_counter()
    mips = instret / sim_seconds / 1e6
    return {
        "batch": batch,
        "instructions": instret,
        "sim_seconds": round(sim_seconds, 4),
        "wall_seconds": round(wall_end - wall_start, 4),
        "guest_mips": round(mips, 4),
        "scaled_guest_mips": round(
            mips / speed.factor(wall_start, wall_end), 4),
    }


def measure_crossover(width):
    """Lockstep wall over serial block-engine wall for ``width`` seeds
    of :data:`CROSSOVER_CONFIG`, each the min of :data:`REPEATS`
    interleaved runs; below 1 the batch wins."""
    name, ftype, mode = CROSSOVER_CONFIG
    spec, seeds = KERNELS[name], list(range(width))
    serial, lockstep = [], []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for seed in seeds:
            run_kernel(spec, ftype, mode, seed=seed, trap_ok=True)
        serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        run_kernel_batch(spec, ftype, mode, seeds=seeds, trap_ok=True)
        lockstep.append(time.perf_counter() - start)
    return {"width": width,
            "serial_wall_seconds": round(min(serial), 4),
            "lockstep_wall_seconds": round(min(lockstep), 4),
            "ratio": round(min(lockstep) / min(serial), 3)}


def measure_sr_over_rne():
    """Median wall of a :data:`SR_CONFIG` batch under SR (one shared key)
    over the median of its RNE twin, REPEATS interleaved pairs."""
    from repro.fp.rounding import RoundingMode

    name, ftype, mode = SR_CONFIG
    spec, seeds = KERNELS[name], list(range(SR_LANES))
    run_kernel_batch(spec, ftype, mode, seeds=seeds[:2])  # warm up
    walls = {"rne": [], "sr": []}
    for _ in range(REPEATS):
        for rounding, frm in (("rne", None), ("sr", int(RoundingMode.SR))):
            start = time.perf_counter()
            run_kernel_batch(spec, ftype, mode, seeds=seeds, frm=frm,
                             sr_keys=[7] * SR_LANES if frm else None)
            walls[rounding].append(time.perf_counter() - start)
    rne, sr = (sorted(walls[k])[REPEATS // 2] for k in ("rne", "sr"))
    return {"rne_wall_seconds": round(rne, 4), "sr_wall_seconds": round(sr, 4),
            "ratio": round(sr / rne, 3)}


def _median_run(runs):
    """The run with the median guest MIPS."""
    return sorted(runs, key=lambda run: run["guest_mips"])[len(runs) // 2]


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
    runs = {False: [], True: []}
    for _ in range(REPEATS):
        for fast_path in runs:
            runs[fast_path].append(measure_guest_mips(points, fast_path))
    reference, fast = _median_run(runs[False]), _median_run(runs[True])
    # One busy thread: it and the host speed sampler share one CPU, so
    # the sampler times the CPU the work runs on.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        with HostSpeed() as speed:
            lockstep = [measure_lockstep(points, batch, speed)
                        for batch in LOCKSTEP_BATCHES]
    finally:
        os.sched_setaffinity(0, cpus)
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
        "lockstep_scaled_mips": best["scaled_guest_mips"],
        "parallel": [measure_jobs(points, jobs) for jobs in (1, 2)],
        "crossover": [measure_crossover(width)
                      for width in CROSSOVER_WIDTHS],
    }
    return payload


def test_host_perf(capsys):
    clear_cache()
    payload = collect()
    baseline = committed_record(BASELINE_PATH, payload)

    with capsys.disabled():
        print(f"\nhost perf: ref {payload['reference']['guest_mips']} MIPS, "
              f"fast {payload['fast']['guest_mips']} MIPS "
              f"({payload['speedup_guest_mips']}x sim-phase, "
              f"{payload['speedup_wall']}x end-to-end), "
              f"lockstep best {payload['speedup_lockstep_vs_fast']}x "
              f"at batch={payload['lockstep_best_batch']}, "
              f"{payload['lockstep_scaled_mips']} scaled MIPS; "
              "lockstep/serial " + ", ".join(
                  f"{row['ratio']} at width {row['width']}"
                  for row in payload["crossover"]))

    # Sanity floor: the block engine must be a clear win on any host.
    assert payload["speedup_guest_mips"] >= 2.0

    # Lockstep floor: its own host-scaled rate at the best batch.
    assert payload["lockstep_scaled_mips"] >= LOCKSTEP_SCALED_MIPS_FLOOR, (
        f"lockstep {payload['lockstep_scaled_mips']} scaled MIPS below "
        f"the {LOCKSTEP_SCALED_MIPS_FLOOR} floor")

    # Crossover: batching loses below the minimum width and wins at it.
    narrow, wide = payload["crossover"]
    assert narrow["ratio"] > 1 > wide["ratio"], (
        f"lockstep/serial wall {narrow['ratio']} at width "
        f"{narrow['width']}, {wide['ratio']} at width {wide['width']}: "
        f"LOCKSTEP_MIN_WIDTH={LOCKSTEP_MIN_WIDTH} no longer sits at "
        "the crossover")

    # Regression gate against the committed baseline (the ratio is
    # host-independent; absolute MIPS is informational).
    floor = baseline["speedup_guest_mips"] * (1 - REGRESSION_TOLERANCE)
    assert payload["speedup_guest_mips"] >= floor, (
        f"fast-path speedup {payload['speedup_guest_mips']}x regressed "
        f">{REGRESSION_TOLERANCE:.0%} vs baseline "
        f"{baseline['speedup_guest_mips']}x")


def test_sr_over_rne_ratio(capsys):
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        row = measure_sr_over_rne()
    finally:
        os.sched_setaffinity(0, cpus)
    with capsys.disabled():
        print(f"\nlockstep SR/RNE wall {row['ratio']} "
              f"({row['sr_wall_seconds']} s / {row['rne_wall_seconds']} s, "
              f"{' '.join(SR_CONFIG)}, {SR_LANES} lanes)")
    assert row["ratio"] <= SR_OVER_RNE_CEILING, (
        f"stochastic rounding costs {row['ratio']}x round-to-nearest in "
        f"lockstep, above the {SR_OVER_RNE_CEILING} ceiling")


if __name__ == "__main__":
    clear_cache()
    result = collect()
    print(write_canonical(BASELINE_PATH, result).read_text(), end="")
