#!/usr/bin/env python3
"""Lockstep batched execution: N seed-varied sweep points, one stream.

Sweep points that differ only in their data seed execute the same
instruction stream over different data, so the lockstep engine runs
them as lanes of one batched simulation -- per-lane state in numpy
arrays, one block dispatch per batch -- while keeping every lane
bit-identical to the same point run alone.

This example runs a seed sweep three ways: point-by-point through the
fast path, batched through ``run_kernel_batch`` (the low-level API),
and batched through ``run_points(lockstep=...)`` (the sweep harness,
which groups compatible points automatically), then verifies the
results are bit-identical.

Run:  python examples/lockstep_sweep.py
"""

import time

from repro.harness.parallel import SweepPoint, run_points
from repro.harness.runner import run_kernel, run_kernel_batch
from repro.kernels import KERNELS

KERNEL, FTYPE, MODE = "gemm", "float16", "auto"
SEEDS = list(range(16))


def main() -> None:
    spec = KERNELS[KERNEL]
    print(f"== {KERNEL}/{FTYPE}/{MODE}, {len(SEEDS)} seeds ==")

    # Point-by-point: the block engine, one full run per seed.
    start = time.perf_counter()
    solo = [run_kernel(spec, FTYPE, MODE, seed=seed) for seed in SEEDS]
    solo_wall = time.perf_counter() - start
    instret = sum(run.trace.instret for run in solo)
    print(f"  point-by-point: {solo_wall:.2f}s "
          f"({instret / solo_wall / 1e6:.2f} aggregate MIPS)")

    # One lockstep batch: compile once, run all seeds as lanes.
    start = time.perf_counter()
    batched = run_kernel_batch(spec, FTYPE, MODE, seeds=SEEDS)
    batch_wall = time.perf_counter() - start
    print(f"  lockstep batch: {batch_wall:.2f}s "
          f"({instret / batch_wall / 1e6:.2f} aggregate MIPS, "
          f"{solo_wall / batch_wall:.1f}x)")

    # Bit-identical per lane: same cycles, instret, flags, outputs.
    for ref, got in zip(solo, batched):
        assert ref.trace.cycles == got.trace.cycles
        assert ref.trace.instret == got.trace.instret
        for name in ref.outputs:
            assert (ref.outputs[name] == got.outputs[name]).all()
    print("  bit-identical per lane: True")

    # The sweep harness batches compatible points automatically:
    # same kernel/format/mode/latency/budget, seed-only variation.
    points = [SweepPoint(KERNEL, FTYPE, MODE, seed=seed) for seed in SEEDS]
    start = time.perf_counter()
    results = run_points(points, lockstep=len(SEEDS))
    print(f"  run_points(lockstep={len(SEEDS)}): "
          f"{time.perf_counter() - start:.2f}s, "
          f"{sum(1 for o in results.values() if o.status == 'ok')}"
          f"/{len(points)} ok")
    print("  (serving batches queued seed-varied points the same way: "
          "repro serve --lockstep 8)")


if __name__ == "__main__":
    main()
