#!/usr/bin/env python3
"""Lockstep batched execution: N seed-varied sweep points, one stream.

Sweep points that differ only in their data seed execute the same
instruction stream over different data, so the lockstep engine runs
them as lanes of one batched simulation -- per-lane state in numpy
arrays, one block dispatch per batch -- while keeping every lane
bit-identical to the same point run alone.

This example runs a seed sweep two ways: point-by-point through the
fast path and batched through ``run_kernel_batch``, then verifies the
results are bit-identical.  It does so for an IEEE binary16 config and
for a posit8 guest-format config: both round through the same
vectorized FP codec in the batch.  Batching pays only from
``LOCKSTEP_MIN_WIDTH`` lanes up; below that width the lanes run faster
one after another.

Run:  python examples/lockstep_sweep.py
"""

import time

from repro.harness.parallel import LOCKSTEP_MIN_WIDTH
from repro.harness.runner import run_kernel, run_kernel_batch
from repro.kernels import KERNELS

#: (kernel, ftype, mode): an IEEE smallFloat and a guest format.
CONFIGS = [("gemm", "float16", "auto"), ("syrk", "posit8", "auto")]
SEEDS = list(range(LOCKSTEP_MIN_WIDTH))


def sweep(kernel: str, ftype: str, mode: str) -> None:
    spec = KERNELS[kernel]
    print(f"== {kernel}/{ftype}/{mode}, {len(SEEDS)} seeds ==")

    # Point-by-point: the block engine, one full run per seed.
    start = time.perf_counter()
    solo = [run_kernel(spec, ftype, mode, seed=seed) for seed in SEEDS]
    solo_wall = time.perf_counter() - start
    instret = sum(run.trace.instret for run in solo)
    print(f"  point-by-point: {solo_wall:.2f}s "
          f"({instret / solo_wall / 1e6:.2f} aggregate MIPS)")

    # One lockstep batch: compile once, run all seeds as lanes.
    start = time.perf_counter()
    batched = run_kernel_batch(spec, ftype, mode, seeds=SEEDS)
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


def main() -> None:
    for config in CONFIGS:
        sweep(*config)
    print(f"(repro serve batches queued seed variants the same way "
          f"once {LOCKSTEP_MIN_WIDTH} are ready)")


if __name__ == "__main__":
    main()
