"""Where a diverged lockstep sub-batch should leave lockstep.

A lockstep batch that splits on a data-dependent branch leaves
sub-batches narrower than the run.  Under round-to-nearest-even, in a
run of at most :data:`repro.sim.lockstep.LOCKSTEP_MIN_WIDTH` lanes,
such a sub-batch drains to the block engine.  This microbenchmark
times one 32-lane ``run_kernel_batch`` of each config that splits, under
RNE and under stochastic rounding, with the width set to each of
:data:`WIDTHS` in turn.  Width 1 drains nothing, as the engine did
before the rule; since a 32-lane run is wider than any width under
32, those widths drain nothing either.
Under SR the rule does not apply, so SR joins
:data:`~repro.sim.lockstep.SCALAR_FACE_MODES` for the measurement.
Runs are interleaved (every width once per round, the order rotating
between rounds) on one pinned CPU, and the table shows the median
wall of :data:`REPEATS` rounds, in seconds.

Run: ``PYTHONPATH=src python benchmarks/split_width.py``
"""

import os
import statistics
import time

from repro.fp.rounding import RoundingMode
from repro.harness.runner import run_kernel_batch
from repro.kernels import KERNELS
from repro.sim import lockstep

#: The configs that split (the others in ``perfbench``'s seed_batch mix
#: never do).
CONFIGS = (("svm", "float16", "auto"), ("nn_mlp_train", "float8", "auto"))
LANES = 32
WIDTHS = (1, 8, 16, 24, 32)
REPEATS = 7


def _run(config, frm, width):
    name, ftype, mode = config
    saved = lockstep.LOCKSTEP_MIN_WIDTH, lockstep.SCALAR_FACE_MODES
    lockstep.LOCKSTEP_MIN_WIDTH = width
    if frm is not None:
        lockstep.SCALAR_FACE_MODES = saved[1] | {RoundingMode(frm)}
    try:
        start = time.perf_counter()
        run_kernel_batch(KERNELS[name], ftype, mode,
                         seeds=list(range(LANES)), frm=frm,
                         sr_keys=[7] * LANES if frm is not None else None)
        return time.perf_counter() - start
    finally:
        lockstep.LOCKSTEP_MIN_WIDTH, lockstep.SCALAR_FACE_MODES = saved


def measure():
    """Median wall per (config, rounding) row and width."""
    rows = [(config, rounding, frm) for config in CONFIGS
            for rounding, frm in (("rne", None),
                                  ("sr", int(RoundingMode.SR)))]
    walls = {(row[0], row[1], w): [] for row in rows for w in WIDTHS}
    for config, _rounding, frm in rows:
        _run(config, frm, 1)  # warm the compile and codec caches
    for rep in range(REPEATS):
        order = WIDTHS[rep % len(WIDTHS):] + WIDTHS[:rep % len(WIDTHS)]
        for config, rounding, frm in rows:
            for width in order:
                walls[config, rounding, width].append(
                    _run(config, frm, width))
    return {key: statistics.median(times) for key, times in walls.items()}


def main():
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        medians = measure()
    finally:
        os.sched_setaffinity(0, cpus)
    print("| config | rounding | "
          + " | ".join(f"w={w}" for w in WIDTHS) + " |")
    print("|---|---|" + "---|" * len(WIDTHS))
    for config in CONFIGS:
        for rounding in ("rne", "sr"):
            cells = " | ".join(f"{medians[config, rounding, w]:.3f}"
                               for w in WIDTHS)
            print(f"| {' '.join(config)} | {rounding} | {cells} |")


if __name__ == "__main__":
    main()
