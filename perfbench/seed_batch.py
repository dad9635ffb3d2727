"""seed_batch: eight configs, each one ``run_kernel_batch`` over 32 seeds.

A round runs every config once as a lockstep batch of seed lanes.  The
configs cover the three routes through the batched FP layer: IEEE
round-to-nearest-even (lane-vectorised numpy), guest formats (the
per-element codec fallback) and stochastic rounding with one shared
key.  Rounds repeat with fresh lane seeds until the run time is used
up; only whole rounds count, so every run measures the same mix.
"""

from __future__ import annotations

import time

from common import Outcome, RunSummary, measure, rng_for

#: (kernel, ftype, rounding); every config runs in ``auto`` mode.
CONFIGS = (
    ("gemm", "float16", "rne"),
    ("nn_conv2d", "float16alt", "rne"),
    ("svm", "float16", "rne"),
    ("syrk", "posit8", "rne"),
    ("nn_mlp_fwd", "posit16", "rne"),
    ("nn_attention", "mx8", "rne"),
    ("nn_mlp_train", "float8", "rne"),
    ("nn_mlp_train", "float8", "sr"),
)
LANES = 32
#: All work runs on this process's main thread; run.py pins it to one CPU.
ONE_CPU = True
#: Rounds every run makes; peak RSS is read after them.
MIN_ROUNDS = 2
WARM_SEEDS = [(1 << 31) + 1, (1 << 31) + 2]


def setup(workdir: str):
    """Imports plus one small warm-up batch."""
    from repro.harness import runner
    from repro.kernels import KERNELS

    runner.run_kernel_batch(KERNELS["atax"], "float16", "auto",
                            seeds=WARM_SEEDS)
    return None


def teardown(state) -> None:
    pass


def _frm(rounding: str):
    from repro.fp.rounding import RoundingMode

    return int(RoundingMode.SR) if rounding == "sr" else None


def run_round(seeds, sr_key: int, outcome: Outcome, latencies=None,
              keep: bool = False):
    """Every config as one batch over ``seeds``; per-lane summaries."""
    from repro import ReproError
    from repro.harness import runner
    from repro.kernels import KERNELS

    summaries = {}
    for name, ftype, rounding in CONFIGS:
        outcome.attempted += len(seeds)
        sr_keys = [sr_key] * len(seeds) if rounding == "sr" else None
        start = time.perf_counter()
        try:
            runs = runner.run_kernel_batch(KERNELS[name], ftype, "auto",
                                           seeds=seeds, frm=_frm(rounding),
                                           sr_keys=sr_keys)
        except ReproError as exc:
            outcome.fail(f"{name}/{ftype}/{rounding}: {exc}", len(seeds))
            continue
        if latencies is not None:
            latencies.append((start, time.perf_counter()))
        for seed, run in zip(seeds, runs):
            if run.exit_reason != "halt":
                outcome.fail(f"{name}/{ftype}/{rounding} seed {seed} did "
                             f"not halt: {run.exit_reason}")
        if keep:
            for lane, run in enumerate(runs):
                summaries[(name, ftype, rounding, lane)] = RunSummary.of(run)
    return summaries


def check_solo(outcome: Outcome, seeds, sr_key: int, first, rng) -> None:
    """One lane per config must be bit-identical to its solo run."""
    from repro.harness import runner
    from repro.kernels import KERNELS

    for name, ftype, rounding in CONFIGS:
        lane = rng.randrange(len(seeds))
        solo = runner.run_kernel(KERNELS[name], ftype, "auto",
                                 seed=seeds[lane], frm=_frm(rounding),
                                 sr_key=sr_key if rounding == "sr" else 0)
        key = (name, ftype, rounding, lane)
        if first.get(key) != RunSummary.of(solo):
            outcome.mismatch(f"lane {key} differs from its solo run_kernel")


def lane_seeds(seed: int, index: int):
    """The lane seeds of round ``index``."""
    rng = rng_for(f"seed_batch:round{index}", seed)
    return [rng.randrange(1 << 31) for _ in range(LANES)]


def run(seed: int, seconds: float, trace: bool, state, speed) -> Outcome:
    sr_key = rng_for("seed_batch:sr_key", seed).randrange(1, 1 << 31)
    outcome, first, _ = measure(
        lambda index: lane_seeds(seed, index),
        lambda seeds, out, latencies, keep: run_round(
            seeds, sr_key, out, latencies, keep),
        seconds, trace, speed, MIN_ROUNDS)
    check_solo(outcome, lane_seeds(seed, 0), sr_key, first,
               rng_for("seed_batch:solo", seed))
    return outcome
