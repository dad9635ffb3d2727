"""fig1_sweep: the paper's Fig. 1 matrix, one point at a time.

Each pass runs the 39 points of ``harness.experiments.fig1_points``
through ``run_kernel`` at one seed, in this process.  Passes repeat
with fresh seeds until the run time is used up; only whole passes are
counted, so every run measures the same point mix.  Every pass compiles
the same sources again, which is the work a compile cache would save.
"""

from __future__ import annotations

import time

from common import Outcome, RunSummary, measure, rng_for

#: Warm-up point and seed; no pass draws this seed.
WARM_POINT = ("atax", "float16", "auto")
WARM_SEED = (1 << 31) + 1
#: All work runs on this process's main thread; run.py pins it to one CPU.
ONE_CPU = True
#: Passes every run makes; peak RSS is read after them.
MIN_PASSES = 4


def setup(workdir: str):
    """Imports plus one warm-up point; returns the point list."""
    from repro.harness import runner
    from repro.harness.experiments import fig1_points
    from repro.kernels import KERNELS

    name, ftype, mode = WARM_POINT
    runner.run_kernel(KERNELS[name], ftype, mode, seed=WARM_SEED)
    return fig1_points()


def teardown(points) -> None:
    pass


def run_pass(points, seed: int, outcome: Outcome, latencies=None,
             keep: bool = False):
    """Run every point once at ``seed``; summaries when ``keep``."""
    from repro import ReproError
    from repro.harness import runner
    from repro.kernels import KERNELS

    summaries = {}
    for name, ftype, mode, mem_latency, _, budget in points:
        outcome.attempted += 1
        start = time.perf_counter()
        try:
            run = runner.run_kernel(KERNELS[name], ftype, mode,
                                    mem_latency=mem_latency, seed=seed,
                                    max_instructions=budget)
        except ReproError as exc:
            outcome.fail(f"{name}/{ftype}/{mode} seed {seed}: {exc}")
            continue
        end = time.perf_counter()
        if run.exit_reason != "halt":
            outcome.fail(f"{name}/{ftype}/{mode} seed {seed} did not halt: "
                         f"{run.exit_reason}")
            continue
        if latencies is not None:
            latencies.append((start, end))
        if keep:
            summaries[(name, ftype, mode)] = RunSummary.of(run)
    return summaries


def staged_compile(source, vectorize_loops=False, lint=True,
                   expanding_reductions=False, **bases):
    """``compile_source``'s public steps, called in its own order."""
    from repro.analysis.lints import lint_program
    from repro.compiler.pipeline import (analyze, assemble, fold_constants,
                                         generate, parse, vectorize)

    module = parse(source)
    analyze(module)
    fold_constants(module)
    report = None
    if vectorize_loops:
        report = vectorize(module, expanding=expanding_reductions)
    asm = "\n".join(generate(fn) for fn in module.functions)
    program = assemble(asm, **bases)
    if lint:
        lint_program(program, vector_report=report, source=asm)
    return asm, list(program.words)


def check_staged_compile(outcome: Outcome, keys) -> None:
    """The traced steps must build exactly what ``compile_source`` does."""
    from repro.compiler import compile_source

    for args, opts in keys:
        reference = compile_source(*args, **dict(opts))
        asm, words = staged_compile(*args, **dict(opts))
        if asm != reference.asm or words != list(reference.program.words):
            outcome.mismatch(f"staged compile differs from compile_source "
                             f"for options {dict(opts)}")


def run(seed: int, seconds: float, trace: bool, points, speed) -> Outcome:
    outcome, _, tracer = measure(
        lambda index: rng_for(f"fig1_sweep:pass{index}", seed).randrange(
            1 << 31),
        lambda pass_seed, out, latencies, keep: run_pass(
            points, pass_seed, out, latencies, keep),
        seconds, trace, speed, MIN_PASSES)
    if tracer is not None:
        keys = {s.meta for s in tracer.spans if s.name == "compiler.compile"}
        check_staged_compile(outcome, keys)
    return outcome
