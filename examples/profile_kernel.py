#!/usr/bin/env python3
"""Cycle-attribution profiling walkthrough: where do the cycles go?

Run:  python examples/profile_kernel.py
"""

import json

from repro.harness import run_kernel
from repro.harness.runner import build_kernel
from repro.kernels import KERNELS
from repro.profile import (TimelineRecorder, render_text, to_chrome_trace,
                           validate_payload)


def hot_spot_demo() -> None:
    print("== Hot-spot report: gemm, float16, auto-vectorized ==")
    run = run_kernel(KERNELS["gemm"], ftype="float16", mode="auto",
                     profile=True)
    print(render_text(run.profile, top=3))


def stall_mix_demo() -> None:
    print("== Stall causes across the memory hierarchy ==")
    for level, latency in (("L1", 1), ("L2", 10), ("L3", 100)):
        run = run_kernel(KERNELS["atax"], ftype="float16", mode="scalar",
                         mem_latency=latency, profile=True)
        profile = run.profile
        mix = ", ".join(f"{cause} {count}"
                        for cause, count in profile.stall_totals.items()
                        if count)
        print(f"  {level}: {profile.cycles:>7} cycles "
              f"({profile.instret} issue + stalls: {mix})")
    print()


def roofline_demo() -> None:
    print("== Operational intensity per float format ==")
    for ftype in ("float", "float16", "float8"):
        run = run_kernel(KERNELS["gemm"], ftype=ftype, mode="auto",
                         profile=True)
        roofline = run.profile.roofline
        for fmt, flops in sorted(roofline.flops_by_format.items()):
            print(f"  {ftype:<10s} {fmt:<12s} {flops:>6} flops / "
                  f"{roofline.bytes_total:>6} bytes = "
                  f"{roofline.intensity(fmt):.3f} flops/byte")
    print()


def export_demo() -> None:
    print("== Exports: schema-versioned JSON and a Chrome trace ==")
    # The timeline recorder is a step hook: this run takes the reference
    # loop, and the profile is built from its trace like any other.
    timeline = TimelineRecorder(
        build_kernel(KERNELS["svm"], "float8", "auto").program)
    run = run_kernel(KERNELS["svm"], ftype="float8", mode="auto",
                     profile=True, injector=timeline)
    timeline.finish(run.trace)
    payload = validate_payload(run.profile.to_payload())
    print(f"  JSON payload: schema {payload['schema']}, "
          f"{len(payload['blocks'])} blocks, "
          f"{len(payload['loops'])} loops, "
          f"{len(json.dumps(payload))} bytes serialized")
    trace = to_chrome_trace(run.profile, timeline)
    slices = sum(1 for e in trace["traceEvents"] if e["ph"] == "X")
    print(f"  Chrome trace: {slices} duration events "
          "(load in chrome://tracing or ui.perfetto.dev)")


if __name__ == "__main__":
    hot_spot_demo()
    stall_mix_demo()
    roofline_demo()
    export_demo()
