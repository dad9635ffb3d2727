"""Cycle-attribution profiling and trace-export observability.

The paper's figures are *aggregate* numbers -- total cycles, total
instruction mixes.  This subsystem answers the question underneath
them: **where do the cycles go?**  It has three layers:

* :mod:`repro.profile.aggregate` -- :func:`build_profile`, a pure
  function of a finished run: it prices every executed PC with
  :meth:`~repro.sim.timing.TimingModel.breakdown` (base cycle plus a
  stall attributed to memory latency, control flow, integer divide or
  FP divide/sqrt) times its not-taken and taken retire counts from the
  :class:`~repro.sim.tracer.Trace`, so every cycle of a run lands on
  exactly one program counter and one stall cause whichever engine ran
  it.  It then maps the per-PC totals onto the :mod:`repro.analysis`
  CFG (basic blocks, merged natural loops, call entries) for block-,
  loop- and function-level hot-spot tables, per-block FP-format
  operation counts and a roofline-style flops-per-byte summary per
  float format.
* :mod:`repro.profile.export` -- renderers over the aggregate: a text
  hot-spot report, a schema-versioned JSON payload, annotated
  disassembly (cycles in the margin), and a Chrome ``trace_event``
  timeline loadable in ``chrome://tracing`` / Perfetto.
* :mod:`repro.profile.timeline` -- the step hook that captures that
  timeline on the reference loop (``repro profile --trace`` only).

Entry points: ``run_kernel(..., profile=True)`` on the harness, the
``repro profile`` CLI subcommand, ``?profile=1`` on ``repro serve``
and ``repro experiments --profile-dir`` to emit one profile per sweep
point.
"""

from .aggregate import (
    BlockStat,
    FunctionStat,
    LoopStat,
    Profile,
    RooflineStat,
    build_profile,
)
from .baseline import compute_profile_baseline
from .export import (
    PROFILE_SCHEMA_VERSION,
    ProfilePayloadError,
    annotate_disassembly,
    render_text,
    to_chrome_trace,
    validate_payload,
)
from .timeline import TimelineRecorder

__all__ = [
    "BlockStat",
    "FunctionStat",
    "LoopStat",
    "Profile",
    "RooflineStat",
    "build_profile",
    "compute_profile_baseline",
    "PROFILE_SCHEMA_VERSION",
    "ProfilePayloadError",
    "TimelineRecorder",
    "annotate_disassembly",
    "render_text",
    "to_chrome_trace",
    "validate_payload",
]
