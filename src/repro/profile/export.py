"""Renderers over an aggregated :class:`~repro.profile.aggregate.Profile`.

Four output forms, all derived from the same payload:

* :func:`render_text` -- the human-facing hot-spot report printed by
  ``repro profile``.
* :func:`Profile.to_payload` + :func:`validate_payload` -- the
  schema-versioned JSON documented in ``docs/profiling.md``.
* :func:`annotate_disassembly` -- the program's disassembly with
  per-instruction cycles/stalls in the margin.
* :func:`to_chrome_trace` -- a Chrome ``trace_event`` timeline (one
  slice per basic-block visit, one per memory stall, as captured by a
  :class:`~repro.profile.timeline.TimelineRecorder`) loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List

from ..isa.disassembler import disassemble
from ..sim.timing import STALL_CAUSES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.assembler import Program
    from .aggregate import Profile
    from .timeline import TimelineRecorder

#: Version of the ``repro profile --json`` payload.  Bump on any
#: breaking change to the structure (see docs/profiling.md).
PROFILE_SCHEMA_VERSION = 2

#: Version of the Chrome-trace export (``otherData.version``).
CHROME_TRACE_VERSION = 1


class ProfilePayloadError(ValueError):
    """A profile JSON payload does not match the documented schema."""


# ----------------------------------------------------------------------
# Text report
# ----------------------------------------------------------------------
def _pct(part: int, whole: int) -> str:
    if whole <= 0:
        return "   -  "
    return f"{100.0 * part / whole:5.1f}%"


def render_text(profile: "Profile", top: int = 10) -> str:
    """The hot-spot report: totals, stall causes, loops, blocks."""
    out: List[str] = []
    context = " ".join(f"{key}={value}"
                       for key, value in profile.context.items())
    title = "repro.profile report"
    if context:
        title += f" -- {context}"
    out.append(title)
    out.append("=" * len(title))
    out.append("")

    cyc = profile.cycles
    out.append("totals")
    out.append(f"  cycles        {cyc:>12}")
    out.append(f"  instret       {profile.instret:>12}")
    out.append(f"  base cycles   {profile.base_cycles:>12}  "
               f"{_pct(profile.base_cycles, cyc)}")
    for cause in STALL_CAUSES:
        stall = profile.stall_totals.get(cause, 0)
        out.append(f"  stall {cause:<8}{stall:>12}  {_pct(stall, cyc)}")
    out.append(f"  memory level  {profile.mem_level:>12}  "
               f"(latency {profile.mem_latency})")
    out.append(f"  flen          {profile.flen:>12}")
    if profile.exit_reason:
        out.append(f"  exit reason   {profile.exit_reason:>12}")
    if profile.unmapped_cycles:
        out.append(f"  unmapped      {profile.unmapped_cycles:>12}  "
                   f"{_pct(profile.unmapped_cycles, cyc)}  "
                   "(PCs outside the CFG)")
    out.append("")

    loops = profile.hot_loops(top)
    if loops:
        out.append(f"hot loops (top {len(loops)} by total cycles)")
        out.append("  %total  %self   iterations  depth  loop"
                   "                 function")
        for loop in loops:
            out.append(
                f"  {_pct(loop.total_cycles, cyc)} {_pct(loop.self_cycles, cyc)}"
                f"  {loop.iterations:>10}  {loop.depth:>5}"
                f"  {loop.name:<20} {loop.function or '?'}")
        out.append("")

    blocks = profile.hot_blocks(top)
    if blocks:
        out.append(f"hot blocks (top {len(blocks)} by cycles)")
        out.append("  %total       cycles      instret  visits"
                   "  stalls m/c/d/f            block")
        for block in blocks:
            stalls = "/".join(str(block.stalls.get(cause, 0))
                              for cause in STALL_CAUSES)
            out.append(
                f"  {_pct(block.cycles, cyc)} {block.cycles:>12}"
                f" {block.instret:>12}  {block.visits:>6}"
                f"  {stalls:<24}  {block.name}")
            if block.fp_ops:
                ops = ", ".join(f"{name}:{count}" for name, count
                                in sorted(block.fp_ops.items()))
                out.append(f"{'':>47}  fp ops: {ops}")
        out.append("")

    functions = profile.hot_functions(top)
    if functions:
        out.append("functions")
        out.append("  %total       cycles      instret  name")
        for fn in functions:
            out.append(f"  {_pct(fn.cycles, cyc)} {fn.cycles:>12}"
                       f" {fn.instret:>12}  {fn.name}")
        out.append("")

    roofline = profile.roofline
    if roofline.flops_by_format or roofline.bytes_total:
        out.append("roofline")
        for fmt in sorted(roofline.flops_by_format):
            out.append(f"  {fmt:<12} {roofline.flops_by_format[fmt]:>12}"
                       f" flops   {roofline.intensity(fmt):8.3f} flops/byte")
        out.append(f"  {'all formats':<12} {roofline.flops_total:>12}"
                   f" flops   {roofline.intensity():8.3f} flops/byte")
        out.append(f"  bytes moved  {roofline.bytes_total:>12}")
        out.append("")

    return "\n".join(out).rstrip() + "\n"


# ----------------------------------------------------------------------
# Annotated disassembly
# ----------------------------------------------------------------------
def annotate_disassembly(profile: "Profile",
                         program: "Program") -> str:
    """Disassembly with per-instruction profile data in the margin.

    Margin columns: retire count, cycles, and the dominant stall cause
    (blank for never-executed instructions).  Labels from the symbol
    table are interleaved, so the output reads like the original
    listing.
    """
    by_addr: Dict[int, List[str]] = {}
    for name, addr in sorted(program.symbols.items(), key=lambda s: s[1]):
        by_addr.setdefault(addr, []).append(name)

    out: List[str] = []
    out.append(f"{'instret':>10} {'cycles':>10} {'stall':>12}   "
               "address   instruction")
    for index, word in enumerate(program.words):
        addr = program.text_base + 4 * index
        for label in by_addr.get(addr, []):
            out.append(f"{'':>36}{label}:")
        row = profile.pc_table.get(addr)
        if row is None:
            margin = f"{'':>10} {'':>10} {'':>12}"
        else:
            _, instret, cycles, stalls = row
            cause = max(stalls, key=lambda c: stalls[c])
            stall_text = (f"{stalls[cause]} {cause}" if stalls[cause]
                          else "")
            margin = f"{instret:>10} {cycles:>10} {stall_text:>12}"
        out.append(f"{margin}   {addr:#08x}  {disassemble(word, addr)}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# Chrome trace_event timeline
# ----------------------------------------------------------------------
def to_chrome_trace(profile: "Profile",
                    timeline: "TimelineRecorder") -> Dict[str, object]:
    """A Chrome ``trace_event`` JSON object for the run's timeline.

    ``timeline`` is the finished recorder of the same run; ``profile``
    names its blocks.

    Timestamps are simulated cycles reported as microseconds (one
    cycle == 1 us), which keeps the viewer's zoom ruler meaningful.
    Thread 0 carries basic-block occupancy; thread 1 carries memory
    stalls.  Load the result in ``chrome://tracing`` or Perfetto.
    """
    block_names = {b.start: b.name for b in profile.blocks}
    block_functions = {b.start: b.function for b in profile.blocks}
    pid = 1
    events: List[Dict[str, object]] = [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "repro-sim"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": 0,
         "args": {"name": "basic blocks"}},
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": 1,
         "args": {"name": "memory stalls"}},
    ]
    for block, t0, t1 in timeline.block_events:
        if t1 <= t0:
            continue
        events.append({
            "name": block_names.get(block, f"block@{block:#x}"),
            "cat": "block",
            "ph": "X",
            "ts": t0,
            "dur": t1 - t0,
            "pid": pid,
            "tid": 0,
            "args": {"start": f"{block:#x}",
                     "function": block_functions.get(block)},
        })
    for pc, t0, dur in timeline.stall_events:
        if dur <= 0:
            continue
        events.append({
            "name": "mem stall",
            "cat": "stall",
            "ph": "X",
            "ts": t0,
            "dur": dur,
            "pid": pid,
            "tid": 1,
            "args": {"pc": f"{pc:#x}"},
        })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": "repro.profile.chrome-trace",
            "version": CHROME_TRACE_VERSION,
            "context": dict(profile.context),
            "truncated": timeline.truncated,
        },
    }


# ----------------------------------------------------------------------
# Payload validation
# ----------------------------------------------------------------------
_TOTAL_KEYS = ("cycles", "instret", "base_cycles", "stalls",
               "unmapped_cycles", "unmapped_instret")
_TOP_KEYS = ("schema", "context", "totals", "machine", "exit_reason",
             "blocks", "loops", "functions", "roofline")
_BLOCK_KEYS = ("start", "end", "name", "labels", "function",
               "loop_header", "loop_depth", "instret", "cycles",
               "visits", "stalls", "fp_ops")
_LOOP_KEYS = ("header", "name", "depth", "function", "blocks",
              "iterations", "self_cycles", "self_instret",
              "total_cycles", "total_instret", "stalls")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProfilePayloadError(message)


def validate_payload(payload: object) -> Dict[str, object]:
    """Check a ``repro profile --json`` payload against the schema.

    Returns the payload (for chaining) or raises
    :class:`ProfilePayloadError` naming the first violation.  Beyond
    shape, the accounting invariants are enforced: retired
    instructions plus attributed stalls must equal total cycles, and
    block totals plus unmapped residue must reproduce the run totals.
    """
    _require(isinstance(payload, dict), "payload must be a JSON object")
    assert isinstance(payload, dict)
    for key in _TOP_KEYS:
        _require(key in payload, f"missing top-level key {key!r}")

    schema = payload["schema"]
    _require(isinstance(schema, dict), "schema must be an object")
    _require(schema.get("name") == "repro.profile",
             f"schema name must be 'repro.profile', got {schema.get('name')!r}")
    _require(schema.get("version") == PROFILE_SCHEMA_VERSION,
             f"unsupported schema version {schema.get('version')!r} "
             f"(expected {PROFILE_SCHEMA_VERSION})")

    totals = payload["totals"]
    _require(isinstance(totals, dict), "totals must be an object")
    for key in _TOTAL_KEYS:
        _require(key in totals, f"missing totals key {key!r}")
    for key in _TOTAL_KEYS:
        if key == "stalls":
            continue
        _require(isinstance(totals[key], int) and totals[key] >= 0,
                 f"totals[{key!r}] must be a non-negative integer")
    stalls = totals["stalls"]
    _require(isinstance(stalls, dict)
             and set(stalls) == set(STALL_CAUSES),
             f"totals stalls must have exactly the causes {STALL_CAUSES}")
    for cause, value in stalls.items():
        _require(isinstance(value, int) and value >= 0,
                 f"stall[{cause!r}] must be a non-negative integer")

    # The accounting identity: every cycle is one issue slot or one
    # attributed stall cycle.
    _require(totals["instret"] + sum(stalls.values()) == totals["cycles"],
             "instret + stalls must equal cycles")
    _require(totals["base_cycles"] == totals["instret"],
             "base_cycles must equal instret on the in-order model")

    blocks = payload["blocks"]
    _require(isinstance(blocks, list), "blocks must be a list")
    block_cycles = totals["unmapped_cycles"]
    block_instret = totals["unmapped_instret"]
    for index, block in enumerate(blocks):
        _require(isinstance(block, dict), f"blocks[{index}] must be an object")
        for key in _BLOCK_KEYS:
            _require(key in block, f"blocks[{index}] missing key {key!r}")
        _require(set(block["stalls"]) == set(STALL_CAUSES),
                 f"blocks[{index}] stalls must cover {STALL_CAUSES}")
        block_cycles += block["cycles"]
        block_instret += block["instret"]
    _require(block_cycles == totals["cycles"],
             "block cycles + unmapped must equal total cycles")
    _require(block_instret == totals["instret"],
             "block instret + unmapped must equal total instret")

    loops = payload["loops"]
    _require(isinstance(loops, list), "loops must be a list")
    for index, loop in enumerate(loops):
        _require(isinstance(loop, dict), f"loops[{index}] must be an object")
        for key in _LOOP_KEYS:
            _require(key in loop, f"loops[{index}] missing key {key!r}")
        _require(loop["self_cycles"] <= loop["total_cycles"],
                 f"loops[{index}] self_cycles exceeds total_cycles")

    machine = payload["machine"]
    _require(isinstance(machine, dict), "machine must be an object")
    for key in ("flen", "mem_latency", "mem_level"):
        _require(key in machine, f"missing machine key {key!r}")

    roofline = payload["roofline"]
    _require(isinstance(roofline, dict), "roofline must be an object")
    for key in ("flops_by_format", "flops_total", "bytes_total",
                "intensity_by_format", "intensity_total"):
        _require(key in roofline, f"missing roofline key {key!r}")
    _require(roofline["flops_total"]
             == sum(roofline["flops_by_format"].values()),
             "roofline flops_total must equal the per-format sum")

    return payload
