"""From a finished run's :class:`~repro.sim.tracer.Trace` to hot spots.

``build_profile`` is a pure function of the program, the run's trace
and its timing model, so a run on any engine (reference loop, block
engine, lockstep lane) profiles the same way.  Each executed PC is
priced with :meth:`TimingModel.breakdown
<repro.sim.timing.TimingModel.breakdown>` times its not-taken and taken
retire counts, lands in a basic block, every block in at most one
innermost natural loop and one function, and the cycle totals roll up
without double counting -- the invariant tests pin down that block,
loop-self, function and stall-cause totals each sum exactly to the
run's ``cycles``/``instret``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from ..fp import registry
from ..sim.memory import LATENCY_LEVELS
from ..sim.semantics import spec_info
from ..sim.timing import STALL_CAUSES
from ..sim.tracer import CATEGORIES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..isa.assembler import Program
    from ..isa.instructions import Instr
    from ..sim.timing import TimingModel
    from ..sim.tracer import Trace

#: Instruction categories counted as FP work in per-block breakdowns:
#: every Fig. 4 category from conversions on.
FP_CATEGORIES = tuple(CATEGORIES[CATEGORIES.index("conv"):])


def _empty_stalls() -> Dict[str, int]:
    return {cause: 0 for cause in STALL_CAUSES}


@dataclass
class BlockStat:
    """Execution totals of one basic block."""

    start: int
    end: int
    labels: List[str]
    function: Optional[str]
    loop_header: Optional[int]  #: innermost containing loop, if any
    loop_depth: int
    instret: int = 0
    cycles: int = 0
    visits: int = 0
    stalls: Dict[str, int] = field(default_factory=_empty_stalls)
    #: Executed FP operation counts per category (fp16, vfp8, conv...).
    fp_ops: Dict[str, int] = field(default_factory=dict)

    @property
    def name(self) -> str:
        if self.labels:
            return self.labels[0]
        return f"block@{self.start:#x}"


@dataclass
class LoopStat:
    """One merged natural loop's cycle attribution.

    ``self_*`` counts only blocks whose *innermost* loop is this one
    (so sibling/nested loops never share a cycle); ``total_*`` counts
    the whole body including nested loops.
    """

    header: int
    depth: int
    function: Optional[str]
    blocks: int
    iterations: int
    self_cycles: int = 0
    self_instret: int = 0
    total_cycles: int = 0
    total_instret: int = 0
    stalls: Dict[str, int] = field(default_factory=_empty_stalls)

    @property
    def name(self) -> str:
        return f"loop@{self.header:#x}"


@dataclass
class FunctionStat:
    """Per-function rollup (self cycles of its blocks; no call tree)."""

    name: str
    entry: Optional[int]
    instret: int = 0
    cycles: int = 0
    stalls: Dict[str, int] = field(default_factory=_empty_stalls)


@dataclass
class RooflineStat:
    """Operational-intensity summary per FP format.

    ``flops`` follows the standard convention (FMA-shaped ops count 2
    per element, SIMD ops count per lane, compares/moves/conversions
    count 0); ``bytes`` is all data-memory traffic of the run, so
    ``flops / bytes`` is each format's achieved operational intensity
    against the *shared* memory stream.
    """

    flops_by_format: Dict[str, int] = field(default_factory=dict)
    bytes_total: int = 0

    @property
    def flops_total(self) -> int:
        return sum(self.flops_by_format.values())

    def intensity(self, fmt: Optional[str] = None) -> float:
        """Flops per byte (one format, or all formats together)."""
        if not self.bytes_total:
            return 0.0
        flops = (self.flops_by_format.get(fmt, 0) if fmt
                 else self.flops_total)
        return flops / self.bytes_total


@dataclass
class Profile:
    """The aggregated result of one profiled run."""

    cycles: int
    instret: int
    stall_totals: Dict[str, int]
    mem_latency: int
    mem_level: str
    flen: int
    exit_reason: Optional[str]
    context: Dict[str, object]
    blocks: List[BlockStat]
    loops: List[LoopStat]
    functions: List[FunctionStat]
    roofline: RooflineStat
    #: Cycles/instret at PCs outside every CFG block (hand-placed
    #: parcels, raw streams); zero for compiled kernels.
    unmapped_cycles: int = 0
    unmapped_instret: int = 0
    #: Raw per-PC data for annotated disassembly:
    #: pc -> (mnemonic, instret, cycles, stalls dict).
    pc_table: Dict[int, tuple] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def base_cycles(self) -> int:
        """One issue cycle per retired instruction."""
        return self.instret

    @property
    def stall_cycles(self) -> int:
        return sum(self.stall_totals.values())

    def hot_blocks(self, n: int = 10) -> List[BlockStat]:
        return sorted(self.blocks, key=lambda b: -b.cycles)[:n]

    def hot_loops(self, n: int = 10) -> List[LoopStat]:
        return sorted(self.loops, key=lambda l: -l.total_cycles)[:n]

    def hot_functions(self, n: int = 10) -> List[FunctionStat]:
        return sorted(self.functions, key=lambda f: -f.cycles)[:n]

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        """The schema-versioned JSON form (see ``docs/profiling.md``)."""
        from .export import PROFILE_SCHEMA_VERSION

        return {
            "schema": {"name": "repro.profile",
                       "version": PROFILE_SCHEMA_VERSION},
            "context": dict(self.context),
            "totals": {
                "cycles": self.cycles,
                "instret": self.instret,
                "base_cycles": self.base_cycles,
                "stalls": dict(self.stall_totals),
                "unmapped_cycles": self.unmapped_cycles,
                "unmapped_instret": self.unmapped_instret,
            },
            "machine": {
                "flen": self.flen,
                "mem_latency": self.mem_latency,
                "mem_level": self.mem_level,
            },
            "exit_reason": self.exit_reason,
            "blocks": [
                {
                    "start": b.start,
                    "end": b.end,
                    "name": b.name,
                    "labels": list(b.labels),
                    "function": b.function,
                    "loop_header": b.loop_header,
                    "loop_depth": b.loop_depth,
                    "instret": b.instret,
                    "cycles": b.cycles,
                    "visits": b.visits,
                    "stalls": dict(b.stalls),
                    "fp_ops": dict(b.fp_ops),
                }
                for b in sorted(self.blocks, key=lambda b: b.start)
            ],
            "loops": [
                {
                    "header": l.header,
                    "name": l.name,
                    "depth": l.depth,
                    "function": l.function,
                    "blocks": l.blocks,
                    "iterations": l.iterations,
                    "self_cycles": l.self_cycles,
                    "self_instret": l.self_instret,
                    "total_cycles": l.total_cycles,
                    "total_instret": l.total_instret,
                    "stalls": dict(l.stalls),
                }
                for l in sorted(self.loops, key=lambda l: l.header)
            ],
            "functions": [
                {
                    "name": f.name,
                    "entry": f.entry,
                    "instret": f.instret,
                    "cycles": f.cycles,
                    "stalls": dict(f.stalls),
                }
                for f in sorted(self.functions,
                                key=lambda f: (f.entry is None, f.entry))
            ],
            "roofline": {
                "flops_by_format": dict(self.roofline.flops_by_format),
                "flops_total": self.roofline.flops_total,
                "bytes_total": self.roofline.bytes_total,
                "intensity_by_format": {
                    fmt: self.roofline.intensity(fmt)
                    for fmt in sorted(self.roofline.flops_by_format)
                },
                "intensity_total": self.roofline.intensity(),
            },
        }


# ----------------------------------------------------------------------
#: Flops per element of each FP class (expanding ops add one for an
#: accumulating form); every other class does no arithmetic.
_FLOPS_PER_ELEMENT = {"arith": 1, "fdiv": 1, "fsqrt": 1, "fma": 2,
                      "expand": 1}


def _flops_of(instr: "Instr", flen: int) -> Tuple[Optional[str], int]:
    """(format name, flops per retire) of one instruction.

    FMA-shaped operations count two flops per element; comparisons,
    min/max, sign injection, conversions and moves count zero (the
    standard roofline convention).  Vector operations multiply by the
    lane count at the machine's FLEN; expanding operations attribute
    their flops to the *source* format, which is the one doing the
    SIMD work.
    """
    info = spec_info(instr.spec)
    spec = info.spec
    suffix = spec.src_fmt or spec.fp_fmt
    if suffix is None:
        return None, 0
    fmt = registry.by_suffix(suffix)
    flops = _FLOPS_PER_ELEMENT.get(info.row.cls, 0)
    if info.row.cls == "expand" and info.row.acc:
        flops += 1
    if spec.vec:
        # A shared-exponent block spends its first byte on the scale.
        bits = flen - 8 if fmt.has_block_dotp else flen
        flops *= max(1, bits // fmt.width)
    return fmt.name, flops


def build_profile(program: Optional["Program"], trace: "Trace",
                  timing: "TimingModel", flen: int = 32,
                  exit_reason: Optional[str] = None,
                  context: Optional[Dict[str, object]] = None,
                  fetch: Optional[Callable[[int], "Instr"]] = None
                  ) -> Profile:
    """Attribute every cycle of a finished run.

    ``trace`` must come from a run of ``program`` under ``timing`` and
    FLEN ``flen`` on any engine; ``context`` labels the result (kernel,
    ftype, mode...).  ``fetch(pc)`` decodes the instruction that
    retired at ``pc``; it defaults to the fetch path of a simulator
    with ``program`` loaded, so compressed parcels decode to their
    canonical ``c.*`` instructions, which the CFG's 4-byte decode
    cannot see.  A raw instruction stream (``program=None``) passes its
    simulator's :meth:`~repro.sim.Simulator.instruction_at` and
    profiles flat, with every PC unmapped.
    """
    if fetch is None:
        from ..sim import Simulator

        fetch = Simulator(program, flen=flen).instruction_at
    mem_latency = timing.config.mem_latency
    level = next((name for name, lat in LATENCY_LEVELS.items()
                  if lat == mem_latency), f"custom({mem_latency})")

    cfg = None
    pc_to_block: Dict[int, int] = {}
    innermost: Dict[int, Optional[int]] = {}
    depth: Dict[int, int] = {}
    if program is not None:
        from ..analysis.cfg import build_cfg

        cfg = build_cfg(program)
        pc_to_block = cfg.pc_block_map()
        innermost, depth = cfg.loop_attribution()

    stall_totals = _empty_stalls()
    blocks: Dict[int, BlockStat] = {}
    unmapped_cycles = 0
    unmapped_instret = 0
    pc_table: Dict[int, tuple] = {}
    roofline = RooflineStat()
    pc_counts = trace.pc_counts
    # pc_counts is in first-retire order on every engine, which fixes
    # the insertion order of the per-format and per-category dicts.
    for pc, count in pc_counts.items():
        instr = fetch(pc)
        taken = trace.pc_taken.get(pc, 0)
        cycles = 0
        stalls = _empty_stalls()
        for times, was_taken in ((count - taken, False), (taken, True)):
            if times:
                split = timing.breakdown(instr, taken=was_taken)
                cycles += split.total * times
                if split.stall:
                    stalls[split.cause] += split.stall * times
        for cause, value in stalls.items():
            stall_totals[cause] += value
        pc_table[pc] = (instr.mnemonic, count, cycles, stalls)
        info = spec_info(instr.spec)
        fmt, flops = _flops_of(instr, flen)
        if fmt is not None and flops:
            roofline.flops_by_format[fmt] = (
                roofline.flops_by_format.get(fmt, 0) + flops * count)
        roofline.bytes_total += info.size * count

        start = pc_to_block.get(pc)
        if start is None:
            unmapped_cycles += cycles
            unmapped_instret += count
            continue
        block = blocks.get(start)
        if block is None:
            cfg_block = cfg.blocks[start]
            block = BlockStat(
                start=start,
                end=cfg_block.end,
                labels=list(cfg_block.labels),
                function=cfg.function_of(start),
                loop_header=innermost.get(start),
                loop_depth=depth.get(start, 0),
                visits=pc_counts.get(start, 0),
            )
            blocks[start] = block
        block.instret += count
        block.cycles += cycles
        for cause, value in stalls.items():
            block.stalls[cause] += value
        category = info.category
        if category in FP_CATEGORIES:
            block.fp_ops[category] = block.fp_ops.get(category, 0) + count

    # Loop rollup over the merged natural loops that actually ran.
    loops: List[LoopStat] = []
    if cfg is not None:
        for loop in cfg.merged_loops():
            body_stats = [blocks[s] for s in loop.body if s in blocks]
            if not body_stats:
                continue
            row = LoopStat(
                header=loop.header,
                depth=depth.get(loop.header, 1),
                function=cfg.function_of(loop.header),
                blocks=len(loop.body),
                iterations=pc_counts.get(loop.header, 0),
            )
            for b in body_stats:
                row.total_cycles += b.cycles
                row.total_instret += b.instret
                if b.loop_header == loop.header:
                    row.self_cycles += b.cycles
                    row.self_instret += b.instret
                    for cause, value in b.stalls.items():
                        row.stalls[cause] += value
            loops.append(row)

    # Function rollup (self cycles of each function's blocks).
    functions: Dict[str, FunctionStat] = {}
    for block in blocks.values():
        name = block.function or "?"
        row = functions.get(name)
        if row is None:
            entry = None
            if block.function is not None:
                entry = cfg.program.symbols.get(block.function)
            row = FunctionStat(name=name, entry=entry)
            functions[name] = row
        row.instret += block.instret
        row.cycles += block.cycles
        for cause, value in block.stalls.items():
            row.stalls[cause] += value

    return Profile(
        cycles=trace.cycles,
        instret=trace.instret,
        stall_totals=stall_totals,
        mem_latency=mem_latency,
        mem_level=level,
        flen=flen,
        exit_reason=exit_reason,
        context=dict(context or {}),
        blocks=list(blocks.values()),
        loops=loops,
        functions=list(functions.values()),
        roofline=roofline,
        unmapped_cycles=unmapped_cycles,
        unmapped_instret=unmapped_instret,
        pc_table=pc_table,
    )
