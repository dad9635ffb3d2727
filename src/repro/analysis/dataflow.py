"""Generic forward/backward dataflow over the CFG, plus register models.

The framework is deliberately small: an analysis provides a boundary
value, a meet operator and a per-block transfer function; ``solve``
iterates to a fixed point with a worklist.  Three classic analyses are
built on it -- reaching definitions, liveness and maybe-uninitialized
registers -- all over the merged integer/FP register file of the
modelled RISCY core (the paper's configuration shares one register
file, so ``fa0`` and ``a0`` are the same storage).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..isa.instructions import Instr
from ..sim.semantics import SEMANTICS
from .cfg import CFG, BasicBlock, Site

# ----------------------------------------------------------------------
# Register def/use extraction
# ----------------------------------------------------------------------
#: Operand kinds that read the named register field.
_READS_RS1 = {"rs1", "frs1", "mem", "fmem"}
_READS_RS2 = {"rs2", "frs2"}
_READS_RS3 = {"frs3"}

#: Instruction kinds that read their destination as an accumulator
#: (fmacex/vfmac/vfdotpex) or partially update it (vfcpka/vfcpkb fill
#: a lane pair and preserve the rest): the semantics rows with ``acc``.
ACCUMULATE_KINDS = frozenset(kind for kind, row in SEMANTICS.items()
                             if row.acc)

#: ABI state defined at a function entry in this model: x0, ra, sp and
#: the argument registers a0-a7 (the harness passes kernel arguments
#: there; FP scalars ride the same registers in the merged file).
ABI_DEFINED_AT_ENTRY: FrozenSet[int] = frozenset(
    {0, 1, 2} | set(range(10, 18))
)

#: Callee-saved registers (plus sp) a function must preserve, and the
#: ABI return-value pair: conservatively live out of every return.
CALLEE_SAVED: FrozenSet[int] = frozenset({2, 8, 9} | set(range(18, 28)))
LIVE_OUT_AT_RETURN: FrozenSet[int] = CALLEE_SAVED | frozenset({10, 11})

ALL_REGS: FrozenSet[int] = frozenset(range(32))


def regs_written(instr: Instr) -> List[int]:
    """Architectural registers an instruction writes (x0 excluded)."""
    out = []
    for kind in instr.spec.syntax:
        if kind in ("rd", "frd") and instr.rd != 0:
            out.append(instr.rd)
    return out


def regs_read(instr: Instr) -> List[int]:
    """Architectural registers an instruction reads (x0 excluded)."""
    out: Set[int] = set()
    syntax = instr.spec.syntax
    for kind in syntax:
        if kind in _READS_RS1 and instr.rs1 != 0:
            out.add(instr.rs1)
        elif kind in _READS_RS2 and instr.rs2 != 0:
            out.add(instr.rs2)
        elif kind in _READS_RS3 and instr.rs3 != 0:
            out.add(instr.rs3)
    if instr.spec.kind in ACCUMULATE_KINDS and instr.rd != 0:
        out.add(instr.rd)
    return sorted(out)


# ----------------------------------------------------------------------
# The framework
# ----------------------------------------------------------------------
class DataflowAnalysis:
    """Base class: subclass and override the four hooks below."""

    #: "forward" propagates entry->exit; "backward" the reverse.
    direction = "forward"

    def boundary(self, cfg: CFG, block: BasicBlock):
        """Value at the graph boundary (entry blocks / exit blocks)."""
        raise NotImplementedError

    def initial(self, cfg: CFG, block: BasicBlock):
        """Optimistic starting value for interior blocks."""
        raise NotImplementedError

    def meet(self, a, b):
        raise NotImplementedError

    def transfer(self, block: BasicBlock, value):
        """Value after the block, given the value before it."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def solve(self, cfg: CFG) -> Dict[int, Tuple[object, object]]:
        """Fixed point: block start -> (value-in, value-out).

        For backward analyses "in" is still the program-order entry of
        the block, i.e. the value *after* the transfer function.
        """
        forward = self.direction == "forward"
        starts = list(cfg.order)
        boundary_blocks = set(cfg.entries) | {c for _, c in cfg.calls} \
            if forward else {
                s for s in starts if not cfg.blocks[s].succs
            }

        values: Dict[int, object] = {}
        for start in starts:
            values[start] = self.initial(cfg, cfg.blocks[start])

        worklist = list(starts)
        results: Dict[int, Tuple[object, object]] = {}
        iterations = 0
        limit = max(64, 16 * len(starts) * len(starts))
        while worklist:
            iterations += 1
            if iterations > limit:  # pragma: no cover - safety net
                break
            start = worklist.pop(0)
            block = cfg.blocks[start]
            edges_in = block.preds if forward else block.succs
            incoming = None
            if start in boundary_blocks:
                incoming = self.boundary(cfg, block)
            for other in edges_in:
                contrib = values.get(other)
                if contrib is None:
                    continue
                incoming = contrib if incoming is None else \
                    self.meet(incoming, contrib)
            if incoming is None:
                incoming = self.boundary(cfg, block)
            outgoing = self.transfer(block, incoming)
            if outgoing != values[start]:
                values[start] = outgoing
                next_edges = block.succs if forward else block.preds
                for other in next_edges:
                    if other not in worklist:
                        worklist.append(other)
            results[start] = (incoming, outgoing)
        for start in starts:  # blocks never relaxed (unreachable)
            if start not in results:
                incoming = self.boundary(cfg, cfg.blocks[start])
                results[start] = (incoming,
                                  self.transfer(cfg.blocks[start], incoming))
        return results


# ----------------------------------------------------------------------
# Reaching definitions
# ----------------------------------------------------------------------
#: A definition is identified by the address of the defining site.
DefMap = Dict[int, FrozenSet[int]]  # reg -> set of defining addresses


class ReachingDefs(DataflowAnalysis):
    """Which instruction(s) may have last written each register."""

    direction = "forward"

    def boundary(self, cfg, block):
        return {}

    def initial(self, cfg, block):
        return {}

    def meet(self, a: DefMap, b: DefMap) -> DefMap:
        out = dict(a)
        for reg, defs in b.items():
            out[reg] = out.get(reg, frozenset()) | defs
        return out

    def transfer(self, block: BasicBlock, value: DefMap) -> DefMap:
        out = dict(value)
        for site in block.sites:
            if site.instr is None:
                continue
            for reg in regs_written(site.instr):
                out[reg] = frozenset({site.addr})
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def at_each_site(block: BasicBlock, value_in: DefMap,
                     visit: Callable[[Site, DefMap], None]) -> None:
        """Walk a block, calling ``visit(site, defs-before-site)``."""
        current = dict(value_in)
        for site in block.sites:
            visit(site, current)
            if site.instr is not None:
                for reg in regs_written(site.instr):
                    current[reg] = frozenset({site.addr})


# ----------------------------------------------------------------------
# Liveness
# ----------------------------------------------------------------------
class Liveness(DataflowAnalysis):
    """Registers whose current value may still be read."""

    direction = "backward"

    def __init__(self, conservative_exit: bool = True):
        #: At a ``return``, the ABI result pair and callee-saved set are
        #: live; at indirect jumps / halts / undecodable ends everything
        #: is (conservatively) live unless told otherwise.
        self.conservative_exit = conservative_exit

    def boundary(self, cfg, block):
        if block.terminator == "return":
            return frozenset(LIVE_OUT_AT_RETURN)
        if self.conservative_exit:
            return frozenset(ALL_REGS)
        return frozenset()

    def initial(self, cfg, block):
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, block: BasicBlock, value: FrozenSet[int]):
        live = set(value)
        for site in reversed(block.sites):
            if site.instr is None:
                live = set(ALL_REGS)
                continue
            for reg in regs_written(site.instr):
                live.discard(reg)
            live.update(regs_read(site.instr))
            if site.instr.spec.cf == "jump" and site.instr.rd != 0:
                # A call: arguments are live into the callee, and the
                # callee may clobber the caller-saved file.
                live.update(range(10, 18))
        return frozenset(live)

    # ------------------------------------------------------------------
    @staticmethod
    def at_each_site(block: BasicBlock, live_out: FrozenSet[int],
                     visit: Callable[[Site, FrozenSet[int]], None]) -> None:
        """Walk a block backward, calling ``visit(site, live-after)``."""
        live = set(live_out)
        for site in reversed(block.sites):
            visit(site, frozenset(live))
            if site.instr is None:
                live = set(ALL_REGS)
                continue
            for reg in regs_written(site.instr):
                live.discard(reg)
            live.update(regs_read(site.instr))
            if site.instr.spec.cf == "jump" and site.instr.rd != 0:
                live.update(range(10, 18))


# ----------------------------------------------------------------------
# Maybe-uninitialized registers
# ----------------------------------------------------------------------
class MaybeUninitialized(DataflowAnalysis):
    """Registers that may be read before any write on some path."""

    direction = "forward"

    def boundary(self, cfg, block):
        return frozenset(ALL_REGS - ABI_DEFINED_AT_ENTRY)

    def initial(self, cfg, block):
        return frozenset()

    def meet(self, a, b):
        return a | b

    def transfer(self, block: BasicBlock, value: FrozenSet[int]):
        maybe = set(value)
        for site in block.sites:
            if site.instr is None:
                continue
            for reg in regs_written(site.instr):
                maybe.discard(reg)
            if site.instr.spec.cf == "jump" and site.instr.rd != 0:
                # Call: the callee returns with a0/a1 defined.
                maybe.discard(10)
                maybe.discard(11)
        return frozenset(maybe)

    # ------------------------------------------------------------------
    @staticmethod
    def at_each_site(block: BasicBlock, value_in: FrozenSet[int],
                     visit: Callable[[Site, FrozenSet[int]], None]) -> None:
        maybe = set(value_in)
        for site in block.sites:
            visit(site, frozenset(maybe))
            if site.instr is None:
                continue
            for reg in regs_written(site.instr):
                maybe.discard(reg)
            if site.instr.spec.cf == "jump" and site.instr.rd != 0:
                maybe.discard(10)
                maybe.discard(11)
    # Note: reads are checked by the lint pass, not here; the analysis
    # only tracks definedness.


# ----------------------------------------------------------------------
# FP format tracking
# ----------------------------------------------------------------------
#: A tracked value format: ``(elem, packed)`` where ``elem`` is the
#: format suffix ("s"/"h"/"ah"/"b") and ``packed`` marks a SIMD vector.
#: ``None`` in the map means "unknown / not an FP value".
Format = Tuple[str, bool]
FormatMap = Dict[int, Optional[Format]]


def result_format(instr: Instr) -> Optional[Format]:
    """Format of the value an instruction writes, when statically known.

    Integer results, raw bit moves and memory loads are ``None``
    (unknown): in the merged register file, plain ``lw`` legitimately
    loads packed smallFloat vectors, so loads carry no format evidence.
    """
    spec = instr.spec
    if spec.fp_fmt is None:
        return None
    kind = spec.kind
    row = SEMANTICS[kind]
    if row.shape in ("load", "store") or kind in ("fmv_x_f", "fmv_f_x"):
        return None  # width-only operations: no element format evidence
    if kind in ("fle", "flt", "feq", "vfeq", "vflt", "vfle", "fclass",
                "fcvt_w_f", "fcvt_wu_f", "vfcvt_x_f"):
        return None  # integer result
    if row.cls == "expand":
        return ("s", False)  # expanding: binary32 scalar result
    return (spec.fp_fmt, bool(spec.vec))


def operand_formats(instr: Instr) -> Dict[int, Format]:
    """Expected format per *read* register, when the ISA pins one.

    Registers read without format expectations (address bases, raw
    moves) are omitted.
    """
    spec = instr.spec
    out: Dict[int, Format] = {}
    if spec.fp_fmt is None:
        return out
    kind = spec.kind
    row = SEMANTICS[kind]
    vec = bool(spec.vec)
    elem = spec.fp_fmt

    def put(reg: int, fmt: Format) -> None:
        if reg != 0:
            out[reg] = fmt

    if kind in ("fcvt_f2f", "vfcvt_f2f"):
        put(instr.rs1, (spec.src_fmt or elem, vec))
        return out
    if row.cls == "expand":
        # Sources in the source format (vector ones packed, a ``.r``
        # rs2 scalar); an accumulating form reads the binary32 rd.
        src = spec.src_fmt or elem
        put(instr.rs1, (src, vec))
        put(instr.rs2, (src, vec and not spec.repl))
        if row.acc:
            put(instr.rd, ("s", False))
        return out
    if kind in ("vfcpka", "vfcpkb"):
        put(instr.rs1, ("s", False))
        put(instr.rs2, ("s", False))
        return out
    if row.shape in ("load", "store") or kind in (
            "fmv_x_f", "fmv_f_x", "fcvt_f_w", "fcvt_f_wu", "vfcvt_f_x",
            "vfcvt_x_f"):
        return out  # loads/stores/raw moves: width only, no format demand
    # Generic scalar/vector FP operations: every FP source operand is
    # expected in the operation's format; replicating variants read
    # rs2 as a scalar.
    syntax = spec.syntax
    if "frs1" in syntax:
        put(instr.rs1, (elem, vec))
    if "frs2" in syntax:
        put(instr.rs2, (elem, vec and not spec.repl))
    if "frs3" in syntax:
        put(instr.rs3, (elem, vec))
    if kind == "vfmac":
        put(instr.rd, (elem, vec))
    return out


class FormatTracking(DataflowAnalysis):
    """Forward per-register tracking of last-written FP formats."""

    direction = "forward"

    def boundary(self, cfg, block):
        return {}

    def initial(self, cfg, block):
        return {}

    def meet(self, a: FormatMap, b: FormatMap) -> FormatMap:
        out: FormatMap = {}
        for reg in set(a) | set(b):
            fa, fb = a.get(reg), b.get(reg)
            out[reg] = fa if fa == fb else None
        return out

    def transfer(self, block: BasicBlock, value: FormatMap) -> FormatMap:
        out = dict(value)
        for site in block.sites:
            if site.instr is None:
                continue
            fmt = result_format(site.instr)
            for reg in regs_written(site.instr):
                out[reg] = fmt
        return out

    # ------------------------------------------------------------------
    @staticmethod
    def at_each_site(block: BasicBlock, value_in: FormatMap,
                     visit: Callable[[Site, FormatMap], None]) -> None:
        current = dict(value_in)
        for site in block.sites:
            visit(site, current)
            if site.instr is not None:
                fmt = result_format(site.instr)
                for reg in regs_written(site.instr):
                    current = dict(current)
                    current[reg] = fmt
