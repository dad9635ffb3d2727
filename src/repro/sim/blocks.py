"""Predecoded basic-block fast path for the simulator.

The reference interpreter in :mod:`repro.sim.simulator` pays, per
retired instruction: a decode-cache lookup, a handler-table lookup, a
seven-arm ``try/except`` fence, a ``TimingModel`` cost resolution, a
:func:`~repro.sim.tracer.classify` call and five Counter updates.  None
of that work depends on run-time state -- it is a pure function of the
instruction word -- so this module resolves all of it once, at decode
time, and caches the result as a *basic block*: a straight-line run of
pre-bound closures ending at the first control-flow or CSR instruction.

Dispatch then executes whole blocks in a tight loop:

* the exception fence is hoisted to block granularity (one ``try`` per
  block instead of one per instruction);
* per-instruction statistics are *deferred*: the hot loop only bumps a
  per-block execution counter plus the two CSR-visible scalars
  (``cycles``/``instret``), and the full per-mnemonic / per-category /
  per-PC counters are materialized when the run ends;
* the hottest RV32I kinds get specialized closures with operands,
  immediates and (for PC-relative instructions) absolute targets baked
  in, skipping the generic operand-field attribute loads.

The result is bit-identical to the reference interpreter -- same
cycles, instret, fcsr flags, exit reason, trap CSRs, and the same
:class:`~repro.sim.tracer.Trace` down to Counter *insertion order*
(the energy model's float accumulation iterates ``by_mnemonic`` in
insertion order, so even that must match).  Deferred counters are
flushed in first-execution order, which reproduces first-retire order
exactly because a block's first execution retires its instructions
consecutively.

Blocks end at: control-flow instructions (kept as a *terminator* whose
taken/not-taken costs are both precomputed), CSR accesses (they may
read ``mcycle``/``minstret`` and so need exact intermediate counts),
undecodable or unimplemented instructions (the dispatcher falls back to
the reference loop, which raises the architectural trap), and a length
cap.  The engine also refuses to start a block that could cross the
instruction budget; the reference loop finishes such runs with its
exact per-instruction watchdog semantics.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..fp import arith, compare, registry, simd
from ..fp.flags import ALL as FFLAGS_MASK
from ..fp.rounding import RoundingMode
from ..isa.compressed import IllegalCompressed
from ..isa.instructions import Instr, UnknownInstruction
from .executor import GUEST_FAULTS, handler_for
from .machine import MASK32
from .memory import MemoryAccessError
from .tracer import classify

#: Upper bound on entries per block.  Long straight-line runs simply
#: split into consecutive blocks; the cap bounds the stat-recording
#: work a mid-block trap has to replay.
MAX_BLOCK_LEN = 64

#: CSR-accessing kinds terminate blocks: they can observe the cycle and
#: instret counters, which the fast path only keeps exact at block
#: boundaries.
_CSR_KINDS = frozenset(
    {"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"})

_SENTINEL = 0xFFFF_FF00  # HALT_ADDRESS (simulator.py re-exports it)


class Block:
    """One predecoded straight-line run plus an optional terminator."""

    __slots__ = (
        "start", "end", "extent", "entries", "costs", "index_of",
        "mnem_counts", "cat_counts", "pc_list", "mem_count",
        "static_cycles", "n_entries", "term", "total_len",
    )

    def __init__(self, start: int):
        self.start = start
        #: Fallthrough PC after the last entry (when there is no term).
        self.end = start
        #: One past the last byte of any parcel in the block (for
        #: address-ranged invalidation).
        self.extent = start
        #: ``(fn, instr, pc)`` per straight-line instruction.
        self.entries: List[Tuple] = []
        #: Per-entry cycle cost (parallel to ``entries``).
        self.costs: List[int] = []
        #: PC -> entry index, for mid-block fault recovery.
        self.index_of: Dict[int, int] = {}
        self.mnem_counts: Counter = Counter()
        self.cat_counts: Counter = Counter()
        self.pc_list: List[int] = []
        self.mem_count = 0
        self.static_cycles = 0
        self.n_entries = 0
        #: ``(fn, instr, pc, fallthrough, cost_ntaken, cost_taken,
        #: mnemonic, category)`` or ``None``.
        self.term: Optional[Tuple] = None
        self.total_len = 0


class BlockEngine:
    """Owns the block cache of one :class:`~repro.sim.simulator.Simulator`."""

    def __init__(self, sim):
        self.sim = sim
        self._cache: Dict[int, Block] = {}
        self._timing_key = None

    # ------------------------------------------------------------------
    # Cache maintenance
    # ------------------------------------------------------------------
    def invalidate(self, addr: Optional[int] = None) -> None:
        """Drop cached blocks (all of them, or those covering ``addr``).

        Mirrors :meth:`Simulator.invalidate_decode`: a corrupted byte at
        ``addr`` can change any parcel starting at ``addr & ~1`` or two
        bytes earlier, so every block whose extent overlaps that window
        is dropped and will be rebuilt from the (also invalidated)
        decode cache on its next dispatch.
        """
        if addr is None:
            self._cache.clear()
            return
        low = (addr & ~1) - 2
        stale = [start for start, block in self._cache.items()
                 if block.start <= addr and low < block.extent]
        for start in stale:
            del self._cache[start]

    def cached_blocks(self) -> int:
        """Number of currently cached blocks (introspection/tests)."""
        return len(self._cache)

    def _check_timing_epoch(self) -> None:
        """Flush every block if the timing configuration changed.

        Static costs are baked into blocks at decode time; mutating the
        simulator's :class:`TimingConfig` between runs must not leave
        stale costs behind.
        """
        key = self.sim.timing.config.snapshot_key()
        if key != self._timing_key:
            self._cache.clear()
            self._timing_key = key

    # ------------------------------------------------------------------
    # Block construction
    # ------------------------------------------------------------------
    def _build(self, pc: int) -> Optional[Block]:
        sim = self.sim
        machine = sim.machine
        timing = sim.timing
        block = Block(pc)
        addr = pc
        while block.n_entries < MAX_BLOCK_LEN:
            try:
                instr, size = sim._fetch(addr)
            except (UnknownInstruction, IllegalCompressed,
                    MemoryAccessError):
                # Undecodable or unfetchable: end the block here; the
                # dispatcher falls back to the reference loop, which
                # takes the architectural trap with exact semantics.
                break
            kind = instr.kind
            fn = handler_for(kind)
            if fn is None:
                break  # reference loop raises the illegal-instr trap
            spec = instr.spec
            if spec.cf is not None or kind in _CSR_KINDS:
                fast = _bind_fast(kind, instr, machine, addr)
                block.term = (
                    fast if fast is not None else fn,
                    instr, addr, (addr + size) & MASK32,
                    timing.cycles(instr, taken=False),
                    timing.cycles(instr, taken=True),
                    instr.mnemonic, classify(instr),
                )
                block.extent = addr + size
                break
            fast = _bind_fast(kind, instr, machine, addr)
            category = classify(instr)
            cost = timing.cycles(instr, taken=False)
            block.index_of[addr] = block.n_entries
            block.entries.append((fast if fast is not None else fn,
                                  instr, addr))
            block.costs.append(cost)
            block.mnem_counts[instr.mnemonic] += 1
            block.cat_counts[category] += 1
            block.pc_list.append(addr)
            if category in ("load", "store"):
                block.mem_count += 1
            block.static_cycles += cost
            block.n_entries += 1
            addr += size
            block.end = addr & MASK32
            block.extent = addr
        block.total_len = block.n_entries + (1 if block.term else 0)
        if block.total_len == 0:
            return None
        return block

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run(self, stats, max_instructions: int, executed: int = 0):
        """Execute blocks until exit, fault, or fallback.

        Returns ``(outcome, executed)`` where ``outcome`` is an
        ``(exit_reason, detail, trap_info)`` triple, or ``None`` when
        the caller should continue in the reference loop from the
        current machine state with ``executed`` instructions already
        retired.  A non-zero starting ``executed`` resumes a run whose
        earlier instructions already retired elsewhere (the lockstep
        engine drains lanes this way), keeping budget accounting and
        the budget-exceeded message anchored to the original total.
        """
        sim = self.sim
        machine = sim.machine
        self._check_timing_epoch()
        cache = self._cache
        counts: Dict[int, List[int]] = {}  # start -> [execs, takens]
        order: List[int] = []

        while machine.pc != _SENTINEL:
            pc = machine.pc
            if executed >= max_instructions:
                self._flush(stats, counts, order)
                return ("budget_exceeded",
                        f"exceeded {max_instructions} instructions at "
                        f"pc={pc:#x}", None), executed
            block = cache.get(pc)
            if block is None:
                block = self._build(pc)
                if block is None:
                    break  # reference loop resolves the trap exactly
                cache[pc] = block
            if executed + block.total_len > max_instructions:
                break  # per-instruction watchdog needs the reference loop
            rec = counts.get(pc)
            if rec is None:
                rec = counts[pc] = [0, 0]
                order.append(pc)

            # ----------------------------------------------------------
            # Straight-line entries: handlers only, one shared fence.
            # ----------------------------------------------------------
            try:
                for fn, instr, epc in block.entries:
                    machine.pc = epc
                    fn(machine, instr)
            except GUEST_FAULTS as exc:
                idx = block.index_of[machine.pc]
                self._flush(stats, counts, order)
                self._record_entries(stats, block, idx)
                faulting = block.entries[idx][1]
                reason, trap_info, retires = sim._resolve_exec_fault(
                    exc, faulting)
                if retires:  # pragma: no cover - entries never ecall
                    stats.record(faulting, 1, pc=machine.pc)
                return (reason, "", trap_info), executed + idx

            n = block.n_entries
            stats.instret += n
            stats.cycles += block.static_cycles
            executed += n
            term = block.term
            if term is None:
                machine.pc = block.end
                rec[0] += 1
                continue

            # ----------------------------------------------------------
            # Terminator: control flow or CSR access, cost depends on
            # the taken path.  CSR reads of cycle/instret observe the
            # exact counts because the prefix was just added above.
            # ----------------------------------------------------------
            (tfn, tinstr, tpc, fallthrough,
             cost_nt, cost_tk, _mnem, _cat) = term
            machine.pc = tpc
            try:
                next_pc = tfn(machine, tinstr)
            except GUEST_FAULTS as exc:
                # The prefix scalars were added above (CSR terminators
                # must observe them); back them out before re-recording
                # the prefix entry by entry.
                stats.instret -= n
                stats.cycles -= block.static_cycles
                self._flush(stats, counts, order)
                self._record_entries(stats, block, n)
                reason, trap_info, retires = sim._resolve_exec_fault(
                    exc, tinstr)
                if retires:
                    stats.record(tinstr, 1, pc=tpc)
                return (reason, "", trap_info), executed
            if next_pc is not None:
                stats.cycles += cost_tk
                rec[1] += 1
                machine.pc = next_pc
            else:
                stats.cycles += cost_nt
                machine.pc = fallthrough
            stats.instret += 1
            rec[0] += 1
            executed += 1

        self._flush(stats, counts, order)
        if machine.pc == _SENTINEL:
            return ("halt", "", None), executed
        return None, executed  # continue in the reference loop

    # ------------------------------------------------------------------
    # Deferred-statistics materialization
    # ------------------------------------------------------------------
    def _flush(self, stats, counts: Dict[int, List[int]],
               order: List[int]) -> None:
        """Materialize deferred counters into ``stats``.

        Iterating blocks in first-execution order, entries before the
        terminator, reproduces the reference interpreter's Counter
        insertion order exactly (first executions retire consecutively,
        and only first executions insert new keys).
        """
        by_mnem = stats.by_mnemonic
        by_cat = stats.by_category
        pc_counts = stats.pc_counts
        cache = self._cache
        for start in order:
            execs, takens = counts[start]
            if not execs:
                continue
            block = cache[start]
            for mnem, c in block.mnem_counts.items():
                by_mnem[mnem] += c * execs
            for cat, c in block.cat_counts.items():
                by_cat[cat] += c * execs
            for pc in block.pc_list:
                pc_counts[pc] += execs
            stats.mem_accesses += block.mem_count * execs
            term = block.term
            if term is not None:
                mnem, cat = term[6], term[7]
                by_mnem[mnem] += execs
                by_cat[cat] += execs
                pc_counts[term[2]] += execs
                stats.branches_taken += takens
        counts.clear()
        order.clear()

    def _record_entries(self, stats, block: Block, upto: int) -> None:
        """Record entries ``[0, upto)`` one by one (mid-block faults)."""
        costs = block.costs
        for idx in range(upto):
            fn, instr, pc = block.entries[idx]
            stats.record(instr, costs[idx], pc=pc)


# ----------------------------------------------------------------------
# Specialized closures for the hottest kinds
# ----------------------------------------------------------------------
# Each binder takes (instr, machine, pc) and returns a drop-in handler
# ``fn(machine, instr)`` with the operand fields (and, for PC-relative
# instructions, the absolute target) closed over, or ``None`` to keep
# the generic handler.  Bindings assume the default machine
# configuration (merged register file); binders that would change
# semantics elsewhere bail out to the generic handler.

def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _nop(m, i):
    return None


def _bind_lui(i, m, pc):
    rd = i.rd
    if rd == 0:
        return _nop
    value = (i.imm << 12) & MASK32

    def run(m, _i, rd=rd, value=value):
        m.xregs[rd] = value
    return run


def _bind_auipc(i, m, pc):
    rd = i.rd
    if rd == 0:
        return _nop
    value = (pc + (i.imm << 12)) & MASK32

    def run(m, _i, rd=rd, value=value):
        m.xregs[rd] = value
    return run


def _bind_addi(i, m, pc):
    rd, rs1, imm = i.rd, i.rs1, i.imm
    if rd == 0:
        return _nop

    def run(m, _i, rd=rd, rs1=rs1, imm=imm):
        m.xregs[rd] = (m.xregs[rs1] + imm) & MASK32
    return run


def _bind_logic_imm(op):
    def bind(i, m, pc):
        rd, rs1 = i.rd, i.rs1
        imm = i.imm & MASK32
        if rd == 0:
            return _nop

        def run(m, _i, rd=rd, rs1=rs1, imm=imm, op=op):
            m.xregs[rd] = op(m.xregs[rs1], imm)
        return run
    return bind


def _bind_slti(i, m, pc):
    rd, imm, rs1 = i.rd, i.imm, i.rs1
    if rd == 0:
        return _nop

    def run(m, _i, rd=rd, rs1=rs1, imm=imm):
        m.xregs[rd] = 1 if _signed(m.xregs[rs1]) < imm else 0
    return run


def _bind_sltiu(i, m, pc):
    rd, rs1 = i.rd, i.rs1
    imm = i.imm & MASK32
    if rd == 0:
        return _nop

    def run(m, _i, rd=rd, rs1=rs1, imm=imm):
        m.xregs[rd] = 1 if m.xregs[rs1] < imm else 0
    return run


def _bind_shift_imm(kind):
    def bind(i, m, pc):
        rd, rs1 = i.rd, i.rs1
        sh = i.imm & 31
        if rd == 0:
            return _nop
        if kind == "slli":
            def run(m, _i, rd=rd, rs1=rs1, sh=sh):
                m.xregs[rd] = (m.xregs[rs1] << sh) & MASK32
        elif kind == "srli":
            def run(m, _i, rd=rd, rs1=rs1, sh=sh):
                m.xregs[rd] = m.xregs[rs1] >> sh
        else:  # srai
            def run(m, _i, rd=rd, rs1=rs1, sh=sh):
                m.xregs[rd] = (_signed(m.xregs[rs1]) >> sh) & MASK32
        return run
    return bind


def _bind_rr(expr):
    """Register-register ALU binder; ``expr(a, b)`` is pre-masked."""
    def bind(i, m, pc):
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2
        if rd == 0:
            return _nop

        def run(m, _i, rd=rd, rs1=rs1, rs2=rs2, expr=expr):
            x = m.xregs
            x[rd] = expr(x[rs1], x[rs2])
        return run
    return bind


def _bind_load(size, signed_bits):
    def bind(i, m, pc):
        rd, rs1, imm = i.rd, i.rs1, i.imm
        mem = m.memory

        def run(m, _i, rd=rd, rs1=rs1, imm=imm, mem=mem):
            value = mem.read((m.xregs[rs1] + imm) & MASK32, size)
            if signed_bits and value & signed_bits:
                value = (value - (signed_bits << 1)) & MASK32
            if rd:
                m.xregs[rd] = value
        return run
    return bind


def _bind_store(size):
    def bind(i, m, pc):
        rs1, rs2, imm = i.rs1, i.rs2, i.imm
        mem = m.memory

        def run(m, _i, rs1=rs1, rs2=rs2, imm=imm, mem=mem):
            mem.write((m.xregs[rs1] + imm) & MASK32, m.xregs[rs2], size)
        return run
    return bind


def _bind_flw(i, m, pc):
    if not m.merged_regfile or m.flen != 32:
        return None
    from .executor import _WIDTH_BYTES

    size = _WIDTH_BYTES(i.spec.fp_fmt)
    rd, rs1, imm = i.rd, i.rs1, i.imm
    mem = m.memory

    def run(m, _i, rd=rd, rs1=rs1, imm=imm, mem=mem, size=size):
        value = mem.read((m.xregs[rs1] + imm) & MASK32, size)
        if rd:
            m.xregs[rd] = value
    return run


def _bind_fsw(i, m, pc):
    if not m.merged_regfile or m.flen != 32:
        return None
    from .executor import _WIDTH_BYTES

    size = _WIDTH_BYTES(i.spec.fp_fmt)
    mask = (1 << (8 * size)) - 1
    rs1, rs2, imm = i.rs1, i.rs2, i.imm
    mem = m.memory

    def run(m, _i, rs1=rs1, rs2=rs2, imm=imm, mem=mem, size=size,
            mask=mask):
        mem.write((m.xregs[rs1] + imm) & MASK32, m.xregs[rs2] & mask, size)
    return run


def _bind_branch(cond):
    """``cond(a, b)`` on raw 32-bit register values decides taken."""
    def bind(i, m, pc):
        rs1, rs2 = i.rs1, i.rs2
        target = (pc + i.imm) & MASK32

        def run(m, _i, rs1=rs1, rs2=rs2, target=target, cond=cond):
            x = m.xregs
            return target if cond(x[rs1], x[rs2]) else None
        return run
    return bind


def _bind_jal(i, m, pc):
    rd = i.rd
    target = (pc + i.imm) & MASK32
    link = (pc + getattr(i, "size", 4)) & MASK32

    def run(m, _i, rd=rd, target=target, link=link):
        if rd:
            m.xregs[rd] = link
        return target
    return run


def _bind_jalr(i, m, pc):
    rd, rs1, imm = i.rd, i.rs1, i.imm
    link = (pc + getattr(i, "size", 4)) & MASK32

    def run(m, _i, rd=rd, rs1=rs1, imm=imm, link=link):
        target = (m.xregs[rs1] + imm) & ~1 & MASK32
        if rd:
            m.xregs[rd] = link
        return target
    return run


# ----------------------------------------------------------------------
# FP binders (merged regfile at FLEN=32 only, like flw/fsw: operands
# then live in ``xregs``).  The format, operand masks and -- when the
# instruction encodes a static mode -- the rounding mode are resolved
# at bind time.  A dynamic mode still reads ``fcsr.frm`` per execution:
# CSR writes terminate blocks, so frm is block-invariant but not
# run-invariant.  Reserved static rm encodings fall back to the generic
# handler, which raises with exact semantics.
# ----------------------------------------------------------------------
_DYN_RM = int(RoundingMode.DYN)
_RM_MEMBERS = {int(mode): mode for mode in RoundingMode}


def _resolve_static_rm(i):
    """``(usable, rm)``; ``rm`` None means read frm at execution time."""
    spec = i.spec
    if (spec.rm_fixed is not None or spec.vec or i.rm is None
            or i.rm == _DYN_RM):
        return True, None
    mode = _RM_MEMBERS.get(i.rm)
    if mode is None:
        return False, None  # reserved encoding
    return True, mode


def _fp_guard(i, m):
    if not m.merged_regfile or m.flen != 32:
        return None
    return registry.by_suffix(i.spec.fp_fmt)


def _bind_fp_binop(op):
    def bind(i, m, pc):
        fmt = _fp_guard(i, m)
        if fmt is None:
            return None
        usable, rm = _resolve_static_rm(i)
        if not usable:
            return None
        mask = fmt.bits_mask if fmt.width < 32 else MASK32
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2
        if rm is None:
            def run(m, _i, op=op, fmt=fmt, mask=mask, rd=rd, rs1=rs1,
                    rs2=rs2):
                x = m.xregs
                csr = m.csr
                bits, flags = op(fmt, x[rs1] & mask, x[rs2] & mask,
                                 csr.rounding_mode)
                csr.fflags |= flags & FFLAGS_MASK
                if rd:
                    x[rd] = bits & mask
        else:
            def run(m, _i, op=op, fmt=fmt, mask=mask, rd=rd, rs1=rs1,
                    rs2=rs2, rm=rm):
                x = m.xregs
                bits, flags = op(fmt, x[rs1] & mask, x[rs2] & mask, rm)
                m.csr.fflags |= flags & FFLAGS_MASK
                if rd:
                    x[rd] = bits & mask
        return run
    return bind


def _bind_fp_fma(negate_product, negate_addend):
    def bind(i, m, pc):
        fmt = _fp_guard(i, m)
        if fmt is None:
            return None
        usable, rm = _resolve_static_rm(i)
        if not usable:
            return None
        mask = fmt.bits_mask if fmt.width < 32 else MASK32
        rd, rs1, rs2, rs3 = i.rd, i.rs1, i.rs2, i.rs3

        def run(m, _i, fmt=fmt, mask=mask, rd=rd, rs1=rs1, rs2=rs2,
                rs3=rs3, rm=rm, np_=negate_product, na=negate_addend):
            x = m.xregs
            csr = m.csr
            bits, flags = arith.ffma(
                fmt, x[rs1] & mask, x[rs2] & mask, x[rs3] & mask,
                csr.rounding_mode if rm is None else rm,
                negate_product=np_, negate_addend=na)
            csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = bits & mask
        return run
    return bind


def _bind_fp_noflags(op):
    """fmin/fmax-shaped ops without rm (op may still raise flags)."""
    def bind(i, m, pc):
        fmt = _fp_guard(i, m)
        if fmt is None:
            return None
        mask = fmt.bits_mask if fmt.width < 32 else MASK32
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2

        def run(m, _i, op=op, fmt=fmt, mask=mask, rd=rd, rs1=rs1, rs2=rs2):
            x = m.xregs
            bits, flags = op(fmt, x[rs1] & mask, x[rs2] & mask)
            m.csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = bits & mask
        return run
    return bind


def _bind_fp_sign(op):
    def bind(i, m, pc):
        fmt = _fp_guard(i, m)
        if fmt is None:
            return None
        mask = fmt.bits_mask if fmt.width < 32 else MASK32
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2

        def run(m, _i, op=op, fmt=fmt, mask=mask, rd=rd, rs1=rs1, rs2=rs2):
            x = m.xregs
            bits = op(fmt, x[rs1] & mask, x[rs2] & mask)
            if rd:
                x[rd] = bits & mask
        return run
    return bind


def _bind_fp_cmp(op):
    def bind(i, m, pc):
        fmt = _fp_guard(i, m)
        if fmt is None:
            return None
        mask = fmt.bits_mask if fmt.width < 32 else MASK32
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2

        def run(m, _i, op=op, fmt=fmt, mask=mask, rd=rd, rs1=rs1, rs2=rs2):
            x = m.xregs
            result, flags = op(fmt, x[rs1] & mask, x[rs2] & mask)
            m.csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = result & MASK32
        return run
    return bind


def _vec_prep(i, m):
    """Shared vector-binder setup, or None when unbindable."""
    fmt = _fp_guard(i, m)
    if fmt is None or fmt.width >= 32:
        return None
    lanes = 32 // fmt.width
    repl_factor = None
    if i.spec.repl:
        repl_factor = sum(1 << (k * fmt.width) for k in range(lanes))
    return fmt, repl_factor


def _bind_vec_binop(op, with_rm=True):
    def bind(i, m, pc):
        prep = _vec_prep(i, m)
        if prep is None:
            return None
        fmt, repl_factor = prep
        fmt_mask = fmt.bits_mask
        rd, rs1, rs2 = i.rd, i.rs1, i.rs2

        def run(m, _i, op=op, fmt=fmt, fmt_mask=fmt_mask, rd=rd, rs1=rs1,
                rs2=rs2, repl_factor=repl_factor, with_rm=with_rm):
            x = m.xregs
            csr = m.csr
            b = x[rs2]
            if repl_factor is not None:
                b = (b & fmt_mask) * repl_factor
            if with_rm:
                bits, flags = op(fmt, 32, x[rs1], b, csr.rounding_mode)
            else:
                bits, flags = op(fmt, 32, x[rs1], b)
            csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = bits & MASK32
        return run
    return bind


def _bind_vfmac(i, m, pc):
    prep = _vec_prep(i, m)
    if prep is None:
        return None
    fmt, repl_factor = prep
    fmt_mask = fmt.bits_mask
    rd, rs1, rs2 = i.rd, i.rs1, i.rs2

    def run(m, _i, fmt=fmt, fmt_mask=fmt_mask, rd=rd, rs1=rs1, rs2=rs2,
            repl_factor=repl_factor):
        x = m.xregs
        csr = m.csr
        b = x[rs2]
        if repl_factor is not None:
            b = (b & fmt_mask) * repl_factor
        bits, flags = simd.vfmac(fmt, 32, x[rd], x[rs1], b,
                                 csr.rounding_mode)
        csr.fflags |= flags & FFLAGS_MASK
        if rd:
            x[rd] = bits & MASK32
    return run


_FAST_BINDERS = {
    "lui": _bind_lui,
    "auipc": _bind_auipc,
    "addi": _bind_addi,
    "slti": _bind_slti,
    "sltiu": _bind_sltiu,
    "xori": _bind_logic_imm(lambda a, b: a ^ b),
    "ori": _bind_logic_imm(lambda a, b: a | b),
    "andi": _bind_logic_imm(lambda a, b: a & b),
    "slli": _bind_shift_imm("slli"),
    "srli": _bind_shift_imm("srli"),
    "srai": _bind_shift_imm("srai"),
    "add": _bind_rr(lambda a, b: (a + b) & MASK32),
    "sub": _bind_rr(lambda a, b: (a - b) & MASK32),
    "sll": _bind_rr(lambda a, b: (a << (b & 31)) & MASK32),
    "slt": _bind_rr(lambda a, b: 1 if _signed(a) < _signed(b) else 0),
    "sltu": _bind_rr(lambda a, b: 1 if a < b else 0),
    "xor": _bind_rr(lambda a, b: a ^ b),
    "srl": _bind_rr(lambda a, b: a >> (b & 31)),
    "sra": _bind_rr(lambda a, b: (_signed(a) >> (b & 31)) & MASK32),
    "or": _bind_rr(lambda a, b: a | b),
    "and": _bind_rr(lambda a, b: a & b),
    "mul": _bind_rr(lambda a, b: (a * b) & MASK32),
    "mulh": _bind_rr(lambda a, b: ((_signed(a) * _signed(b)) >> 32) & MASK32),
    "mulhsu": _bind_rr(lambda a, b: ((_signed(a) * b) >> 32) & MASK32),
    "mulhu": _bind_rr(lambda a, b: ((a * b) >> 32) & MASK32),
    "lb": _bind_load(1, 0x80),
    "lh": _bind_load(2, 0x8000),
    "lw": _bind_load(4, 0),
    "lbu": _bind_load(1, 0),
    "lhu": _bind_load(2, 0),
    "sb": _bind_store(1),
    "sh": _bind_store(2),
    "sw": _bind_store(4),
    "flw": _bind_flw,
    "fsw": _bind_fsw,
    "beq": _bind_branch(lambda a, b: a == b),
    "bne": _bind_branch(lambda a, b: a != b),
    "blt": _bind_branch(lambda a, b: _signed(a) < _signed(b)),
    "bge": _bind_branch(lambda a, b: _signed(a) >= _signed(b)),
    "bltu": _bind_branch(lambda a, b: a < b),
    "bgeu": _bind_branch(lambda a, b: a >= b),
    "jal": _bind_jal,
    "jalr": _bind_jalr,
    "fadd": _bind_fp_binop(arith.fadd),
    "fsub": _bind_fp_binop(arith.fsub),
    "fmul": _bind_fp_binop(arith.fmul),
    "fdiv": _bind_fp_binop(arith.fdiv),
    "fmadd": _bind_fp_fma(False, False),
    "fmsub": _bind_fp_fma(False, True),
    "fnmsub": _bind_fp_fma(True, False),
    "fnmadd": _bind_fp_fma(True, True),
    "fmin": _bind_fp_noflags(compare.fmin),
    "fmax": _bind_fp_noflags(compare.fmax),
    "fsgnj": _bind_fp_sign(compare.fsgnj),
    "fsgnjn": _bind_fp_sign(compare.fsgnjn),
    "fsgnjx": _bind_fp_sign(compare.fsgnjx),
    "feq": _bind_fp_cmp(compare.feq),
    "flt": _bind_fp_cmp(compare.flt),
    "fle": _bind_fp_cmp(compare.fle),
    "vfadd": _bind_vec_binop(simd.vfadd),
    "vfsub": _bind_vec_binop(simd.vfsub),
    "vfmul": _bind_vec_binop(simd.vfmul),
    "vfdiv": _bind_vec_binop(simd.vfdiv),
    "vfmin": _bind_vec_binop(simd.vfmin, with_rm=False),
    "vfmax": _bind_vec_binop(simd.vfmax, with_rm=False),
    "vfmac": _bind_vfmac,
}


def _bind_fast(kind: str, instr: Instr, machine, pc: int):
    """Specialized closure for ``instr``, or ``None`` for the generic
    handler.  Loads and stores read ``machine.memory`` eagerly -- the
    simulator never swaps its memory object after construction."""
    binder = _FAST_BINDERS.get(kind)
    if binder is None:
        return None
    return binder(instr, machine, pc)
