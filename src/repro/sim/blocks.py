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
* every kind but CSR accesses and system instructions gets a closure
  derived from its :mod:`~repro.sim.semantics` row, with operands,
  immediates, masks, formats, a static rounding mode and (for
  PC-relative instructions) absolute targets baked in, skipping the
  generic operand-field attribute loads.

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

from ..fp.flags import ALL as FFLAGS_MASK, GuestIllegal
from ..isa.compressed import IllegalCompressed
from ..isa.instructions import Instr, UnknownInstruction
from .executor import GUEST_FAULTS, reference_handler
from .machine import MASK32
from .memory import MemoryAccessError
from .semantics import SEMANTICS, access_size, bind_in_xregs, static_rm
from .tracer import classify

#: Upper bound on entries per block.  Long straight-line runs simply
#: split into consecutive blocks; the cap bounds the stat-recording
#: work a mid-block trap has to replay.
MAX_BLOCK_LEN = 64

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
            spec = instr.spec
            row = SEMANTICS.get(spec.kind)
            if row is None:
                break  # reference loop raises the illegal-instr trap
            fn = reference_handler(spec, machine.flen)
            # CSR accesses terminate blocks too: they can observe the
            # cycle and instret counters, which the fast path only keeps
            # exact at block boundaries.
            if spec.cf is not None or row.shape == "csr":
                fast = _bind_fast(instr, machine, addr)
                block.term = (
                    fast if fast is not None else fn,
                    instr, addr, (addr + size) & MASK32,
                    timing.cycles(instr, taken=False),
                    timing.cycles(instr, taken=True),
                    instr.mnemonic, classify(instr),
                )
                block.extent = addr + size
                break
            fast = _bind_fast(instr, machine, addr)
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
# Per-instruction closures, one binder per operand shape
# ----------------------------------------------------------------------
# Each binder takes ``(instr, row, machine, pc)`` and returns a drop-in
# handler ``fn(machine, instr)`` with the operand fields, masks, formats,
# static rounding mode and (for PC-relative instructions) the absolute
# target closed over, or ``None`` to keep the reference handler.  FP
# operands live in ``xregs`` only with the merged register file at
# FLEN=32 (the default configuration); elsewhere FP kinds keep the
# reference handler.  A dynamic rounding mode still reads ``fcsr.frm``
# per execution: CSR writes terminate blocks, so frm is block-invariant
# but not run-invariant.

def _nop(m, i):
    return None


def _bind_alu(i, row, m, pc):
    rd, rs1, op = i.rd, i.rs1, row.op
    if rd == 0:
        return _nop
    if "rs2" in i.spec.syntax:
        rs2 = i.rs2

        def run(m, _i):
            x = m.xregs
            x[rd] = op(x[rs1], x[rs2]) & MASK32
    else:
        b = i.imm & MASK32

        def run(m, _i):
            x = m.xregs
            x[rd] = op(x[rs1], b) & MASK32
    return run


def _bind_upper(i, row, m, pc):
    rd = i.rd
    if rd == 0:
        return _nop
    value = row.op(pc, i.imm) & MASK32

    def run(m, _i):
        m.xregs[rd] = value
    return run


def _fp_in_xregs(m) -> bool:
    return m.merged_regfile and m.flen == 32


def _bind_load(i, row, m, pc):
    if i.spec.syntax[0] == "frd" and not _fp_in_xregs(m):
        return None
    size = access_size(i.spec, m.flen)
    sign = 1 << (8 * size - 1) if row.signed else 0
    rd, rs1, imm = i.rd, i.rs1, i.imm
    mem = m.memory

    def run(m, _i):
        value = mem.read((m.xregs[rs1] + imm) & MASK32, size)
        if value & sign:
            value = (value - (sign << 1)) & MASK32
        if rd:
            m.xregs[rd] = value
    return run


def _bind_store(i, row, m, pc):
    if i.spec.syntax[0] == "frs2" and not _fp_in_xregs(m):
        return None
    size = access_size(i.spec, m.flen)
    rs1, rs2, imm = i.rs1, i.rs2, i.imm
    mem = m.memory

    def run(m, _i):
        mem.write((m.xregs[rs1] + imm) & MASK32, m.xregs[rs2], size)
    return run


def _bind_branch(i, row, m, pc):
    rs1, rs2, op = i.rs1, i.rs2, row.op
    target = (pc + i.imm) & MASK32

    def run(m, _i):
        x = m.xregs
        return target if op(x[rs1], x[rs2]) else None
    return run


def _bind_jump(i, row, m, pc):
    rd, rs1, imm, op = i.rd, i.rs1, i.imm, row.op
    link = (pc + getattr(i, "size", 4)) & MASK32
    if "rs1" not in i.spec.syntax:
        target = op(pc, 0, imm)

        def run(m, _i):
            if rd:
                m.xregs[rd] = link
            return target
        return run

    def run(m, _i):
        target = op(pc, m.xregs[rs1], imm)
        if rd:
            m.xregs[rd] = link
        return target
    return run


def _bind_fp(i, row, m, pc):
    if not _fp_in_xregs(m):
        return None
    fn, regs, masks, scale, dmask = bind_in_xregs(i)
    rounds, flagged = row.rounds, row.flags
    rm = None
    if rounds:
        try:
            rm = static_rm(i)
        except GuestIllegal as exc:
            return _raiser(str(exc))
    dynamic = rounds and rm is None
    rd = i.rd

    # One closure per operand count: building an operand list per
    # execution costs about 0.2 us, some 15% of a binary16 fadd.
    if len(regs) == 1:
        (r1,), (k1,) = regs, masks

        def run(m, _i):
            x = m.xregs
            a = x[r1] & k1
            if dynamic:
                out = fn(a, m.csr.rounding_mode)
            elif rounds:
                out = fn(a, rm)
            else:
                out = fn(a)
            if flagged:
                out, flags = out
                m.csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = out & dmask
    elif len(regs) == 2:
        (r1, r2), (k1, k2) = regs, masks

        def run(m, _i):
            x = m.xregs
            a = x[r1] & k1
            b = (x[r2] & k2) * scale
            if dynamic:
                out = fn(a, b, m.csr.rounding_mode)
            elif rounds:
                out = fn(a, b, rm)
            else:
                out = fn(a, b)
            if flagged:
                out, flags = out
                m.csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = out & dmask
    else:
        (r1, r2, r3), (k1, k2, k3) = regs, masks

        def run(m, _i):
            x = m.xregs
            a = x[r1] & k1
            b = x[r2] & k2
            c = (x[r3] & k3) * scale
            if dynamic:
                out = fn(a, b, c, m.csr.rounding_mode)
            elif rounds:
                out = fn(a, b, c, rm)
            else:
                out = fn(a, b, c)
            if flagged:
                out, flags = out
                m.csr.fflags |= flags & FFLAGS_MASK
            if rd:
                x[rd] = out & dmask
    return run


def _raiser(message: str):
    """A handler for a reserved static rounding mode: it traps when it
    executes, exactly like the reference handler."""
    def run(m, _i):
        raise GuestIllegal(message)
    return run


_BINDERS = {"alu": _bind_alu, "upper": _bind_upper, "load": _bind_load,
            "store": _bind_store, "branch": _bind_branch,
            "jump": _bind_jump, "fp": _bind_fp}


def _bind_fast(instr: Instr, machine, pc: int):
    """Specialized closure for ``instr``, or ``None`` for the reference
    handler (CSR accesses and system instructions keep it).  Loads and
    stores read ``machine.memory`` eagerly -- the simulator never swaps
    its memory object after construction."""
    row = SEMANTICS[instr.kind]
    binder = _BINDERS.get(row.shape)
    if binder is None:
        return None
    return binder(instr, row, machine, pc)
