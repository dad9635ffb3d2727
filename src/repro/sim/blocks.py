"""Predecoded basic-block fast path for the simulator: generated code.

The reference interpreter in :mod:`repro.sim.simulator` pays, per
retired instruction: a decode-cache lookup, a handler-table lookup, a
seven-arm ``try/except`` fence, a lookup of its per-PC execution record
and the updates of that record, ``instret`` and ``cycles``.  None of
that work depends on run-time state -- it is a pure function of the
instruction words -- so this module resolves all of it once and caches
the result as a *basic block*: a straight-line run of instructions
ending at the first control-flow or CSR instruction, compiled into one
Python function.

Each block's function is generated from the :mod:`~repro.sim.semantics`
rows of its instructions: integer ``alu`` kinds whose op is an
``operator`` function are written inline (``x[5] = (x[6] + 12) &
0xFFFFFFFF``), and so are the compares of every branch (``blt``/``bge``
on operands XORed with 2**31); other ``alu`` ops and ``jalr`` targets
call the row's op; ``upper`` kinds become constants; loads and stores
index :attr:`Memory.pages <repro.sim.memory.Memory.pages>` directly
through precompiled ``struct`` readers and writers, and only a missing
page, an access that crosses a page or one off the top of memory takes
``m.memory``'s checked path; ``fp`` kinds call their
:func:`~repro.sim.semantics.bind_in_xregs` compute with operand masks,
the ``.r`` broadcast, the rounding mode and the ``fflags`` update
written out.  The dynamic rounding mode is looked up once per call
(only a CSR access, which ends a block, changes ``frm``); a reserved
``frm`` traps at the first FP instruction that reads it.  CSR accesses,
system instructions and the FP forms of the split register file or
FLEN other than 32 call their reference handler.  ``x0`` destinations
emit nothing.  The function also adds the block's static cycles and
retire count to the :class:`~repro.sim.tracer.Trace` and returns the
next PC, so dispatch is one call per block.

*Superblocks*: a direct ``jal``/``c.j`` that links nothing (``rd =
x0``) does not end its block when its target is not in the block yet.
The block goes on at the target, and the jump stays an entry that costs
its taken cycles and counts as taken on every execution.  So a loop's
``j`` back-edge and its top-test branch run as one block, whose branch
falls through to the block's own start.  A block whose branch leads
back to its own start *loops in place*: its function runs the next pass
itself while the remaining instruction budget (an argument) covers a
whole pass, exactly where the dispatcher would have run it again.

Blocks are shared process-wide.  A block bakes in its start PC, its
instruction words, the timing configuration's costs, FLEN and the
register-file layout, and nothing else: the generated function takes
the machine as an argument and closes over no machine or memory.  So
every :class:`~repro.sim.simulator.Simulator` that runs the same text
reuses the same blocks, found by that key in a bounded LRU
(:data:`BLOCK_CACHE_SIZE`); a corrupted instruction word changes the
key, so it can never hit a clean block.  Generated source is compiled
once per distinct text (costs are arguments, not literals, so one text
serves every timing configuration).  :func:`block_cache_info` reports
the counters.  Each :class:`BlockEngine` keeps its own PC -> block view
on top, which :meth:`BlockEngine.invalidate` drops, per address range
of the block (a superblock has one per jump it follows).

Dispatch executes whole blocks in a tight loop:

* the exception fence is hoisted to block granularity (one ``try`` per
  block); generated code sets ``m.pc`` before every instruction that
  can fault, so a mid-block fault resolves to its exact instruction;
* per-instruction statistics are per *block*: the hot loop bumps the
  block's ``[executions, taken]`` record, the generated code the two
  CSR-visible scalars (``cycles``/``instret``); when the run ends
  :func:`expand_records` turns each block record into the per-PC
  records every engine hands to :meth:`~repro.sim.tracer.Trace.tally`.

The result is bit-identical to the reference interpreter -- same
cycles, instret, fcsr flags, exit reason, trap CSRs, and the same
:class:`~repro.sim.tracer.Trace` down to Counter *insertion order*
(the energy model's float accumulation iterates ``by_mnemonic`` in
insertion order, so even that must match).  The tally inserts keys in
record order; block records expand in first-execution order, entries
before the terminator, which is first-retire order because a block's
first execution retires its instructions consecutively.

Blocks end at: control-flow instructions other than followed jumps
(kept as a *terminator* whose taken/not-taken costs are both
precomputed), CSR accesses (they may read ``mcycle``/``minstret`` and so
need exact intermediate counts; the generated code adds the prefix's
counts before calling them), undecodable or unimplemented instructions
(the dispatcher falls back to the reference loop, which raises the
architectural trap), and a length cap.  The engine also refuses to
start a block that could cross the instruction budget; the reference
loop finishes such runs with its exact per-instruction watchdog
semantics.
"""

from __future__ import annotations

import operator
import struct
import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..fp.flags import ALL as FFLAGS_MASK, GuestIllegal
from ..isa.compressed import IllegalCompressed
from ..isa.instructions import Instr, UnknownInstruction
from .executor import GUEST_FAULTS, reference_handler
from .csr import _RM_BY_VALUE
from .machine import MASK32
from .memory import _PAGE_BITS, _PAGE_MASK, _PAGE_SIZE, MemoryAccessError
from .semantics import SEMANTICS, access_size, bind_in_xregs, static_rm

#: Upper bound on entries per block.  Long straight-line runs simply
#: split into consecutive blocks; the cap bounds the stat-recording
#: work a mid-block trap has to replay.
MAX_BLOCK_LEN = 64

#: Blocks kept per process (and distinct generated sources); the least
#: recently used one is dropped past this bound.
BLOCK_CACHE_SIZE = 4096

_SENTINEL = 0xFFFF_FF00  # HALT_ADDRESS (simulator.py re-exports it)


class Memo:
    """A bounded, thread-safe LRU map for the process-wide caches."""

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The value of ``key`` (counted as a hit), or None (a miss)."""
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
            else:
                self._data.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key, value):
        """Store ``value`` unless ``key`` is present; the stored value."""
        with self._lock:
            old = self._data.get(key)
            if old is not None:
                return old
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
            return value

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._data)


class Term(NamedTuple):
    """A block's terminator: control flow, a CSR access or ecall/ebreak."""

    instr: Instr
    pc: int
    fallthrough: int
    cost_ntaken: int
    cost_taken: int


class Block:
    """One predecoded straight-line run plus an optional terminator.

    Immutable once built and shared by every simulator whose text
    holds the same words at ``start``.
    """

    __slots__ = (
        "start", "end", "ranges", "entries", "jumps", "costs", "index_of",
        "static_cycles", "n_entries", "term", "total_len", "run", "source",
    )

    def __init__(self, start: int):
        self.start = start
        #: The PC after the last entry (when there is no term).
        self.end = start
        #: ``[low, high)`` byte ranges of the block's parcels, one per
        #: run of adjacent parcels (a followed jump starts another), for
        #: address-ranged invalidation.
        self.ranges: List[Tuple[int, int]] = []
        #: ``(instr, pc)`` per straight-line instruction.
        self.entries: List[Tuple[Instr, int]] = []
        #: PCs of the entries that are followed direct jumps: each
        #: execution of one is a taken redirect.
        self.jumps: frozenset = frozenset()
        #: Per-entry cycle cost (parallel to ``entries``).
        self.costs: List[int] = []
        #: PC -> index (entries, then the terminator), for mid-block
        #: fault recovery.
        self.index_of: Dict[int, int] = {}
        self.static_cycles = 0
        self.n_entries = 0
        self.term: Optional[Term] = None
        self.total_len = 0
        #: The generated ``run(machine, trace, rec) -> next_pc``.
        self.run = None
        #: Its source text.
        self.source = ""


class BlockCacheInfo(NamedTuple):
    """Counters of the process-wide block cache."""

    hits: int       #: blocks found by key (a simulator's view missed)
    misses: int     #: blocks built
    entries: int    #: blocks held now
    compiled: int   #: generated sources compiled (one per distinct text)
    maxsize: int    #: the entry bound, :data:`BLOCK_CACHE_SIZE`


_blocks = Memo(BLOCK_CACHE_SIZE)
#: Generated source text -> the compiled factory of its block function.
_factories = Memo(BLOCK_CACHE_SIZE)


def block_cache_info() -> BlockCacheInfo:
    """Hit, miss, entry and compile counts of the block cache."""
    return BlockCacheInfo(hits=_blocks.hits, misses=_blocks.misses,
                          entries=len(_blocks), compiled=_factories.misses,
                          maxsize=BLOCK_CACHE_SIZE)


def block_cache_clear() -> None:
    """Drop every shared block and compiled source; zero the counters.

    Simulators keep the blocks already in their own views.
    """
    _blocks.clear()
    _factories.clear()


class BlockEngine:
    """One :class:`~repro.sim.simulator.Simulator`'s view of the blocks."""

    def __init__(self, sim):
        self.sim = sim
        self._view: Dict[int, Block] = {}
        self._timing_table = None

    # ------------------------------------------------------------------
    # View maintenance
    # ------------------------------------------------------------------
    def invalidate(self, addr: Optional[int] = None) -> None:
        """Drop blocks from this view (all of them, or those covering
        ``addr``).

        Mirrors :meth:`Simulator.invalidate_decode`: a corrupted byte at
        ``addr`` can change any parcel starting at ``addr & ~1`` or two
        bytes earlier, so every block whose extent overlaps that window
        is dropped and looked up again, by its new words, on its next
        dispatch.  A superblock is dropped when any of its ranges
        overlaps it.
        """
        if addr is None:
            self._view.clear()
            return
        low = (addr & ~1) - 2
        stale = [start for start, block in self._view.items()
                 if any(first <= addr and low < last
                        for first, last in block.ranges)]
        for start in stale:
            del self._view[start]

    def cached_blocks(self) -> int:
        """Number of blocks in this view (introspection/tests)."""
        return len(self._view)

    def _check_timing_epoch(self) -> None:
        """Drop the view if the timing configuration changed.

        Static costs are baked into blocks; mutating the simulator's
        :class:`TimingConfig` between runs must not leave stale costs
        behind.  The timing model starts a new cycle table exactly when
        its configuration changed, so the table is the epoch.
        """
        table = self.sim.timing.table()
        if table is not self._timing_table:
            self._view.clear()
            self._timing_table = table

    def block(self, pc: int) -> Optional[Block]:
        """The block starting at ``pc``, or None when its first
        instruction cannot be fetched, decoded or has no semantics."""
        block = self._view.get(pc)
        if block is None:
            block = _block_at(self.sim, pc)
            if block is not None:
                self._view[pc] = block
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
        machine = self.sim.machine
        self._check_timing_epoch()
        view = self._view
        counts: Dict[int, List[int]] = {}  # start -> [execs, takens]
        order: List[Tuple[Block, List[int]]] = []
        # Generated code keeps ``stats.instret`` live, and a block that
        # loops in place retires several passes per call, so the budget
        # is tracked as the ``instret`` at which it runs out.
        limit = max_instructions - executed + stats.instret

        pc = machine.pc
        while pc != _SENTINEL:
            left = limit - stats.instret
            if left <= 0:
                machine.pc = pc
                expand_records(stats.records, order)
                return ("budget_exceeded",
                        f"exceeded {max_instructions} instructions at "
                        f"pc={pc:#x}", None), max_instructions - left
            block = view.get(pc)
            if block is None:
                block = self.block(pc)
                if block is None:
                    break  # reference loop resolves the trap exactly
            if block.total_len > left:
                break  # per-instruction watchdog needs the reference loop
            rec = counts.get(pc)
            if rec is None:
                rec = counts[pc] = [0, 0]
                order.append((block, rec))
            try:
                pc = block.run(machine, stats, rec, left)
            except GUEST_FAULTS as exc:
                expand_records(stats.records, order)
                outcome = self._fault(stats, block, exc)
                return outcome, max_instructions - limit + stats.instret
            rec[0] += 1

        machine.pc = pc
        expand_records(stats.records, order)
        executed = max_instructions - limit + stats.instret
        if pc == _SENTINEL:
            return ("halt", "", None), executed
        return None, executed  # continue in the reference loop

    def _fault(self, stats, block: Block, exc):
        """Resolve a guest fault raised inside ``block``; the outcome.

        Generated code set ``machine.pc`` to the faulting instruction.
        Entries before it retired (in this pass, for a block that loops
        in place: earlier passes were counted when they completed); a
        faulting terminator runs after the prefix's counts were added
        (CSR reads must observe them), so only an entry fault still
        adds them.
        """
        sim = self.sim
        pc = sim.machine.pc
        idx = block.index_of[pc]
        if idx == block.n_entries:
            instr = block.term.instr
        else:
            instr = block.entries[idx][0]
            stats.instret += idx
            stats.cycles += sum(block.costs[:idx])
        jumps = block.jumps
        stats.records.extend((1, int(entry_pc in jumps), entry_pc,
                              entry_instr)
                             for entry_instr, entry_pc
                             in block.entries[:idx])
        reason, trap_info, retires = sim._resolve_exec_fault(exc, instr)
        if retires:  # ecall/ebreak terminators
            stats.record(instr, 1, pc=pc)
        return reason, "", trap_info


def expand_records(records: list,
                   order: List[Tuple["Block", List[int]]]) -> None:
    """Append the per-PC records of ``order``'s ``(block, [executions,
    taken terminators])`` pairs to ``records``, in that (first-execution)
    order, entries before the terminator: a block's first execution
    retires its instructions consecutively, so this is first-retire
    order.  A followed jump is taken on every execution.  The block
    engine and every lockstep lane expand here."""
    for block, (execs, takens) in order:
        if execs:
            jumps = block.jumps
            records.extend((execs, execs if pc in jumps else 0, pc, instr)
                           for instr, pc in block.entries)
            term = block.term
            if term is not None:
                records.append((execs, takens, term.pc, term.instr))


# ----------------------------------------------------------------------
# Block lookup and construction
# ----------------------------------------------------------------------
def _block_at(sim, pc: int) -> Optional[Block]:
    """The shared block at ``pc`` for ``sim``'s current text, built (and
    its code generated) on a miss.

    A direct ``jal``/``c.j`` that links nothing (``rd = x0``) does not
    end the block when its target is not in the block yet: the block
    goes on at the target (a *superblock*), so a loop's back-edge and
    its header run as one block.  A superblock ends where it would run
    into a PC it holds already, so each PC has one entry.
    """
    fetched = []  # (instr, pc, size, row, followed jump's target)
    words = []
    seen = set()
    terminated = False
    addr = pc
    while len(fetched) < MAX_BLOCK_LEN and addr not in seen:
        try:
            instr, size, raw = sim._fetch(addr)
        except (UnknownInstruction, IllegalCompressed, MemoryAccessError):
            # Undecodable or unfetchable: end the block here; the
            # dispatcher falls back to the reference loop, which takes
            # the architectural trap with exact semantics.
            break
        row = SEMANTICS.get(instr.spec.kind)
        if row is None:
            break  # reference loop raises the illegal-instruction trap
        words.append(raw)
        seen.add(addr)
        cf = instr.spec.cf
        if cf == "jump" and not instr.rd:
            target = row.op(addr, 0, instr.imm)
            if target not in seen:
                fetched.append((instr, addr, size, row, target))
                addr = target
                continue
        fetched.append((instr, addr, size, row, None))
        addr += size
        # CSR accesses terminate blocks too: they can observe the cycle
        # and instret counters, which the fast path only keeps exact at
        # block boundaries.
        if cf is not None or row.shape == "csr":
            terminated = True
            break
    if not fetched:
        return None
    machine = sim.machine
    key = (pc, tuple(words), sim.timing.config.snapshot_key(),
           machine.flen, machine.merged_regfile)
    block = _blocks.get(key)
    if block is None:
        block = _blocks.put(key, _build(pc, fetched, terminated, sim.timing,
                                        machine.flen,
                                        machine.merged_regfile))
    return block


def _build(pc: int, fetched, terminated: bool, timing, flen: int,
           merged: bool) -> Block:
    block = Block(pc)
    gen = _Codegen(flen, merged)
    costs = timing.table()
    ranges = block.ranges
    for instr, addr, size, row, target in fetched:
        if ranges and ranges[-1][1] == addr:
            ranges[-1] = (ranges[-1][0], addr + size)
        else:
            ranges.append((addr, addr + size))
    body = fetched[:-1] if terminated else fetched
    jumps = set()
    for instr, addr, size, row, target in body:
        if target is not None:
            jumps.add(addr)  # a followed jump retires as taken
        cost = costs[instr.spec][target is not None]
        block.index_of[addr] = block.n_entries
        block.entries.append((instr, addr))
        block.costs.append(cost)
        block.static_cycles += cost
        block.n_entries += 1
        block.end = (addr + size) & MASK32 if target is None else target
        gen.entry(instr, row, addr)
    block.jumps = frozenset(jumps)
    n = block.n_entries
    block.total_len = n + (1 if terminated else 0)
    if terminated:
        instr, addr, size, row, _ = fetched[-1]
        block.index_of[addr] = n
        block.term = Term(instr, addr, (addr + size) & MASK32,
                          *costs[instr.spec])
        gen.terminator(block.term, row, n, block.static_cycles, pc)
    else:
        gen.fallthrough(block.end, n, block.static_cycles)
    block.source, block.run = gen.finish()
    return block


# ----------------------------------------------------------------------
# Code generation, one emitter per operand shape
# ----------------------------------------------------------------------
# Operators written inline: the expression computing ``op(a, b)``, and
# whether the result may leave 32 bits (and so needs the mask).
_INLINE_ALU = {
    operator.add: ("{a} + {b}", True),
    operator.sub: ("{a} - {b}", True),
    operator.mul: ("{a} * {b}", True),
    operator.lshift: ("{a} << {b}", True),
    operator.lt: ("{a} < {b}", True),  # bool -> int through the mask
    operator.xor: ("{a} ^ {b}", False),
    operator.or_: ("{a} | {b}", False),
    operator.and_: ("{a} & {b}", False),
    operator.rshift: ("{a} >> {b}", False),
}
#: Operators with ``op(a, 0) == a``.
_IDENTITY_ZERO = (operator.add, operator.sub, operator.xor, operator.or_,
                  operator.lshift, operator.rshift)
#: Branch compares, by op for all but the signed ones, ...
_INLINE_COND = {
    operator.eq: "{a} == {b}",
    operator.ne: "{a} != {b}",
    operator.lt: "{a} < {b}",
    operator.ge: "{a} >= {b}",
}
#: ... the signed ones by kind, written on operands XORed with 2**31
#: (which orders two's-complement values like unsigned ones).
_SIGNED_COND = {"blt": "<", "bge": ">="}
_SIGN32 = 1 << 31

#: Globals of generated code: ``struct`` page readers (``_ld2``,
#: ``_ld2s``, ``_ld4``, ``_ld4s``) and writers (``_st2``, ``_st4``) by
#: access size, and the frm -> rounding mode table.
_GLOBALS = {"_RM": _RM_BY_VALUE}
for _size, _code in ((2, "h"), (4, "i")):
    _GLOBALS[f"_ld{_size}s"] = struct.Struct("<" + _code).unpack_from
    _GLOBALS[f"_ld{_size}"] = struct.Struct("<" + _code.upper()).unpack_from
    _GLOBALS[f"_st{_size}"] = struct.Struct("<" + _code.upper()).pack_into


def _x(reg: int) -> str:
    """Source reading integer register ``reg`` (x0 reads as 0)."""
    return f"x[{reg}]" if reg else "0"


def _biased(reg: int) -> str:
    """Source reading ``reg`` XORed with 2**31, for signed compares."""
    return f"(x[{reg}] ^ {_SIGN32})" if reg else str(_SIGN32)


def _address(i: Instr) -> str:
    """Source computing a load or store's effective address."""
    if not i.rs1:
        return str(i.imm & MASK32)
    if not i.imm:
        return _x(i.rs1)
    return f"({_x(i.rs1)} + {i.imm}) & {MASK32}"


def _page_read(size: int, signed: bool) -> str:
    """Source reading ``size`` bytes at offset ``o`` of page ``p``."""
    if size == 1:
        return f"((p[o] ^ 128) - 128) & {MASK32}" if signed else "p[o]"
    if signed:
        return f"_ld{size}s(p, o)[0] & {MASK32}"
    return f"_ld{size}(p, o)[0]"


class _Codegen:
    """Accumulates one block function's source and its constants.

    The source depends only on the block's PC, words, FLEN and register
    file layout; everything else (costs, compute functions, reference
    handlers, instructions) is an argument of the generated factory, so
    equal texts share one compiled code object.
    """

    def __init__(self, flen: int, merged: bool):
        self.flen = flen
        self.fp_in_x = merged and flen == 32
        self.lines: List[str] = []
        self.consts: list = []
        self.uses_mem = False
        self.uses_csr = False
        #: Reads the dynamic rounding mode (looked up once per call:
        #: only a CSR access, which ends a block, changes it).
        self.uses_rm = False
        #: Runs more passes in place (its branch leads to its start).
        self.loops = False

    def const(self, value) -> str:
        self.consts.append(value)
        return f"k{len(self.consts) - 1}"

    def emit(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " * depth + line)

    # ------------------------------------------------------------------
    def entry(self, i: Instr, row, pc: int) -> None:
        shape = row.shape
        if shape == "alu":
            self._alu(i, row)
        elif shape == "upper":
            if i.rd:
                self.emit(f"x[{i.rd}] = {row.op(pc, i.imm) & MASK32}")
        elif shape == "load" and (self.fp_in_x
                                  or i.spec.syntax[0] != "frd"):
            self._load(i, row, pc)
        elif shape == "store" and (self.fp_in_x
                                   or i.spec.syntax[0] != "frs2"):
            self._store(i, pc)
        elif shape == "fp" and self.fp_in_x:
            self._fp(i, row, pc)
        elif shape == "jump":
            pass  # a followed direct jump: it links nothing
        else:
            self._reference(i, pc)

    def _reference(self, i: Instr, pc: int, result: str = "") -> None:
        handler = self.const(reference_handler(i.spec, self.flen))
        self.emit(f"m.pc = {pc}")
        self.emit(f"{result}{handler}(m, {self.const(i)})")

    def _alu(self, i: Instr, row) -> None:
        if not i.rd:
            return  # pure compute into x0
        reg = "rs2" in i.spec.syntax
        if not i.rs1 and not (reg and i.rs2):
            # Constant operands (``li``): fold at build time.
            b = 0 if reg else i.imm & MASK32
            self.emit(f"x[{i.rd}] = {row.op(0, b) & MASK32}")
            return
        a = _x(i.rs1)
        b = _x(i.rs2) if reg else str(i.imm & MASK32)
        inline = _INLINE_ALU.get(row.op)
        if b == "0" and row.op in _IDENTITY_ZERO:
            value, masked = a, False  # ``mv``: a 32-bit value already
        elif inline is None:
            value, masked = f"{self.const(row.op)}({a}, {b})", True
        else:
            value, masked = inline[0].format(a=a, b=b), inline[1]
        if masked:
            value = f"({value}) & {MASK32}"
        self.emit(f"x[{i.rd}] = {value}")

    def _access(self, i: Instr, size: int, pc: int) -> None:
        """Open a load or store of ``size`` bytes: the address ``a``, its
        page ``p`` (None when not mapped yet) and offset ``o``, and the
        test that sends a missing page, or an access that crosses a page
        (one off the top of memory crosses the last page), through
        ``mem``'s checked path with ``m.pc`` set.  The caller emits that
        path's body, then ``else:`` and the direct page access."""
        self.uses_mem = True
        self.emit(f"a = {_address(i)}")
        self.emit(f"o = a & {_PAGE_MASK}")
        self.emit(f"p = pg(a >> {_PAGE_BITS})")
        crosses = f" or o > {_PAGE_SIZE - size}" if size > 1 else ""
        self.emit(f"if p is None{crosses}:")
        self.emit(f"m.pc = {pc}", 1)

    def _load(self, i: Instr, row, pc: int) -> None:
        size = access_size(i.spec, self.flen)
        self._access(i, size, pc)
        read = f"mem.read(a, {size})"
        if not i.rd:
            self.emit(read, 1)  # still faults
            return
        if row.signed:
            sign = 1 << (8 * size - 1)
            read = f"(({read} ^ {sign}) - {sign}) & {MASK32}"
        self.emit(f"x[{i.rd}] = {read}", 1)
        self.emit("else:")
        self.emit(f"x[{i.rd}] = {_page_read(size, row.signed)}", 1)

    def _store(self, i: Instr, pc: int) -> None:
        size = access_size(i.spec, self.flen)
        self._access(i, size, pc)
        value = _x(i.rs2)
        self.emit(f"mem.write(a, {value}, {size})", 1)
        self.emit("else:")
        if size < 4 and i.rs2:
            value = f"{value} & {(1 << 8 * size) - 1}"
        self.emit(f"p[o] = {value}" if size == 1
                  else f"_st{size}(p, o, {value})", 1)

    def _fp(self, i: Instr, row, pc: int) -> None:
        fn, regs, masks, scale, dmask = bind_in_xregs(i)
        self.emit(f"m.pc = {pc}")
        rm = None
        if row.rounds:
            try:
                rm = static_rm(i)
            except GuestIllegal as exc:
                # A reserved static rounding mode traps when it executes.
                self.emit(f"raise {self.const(GuestIllegal)}"
                          f"({self.const(str(exc))})")
                return
        args = []
        for reg, mask in zip(regs, masks):
            arg = _x(reg)
            if mask != MASK32 and reg:
                arg = f"({arg} & {mask})"
            args.append(arg)
        if scale != 1:
            args[-1] = f"{args[-1]} * {scale}"
        if row.rounds:
            if rm is None and not self.uses_rm:
                # The block's first read of frm: a reserved value traps
                # here, as the reference handler's read would.
                self.uses_rm = True
                self.emit("if rm is None:")
                self.emit("csr.rounding_mode", 1)
            args.append("rm" if rm is None else self.const(rm))
        call = f"{self.const(fn)}({', '.join(args)})"
        if row.flags:
            self.uses_csr = True
            self.emit(f"r, f = {call}")
            self.emit("if f:")
            self.emit(f"csr.fflags |= f & {FFLAGS_MASK}", 1)
            call = "r"
        if i.rd:
            self.emit(f"x[{i.rd}] = {call} & {dmask}")
        elif call != "r":
            self.emit(call)  # may still fault

    # ------------------------------------------------------------------
    def fallthrough(self, end: int, n: int, static: int) -> None:
        self.emit(f"st.instret += {n}")
        self.emit(f"st.cycles += {self.const(static)}")
        self.emit(f"return {end}")

    def terminator(self, term: Term, row, n: int, static: int,
                   start: int) -> None:
        i = term.instr
        if row.shape == "branch":
            signed = _SIGNED_COND.get(i.spec.kind)
            if signed is not None:
                cond = f"{_biased(i.rs1)} {signed} {_biased(i.rs2)}"
            else:
                cond = _INLINE_COND[row.op].format(a=_x(i.rs1),
                                                   b=_x(i.rs2))
            target = (term.pc + i.imm) & MASK32
            self.emit(f"st.instret += {n + 1}")
            self.emit(f"if {cond}:")
            self.emit(f"st.cycles += {self.const(static + term.cost_taken)}",
                      1)
            self.emit("rec[1] += 1", 1)
            depth = 0
            if target != start:
                self.emit(f"return {target}", 1)
            else:
                self.emit("else:")
                depth = 1
            self.emit(f"st.cycles += {self.const(static + term.cost_ntaken)}",
                      depth)
            if term.fallthrough != start:
                self.emit(f"return {term.fallthrough}", depth)
            if start in (target, term.fallthrough):
                self._loop(n + 1, start)
        elif row.shape == "jump":
            if "rs1" in i.spec.syntax:
                # The target reads rs1 before the link may overwrite it.
                self.emit(f"t = {self.const(row.op)}"
                          f"({term.pc}, {_x(i.rs1)}, {i.imm})")
                target = "t"
            else:
                target = str(row.op(term.pc, 0, i.imm))
            if i.rd:
                self.emit(f"x[{i.rd}] = {term.fallthrough}")
            self.emit(f"st.instret += {n + 1}")
            self._taken(target, static + term.cost_taken, 0)
        else:
            # CSR accesses and ecall/ebreak: the reference handler, after
            # the prefix's counts (CSR reads of cycle/instret see them).
            if n:
                self.emit(f"st.instret += {n}")
                self.emit(f"st.cycles += {self.const(static)}")
            self._reference(i, term.pc, result="t = ")
            self.emit("st.instret += 1")
            self.emit("if t is not None:")
            self._taken("t", term.cost_taken, 1)
            self.emit(f"st.cycles += {self.const(term.cost_ntaken)}")
            self.emit(f"return {term.fallthrough}")

    def _taken(self, target: str, cycles: int, depth: int) -> None:
        self.emit(f"st.cycles += {self.const(cycles)}", depth)
        self.emit("rec[1] += 1", depth)
        self.emit(f"return {target}", depth)

    def _loop(self, n: int, start: int) -> None:
        """Close a pass that leads back to the block's start: run the
        next one in place while the budget ``left`` covers it, as the
        dispatcher would, counting each finished pass but the last (the
        dispatcher counts that one)."""
        self.loops = True
        self.emit(f"left -= {n}")
        self.emit(f"if left < {n}:")
        self.emit(f"return {start}", 1)
        self.emit("rec[0] += 1")

    # ------------------------------------------------------------------
    def finish(self):
        """``(source, function)``: compile the text once per process."""
        prologue = ["x = m.xregs"]
        if self.uses_mem:
            prologue += ["mem = m.memory", "pg = mem.pages.get"]
        if self.uses_csr or self.uses_rm:
            prologue.append("csr = m.csr")
        if self.uses_rm:
            prologue.append("rm = _RM.get(csr.frm)")
        body = self.lines
        if self.loops:
            body = ["while True:"] + ["    " + line for line in body]
        params = ", ".join(f"k{n}" for n in range(len(self.consts)))
        source = "\n".join(
            [f"def _factory({params}):",
             "    def _block(m, st, rec, left):"]
            + ["        " + line for line in prologue + body]
            + ["    return _block", ""])
        factory = _factories.get(source)
        if factory is None:
            namespace = dict(_GLOBALS)
            exec(compile(source, "<block>", "exec"), namespace)
            factory = _factories.put(source, namespace["_factory"])
        return source, factory(*self.consts)
