"""Top-level fetch/decode/execute loop (the PULP-virtual-platform stand-in).

The simulator loads an assembled :class:`~repro.isa.assembler.Program`,
runs from an entry symbol to a sentinel return address, and produces a
:class:`~repro.sim.tracer.Trace` with cycle and instruction-mix
statistics.  Decoded instructions are cached per address, and compressed
parcels are expanded on fetch (RISCY does the same in its decoder).

Guest misbehaviour never escapes :meth:`Simulator.run` as a host
exception: undecodable words, unimplemented CSR accesses and
out-of-range loads/stores all take the architectural trap path
(:mod:`repro.sim.traps`), latching ``mcause``/``mepc``/``mtval`` and
returning a :class:`RunResult` with ``exit_reason='trap'``.  Runaway
programs end with ``exit_reason='budget_exceeded'`` instead of an
exception, so sweep drivers can record the outcome and move on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from .. import ReproError
from ..isa.assembler import Program
from ..isa.compressed import (
    IllegalCompressed,
    compressed_alias_spec,
    expand_with_mnemonic,
)
from ..isa.disassembler import disassemble, format_instr
from ..isa.encoding import is_compressed
from ..isa.instructions import Instr, UnknownInstruction, decode
from .blocks import BlockEngine, Memo
from .csr import IllegalCsr
from .executor import GUEST_FAULTS, EbreakTrap, EcallTrap, execute
from .machine import MASK32, Machine
from .memory import Memory, MemoryAccessError
from .semantics import spec_info
from .timing import TimingConfig, TimingModel
from .tracer import Trace
from .traps import (
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_INSTRUCTION_ACCESS_FAULT,
    CAUSE_LOAD_ACCESS_FAULT,
    CAUSE_STORE_ACCESS_FAULT,
    ArchitecturalTrap,
    TrapInfo,
)

#: The sentinel return address that terminates a run (aligned, outside
#: any mapped program region).
HALT_ADDRESS = 0xFFFF_FF00

#: Default stack top (grows downward, far from text and data).
STACK_TOP = 0x00F0_0000

#: Exit reasons a finished run can report.
EXIT_REASONS = ("halt", "ecall", "ebreak", "trap", "budget_exceeded")

#: Distinct fetched parcels and words kept decoded per process; the
#: least recently used one is dropped past this bound.
DECODE_CACHE_SIZE = 16384

#: Fetched parcel or word -> ``(instr, size)``.  A compressed parcel
#: (low bits not ``11``) and a 32-bit word never share a key.  Decoded
#: instructions are shared by every simulator and must not be mutated.
_decoded = Memo(DECODE_CACHE_SIZE)

#: Hook called before each instruction: ``hook(simulator, executed)``.
StepHook = Callable[["Simulator", int], None]


class SimulationError(ReproError):
    """Host-side misuse of the simulator (e.g. no program loaded)."""


@dataclass
class RunResult:
    """Outcome of one :meth:`Simulator.run` call."""

    trace: Trace
    exit_reason: str  # one of :data:`EXIT_REASONS`
    machine: Machine
    trap: Optional[TrapInfo] = None  #: populated when exit_reason='trap'
    detail: str = ""  #: extra context for abnormal exits

    @property
    def cycles(self) -> int:
        return self.trace.cycles

    @property
    def instret(self) -> int:
        return self.trace.instret

    @property
    def ok(self) -> bool:
        """True when the guest ran to a voluntary exit."""
        return self.exit_reason in ("halt", "ecall", "ebreak")


class Simulator:
    """An RV32IMFC + smallFloat instruction-set simulator."""

    def __init__(
        self,
        program: Optional[Program] = None,
        mem_latency: Optional[int] = None,
        merged_regfile: bool = True,
        flen: int = 32,
        timing: Optional[TimingConfig] = None,
        fast_path: Optional[bool] = None,
    ):
        # Copy the caller's TimingConfig: the simulator owns its timing
        # state and must not mutate (or alias) an object it was handed.
        if timing is not None:
            timing_config = TimingConfig(
                mem_latency=timing.mem_latency,
                branch_taken_penalty=timing.branch_taken_penalty,
                jump_penalty=timing.jump_penalty,
                int_div_cycles=timing.int_div_cycles,
                fdiv_cycles=dict(timing.fdiv_cycles),
                fsqrt_cycles=dict(timing.fsqrt_cycles),
            )
        else:
            timing_config = TimingConfig()
        if mem_latency is None:
            mem_latency = timing_config.mem_latency
        else:
            timing_config.mem_latency = mem_latency
        memory = Memory(latency=mem_latency)
        self.machine = Machine(memory, merged_regfile=merged_regfile, flen=flen)
        self.timing = TimingModel(timing_config)
        self.program: Optional[Program] = None
        #: pc -> ``(instr, size, raw)``: this simulator's view of the
        #: decoded text (``raw`` is the fetched parcel or word).
        self._decode_cache: Dict[int, Tuple[Instr, int, int]] = {}
        #: Use the predecoded block engine when the run has no
        #: step hook (``None`` means yes); ``False``
        #: selects the reference loop, which the differential tests
        #: compare against.
        self.fast_path = fast_path is not False
        self._block_engine = None  # built lazily on first fast run
        if program is not None:
            self.load(program)

    # ------------------------------------------------------------------
    def load(self, program: Program) -> None:
        """Load text and data sections into memory."""
        self.program = program
        self._decode_cache.clear()
        if self._block_engine is not None:
            self._block_engine.invalidate()
        if program.words:
            # One bulk store of the packed text section: the per-word
            # write_u32 loop paid a bounds check and a page lookup per
            # instruction, which dominated load time for large kernels.
            text = struct.pack(f"<{len(program.words)}I", *program.words)
            self.machine.memory.write_block(program.text_base, text)
        if program.data:
            self.machine.memory.write_block(program.data_base, bytes(program.data))

    def address_of(self, entry: Union[str, int]) -> int:
        if isinstance(entry, int):
            return entry
        if self.program is None:
            raise SimulationError("no program loaded")
        return self.program.address_of(entry)

    def invalidate_decode(self, addr: Optional[int] = None) -> None:
        """Drop cached decodes (one address, or all of them).

        Fault injectors that corrupt fetched instruction words call this
        so the next fetch re-decodes the modified memory.  Both possible
        parcel start addresses covering ``addr`` are dropped.
        """
        if addr is None:
            self._decode_cache.clear()
            if self._block_engine is not None:
                self._block_engine.invalidate()
            return
        for start in (addr & ~1, (addr & ~1) - 2):
            self._decode_cache.pop(start, None)
        if self._block_engine is not None:
            self._block_engine.invalidate(addr)

    # ------------------------------------------------------------------
    def _fetch(self, pc: int) -> Tuple[Instr, int, int]:
        cached = self._decode_cache.get(pc)
        if cached is not None:
            return cached
        memory = self.machine.memory
        raw = memory.read_u16(pc)
        if not is_compressed(raw):
            raw = memory.read_u32(pc)
        decoded = _decoded.get(raw)
        if decoded is None:
            decoded = _decoded.put(raw, _decode(raw))
        cached = self._decode_cache[pc] = (*decoded, raw)
        return cached

    def instruction_at(self, pc: int) -> Instr:
        """The instruction a fetch at ``pc`` decodes (RVC expanded under
        its ``c.*`` mnemonic); raises like a fetch on an unmapped or
        undecodable address."""
        return self._fetch(pc)[0]

    # ------------------------------------------------------------------
    def _take_trap(self, cause: int, tval: int, detail: str,
                   instr: Optional[Instr] = None) -> TrapInfo:
        """Latch trap CSRs and build the diagnostic record."""
        machine = self.machine
        machine.csr.set_trap(cause, machine.pc, tval)
        text: Optional[str] = None
        if instr is not None:
            text = format_instr(instr, machine.pc)
        elif cause == CAUSE_ILLEGAL_INSTRUCTION and tval:
            text = disassemble(tval, machine.pc)
        return TrapInfo(
            cause=cause,
            mepc=machine.pc,
            mtval=tval & MASK32,
            instruction=text,
            detail=detail,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        entry: Union[str, int] = 0,
        args: Optional[Dict[int, int]] = None,
        max_instructions: int = 50_000_000,
        trace: Optional[Trace] = None,
        step_hook: Optional[StepHook] = None,
    ) -> RunResult:
        """Run from ``entry`` until the sentinel return address.

        ``args`` maps integer register numbers to initial values (the
        harness passes pointers and sizes in a0-a7 this way).  The run
        behaves like a call: ``ra`` is pointed at :data:`HALT_ADDRESS`
        so a final ``ret`` ends the simulation.

        ``step_hook(sim, executed)`` is invoked before every fetch --
        the fault-injection subsystem uses it to flip architectural bits
        at a scheduled instruction index, and the Chrome-trace timeline
        recorder to timestamp blocks.  A run with a hook takes the
        reference loop; without one it takes the block engine.  Either
        way the returned :class:`Trace` is the same, and
        :func:`repro.profile.build_profile` attributes its cycles after
        the run.

        The returned :class:`RunResult` always reflects how the run
        ended; guest faults surface as ``exit_reason='trap'`` with a
        populated :class:`~repro.sim.traps.TrapInfo`, never as a host
        exception, and exceeding ``max_instructions`` reports
        ``exit_reason='budget_exceeded'``.
        """
        machine = self.machine
        machine.pc = self.address_of(entry)
        machine.write_x(1, HALT_ADDRESS)  # ra
        machine.write_x(2, STACK_TOP)  # sp
        for reg, value in (args or {}).items():
            machine.write_x(reg, value)
        return self._execute(trace if trace is not None else Trace(), 0,
                             max_instructions, step_hook)

    # ------------------------------------------------------------------
    def resume(
        self,
        trace: Trace,
        executed: int = 0,
        max_instructions: int = 50_000_000,
    ) -> RunResult:
        """Continue a run from the *current* machine state.

        The lockstep engine (:mod:`repro.sim.lockstep`) drains diverged
        lanes by materializing their machine state and partial
        :class:`Trace` into a fresh simulator and handing the remainder
        of the run to this method.  Unlike :meth:`run` it performs no
        entry/``ra``/``sp``/argument setup: ``machine.pc`` and the
        register file are taken as-is, ``trace`` keeps accumulating, and
        ``executed`` instructions already count against the budget (so a
        later budget-exceeded detail reports the original total).
        """
        return self._execute(trace, executed, max_instructions, None)

    def _execute(self, stats: Trace, executed: int, max_instructions: int,
                 step_hook: Optional[StepHook]) -> RunResult:
        """The one run path behind :meth:`run` and :meth:`resume`."""
        machine = self.machine
        machine.csr.cycle_source = lambda: stats.cycles
        machine.csr.instret_source = lambda: stats.instret
        outcome = None
        if self.fast_path and step_hook is None:
            # Block dispatch: bit-identical statistics, deferred until
            # the engine returns.  A ``None`` outcome means the engine
            # hit something it does not handle (undecodable word,
            # unimplemented kind, budget edge) and the reference loop
            # must finish the run from the current machine state.
            outcome, executed = self._engine().run(
                stats, max_instructions, executed=executed)
        if outcome is None:
            outcome = self._run_reference(
                stats, executed, max_instructions, step_hook)
        exit_reason, detail, trap_info = outcome
        if trap_info is not None:
            detail = str(trap_info)
        return RunResult(trace=stats, exit_reason=exit_reason,
                         machine=machine, trap=trap_info, detail=detail)

    # ------------------------------------------------------------------
    def _engine(self):
        """The lazily constructed block engine for this simulator."""
        if self._block_engine is None:
            self._block_engine = BlockEngine(self)
        return self._block_engine

    # ------------------------------------------------------------------
    def _resolve_exec_fault(
        self, exc: BaseException, instr: Instr,
    ) -> Tuple[str, Optional[TrapInfo], bool]:
        """Map an execute-stage exception to its run outcome.

        Returns ``(exit_reason, trap_info, retires)`` where ``retires``
        is True for voluntary exits (``ecall``/``ebreak``) whose
        instruction still counts as retired with a 1-cycle cost.  The
        isinstance checks mirror the historical ``except`` arm order so
        both execution paths resolve overlapping exception types
        identically; ``machine.pc`` must already point at the faulting
        instruction (it feeds ``mepc``).
        """
        if isinstance(exc, EcallTrap):
            return "ecall", None, True
        if isinstance(exc, EbreakTrap):
            return "ebreak", None, True
        if isinstance(exc, ArchitecturalTrap):
            return "trap", self._take_trap(
                exc.cause, exc.tval, exc.detail, instr=instr), False
        if isinstance(exc, IllegalCsr):
            return "trap", self._take_trap(
                CAUSE_ILLEGAL_INSTRUCTION, instr.word, str(exc),
                instr=instr), False
        if isinstance(exc, MemoryAccessError):
            cause = (CAUSE_STORE_ACCESS_FAULT if exc.access == "store"
                     else CAUSE_LOAD_ACCESS_FAULT)
            return "trap", self._take_trap(
                cause, exc.addr, str(exc), instr=instr), False
        # GuestIllegal: reserved rounding modes and format/FLEN
        # mismatches are illegal instructions architecturally.
        return "trap", self._take_trap(
            CAUSE_ILLEGAL_INSTRUCTION, instr.word, str(exc),
            instr=instr), False

    # ------------------------------------------------------------------
    def _run_reference(
        self,
        stats: Trace,
        executed: int,
        max_instructions: int,
        step_hook: Optional[StepHook],
    ) -> Tuple[str, str, Optional[TrapInfo]]:
        """The per-instruction interpreter (ground truth for the fast path).

        ``executed`` carries the retire count accumulated by the block
        engine when this loop finishes a partially fast-pathed run, so
        the instruction budget spans both phases exactly.
        """
        machine = self.machine
        costs = self.timing.table()
        #: pc -> (instr, cycle pair, mnemonic, category): a retire looks
        #: its instruction up by pc instead of hashing its spec twice.
        retire_info = {}
        exit_reason = "halt"
        detail = ""
        trap_info: Optional[TrapInfo] = None
        while machine.pc != HALT_ADDRESS:
            if executed >= max_instructions:
                exit_reason = "budget_exceeded"
                detail = (f"exceeded {max_instructions} instructions at "
                          f"pc={machine.pc:#x}")
                break
            if step_hook is not None:
                step_hook(self, executed)
                if machine.pc == HALT_ADDRESS:  # hook redirected to halt
                    break

            # Fetch + decode: undecodable or unfetchable words trap.
            try:
                instr, size, _raw = self._fetch(machine.pc)
            except (UnknownInstruction, IllegalCompressed) as exc:
                word = self._raw_parcel(machine.pc)
                trap_info = self._take_trap(
                    CAUSE_ILLEGAL_INSTRUCTION, word, str(exc))
                exit_reason = "trap"
                break
            except MemoryAccessError as exc:
                trap_info = self._take_trap(
                    CAUSE_INSTRUCTION_ACCESS_FAULT, exc.addr, str(exc))
                exit_reason = "trap"
                break

            fallthrough = (machine.pc + size) & MASK32
            pc_before = machine.pc
            try:
                next_pc = execute(machine, instr)
            except GUEST_FAULTS as exc:
                exit_reason, trap_info, retires = self._resolve_exec_fault(
                    exc, instr)
                if retires:
                    stats.record(instr, 1, pc=pc_before)
                break
            # Any redirect counts as taken (even a branch to pc+4: the
            # pipeline still flushes).
            taken = next_pc is not None
            info = retire_info.get(pc_before)
            if info is None or info[0] is not instr:
                info = retire_info[pc_before] = (
                    instr, costs[instr.spec], instr.mnemonic,
                    spec_info(instr.spec).category)
            stats.retire(info[2], info[3], info[1][taken], taken, pc_before)
            machine.pc = next_pc if next_pc is not None else fallthrough
            executed += 1
        return exit_reason, detail, trap_info

    # ------------------------------------------------------------------
    def _raw_parcel(self, pc: int) -> int:
        """Best-effort read of the faulting instruction word for mtval."""
        try:
            parcel = self.machine.memory.read_u16(pc)
            if is_compressed(parcel):
                return parcel
            return self.machine.memory.read_u32(pc)
        except MemoryAccessError:
            return 0


def _decode(raw: int) -> Tuple[Instr, int]:
    """Decode one fetched parcel or word: ``(instr, size)``."""
    if is_compressed(raw):
        # Expand in the decoder (as RISCY does), but keep the canonical
        # ``c.*`` mnemonic on the decoded instruction so traces stay
        # faithful to the fetched stream; the spec's ``kind``/format
        # metadata is the expanded instruction's, so classification
        # falls through to it unchanged.
        name, word = expand_with_mnemonic(raw)
        instr = decode(word)
        instr.spec = compressed_alias_spec(name, instr.spec)
        size = 2
    else:
        instr = decode(raw)
        size = 4
    instr.size = size  # type: ignore[attr-defined]
    return instr, size
