"""Architectural trap model (machine-mode exceptions, RISC-V style).

The seed version of this simulator escaped into the host on any guest
misbehaviour: an undecodable word raised ``UnknownInstruction``, a wild
pointer raised a raw memory error, an unimplemented CSR access raised
``IllegalCsr`` -- all Python tracebacks, all fatal to a figure sweep.

This module defines the trap vocabulary instead.  Faulting layers raise
:class:`ArchitecturalTrap` (or one of the precursor exceptions the
simulator translates); :meth:`Simulator.run` catches it, latches
``mcause``/``mepc``/``mtval`` into the CSR file exactly as RISC-V
machine mode would, and returns a :class:`~repro.sim.simulator.RunResult`
with ``exit_reason='trap'`` and a :class:`TrapInfo` diagnostic.  Traps
are precise and terminal: no guest-side handler is vectored to, which is
the behaviour a bare-metal benchmark kernel wants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .. import ReproError

# mcause exception codes (RISC-V privileged spec, interrupt bit clear).
CAUSE_INSTRUCTION_ACCESS_FAULT = 1
CAUSE_ILLEGAL_INSTRUCTION = 2
CAUSE_BREAKPOINT = 3
CAUSE_LOAD_ACCESS_FAULT = 5
CAUSE_STORE_ACCESS_FAULT = 7
CAUSE_ECALL_M = 11

CAUSE_NAMES = {
    CAUSE_INSTRUCTION_ACCESS_FAULT: "instruction access fault",
    CAUSE_ILLEGAL_INSTRUCTION: "illegal instruction",
    CAUSE_BREAKPOINT: "breakpoint",
    CAUSE_LOAD_ACCESS_FAULT: "load access fault",
    CAUSE_STORE_ACCESS_FAULT: "store access fault",
    CAUSE_ECALL_M: "environment call",
}


class ArchitecturalTrap(ReproError):
    """A guest-visible exception on the architectural trap path.

    Raised by the executor (and translated from lower-level errors by
    the simulator); never meant to escape :meth:`Simulator.run`.
    """

    def __init__(self, cause: int, tval: int = 0, detail: str = ""):
        self.cause = cause
        self.tval = tval & 0xFFFFFFFF
        self.detail = detail
        name = CAUSE_NAMES.get(cause, f"cause {cause}")
        super().__init__(detail or name)


class EcallTrap(Exception):
    """Raised by ``ecall``; the simulator treats it as program exit."""


class EbreakTrap(Exception):
    """Raised by ``ebreak`` (breakpoint)."""


@dataclass(frozen=True)
class TrapInfo:
    """Diagnostic record of one taken trap (mirrors the trap CSRs)."""

    cause: int  #: mcause exception code
    mepc: int  #: PC of the faulting instruction
    mtval: int  #: faulting address or instruction word
    instruction: Optional[str] = None  #: disassembly of the faulting instr
    detail: str = ""  #: human-readable context from the raising layer

    @property
    def cause_name(self) -> str:
        return CAUSE_NAMES.get(self.cause, f"cause {self.cause}")

    def __str__(self) -> str:
        where = f"pc={self.mepc:#010x}"
        if self.instruction:
            where += f" ({self.instruction})"
        text = f"{self.cause_name} at {where}, mtval={self.mtval:#010x}"
        if self.detail:
            text += f": {self.detail}"
        return text
