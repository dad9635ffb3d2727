"""Control and status registers: fcsr (fflags + frm), the counters and
the machine-mode trap CSRs (mepc/mcause/mtval and friends)."""

from __future__ import annotations

from .. import ReproError
from ..fp.flags import ALL as FFLAGS_MASK, GuestIllegal
from ..fp.rounding import OPERATIONAL_MODES, RoundingMode

CSR_FFLAGS = 0x001
CSR_FRM = 0x002
CSR_FCSR = 0x003
CSR_MSTATUS = 0x300
CSR_MTVEC = 0x305
CSR_MSCRATCH = 0x340
CSR_MEPC = 0x341
CSR_MCAUSE = 0x342
CSR_MTVAL = 0x343
CSR_CYCLE = 0xC00
CSR_INSTRET = 0xC02
CSR_CYCLEH = 0xC80
CSR_INSTRETH = 0xC82
CSR_MHARTID = 0xF14

MASK32 = 0xFFFFFFFF

#: frm value -> RoundingMode member.  The reserved encodings (6, and 7:
#: DYN is an instruction rm, never a valid frm) are absent, so reading
#: them raises GuestIllegal.  Enum construction per read showed up in
#: simulation profiles.
_RM_BY_VALUE = {int(mode): mode for mode in OPERATIONAL_MODES}


class IllegalCsr(ReproError):
    """Access to an unimplemented CSR (an illegal-instruction trap)."""


class CsrFile:
    """The CSRs RISCY exposes to user code, plus the cycle counters and
    the machine trap state the simulator latches when a trap is taken.

    The counter CSRs are read-only views of attributes the simulator
    updates (``cycle_source``/``instret_source`` callables).
    """

    def __init__(self):
        self.fflags = 0
        self.frm = int(RoundingMode.RNE)
        self.cycle_source = lambda: 0
        self.instret_source = lambda: 0
        # Machine trap state.  The simulator writes these on a trap;
        # guest code may read them (and write them, e.g. to clear).
        self.mstatus = 0
        self.mtvec = 0
        self.mscratch = 0
        self.mepc = 0
        self.mcause = 0
        self.mtval = 0

    # ------------------------------------------------------------------
    @property
    def fcsr(self) -> int:
        return (self.frm << 5) | self.fflags

    def accrue(self, flags: int) -> None:
        """OR exception flags raised by an FP operation into fflags."""
        self.fflags |= flags & FFLAGS_MASK

    @property
    def rounding_mode(self) -> RoundingMode:
        """The dynamic rounding mode (raises on reserved frm values)."""
        mode = _RM_BY_VALUE.get(self.frm)
        if mode is None:
            raise GuestIllegal(f"{self.frm} is not a valid RoundingMode")
        return mode

    # ------------------------------------------------------------------
    def set_trap(self, cause: int, epc: int, tval: int) -> None:
        """Latch trap state exactly as machine mode would."""
        self.mcause = cause & MASK32
        self.mepc = epc & MASK32
        self.mtval = tval & MASK32

    # ------------------------------------------------------------------
    _TRAP_RW = {
        CSR_MSTATUS: "mstatus",
        CSR_MTVEC: "mtvec",
        CSR_MSCRATCH: "mscratch",
        CSR_MEPC: "mepc",
        CSR_MCAUSE: "mcause",
        CSR_MTVAL: "mtval",
    }

    def read(self, csr: int) -> int:
        if csr == CSR_FFLAGS:
            return self.fflags
        if csr == CSR_FRM:
            return self.frm
        if csr == CSR_FCSR:
            return self.fcsr
        if csr == CSR_CYCLE:
            return self.cycle_source() & MASK32
        if csr == CSR_CYCLEH:
            return (self.cycle_source() >> 32) & MASK32
        if csr == CSR_INSTRET:
            return self.instret_source() & MASK32
        if csr == CSR_INSTRETH:
            return (self.instret_source() >> 32) & MASK32
        if csr == CSR_MHARTID:
            return 0
        if csr in self._TRAP_RW:
            return getattr(self, self._TRAP_RW[csr])
        raise IllegalCsr(f"read of unimplemented CSR {csr:#x}")

    def write(self, csr: int, value: int) -> None:
        if csr == CSR_FFLAGS:
            self.fflags = value & FFLAGS_MASK
        elif csr == CSR_FRM:
            self.frm = value & 0b111
        elif csr == CSR_FCSR:
            self.fflags = value & FFLAGS_MASK
            self.frm = (value >> 5) & 0b111
        elif csr in self._TRAP_RW:
            setattr(self, self._TRAP_RW[csr], value & MASK32)
        elif csr in (CSR_CYCLE, CSR_CYCLEH, CSR_INSTRET, CSR_INSTRETH,
                     CSR_MHARTID):
            raise IllegalCsr(f"write to read-only CSR {csr:#x}")
        else:
            raise IllegalCsr(f"write to unimplemented CSR {csr:#x}")
