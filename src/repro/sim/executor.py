"""Reference instruction semantics for RV32IM + F + the smallFloat extensions.

Each instruction kind's semantics is one row of
:data:`repro.sim.semantics.SEMANTICS`; this module derives the reference
handler of every kind from its row, one binder per operand shape.
Handlers go through :meth:`Machine.read_x`/:meth:`Machine.read_f` and
their ``write`` counterparts, so the split FP register file and FLEN=64
work.  A handler receives the machine plus the decoded instruction and
returns the next PC, or ``None`` to fall through sequentially.  All FP
arithmetic goes through the bit-exact :mod:`repro.fp` core; accrued
exception flags land in ``fcsr``.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, Optional, Tuple

from ..fp.flags import GuestIllegal
from ..isa.instructions import Instr, InstrSpec
from .csr import IllegalCsr
from .machine import MASK32, Machine
from .memory import MemoryAccessError
from .semantics import (SEMANTICS, access_size, formats, fp_operands,
                        repl_factor, static_rm)
from .traps import (CAUSE_ILLEGAL_INSTRUCTION, ArchitecturalTrap, EbreakTrap,
                    EcallTrap)

#: Exceptions guest execution can raise: every engine's fence.  Anything
#: else -- a plain ValueError included -- is a host bug and propagates
#: instead of turning into a guest trap.
GUEST_FAULTS = (EcallTrap, EbreakTrap, ArchitecturalTrap, IllegalCsr,
                MemoryAccessError, GuestIllegal)


Handler = Callable[[Machine, Instr], Optional[int]]

#: (id(spec), flen) -> (spec, handler); the spec is pinned in the entry
#: so a reused id can never match.
_BOUND: Dict[Tuple[int, int], Tuple[InstrSpec, Handler]] = {}


def reference_handler(spec: InstrSpec, flen: int) -> Handler:
    """The reference handler of ``spec`` on a machine with ``flen``."""
    key = (id(spec), flen)
    entry = _BOUND.get(key)
    if entry is None or entry[0] is not spec:
        row = SEMANTICS.get(spec.kind)
        handler = (_no_semantics if row is None
                   else _BINDERS[row.shape](spec, row, flen))
        entry = _BOUND[key] = (spec, handler)
    return entry[1]


def execute(machine: Machine, instr: Instr) -> Optional[int]:
    """Execute one decoded instruction; returns the next PC or None."""
    spec = instr.spec
    entry = _BOUND.get((id(spec), machine.flen))
    if entry is None or entry[0] is not spec:
        return reference_handler(spec, machine.flen)(machine, instr)
    return entry[1](machine, instr)


def _no_semantics(m: Machine, i: Instr) -> None:
    raise ArchitecturalTrap(
        CAUSE_ILLEGAL_INSTRUCTION, tval=i.word,
        detail=f"no semantics for {i.mnemonic} (kind {i.kind!r})")


# ----------------------------------------------------------------------
# One binder per operand shape
# ----------------------------------------------------------------------
def _alu(spec, row, flen):
    op = row.op
    if "rs2" in spec.syntax:
        def run(m, i):
            m.write_x(i.rd, op(m.read_x(i.rs1), m.read_x(i.rs2)))
    else:
        def run(m, i):
            m.write_x(i.rd, op(m.read_x(i.rs1), i.imm & MASK32))
    return run


def _upper(spec, row, flen):
    op = row.op
    return lambda m, i: m.write_x(i.rd, op(m.pc, i.imm))


def _load(spec, row, flen):
    size = access_size(spec, flen)
    sign = 1 << (8 * size - 1) if row.signed else 0
    if spec.syntax[0] == "frd":
        def run(m, i):
            value = m.memory.read((m.read_x(i.rs1) + i.imm) & MASK32, size)
            m.write_f(i.rd, value, width=8 * size)
    else:
        def run(m, i):
            value = m.memory.read((m.read_x(i.rs1) + i.imm) & MASK32, size)
            m.write_x(i.rd, value - (sign << 1) if value & sign else value)
    return run


def _store(spec, row, flen):
    size = access_size(spec, flen)
    if spec.syntax[0] == "frs2":
        def run(m, i):
            m.memory.write((m.read_x(i.rs1) + i.imm) & MASK32,
                           m.read_f(i.rs2, width=8 * size), size)
    else:
        def run(m, i):
            m.memory.write((m.read_x(i.rs1) + i.imm) & MASK32,
                           m.read_x(i.rs2), size)
    return run


def _branch(spec, row, flen):
    op = row.op

    def run(m, i):
        if op(m.read_x(i.rs1), m.read_x(i.rs2)):
            return (m.pc + i.imm) & MASK32
        return None
    return run


def _jump(spec, row, flen):
    # jal/jalr link past the *actual* parcel size, which matters for
    # expanded compressed instructions.
    op = row.op
    indirect = "rs1" in spec.syntax

    def run(m, i):
        target = op(m.pc, m.read_x(i.rs1) if indirect else 0, i.imm)
        m.write_x(i.rd, m.pc + getattr(i, "size", 4))
        return target
    return run


def _csr(spec, row, flen):
    op, skip_x0 = row.op, row.skip_x0
    immediate = spec.syntax[-1] == "zimm"

    def run(m, i):
        value = i.rs1 if immediate else m.read_x(i.rs1)
        old = m.csr.read(i.imm)
        if not (skip_x0 and i.rs1 == 0):
            m.csr.write(i.imm, op(old, value))
        m.write_x(i.rd, old)
    return run


def _sys(spec, row, flen):
    op = row.op
    return lambda m, i: op()


def _fp(spec, row, flen):
    F = formats(spec, flen)
    fn = row.op(F)
    sources, (dest_file, dest_width) = fp_operands(spec, F)
    reads = tuple((attrgetter(field), file == "f", width)
                  for file, field, width in sources)
    repl = repl_factor(spec, F)
    lane_mask = F.src.bits_mask
    rounds, flagged = row.rounds, row.flags
    to_f = dest_file == "f"

    def run(m, i):
        args = [m.read_f(get(i), width) if is_f else m.read_x(get(i))
                for get, is_f, width in reads]
        if repl is not None:
            args[-1] = (args[-1] & lane_mask) * repl
        if rounds:
            rm = static_rm(i)
            args.append(m.csr.rounding_mode if rm is None else rm)
        out = fn(*args)
        if flagged:
            out, flags = out
            m.csr.accrue(flags)
        if to_f:
            m.write_f(i.rd, out, dest_width)
        else:
            m.write_x(i.rd, out)
    return run


_BINDERS = {"alu": _alu, "upper": _upper, "load": _load, "store": _store,
            "branch": _branch, "jump": _jump, "csr": _csr, "sys": _sys,
            "fp": _fp}
