"""Instruction semantics for RV32IM + F + the smallFloat extensions.

Handlers are registered per semantic ``kind`` (shared across formats:
``fadd`` serves fadd.s/.h/.ah/.b) and receive the machine plus the
decoded instruction.  A handler returns the next PC, or ``None`` to fall
through sequentially.  All FP arithmetic goes through the bit-exact
:mod:`repro.fp` core; accrued exception flags land in ``fcsr``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..fp import arith, compare, registry, simd
from ..fp.convert import fcvt_f2f, fcvt_from_int, fcvt_to_int
from ..fp.flags import GuestIllegal
from ..fp.formats import FORMATS_BY_SUFFIX
from ..fp.registry import NumberFormat
from ..fp.rounding import RoundingMode
from ..isa.instructions import Instr
from .csr import IllegalCsr
from .machine import MASK32, Machine
from .memory import MemoryAccessError
from .traps import CAUSE_ILLEGAL_INSTRUCTION, ArchitecturalTrap


class EcallTrap(Exception):
    """Raised by ``ecall``; the simulator treats it as program exit."""


class EbreakTrap(Exception):
    """Raised by ``ebreak`` (breakpoint)."""


#: Exceptions guest execution can raise: every engine's fence.  Anything
#: else -- a plain ValueError included -- is a host bug and propagates
#: instead of turning into a guest trap.
GUEST_FAULTS = (EcallTrap, EbreakTrap, ArchitecturalTrap, IllegalCsr,
                MemoryAccessError, GuestIllegal)


Handler = Callable[[Machine, Instr], Optional[int]]
_HANDLERS: Dict[str, Handler] = {}

_DYN_RM = int(RoundingMode.DYN)
_RM_BY_VALUE = {int(mode): mode for mode in RoundingMode}


def handler(kind: str) -> Callable[[Handler], Handler]:
    def wrap(fn: Handler) -> Handler:
        _HANDLERS[kind] = fn
        return fn
    return wrap


def handler_for(kind: str) -> Optional[Handler]:
    """The registered handler for ``kind``, or ``None``.

    The block engine predecodes handler bindings with this; an
    unimplemented kind ends the block so the reference loop raises the
    architectural trap with its exact diagnostics.
    """
    return _HANDLERS.get(kind)


def execute(machine: Machine, instr: Instr) -> Optional[int]:
    """Execute one decoded instruction; returns the next PC or None."""
    try:
        fn = _HANDLERS[instr.kind]
    except KeyError:
        raise ArchitecturalTrap(
            CAUSE_ILLEGAL_INSTRUCTION, tval=instr.word,
            detail=f"no semantics for {instr.mnemonic} "
                   f"(kind {instr.kind!r})",
        ) from None
    return fn(machine, instr)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _signed(value: int) -> int:
    return value - (1 << 32) if value & 0x80000000 else value


def _fmt(instr: Instr) -> NumberFormat:
    return registry.by_suffix(instr.spec.fp_fmt)


def _src_fmt(instr: Instr) -> NumberFormat:
    return registry.by_suffix(instr.spec.src_fmt)


def _rm(machine: Machine, instr: Instr) -> RoundingMode:
    """Resolve the operating rounding mode.

    Alt-format instructions (rm field pinned to the format-select state)
    and vector instructions (no rm field at all) round via ``fcsr.frm``;
    otherwise ``rm == DYN`` defers to the CSR.
    """
    spec = instr.spec
    if spec.rm_fixed is not None or spec.vec or instr.rm is None:
        return machine.csr.rounding_mode
    if instr.rm == _DYN_RM:
        return machine.csr.rounding_mode
    mode = _RM_BY_VALUE.get(instr.rm)
    if mode is None:
        raise GuestIllegal(f"{instr.rm} is not a valid RoundingMode")
    return mode


def _vec_b_operand(machine: Machine, instr: Instr, fmt: NumberFormat) -> int:
    """Second vector operand; ``.r`` variants replicate lane 0 of rs2."""
    value = machine.read_f(instr.rs2)
    if instr.spec.repl:
        return simd.replicate(value & fmt.bits_mask, fmt, machine.flen)
    return value


# ----------------------------------------------------------------------
# RV32I: ALU
# ----------------------------------------------------------------------
@handler("lui")
def _lui(m, i):
    m.write_x(i.rd, i.imm << 12)


@handler("auipc")
def _auipc(m, i):
    m.write_x(i.rd, (m.pc + (i.imm << 12)) & MASK32)


@handler("addi")
def _addi(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) + i.imm)


@handler("slti")
def _slti(m, i):
    m.write_x(i.rd, int(m.read_x_signed(i.rs1) < i.imm))


@handler("sltiu")
def _sltiu(m, i):
    m.write_x(i.rd, int(m.read_x(i.rs1) < (i.imm & MASK32)))


@handler("xori")
def _xori(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) ^ (i.imm & MASK32))


@handler("ori")
def _ori(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) | (i.imm & MASK32))


@handler("andi")
def _andi(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) & (i.imm & MASK32))


@handler("slli")
def _slli(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) << (i.imm & 31))


@handler("srli")
def _srli(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) >> (i.imm & 31))


@handler("srai")
def _srai(m, i):
    m.write_x(i.rd, m.read_x_signed(i.rs1) >> (i.imm & 31))


@handler("add")
def _add(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) + m.read_x(i.rs2))


@handler("sub")
def _sub(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) - m.read_x(i.rs2))


@handler("sll")
def _sll(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) << (m.read_x(i.rs2) & 31))


@handler("slt")
def _slt(m, i):
    m.write_x(i.rd, int(m.read_x_signed(i.rs1) < m.read_x_signed(i.rs2)))


@handler("sltu")
def _sltu(m, i):
    m.write_x(i.rd, int(m.read_x(i.rs1) < m.read_x(i.rs2)))


@handler("xor")
def _xor(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) ^ m.read_x(i.rs2))


@handler("srl")
def _srl(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) >> (m.read_x(i.rs2) & 31))


@handler("sra")
def _sra(m, i):
    m.write_x(i.rd, m.read_x_signed(i.rs1) >> (m.read_x(i.rs2) & 31))


@handler("or")
def _or(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) | m.read_x(i.rs2))


@handler("and")
def _and(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) & m.read_x(i.rs2))


# ----------------------------------------------------------------------
# RV32I: control flow (jal/jalr link past the *actual* parcel size,
# which matters for expanded compressed instructions)
# ----------------------------------------------------------------------
@handler("jal")
def _jal(m, i):
    m.write_x(i.rd, m.pc + getattr(i, "size", 4))
    return (m.pc + i.imm) & MASK32


@handler("jalr")
def _jalr(m, i):
    target = (m.read_x(i.rs1) + i.imm) & ~1 & MASK32
    m.write_x(i.rd, m.pc + getattr(i, "size", 4))
    return target


def _branch(m, i, taken: bool) -> Optional[int]:
    if taken:
        return (m.pc + i.imm) & MASK32
    return None


@handler("beq")
def _beq(m, i):
    return _branch(m, i, m.read_x(i.rs1) == m.read_x(i.rs2))


@handler("bne")
def _bne(m, i):
    return _branch(m, i, m.read_x(i.rs1) != m.read_x(i.rs2))


@handler("blt")
def _blt(m, i):
    return _branch(m, i, m.read_x_signed(i.rs1) < m.read_x_signed(i.rs2))


@handler("bge")
def _bge(m, i):
    return _branch(m, i, m.read_x_signed(i.rs1) >= m.read_x_signed(i.rs2))


@handler("bltu")
def _bltu(m, i):
    return _branch(m, i, m.read_x(i.rs1) < m.read_x(i.rs2))


@handler("bgeu")
def _bgeu(m, i):
    return _branch(m, i, m.read_x(i.rs1) >= m.read_x(i.rs2))


# ----------------------------------------------------------------------
# RV32I: memory
# ----------------------------------------------------------------------
@handler("lb")
def _lb(m, i):
    value = m.memory.read_u8((m.read_x(i.rs1) + i.imm) & MASK32)
    m.write_x(i.rd, value - 0x100 if value & 0x80 else value)


@handler("lh")
def _lh(m, i):
    value = m.memory.read_u16((m.read_x(i.rs1) + i.imm) & MASK32)
    m.write_x(i.rd, value - 0x10000 if value & 0x8000 else value)


@handler("lw")
def _lw(m, i):
    m.write_x(i.rd, m.memory.read_u32((m.read_x(i.rs1) + i.imm) & MASK32))


@handler("lbu")
def _lbu(m, i):
    m.write_x(i.rd, m.memory.read_u8((m.read_x(i.rs1) + i.imm) & MASK32))


@handler("lhu")
def _lhu(m, i):
    m.write_x(i.rd, m.memory.read_u16((m.read_x(i.rs1) + i.imm) & MASK32))


@handler("sb")
def _sb(m, i):
    m.memory.write_u8((m.read_x(i.rs1) + i.imm) & MASK32, m.read_x(i.rs2))


@handler("sh")
def _sh(m, i):
    m.memory.write_u16((m.read_x(i.rs1) + i.imm) & MASK32, m.read_x(i.rs2))


@handler("sw")
def _sw(m, i):
    m.memory.write_u32((m.read_x(i.rs1) + i.imm) & MASK32, m.read_x(i.rs2))


# ----------------------------------------------------------------------
# M extension
# ----------------------------------------------------------------------
@handler("mul")
def _mul(m, i):
    m.write_x(i.rd, m.read_x(i.rs1) * m.read_x(i.rs2))


@handler("mulh")
def _mulh(m, i):
    m.write_x(i.rd, (m.read_x_signed(i.rs1) * m.read_x_signed(i.rs2)) >> 32)


@handler("mulhsu")
def _mulhsu(m, i):
    m.write_x(i.rd, (m.read_x_signed(i.rs1) * m.read_x(i.rs2)) >> 32)


@handler("mulhu")
def _mulhu(m, i):
    m.write_x(i.rd, (m.read_x(i.rs1) * m.read_x(i.rs2)) >> 32)


@handler("div")
def _div(m, i):
    a, b = m.read_x_signed(i.rs1), m.read_x_signed(i.rs2)
    if b == 0:
        m.write_x(i.rd, MASK32)  # -1
    elif a == -(1 << 31) and b == -1:
        m.write_x(i.rd, a)
    else:
        m.write_x(i.rd, int(a / b))  # truncating division


@handler("divu")
def _divu(m, i):
    a, b = m.read_x(i.rs1), m.read_x(i.rs2)
    m.write_x(i.rd, MASK32 if b == 0 else a // b)


@handler("rem")
def _rem(m, i):
    a, b = m.read_x_signed(i.rs1), m.read_x_signed(i.rs2)
    if b == 0:
        m.write_x(i.rd, a)
    elif a == -(1 << 31) and b == -1:
        m.write_x(i.rd, 0)
    else:
        m.write_x(i.rd, a - int(a / b) * b)


@handler("remu")
def _remu(m, i):
    a, b = m.read_x(i.rs1), m.read_x(i.rs2)
    m.write_x(i.rd, a if b == 0 else a % b)


# ----------------------------------------------------------------------
# System
# ----------------------------------------------------------------------
@handler("fence")
def _fence(m, i):
    return None


@handler("ecall")
def _ecall(m, i):
    raise EcallTrap()


@handler("ebreak")
def _ebreak(m, i):
    raise EbreakTrap()


def _csr_op(m, i, update):
    old = m.csr.read(i.imm)
    new = update(old)
    if new is not None:
        m.csr.write(i.imm, new)
    m.write_x(i.rd, old)


@handler("csrrw")
def _csrrw(m, i):
    _csr_op(m, i, lambda old: m.read_x(i.rs1))


@handler("csrrs")
def _csrrs(m, i):
    rs1 = m.read_x(i.rs1)
    _csr_op(m, i, lambda old: (old | rs1) if i.rs1 != 0 else None)


@handler("csrrc")
def _csrrc(m, i):
    rs1 = m.read_x(i.rs1)
    _csr_op(m, i, lambda old: (old & ~rs1) if i.rs1 != 0 else None)


@handler("csrrwi")
def _csrrwi(m, i):
    _csr_op(m, i, lambda old: i.rs1)


@handler("csrrsi")
def _csrrsi(m, i):
    _csr_op(m, i, lambda old: (old | i.rs1) if i.rs1 else None)


@handler("csrrci")
def _csrrci(m, i):
    _csr_op(m, i, lambda old: (old & ~i.rs1) if i.rs1 else None)


# ----------------------------------------------------------------------
# FP loads/stores
# ----------------------------------------------------------------------
def _WIDTH_BYTES(suffix: str) -> int:
    """Access width in bytes of an FP load/store operating on ``suffix``."""
    return registry.by_suffix(suffix).width // 8


@handler("flw")
def _flw(m, i):
    size = _WIDTH_BYTES(i.spec.fp_fmt)
    addr = (m.read_x(i.rs1) + i.imm) & MASK32
    m.write_f(i.rd, m.memory.read(addr, size), width=8 * size)


@handler("fsw")
def _fsw(m, i):
    size = _WIDTH_BYTES(i.spec.fp_fmt)
    addr = (m.read_x(i.rs1) + i.imm) & MASK32
    m.memory.write(addr, m.read_f(i.rs2, width=8 * size), size)


# ----------------------------------------------------------------------
# FP scalar arithmetic
# ----------------------------------------------------------------------
def _fp_binop(op):
    def run(m, i):
        fmt = _fmt(i)
        a = m.read_f(i.rs1, fmt.width)
        b = m.read_f(i.rs2, fmt.width)
        bits, flags = op(fmt, a, b, _rm(m, i))
        m.csr.accrue(flags)
        m.write_f(i.rd, bits, fmt.width)
    return run


_HANDLERS["fadd"] = _fp_binop(arith.fadd)
_HANDLERS["fsub"] = _fp_binop(arith.fsub)
_HANDLERS["fmul"] = _fp_binop(arith.fmul)
_HANDLERS["fdiv"] = _fp_binop(arith.fdiv)


@handler("fsqrt")
def _fsqrt(m, i):
    fmt = _fmt(i)
    bits, flags = arith.fsqrt(fmt, m.read_f(i.rs1, fmt.width), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, fmt.width)


def _fp_fma(negate_product: bool, negate_addend: bool):
    def run(m, i):
        fmt = _fmt(i)
        a = m.read_f(i.rs1, fmt.width)
        b = m.read_f(i.rs2, fmt.width)
        c = m.read_f(i.rs3, fmt.width)
        bits, flags = arith.ffma(
            fmt, a, b, c, _rm(m, i),
            negate_product=negate_product, negate_addend=negate_addend,
        )
        m.csr.accrue(flags)
        m.write_f(i.rd, bits, fmt.width)
    return run


_HANDLERS["fmadd"] = _fp_fma(False, False)
_HANDLERS["fmsub"] = _fp_fma(False, True)
_HANDLERS["fnmsub"] = _fp_fma(True, False)
_HANDLERS["fnmadd"] = _fp_fma(True, True)


def _fp_minmax(op):
    def run(m, i):
        fmt = _fmt(i)
        bits, flags = op(fmt, m.read_f(i.rs1, fmt.width),
                         m.read_f(i.rs2, fmt.width))
        m.csr.accrue(flags)
        m.write_f(i.rd, bits, fmt.width)
    return run


_HANDLERS["fmin"] = _fp_minmax(compare.fmin)
_HANDLERS["fmax"] = _fp_minmax(compare.fmax)


def _fp_sign(op):
    def run(m, i):
        fmt = _fmt(i)
        m.write_f(i.rd, op(fmt, m.read_f(i.rs1, fmt.width),
                           m.read_f(i.rs2, fmt.width)), fmt.width)
    return run


_HANDLERS["fsgnj"] = _fp_sign(compare.fsgnj)
_HANDLERS["fsgnjn"] = _fp_sign(compare.fsgnjn)
_HANDLERS["fsgnjx"] = _fp_sign(compare.fsgnjx)


def _fp_cmp(op):
    def run(m, i):
        fmt = _fmt(i)
        result, flags = op(fmt, m.read_f(i.rs1, fmt.width),
                           m.read_f(i.rs2, fmt.width))
        m.csr.accrue(flags)
        m.write_x(i.rd, result)
    return run


_HANDLERS["feq"] = _fp_cmp(compare.feq)
_HANDLERS["flt"] = _fp_cmp(compare.flt)
_HANDLERS["fle"] = _fp_cmp(compare.fle)


@handler("fclass")
def _fclass(m, i):
    fmt = _fmt(i)
    m.write_x(i.rd, compare.fclass(fmt, m.read_f(i.rs1, fmt.width)))


@handler("fmv_x_f")
def _fmv_x_f(m, i):
    fmt = _fmt(i)
    value = m.read_f(i.rs1, fmt.width)
    if fmt.width < 32:  # sign-extend per fmv.x.h convention
        sign = value & fmt.sign_mask
        if sign:
            value |= MASK32 & ~fmt.bits_mask
    m.write_x(i.rd, value)


@handler("fmv_f_x")
def _fmv_f_x(m, i):
    fmt = _fmt(i)
    m.write_f(i.rd, m.read_x(i.rs1) & fmt.bits_mask, fmt.width)


# ----------------------------------------------------------------------
# FP conversions
# ----------------------------------------------------------------------
@handler("fcvt_f2f")
def _fcvt_f2f(m, i):
    src, dst = _src_fmt(i), _fmt(i)
    bits, flags = fcvt_f2f(src, dst, m.read_f(i.rs1, src.width), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, dst.width)


def _fcvt_to_x(signed: bool):
    def run(m, i):
        fmt = _fmt(i)
        bits, flags = fcvt_to_int(fmt, m.read_f(i.rs1, fmt.width), _rm(m, i),
                                  signed=signed)
        m.csr.accrue(flags)
        m.write_x(i.rd, bits)
    return run


_HANDLERS["fcvt_w_f"] = _fcvt_to_x(True)
_HANDLERS["fcvt_wu_f"] = _fcvt_to_x(False)


def _fcvt_from_x(signed: bool):
    def run(m, i):
        fmt = _fmt(i)
        bits, flags = fcvt_from_int(fmt, m.read_x(i.rs1), _rm(m, i),
                                    signed=signed)
        m.csr.accrue(flags)
        m.write_f(i.rd, bits, fmt.width)
    return run


_HANDLERS["fcvt_f_w"] = _fcvt_from_x(True)
_HANDLERS["fcvt_f_wu"] = _fcvt_from_x(False)


# ----------------------------------------------------------------------
# Xfaux scalar expanding operations
# ----------------------------------------------------------------------
@handler("fmulex")
def _fmulex(m, i):
    src = _src_fmt(i)
    dst = FORMATS_BY_SUFFIX["s"]
    bits, flags = arith.fmul_widen(src, dst, m.read_f(i.rs1, src.width),
                                   m.read_f(i.rs2, src.width), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, dst.width)


@handler("fmacex")
def _fmacex(m, i):
    src = _src_fmt(i)
    dst = FORMATS_BY_SUFFIX["s"]
    acc = m.read_f(i.rd, dst.width)
    bits, flags = arith.fma_mixed(src, dst, m.read_f(i.rs1, src.width),
                                  m.read_f(i.rs2, src.width), acc, _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, dst.width)


# ----------------------------------------------------------------------
# Xfvec packed-SIMD operations
# ----------------------------------------------------------------------
def _vec_binop(op, with_rm: bool = True):
    def run(m, i):
        fmt = _fmt(i)
        a = m.read_f(i.rs1)
        b = _vec_b_operand(m, i, fmt)
        if with_rm:
            bits, flags = op(fmt, m.flen, a, b, _rm(m, i))
        else:
            bits, flags = op(fmt, m.flen, a, b)
        m.csr.accrue(flags)
        m.write_f(i.rd, bits)
    return run


_HANDLERS["vfadd"] = _vec_binop(simd.vfadd)
_HANDLERS["vfsub"] = _vec_binop(simd.vfsub)
_HANDLERS["vfmul"] = _vec_binop(simd.vfmul)
_HANDLERS["vfdiv"] = _vec_binop(simd.vfdiv)
_HANDLERS["vfmin"] = _vec_binop(simd.vfmin, with_rm=False)
_HANDLERS["vfmax"] = _vec_binop(simd.vfmax, with_rm=False)


@handler("vfsqrt")
def _vfsqrt(m, i):
    fmt = _fmt(i)
    bits, flags = simd.vfsqrt(fmt, m.flen, m.read_f(i.rs1), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits)


@handler("vfmac")
def _vfmac(m, i):
    fmt = _fmt(i)
    acc = m.read_f(i.rd)
    a = m.read_f(i.rs1)
    b = _vec_b_operand(m, i, fmt)
    bits, flags = simd.vfmac(fmt, m.flen, acc, a, b, _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits)


def _vec_sign(op):
    def run(m, i):
        fmt = _fmt(i)
        from ..fp.simd import join_lanes, split_lanes

        a = m.read_f(i.rs1)
        b = _vec_b_operand(m, i, fmt)
        out = [
            op(fmt, la, lb)
            for la, lb in zip(split_lanes(a, fmt, m.flen),
                              split_lanes(b, fmt, m.flen))
        ]
        m.write_f(i.rd, join_lanes(out, fmt, m.flen))
    return run


_HANDLERS["vfsgnj"] = _vec_sign(compare.fsgnj)
_HANDLERS["vfsgnjn"] = _vec_sign(compare.fsgnjn)
_HANDLERS["vfsgnjx"] = _vec_sign(compare.fsgnjx)


def _vec_cmp(op):
    def run(m, i):
        fmt = _fmt(i)
        mask, flags = op(fmt, m.flen, m.read_f(i.rs1),
                         _vec_b_operand(m, i, fmt))
        m.csr.accrue(flags)
        m.write_x(i.rd, mask)
    return run


_HANDLERS["vfeq"] = _vec_cmp(simd.vfeq)
_HANDLERS["vflt"] = _vec_cmp(simd.vflt)
_HANDLERS["vfle"] = _vec_cmp(simd.vfle)


def _vfcpk(pair_index: int):
    def run(m, i):
        dst = _fmt(i)
        src = _src_fmt(i)
        bits, flags = simd.vfcpk(
            dst, src, m.flen, m.read_f(i.rd),
            m.read_f(i.rs1, src.width), m.read_f(i.rs2, src.width),
            pair_index, _rm(m, i),
        )
        m.csr.accrue(flags)
        m.write_f(i.rd, bits)
    return run


_HANDLERS["vfcpka"] = _vfcpk(0)
_HANDLERS["vfcpkb"] = _vfcpk(1)


@handler("vfcvt_x_f")
def _vfcvt_x_f(m, i):
    fmt = _fmt(i)
    bits, flags = simd.vfcvt_to_int(fmt, m.flen, m.read_f(i.rs1), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits)


@handler("vfcvt_f_x")
def _vfcvt_f_x(m, i):
    fmt = _fmt(i)
    bits, flags = simd.vfcvt_from_int(fmt, m.flen, m.read_f(i.rs1), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits)


@handler("vfcvt_f2f")
def _vfcvt_f2f(m, i):
    src, dst = _src_fmt(i), _fmt(i)
    bits, flags = simd.vfcvt_f2f(src, dst, m.flen, m.read_f(i.rs1), _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits)


@handler("vfdotpex")
def _vfdotpex(m, i):
    src = _src_fmt(i)
    dst = FORMATS_BY_SUFFIX["s"]
    acc = m.read_f(i.rd, dst.width)
    a = m.read_f(i.rs1)
    b = _vec_b_operand(m, i, src)
    bits, flags = simd.vfdotpex(src, dst, m.flen, acc, a, b, _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, dst.width)


@handler("vfdotpmx")
def _vfdotpmx(m, i):
    """Shared-exponent block dot product: rs1/rs2 each hold one packed
    block; the exact lane-product sum accumulates into a binary32 rd
    with a single rounding (dispatched to the source format's codec)."""
    src = _src_fmt(i)
    dst = FORMATS_BY_SUFFIX["s"]
    acc = m.read_f(i.rd, dst.width)
    a = m.read_f(i.rs1)
    b = m.read_f(i.rs2)
    bits, flags = src.block_dotp(acc, a, b, _rm(m, i))
    m.csr.accrue(flags)
    m.write_f(i.rd, bits, dst.width)
