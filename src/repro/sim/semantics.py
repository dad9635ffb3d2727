"""Instruction semantics, declared once per kind.

Every registered :class:`~repro.isa.instructions.InstrSpec` names a
semantic ``kind``, shared across formats (``fadd`` serves fadd.s/.h/.ah/.b
and every guest format).  :data:`SEMANTICS` gives each kind one
:class:`Row`: the *shape* that says how operands reach it, and its pure
compute on Python ints.  Which registers are read, at which widths, the
destination, the formats and the rounding mode all come from the spec
(``syntax``, ``fp_fmt``, ``src_fmt``, ``has_rm``/``rm_fixed``, ``vec``,
``repl``).  The reference interpreter (:func:`repro.sim.executor.execute`),
the block engine (:mod:`repro.sim.blocks`) and lockstep
(:mod:`repro.sim.lockstep`) each keep one binder per shape and derive
every kind from these rows; adding an instruction is one ``InstrSpec``
plus, for a new kind, one row.

Shapes and the signature of ``op``:

``alu``     ``op(a, b)``: ``a`` is rs1, ``b`` rs2 or the immediate masked
            to 32 bits; engines mask the result to 32 bits.
``upper``   ``op(pc, imm)``: the value lui/auipc write.
``load``    ``size``/``signed``: memory into rd or frd (FP loads move
            the format's width).
``store``   ``size``: rs2 or frs2 into memory.
``branch``  ``op(a, b)``: True when taken.
``jump``    ``op(pc, a, imm)``: the target; rd links past the parcel.
``csr``     ``op(old, v)``: the new CSR value; ``skip_x0`` kinds do not
            write when their rs1 field is zero.
``sys``     ``op()``: fence does nothing, ecall and ebreak raise.
``fp``      ``op(F)`` returns ``fn(*operands[, rm])`` for the
            instruction's :class:`Formats` ``F``.  Operands follow the
            syntax, after the old destination value for ``acc`` kinds;
            ``rm`` is passed when the row ``rounds``; ``fn`` returns
            ``(result, flags)`` when the row has ``flags``, else the
            result.

``batch`` is the vector form lockstep uses when lanes hold different
values.  For ``alu`` and ``branch`` rows it is ``op`` over uint32
arrays or scalars, returning uint32 results or a boolean mask.  For ``fp`` rows it is a factory ``batch(F)`` that returns None
when ``F`` has no vectorized path, else ``fn(*uint32 arrays) -> (bits,
flags, fallback)``; it models round-to-nearest-even only, and lanes set
in ``fallback`` (None: no lane) take the scalar compute.
"""

from __future__ import annotations

import operator
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from ..fp import arith, batch as fpbatch, compare, registry, simd
from ..fp.convert import fcvt_f2f, fcvt_from_int, fcvt_to_int
from ..fp.flags import GuestIllegal
from ..fp.formats import FORMATS_BY_SUFFIX
from ..fp.registry import NumberFormat
from ..fp.rounding import RoundingMode
from ..isa.instructions import Instr, InstrSpec
from .traps import EbreakTrap, EcallTrap

MASK32 = 0xFFFFFFFF
_U32 = np.uint32
_I32 = np.int32
_I64 = np.int64
_U64 = np.uint64
_DYN_RM = int(RoundingMode.DYN)
_RM_BY_VALUE = {int(mode): mode for mode in RoundingMode}


class Row:
    """One kind's semantics (see the module docstring for the fields)."""

    __slots__ = ("kind", "shape", "op", "batch", "rounds", "flags", "acc",
                 "expands", "scalar_src", "size", "signed", "skip_x0")

    def __init__(self, kind: str, shape: str, op=None, batch=None, *,
                 rounds=False, flags=False, acc=False, expands=False,
                 scalar_src=False, size=None, signed=False, skip_x0=False):
        self.kind = kind
        self.shape = shape
        self.op = op
        self.batch = batch
        #: ``op`` takes a trailing rounding mode.
        self.rounds = rounds
        #: ``op`` returns ``(result, flags)``.
        self.flags = flags
        #: The destination's old value is the first operand.
        self.acc = acc
        #: The result is a binary32 scalar (the Xfaux expanding ops).
        self.expands = expands
        #: A vector kind whose FP sources are ``src_fmt`` scalars.
        self.scalar_src = scalar_src
        #: Access size in bytes (None: the FP format's width).
        self.size = size
        self.signed = signed
        self.skip_x0 = skip_x0


SEMANTICS: Dict[str, Row] = {}


def _add(row: Row) -> None:
    SEMANTICS[row.kind] = row


class Formats(NamedTuple):
    """The formats one FP instruction works in, and FLEN."""

    fmt: NumberFormat  #: operating format (``fp_fmt``)
    src: NumberFormat  #: source format (``src_fmt``, else ``fmt``)
    dst: NumberFormat  #: result format (binary32 for expanding kinds)
    flen: int


def formats(spec: InstrSpec, flen: int) -> Formats:
    fmt = registry.by_suffix(spec.fp_fmt)
    src = registry.by_suffix(spec.src_fmt) if spec.src_fmt else fmt
    dst = FORMATS_BY_SUFFIX["s"] if SEMANTICS[spec.kind].expands else fmt
    return Formats(fmt, src, dst, flen)


def access_size(spec: InstrSpec, flen: int) -> int:
    """Bytes a load or store moves (FP forms move their format)."""
    return SEMANTICS[spec.kind].size or formats(spec, flen).fmt.width // 8


def fp_operands(spec: InstrSpec, F: Formats):
    """How an ``fp`` kind reaches its operands.

    Returns ``(sources, dest)``: ``sources`` holds one ``(file, field,
    width)`` per operand in ``op`` order, ``dest`` is ``(file, width)``.
    ``file`` is ``"x"`` or ``"f"``; ``width`` None means the whole
    register (vector operands).
    """
    row = SEMANTICS[spec.kind]
    scalar_w = F.dst.width if (row.expands or not spec.vec) else None
    src_w = None if spec.vec and not row.scalar_src else F.src.width
    sources = [("f", "rd", scalar_w)] if row.acc else []
    for name in spec.syntax[1:]:
        if name.startswith("f"):
            sources.append(("f", name[1:], src_w))
        else:
            sources.append(("x", name, None))
    if spec.syntax[0] == "frd":
        return tuple(sources), ("f", scalar_w)
    return tuple(sources), ("x", None)


def repl_factor(spec: InstrSpec, F: Formats) -> Optional[int]:
    """Multiplier that broadcasts lane 0 into every lane for ``.r``
    kinds (applied to the last operand after masking it to one lane)."""
    if not spec.repl:
        return None
    width = F.src.width
    return sum(1 << shift for shift in range(0, max(F.flen, width), width))


def width_mask(width: Optional[int]) -> int:
    """Bit mask of a ``width``-bit operand in a 32-bit register (None:
    the whole register)."""
    return MASK32 if width is None or width >= 32 else (1 << width) - 1


def bind_in_xregs(instr: Instr):
    """An ``fp`` instruction bound for engines that keep FP operands in
    ``xregs`` (the merged register file at FLEN=32).

    Returns ``(fn, regs, masks, scale, dest_mask)``: operand ``k`` is
    ``xregs[regs[k]] & masks[k]``, the last one times ``scale`` (the
    ``.r`` broadcast of lane 0), and ``fn``'s result is masked with
    ``dest_mask``.
    """
    spec = instr.spec
    entry = _XREG_PLANS.get(id(spec))
    if entry is None or entry[0] is not spec:
        F = formats(spec, 32)
        sources, (_file, dest_width) = fp_operands(spec, F)
        masks = [width_mask(width) for _f, _field, width in sources]
        repl = repl_factor(spec, F)
        if repl is not None:
            masks[-1] = F.src.bits_mask  # lane 0, then broadcast
        entry = _XREG_PLANS[id(spec)] = (
            spec, SEMANTICS[spec.kind].op(F),
            [attrgetter(field) for _f, field, _w in sources], tuple(masks),
            repl or 1, width_mask(dest_width))
    _spec, fn, fields, masks, scale, dest_mask = entry
    return fn, [get(instr) for get in fields], masks, scale, dest_mask


#: id(spec) -> (spec, plan) for :func:`bind_in_xregs`; the spec is
#: pinned in the entry so a reused id can never match.
_XREG_PLANS: Dict[int, tuple] = {}


def static_rm(instr: Instr) -> Optional[RoundingMode]:
    """The rounding mode ``instr`` encodes, or None when it rounds per
    ``fcsr.frm``: alt-format instructions (rm pinned to the
    format-select state), vector instructions (no rm field) and DYN.
    A reserved encoding raises :class:`GuestIllegal`.
    """
    spec = instr.spec
    if (spec.rm_fixed is not None or spec.vec or instr.rm is None
            or instr.rm == _DYN_RM):
        return None
    mode = _RM_BY_VALUE.get(instr.rm)
    if mode is None:
        raise GuestIllegal(f"{instr.rm} is not a valid RoundingMode")
    return mode


def _signed(value: int) -> int:
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _s32(v):
    return np.asarray(v).view(_I32)


# ----------------------------------------------------------------------
# RV32I / M
# ----------------------------------------------------------------------
def _div(a: int, b: int) -> int:
    a, b = _signed(a), _signed(b)
    if b == 0:
        return MASK32  # -1
    if a == -(1 << 31) and b == -1:
        return a
    return int(a / b)  # truncating division


def _rem(a: int, b: int) -> int:
    a, b = _signed(a), _signed(b)
    if b == 0:
        return a
    if a == -(1 << 31) and b == -1:
        return 0
    return a - int(a / b) * b


def _mulh_batch(a, b):
    return (((_s32(a).astype(_I64) * _s32(b).astype(_I64)) >> 32)
            & MASK32).astype(_U32)


def _mulhsu_batch(a, b):
    return (((_s32(a).astype(_I64) * np.asarray(b).astype(_I64)) >> 32)
            & MASK32).astype(_U32)


def _mulhu_batch(a, b):
    return ((np.asarray(a).astype(_U64) * np.asarray(b).astype(_U64))
            >> _U64(32)).astype(_U32)


def _sll(a, b):
    return a << (b & 31)


def _srl(a, b):
    return a >> (b & 31)


def _sra(a, b):
    return _signed(a) >> (b & 31)


def _slt(a, b):
    return _signed(a) < _signed(b)


for _kind, _op, _batch in [
    ("add", operator.add, operator.add),
    ("sub", operator.sub, operator.sub),
    ("xor", operator.xor, operator.xor),
    ("or", operator.or_, operator.or_),
    ("and", operator.and_, operator.and_),
    ("mul", operator.mul, operator.mul),
    ("sltu", operator.lt, lambda a, b: (a < b).astype(_U32)),
    ("sll", _sll, lambda a, b: a << (b & _U32(31))),
    ("srl", _srl, lambda a, b: a >> (b & _U32(31))),
    ("sra", _sra,
     lambda a, b: (_s32(a) >> (b & _U32(31)).astype(_I32)).view(_U32)),
    ("slt", _slt, lambda a, b: (_s32(a) < _s32(b)).astype(_U32)),
    ("mulh", lambda a, b: (_signed(a) * _signed(b)) >> 32, _mulh_batch),
    ("mulhsu", lambda a, b: (_signed(a) * b) >> 32, _mulhsu_batch),
    ("mulhu", lambda a, b: (a * b) >> 32, _mulhu_batch),
    ("div", _div, None),
    ("divu", lambda a, b: MASK32 if b == 0 else a // b, None),
    ("rem", _rem, None),
    ("remu", lambda a, b: a if b == 0 else a % b, None),
]:
    _add(Row(_kind, "alu", _op, _batch))

# Immediate forms compute like their register forms on ``imm & MASK32``.
for _kind, _base in [("addi", "add"), ("xori", "xor"), ("ori", "or"),
                     ("andi", "and"), ("slti", "slt"), ("sltiu", "sltu"),
                     ("srai", "sra")]:
    _add(Row(_kind, "alu", SEMANTICS[_base].op, SEMANTICS[_base].batch))
# Shift amounts of slli/srli are already below 32.
_add(Row("slli", "alu", operator.lshift, operator.lshift))
_add(Row("srli", "alu", operator.rshift, operator.rshift))

_add(Row("lui", "upper", lambda pc, imm: imm << 12))
_add(Row("auipc", "upper", lambda pc, imm: pc + (imm << 12)))

for _kind, _size, _signed_load in [("lb", 1, True), ("lh", 2, True),
                                   ("lw", 4, False), ("lbu", 1, False),
                                   ("lhu", 2, False), ("flw", None, False)]:
    _add(Row(_kind, "load", size=_size, signed=_signed_load))
for _kind, _size in [("sb", 1), ("sh", 2), ("sw", 4), ("fsw", None)]:
    _add(Row(_kind, "store", size=_size))

for _kind, _op, _batch in [
    ("beq", operator.eq, operator.eq),
    ("bne", operator.ne, operator.ne),
    ("blt", _slt, lambda a, b: _s32(a) < _s32(b)),
    ("bge", lambda a, b: _signed(a) >= _signed(b),
     lambda a, b: _s32(a) >= _s32(b)),
    ("bltu", operator.lt, operator.lt),
    ("bgeu", operator.ge, operator.ge),
]:
    _add(Row(_kind, "branch", _op, _batch))

_add(Row("jal", "jump", lambda pc, a, imm: (pc + imm) & MASK32))
_add(Row("jalr", "jump", lambda pc, a, imm: (a + imm) & ~1 & MASK32))

for _kind, _op, _skip in [("csrrw", lambda old, v: v, False),
                          ("csrrs", operator.or_, True),
                          ("csrrc", lambda old, v: old & ~v, True)]:
    _add(Row(_kind, "csr", _op, skip_x0=_skip))
    _add(Row(_kind + "i", "csr", _op, skip_x0=_skip))


def _raise(exc_type) -> Callable[[], None]:
    def op() -> None:
        raise exc_type()
    return op


_add(Row("fence", "sys", lambda: None))
_add(Row("ecall", "sys", _raise(EcallTrap)))
_add(Row("ebreak", "sys", _raise(EbreakTrap)))


# ----------------------------------------------------------------------
# Floating point
# ----------------------------------------------------------------------
def _fp(kind: str, op, batch=None, *, rounds=True, flags=True,
        **kw) -> None:
    _add(Row(kind, "fp", op, batch, rounds=rounds, flags=flags, **kw))


def _rne(make):
    """Batch factory for kinds whose formats all have numpy RNE paths."""
    def factory(F: Formats):
        if not (fpbatch.batchable(F.src) and fpbatch.batchable(F.dst)):
            return None
        return make(F)
    return factory


def _lanes(lane_op):
    """Batch factory for a packed-SIMD kind from its per-lane batch op
    ``lane_op(fmt, *lane arrays) -> (bits, flags, fallback)``."""
    def make(F: Formats):
        fmt = F.fmt
        if fmt.width >= F.flen:
            return None  # no vector form: the scalar compute raises
        mask = _U32(fmt.bits_mask)
        shifts = [_U32(s) for s in range(0, F.flen, fmt.width)]

        def run(*regs):
            n = regs[0].shape[0]
            out = np.zeros(n, dtype=_U32)
            flags = np.zeros(n, dtype=np.uint8)
            fallback = np.zeros(n, dtype=bool)
            for s in shifts:
                bits, fl, fb = lane_op(fmt, *[(r >> s) & mask for r in regs])
                out |= bits << s
                flags |= fl
                fallback |= fb
            return out, flags, fallback
        return run
    return _rne(make)


def _cmp_batch(name: str):
    return _rne(lambda F: lambda a, b: (*fpbatch.cmp(F.fmt, name, a, b),
                                        None))


def _fmv_x_f(F: Formats):
    fmt = F.fmt
    if fmt.width >= 32:
        return lambda v: v
    high = MASK32 & ~fmt.bits_mask  # fmv.x.<fmt> sign-extends into XLEN
    return lambda v: v | high if v & fmt.sign_mask else v


def _lanewise_unflagged(op):
    """Packed-SIMD form of a flag-free scalar op (sign injection)."""
    def make(F: Formats):
        def run(a: int, b: int) -> int:
            return simd.join_lanes(
                [op(F.fmt, x, y) for x, y in zip(
                    simd.split_lanes(a, F.fmt, F.flen),
                    simd.split_lanes(b, F.fmt, F.flen))],
                F.fmt, F.flen)
        return run
    return make


for _kind, _scalar, _vec, _lane_batch in [
    ("add", arith.fadd, simd.vfadd, fpbatch.add),
    ("sub", arith.fsub, simd.vfsub,
     lambda fmt, a, b: fpbatch.add(fmt, a, b, sub=True)),
    ("mul", arith.fmul, simd.vfmul, fpbatch.mul),
    ("div", arith.fdiv, simd.vfdiv, None),
]:
    _fp("f" + _kind, lambda F, op=_scalar: partial(op, F.fmt),
        _lane_batch and _rne(
            lambda F, op=_lane_batch: partial(op, F.fmt)))
    _fp("vf" + _kind, lambda F, op=_vec: partial(op, F.fmt, F.flen),
        _lane_batch and _lanes(_lane_batch))

_fp("fsqrt", lambda F: partial(arith.fsqrt, F.fmt))
_fp("vfsqrt", lambda F: partial(simd.vfsqrt, F.fmt, F.flen))

for _kind, _neg_prod, _neg_add in [("fmadd", False, False),
                                   ("fmsub", False, True),
                                   ("fnmsub", True, False),
                                   ("fnmadd", True, True)]:
    _fp(_kind,
        lambda F, np_=_neg_prod, na=_neg_add: lambda a, b, c, rm: arith.ffma(
            F.fmt, a, b, c, rm, negate_product=np_, negate_addend=na),
        _rne(lambda F, np_=_neg_prod, na=_neg_add: partial(
            fpbatch.fma, F.fmt, negate_product=np_, negate_addend=na)))

_fp("vfmac", lambda F: partial(simd.vfmac, F.fmt, F.flen),
    _lanes(lambda fmt, acc, a, b: fpbatch.fma(fmt, a, b, acc)), acc=True)

for _kind, _scalar, _vec in [("min", compare.fmin, simd.vfmin),
                             ("max", compare.fmax, simd.vfmax)]:
    _fp("f" + _kind, lambda F, op=_scalar: partial(op, F.fmt), rounds=False)
    _fp("vf" + _kind, lambda F, op=_vec: partial(op, F.fmt, F.flen),
        rounds=False)

for _kind, _scalar in [("fsgnj", compare.fsgnj), ("fsgnjn", compare.fsgnjn),
                       ("fsgnjx", compare.fsgnjx)]:
    _fp(_kind, lambda F, op=_scalar: partial(op, F.fmt), rounds=False,
        flags=False)
    _fp("v" + _kind, _lanewise_unflagged(_scalar), rounds=False, flags=False)

for _kind, _scalar, _vec in [("eq", compare.feq, simd.vfeq),
                             ("lt", compare.flt, simd.vflt),
                             ("le", compare.fle, simd.vfle)]:
    _fp("f" + _kind, lambda F, op=_scalar: partial(op, F.fmt),
        _cmp_batch(_kind), rounds=False)
    _fp("vf" + _kind, lambda F, op=_vec: partial(op, F.fmt, F.flen),
        rounds=False)

_fp("fclass", lambda F: partial(compare.fclass, F.fmt), rounds=False,
    flags=False)
_fp("fmv_x_f", _fmv_x_f, rounds=False, flags=False)
_fp("fmv_f_x", lambda F: lambda v: v & F.fmt.bits_mask, rounds=False,
    flags=False)

_fp("fcvt_f2f", lambda F: partial(fcvt_f2f, F.src, F.fmt),
    _rne(lambda F: partial(fpbatch.cvt, F.src, F.fmt)))
_fp("vfcvt_f2f", lambda F: partial(simd.vfcvt_f2f, F.src, F.fmt, F.flen))
for _kind, _signed_int in [("w", True), ("wu", False)]:
    _fp(f"fcvt_{_kind}_f", lambda F, s=_signed_int: lambda a, rm: fcvt_to_int(
        F.fmt, a, rm, signed=s))
    _fp(f"fcvt_f_{_kind}", lambda F, s=_signed_int: lambda a, rm: (
        fcvt_from_int(F.fmt, a, rm, signed=s)))
_fp("vfcvt_x_f", lambda F: partial(simd.vfcvt_to_int, F.fmt, F.flen))
_fp("vfcvt_f_x", lambda F: partial(simd.vfcvt_from_int, F.fmt, F.flen))

for _pair, _kind in enumerate(("vfcpka", "vfcpkb")):
    _fp(_kind, lambda F, pair=_pair: lambda acc, a, b, rm: simd.vfcpk(
        F.fmt, F.src, F.flen, acc, a, b, pair, rm), acc=True,
        scalar_src=True)

_fp("fmulex", lambda F: partial(arith.fmul_widen, F.src, F.dst),
    _rne(lambda F: lambda a, b: fpbatch.mul(F.dst, a, b, src=F.src)),
    expands=True)
_fp("fmacex", lambda F: lambda acc, a, b, rm: arith.fma_mixed(
    F.src, F.dst, a, b, acc, rm),
    _rne(lambda F: lambda acc, a, b: fpbatch.fma(F.dst, a, b, acc,
                                                  src=F.src)),
    acc=True, expands=True)


def _dotp_batch(F: Formats):
    width = F.src.width
    if width >= F.flen:
        return None
    mask = _U32(F.src.bits_mask)
    shifts = [_U32(s) for s in range(0, F.flen, width)]

    def run(acc, a, b):
        return fpbatch.dotp(F.src, F.dst, acc,
                            [(a >> s) & mask for s in shifts],
                            [(b >> s) & mask for s in shifts])
    return run


_fp("vfdotpex", lambda F: partial(simd.vfdotpex, F.src, F.dst, F.flen),
    _rne(_dotp_batch), acc=True, expands=True)
# Shared-exponent block dot product (Xmx8): rs1/rs2 each hold one
# packed block; the source format's codec rounds the exact sum once.
_fp("vfdotpmx", lambda F: F.src.block_dotp, acc=True, expands=True)
