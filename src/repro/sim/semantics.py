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

The FP rows that round (add, sub, mul, the fused ops, fmulex, fmacex,
fcvt between FP formats and vfdotpex) bind :mod:`repro.fp.batch`'s
scalar face: under RNE it rounds through the batch codec's tables in
binary64; every other mode, non-finite operands and the cases the codec
cannot prove exact call the softfloat core, which the face replaces bit
for bit.  Every engine and serve get this through ``op(F)``.

Packed-SIMD rows are lane maps of their scalar rows (:func:`_packed`):
``vfadd`` is ``fadd`` applied lane by lane with the flags ORed, in both
``op`` and ``batch``, and the scalar row is looked up when the packed
row is bound.  Only cast-and-pack (a lane pair from two scalars) and
``vfdotpex`` (the whole sum rounded once) are written out.

Each row also has a *class*, what timing, Fig. 4, energy and the
profile charge it as: its shape for ``load``/``store``/``branch``/
``jump``/``csr``; else ``alu``, ``mul``, ``div``, ``arith``, ``fma``,
``fdiv``, ``fsqrt``, ``conv``, ``expand`` (the rows that ``expands``)
or ``misc``.  :func:`spec_info` answers "what is this instruction".

``batch`` is the vector form lockstep uses when lanes hold different
values.  For ``alu`` and ``branch`` rows it is ``op`` over uint32
arrays or scalars, returning uint32 results or a boolean mask.  For ``fp`` rows it is a factory ``batch(F)`` that returns None
when ``F`` has no vectorized path, else ``fn(*uint32 arrays) -> (bits,
flags, fallback)``, taking ``rm=`` and ``keys=`` (one stochastic-rounding
key per lane) when the row ``rounds``; lanes set in ``fallback`` (None:
no lane) take the scalar compute.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial
from operator import attrgetter
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

from ..fp import arith, batch as fpbatch, compare, registry, simd
from ..fp.convert import fcvt_from_int, fcvt_to_int
from ..fp.flags import GuestIllegal
from ..fp.formats import FORMATS_BY_SUFFIX, vector_lanes
from ..fp.registry import NumberFormat
from ..fp.rounding import RoundingMode
from ..isa.compressed import compressed_base_spec
from ..isa.instructions import Instr, InstrSpec, spec_by_mnemonic
from .traps import EbreakTrap, EcallTrap

MASK32 = 0xFFFFFFFF
_U32 = np.uint32
_I32 = np.int32
_I64 = np.int64
_U64 = np.uint64
_DYN_RM = int(RoundingMode.DYN)
_RM_BY_VALUE = {int(mode): mode for mode in RoundingMode}


#: The class a row's shape implies when the row names none.
_SHAPE_CLASS = {"alu": "alu", "upper": "alu", "sys": "alu", "fp": "misc"}


class Row:
    """One kind's semantics (see the module docstring for the fields).

    ``cls`` is the kind's class; it defaults from the shape, and rows
    that ``expands`` are class ``expand``.
    """

    __slots__ = ("kind", "shape", "cls", "op", "batch", "rounds", "flags",
                 "acc", "expands", "scalar_src", "size", "signed", "skip_x0")

    def __init__(self, kind: str, shape: str, op=None, batch=None, *,
                 cls=None, rounds=False, flags=False, acc=False,
                 expands=False, scalar_src=False, size=None, signed=False,
                 skip_x0=False):
        self.kind = kind
        self.shape = shape
        self.cls = ("expand" if expands
                    else cls or _SHAPE_CLASS.get(shape, shape))
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


class SpecInfo(NamedTuple):
    """What one instruction is, for everything that charges it."""

    spec: InstrSpec  #: the spec, or a bare ``c.*`` spec's expansion
    row: Row  #: its semantics row: shape, class (``row.cls``), ...
    category: str  #: its bucket in the paper's Fig. 4 instruction mix
    size: int  #: bytes a load or store moves (0: no data access)


def resolve_mnemonic(mnemonic: str) -> InstrSpec:
    """The spec a trace mnemonic names (``c.*``: the expanded spec)."""
    if mnemonic.startswith("c."):
        return compressed_base_spec(mnemonic)
    return spec_by_mnemonic(mnemonic)


#: Classes whose Fig. 4 category is their operating format's bucket;
#: every other class is its own category.
_FORMAT_BUCKETED = frozenset({"arith", "fma", "fdiv", "fsqrt", "misc"})
#: Fig. 4 FP buckets by storage width (binary16alt has its own).
_WIDTH_BUCKETS = {8: "fp8", 16: "fp16"}


@lru_cache(maxsize=None)
def spec_info(spec: InstrSpec) -> SpecInfo:
    """The class, Fig. 4 category and access size of ``spec``, memoised.

    Compressed instructions answer like their expansions: the simulator
    decodes RVC parcels to alias specs that keep the expanded spec's
    metadata under the ``c.*`` mnemonic, and a bare ``c.*`` spec
    without that metadata resolves through :func:`resolve_mnemonic`.
    """
    if not spec.kind and spec.mnemonic.startswith("c."):
        spec = resolve_mnemonic(spec.mnemonic)
    row = SEMANTICS[spec.kind]
    category = row.cls
    if category in _FORMAT_BUCKETED:
        fmt = registry.by_suffix(spec.fp_fmt)
        category = ("fp16alt" if fmt.name == "binary16alt"
                    else _WIDTH_BUCKETS.get(fmt.width, "fp32"))
        if spec.vec and category != "fp32":
            category = "v" + category
    size = access_size(spec, 32) if row.shape in ("load", "store") else 0
    return SpecInfo(spec, row, category, size)


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
    fn, fields, masks, scale, dest_mask = _xreg_plan(instr.spec)
    return fn, [get(instr) for get in fields], masks, scale, dest_mask


@lru_cache(maxsize=None)
def _xreg_plan(spec: InstrSpec) -> tuple:
    F = formats(spec, 32)
    sources, (_file, dest_width) = fp_operands(spec, F)
    masks = [width_mask(width) for _f, _field, width in sources]
    repl = repl_factor(spec, F)
    if repl is not None:
        masks[-1] = F.src.bits_mask  # lane 0, then broadcast
    return (SEMANTICS[spec.kind].op(F),
            [attrgetter(field) for _f, field, _w in sources], tuple(masks),
            repl or 1, width_mask(dest_width))


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


for _cls, _rows in [
    ("alu", [
        ("add", operator.add, operator.add),
        ("sub", operator.sub, operator.sub),
        ("xor", operator.xor, operator.xor),
        ("or", operator.or_, operator.or_),
        ("and", operator.and_, operator.and_),
        ("sltu", operator.lt, lambda a, b: (a < b).astype(_U32)),
        ("sll", _sll, lambda a, b: a << (b & _U32(31))),
        ("srl", _srl, lambda a, b: a >> (b & _U32(31))),
        ("sra", _sra,
         lambda a, b: (_s32(a) >> (b & _U32(31)).astype(_I32)).view(_U32)),
        ("slt", _slt, lambda a, b: (_s32(a) < _s32(b)).astype(_U32)),
    ]),
    ("mul", [
        ("mul", operator.mul, operator.mul),
        ("mulh", lambda a, b: (_signed(a) * _signed(b)) >> 32, _mulh_batch),
        ("mulhsu", lambda a, b: (_signed(a) * b) >> 32, _mulhsu_batch),
        ("mulhu", lambda a, b: (a * b) >> 32, _mulhu_batch),
    ]),
    ("div", [  # the iterative divider
        ("div", _div, None),
        ("divu", lambda a, b: MASK32 if b == 0 else a // b, None),
        ("rem", _rem, None),
        ("remu", lambda a, b: a if b == 0 else a % b, None),
    ]),
]:
    for _kind, _op, _batch in _rows:
        _add(Row(_kind, "alu", _op, _batch, cls=_cls))

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


def _vectorized(make):
    """Batch factory for kinds whose formats all have numpy paths
    (binary32 and every format of 16 bits or less; :mod:`repro.fp.batch`
    hands whole batches back under modes a format cannot batch)."""
    def factory(F: Formats):
        if not (fpbatch.batchable(F.src) and fpbatch.batchable(F.dst)):
            return None
        return make(F)
    return factory


def _cmp_batch(name: str):
    return _vectorized(lambda F: lambda a, b: (
        *fpbatch.cmp(F.fmt, name, a, b), None))


def _fmv_x_f(F: Formats):
    fmt = F.fmt
    if fmt.width >= 32:
        return lambda v: v
    high = MASK32 & ~fmt.bits_mask  # fmv.x.<fmt> sign-extends into XLEN
    return lambda v: v | high if v & fmt.sign_mask else v


def _no_lanes(F: Formats) -> Optional[str]:
    """Why ``F`` has no packed form at its FLEN (None: it has one)."""
    lanes = vector_lanes(F.fmt, F.flen)
    if lanes is None:
        return f"{F.fmt.name} has no vector form at FLEN={F.flen}"
    if vector_lanes(F.src, F.flen) != lanes:
        return f"{F.src.name} lanes do not match {F.fmt.name} lanes"
    return None


def _illegal(message: str):
    """An op that raises :class:`GuestIllegal` when called, not when
    bound: engines bind a whole block before any of it runs."""
    def op(*_operands):
        raise GuestIllegal(message)
    return op


def _packed(kind: str, scalar: str, *, unary=False, acc=False, mask=False,
            xlen=False) -> None:
    """Declare ``kind`` as the lane map of the scalar row ``scalar``.

    ``op`` and ``batch`` apply the scalar row's compute lane by lane,
    lane 0 in the low bits, with flags ORed.  ``unary`` kinds take
    ``(a, rm)``; ``acc`` kinds take ``(acc, a, b, rm)`` and call the
    scalar ``fn(a, b, acc, rm)`` per lane; ``mask`` kinds set bit *i* of
    the result from lane *i*; ``xlen`` kinds convert to or from integers
    as wide as a lane.  The scalar row is looked up when the packed row
    is bound, so re-binding it re-binds this one too.
    """
    base = SEMANTICS[scalar]
    rounds, flagged = base.rounds, base.flags

    def op(F: Formats):
        missing = _no_lanes(F)
        if missing:
            return _illegal(missing)
        fmt = F.fmt
        fn, m = SEMANTICS[scalar].op(F), fmt.bits_mask
        if xlen:
            fn = partial(fn, xlen=fmt.width)
        shifts = range(0, F.flen, fmt.width)
        if unary:
            def run(a, rm):
                out = flags = 0
                for s in shifts:
                    bits, f = fn((a >> s) & m, rm)
                    out |= bits << s
                    flags |= f
                return out, flags
        elif acc:
            def run(c, a, b, rm):
                out = flags = 0
                for s in shifts:
                    bits, f = fn((a >> s) & m, (b >> s) & m, (c >> s) & m, rm)
                    out |= bits << s
                    flags |= f
                return out, flags
        elif rounds:
            def run(a, b, rm):
                out = flags = 0
                for s in shifts:
                    bits, f = fn((a >> s) & m, (b >> s) & m, rm)
                    out |= bits << s
                    flags |= f
                return out, flags
        elif flagged:
            places = range(len(shifts)) if mask else shifts

            def run(a, b):
                out = flags = 0
                for s, place in zip(shifts, places):
                    bits, f = fn((a >> s) & m, (b >> s) & m)
                    out |= bits << place
                    flags |= f
                return out, flags
        else:
            def run(a, b):
                out = 0
                for s in shifts:
                    out |= fn((a >> s) & m, (b >> s) & m) << s
                return out
        return run

    def batch(F: Formats):
        make = SEMANTICS[scalar].batch
        fn = None if make is None or _no_lanes(F) else make(F)
        if fn is None:
            return None
        m = _U32(F.fmt.bits_mask)
        shifts = [_U32(s) for s in range(0, F.flen, F.fmt.width)]
        places = [_U32(i) for i in range(len(shifts))] if mask else shifts
        count = len(shifts)

        def run(*regs, **mode):
            # Every lane of every element in one call, lane by lane: the
            # batch forms cost mostly per call, not per element.
            if acc:
                regs = (*regs[1:], regs[0])  # the scalar fn(a, b, acc)
            n = regs[0].shape[0]
            if mode.get("keys") is not None:
                mode["keys"] = np.tile(mode["keys"], count)
            bits, fl, fb = fn(*[np.concatenate([(r >> s) & m for s in shifts])
                                for r in regs], **mode)
            out = np.zeros(n, dtype=_U32)
            for lane, place in enumerate(places):
                out |= bits[lane * n:(lane + 1) * n] << place
            flags = np.bitwise_or.reduce(fl.reshape(count, n), axis=0)
            return out, flags, (None if fb is None
                                else fb.reshape(count, n).any(axis=0))
        return run

    _add(Row(kind, "fp", op, batch, cls=base.cls, rounds=rounds,
             flags=flagged, acc=acc))


for _kind, _scalar, _batch in [
    ("add", fpbatch.scalar_add, fpbatch.add),
    ("sub", partial(fpbatch.scalar_add, sub=True),
     partial(fpbatch.add, sub=True)),
    ("mul", fpbatch.scalar_mul, fpbatch.mul),
]:
    _fp("f" + _kind, lambda F, op=_scalar: op(F.fmt),
        _vectorized(lambda F, op=_batch: partial(op, F.fmt)), cls="arith")
    _packed("vf" + _kind, "f" + _kind)
_fp("fdiv", lambda F: partial(arith.fdiv, F.fmt), cls="fdiv")
_packed("vfdiv", "fdiv")

_fp("fsqrt", lambda F: partial(arith.fsqrt, F.fmt), cls="fsqrt")
_packed("vfsqrt", "fsqrt", unary=True)

for _kind, _neg_prod, _neg_add in [("fmadd", False, False),
                                   ("fmsub", False, True),
                                   ("fnmsub", True, False),
                                   ("fnmadd", True, True)]:
    _fp(_kind,
        lambda F, np_=_neg_prod, na=_neg_add: fpbatch.scalar_fma(
            F.fmt, negate_product=np_, negate_addend=na),
        _vectorized(lambda F, np_=_neg_prod, na=_neg_add: partial(
            fpbatch.fma, F.fmt, negate_product=np_, negate_addend=na)),
        cls="fma")
_packed("vfmac", "fmadd", acc=True)

for _kind, _scalar in [("min", compare.fmin), ("max", compare.fmax)]:
    _minmax = partial(fpbatch.minmax, pick_max=_kind == "max")
    _fp("f" + _kind, lambda F, op=_scalar: partial(op, F.fmt),
        _vectorized(lambda F, op=_minmax: lambda a, b: (*op(F.fmt, a, b),
                                                        None)),
        rounds=False)
    _packed("vf" + _kind, "f" + _kind)

for _kind, _scalar in [("fsgnj", compare.fsgnj), ("fsgnjn", compare.fsgnjn),
                       ("fsgnjx", compare.fsgnjx)]:
    _fp(_kind, lambda F, op=_scalar: partial(op, F.fmt), rounds=False,
        flags=False)
    _packed("v" + _kind, _kind)

for _kind, _scalar in [("eq", compare.feq), ("lt", compare.flt),
                       ("le", compare.fle)]:
    _fp("f" + _kind, lambda F, op=_scalar: partial(op, F.fmt),
        _cmp_batch(_kind), rounds=False)
    _packed("vf" + _kind, "f" + _kind, mask=True)

_fp("fclass", lambda F: partial(compare.fclass, F.fmt), rounds=False,
    flags=False)
# Conversions, raw moves and cast-and-pack.
_conv = partial(_fp, cls="conv")
_conv("fmv_x_f", _fmv_x_f, rounds=False, flags=False)
_conv("fmv_f_x", lambda F: lambda v: v & F.fmt.bits_mask, rounds=False,
      flags=False)

_conv("fcvt_f2f", lambda F: fpbatch.scalar_cvt(F.src, F.fmt),
      _vectorized(lambda F: partial(fpbatch.cvt, F.src, F.fmt)))
_packed("vfcvt_f2f", "fcvt_f2f", unary=True)
for _kind, _signed_int in [("w", True), ("wu", False)]:
    _conv(f"fcvt_{_kind}_f", lambda F, s=_signed_int: partial(
        fcvt_to_int, F.fmt, signed=s))
    _conv(f"fcvt_f_{_kind}", lambda F, s=_signed_int: partial(
        fcvt_from_int, F.fmt, signed=s))
_packed("vfcvt_x_f", "fcvt_w_f", unary=True, xlen=True)
_packed("vfcvt_f_x", "fcvt_f_w", unary=True, xlen=True)

for _pair, _kind in enumerate(("vfcpka", "vfcpkb")):
    _conv(_kind, lambda F, pair=_pair: lambda acc, a, b, rm: simd.vfcpk(
        F.fmt, F.src, F.flen, acc, a, b, pair, rm), acc=True,
        scalar_src=True)

_fp("fmulex", lambda F: fpbatch.scalar_mul(F.dst, src=F.src),
    _vectorized(lambda F: lambda a, b, **mode: fpbatch.mul(
        F.dst, a, b, src=F.src, **mode)),
    expands=True)


def _fmacex(F: Formats):
    fma = fpbatch.scalar_fma(F.dst, src=F.src)
    return lambda acc, a, b, rm: fma(a, b, acc, rm)


_fp("fmacex", _fmacex,
    _vectorized(lambda F: lambda acc, a, b, **mode: fpbatch.fma(
        F.dst, a, b, acc, src=F.src, **mode)),
    acc=True, expands=True)


def _dotp_batch(F: Formats):
    width = F.src.width
    if width >= F.flen:
        return None
    mask = _U32(F.src.bits_mask)
    shifts = [_U32(s) for s in range(0, F.flen, width)]

    def run(acc, a, b, **mode):
        return fpbatch.dotp(F.src, F.dst, acc,
                            [(a >> s) & mask for s in shifts],
                            [(b >> s) & mask for s in shifts], **mode)
    return run


_fp("vfdotpex", lambda F: fpbatch.scalar_dotp(F.src, F.dst, F.flen),
    _vectorized(_dotp_batch), acc=True, expands=True)
# Shared-exponent block dot product (Xmx8): rs1/rs2 each hold one
# packed block; the source format's codec rounds the exact sum once.
_fp("vfdotpmx", lambda F: F.src.block_dotp, acc=True, expands=True)
