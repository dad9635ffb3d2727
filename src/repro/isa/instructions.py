"""Instruction specifications and the encode/decode machinery.

Each instruction is described declaratively by an :class:`InstrSpec`;
the assembler, disassembler and simulator are all driven off the same
table, so an encoding mistake cannot hide in one of them.

This module registers the base RV32I, "M", "Zicsr" and system
instructions; :mod:`repro.isa.smallfloat` registers the standard "F"
extension together with the paper's Xf16 / Xf16alt / Xf8 / Xfvec / Xfaux
extensions (they share a generator, since the smallFloat scalar
extensions deliberately mirror "F" per format).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import encoding as enc

# Major opcodes (RISC-V unprivileged spec, table 24.1).
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_OP = 0b0110011
OP_MISC_MEM = 0b0001111
OP_SYSTEM = 0b1110011
OP_LOAD_FP = 0b0000111
OP_STORE_FP = 0b0100111
OP_FP = 0b1010011
OP_FMADD = 0b1000011
OP_FMSUB = 0b1000111
OP_FNMSUB = 0b1001011
OP_FNMADD = 0b1001111


@dataclass(frozen=True)
class InstrSpec:
    """Declarative description of one instruction encoding.

    Attributes:
        mnemonic: Assembly mnemonic, e.g. ``"vfadd.h"``.
        form: Encoding format: R, R4, I, S, B, U, J, SHIFT, SYS, CSR, CSRI.
        opcode: 7-bit major opcode.
        funct3 / funct7 / rs2_fixed / funct12: Fixed minor fields
            (``None`` when the field is a true operand).
        syntax: Operand kinds in assembly order.  Kinds: ``rd``, ``rs1``,
            ``rs2``, ``frd``, ``frs1``, ``frs2``, ``frs3``, ``imm``,
            ``uimm20``, ``shamt``, ``mem`` (``offset(rs1)``), ``fmem``,
            ``blabel``, ``jlabel``, ``csr``, ``rm?`` (optional rounding
            mode).
        kind: Semantic dispatch key for the executor (``"add"``,
            ``"fadd"``, ``"vfdotpex"``...), shared across formats.
        ext: ISA extension name (``I``, ``M``, ``F``, ``Xf16``...).
        fp_fmt: Operating FP format suffix (``s``/``h``/``ah``/``b``).
        src_fmt: Source format suffix for conversions / expanding ops.
        has_rm: funct3 carries a rounding mode operand.
        rm_fixed: Pinned rm value (the Xf16alt selection trick).
        vec: True for packed-SIMD (Xfvec) operations.
        repl: True for ``.r`` replicating-scalar vector variants.
        cf: Control-flow class, for CFG construction (``None`` for
            straight-line instructions): ``"branch"`` (conditional,
            PC-relative), ``"jump"`` (``jal``: unconditional,
            PC-relative, linking when rd != x0), ``"ijump"``
            (``jalr``: unconditional, indirect) or ``"halt"``
            (``ecall``/``ebreak``, which end a run in this model).
    """

    mnemonic: str
    form: str
    opcode: int
    funct3: Optional[int] = None
    funct7: Optional[int] = None
    rs2_fixed: Optional[int] = None
    funct12: Optional[int] = None
    syntax: Tuple[str, ...] = ()
    kind: str = ""
    ext: str = "I"
    fp_fmt: Optional[str] = None
    src_fmt: Optional[str] = None
    has_rm: bool = False
    rm_fixed: Optional[int] = None
    vec: bool = False
    repl: bool = False
    cf: Optional[str] = None

    def __hash__(self) -> int:
        # Equal specs share a mnemonic; per-spec tables hash every retire.
        return hash(self.mnemonic)

    @property
    def is_control_flow(self) -> bool:
        return self.cf is not None

    # ------------------------------------------------------------------
    # Match pattern for the decoder
    # ------------------------------------------------------------------
    def match_pattern(self) -> Tuple[int, int]:
        """``(mask, value)`` such that ``word & mask == value`` matches."""
        mask, value = 0x7F, self.opcode
        if self.funct3 is not None:
            mask |= 0x7 << 12
            value |= self.funct3 << 12
        if self.rm_fixed is not None:
            mask |= 0x7 << 12
            value |= self.rm_fixed << 12
        if self.funct7 is not None:
            if self.form == "R4":
                # Bits 31:27 are rs3; only the fmt field (26:25) is fixed.
                mask |= 0b11 << 25
                value |= (self.funct7 & 0b11) << 25
            else:
                mask |= 0x7F << 25
                value |= self.funct7 << 25
        if self.rs2_fixed is not None:
            mask |= 0x1F << 20
            value |= self.rs2_fixed << 20
        if self.funct12 is not None:
            mask |= 0xFFF << 20
            value |= self.funct12 << 20
        if self.form == "SHIFT":
            mask |= 0x7F << 25
            value |= (self.funct7 or 0) << 25
        return mask, value


@dataclass
class Instr:
    """A decoded instruction: its spec plus extracted operand fields."""

    spec: InstrSpec
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    rs3: int = 0
    imm: int = 0
    rm: Optional[int] = None
    word: int = 0

    @property
    def mnemonic(self) -> str:
        return self.spec.mnemonic

    @property
    def kind(self) -> str:
        return self.spec.kind

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Instr({self.mnemonic}, rd={self.rd}, rs1={self.rs1}, rs2={self.rs2}, imm={self.imm})"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_SPECS: Dict[str, InstrSpec] = {}
_BY_OPCODE: Dict[int, List[InstrSpec]] = {}


class UnknownInstruction(Exception):
    """Raised when a word does not decode to any registered instruction."""


def register(spec: InstrSpec) -> InstrSpec:
    """Add a spec to the global table (mnemonics must be unique)."""
    if spec.mnemonic in _SPECS:
        raise ValueError(f"duplicate mnemonic {spec.mnemonic!r}")
    _SPECS[spec.mnemonic] = spec
    _BY_OPCODE.setdefault(spec.opcode, []).append(spec)
    # Most-specific patterns must win: sort by mask popcount, descending.
    _BY_OPCODE[spec.opcode].sort(
        key=lambda s: bin(s.match_pattern()[0]).count("1"), reverse=True
    )
    return spec


def spec_by_mnemonic(mnemonic: str) -> InstrSpec:
    """Look up a spec by its assembly mnemonic."""
    try:
        return _SPECS[mnemonic]
    except KeyError:
        raise UnknownInstruction(f"unknown mnemonic {mnemonic!r}") from None


def all_specs() -> List[InstrSpec]:
    """Every registered instruction (for documentation and tests)."""
    return list(_SPECS.values())


def specs_by_extension(ext: str) -> List[InstrSpec]:
    """All instructions belonging to one ISA extension."""
    return [s for s in _SPECS.values() if s.ext == ext]


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def encode(spec: InstrSpec, **fields: int) -> int:
    """Encode an instruction word from named operand fields.

    Accepted fields: ``rd``, ``rs1``, ``rs2``, ``rs3``, ``imm``, ``rm``.
    Missing register fields default to 0; a missing ``rm`` on an
    rm-bearing instruction defaults to DYN (0b111).
    """
    rd = fields.get("rd", 0)
    rs1 = fields.get("rs1", 0)
    rs2 = fields.get("rs2", 0)
    rs3 = fields.get("rs3", 0)
    imm = fields.get("imm", 0)

    funct3 = spec.funct3
    if spec.rm_fixed is not None:
        funct3 = spec.rm_fixed
    elif spec.has_rm:
        funct3 = fields.get("rm", 0b111)
    if funct3 is None:
        funct3 = 0

    if spec.rs2_fixed is not None:
        rs2 = spec.rs2_fixed

    if spec.form == "R":
        return enc.encode_r(spec.opcode, rd, funct3, rs1, rs2, spec.funct7 or 0)
    if spec.form == "R4":
        # funct7 low 2 bits hold the fmt code; R4 places them at 26:25.
        return enc.encode_r4(spec.opcode, rd, funct3, rs1, rs2, rs3,
                             (spec.funct7 or 0) & 0b11)
    if spec.form == "I":
        return enc.encode_i(spec.opcode, rd, funct3, rs1, imm)
    if spec.form == "SHIFT":
        if not 0 <= imm <= 31:
            raise ValueError(f"shift amount {imm} out of range")
        return enc.encode_r(spec.opcode, rd, funct3, rs1, imm, spec.funct7 or 0)
    if spec.form == "S":
        return enc.encode_s(spec.opcode, funct3, rs1, rs2, imm)
    if spec.form == "B":
        return enc.encode_b(spec.opcode, funct3, rs1, rs2, imm)
    if spec.form == "U":
        return enc.encode_u(spec.opcode, rd, imm)
    if spec.form == "J":
        return enc.encode_j(spec.opcode, rd, imm)
    if spec.form == "SYS":
        return enc.encode_i(spec.opcode, 0, 0, 0, spec.funct12 or 0)
    if spec.form in ("CSR", "CSRI"):
        # csr number travels in the I-immediate; rs1 is a register or
        # a 5-bit zero-extended immediate.
        word = enc.encode_i(spec.opcode, rd, funct3, 0, 0)
        word |= (imm & 0xFFF) << 20
        word |= (rs1 & 0x1F) << 15
        return word
    raise ValueError(f"unknown instruction form {spec.form!r}")


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def decode(word: int) -> Instr:
    """Decode a 32-bit instruction word into an :class:`Instr`.

    Raises :class:`UnknownInstruction` for unrecognized words.
    """
    word &= enc.WORD_MASK
    for spec in _BY_OPCODE.get(enc.opcode_of(word), ()):
        mask, value = spec.match_pattern()
        if word & mask != value:
            continue
        return _extract(spec, word)
    raise UnknownInstruction(f"cannot decode {word:#010x}")


def _extract(spec: InstrSpec, word: int) -> Instr:
    instr = Instr(spec=spec, word=word)
    instr.rd = enc.rd_of(word)
    instr.rs1 = enc.rs1_of(word)
    instr.rs2 = enc.rs2_of(word)
    if spec.form == "R4":
        instr.rs3 = enc.rs3_of(word)
    if spec.has_rm or spec.rm_fixed is not None:
        instr.rm = enc.funct3_of(word)
    if spec.form in ("I",):
        instr.imm = enc.imm_i(word)
    elif spec.form == "SHIFT":
        instr.imm = enc.rs2_of(word)
    elif spec.form == "S":
        instr.imm = enc.imm_s(word)
    elif spec.form == "B":
        instr.imm = enc.imm_b(word)
    elif spec.form == "U":
        instr.imm = enc.imm_u(word)
    elif spec.form == "J":
        instr.imm = enc.imm_j(word)
    elif spec.form in ("CSR", "CSRI"):
        instr.imm = enc.bits(word, 31, 20)  # csr number, zero-extended
    return instr


# ----------------------------------------------------------------------
# RV32I base
# ----------------------------------------------------------------------
def _r(mn, f3, f7, kind, ext="I"):
    register(InstrSpec(mn, "R", OP_OP, funct3=f3, funct7=f7,
                       syntax=("rd", "rs1", "rs2"), kind=kind, ext=ext))


def _i(mn, f3, kind):
    register(InstrSpec(mn, "I", OP_IMM, funct3=f3,
                       syntax=("rd", "rs1", "imm"), kind=kind))


register(InstrSpec("lui", "U", OP_LUI, syntax=("rd", "uimm20"), kind="lui"))
register(InstrSpec("auipc", "U", OP_AUIPC, syntax=("rd", "uimm20"), kind="auipc"))
register(InstrSpec("jal", "J", OP_JAL, syntax=("rd", "jlabel"), kind="jal",
                   cf="jump"))
register(InstrSpec("jalr", "I", OP_JALR, funct3=0, syntax=("rd", "rs1", "imm"),
                   kind="jalr", cf="ijump"))

for _mn, _f3 in [("beq", 0), ("bne", 1), ("blt", 4), ("bge", 5),
                 ("bltu", 6), ("bgeu", 7)]:
    register(InstrSpec(_mn, "B", OP_BRANCH, funct3=_f3,
                       syntax=("rs1", "rs2", "blabel"), kind=_mn,
                       cf="branch"))

for _mn, _f3 in [("lb", 0), ("lh", 1), ("lw", 2), ("lbu", 4), ("lhu", 5)]:
    register(InstrSpec(_mn, "I", OP_LOAD, funct3=_f3, syntax=("rd", "mem"),
                       kind=_mn))

for _mn, _f3 in [("sb", 0), ("sh", 1), ("sw", 2)]:
    register(InstrSpec(_mn, "S", OP_STORE, funct3=_f3, syntax=("rs2", "mem"),
                       kind=_mn))

_i("addi", 0, "addi")
_i("slti", 2, "slti")
_i("sltiu", 3, "sltiu")
_i("xori", 4, "xori")
_i("ori", 6, "ori")
_i("andi", 7, "andi")
register(InstrSpec("slli", "SHIFT", OP_IMM, funct3=1, funct7=0b0000000,
                   syntax=("rd", "rs1", "shamt"), kind="slli"))
register(InstrSpec("srli", "SHIFT", OP_IMM, funct3=5, funct7=0b0000000,
                   syntax=("rd", "rs1", "shamt"), kind="srli"))
register(InstrSpec("srai", "SHIFT", OP_IMM, funct3=5, funct7=0b0100000,
                   syntax=("rd", "rs1", "shamt"), kind="srai"))

_r("add", 0, 0b0000000, "add")
_r("sub", 0, 0b0100000, "sub")
_r("sll", 1, 0b0000000, "sll")
_r("slt", 2, 0b0000000, "slt")
_r("sltu", 3, 0b0000000, "sltu")
_r("xor", 4, 0b0000000, "xor")
_r("srl", 5, 0b0000000, "srl")
_r("sra", 5, 0b0100000, "sra")
_r("or", 6, 0b0000000, "or")
_r("and", 7, 0b0000000, "and")

register(InstrSpec("fence", "I", OP_MISC_MEM, funct3=0, syntax=(), kind="fence"))
register(InstrSpec("ecall", "SYS", OP_SYSTEM, funct3=0, funct12=0, syntax=(),
                   kind="ecall", cf="halt"))
register(InstrSpec("ebreak", "SYS", OP_SYSTEM, funct3=0, funct12=1, syntax=(),
                   kind="ebreak", cf="halt"))

# ----------------------------------------------------------------------
# M extension
# ----------------------------------------------------------------------
for _mn, _f3 in [("mul", 0), ("mulh", 1), ("mulhsu", 2), ("mulhu", 3),
                 ("div", 4), ("divu", 5), ("rem", 6), ("remu", 7)]:
    _r(_mn, _f3, 0b0000001, _mn, ext="M")

# ----------------------------------------------------------------------
# Zicsr
# ----------------------------------------------------------------------
for _mn, _f3 in [("csrrw", 1), ("csrrs", 2), ("csrrc", 3)]:
    register(InstrSpec(_mn, "CSR", OP_SYSTEM, funct3=_f3,
                       syntax=("rd", "csr", "rs1"), kind=_mn, ext="Zicsr"))
for _mn, _f3 in [("csrrwi", 5), ("csrrsi", 6), ("csrrci", 7)]:
    register(InstrSpec(_mn, "CSRI", OP_SYSTEM, funct3=_f3,
                       syntax=("rd", "csr", "zimm"), kind=_mn, ext="Zicsr"))

# The FP and smallFloat extensions are registered by repro.isa.smallfloat
# (imported from repro.isa.__init__ so the table is always complete).
