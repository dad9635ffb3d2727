"""RV32C: expansion of 16-bit compressed instructions to 32-bit forms.

The paper's baseline is RV32IM(F)C; RISCY executes compressed
instructions by expanding them in the decoder, which is exactly what
this module does -- each valid 16-bit parcel maps to one 32-bit
instruction from the main table, so the executor only ever sees full
instructions.  Includes the RV32FC ``c.flw``/``c.fsw`` forms.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Tuple

from .encoding import sign_extend
from .instructions import InstrSpec, UnknownInstruction, encode, spec_by_mnemonic


class IllegalCompressed(Exception):
    """Raised for reserved or illegal 16-bit encodings."""


#: Canonical compressed mnemonic -> the base mnemonic it expands to.
#: Every RVC instruction this module accepts maps to exactly one 32-bit
#: form, so category/energy lookups on a ``c.*`` mnemonic can always
#: fall back through the expanded spec.
C_BASE_MNEMONICS: Dict[str, str] = {
    "c.addi4spn": "addi",
    "c.lw": "lw",
    "c.flw": "flw",
    "c.sw": "sw",
    "c.fsw": "fsw",
    "c.nop": "addi",
    "c.addi": "addi",
    "c.jal": "jal",
    "c.li": "addi",
    "c.addi16sp": "addi",
    "c.lui": "lui",
    "c.srli": "srli",
    "c.srai": "srai",
    "c.andi": "andi",
    "c.sub": "sub",
    "c.xor": "xor",
    "c.or": "or",
    "c.and": "and",
    "c.j": "jal",
    "c.beqz": "beq",
    "c.bnez": "bne",
    "c.slli": "slli",
    "c.lwsp": "lw",
    "c.flwsp": "flw",
    "c.jr": "jalr",
    "c.mv": "add",
    "c.ebreak": "ebreak",
    "c.jalr": "jalr",
    "c.add": "add",
    "c.swsp": "sw",
    "c.fswsp": "fsw",
}

_ALIAS_SPECS: Dict[str, InstrSpec] = {}


def compressed_base_spec(mnemonic: str) -> InstrSpec:
    """The expanded 32-bit spec behind a canonical ``c.*`` mnemonic.

    :func:`repro.sim.semantics.resolve_mnemonic` uses this to answer
    for a compressed mnemonic with its expansion.  Raises :class:`UnknownInstruction` for names that are
    not canonical RVC mnemonics.
    """
    base = C_BASE_MNEMONICS.get(mnemonic)
    if base is None:
        raise UnknownInstruction(f"unknown compressed mnemonic {mnemonic!r}")
    return spec_by_mnemonic(base)


def compressed_alias_spec(mnemonic: str, base: InstrSpec) -> InstrSpec:
    """A clone of ``base`` renamed to the compressed mnemonic.

    All semantic metadata (``kind``, ``fp_fmt``, ``cf``, ...) is the
    expanded instruction's, so every consumer that dispatches on those
    fields treats the compressed form exactly like its expansion; only
    the mnemonic -- what traces and disassembly show -- differs.
    """
    spec = _ALIAS_SPECS.get(mnemonic)
    if spec is None:
        spec = replace(base, mnemonic=mnemonic)
        _ALIAS_SPECS[mnemonic] = spec
    return spec


def _bit(word: int, pos: int) -> int:
    return (word >> pos) & 1


def _bits(word: int, hi: int, lo: int) -> int:
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def _enc(mnemonic: str, **fields: int) -> int:
    return encode(spec_by_mnemonic(mnemonic), **fields)


def expand(parcel: int) -> int:
    """Expand a 16-bit compressed parcel into its 32-bit equivalent.

    Raises :class:`IllegalCompressed` on reserved encodings (including
    the all-zero illegal instruction).
    """
    return expand_with_mnemonic(parcel)[1]


def expand_with_mnemonic(parcel: int) -> Tuple[str, int]:
    """:func:`expand`, also naming the parcel's canonical ``c.*`` form.

    Returns ``(mnemonic, word)`` -- e.g. ``("c.lw", <expanded lw>)`` --
    so callers that care about the fetched stream (the simulator's
    tracer, the profiler's annotated disassembly) can report compressed
    instructions faithfully instead of silently renaming them to their
    expansions.
    """
    parcel &= 0xFFFF
    if parcel == 0:
        raise IllegalCompressed("illegal instruction (all zeros)")
    quadrant = parcel & 0b11
    funct3 = _bits(parcel, 15, 13)
    if quadrant == 0b00:
        return _quadrant0(parcel, funct3)
    if quadrant == 0b01:
        return _quadrant1(parcel, funct3)
    if quadrant == 0b10:
        return _quadrant2(parcel, funct3)
    raise IllegalCompressed(f"not a compressed parcel: {parcel:#06x}")


# Compressed register numbers map to x8-x15.
def _rd_prime(parcel: int) -> int:
    return _bits(parcel, 4, 2) + 8


def _rs1_prime(parcel: int) -> int:
    return _bits(parcel, 9, 7) + 8


def _quadrant0(parcel: int, funct3: int) -> Tuple[str, int]:
    if funct3 == 0b000:  # c.addi4spn
        imm = (
            (_bits(parcel, 12, 11) << 4)
            | (_bits(parcel, 10, 7) << 6)
            | (_bit(parcel, 6) << 2)
            | (_bit(parcel, 5) << 3)
        )
        if imm == 0:
            raise IllegalCompressed("c.addi4spn with zero immediate")
        return "c.addi4spn", _enc("addi", rd=_rd_prime(parcel), rs1=2, imm=imm)
    if funct3 in (0b010, 0b011):  # c.lw / c.flw
        imm = (
            (_bits(parcel, 12, 10) << 3)
            | (_bit(parcel, 6) << 2)
            | (_bit(parcel, 5) << 6)
        )
        mnemonic = "lw" if funct3 == 0b010 else "flw"
        return f"c.{mnemonic}", _enc(
            mnemonic, rd=_rd_prime(parcel), rs1=_rs1_prime(parcel), imm=imm)
    if funct3 in (0b110, 0b111):  # c.sw / c.fsw
        imm = (
            (_bits(parcel, 12, 10) << 3)
            | (_bit(parcel, 6) << 2)
            | (_bit(parcel, 5) << 6)
        )
        mnemonic = "sw" if funct3 == 0b110 else "fsw"
        return f"c.{mnemonic}", _enc(
            mnemonic, rs1=_rs1_prime(parcel), rs2=_rd_prime(parcel), imm=imm)
    raise IllegalCompressed(f"reserved quadrant-0 encoding {parcel:#06x}")


def _imm6(parcel: int) -> int:
    return sign_extend((_bit(parcel, 12) << 5) | _bits(parcel, 6, 2), 6)


def _cj_imm(parcel: int) -> int:
    value = (
        (_bit(parcel, 12) << 11)
        | (_bit(parcel, 11) << 4)
        | (_bits(parcel, 10, 9) << 8)
        | (_bit(parcel, 8) << 10)
        | (_bit(parcel, 7) << 6)
        | (_bit(parcel, 6) << 7)
        | (_bits(parcel, 5, 3) << 1)
        | (_bit(parcel, 2) << 5)
    )
    return sign_extend(value, 12)


def _cb_imm(parcel: int) -> int:
    value = (
        (_bit(parcel, 12) << 8)
        | (_bits(parcel, 11, 10) << 3)
        | (_bits(parcel, 6, 5) << 6)
        | (_bits(parcel, 4, 3) << 1)
        | (_bit(parcel, 2) << 5)
    )
    return sign_extend(value, 9)


def _quadrant1(parcel: int, funct3: int) -> Tuple[str, int]:
    rd = _bits(parcel, 11, 7)
    if funct3 == 0b000:  # c.nop / c.addi
        name = "c.nop" if rd == 0 else "c.addi"
        return name, _enc("addi", rd=rd, rs1=rd, imm=_imm6(parcel))
    if funct3 == 0b001:  # c.jal (RV32)
        return "c.jal", _enc("jal", rd=1, imm=_cj_imm(parcel))
    if funct3 == 0b010:  # c.li
        return "c.li", _enc("addi", rd=rd, rs1=0, imm=_imm6(parcel))
    if funct3 == 0b011:
        if rd == 2:  # c.addi16sp
            imm = sign_extend(
                (_bit(parcel, 12) << 9)
                | (_bit(parcel, 6) << 4)
                | (_bit(parcel, 5) << 6)
                | (_bits(parcel, 4, 3) << 7)
                | (_bit(parcel, 2) << 5),
                10,
            )
            if imm == 0:
                raise IllegalCompressed("c.addi16sp with zero immediate")
            return "c.addi16sp", _enc("addi", rd=2, rs1=2, imm=imm)
        imm = _imm6(parcel)
        if imm == 0:
            raise IllegalCompressed("c.lui with zero immediate")
        return "c.lui", _enc("lui", rd=rd, imm=imm & 0xFFFFF)
    if funct3 == 0b100:
        sub = _bits(parcel, 11, 10)
        rdp = _rs1_prime(parcel)
        if sub == 0b00:  # c.srli
            return "c.srli", _enc("srli", rd=rdp, rs1=rdp,
                                  imm=_bits(parcel, 6, 2))
        if sub == 0b01:  # c.srai
            return "c.srai", _enc("srai", rd=rdp, rs1=rdp,
                                  imm=_bits(parcel, 6, 2))
        if sub == 0b10:  # c.andi
            return "c.andi", _enc("andi", rd=rdp, rs1=rdp, imm=_imm6(parcel))
        rs2p = _rd_prime(parcel)
        op = _bits(parcel, 6, 5)
        if _bit(parcel, 12):
            raise IllegalCompressed("reserved quadrant-1 ALU encoding")
        mnemonic = ["sub", "xor", "or", "and"][op]
        return f"c.{mnemonic}", _enc(mnemonic, rd=rdp, rs1=rdp, rs2=rs2p)
    if funct3 == 0b101:  # c.j
        return "c.j", _enc("jal", rd=0, imm=_cj_imm(parcel))
    if funct3 == 0b110:  # c.beqz
        return "c.beqz", _enc("beq", rs1=_rs1_prime(parcel), rs2=0,
                              imm=_cb_imm(parcel))
    if funct3 == 0b111:  # c.bnez
        return "c.bnez", _enc("bne", rs1=_rs1_prime(parcel), rs2=0,
                              imm=_cb_imm(parcel))
    raise IllegalCompressed(f"reserved quadrant-1 encoding {parcel:#06x}")


def _quadrant2(parcel: int, funct3: int) -> Tuple[str, int]:
    rd = _bits(parcel, 11, 7)
    rs2 = _bits(parcel, 6, 2)
    if funct3 == 0b000:  # c.slli
        return "c.slli", _enc("slli", rd=rd, rs1=rd, imm=_bits(parcel, 6, 2))
    if funct3 in (0b010, 0b011):  # c.lwsp / c.flwsp
        if funct3 == 0b010 and rd == 0:
            raise IllegalCompressed("c.lwsp with rd=x0")
        imm = (
            (_bit(parcel, 12) << 5)
            | (_bits(parcel, 6, 4) << 2)
            | (_bits(parcel, 3, 2) << 6)
        )
        if funct3 == 0b010:
            return "c.lwsp", _enc("lw", rd=rd, rs1=2, imm=imm)
        return "c.flwsp", _enc("flw", rd=rd, rs1=2, imm=imm)
    if funct3 == 0b100:
        if not _bit(parcel, 12):
            if rs2 == 0:  # c.jr
                if rd == 0:
                    raise IllegalCompressed("c.jr with rs1=x0")
                return "c.jr", _enc("jalr", rd=0, rs1=rd, imm=0)
            return "c.mv", _enc("add", rd=rd, rs1=0, rs2=rs2)
        if rd == 0 and rs2 == 0:  # c.ebreak
            return "c.ebreak", _enc("ebreak")
        if rs2 == 0:  # c.jalr
            return "c.jalr", _enc("jalr", rd=1, rs1=rd, imm=0)
        return "c.add", _enc("add", rd=rd, rs1=rd, rs2=rs2)
    if funct3 in (0b110, 0b111):  # c.swsp / c.fswsp
        imm = (_bits(parcel, 12, 9) << 2) | (_bits(parcel, 8, 7) << 6)
        if funct3 == 0b110:
            return "c.swsp", _enc("sw", rs1=2, rs2=rs2, imm=imm)
        return "c.fswsp", _enc("fsw", rs1=2, rs2=rs2, imm=imm)
    raise IllegalCompressed(f"reserved quadrant-2 encoding {parcel:#06x}")
