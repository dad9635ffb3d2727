"""Bit-level encoding helpers for the RISC-V instruction formats.

Implements the six base formats (R/I/S/B/U/J) plus the R4 format used by
the fused multiply-add instructions, exactly as laid out in the RISC-V
unprivileged specification.  All functions work on plain integers; a
32-bit instruction word is an int in ``[0, 2**32)``.
"""

from __future__ import annotations

WORD_MASK = 0xFFFFFFFF


def bits(word: int, hi: int, lo: int) -> int:
    """Extract word[hi:lo] inclusive."""
    return (word >> lo) & ((1 << (hi - lo + 1)) - 1)


def sign_extend(value: int, width: int) -> int:
    """Two's-complement sign extension of a ``width``-bit value."""
    sign_bit = 1 << (width - 1)
    return (value & (sign_bit - 1)) - (value & sign_bit)


def to_unsigned(value: int, width: int = 32) -> int:
    """Wrap a (possibly negative) value into ``width`` unsigned bits."""
    return value & ((1 << width) - 1)


def _check_range(value: int, width: int, what: str) -> None:
    lo, hi = -(1 << (width - 1)), (1 << (width - 1)) - 1
    if not lo <= value <= hi:
        raise ValueError(f"{what} {value} does not fit in {width} signed bits")


def _check_reg(reg: int) -> int:
    if not 0 <= reg <= 31:
        raise ValueError(f"register number {reg} out of range")
    return reg


# ----------------------------------------------------------------------
# Encoders
# ----------------------------------------------------------------------
def encode_r(opcode: int, rd: int, funct3: int, rs1: int, rs2: int, funct7: int) -> int:
    """R-type: register-register operations."""
    return (
        (funct7 << 25)
        | (_check_reg(rs2) << 20)
        | (_check_reg(rs1) << 15)
        | (funct3 << 12)
        | (_check_reg(rd) << 7)
        | opcode
    )


def encode_r4(
    opcode: int, rd: int, funct3: int, rs1: int, rs2: int, rs3: int, fmt2: int
) -> int:
    """R4-type: fused multiply-add (rs3 in bits 31:27, fmt in 26:25)."""
    return (
        (_check_reg(rs3) << 27)
        | (fmt2 << 25)
        | (_check_reg(rs2) << 20)
        | (_check_reg(rs1) << 15)
        | (funct3 << 12)
        | (_check_reg(rd) << 7)
        | opcode
    )


def encode_i(opcode: int, rd: int, funct3: int, rs1: int, imm: int) -> int:
    """I-type: immediates, loads, jalr."""
    _check_range(imm, 12, "I-immediate")
    return (
        (to_unsigned(imm, 12) << 20)
        | (_check_reg(rs1) << 15)
        | (funct3 << 12)
        | (_check_reg(rd) << 7)
        | opcode
    )


def encode_s(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """S-type: stores."""
    _check_range(imm, 12, "S-immediate")
    u = to_unsigned(imm, 12)
    return (
        (bits(u, 11, 5) << 25)
        | (_check_reg(rs2) << 20)
        | (_check_reg(rs1) << 15)
        | (funct3 << 12)
        | (bits(u, 4, 0) << 7)
        | opcode
    )


def encode_b(opcode: int, funct3: int, rs1: int, rs2: int, imm: int) -> int:
    """B-type: conditional branches (byte offset, must be even)."""
    if imm % 2:
        raise ValueError(f"branch offset {imm} must be even")
    _check_range(imm, 13, "B-immediate")
    u = to_unsigned(imm, 13)
    return (
        (bits(u, 12, 12) << 31)
        | (bits(u, 10, 5) << 25)
        | (_check_reg(rs2) << 20)
        | (_check_reg(rs1) << 15)
        | (funct3 << 12)
        | (bits(u, 4, 1) << 8)
        | (bits(u, 11, 11) << 7)
        | opcode
    )


def encode_u(opcode: int, rd: int, imm: int) -> int:
    """U-type: lui / auipc.  ``imm`` is the upper-20-bit value."""
    if not 0 <= imm < (1 << 20):
        raise ValueError(f"U-immediate {imm} out of range")
    return (imm << 12) | (_check_reg(rd) << 7) | opcode


def encode_j(opcode: int, rd: int, imm: int) -> int:
    """J-type: jal (byte offset, must be even)."""
    if imm % 2:
        raise ValueError(f"jump offset {imm} must be even")
    _check_range(imm, 21, "J-immediate")
    u = to_unsigned(imm, 21)
    return (
        (bits(u, 20, 20) << 31)
        | (bits(u, 10, 1) << 21)
        | (bits(u, 11, 11) << 20)
        | (bits(u, 19, 12) << 12)
        | (_check_reg(rd) << 7)
        | opcode
    )


# ----------------------------------------------------------------------
# Field decoders
# ----------------------------------------------------------------------
def opcode_of(word: int) -> int:
    return bits(word, 6, 0)


def rd_of(word: int) -> int:
    return bits(word, 11, 7)


def funct3_of(word: int) -> int:
    return bits(word, 14, 12)


def rs1_of(word: int) -> int:
    return bits(word, 19, 15)


def rs2_of(word: int) -> int:
    return bits(word, 24, 20)


def funct7_of(word: int) -> int:
    return bits(word, 31, 25)


def rs3_of(word: int) -> int:
    return bits(word, 31, 27)


def fmt2_of(word: int) -> int:
    """The 2-bit FP format field (bits 26:25) of OP-FP / R4 encodings."""
    return bits(word, 26, 25)


def imm_i(word: int) -> int:
    return sign_extend(bits(word, 31, 20), 12)


def imm_s(word: int) -> int:
    return sign_extend((bits(word, 31, 25) << 5) | bits(word, 11, 7), 12)


def imm_b(word: int) -> int:
    value = (
        (bits(word, 31, 31) << 12)
        | (bits(word, 7, 7) << 11)
        | (bits(word, 30, 25) << 5)
        | (bits(word, 11, 8) << 1)
    )
    return sign_extend(value, 13)


def imm_u(word: int) -> int:
    return bits(word, 31, 12)


def imm_j(word: int) -> int:
    value = (
        (bits(word, 31, 31) << 20)
        | (bits(word, 19, 12) << 12)
        | (bits(word, 20, 20) << 11)
        | (bits(word, 30, 21) << 1)
    )
    return sign_extend(value, 21)


def is_compressed(halfword: int) -> bool:
    """True when the parcel is a 16-bit RVC instruction (low bits != 11)."""
    return (halfword & 0b11) != 0b11
