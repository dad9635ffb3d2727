"""RISC-V ISA model: RV32IMC + F + the smallFloat extensions.

Importing this package registers the complete instruction table
(RV32I, M, Zicsr, F, Xf16, Xf16alt, Xf8, Xfvec, Xfaux).
"""

from . import smallfloat  # registers the FP instruction table
from .assembler import Assembler, AssemblerError, Program, assemble
from .compressed import (IllegalCompressed, compressed_base_spec,
                         expand, expand_with_mnemonic)
from .disassembler import disassemble, format_instr
from .instructions import (
    Instr,
    InstrSpec,
    UnknownInstruction,
    all_specs,
    decode,
    encode,
    spec_by_mnemonic,
    specs_by_extension,
)
from .registers import (
    freg_name,
    parse_freg,
    parse_xreg,
    xreg_name,
)

__all__ = [
    "smallfloat",
    "Assembler",
    "AssemblerError",
    "Program",
    "assemble",
    "IllegalCompressed",
    "expand",
    "expand_with_mnemonic",
    "compressed_base_spec",
    "disassemble",
    "format_instr",
    "Instr",
    "InstrSpec",
    "UnknownInstruction",
    "all_specs",
    "decode",
    "encode",
    "spec_by_mnemonic",
    "specs_by_extension",
    "freg_name",
    "parse_freg",
    "parse_xreg",
    "xreg_name",
]
