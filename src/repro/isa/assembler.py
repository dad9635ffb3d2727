"""A two-pass RISC-V assembler for the smallFloat-extended ISA.

Supports labels, the directives ``.text``/``.data``/``.word``/``.half``/
``.byte``/``.space``/``.align``/``.globl``, ``%hi``/``%lo`` relocations,
the common pseudo-instructions, and an optional trailing rounding-mode
operand on rm-bearing FP instructions.

Because the modelled PULP RISCY core shares one register file between
integer and FP instructions (the configuration the paper's generated
code uses -- note ``lw``/``vfmul.h``/``fmacex.s.h`` all on ``a``
registers in Fig. 5), FP operands accept both ``fa0`` and ``a0``
spellings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .instructions import InstrSpec, UnknownInstruction, encode, spec_by_mnemonic
from .registers import parse_freg, parse_xreg

#: Default section base addresses (1 MiB of text, data above it).
TEXT_BASE = 0x0000_0000
DATA_BASE = 0x0010_0000

_RM_NAMES = {"rne": 0, "rtz": 1, "rdn": 2, "rup": 3, "rmm": 4, "sr": 5,
             "dyn": 7}

_CSR_NAMES = {
    "fflags": 0x001,
    "frm": 0x002,
    "fcsr": 0x003,
    "mstatus": 0x300,
    "mtvec": 0x305,
    "mscratch": 0x340,
    "mepc": 0x341,
    "mcause": 0x342,
    "mtval": 0x343,
    "cycle": 0xC00,
    "instret": 0xC02,
    "cycleh": 0xC80,
    "instreth": 0xC82,
    "mhartid": 0xF14,
}


class AssemblerError(Exception):
    """Syntax or semantic error, annotated with the source line."""


@dataclass
class Program:
    """Assembled machine code plus its symbol table.

    ``lines[i]`` is the 1-based source line that produced ``words[i]``
    (pseudo-instruction expansions share their source line), so
    downstream tooling -- the static analyzer in particular -- can
    report findings against the assembly text.  ``reserved`` records
    the ``(address, size)`` ranges allocated by ``.space``: bytes that
    exist but were never given an initial value.
    """

    words: List[int] = field(default_factory=list)
    text_base: int = TEXT_BASE
    data: bytearray = field(default_factory=bytearray)
    data_base: int = DATA_BASE
    symbols: Dict[str, int] = field(default_factory=dict)
    lines: List[int] = field(default_factory=list)
    reserved: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def text_size(self) -> int:
        return 4 * len(self.words)

    def address_of(self, symbol: str) -> int:
        try:
            return self.symbols[symbol]
        except KeyError:
            raise KeyError(f"undefined symbol {symbol!r}") from None

    def line_of(self, addr: int) -> Optional[int]:
        """Source line of the instruction at ``addr`` (None if unknown)."""
        index = (addr - self.text_base) // 4
        if 0 <= index < len(self.lines):
            return self.lines[index]
        return None


# ----------------------------------------------------------------------
# Operand expression parsing
# ----------------------------------------------------------------------
_HI_RE = re.compile(r"^%hi\((\w+)\)$")
_LO_RE = re.compile(r"^%lo\((\w+)\)$")
_MEM_RE = re.compile(r"^(.*)\((\w+)\)$")


def _parse_int(text: str) -> int:
    text = text.strip()
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    if text.lower().startswith("0x"):
        value = int(text, 16)
    elif text.lower().startswith("0b"):
        value = int(text, 2)
    else:
        value = int(text, 10)
    return -value if negative else value


def _hi20(addr: int) -> int:
    """The %hi relocation: compensates for the sign-extended %lo."""
    return ((addr + 0x800) >> 12) & 0xFFFFF


def _lo12(addr: int) -> int:
    value = addr & 0xFFF
    return value - 0x1000 if value >= 0x800 else value


@dataclass
class _PendingInstr:
    """An instruction captured in pass one, fixed up in pass two."""

    spec: InstrSpec
    fields: Dict[str, Union[int, str]]
    addr: int
    line_no: int
    source: str
    # 'branch' / 'jump' label, '%hi' / '%lo' symbol, or None
    reloc: Optional[Tuple[str, str]] = None


class Assembler:
    """Two-pass assembler producing a :class:`Program`."""

    def __init__(self, text_base: int = TEXT_BASE, data_base: int = DATA_BASE):
        self.text_base = text_base
        self.data_base = data_base

    # ------------------------------------------------------------------
    def assemble(self, source: str) -> Program:
        """Assemble a full translation unit."""
        program = Program(text_base=self.text_base, data_base=self.data_base)
        pending: List[_PendingInstr] = []
        section = "text"
        text_addr = self.text_base
        data = bytearray()

        def data_addr() -> int:
            return self.data_base + len(data)

        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = raw.split("#", 1)[0].split(";", 1)[0].strip()
            if not line:
                continue
            # Labels (possibly several on one line).
            while True:
                match = re.match(r"^([A-Za-z_]\w*)\s*:\s*", line)
                if not match:
                    break
                label = match.group(1)
                if label in program.symbols:
                    raise AssemblerError(f"line {line_no}: duplicate label {label!r}")
                program.symbols[label] = (
                    text_addr if section == "text" else data_addr()
                )
                line = line[match.end():]
            if not line:
                continue

            if line.startswith("."):
                try:
                    section, text_addr = self._directive(
                        line, line_no, section, text_addr, data, program
                    )
                except AssemblerError:
                    raise
                except ValueError as exc:
                    raise AssemblerError(
                        f"line {line_no}: {exc}: {line!r}"
                    ) from None
                continue

            if section != "text":
                raise AssemblerError(
                    f"line {line_no}: instruction outside .text: {line!r}"
                )
            for item in self._expand(line, text_addr, line_no):
                item.addr = text_addr
                pending.append(item)
                text_addr += 4

        # Pass two: resolve labels and encode.
        for item in pending:
            program.words.append(self._finalize(item, program))
            program.lines.append(item.line_no)
        program.data = data
        return program

    # ------------------------------------------------------------------
    def _directive(self, line, line_no, section, text_addr, data, program):
        parts = line.split(None, 1)
        name = parts[0]
        arg = parts[1].strip() if len(parts) > 1 else ""
        if name == ".text":
            return "text", text_addr
        if name == ".data":
            return "data", text_addr
        if name == ".globl" or name == ".global":
            return section, text_addr
        if name == ".align":
            amount = 1 << _parse_int(arg)
            if section == "data":
                while len(data) % amount:
                    data.append(0)
            return section, text_addr
        if name == ".space":
            if section != "data":
                raise AssemblerError(f"line {line_no}: .space outside .data")
            size = _parse_int(arg)
            program.reserved.append((self.data_base + len(data), size))
            data.extend(b"\x00" * size)
            return section, text_addr
        if name in (".word", ".half", ".byte"):
            if section != "data":
                raise AssemblerError(f"line {line_no}: {name} outside .data")
            size = {".word": 4, ".half": 2, ".byte": 1}[name]
            for token in arg.split(","):
                value = _parse_int(token) & ((1 << (8 * size)) - 1)
                data.extend(value.to_bytes(size, "little"))
            return section, text_addr
        raise AssemblerError(f"line {line_no}: unknown directive {name!r}")

    # ------------------------------------------------------------------
    # Pseudo-instruction expansion (pass one)
    # ------------------------------------------------------------------
    def _expand(self, line: str, addr: int, line_no: int) -> List[_PendingInstr]:
        mnemonic, operands = self._split(line)

        def real(mn: str, reloc=None, **fields) -> _PendingInstr:
            return _PendingInstr(spec_by_mnemonic(mn), fields, addr, line_no,
                                 line, reloc)

        try:
            return self._expand_inner(mnemonic, operands, real, line, line_no)
        except UnknownInstruction:
            raise AssemblerError(
                f"line {line_no}: unknown instruction {mnemonic!r}"
            ) from None
        except IndexError:
            # A pseudo-instruction indexed past its operand list.
            raise AssemblerError(
                f"line {line_no}: {mnemonic} is missing operands "
                f"(got {len(operands)}): {line!r}"
            ) from None
        except (ValueError, KeyError) as exc:
            raise AssemblerError(f"line {line_no}: {exc}: {line!r}") from None

    def _expand_inner(self, mnemonic, ops, real, line, line_no):
        n = len(ops)
        if mnemonic == "nop":
            return [real("addi", rd=0, rs1=0, imm=0)]
        if mnemonic == "li":
            rd = parse_xreg(ops[0])
            value = _parse_int(ops[1])
            if -2048 <= value < 2048:
                return [real("addi", rd=rd, rs1=0, imm=value)]
            unsigned = value & 0xFFFFFFFF
            hi, lo = _hi20(unsigned), _lo12(unsigned)
            out = [real("lui", rd=rd, imm=hi)]
            if lo:
                out.append(real("addi", rd=rd, rs1=rd, imm=lo))
            return out
        if mnemonic == "la":
            rd = parse_xreg(ops[0])
            return [
                real("lui", rd=rd, reloc=("%hi", ops[1])),
                real("addi", rd=rd, rs1=rd, reloc=("%lo", ops[1])),
            ]
        if mnemonic == "mv":
            return [real("addi", rd=parse_xreg(ops[0]), rs1=parse_xreg(ops[1]),
                         imm=0)]
        if mnemonic == "not":
            return [real("xori", rd=parse_xreg(ops[0]), rs1=parse_xreg(ops[1]),
                         imm=-1)]
        if mnemonic == "neg":
            return [real("sub", rd=parse_xreg(ops[0]), rs1=0,
                         rs2=parse_xreg(ops[1]))]
        if mnemonic == "seqz":
            return [real("sltiu", rd=parse_xreg(ops[0]), rs1=parse_xreg(ops[1]),
                         imm=1)]
        if mnemonic == "snez":
            return [real("sltu", rd=parse_xreg(ops[0]), rs1=0,
                         rs2=parse_xreg(ops[1]))]
        if mnemonic == "j":
            return [real("jal", rd=0, reloc=("jump", ops[0]))]
        if mnemonic == "jr":
            return [real("jalr", rd=0, rs1=parse_xreg(ops[0]), imm=0)]
        if mnemonic == "ret":
            return [real("jalr", rd=0, rs1=1, imm=0)]
        if mnemonic == "call":
            return [real("jal", rd=1, reloc=("jump", ops[0]))]
        if mnemonic == "beqz":
            return [real("beq", rs1=parse_xreg(ops[0]), rs2=0,
                         reloc=("branch", ops[1]))]
        if mnemonic == "bnez":
            return [real("bne", rs1=parse_xreg(ops[0]), rs2=0,
                         reloc=("branch", ops[1]))]
        if mnemonic == "bgez":
            return [real("bge", rs1=parse_xreg(ops[0]), rs2=0,
                         reloc=("branch", ops[1]))]
        if mnemonic == "bltz":
            return [real("blt", rs1=parse_xreg(ops[0]), rs2=0,
                         reloc=("branch", ops[1]))]
        if mnemonic in ("bgt", "ble", "bgtu", "bleu"):
            swap = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
            return [real(swap[mnemonic], rs1=parse_xreg(ops[1]),
                         rs2=parse_xreg(ops[0]), reloc=("branch", ops[2]))]
        if mnemonic.startswith("fmv.") and n == 2 and mnemonic.count(".") == 1:
            # fmv.h rd, rs -> fsgnj.h rd, rs, rs (and likewise per fmt)
            fmt = mnemonic.split(".")[1]
            rd, rs = self._freg(ops[0]), self._freg(ops[1])
            return [real(f"fsgnj.{fmt}", rd=rd, rs1=rs, rs2=rs)]
        if mnemonic.startswith("fneg."):
            fmt = mnemonic.split(".")[1]
            rd, rs = self._freg(ops[0]), self._freg(ops[1])
            return [real(f"fsgnjn.{fmt}", rd=rd, rs1=rs, rs2=rs)]
        if mnemonic.startswith("fabs."):
            fmt = mnemonic.split(".")[1]
            rd, rs = self._freg(ops[0]), self._freg(ops[1])
            return [real(f"fsgnjx.{fmt}", rd=rd, rs1=rs, rs2=rs)]
        if mnemonic == "csrr":
            return [real("csrrs", rd=parse_xreg(ops[0]),
                         imm=self._csr(ops[1]), rs1=0)]
        if mnemonic == "csrw":
            return [real("csrrw", rd=0, imm=self._csr(ops[0]),
                         rs1=parse_xreg(ops[1]))]

        # A real instruction: parse operands against the spec's syntax.
        spec = spec_by_mnemonic(mnemonic)
        fields: Dict[str, Union[int, str]] = {}
        reloc = None
        expected = list(spec.syntax)
        if spec.has_rm and len(ops) == len(expected) + 1:
            fields["rm"] = _RM_NAMES[ops.pop().lower()]
        if len(ops) != len(expected):
            raise AssemblerError(
                f"line {line_no}: {mnemonic} expects {len(expected)} operands "
                f"({', '.join(expected)}), got {len(ops)}: {line!r}"
            )
        for kind, text in zip(expected, ops):
            if kind in ("rd", "rs1", "rs2"):
                fields[kind] = parse_xreg(text)
            elif kind in ("frd", "frs1", "frs2", "frs3"):
                fields[{"frd": "rd", "frs1": "rs1", "frs2": "rs2",
                        "frs3": "rs3"}[kind]] = self._freg(text)
            elif kind == "imm":
                match = _LO_RE.match(text)
                if match:
                    reloc = ("%lo", match.group(1))
                else:
                    fields["imm"] = _parse_int(text)
            elif kind == "uimm20":
                match = _HI_RE.match(text)
                if match:
                    reloc = ("%hi", match.group(1))
                else:
                    fields["imm"] = _parse_int(text) & 0xFFFFF
            elif kind in ("shamt", "zimm"):
                value = _parse_int(text)
                field_name = "imm" if kind == "shamt" else "rs1"
                fields[field_name] = value
            elif kind in ("mem", "fmem"):
                match = _MEM_RE.match(text)
                if not match:
                    raise AssemblerError(
                        f"line {line_no}: bad memory operand {text!r}"
                    )
                offset_text = match.group(1).strip() or "0"
                lo_match = _LO_RE.match(offset_text)
                if lo_match:
                    reloc = ("%lo", lo_match.group(1))
                else:
                    fields["imm"] = _parse_int(offset_text)
                fields["rs1"] = parse_xreg(match.group(2))
            elif kind in ("blabel", "jlabel"):
                try:
                    fields["imm"] = _parse_int(text)
                except ValueError:
                    reloc = ("branch" if kind == "blabel" else "jump", text)
            elif kind == "csr":
                fields["imm"] = self._csr(text)
            else:  # pragma: no cover - spec table is internal
                raise AssemblerError(f"unhandled operand kind {kind!r}")
        return [_PendingInstr(spec, fields, 0, line_no, line, reloc)]

    # ------------------------------------------------------------------
    def _finalize(self, item: _PendingInstr, program: Program) -> int:
        fields = dict(item.fields)
        if item.reloc:
            mode, symbol = item.reloc
            try:
                target = program.address_of(symbol)
            except KeyError:
                raise AssemblerError(
                    f"line {item.line_no}: undefined symbol {symbol!r}: "
                    f"{item.source!r}"
                ) from None
            if mode in ("branch", "jump"):
                fields["imm"] = target - item.addr
            elif mode == "%hi":
                fields["imm"] = _hi20(target)
            elif mode == "%lo":
                fields["imm"] = _lo12(target)
        try:
            return encode(item.spec, **{k: int(v) for k, v in fields.items()})
        except ValueError as exc:
            raise AssemblerError(
                f"line {item.line_no}: {exc}: {item.source!r}"
            ) from None

    # ------------------------------------------------------------------
    @staticmethod
    def _split(line: str) -> Tuple[str, List[str]]:
        parts = line.split(None, 1)
        mnemonic = parts[0].lower()
        if len(parts) == 1:
            return mnemonic, []
        return mnemonic, [op.strip() for op in parts[1].split(",")]

    @staticmethod
    def _freg(name: str) -> int:
        """FP operand: accepts f-names or (merged regfile) x-names."""
        try:
            return parse_freg(name)
        except ValueError:
            return parse_xreg(name)

    @staticmethod
    def _csr(name: str) -> int:
        name = name.strip().lower()
        if name in _CSR_NAMES:
            return _CSR_NAMES[name]
        return _parse_int(name)


def assemble(source: str, text_base: int = TEXT_BASE,
             data_base: int = DATA_BASE) -> Program:
    """Convenience wrapper: assemble ``source`` into a :class:`Program`."""
    return Assembler(text_base, data_base).assemble(source)
