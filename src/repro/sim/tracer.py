"""Execution statistics: cycle counts and instruction-mix histograms.

The instruction classification feeds two artifacts:

* the instruction-count breakdown of paper Fig. 4 (load/store, ALU,
  conversions, scalar float, scalar/vector smallFloat...);
* the per-instruction energy model of :mod:`repro.energy`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa.instructions import Instr

#: Categories used in the Fig. 4-style breakdown, in display order.
CATEGORIES = [
    "load",
    "store",
    "alu",
    "mul",
    "div",
    "branch",
    "jump",
    "csr",
    "conv",
    "fp32",
    "fp16",
    "fp16alt",
    "fp8",
    "vfp16",
    "vfp16alt",
    "vfp8",
    "expand",
]

_LOAD = {"lb", "lh", "lw", "lbu", "lhu", "flw"}
_STORE = {"sb", "sh", "sw", "fsw"}
_BRANCH = {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
_JUMP = {"jal", "jalr"}
_MUL = {"mul", "mulh", "mulhsu", "mulhu"}
_DIV = {"div", "divu", "rem", "remu"}
_CSR = {"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"}
_CONV = {"fcvt_f2f", "fcvt_w_f", "fcvt_wu_f", "fcvt_f_w", "fcvt_f_wu",
         "vfcvt_x_f", "vfcvt_f_x", "vfcvt_f2f", "vfcpka", "vfcpkb",
         "fmv_x_f", "fmv_f_x"}
_EXPAND = {"fmulex", "fmacex", "vfdotpex"}

_FMT_CATEGORY = {"s": "fp32", "h": "fp16", "ah": "fp16alt", "b": "fp8"}
_VEC_CATEGORY = {"h": "vfp16", "ah": "vfp16alt", "b": "vfp8"}


def classify(instr: Instr) -> str:
    """Map a decoded instruction to its breakdown category.

    Compressed instructions classify exactly like their expansions: the
    simulator decodes RVC parcels to alias specs that keep the expanded
    spec's ``kind``/format metadata under the canonical ``c.*``
    mnemonic, and any bare ``c.*`` spec without that metadata falls
    back through :func:`repro.isa.compressed.compressed_base_spec`
    here.  Either way an RVC build's load/store/FP mix lands in the
    same Fig. 4 categories as the equivalent uncompressed stream.
    """
    spec = instr.spec
    kind = spec.kind
    if not kind and spec.mnemonic.startswith("c."):
        from ..isa.compressed import compressed_base_spec

        spec = compressed_base_spec(spec.mnemonic)
        kind = spec.kind
    if kind in _LOAD:
        return "load"
    if kind in _STORE:
        return "store"
    if kind in _BRANCH:
        return "branch"
    if kind in _JUMP:
        return "jump"
    if kind in _MUL:
        return "mul"
    if kind in _DIV:
        return "div"
    if kind in _CSR:
        return "csr"
    if kind in _EXPAND:
        return "expand"
    if kind in _CONV:
        return "conv"
    if spec.fp_fmt is not None:
        if spec.vec:
            return _VEC_CATEGORY.get(spec.fp_fmt, "vfp16")
        return _FMT_CATEGORY.get(spec.fp_fmt, "fp32")
    return "alu"


@dataclass
class Trace:
    """Accumulated execution statistics."""

    instret: int = 0
    cycles: int = 0
    by_mnemonic: Counter = field(default_factory=Counter)
    by_category: Counter = field(default_factory=Counter)
    mem_accesses: int = 0
    branches_taken: int = 0
    #: Execution count per instruction address.  Fed by the simulator;
    #: the static analyzer's trace-validation mode uses it to confirm
    #: that a statically flagged instruction is dynamically reachable.
    pc_counts: Counter = field(default_factory=Counter)
    #: Taken redirects per instruction address (branches and jumps).
    #: With ``pc_counts`` it prices every retire after the run, which is
    #: how :mod:`repro.profile` attributes cycles from any engine.
    pc_taken: Counter = field(default_factory=Counter)

    def record(self, instr: Instr, cycles: int, taken: bool = False,
               pc: Optional[int] = None) -> None:
        self.instret += 1
        self.cycles += cycles
        self.by_mnemonic[instr.mnemonic] += 1
        category = classify(instr)
        self.by_category[category] += 1
        if category in ("load", "store"):
            self.mem_accesses += 1
        if pc is not None:
            self.pc_counts[pc] += 1
        if taken:
            self.branches_taken += 1
            if pc is not None:
                self.pc_taken[pc] += 1

    def executed(self, pc: int) -> int:
        """How many times the instruction at ``pc`` retired."""
        return self.pc_counts.get(pc, 0)

    def breakdown(self) -> Dict[str, int]:
        """Instruction counts per category, in canonical order."""
        return {cat: self.by_category.get(cat, 0) for cat in CATEGORIES}

    def merged_breakdown(self) -> Dict[str, int]:
        """Coarser Fig. 4-style grouping (both 16-bit formats merged)."""
        fine = self.breakdown()
        return {
            "mem": fine["load"] + fine["store"],
            "alu": fine["alu"] + fine["mul"] + fine["div"] + fine["branch"]
            + fine["jump"] + fine["csr"],
            "conv": fine["conv"],
            "float": fine["fp32"],
            "float16": fine["fp16"] + fine["fp16alt"],
            "vfloat16": fine["vfp16"] + fine["vfp16alt"],
            "float8": fine["fp8"],
            "vfloat8": fine["vfp8"],
            "expand": fine["expand"],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Trace(instret={self.instret}, cycles={self.cycles})"
