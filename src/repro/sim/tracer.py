"""Execution statistics: cycle counts and instruction-mix histograms.

Retires are counted per mnemonic (what :mod:`repro.energy` prices) and
per category of the instruction-count breakdown of paper Fig. 4
(load/store, ALU, conversions, scalar float, scalar/vector
smallFloat...).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa.instructions import Instr
from .semantics import spec_info

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


def classify(instr: Instr) -> str:
    """Map a decoded instruction to its breakdown category.

    The category is derived from the instruction's semantics row by
    :func:`~repro.sim.semantics.spec_info`: the row's class, and for FP
    arithmetic the operating format's width bucket.  Compressed
    instructions classify exactly like their expansions, so an RVC
    build's load/store/FP mix lands in the same Fig. 4 categories as
    the equivalent uncompressed stream.
    """
    return spec_info(instr.spec).category


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
        self.retire(instr.mnemonic, spec_info(instr.spec).category, cycles,
                    taken, pc)

    def retire(self, mnemonic: str, category: str, cycles: int,
               taken: bool = False, pc: Optional[int] = None) -> None:
        """:meth:`record` for a caller that already holds the
        instruction's mnemonic and category (the reference loop keeps
        them per pc, so a retire hashes no spec)."""
        self.instret += 1
        self.cycles += cycles
        self.by_mnemonic[mnemonic] += 1
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
