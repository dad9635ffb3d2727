"""Execution statistics: cycle counts and instruction-mix histograms.

Retires are counted per mnemonic (what :mod:`repro.energy` prices) and
per category of the instruction-count breakdown of paper Fig. 4
(load/store, ALU, conversions, scalar float, scalar/vector
smallFloat...).

Engines keep only ``instret`` and ``cycles`` live (the ``mcycle`` and
``minstret`` CSRs read them mid-run); every other counter is derived
by :meth:`Trace.tally` from the per-PC execution records that every
engine appends in first-retire order.
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
    """Execution statistics of one run (or of runs that share it).

    The counters other than ``instret`` and ``cycles`` are derived by
    :meth:`tally` when a run ends; a hand-built trace may set them.
    """

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
    #: Execution records in first-retire order, sequences starting
    #: ``(executions, taken, pc, instr)``; a PC that holds a new decoded
    #: instruction (a flipped word) gets a new record.  Not pickled:
    #: a finished trace travels as its counters, without instructions.
    records: list = field(default_factory=list, repr=False, compare=False)
    #: ``instret`` when the counters were last derived from ``records``
    #: (None: never).  Every retire moves ``instret``, so a run that
    #: retires nothing leaves a tallied trace current.  Not pickled.
    tallied_at: Optional[int] = field(default=None, repr=False,
                                      compare=False)

    def record(self, instr: Instr, cycles: int, taken: bool = False,
               pc: Optional[int] = None) -> None:
        """Retire one ``instr`` at ``pc``: count it now, tally it later."""
        self.instret += 1
        self.cycles += cycles
        self.records.append((1, int(taken), pc, instr))

    def tally(self) -> None:
        """Derive every counter but ``instret``/``cycles`` from all the
        records, from scratch.

        Keys are inserted in first-record order, which is first-retire
        order.  Executions are summed per spec and classed once per
        spec (:func:`spec_info` hashes the whole spec).  A record
        without a pc counts toward the instruction mix only.
        """
        per_spec = {}  # id(spec) -> [spec, executions]
        pc_counts, pc_taken = {}, {}
        branches_taken = 0
        for rec in self.records:
            count = rec[0]
            if not count:
                continue
            spec = rec[3].spec
            entry = per_spec.get(id(spec))
            if entry is None:
                per_spec[id(spec)] = [spec, count]
            else:
                entry[1] += count
            pc, taken = rec[2], rec[1]
            if pc is not None:
                pc_counts[pc] = pc_counts.get(pc, 0) + count
            if taken:
                branches_taken += taken
                if pc is not None:
                    pc_taken[pc] = pc_taken.get(pc, 0) + taken
        by_mnemonic, by_category = Counter(), Counter()
        mem_accesses = 0
        for spec, count in per_spec.values():
            category = spec_info(spec).category
            by_mnemonic[spec.mnemonic] += count
            by_category[category] += count
            if category in ("load", "store"):
                mem_accesses += count
        self.by_mnemonic, self.by_category = by_mnemonic, by_category
        self.pc_counts, self.pc_taken = Counter(pc_counts), Counter(pc_taken)
        self.mem_accesses = mem_accesses
        self.branches_taken = branches_taken
        self.tallied_at = self.instret

    def tallied_copy(self, instret: int, cycles: int) -> "Trace":
        """A trace with these live counts and copies of this tallied
        trace's records and counters, current at ``instret``: lockstep
        lanes with one history share one tally."""
        return Trace(instret, cycles, Counter(self.by_mnemonic),
                     Counter(self.by_category), self.mem_accesses,
                     self.branches_taken, Counter(self.pc_counts),
                     Counter(self.pc_taken), list(self.records),
                     tallied_at=instret)

    def __getstate__(self):
        state = dict(self.__dict__)
        state["records"] = []
        state.pop("tallied_at", None)
        return state

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
