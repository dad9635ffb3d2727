"""RISCY-like cycle model.

RISCY is a 4-stage in-order single-issue core; most instructions retire
in one cycle.  The model charges:

* 1 cycle for ALU / CSR / FP single-cycle operations (FPnew's FMA paths
  are fully pipelined, so throughput is 1 op/cycle);
* the configured data-memory latency for loads and stores (the paper's
  L1/L2/L3 sweep is exactly this knob);
* a taken-branch / jump penalty (pipeline flush);
* multi-cycle latencies for the iterative integer divider and the FP
  divide/sqrt unit (FPnew runs divsqrt multi-cycle, narrower formats
  finish sooner).

Hazard modelling (load-use bubbles) is deliberately omitted: the paper's
speedups derive from instruction counts and memory latency, and RISCY
forwards results aggressively.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..isa.instructions import Instr

#: Stall causes the cycle model can attribute, in display order.  Every
#: retired instruction costs 1 base cycle; anything beyond that is a
#: stall charged to exactly one cause:
#:
#: * ``mem``     -- data-memory latency beyond the 1-cycle TCDM hit
#:                  (the paper's L1/L2/L3 knob);
#: * ``control`` -- taken-branch / jump pipeline flushes;
#: * ``div``     -- the iterative integer divider;
#: * ``fp``      -- multi-cycle FP divide/sqrt (FPnew's divsqrt unit).
STALL_CAUSES = ("mem", "control", "div", "fp")

#: Cycles for fdiv/fsqrt per format suffix (FPnew iterates per mantissa
#: bit group; smaller formats converge faster).
_DEFAULT_FDIV = {"s": 11, "h": 7, "ah": 6, "b": 4}
_DEFAULT_FSQRT = {"s": 11, "h": 7, "ah": 6, "b": 4}


@dataclass
class TimingConfig:
    """Tunable latencies of the cycle model."""

    #: Data-memory access latency in cycles (L1=1, L2=10, L3=100).
    mem_latency: int = 1
    #: Extra cycles on a taken branch (pipeline flush).
    branch_taken_penalty: int = 2
    #: Extra cycles on any jump (jal/jalr).
    jump_penalty: int = 1
    #: Iterative integer divide/remainder latency.
    int_div_cycles: int = 32
    #: FP divide latency per format suffix.
    fdiv_cycles: Dict[str, int] = field(
        default_factory=lambda: dict(_DEFAULT_FDIV)
    )
    #: FP square-root latency per format suffix.
    fsqrt_cycles: Dict[str, int] = field(
        default_factory=lambda: dict(_DEFAULT_FSQRT)
    )

    def snapshot_key(self):
        """Hashable fingerprint of every latency knob.

        The block engine bakes static cycle costs into its blocks: the
        key is part of each shared block's cache key, and a simulator
        whose configuration was mutated between runs drops its view of
        the blocks at the start of the next run.
        """
        return (
            self.mem_latency,
            self.branch_taken_penalty,
            self.jump_penalty,
            self.int_div_cycles,
            tuple(sorted(self.fdiv_cycles.items())),
            tuple(sorted(self.fsqrt_cycles.items())),
        )


_MEM_KINDS = {"lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "flw", "fsw"}
_JUMP_KINDS = {"jal", "jalr"}
_BRANCH_KINDS = {"beq", "bne", "blt", "bge", "bltu", "bgeu"}
_DIV_KINDS = {"div", "divu", "rem", "remu"}


@dataclass(frozen=True)
class CycleBreakdown:
    """One retired instruction's cycle cost, split base vs. stall.

    ``total == base + stall`` always, and ``base`` is 1 for every
    instruction in this single-issue model; ``cause`` is one of
    :data:`STALL_CAUSES` when ``stall > 0`` and ``None`` otherwise.
    The profiler prices each executed PC with these after the run;
    the engines charge :meth:`TimingModel.cycles`, the opaque total.
    """

    total: int
    cause: Optional[str] = None
    stall: int = 0

    @property
    def base(self) -> int:
        return self.total - self.stall


class TimingModel:
    """Maps one retired instruction to its cycle cost."""

    def __init__(self, config: Optional[TimingConfig] = None):
        self.config = config or TimingConfig()

    def cycles(self, instr: Instr, taken: bool = False) -> int:
        """Cycle cost of ``instr`` (``taken`` set for taken branches)."""
        cfg = self.config
        kind = instr.kind
        if kind in _MEM_KINDS:
            return cfg.mem_latency
        if kind in _BRANCH_KINDS:
            return 1 + (cfg.branch_taken_penalty if taken else 0)
        if kind in _JUMP_KINDS:
            return 1 + cfg.jump_penalty
        if kind in _DIV_KINDS:
            return cfg.int_div_cycles
        if kind in ("fdiv", "vfdiv"):
            return cfg.fdiv_cycles.get(instr.spec.fp_fmt, 11)
        if kind in ("fsqrt", "vfsqrt"):
            return cfg.fsqrt_cycles.get(instr.spec.fp_fmt, 11)
        return 1

    def breakdown(self, instr: Instr, taken: bool = False) -> CycleBreakdown:
        """:meth:`cycles`, with the excess over 1 attributed to a cause.

        The invariant ``breakdown(i, t).total == cycles(i, t)`` holds
        for every instruction and is pinned down by
        ``tests/sim/test_timing_breakdown.py``.
        """
        cfg = self.config
        kind = instr.kind
        if kind in _MEM_KINDS:
            return self._stalled(cfg.mem_latency, "mem")
        if kind in _BRANCH_KINDS:
            if taken:
                return self._stalled(1 + cfg.branch_taken_penalty, "control")
            return CycleBreakdown(1)
        if kind in _JUMP_KINDS:
            return self._stalled(1 + cfg.jump_penalty, "control")
        if kind in _DIV_KINDS:
            return self._stalled(cfg.int_div_cycles, "div")
        if kind in ("fdiv", "vfdiv"):
            return self._stalled(cfg.fdiv_cycles.get(instr.spec.fp_fmt, 11),
                                 "fp")
        if kind in ("fsqrt", "vfsqrt"):
            return self._stalled(cfg.fsqrt_cycles.get(instr.spec.fp_fmt, 11),
                                 "fp")
        return CycleBreakdown(1)

    @staticmethod
    def _stalled(total: int, cause: str) -> CycleBreakdown:
        """A breakdown charging everything past the base cycle to ``cause``."""
        if total <= 1:
            return CycleBreakdown(total)
        return CycleBreakdown(total, cause, total - 1)
