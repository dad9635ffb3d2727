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
from typing import Dict, Optional, Tuple

from ..isa.instructions import Instr, InstrSpec
from .semantics import spec_info

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
        whose configuration was mutated between runs starts a new cycle
        table and drops its view of the blocks at the next run.
        """
        return (
            self.mem_latency,
            self.branch_taken_penalty,
            self.jump_penalty,
            self.int_div_cycles,
            tuple(sorted(self.fdiv_cycles.items())),
            tuple(sorted(self.fsqrt_cycles.items())),
        )


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
        self._key = None

    def table(self) -> Dict[InstrSpec, Tuple[int, int]]:
        """``spec -> (cycles not taken, cycles taken)``, each spec priced
        by :meth:`breakdown` on first use.

        A configuration whose :meth:`TimingConfig.snapshot_key` changed
        since the last call starts a new table: the engines call this
        once per run (the epoch check), then look up each retire.
        """
        key = self.config.snapshot_key()
        if key != self._key:
            self._key = key
            self._table = _CycleTable(self.breakdown)
        return self._table

    def cycles(self, instr: Instr, taken: bool = False) -> int:
        """Cycle cost of ``instr`` (``taken`` set for taken branches)."""
        return self.table()[instr.spec][taken]

    def breakdown(self, instr: Instr, taken: bool = False) -> CycleBreakdown:
        """:meth:`cycles`, with the excess over 1 attributed to a cause.

        This is the model's only dispatch: :meth:`cycles` reads its
        totals back from :meth:`table`.
        """
        cfg = self.config
        info = spec_info(instr.spec)
        cls = info.row.cls
        if cls in ("load", "store"):
            return _stalled(cfg.mem_latency, "mem")
        if cls == "branch":
            if taken:
                return _stalled(1 + cfg.branch_taken_penalty, "control")
            return CycleBreakdown(1)
        if cls == "jump":
            return _stalled(1 + cfg.jump_penalty, "control")
        if cls == "div":
            return _stalled(cfg.int_div_cycles, "div")
        if cls == "fdiv":
            return _stalled(cfg.fdiv_cycles.get(info.spec.fp_fmt, 11), "fp")
        if cls == "fsqrt":
            return _stalled(cfg.fsqrt_cycles.get(info.spec.fp_fmt, 11), "fp")
        return CycleBreakdown(1)


class _CycleTable(dict):
    """:meth:`TimingModel.table`, pricing each spec on first lookup."""

    def __init__(self, breakdown):
        super().__init__()
        self.breakdown = breakdown

    def __missing__(self, spec: InstrSpec) -> Tuple[int, int]:
        instr = Instr(spec=spec)
        costs = self[spec] = (self.breakdown(instr, False).total,
                              self.breakdown(instr, True).total)
        return costs


def _stalled(total: int, cause: str) -> CycleBreakdown:
    """A breakdown charging everything past the base cycle to ``cause``."""
    if total <= 1:
        return CycleBreakdown(total)
    return CycleBreakdown(total, cause, total - 1)
