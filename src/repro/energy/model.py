"""Per-instruction energy model (the UMC 65 nm post-layout substitute).

The paper obtained per-operation energies by simulating the post-layout
smallFloat unit at 350 MHz under worst-case conditions (1.08 V, 125 C)
and combining them with the PULP virtual platform's instruction trace.
We model the same pipeline:

    E_total = sum(E_op per retired instruction)
            + sum(E_mem per data-memory access, level-dependent)
            + cycles * E_background

``E_background`` captures clock tree, instruction fetch and leakage per
cycle -- it is what makes long-latency (L2/L3) runs expensive even while
the core stalls, the effect behind paper Fig. 3.

The absolute numbers below are in picojoules and are calibrated against
published FPnew/PULP measurements; only the *ratios* between classes
matter for every figure this repository reproduces (all paper plots are
normalized to the binary32 baseline).  Key ratios preserved:

* a 2-lane binary16 SIMD op costs ~0.95x one binary32 op (~0.47x per
  element); a 4-lane binary8 op ~0.85x (~0.21x per element);
* scalar binary16 ops cost ~0.55x binary32, binary8 ~0.37x;
* a TCDM (L1) data access costs ~2.7x an ALU op, and higher memory
  levels grow superlinearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..fp import registry
from ..isa.instructions import InstrSpec
from ..sim.semantics import resolve_mnemonic, spec_info
from ..sim.tracer import Trace

#: Energy per data-memory access (pJ) at the paper's latency levels.
MEM_ACCESS_ENERGY = {1: 6.0, 10: 24.0, 100: 110.0}

#: Background (clock + fetch + leakage) energy per cycle in pJ.
BACKGROUND_PJ_PER_CYCLE = 1.6


def _column(key: str) -> Dict[str, float]:
    """One energy column sourced from the format registry.

    Every registered :class:`~repro.fp.registry.NumberFormat` publishes
    its per-operation-class costs via ``energy_row()``; this collects
    the given class across formats, keyed by suffix.  Formats that do
    not publish a class simply have no entry -- :meth:`EnergyTable.op_energy`
    then applies the documented width-scaled fallback.
    """
    return {
        fmt.suffix: fmt.energy_row()[key]
        for fmt in registry.all_formats()
        if key in fmt.energy_row()
    }


@dataclass
class EnergyTable:
    """Per-operation energies in pJ, keyed by coarse operation class.

    The per-format columns are sourced from the number-format registry
    (each format's ``energy_row()``), so registering a new format
    automatically prices its instructions.  The table snapshots the
    registry at construction time; build a fresh :class:`EnergyModel`
    after registering formats.  A format that publishes no cost for an
    operation class falls back to the binary32 figure scaled linearly
    by datapath width (with an 8-bit floor) -- crude, but monotone and
    documented, and it never silently zeroes an op.
    """

    int_alu: float = 2.0
    branch: float = 2.4
    jump: float = 2.6
    mul: float = 4.6
    div: float = 28.0
    csr: float = 2.0
    #: Scalar FP arithmetic per format suffix (registry ``arith`` row).
    fp_arith: Dict[str, float] = field(default_factory=lambda: _column("arith"))
    #: Fused multiply-add (scalar) per format suffix (``fma`` row).
    fp_fma: Dict[str, float] = field(default_factory=lambda: _column("fma"))
    #: Iterative divide/sqrt per format suffix (``div`` row).
    fp_div: Dict[str, float] = field(default_factory=lambda: _column("div"))
    #: Non-arithmetic scalar FP (cmp/minmax/sign/classify; ``misc`` row).
    fp_misc: Dict[str, float] = field(default_factory=lambda: _column("misc"))
    #: Scalar conversions (any pair of formats / int).
    fp_conv: float = 3.2
    #: Packed-SIMD arithmetic per vector format (``vec_arith`` row).
    vec_arith: Dict[str, float] = field(
        default_factory=lambda: _column("vec_arith"))
    #: Packed-SIMD FMA per vector format (``vec_fma`` row).
    vec_fma: Dict[str, float] = field(default_factory=lambda: _column("vec_fma"))
    #: Packed-SIMD divide/sqrt per vector format (``vec_div`` row).
    vec_div: Dict[str, float] = field(default_factory=lambda: _column("vec_div"))
    #: SIMD conversions and cast-and-pack.
    vec_conv: float = 4.0
    #: Expanding operations (fmulex/fmacex scalar, vfdotpex SIMD).
    expand_scalar: float = 5.2
    #: Expanding / block dot products (``dotp`` row: vfdotpex, vfdotpmx).
    expand_dotp: Dict[str, float] = field(default_factory=lambda: _column("dotp"))

    # ------------------------------------------------------------------
    def _cost(self, column: Dict[str, float], suffix: str,
              base: float) -> float:
        """Column lookup with the documented width-scaled fallback."""
        cost = column.get(suffix)
        if cost is not None:
            return cost
        try:
            width = registry.by_suffix(suffix).width
        except KeyError:
            width = 32
        return column.get("s", base) * max(width, 8) / 32.0

    def op_energy(self, spec: InstrSpec) -> float:
        """Datapath energy of one instruction (memory charged separately)."""
        info = spec_info(spec)
        cls, spec = info.row.cls, info.spec
        price = _FIXED_PRICES.get(cls)
        if price is not None:
            return getattr(self, price)
        if cls == "expand":
            if spec.vec:
                return self.expand_dotp.get(spec.src_fmt or "h", 7.0)
            return self.expand_scalar
        fmt = spec.fp_fmt or "h"
        if spec.vec:
            if cls == "arith" or spec.kind in _VEC_MINMAX:
                return self._cost(self.vec_arith, fmt, 11.2)
            if cls == "fma":
                return self._cost(self.vec_fma, fmt, 14.5)
            if cls in ("fdiv", "fsqrt"):
                return self._cost(self.vec_div, fmt, 48.0)
            if cls == "conv":
                return self.vec_conv
            return self.vec_arith.get(fmt, 5.0)  # sgnj/compare etc.
        if cls == "arith":
            return self._cost(self.fp_arith, fmt, 6.6)
        if cls == "fma":
            return self._cost(self.fp_fma, fmt, 8.4)
        if cls in ("fdiv", "fsqrt"):
            return self._cost(self.fp_div, fmt, 28.0)
        if cls == "conv":
            return self.fp_conv
        return self._cost(self.fp_misc, fmt, 3.0)


#: Classes priced by one :class:`EnergyTable` field, whatever the format.
#: Loads and stores pay address generation; the access is charged apart.
_FIXED_PRICES = {"alu": "int_alu", "load": "int_alu", "store": "int_alu",
                 "branch": "branch", "jump": "jump", "mul": "mul",
                 "div": "div", "csr": "csr"}
#: The SIMD min/max unit shares the vector adder, so it is priced as
#: vector arithmetic; scalar fmin/fmax stay with the misc ops.
_VEC_MINMAX = frozenset({"vfmin", "vfmax"})


@dataclass
class EnergyReport:
    """Energy breakdown of one run, in picojoules."""

    op_energy: float
    mem_energy: float
    background_energy: float

    @property
    def total(self) -> float:
        return self.op_energy + self.mem_energy + self.background_energy

    def normalized_to(self, baseline: "EnergyReport") -> float:
        """This run's total relative to a baseline run (paper Fig. 3)."""
        return self.total / baseline.total


class EnergyModel:
    """Combines a :class:`Trace` with the energy table."""

    def __init__(self, table: Optional[EnergyTable] = None,
                 background_pj: float = BACKGROUND_PJ_PER_CYCLE):
        self.table = table or EnergyTable()
        self.background_pj = background_pj
        self._cache: Dict[str, float] = {}

    def mem_access_energy(self, latency: int) -> float:
        """Per-access energy for a memory with the given latency."""
        if latency in MEM_ACCESS_ENERGY:
            return MEM_ACCESS_ENERGY[latency]
        # Log-linear interpolation between the calibrated levels.
        points = sorted(MEM_ACCESS_ENERGY.items())
        if latency <= points[0][0]:
            return points[0][1]
        if latency >= points[-1][0]:
            return points[-1][1]
        import math

        for (l0, e0), (l1, e1) in zip(points, points[1:]):
            if l0 <= latency <= l1:
                t = (math.log(latency) - math.log(l0)) / (
                    math.log(l1) - math.log(l0)
                )
                return e0 + t * (e1 - e0)
        raise AssertionError  # pragma: no cover

    def _op_energy(self, mnemonic: str) -> float:
        cached = self._cache.get(mnemonic)
        if cached is None:
            # Traces record RVC instructions under their canonical
            # compressed mnemonics; charge the expanded operation.
            cached = self.table.op_energy(resolve_mnemonic(mnemonic))
            self._cache[mnemonic] = cached
        return cached

    def estimate(self, trace: Trace, mem_latency: int = 1) -> EnergyReport:
        """Energy of a finished run under a given memory latency."""
        op = sum(
            count * self._op_energy(mnemonic)
            for mnemonic, count in trace.by_mnemonic.items()
        )
        mem = trace.mem_accesses * self.mem_access_energy(mem_latency)
        background = trace.cycles * self.background_pj
        return EnergyReport(op, mem, background)
