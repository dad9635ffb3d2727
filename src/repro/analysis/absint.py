"""Abstract interpretation of value ranges and rounding error.

``analyze_program`` propagates, per FP register, an abstract value
:class:`AbsVal` through the CFG:

* an **interval** ``[lo, hi]`` bounding every finite value the register
  can hold (the *concrete*, already-rounded value, in binary64);
* an **absolute error bound** ``err`` on the distance between the
  concrete value and an exact real-arithmetic shadow computation over
  the same inputs (absolute -- not relative -- so the bound survives
  cancellation, where relative error is unbounded);
* ``can_inf`` / ``can_nan`` flags recording whether the register may
  hold a non-finite value;
* the producing smallFloat format, so reinterpreting bits under a
  different format degrades the value to ``top`` instead of silently
  keeping bounds that no longer describe the bits.

Transfer functions cover every FP/SIMD operation in the smallFloat ISA,
including the expanding ``fmacex``/``vfdotpex`` accumulations: those
round **once** into binary32 per instruction, so their error transfer
adds ``rnd(binary32, .)`` where a narrow ``vfmac`` adds
``rnd(binary8, .)`` per lane -- which is exactly how the analysis
*proves* that expanding accumulation shrinks error bounds.

Soundness contract (checked dynamically by
:mod:`repro.analysis.absint_validate`):

* **Input contract** -- a register consumed without a tracked value of
  the expected format (function inputs, memory loads, values
  reinterpreted after an integer write) is assumed finite with
  magnitude at most ``AbsintConfig.input_bound`` and zero accumulated
  error (the shadow is reseeded from the concrete bits there).
* **Trip contract** -- no natural loop runs more than
  ``AbsintConfig.trip_bound`` iterations per entry.  Widening at loop
  headers extrapolates linear growth to ``trip_bound`` trips instead of
  jumping straight to top; growth that keeps accelerating after
  re-widening goes to top (``err = inf``, format-wide interval).
* **Int contract** -- the integer operand of an int->float conversion
  has magnitude at most ``max(input_bound, trip_bound)`` (loop counters
  and sizes; arbitrary 2**31 integers would flag every conversion).

Interval endpoints are computed in binary64 with outward rounding
(``math.nextafter``), so host rounding never tightens a bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..fp import registry
from ..fp.formats import FORMATS_BY_SUFFIX
from ..fp.registry import NumberFormat
from ..isa.assembler import Program
from ..sim.semantics import SEMANTICS
from .cfg import CFG, BasicBlock, Site, build_cfg
from .dataflow import (
    CALLEE_SAVED,
    Format,
    regs_written,
    result_format,
)

#: Risk classes :func:`collect_risks` can report (mirrored as lint
#: checks in :mod:`repro.analysis.lints`).
RISK_KINDS = ("overflow", "underflow", "cancellation", "budget")

_INF = float("inf")
_TINY = 1e-300

#: Plain joins at a loop header before widening engages.
_JOIN_PASSES = 2

#: Re-widening rounds before a still-accelerating component goes to top.
_MAX_WIDEN_ROUNDS = 8

#: FLEN of the modelled core (Table II: 2x16-bit / 4x8-bit vectors).
_FLEN = 32

_B32 = FORMATS_BY_SUFFIX["s"]


@dataclass(frozen=True)
class AbsintConfig:
    """Tunable assumptions of the analysis (the soundness contract)."""

    #: Assumed magnitude bound on unknown-provenance FP operands.
    input_bound: float = 128.0
    #: Assumed maximum iterations of any natural loop per entry.
    trip_bound: int = 4096
    #: Relative error budget checked at store sites (``None`` = off).
    error_budget: Optional[float] = None


@dataclass(frozen=True)
class AbsVal:
    """Abstract FP value: interval, error bound, flags, producing format."""

    lo: float
    hi: float
    err: float
    can_inf: bool = False
    can_nan: bool = False
    fmt: Optional[Format] = None

    def maxmag(self) -> float:
        return max(abs(self.lo), abs(self.hi))

    def minmag(self) -> float:
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def crosses_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def to_dict(self) -> Dict[str, object]:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "err": self.err,
            "can_inf": self.can_inf,
            "can_nan": self.can_nan,
            "fmt": None if self.fmt is None else list(self.fmt),
        }


Env = Dict[int, AbsVal]


def _float_format(fmt: Format) -> NumberFormat:
    return registry.by_suffix(fmt[0])


def contract_value(fmt: Format, config: AbsintConfig) -> AbsVal:
    """The input contract: finite, ``|v| <= input_bound``, zero error."""
    bound = min(config.input_bound, _float_format(fmt).max_value)
    return AbsVal(-bound, bound, 0.0, False, False, fmt)


def top_value(fmt: Optional[Format]) -> AbsVal:
    """No information beyond the format's representable range."""
    if fmt is None:
        return AbsVal(-_INF, _INF, _INF, True, True, None)
    m = _float_format(fmt).max_value
    return AbsVal(-m, m, _INF, True, True, fmt)


# ----------------------------------------------------------------------
# Outward-rounded binary64 interval arithmetic
# ----------------------------------------------------------------------
def _up(x: float) -> float:
    """Next binary64 above ``x`` (upper bound after one rounded op)."""
    if math.isnan(x) or x == _INF:
        return _INF
    return math.nextafter(x, _INF)


def _dn(x: float) -> float:
    if math.isnan(x) or x == -_INF:
        return -_INF
    return math.nextafter(x, -_INF)


def _rnd(fmt: NumberFormat, mag: float) -> float:
    """Absolute error of rounding an exact value of magnitude <= ``mag``
    into ``fmt``, via the format's registry hook (IEEE: 1 ulp relative,
    covering every rounding mode, plus the minimum ulp for the
    subnormal range; posit: the tapered-precision grid gap at ``mag``)."""
    if not math.isfinite(mag):
        return _INF
    return fmt.rnd_abs(mag)


def _hull(*vals: AbsVal) -> Tuple[float, float]:
    return min(v.lo for v in vals), max(v.hi for v in vals)


def _add_iv(a: AbsVal, b: AbsVal) -> Tuple[float, float]:
    return _dn(a.lo + b.lo), _up(a.hi + b.hi)


def _neg_iv(a: AbsVal) -> AbsVal:
    return AbsVal(-a.hi, -a.lo, a.err, a.can_inf, a.can_nan, a.fmt)


def _mul_iv(a: AbsVal, b: AbsVal) -> Tuple[float, float]:
    products = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi]
    finite = [p for p in products if not math.isnan(p)]
    if not finite:
        return -_INF, _INF
    return _dn(min(finite)), _up(max(finite))


# ----------------------------------------------------------------------
# Site records
# ----------------------------------------------------------------------
@dataclass
class SiteAbsState:
    """The abstract facts the analysis derived at one instruction."""

    site: Site
    dest: Optional[int] = None
    result: Optional[AbsVal] = None
    result_fmt: Optional[Format] = None
    operands: Dict[int, AbsVal] = field(default_factory=dict)
    #: FP operands whose value came from the input contract.
    contract_regs: Tuple[int, ...] = ()
    #: rs1 of an int->float conversion (int-contract assumption applies).
    int_contract_reg: Optional[int] = None
    #: The transfer itself introduced ``can_inf`` (no operand had it).
    new_inf: bool = False
    #: Pre-clamp exact-result magnitude when ``new_inf`` (the message).
    overflow_mag: Optional[float] = None
    #: For ``fsw``/``fmv_x_f``: the tracked value leaving the FP
    #: domain toward memory (``None`` = fresh / untracked).
    store_value: Optional[AbsVal] = None


@dataclass
class WidenedOverflow:
    """Loop-head widening pushed a register past its format's range."""

    header: int
    reg: int
    fmt: Format
    magnitude: float


@dataclass
class AbsintResult:
    """Everything one abstract-interpretation run produced."""

    cfg: CFG
    config: AbsintConfig
    sites: Dict[int, SiteAbsState]
    widened_headers: Dict[int, List[int]]
    widened_overflows: List[WidenedOverflow]
    elapsed: float = 0.0

    def state_at(self, addr: int) -> Optional[SiteAbsState]:
        return self.sites.get(addr)

    def max_error(self) -> float:
        """Largest finite error bound over every site result."""
        worst = 0.0
        for state in self.sites.values():
            if state.result is not None and math.isfinite(state.result.err):
                worst = max(worst, state.result.err)
        return worst

    def summary(self) -> Dict[str, object]:
        inf_sites = sum(1 for s in self.sites.values()
                        if s.result is not None and s.result.can_inf)
        unbounded = sum(1 for s in self.sites.values()
                        if s.result is not None
                        and not math.isfinite(s.result.err))
        return {
            "sites": len(self.sites),
            "fp_result_sites": sum(1 for s in self.sites.values()
                                   if s.result is not None),
            "can_inf_sites": inf_sites,
            "unbounded_err_sites": unbounded,
            "max_abs_err": _round6(self.max_error()),
            "widened_headers": len(self.widened_headers),
            "input_bound": self.config.input_bound,
            "trip_bound": self.config.trip_bound,
        }

    def to_payload(self) -> Dict[str, object]:
        risks = collect_risks(self)
        return {
            "summary": self.summary(),
            "risks": [r.to_dict() for r in risks],
            "sites": [
                {
                    "addr": state.site.addr,
                    "line": state.site.line,
                    "mnemonic": state.site.mnemonic,
                    "result": state.result.to_dict(),
                }
                for addr, state in sorted(self.sites.items())
                if state.result is not None
            ],
        }

    def render_text(self, top: int = 8) -> str:
        lines = [
            f"absint: {len(self.cfg.blocks)} blocks, "
            f"{len(self.widened_headers)} widened loop header(s), "
            f"input_bound={self.config.input_bound:g}, "
            f"trip_bound={self.config.trip_bound}",
        ]
        risks = collect_risks(self)
        if risks:
            lines.append(f"{len(risks)} risk(s):")
            lines.extend("  " + r.render() for r in risks)
        else:
            lines.append("no risks found")
        ranked = sorted(
            (s for s in self.sites.values()
             if s.result is not None and math.isfinite(s.result.err)
             and s.result.err > 0.0),
            key=lambda s: -s.result.err)[:top]
        if ranked:
            lines.append(f"largest error bounds (top {len(ranked)}):")
            for state in ranked:
                r = state.result
                where = (f"line {state.site.line}" if state.site.line
                         else f"{state.site.addr:#x}")
                lines.append(
                    f"  {where}: {state.site.mnemonic:<14s} "
                    f"|v| <= {r.maxmag():.6g}  err <= {r.err:.6g}")
        return "\n".join(lines)


def _round6(x: float) -> float:
    if not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


# ----------------------------------------------------------------------
# Join and operand resolution
# ----------------------------------------------------------------------
def join_vals(a: AbsVal, b: AbsVal) -> AbsVal:
    if a.fmt != b.fmt:
        return top_value(None)
    lo, hi = _hull(a, b)
    return AbsVal(lo, hi, max(a.err, b.err), a.can_inf or b.can_inf,
                  a.can_nan or b.can_nan, a.fmt)


def _join_one_sided(val: AbsVal, config: AbsintConfig) -> AbsVal:
    """Join a tracked value with the contract (the untracked path)."""
    if val.fmt is None:
        return val
    c = contract_value(val.fmt, config)
    lo, hi = _hull(val, c)
    return AbsVal(lo, hi, val.err, val.can_inf, val.can_nan, val.fmt)


def join_env(a: Env, b: Env, config: AbsintConfig) -> Env:
    out: Env = {}
    for reg in set(a) | set(b):
        va, vb = a.get(reg), b.get(reg)
        if va is not None and vb is not None:
            out[reg] = va if va == vb else join_vals(va, vb)
        else:
            out[reg] = _join_one_sided(va if va is not None else vb, config)
    return out


def _resolve(env: Env, reg: int, expect: Format,
             config: AbsintConfig) -> Tuple[AbsVal, bool]:
    """Operand value at the expected format; True when contract-fresh."""
    val = env.get(reg)
    if val is None:
        return contract_value(expect, config), True
    if val.fmt == expect:
        return val, False
    if val.fmt is None:
        return top_value(expect), False
    if val.fmt[0] == expect[0]:
        if expect[1] and not val.fmt[1]:
            # Scalar consumed as a packed vector: narrow scalar writes
            # zero-extend, so the stale upper lanes are +0.0.
            lo, hi = min(val.lo, 0.0), max(val.hi, 0.0)
            return AbsVal(lo, hi, val.err, val.can_inf, val.can_nan,
                          expect), False
        # Vector consumed as a scalar: the per-lane bound covers lane 0.
        return AbsVal(val.lo, val.hi, val.err, val.can_inf, val.can_nan,
                      expect), False
    # Bits produced under one element format, consumed under another:
    # the encoding means something unrelated.  (format-mismatch lint.)
    return top_value(expect), False


# ----------------------------------------------------------------------
# Arithmetic transfer helpers
# ----------------------------------------------------------------------
def _finish(fmt: NumberFormat, lo: float, hi: float, err: float,
            can_inf: bool, can_nan: bool,
            out_fmt: Format) -> Tuple[AbsVal, bool, Optional[float]]:
    """Clamp an exact-result interval into ``fmt``; returns
    ``(value, overflowed_here, pre_clamp_magnitude)``.

    Formats without infinities (``has_inf`` false) never produce one on
    overflow: posits saturate at maxpos and MX8 materializes its NaN.
    Both lose the error bound (saturation error is unbounded), so the
    overflowed component degrades to ``err = inf`` with ``can_nan`` set
    instead of ``can_inf``.
    """
    overflow = False
    mag = max(abs(lo), abs(hi))
    if hi > fmt.max_value:
        hi = fmt.max_value
        overflow = True
    if lo < -fmt.max_value:
        lo = -fmt.max_value
        overflow = True
    if lo > hi:  # degenerate after clamping (fully out of range)
        lo, hi = -fmt.max_value, fmt.max_value
    new_inf = overflow and not can_inf
    if overflow and not fmt.has_inf:
        return (AbsVal(lo, hi, _INF, can_inf, True, out_fmt),
                new_inf, mag if new_inf else None)
    return (AbsVal(lo, hi, err, can_inf or overflow, can_nan, out_fmt),
            new_inf, mag if new_inf else None)


def _arith_flags(*vals: AbsVal) -> Tuple[bool, bool]:
    """Conservative inf/nan propagation through an arithmetic op."""
    can_inf = any(v.can_inf for v in vals)
    can_nan = any(v.can_nan for v in vals) or can_inf
    return can_inf, can_nan


def _addsub(fmt: NumberFormat, out_fmt: Format, a: AbsVal, b: AbsVal,
            round_fmt: Optional[NumberFormat] = None):
    lo, hi = _add_iv(a, b)
    rfmt = round_fmt or fmt
    mag = max(abs(lo), abs(hi))
    err = _up(_up(a.err + b.err) + _rnd(rfmt, mag + a.err + b.err))
    can_inf, can_nan = _arith_flags(a, b)
    return _finish(rfmt, lo, hi, err, can_inf, can_nan, out_fmt)


def _prod_err(a: AbsVal, b: AbsVal) -> float:
    """|a*b - a'*b'| given |a-a'| <= a.err, |b-b'| <= b.err."""
    return _up(_up(a.maxmag() * b.err) + _up(b.maxmag() * a.err)
               + _up(a.err * b.err))


def _mul(fmt: NumberFormat, out_fmt: Format, a: AbsVal, b: AbsVal,
         round_fmt: Optional[NumberFormat] = None):
    lo, hi = _mul_iv(a, b)
    rfmt = round_fmt or fmt
    pe = _prod_err(a, b)
    err = _up(pe + _rnd(rfmt, max(abs(lo), abs(hi)) + pe))
    can_inf, can_nan = _arith_flags(a, b)
    return _finish(rfmt, lo, hi, err, can_inf, can_nan, out_fmt)


def _div(fmt: NumberFormat, out_fmt: Format, a: AbsVal, b: AbsVal):
    if b.crosses_zero():
        val = top_value(out_fmt)
        return val, False, None
    blo_mag = b.minmag()
    quotients = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi]
    lo, hi = _dn(min(quotients)), _up(max(quotients))
    shadow_bmin = blo_mag - b.err
    if shadow_bmin <= 0.0 or not math.isfinite(b.err):
        err = _INF
    else:
        num = _up(_up(a.maxmag() * b.err) + _up(b.maxmag() * a.err))
        err = _up(num / _dn(blo_mag * shadow_bmin)
                  + _rnd(fmt, max(abs(lo), abs(hi))))
    can_inf, can_nan = _arith_flags(a, b)
    return _finish(fmt, lo, hi, err, can_inf, can_nan, out_fmt)


def _sqrt(fmt: NumberFormat, out_fmt: Format, a: AbsVal):
    can_nan = a.can_nan or a.lo < 0.0
    lo = math.sqrt(max(a.lo, 0.0))
    hi = math.sqrt(max(a.hi, 0.0))
    lo, hi = _dn(lo), _up(hi)
    # |sqrt(x) - sqrt(y)| <= sqrt(|x - y|) for x, y >= 0; tighter
    # (err / 2*sqrt(min)) when the argument stays away from zero.
    if not math.isfinite(a.err):
        err = _INF
    else:
        bound = math.sqrt(a.err) if a.err > 0.0 else 0.0
        shadow_min = a.minmag() - a.err
        if shadow_min > 0.0 and a.err > 0.0:
            bound = min(bound, a.err / (2.0 * math.sqrt(shadow_min)))
        err = _up(_up(bound) + _rnd(fmt, hi))
    return _finish(fmt, lo, hi, err, a.can_inf, can_nan, out_fmt)


def _fma(fmt: NumberFormat, out_fmt: Format, a: AbsVal, b: AbsVal,
         c: AbsVal, negate_product: bool, negate_addend: bool,
         round_fmt: Optional[NumberFormat] = None):
    """Fused a*b +/- c with a single rounding in ``round_fmt``."""
    plo, phi = _mul_iv(a, b)
    if negate_product:
        plo, phi = -phi, -plo
    clo, chi = (-c.hi, -c.lo) if negate_addend else (c.lo, c.hi)
    lo, hi = _dn(plo + clo), _up(phi + chi)
    rfmt = round_fmt or fmt
    pe = _prod_err(a, b)
    err = _up(_up(pe + c.err) + _rnd(rfmt, max(abs(lo), abs(hi)) + pe
                                     + c.err))
    can_inf, can_nan = _arith_flags(a, b, c)
    return _finish(rfmt, lo, hi, err, can_inf, can_nan, out_fmt)


def _dotp(out_fmt: Format, acc: AbsVal, a: AbsVal, b: AbsVal,
          lanes: int):
    """vfdotpex: acc + sum of ``lanes`` products, one binary32 rounding."""
    plo, phi = _mul_iv(a, b)
    # Each of the ``lanes`` products lies in [plo, phi], so their exact
    # sum lies in [lanes*plo, lanes*phi].
    lo = _dn(acc.lo + lanes * plo)
    hi = _up(acc.hi + lanes * phi)
    pe = _up(lanes * _prod_err(a, b))
    err = _up(_up(acc.err + pe) + _rnd(_B32, max(abs(lo), abs(hi))
                                       + acc.err + pe))
    can_inf, can_nan = _arith_flags(acc, a, b)
    return _finish(_B32, lo, hi, err, can_inf, can_nan, out_fmt)


def _selection(a: AbsVal, b: AbsVal, out_fmt: Format, minimum: bool):
    """fmin/fmax: 1-Lipschitz selection in each argument."""
    if minimum:
        lo, hi = min(a.lo, b.lo), min(a.hi, b.hi)
    else:
        lo, hi = max(a.lo, b.lo), max(a.hi, b.hi)
    # IEEE minNum/maxNum return the non-NaN operand, so a maybe-NaN
    # operand means the result can be the *other* operand unclipped --
    # widen to its full interval.  A NaN result needs both to be NaN.
    if a.can_nan:
        lo, hi = min(lo, b.lo), max(hi, b.hi)
    if b.can_nan:
        lo, hi = min(lo, a.lo), max(hi, a.hi)
    return AbsVal(lo, hi, max(a.err, b.err), a.can_inf or b.can_inf,
                  a.can_nan and b.can_nan, out_fmt), False, None


def _sign_inject(a: AbsVal, out_fmt: Format):
    m = a.maxmag()
    return AbsVal(-m, m, a.err, a.can_inf, a.can_nan, out_fmt), False, None


def _convert(dst: NumberFormat, out_fmt: Format, a: AbsVal):
    err = _up(a.err + _rnd(dst, a.maxmag() + a.err))
    return _finish(dst, a.lo, a.hi, err, a.can_inf, a.can_nan, out_fmt)


_SCALAR_BINOPS = {"fadd", "fsub", "fmul", "fdiv", "fmin", "fmax",
                  "fsgnj", "fsgnjn", "fsgnjx"}
_VECTOR_BINOPS = {"vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax",
                  "vfsgnj", "vfsgnjn", "vfsgnjx"}
_FMA_KINDS = {"fmadd": (False, False), "fmsub": (False, True),
              "fnmsub": (True, False), "fnmadd": (True, True)}
_INT_RESULT_KINDS = {"feq", "flt", "fle", "vfeq", "vflt", "vfle",
                     "fclass", "fcvt_w_f", "fcvt_wu_f", "vfcvt_x_f",
                     "fmv_x_f"}


# ----------------------------------------------------------------------
# The per-site transfer function
# ----------------------------------------------------------------------
def transfer_site(site: Site, env: Env, config: AbsintConfig,
                  sink: Optional[Dict[int, SiteAbsState]] = None) -> None:
    """Apply one instruction to ``env`` (mutated in place).

    With ``sink``, also record a :class:`SiteAbsState` for the site.
    """
    instr = site.instr
    state = SiteAbsState(site=site) if sink is not None else None
    if sink is not None:
        sink[site.addr] = state
    if instr is None:
        env.clear()  # undecodable word: no facts survive
        return
    spec = instr.spec

    # Calls clobber the caller-saved half of the merged register file.
    if spec.cf in ("jump", "ijump") and instr.rd != 0:
        for reg in list(env):
            if reg not in CALLEE_SAVED:
                env.pop(reg)
        return

    if SEMANTICS[spec.kind].shape == "store":
        # smallFloat values live in the integer register file, so a
        # plain sb/sh/sw is how a tracked value reaches memory; record
        # it for the error-budget check (None = not an FP value).
        if state is not None:
            state.store_value = env.get(instr.rs2)
        return

    if spec.fp_fmt is None:
        for reg in regs_written(instr):
            env.pop(reg, None)
        return

    kind = spec.kind
    elem = spec.fp_fmt
    vec = bool(spec.vec)
    fmt = registry.by_suffix(elem)

    def resolve(reg: int, expect: Format) -> AbsVal:
        val, fresh = _resolve(env, reg, expect, config)
        if state is not None:
            state.operands[reg] = val
            if fresh:
                state.contract_regs = state.contract_regs + (reg,)
        return val

    def write(reg: int, packed) -> None:
        val, new_inf, mag = packed
        env[reg] = val
        if state is not None:
            state.dest = reg
            state.result = val
            state.result_fmt = val.fmt
            state.new_inf = new_inf
            state.overflow_mag = mag

    if kind == "flw":
        env.pop(instr.rd, None)  # loads carry no format/value evidence
        return
    if kind in _INT_RESULT_KINDS:
        if kind == "fmv_x_f" and state is not None:
            state.store_value = env.get(instr.rs1)
        if instr.rd != 0:
            env.pop(instr.rd, None)
        return
    if kind == "fmv_f_x":
        env.pop(instr.rd, None)  # raw bits: no value evidence
        return

    out_fmt = result_format(instr)
    if out_fmt is None:  # future FP kinds with no known result format
        for reg in regs_written(instr):
            env.pop(reg, None)
        return

    if kind in ("fcvt_f_w", "fcvt_f_wu"):
        bound = float(max(config.input_bound, config.trip_bound))
        if state is not None:
            state.int_contract_reg = instr.rs1
        lo = 0.0 if kind == "fcvt_f_wu" else -bound
        write(instr.rd, _finish(fmt, lo, bound, _rnd(fmt, bound),
                                False, False, out_fmt))
        return
    if kind == "vfcvt_f_x":
        bound = float(1 << (fmt.width - 1))  # packed int lanes
        write(instr.rd, _finish(fmt, -bound, bound, _rnd(fmt, bound),
                                False, False, out_fmt))
        return
    if kind in ("fcvt_f2f", "vfcvt_f2f"):
        src = resolve(instr.rs1, (spec.src_fmt or elem, vec))
        write(instr.rd, _convert(fmt, out_fmt, src))
        return
    if kind in ("fsqrt", "vfsqrt"):
        a = resolve(instr.rs1, (elem, vec))
        write(instr.rd, _sqrt(fmt, out_fmt, a))
        return
    if kind in _FMA_KINDS:
        a = resolve(instr.rs1, (elem, False))
        b = resolve(instr.rs2, (elem, False))
        c = resolve(instr.rs3, (elem, False))
        np_, na_ = _FMA_KINDS[kind]
        write(instr.rd, _fma(fmt, out_fmt, a, b, c, np_, na_))
        return
    if kind == "fmulex":
        src = registry.by_suffix(spec.src_fmt or elem)
        a = resolve(instr.rs1, (src.suffix, False))
        b = resolve(instr.rs2, (src.suffix, False))
        write(instr.rd, _mul(src, out_fmt, a, b, round_fmt=_B32))
        return
    if kind == "fmacex":
        src = registry.by_suffix(spec.src_fmt or elem)
        a = resolve(instr.rs1, (src.suffix, False))
        b = resolve(instr.rs2, (src.suffix, False))
        acc = resolve(instr.rd, ("s", False))
        write(instr.rd, _fma(src, out_fmt, a, b, acc, False, False,
                             round_fmt=_B32))
        return
    if kind == "vfdotpex":
        src = registry.by_suffix(spec.src_fmt or elem)
        a = resolve(instr.rs1, (src.suffix, True))
        b = resolve(instr.rs2, (src.suffix, not spec.repl))
        acc = resolve(instr.rd, ("s", False))
        lanes = _FLEN // src.width
        write(instr.rd, _dotp(out_fmt, acc, a, b, lanes))
        return
    if kind == "vfdotpmx":
        # Shared-exponent block dot product: each operand register holds
        # a scale byte plus lanes.  The decoded lane values fall under
        # the input contract (blocks arrive via integer loads, so no
        # tracked history exists); one binary32 rounding at the end.
        src = registry.by_suffix(spec.src_fmt or elem)
        a = resolve(instr.rs1, (src.suffix, True))
        b = resolve(instr.rs2, (src.suffix, True))
        acc = resolve(instr.rd, ("s", False))
        lanes = max(1, (_FLEN - 8) // src.width)
        write(instr.rd, _dotp(out_fmt, acc, a, b, lanes))
        return
    if kind in ("vfcpka", "vfcpkb"):
        a = resolve(instr.rs1, ("s", False))
        b = resolve(instr.rs2, ("s", False))
        ca, _, _ = _convert(fmt, out_fmt, a)
        cb, _, _ = _convert(fmt, out_fmt, b)
        packed = join_vals(ca, cb)
        lanes = _FLEN // fmt.width
        if lanes > 2:  # untouched lanes keep the old register contents
            old, _ = _resolve(env, instr.rd, out_fmt, config)
            packed = join_vals(packed, old)
        new_inf = packed.can_inf and not (a.can_inf or b.can_inf)
        env[instr.rd] = packed
        if state is not None:
            state.dest = instr.rd
            state.result = packed
            state.result_fmt = out_fmt
            state.new_inf = new_inf
            state.overflow_mag = (max(a.maxmag(), b.maxmag())
                                  if new_inf else None)
        return
    if kind == "vfmac":
        a = resolve(instr.rs1, (elem, True))
        b = resolve(instr.rs2, (elem, not spec.repl))
        acc = resolve(instr.rd, (elem, True))
        write(instr.rd, _fma(fmt, out_fmt, a, b, acc, False, False))
        return
    if kind in _SCALAR_BINOPS or kind in _VECTOR_BINOPS:
        a = resolve(instr.rs1, (elem, vec))
        b = resolve(instr.rs2, (elem, vec and not spec.repl))
        base = kind[2:] if vec else kind[1:]  # strip "vf"/"f"
        if base == "add":
            write(instr.rd, _addsub(fmt, out_fmt, a, b))
        elif base == "sub":
            write(instr.rd, _addsub(fmt, out_fmt, a, _neg_iv(b)))
        elif base == "mul":
            write(instr.rd, _mul(fmt, out_fmt, a, b))
        elif base == "div":
            write(instr.rd, _div(fmt, out_fmt, a, b))
        elif base in ("min", "max"):
            write(instr.rd, _selection(a, b, out_fmt, base == "min"))
        else:  # sgnj / sgnjn / sgnjx
            resolve(instr.rs2, (elem, vec and not spec.repl))
            write(instr.rd, _sign_inject(a, out_fmt))
        return

    # Unknown FP kind: drop facts for whatever it writes.
    for reg in regs_written(instr):
        env.pop(reg, None)


def _transfer_block(block: BasicBlock, env_in: Env,
                    config: AbsintConfig,
                    sink: Optional[Dict[int, SiteAbsState]] = None) -> Env:
    env = dict(env_in)
    for site in block.sites:
        transfer_site(site, env, config, sink)
    return env


# ----------------------------------------------------------------------
# Widening at loop headers
# ----------------------------------------------------------------------
class _CompWiden:
    """Delta-extrapolation state for one (register, component)."""

    __slots__ = ("prev", "passes", "hold", "allow", "base", "rounds")

    def __init__(self) -> None:
        self.prev: Optional[float] = None
        self.passes = 0
        self.hold: Optional[float] = None
        self.allow = 0.0
        self.base = 0.0
        self.rounds = 0

    def step(self, x: float, trip: int) -> float:
        if not math.isfinite(x):
            self.hold = _INF
            return _INF
        if self.hold is not None:
            if math.isinf(self.hold):
                return _INF
            inc = x - self.hold
            if inc <= self.allow * 1.01 + _TINY:
                return self.hold  # extrapolation absorbed the growth
            self.rounds += 1
            if self.rounds > _MAX_WIDEN_ROUNDS:
                self.hold = _INF  # accelerating: no linear bound exists
                return _INF
            self.allow = inc
            self.hold = self.base + 1.05 * trip * inc
            return self.hold
        if self.prev is None:
            self.prev = x
            return x
        delta = x - self.prev
        self.prev = x
        if delta <= _TINY:
            return x  # converging on its own
        self.passes += 1
        if self.passes < _JOIN_PASSES:
            return x
        # Linear growth observed: assume <= trip iterations (the trip
        # contract) and extrapolate, with margin for the tolerance the
        # hold check grants later arrivals.
        self.base = x
        self.allow = delta
        self.hold = x + 1.05 * trip * delta
        return self.hold


class _HeaderWiden:
    """Widening state for every register reaching one loop header."""

    def __init__(self, config: AbsintConfig):
        self.config = config
        self.comps: Dict[Tuple[int, str], _CompWiden] = {}
        self.fmt_seen: Dict[int, Optional[Format]] = {}
        self.overflows: Dict[int, float] = {}
        self.touched: Set[int] = set()

    def _comp(self, reg: int, name: str) -> _CompWiden:
        key = (reg, name)
        if key not in self.comps:
            self.comps[key] = _CompWiden()
        return self.comps[key]

    def apply(self, env: Env) -> Env:
        trip = self.config.trip_bound
        out: Env = {}
        for reg, val in env.items():
            if self.fmt_seen.get(reg, val.fmt) != val.fmt:
                # Format changed between passes: restart this register.
                for name in ("hi", "lo", "err"):
                    self.comps.pop((reg, name), None)
            self.fmt_seen[reg] = val.fmt
            hi = self._comp(reg, "hi").step(val.hi, trip)
            lo = -self._comp(reg, "lo").step(-val.lo, trip)
            err = self._comp(reg, "err").step(val.err, trip)
            can_inf, can_nan = val.can_inf, val.can_nan
            widened = (hi != val.hi or lo != val.lo or err != val.err)
            if val.fmt is not None:
                fmax = _float_format(val.fmt).max_value
                if hi > fmax or lo < -fmax:
                    self.overflows[reg] = max(
                        self.overflows.get(reg, 0.0),
                        max(abs(lo), abs(hi)))
                    hi = min(hi, fmax)
                    lo = max(lo, -fmax)
                    can_inf = True
            if widened:
                self.touched.add(reg)
            out[reg] = AbsVal(lo, hi, err, can_inf, can_nan, val.fmt)
        return out


# ----------------------------------------------------------------------
# The fixpoint solver
# ----------------------------------------------------------------------
def analyze_cfg(cfg: CFG,
                config: Optional[AbsintConfig] = None) -> AbsintResult:
    """Run the abstract interpretation over an already-built CFG."""
    started = time.monotonic()
    config = config or AbsintConfig()
    headers = {loop.header for loop in cfg.natural_loops()}
    boundary = set(cfg.entries) | {callee for _, callee in cfg.calls}
    widen: Dict[int, _HeaderWiden] = {h: _HeaderWiden(config)
                                      for h in headers}

    env_in: Dict[int, Env] = {}
    env_out: Dict[int, Env] = {}
    worklist: List[int] = list(cfg.order)
    queued = set(worklist)
    iterations = 0
    limit = max(256, 64 * len(cfg.order) * (_MAX_WIDEN_ROUNDS + 4))
    while worklist:
        iterations += 1
        if iterations > limit:  # pragma: no cover - safety net
            break
        start = worklist.pop(0)
        queued.discard(start)
        block = cfg.blocks[start]
        incoming: Optional[Env] = {} if start in boundary else None
        for pred in block.preds:
            contrib = env_out.get(pred)
            if contrib is None:
                continue
            incoming = dict(contrib) if incoming is None else \
                join_env(incoming, contrib, config)
        if incoming is None:
            incoming = {}
        if start in headers:
            incoming = widen[start].apply(incoming)
        env_in[start] = incoming
        outgoing = _transfer_block(block, incoming, config)
        if outgoing != env_out.get(start):
            env_out[start] = outgoing
            for succ in block.succs:
                if succ not in queued:
                    worklist.append(succ)
                    queued.add(succ)

    # Recording walk over the solved per-block inputs.
    sites: Dict[int, SiteAbsState] = {}
    for start in cfg.order:
        _transfer_block(cfg.blocks[start], env_in.get(start, {}),
                        config, sink=sites)

    widened_headers = {h: sorted(w.touched) for h, w in widen.items()
                       if w.touched}
    overflows = []
    for header in sorted(widen):
        w = widen[header]
        for reg in sorted(w.overflows):
            fmt = w.fmt_seen.get(reg)
            if fmt is not None:
                overflows.append(WidenedOverflow(
                    header=header, reg=reg, fmt=fmt,
                    magnitude=w.overflows[reg]))
    return AbsintResult(cfg=cfg, config=config, sites=sites,
                        widened_headers=widened_headers,
                        widened_overflows=overflows,
                        elapsed=time.monotonic() - started)


def analyze_program(
    program: Program,
    entries: Optional[Sequence[Union[str, int]]] = None,
    config: Optional[AbsintConfig] = None,
) -> AbsintResult:
    """Build the CFG and run the abstract interpretation."""
    return analyze_cfg(build_cfg(program, entries=entries), config)


# ----------------------------------------------------------------------
# Risk extraction (shared by the lint checks and ``repro analyze``)
# ----------------------------------------------------------------------
def _fmt_name(elem: str) -> str:
    """Human name of a format suffix, from the registry."""
    return registry.by_suffix(elem).name

#: Kinds whose overflow suggests the expanding accumulate instead.
_EXPANDING_FIX = {"vfmac": "vfdotpex.s.{fmt}", "vfadd": "vfdotpex.s.{fmt}",
                  "fadd": "fmacex.s.{fmt}", "fmadd": "fmacex.s.{fmt}"}


@dataclass
class Risk:
    """One risk record, with enough structure for lints and reports."""

    kind: str  # one of :data:`RISK_KINDS`
    site: Site
    message: str
    suggestion: Optional[str] = None
    magnitude: Optional[float] = None
    error: Optional[float] = None
    #: Human name of the format at risk (overflow/underflow risks).
    fmt: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "kind": self.kind,
            "addr": self.site.addr,
            "line": self.site.line,
            "mnemonic": self.site.mnemonic,
            "message": self.message,
        }
        if self.fmt is not None:
            out["fmt"] = self.fmt
        if self.suggestion is not None:
            out["suggestion"] = self.suggestion
        if self.magnitude is not None:
            out["magnitude"] = _round6(self.magnitude)
        if self.error is not None and math.isfinite(self.error):
            out["error"] = _round6(self.error)
        return out

    def render(self) -> str:
        where = (f"line {self.site.line}" if self.site.line is not None
                 else f"{self.site.addr:#x}")
        text = f"{where}: [{self.kind}] {self.message}"
        if self.suggestion:
            text += f"  (suggestion: {self.suggestion})"
        return text


def _overflow_suggestion(site: Site, elem: str) -> Optional[str]:
    template = _EXPANDING_FIX.get(site.kind)
    if template is not None:
        return template.format(fmt=elem)
    if elem in ("h", "b"):
        return ("compute in binary32, or binary16alt for its "
                "binary32-like exponent range")
    return None


def collect_risks(result: AbsintResult,
                  reachable: Optional[Set[int]] = None) -> List[Risk]:
    """Extract overflow/underflow/cancellation/budget risks."""
    cfg = result.cfg
    config = result.config
    if reachable is None:
        reachable = cfg.reachable()
    risks: List[Risk] = []
    cancel_best: Dict[Optional[str], Tuple[float, Risk, int]] = {}

    overflow_sites: Set[int] = set()
    loop_bodies = {header: set() for header in result.widened_headers}
    for loop in cfg.merged_loops():
        if loop.header in loop_bodies:
            loop_bodies[loop.header] |= loop.body

    for start in cfg.order:
        if start not in reachable:
            continue
        for site in cfg.blocks[start].sites:
            state = result.sites.get(site.addr)
            if state is None or site.instr is None:
                continue
            res = state.result
            fmt = state.result_fmt
            if res is not None and fmt is not None:
                elem = fmt[0]
                ffmt = _float_format(fmt)
                if state.new_inf:
                    overflow_sites.add(site.addr)
                    outcome = ("the result can round to infinity"
                               if ffmt.has_inf else
                               "the result saturates or becomes NaN "
                               "(no infinities in this format)")
                    risks.append(Risk(
                        kind="overflow", site=site,
                        message=(
                            f"result magnitude may reach "
                            f"{state.overflow_mag:.4g}, beyond "
                            f"{_fmt_name(elem)}'s largest finite value "
                            f"{ffmt.max_value:g}; {outcome}"),
                        suggestion=_overflow_suggestion(site, elem),
                        magnitude=state.overflow_mag,
                        fmt=_fmt_name(elem)))
                mag = res.maxmag()
                if 0.0 < mag < ffmt.min_normal_value:
                    risks.append(Risk(
                        kind="underflow", site=site,
                        message=(
                            f"every possible result magnitude "
                            f"(<= {mag:.4g}) is below {_fmt_name(elem)}'s "
                            f"smallest normal {ffmt.min_normal_value:g}; "
                            f"the value is subnormal or flushed to zero"),
                        magnitude=mag, fmt=_fmt_name(elem)))
            if site.kind in ("fadd", "fsub", "vfadd", "vfsub") \
                    and state.operands:
                ops = [state.operands.get(site.instr.rs1),
                       state.operands.get(site.instr.rs2)]
                if all(o is not None for o in ops):
                    a, b = ops
                    carried = a.err + b.err
                    if site.kind in ("fsub", "vfsub"):
                        b = _neg_iv(b)
                    lo, hi = _add_iv(a, b)
                    if carried > 0.0 and math.isfinite(carried) \
                            and lo <= 0.0 <= hi \
                            and a.minmag() + a.err > 0.0 \
                            and b.minmag() + b.err > 0.0:
                        risk = Risk(
                            kind="cancellation", site=site,
                            message=(
                                f"operands carrying accumulated rounding "
                                f"error (<= {carried:.3g}) may cancel to "
                                f"a result near zero, where that error "
                                f"dominates the value"),
                            error=carried)
                        fn = cfg.function_of(site.addr)
                        best = cancel_best.get(fn)
                        count = 1 if best is None else best[2] + 1
                        if best is None or carried > best[0]:
                            cancel_best[fn] = (carried, risk, count)
                        else:
                            cancel_best[fn] = (best[0], best[1], count)
            if (config.error_budget is not None
                    and (site.shape == "store"
                         or site.kind == "fmv_x_f")):
                stored = state.store_value
                if stored is not None:
                    denom = max(stored.maxmag(), _TINY)
                    rel = stored.err / denom
                    if rel > config.error_budget:
                        risks.append(Risk(
                            kind="budget", site=site,
                            message=(
                                f"stored value's relative error bound "
                                f"{rel:.3g} exceeds the configured "
                                f"budget {config.error_budget:g}"),
                            error=stored.err))

    # Widening-level overflows: attribute each to the loop-body site(s)
    # that write the overflowing register (the accumulation itself).
    for overflow in result.widened_overflows:
        body = loop_bodies.get(overflow.header, set())
        for start in sorted(body & reachable):
            block = cfg.blocks.get(start)
            if block is None:
                continue
            for site in block.sites:
                state = result.sites.get(site.addr)
                if state is None or state.dest != overflow.reg \
                        or state.result_fmt != overflow.fmt \
                        or site.addr in overflow_sites:
                    continue
                overflow_sites.add(site.addr)
                elem = overflow.fmt[0]
                ffmt = _float_format(overflow.fmt)
                outcome = ("the accumulator can round to infinity"
                           if ffmt.has_inf else
                           "the accumulator saturates or becomes NaN "
                           "(no infinities in this format)")
                risks.append(Risk(
                    kind="overflow", site=site,
                    message=(
                        f"accumulated magnitude may reach "
                        f"{overflow.magnitude:.4g} over "
                        f"{config.trip_bound} loop iterations, beyond "
                        f"{_fmt_name(elem)}'s largest finite value "
                        f"{ffmt.max_value:g}; {outcome}"),
                    suggestion=_overflow_suggestion(site, elem),
                    magnitude=overflow.magnitude,
                    fmt=_fmt_name(elem)))

    for count_key in sorted(cancel_best, key=lambda k: (k is None, k)):
        carried, risk, total = cancel_best[count_key]
        if total > 1:
            risk.message += (f" ({total - 1} smaller cancellation "
                             f"site(s) in the same function elided)")
        risks.append(risk)

    risks.sort(key=lambda r: (RISK_KINDS.index(r.kind),
                              r.site.line or 0, r.site.addr))
    return risks
