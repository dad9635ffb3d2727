"""The SmallFloat-aware static lint pass.

Twelve checks built on the CFG, dataflow and abstract-interpretation
layers.  Each one encodes a failure mode the paper's
format-per-operation design space makes easy to hit:

``use-before-def``
    A register is read on some path before anything writes it.
``format-mismatch``
    An f-register written in one smallFloat format is consumed by an
    operation of a different format without an intervening conversion
    (``fcvt``/``vfcpk``).  ``binary16`` vs ``binary16alt`` counts: the
    two formats share their 16-bit encoding width, so nothing at run
    time will catch the confusion.
``narrow-accumulation``
    A reduction loop accumulates in a sub-32-bit format.  MiniFloat-NN
    / ExSdotp-style expanding operations (``fmacex.s.*``,
    ``vfdotpex.s.*``) exist precisely so products are summed in
    binary32; the check names the exact replacement.  Also recognizes
    (as a ``note``) the NN multiply-widen-accumulate idiom -- a
    binary32 ``fadd.s`` fed by ``fcvt.s.*``-widened narrow products --
    where the expanding op fuses the chain with a single rounding.
``dead-write``
    A computed value is never read.
``redundant-convert``
    A format round-trip ``a -> b -> a`` (lossless when the intermediate
    is wider -- pure waste -- and silently destructive when narrower).
``uninitialized-load``
    A load from ``.space``-reserved data bytes that no store in the
    program initializes.
``missed-vectorization``
    Loops doing scalar smallFloat arithmetic that packed-SIMD ``Xfvec``
    could process 2-4 elements at a time, cross-checked against the
    auto-vectorizer's :class:`VectorizeReport` when one is available.
    Scalar multiply-widen-accumulate reductions (the NN dot-product
    idiom) get the sharper ``vfdotpex.s.*`` suggestion, plus
    ``vfdotpmx.s.mx`` when a block-scaled format is registered.
``unreachable-code``
    Basic blocks no entry point reaches.
``overflow-to-inf-risk``
    The abstract interpreter (:mod:`repro.analysis.absint`) proves a
    result's magnitude can exceed the format's largest finite value
    under the documented input/trip contract -- rounding to infinity.
    Loop accumulators flagged here name the expanding
    ``fmacex``/``vfdotpex`` replacement whose binary32 accumulator
    provably cannot overflow at the same magnitudes.
``underflow-flush-risk``
    Every possible result magnitude sits below the format's smallest
    normal: the value lives in the subnormal range or flushes to zero.
``catastrophic-cancellation``
    An add/subtract whose operands carry accumulated rounding error can
    cancel to near zero, where that carried error dominates the result.
``error-budget-exceeded``
    A stored value's statically bounded relative error exceeds the
    budget configured in :class:`repro.analysis.absint.AbsintConfig`
    (off by default).

Findings carry the assembly source line (threaded through
:class:`Program.lines`), the instruction address (used by the dynamic
trace-validation mode) and, where applicable, a concrete suggestion.

Suppression: a source line ending in ``# lint: ignore`` suppresses all
findings on that line; ``# lint: ignore[check-a,check-b]`` suppresses
just the named checks.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple, Union

from ..fp import registry
from ..isa.assembler import Program
from ..isa.disassembler import format_instr
from ..isa.registers import xreg_name
from .absint import AbsintConfig, Risk, analyze_cfg, collect_risks
from .cfg import CFG, Site, build_cfg
from .dataflow import (
    CALLEE_SAVED,
    FormatMap,
    FormatTracking,
    Liveness,
    MaybeUninitialized,
    ReachingDefs,
    operand_formats,
    regs_read,
    regs_written,
)

#: Severity levels, least to most severe.
SEVERITIES = ("note", "warning", "error")

#: Every check name, for configuration and documentation.
CHECKS = (
    "use-before-def",
    "format-mismatch",
    "narrow-accumulation",
    "dead-write",
    "redundant-convert",
    "uninitialized-load",
    "missed-vectorization",
    "unreachable-code",
    "overflow-to-inf-risk",
    "underflow-flush-risk",
    "catastrophic-cancellation",
    "error-budget-exceeded",
)

def _width(suffix: str) -> int:
    """Bit width of a format suffix, from the registry."""
    return registry.by_suffix(suffix).width


def _fmt_name(suffix: str) -> str:
    """Human name of a format suffix, from the registry."""
    return registry.by_suffix(suffix).name


def _narrow(suffix: Optional[str]) -> bool:
    """Is this a sub-32-bit format (accumulation loses precision)?"""
    return suffix is not None and registry.by_suffix(suffix).width < 32


def _narrow_vec(suffix: Optional[str]) -> bool:
    """Narrow *and* packed-SIMD capable (vectorization is possible)."""
    if suffix is None:
        return False
    fmt = registry.by_suffix(suffix)
    return fmt.width < 32 and fmt.has_vector

_SUPPRESS_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([\w,\s-]*)\])?")


def severity_at_least(severity: str, floor: str) -> bool:
    return SEVERITIES.index(severity) >= SEVERITIES.index(floor)


@dataclass
class LintFinding:
    """One diagnostic produced by the lint pass."""

    check: str
    severity: str  # one of :data:`SEVERITIES`
    message: str
    addr: Optional[int] = None  #: instruction address (trace validation)
    line: Optional[int] = None  #: 1-based assembly source line
    instr: Optional[str] = None  #: disassembled instruction text
    function: Optional[str] = None
    suggestion: Optional[str] = None

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "check": self.check,
            "severity": self.severity,
            "message": self.message,
        }
        if self.addr is not None:
            out["addr"] = self.addr
        if self.line is not None:
            out["line"] = self.line
        if self.instr is not None:
            out["instr"] = self.instr
        if self.function is not None:
            out["function"] = self.function
        if self.suggestion is not None:
            out["suggestion"] = self.suggestion
        return out

    def render(self) -> str:
        location = f"line {self.line}" if self.line is not None else (
            f"{self.addr:#x}" if self.addr is not None else "program")
        text = f"{location}: {self.severity}: [{self.check}] {self.message}"
        if self.instr:
            text += f"  <{self.instr}>"
        if self.suggestion:
            text += f"  (suggestion: {self.suggestion})"
        return text


@dataclass
class LintConfig:
    """Which checks run and which findings surface."""

    disabled: Set[str] = field(default_factory=set)
    min_severity: str = "note"
    #: Abstract-interpretation assumptions for the absint-backed checks
    #: (``None`` uses the defaults; set ``error_budget`` to arm
    #: ``error-budget-exceeded``).
    absint: Optional[AbsintConfig] = None

    def wants(self, check: str) -> bool:
        return check not in self.disabled


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[LintFinding]
    cfg: CFG
    elapsed: float = 0.0

    def by_check(self, check: str) -> List[LintFinding]:
        return [f for f in self.findings if f.check == check]

    def errors(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def warnings(self) -> List[LintFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    def max_severity(self) -> Optional[str]:
        worst = None
        for finding in self.findings:
            if worst is None or severity_at_least(finding.severity, worst):
                worst = finding.severity
        return worst

    def to_payload(self) -> Dict[str, object]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.check] = counts.get(finding.check, 0) + 1
        return {
            "findings": [f.to_dict() for f in self.findings],
            "counts": counts,
            "blocks": len(self.cfg.blocks),
            "entries": [hex(e) for e in self.cfg.entries],
        }

    def render_text(self) -> str:
        if not self.findings:
            return "no findings"
        return "\n".join(f.render() for f in self.findings)


# ----------------------------------------------------------------------
# Shared per-run context
# ----------------------------------------------------------------------
class _Context:
    """Analyses solved once and shared by every check."""

    def __init__(self, cfg: CFG, vector_report=None,
                 absint_config: Optional[AbsintConfig] = None):
        self.cfg = cfg
        self.vector_report = vector_report
        self.absint_config = absint_config
        self._absint_risks: Optional[List[Risk]] = None
        self.reachable = cfg.reachable()
        self.loops = cfg.natural_loops()
        rdefs_solution = ReachingDefs().solve(cfg)
        fmt_solution = FormatTracking().solve(cfg)
        uninit_solution = MaybeUninitialized().solve(cfg)
        self.live_solution = Liveness().solve(cfg)
        # Per-site snapshots (programs here are small; materialize all).
        self.defs_at: Dict[int, Dict[int, FrozenSet[int]]] = {}
        self.fmts_at: Dict[int, FormatMap] = {}
        self.uninit_at: Dict[int, FrozenSet[int]] = {}
        self.site_at: Dict[int, Site] = {}
        for start, block in cfg.blocks.items():
            for site in block.sites:
                self.site_at[site.addr] = site
            ReachingDefs.at_each_site(
                block, rdefs_solution[start][0],
                lambda site, defs: self.defs_at.__setitem__(
                    site.addr, dict(defs)))
            FormatTracking.at_each_site(
                block, fmt_solution[start][0],
                lambda site, fmts: self.fmts_at.__setitem__(
                    site.addr, dict(fmts)))
            MaybeUninitialized.at_each_site(
                block, uninit_solution[start][0],
                lambda site, regs: self.uninit_at.__setitem__(
                    site.addr, regs))

    def absint_risks(self) -> List[Risk]:
        """Risks from the abstract interpreter, solved on first use."""
        if self._absint_risks is None:
            result = analyze_cfg(self.cfg, self.absint_config)
            self._absint_risks = collect_risks(result, self.reachable)
        return self._absint_risks

    def describe(self, site: Site) -> Tuple[Optional[int], Optional[str],
                                            Optional[str]]:
        text = None
        if site.instr is not None:
            text = format_instr(site.instr, site.addr)
        return site.line, text, self.cfg.function_of(site.addr)

    def finding(self, check: str, severity: str, message: str, site: Site,
                suggestion: Optional[str] = None) -> LintFinding:
        line, text, function = self.describe(site)
        return LintFinding(check=check, severity=severity, message=message,
                           addr=site.addr, line=line, instr=text,
                           function=function, suggestion=suggestion)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def _check_use_before_def(ctx: _Context) -> List[LintFinding]:
    findings = []
    seen: Set[Tuple[int, int]] = set()
    for start in ctx.cfg.order:
        if start not in ctx.reachable:
            continue
        for site in ctx.cfg.blocks[start].sites:
            if site.instr is None:
                continue
            maybe = ctx.uninit_at.get(site.addr, frozenset())
            for reg in regs_read(site.instr):
                if reg not in maybe or (site.addr, reg) in seen:
                    continue
                # A store of a callee-saved register in the entry block
                # is the standard prologue spill; not a bug.
                if site.shape == "store" and reg in CALLEE_SAVED \
                        and reg == site.instr.rs2:
                    continue
                seen.add((site.addr, reg))
                severity = "warning" if reg in CALLEE_SAVED else "error"
                findings.append(ctx.finding(
                    "use-before-def", severity,
                    f"register {xreg_name(reg)} may be read before it is "
                    f"written on a path from the function entry",
                    site))
    return findings


_SIGN_KINDS = {"fsgnj", "fsgnjn", "fsgnjx", "vfsgnj", "vfsgnjn", "vfsgnjx"}


def _check_format_mismatch(ctx: _Context) -> List[LintFinding]:
    findings = []
    for start in ctx.cfg.order:
        if start not in ctx.reachable:
            continue
        for site in ctx.cfg.blocks[start].sites:
            if site.instr is None:
                continue
            expected = operand_formats(site.instr)
            if not expected:
                continue
            fmts = ctx.fmts_at.get(site.addr, {})
            for reg, (elem_exp, vec_exp) in expected.items():
                actual = fmts.get(reg)
                if actual is None:
                    continue  # unknown provenance: no evidence
                elem_act, vec_act = actual
                if elem_act != elem_exp:
                    severity = ("warning" if site.kind in _SIGN_KINDS
                                else "error")
                    findings.append(ctx.finding(
                        "format-mismatch", severity,
                        f"register {xreg_name(reg)} holds a "
                        f"{_fmt_name(elem_act)} (.{elem_act}) value but "
                        f"{site.mnemonic} consumes it as "
                        f"{_fmt_name(elem_exp)} (.{elem_exp}) with no "
                        f"conversion in between",
                        site,
                        suggestion=f"fcvt.{elem_exp}.{elem_act} "
                                   f"{xreg_name(reg)}, {xreg_name(reg)}"))
                elif vec_exp and not vec_act:
                    findings.append(ctx.finding(
                        "format-mismatch", "warning",
                        f"scalar .{elem_act} value in {xreg_name(reg)} is "
                        f"consumed as a packed vector by {site.mnemonic}; "
                        f"lanes above 0 are stale",
                        site,
                        suggestion=f"vfcpka.{elem_exp}.s or the replicating "
                                   f".r variant"))
    return findings


_ACC_SCALAR = {"fadd", "fmadd"}
_ACC_VECTOR = {"vfadd", "vfmac"}


def _check_narrow_accumulation(ctx: _Context) -> List[LintFinding]:
    findings = []
    seen: Set[int] = set()
    loop_blocks: Set[int] = set()
    for loop in ctx.loops:
        loop_blocks |= loop.body
    for start in sorted(loop_blocks):
        if start not in ctx.reachable or start not in ctx.cfg.blocks:
            continue
        for site in ctx.cfg.blocks[start].sites:
            instr = site.instr
            if instr is None or site.addr in seen:
                continue
            fmt = instr.spec.fp_fmt
            if not _narrow(fmt):
                continue
            kind = instr.spec.kind
            accumulates = (
                (kind == "fadd" and instr.rd in (instr.rs1, instr.rs2))
                or (kind == "fmadd" and instr.rd == instr.rs3)
                or (kind == "vfadd" and instr.rd in (instr.rs1, instr.rs2))
                or kind == "vfmac"
            )
            if not accumulates:
                continue
            seen.add(site.addr)
            # Vector context (a packed product feeds the accumulation, or
            # the accumulation itself is packed) points at the expanding
            # SIMD dot product; scalar context at fmacex.
            vector_context = bool(instr.spec.vec)
            if not vector_context and kind == "fadd":
                other = instr.rs2 if instr.rd == instr.rs1 else instr.rs1
                for def_addr in ctx.defs_at.get(site.addr, {}).get(
                        other, frozenset()):
                    def_site = ctx.site_at.get(def_addr)
                    if def_site is not None and def_site.instr is not None \
                            and def_site.instr.spec.vec:
                        vector_context = True
                        break
            suggestion = (f"vfdotpex.s.{fmt}" if vector_context
                          else f"fmacex.s.{fmt}")
            findings.append(ctx.finding(
                "narrow-accumulation", "warning",
                f"loop accumulates in {_fmt_name(fmt)} (.{fmt}); summing "
                f"products in a {_width(fmt)}-bit format silently loses "
                f"precision -- the expanding {suggestion} accumulates in "
                f"binary32 instead",
                site, suggestion=suggestion))
        # NN idiom: a binary32 accumulation fed by widened narrow
        # products (fmul.<narrow> -> fcvt.s.<narrow> -> fadd.s, or the
        # unpack-a-lane variant vfmul -> srli -> fcvt -> fadd).  The
        # accumulator itself is wide, so precision is mostly fine -- but
        # each narrow fmul still rounds its product before widening, and
        # the expanding ops fuse the whole step with one rounding.
        for site in ctx.cfg.blocks[start].sites:
            instr = site.instr
            if instr is None or site.addr in seen:
                continue
            spec = instr.spec
            if (spec.kind != "fadd" or spec.vec or spec.fp_fmt != "s"
                    or instr.rd not in (instr.rs1, instr.rs2)):
                continue
            other = instr.rs2 if instr.rd == instr.rs1 else instr.rs1
            src_fmt = None
            vector_product = False
            scalar_product = False
            for def_addr in ctx.defs_at.get(site.addr, {}).get(
                    other, frozenset()):
                cvt = ctx.site_at.get(def_addr)
                ci = cvt.instr if cvt is not None else None
                if (ci is None or ci.spec.kind != "fcvt_f2f"
                        or ci.spec.fp_fmt != "s"
                        or not _narrow(ci.spec.src_fmt)):
                    continue
                src_fmt = ci.spec.src_fmt
                # What feeds the widening convert: a scalar narrow
                # product, or an unpacked lane of a packed one?
                for paddr in ctx.defs_at.get(cvt.addr, {}).get(
                        ci.rs1, frozenset()):
                    psite = ctx.site_at.get(paddr)
                    pi = psite.instr if psite is not None else None
                    if pi is None:
                        continue
                    if pi.spec.kind == "fmul" and not pi.spec.vec \
                            and pi.spec.fp_fmt == src_fmt:
                        scalar_product = True
                    elif pi.spec.vec:
                        vector_product = True
                    elif pi.spec.kind in ("srli", "srl"):
                        for saddr in ctx.defs_at.get(psite.addr, {}).get(
                                pi.rs1, frozenset()):
                            ssite = ctx.site_at.get(saddr)
                            si = ssite.instr if ssite is not None else None
                            if si is not None and si.spec.vec:
                                vector_product = True
                                break
            if src_fmt is None or not (scalar_product or vector_product):
                continue
            seen.add(site.addr)
            if vector_product:
                suggestion = f"vfdotpex.s.{src_fmt}"
                detail = (f"a packed vfmul.{src_fmt} product is unpacked "
                          f"and widened lane by lane before the add")
            else:
                suggestion = f"fmacex.s.{src_fmt}"
                detail = (f"fmul.{src_fmt} rounds each product to "
                          f"{_width(src_fmt)} bits before fcvt.s.{src_fmt} "
                          f"widens it")
            extra = ""
            if vector_product and any(f.has_block_dotp
                                      for f in registry.all_formats()):
                extra = ("; block-scaled formats can fuse whole "
                         "shared-exponent blocks with vfdotpmx.s.mx")
            findings.append(ctx.finding(
                "narrow-accumulation", "note",
                f"loop accumulates widened {_fmt_name(src_fmt)} "
                f"(.{src_fmt}) products in binary32: {detail} -- the "
                f"expanding {suggestion} fuses multiply, widen and "
                f"accumulate with a single rounding{extra}",
                site, suggestion=suggestion))
            break  # one finding per block (lane unpacks repeat the idiom)
    return findings


def _check_dead_write(ctx: _Context) -> List[LintFinding]:
    findings = []
    for start in ctx.cfg.order:
        if start not in ctx.reachable:
            continue
        block = ctx.cfg.blocks[start]
        live_out = ctx.live_solution[start][0]
        dead: List[Tuple[Site, int]] = []

        def visit(site: Site, live_after: FrozenSet[int]) -> None:
            if site.instr is None or site.instr.spec.cf is not None:
                return
            for reg in regs_written(site.instr):
                if reg not in live_after:
                    dead.append((site, reg))

        Liveness.at_each_site(block, live_out, visit)
        for site, reg in reversed(dead):
            findings.append(ctx.finding(
                "dead-write", "warning",
                f"value written to {xreg_name(reg)} by {site.mnemonic} is "
                f"never read",
                site))
    return findings


def _check_redundant_convert(ctx: _Context) -> List[LintFinding]:
    findings = []
    for start in ctx.cfg.order:
        if start not in ctx.reachable:
            continue
        for site in ctx.cfg.blocks[start].sites:
            instr = site.instr
            if instr is None or instr.spec.kind not in ("fcvt_f2f",
                                                        "vfcvt_f2f"):
                continue
            dst = instr.spec.fp_fmt
            src = instr.spec.src_fmt
            defs = ctx.defs_at.get(site.addr, {}).get(instr.rs1, frozenset())
            if not defs:
                continue
            round_trip = True
            for def_addr in defs:
                def_site = ctx.site_at.get(def_addr)
                def_instr = def_site.instr if def_site else None
                if def_instr is None or \
                        def_instr.spec.kind not in ("fcvt_f2f",
                                                    "vfcvt_f2f") or \
                        def_instr.spec.src_fmt != dst or \
                        def_instr.spec.fp_fmt != src:
                    round_trip = False
                    break
            if not round_trip:
                continue
            lossless = _width(src) >= _width(dst)
            flavor = ("a lossless round-trip: the second conversion is "
                      "pure overhead" if lossless else
                      "a LOSSY round-trip: the value was already rounded "
                      f"to {_fmt_name(src)}")
            findings.append(ctx.finding(
                "redundant-convert", "warning",
                f"fcvt .{dst} -> .{src} -> .{dst} is {flavor}",
                site,
                suggestion="keep the original register alive instead of "
                           "converting back"))
    return findings


def _block_constants(block) -> Dict[int, Dict[int, int]]:
    """Block-local constant propagation: site addr -> reg -> value.

    Tracks only ``lui``/``addi`` chains -- exactly the ``la``/``li``
    expansion shapes the assembler emits for address formation.
    """
    consts: Dict[int, int] = {}
    at: Dict[int, Dict[int, int]] = {}
    for site in block.sites:
        at[site.addr] = dict(consts)
        instr = site.instr
        if instr is None:
            consts.clear()
            continue
        kind = instr.spec.kind
        if kind == "lui":
            consts[instr.rd] = (instr.imm << 12) & 0xFFFFFFFF
        elif kind == "addi":
            if instr.rs1 == 0:
                consts[instr.rd] = instr.imm & 0xFFFFFFFF
            elif instr.rs1 in consts:
                consts[instr.rd] = (consts[instr.rs1] + instr.imm) \
                    & 0xFFFFFFFF
            else:
                consts.pop(instr.rd, None)
        else:
            for reg in regs_written(instr):
                consts.pop(reg, None)
    return at


def _check_uninitialized_load(ctx: _Context) -> List[LintFinding]:
    program = ctx.cfg.program
    if not program.reserved:
        return []
    ranges = [(base, base + size) for base, size in program.reserved]

    def reserved_range(addr: int) -> Optional[Tuple[int, int]]:
        for lo, hi in ranges:
            if lo <= addr < hi:
                return (lo, hi)
        return None

    # First sweep: every statically resolvable store target.
    stored_into: Set[Tuple[int, int]] = set()
    loads: List[Tuple[Site, int, Tuple[int, int]]] = []
    for start in ctx.cfg.order:
        if start not in ctx.reachable:
            continue
        block = ctx.cfg.blocks[start]
        consts = _block_constants(block)
        for site in block.sites:
            instr = site.instr
            if instr is None:
                continue
            base = consts.get(site.addr, {}).get(instr.rs1)
            if base is None:
                continue
            addr = (base + instr.imm) & 0xFFFFFFFF
            hit = reserved_range(addr)
            if hit is None:
                continue
            if site.shape == "store":
                stored_into.add(hit)
            elif site.shape == "load":
                loads.append((site, addr, hit))
    findings = []
    symbol_of = {addr: name for name, addr in program.symbols.items()}
    for site, addr, hit in loads:
        if hit in stored_into:
            continue
        label = symbol_of.get(hit[0])
        where = f"{addr:#x}" + (f" ({label})" if label else "")
        findings.append(ctx.finding(
            "uninitialized-load", "warning",
            f"load from {where}: the bytes were reserved with .space and "
            f"no store in the program initializes them (reads as zero)",
            site))
    return findings


_SCALAR_FP_ARITH = {"fadd", "fsub", "fmul", "fdiv", "fsqrt", "fmin", "fmax",
                    "fmadd", "fmsub", "fnmadd", "fnmsub"}


def _check_missed_vectorization(ctx: _Context) -> List[LintFinding]:
    findings = []
    report = ctx.vector_report
    if report is not None:
        if getattr(report, "rejected_loops", 0):
            findings.append(LintFinding(
                check="missed-vectorization", severity="note",
                message=(f"the auto-vectorizer rejected "
                         f"{report.rejected_loops} loop(s); rewriting them "
                         f"as stride-1 straight-line bodies would let the "
                         f"pass emit packed Xfvec code"),
            ))
        # With a report in hand, the remaining scalar smallFloat loops
        # are the pass's own epilogues -- flagging them would be noise.
        return findings
    flagged: Set[int] = set()
    for loop in ctx.loops:
        scalar_site: Optional[Site] = None
        scalar_fmt: Optional[str] = None
        has_vector = False
        has_widen = False
        has_wide_acc = False
        for start in sorted(loop.body):
            block = ctx.cfg.blocks.get(start)
            if block is None:
                continue
            for site in block.sites:
                if site.instr is None:
                    continue
                spec = site.instr.spec
                if spec.vec:
                    has_vector = True
                elif spec.kind in _SCALAR_FP_ARITH and \
                        _narrow_vec(spec.fp_fmt) and scalar_site is None:
                    scalar_site = site
                    scalar_fmt = spec.fp_fmt
                elif spec.kind == "fcvt_f2f" and spec.fp_fmt == "s" \
                        and _narrow(spec.src_fmt):
                    has_widen = True
                elif spec.kind == "fadd" and spec.fp_fmt == "s" and \
                        site.instr.rd in (site.instr.rs1, site.instr.rs2):
                    has_wide_acc = True
        if scalar_site is not None and not has_vector \
                and scalar_site.addr not in flagged:
            flagged.add(scalar_site.addr)
            lanes = 32 // _width(scalar_fmt)
            if has_widen and has_wide_acc:
                # The NN reduction idiom (multiply, widen, accumulate in
                # binary32): the expanding SIMD dot product does the
                # whole chain over `lanes` elements in one instruction.
                extra = ""
                if any(f.has_block_dotp for f in registry.all_formats()):
                    extra = (", and block-scaled formats fuse whole "
                             "shared-exponent blocks with vfdotpmx.s.mx")
                findings.append(ctx.finding(
                    "missed-vectorization", "note",
                    f"loop is a scalar {_fmt_name(scalar_fmt)} "
                    f"multiply-widen-accumulate reduction; "
                    f"vfdotpex.s.{scalar_fmt} does the same over {lanes} "
                    f"packed elements with one rounding{extra}",
                    scalar_site,
                    suggestion=f"vfdotpex.s.{scalar_fmt} (or compile with "
                               f"vectorize_loops=True, "
                               f"expanding_reductions=True)"))
                continue
            findings.append(ctx.finding(
                "missed-vectorization", "note",
                f"loop performs scalar {_fmt_name(scalar_fmt)} arithmetic; "
                f"packed-SIMD Xfvec processes {lanes} .{scalar_fmt} "
                f"elements per instruction on this 32-bit datapath",
                scalar_site,
                suggestion=f"vfadd.{scalar_fmt}/vfmul.{scalar_fmt}/"
                           f"vfmac.{scalar_fmt} (or compile with "
                           f"vectorize_loops=True)"))
    return findings


def _check_unreachable(ctx: _Context) -> List[LintFinding]:
    findings = []
    for block in ctx.cfg.unreachable_blocks():
        first = block.sites[0]
        count = len(block.sites)
        findings.append(ctx.finding(
            "unreachable-code", "note",
            f"basic block at {block.start:#x} ({count} instruction"
            f"{'s' if count != 1 else ''}) is unreachable from every entry "
            f"point",
            first))
    return findings


# ----------------------------------------------------------------------
# Abstract-interpretation-backed checks (repro.analysis.absint)
# ----------------------------------------------------------------------
def _absint_findings(ctx: _Context, risk_kind: str, check: str,
                     severity: str) -> List[LintFinding]:
    return [ctx.finding(check, severity, risk.message, risk.site,
                        suggestion=risk.suggestion)
            for risk in ctx.absint_risks() if risk.kind == risk_kind]


def _check_overflow_to_inf(ctx: _Context) -> List[LintFinding]:
    return _absint_findings(ctx, "overflow", "overflow-to-inf-risk",
                            "warning")


def _check_underflow_flush(ctx: _Context) -> List[LintFinding]:
    return _absint_findings(ctx, "underflow", "underflow-flush-risk",
                            "note")


def _check_cancellation(ctx: _Context) -> List[LintFinding]:
    return _absint_findings(ctx, "cancellation",
                            "catastrophic-cancellation", "note")


def _check_error_budget(ctx: _Context) -> List[LintFinding]:
    # Only produces findings when an error budget is configured.
    return _absint_findings(ctx, "budget", "error-budget-exceeded",
                            "error")


_CHECK_FNS = {
    "use-before-def": _check_use_before_def,
    "format-mismatch": _check_format_mismatch,
    "narrow-accumulation": _check_narrow_accumulation,
    "dead-write": _check_dead_write,
    "redundant-convert": _check_redundant_convert,
    "uninitialized-load": _check_uninitialized_load,
    "missed-vectorization": _check_missed_vectorization,
    "unreachable-code": _check_unreachable,
    "overflow-to-inf-risk": _check_overflow_to_inf,
    "underflow-flush-risk": _check_underflow_flush,
    "catastrophic-cancellation": _check_cancellation,
    "error-budget-exceeded": _check_error_budget,
}


# ----------------------------------------------------------------------
# Suppressions and the driver
# ----------------------------------------------------------------------
def parse_suppressions(source: str) -> Dict[int, Optional[Set[str]]]:
    """``# lint: ignore[...]`` markers per 1-based source line."""
    out: Dict[int, Optional[Set[str]]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            out[line_no] = None  # suppress everything on the line
        else:
            names = {part.strip() for part in match.group(1).split(",")
                     if part.strip()}
            out[line_no] = names
    return out


def _suppressed(finding: LintFinding,
                suppressions: Dict[int, Optional[Set[str]]]) -> bool:
    if finding.line is None or finding.line not in suppressions:
        return False
    names = suppressions[finding.line]
    return names is None or finding.check in names


def lint_program(
    program: Program,
    entries: Optional[Sequence[Union[str, int]]] = None,
    vector_report=None,
    source: Optional[str] = None,
    config: Optional[LintConfig] = None,
) -> LintResult:
    """Run every enabled check over an assembled program.

    ``entries`` are the program's entry symbols (inferred when omitted);
    ``vector_report`` is the compiler's :class:`VectorizeReport` when
    the program came from :func:`compile_source`; ``source`` is the
    assembly text, used only for ``# lint: ignore`` suppressions.
    """
    started = time.monotonic()
    config = config or LintConfig()
    cfg = build_cfg(program, entries=entries)
    ctx = _Context(cfg, vector_report=vector_report,
                   absint_config=config.absint)
    suppressions = parse_suppressions(source) if source else {}
    findings: List[LintFinding] = []
    for check in CHECKS:
        if not config.wants(check):
            continue
        for finding in _CHECK_FNS[check](ctx):
            if _suppressed(finding, suppressions):
                continue
            if severity_at_least(finding.severity, config.min_severity):
                findings.append(finding)
    order = {check: index for index, check in enumerate(CHECKS)}
    findings.sort(key=lambda f: (-SEVERITIES.index(f.severity),
                                 f.line or 0, order.get(f.check, 99)))
    return LintResult(findings=findings, cfg=cfg,
                      elapsed=time.monotonic() - started)
