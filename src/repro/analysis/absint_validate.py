"""Dynamic validation of the abstract interpreter's bounds.

``repro analyze --validate`` replays a kernel under the reference
simulator with a per-instruction observer that maintains a **binary64
shadow** of every tracked FP register (the "exact" computation the
error bounds are measured against) and, at every FP-producing site,
checks the concrete machine result against the statically computed
:class:`~repro.analysis.absint.AbsVal`:

* a finite concrete value must lie inside ``[lo, hi]`` (plus binary64
  slack);
* an infinite result requires ``can_inf``; a NaN requires ``can_nan``;
* ``|concrete - shadow|`` must stay within the static error bound
  ``err`` whenever all three are finite.

The analysis' assumptions (its *soundness contract*) are checked, not
trusted: operands the analysis resolved via the input contract are
verified to be finite with magnitude at most ``input_bound`` (and the
shadow is reseeded from the concrete bits there, mirroring the
analysis' zero-error assumption); integer sources of int->float
conversions are checked against ``max(input_bound, trip_bound)``; and
loop trip counts are checked against ``trip_bound`` after the run.

Any escape is a :class:`BoundViolation` -- an unsound bound is a hard
failure, never a warning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fp import registry
from ..fp.convert import to_double
from ..kernels import KERNELS
from .absint import AbsintConfig, AbsintResult, SiteAbsState, analyze_program
from .dataflow import Format, operand_formats, regs_written, result_format

_FLEN = 32

#: ftypes the committed baseline matrix validates (the smallFloat ones;
#: ``float`` is the golden reference, not a verification target).
VALIDATION_FTYPES: Tuple[str, ...] = ("float16", "float16alt", "float8")

#: Stop recording (but keep counting) violations past this many.
_MAX_RECORDED = 50

#: Relative slack for binary64 shadow drift and outward-rounding ties.
_REL_SLACK = 1e-9


@dataclass
class BoundViolation:
    """One dynamically observed escape from a static bound."""

    kind: str  # value-escape | inf-escape | nan-escape | error-escape
    #          | input-contract | int-contract | trip-contract
    addr: int
    line: Optional[int]
    mnemonic: str
    detail: str
    lane: Optional[int] = None

    def render(self) -> str:
        where = f"line {self.line}" if self.line is not None \
            else f"{self.addr:#x}"
        lane = f" lane {self.lane}" if self.lane is not None else ""
        return f"{where}: {self.mnemonic}{lane}: [{self.kind}] {self.detail}"


def _fdiv(a: float, b: float) -> float:
    if math.isnan(a) or math.isnan(b):
        return float("nan")
    if b == 0.0:
        if a == 0.0:
            return float("nan")
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(float("inf"), sign)
    return a / b


def _fsqrt(a: float) -> float:
    if math.isnan(a) or a < 0.0:
        return float("nan")
    return math.sqrt(a)


class AbsintObserver:
    """Per-instruction step hook checking static bounds on the fly.

    Pass one as ``run_kernel(..., injector=observer)`` and call
    :meth:`finish` after a normal halt (the simulator's hook fires
    *before* each fetch, so the final instruction's result is only
    visible after the run ends).  The static analysis is built lazily
    from ``sim.program`` on the first step, which guarantees the
    validated CFG is exactly the program being executed.
    """

    def __init__(self, config: Optional[AbsintConfig] = None,
                 result: Optional[AbsintResult] = None):
        self.config = config or AbsintConfig()
        self.result = result
        self.violations: List[BoundViolation] = []
        self.violation_count = 0
        self.checked_values = 0
        self.checked_sites = 0
        self._sites: Dict[int, SiteAbsState] = \
            {} if result is None else dict(result.sites)
        #: reg -> (format the shadow was produced under, per-lane f64).
        self._shadow: Dict[int, Tuple[Format, List[float]]] = {}
        self._pending = None
        self._machine = None

    # ------------------------------------------------------------------
    # Step hook protocol
    # ------------------------------------------------------------------
    def __call__(self, sim, executed: int) -> None:
        machine = sim.machine
        self._machine = machine
        if self.result is None:
            self.result = analyze_program(sim.program,
                                          config=self.config)
            self._sites = dict(self.result.sites)
        self._finalize(machine)
        state = self._sites.get(machine.pc)
        if state is None or state.site.instr is None:
            self._shadow.clear()  # off the analysed map: drop all facts
            return
        instr = state.site.instr
        capture: Dict[int, List[float]] = {}
        for reg, fmt in operand_formats(instr).items():
            capture[reg] = self._operand_lanes(
                machine, reg, fmt, reg in state.contract_regs, state)
        extra = None
        kind = instr.spec.kind
        if kind == "fcvt_f_w":
            extra = float(machine.read_x_signed(instr.rs1))
            self._check_int_contract(state, extra)
        elif kind == "fcvt_f_wu":
            extra = float(machine.read_x(instr.rs1))
            self._check_int_contract(state, extra)
        elif kind == "vfcvt_f_x":
            width = registry.by_suffix(instr.spec.fp_fmt).width
            bits = machine.read_f(instr.rs1)
            mask = (1 << width) - 1
            extra = []
            for i in range(_FLEN // width):
                lane = (bits >> (i * width)) & mask
                if lane >= 1 << (width - 1):
                    lane -= 1 << width
                extra.append(float(lane))
        elif kind in ("vfcpka", "vfcpkb"):
            extra = self._operand_lanes(
                machine, instr.rd, (instr.spec.fp_fmt, True), False, state)
        self._pending = (state, instr, capture, extra)

    def finish(self) -> None:
        """Finalize the last instruction after a normal halt."""
        if self._machine is not None:
            self._finalize(self._machine)

    # ------------------------------------------------------------------
    # Operand resolution (mirrors ``absint._resolve``)
    # ------------------------------------------------------------------
    def _decode_lanes(self, machine, reg: int, fmt: Format) -> List[float]:
        ffmt = registry.by_suffix(fmt[0])
        if fmt[1]:
            # Format hook: packed lanes for SIMD formats, a decoded
            # shared-scale block for block formats like MX8.
            return ffmt.decode_lanes(machine.read_f(reg), _FLEN)
        return [to_double(machine.read_f(reg, ffmt.width), ffmt)]

    def _operand_lanes(self, machine, reg: int, fmt: Format,
                       is_contract: bool,
                       state: SiteAbsState) -> List[float]:
        if is_contract:
            lanes = self._decode_lanes(machine, reg, fmt)
            bound = min(self.config.input_bound,
                        registry.by_suffix(fmt[0]).max_value)
            limit = bound * (1.0 + 1e-6)
            for i, v in enumerate(lanes):
                if not math.isfinite(v) or abs(v) > limit:
                    self._record(
                        state, "input-contract", lane=i,
                        detail=(f"operand f{reg} = {v!r} violates the "
                                f"input contract |v| <= {bound:g}"))
            self._shadow[reg] = (fmt, list(lanes))
            return lanes
        tagged = self._shadow.get(reg)
        if tagged is not None and tagged[0][0] == fmt[0]:
            tfmt, tlanes = tagged
            ffmt = registry.by_suffix(fmt[0])
            if fmt[1] and not tfmt[1]:
                # Scalar consumed as vector: narrow writes zero-extend.
                return [tlanes[0]] + [0.0] * (_FLEN // ffmt.width - 1)
            if not fmt[1] and tfmt[1]:
                return [tlanes[0]]
            return list(tlanes)
        # No matching shadow (format reinterpretation, raw-bits write):
        # reseed from the concrete bits -- the analysis used top there.
        return self._decode_lanes(machine, reg, fmt)

    def _check_int_contract(self, state: SiteAbsState, value: float) -> None:
        bound = float(max(self.config.input_bound, self.config.trip_bound))
        if abs(value) > bound:
            self._record(
                state, "int-contract",
                detail=(f"int->float source {value:g} violates the "
                        f"assumed integer magnitude bound {bound:g}"))

    # ------------------------------------------------------------------
    # Result finalization and checking
    # ------------------------------------------------------------------
    def _finalize(self, machine) -> None:
        pending, self._pending = self._pending, None
        if pending is None:
            return
        state, instr, capture, extra = pending
        fmt = result_format(instr)
        if fmt is None:
            # Integer/raw-bits/unknown result: the shadow is stale.
            for reg in regs_written(instr):
                self._shadow.pop(reg, None)
            return
        aval = state.result
        if aval is None:  # pragma: no cover - defensive
            self._shadow.pop(instr.rd, None)
            return
        self.checked_sites += 1
        concrete = self._decode_lanes(machine, instr.rd, fmt)
        shadows = self._shadow_result(instr, capture, extra, concrete,
                                      len(concrete))
        for i, v in enumerate(concrete):
            self.checked_values += 1
            s = shadows[i]
            if math.isnan(v):
                if not aval.can_nan:
                    self._record(state, "nan-escape", lane=i,
                                 detail="concrete NaN but can_nan=False")
            elif math.isinf(v):
                if not aval.can_inf:
                    self._record(state, "inf-escape", lane=i,
                                 detail="concrete inf but can_inf=False")
            else:
                slack = _REL_SLACK * (abs(v) + 1.0)
                if not (aval.lo - slack <= v <= aval.hi + slack):
                    self._record(
                        state, "value-escape", lane=i,
                        detail=(f"{v:g} outside "
                                f"[{aval.lo:g}, {aval.hi:g}]"))
                if math.isfinite(s) and math.isfinite(aval.err):
                    err_slack = _REL_SLACK * (abs(v) + abs(s) + 1.0)
                    if abs(v - s) > aval.err + err_slack:
                        self._record(
                            state, "error-escape", lane=i,
                            detail=(f"|{v:g} - shadow {s:g}| = "
                                    f"{abs(v - s):g} exceeds the error "
                                    f"bound {aval.err:g}"))
            if not math.isfinite(v) or not math.isfinite(s):
                shadows[i] = v  # reseed: error tracking restarts here
        self._shadow[instr.rd] = (fmt, shadows)

    def _shadow_result(self, instr, capture, extra,
                       concrete: List[float], n: int) -> List[float]:
        kind = instr.spec.kind

        def lanes(reg: int, count: int = 0) -> List[float]:
            got = capture.get(reg)
            count = count or n
            if got is None:  # pragma: no cover - defensive
                return list(concrete[:count])
            if len(got) < count:
                return [got[0]] * count  # .r replicated scalar
            return got[:count]

        if kind in ("fcvt_f_w", "fcvt_f_wu"):
            return [extra]
        if kind == "vfcvt_f_x":
            return list(extra[:n])
        if kind in ("fcvt_f2f", "vfcvt_f2f"):
            return lanes(instr.rs1)  # value unchanged in exact arithmetic
        if kind in ("vfcpka", "vfcpkb"):
            out = list(extra[:n])
            base = 0 if kind == "vfcpka" else 2
            a, b = lanes(instr.rs1, 1), lanes(instr.rs2, 1)
            if base < n:
                out[base] = a[0]
            if base + 1 < n:
                out[base + 1] = b[0]
            return out
        if kind in ("fsqrt", "vfsqrt"):
            return [_fsqrt(x) for x in lanes(instr.rs1)]
        if kind == "fmulex":
            a, b = lanes(instr.rs1, 1), lanes(instr.rs2, 1)
            return [a[0] * b[0]]
        if kind == "fmacex":
            a, b = lanes(instr.rs1, 1), lanes(instr.rs2, 1)
            acc = lanes(instr.rd, 1)
            return [acc[0] + a[0] * b[0]]
        if kind == "vfdotpex":
            src = instr.spec.src_fmt or instr.spec.fp_fmt
            count = _FLEN // registry.by_suffix(src).width
            a = lanes(instr.rs1, count)
            b = lanes(instr.rs2, count)
            acc = lanes(instr.rd, 1)
            return [acc[0] + math.fsum(x * y for x, y in zip(a, b))]
        if kind == "vfdotpmx":
            src = instr.spec.src_fmt or instr.spec.fp_fmt
            count = max(1, (_FLEN - 8) // registry.by_suffix(src).width)
            a = lanes(instr.rs1, count)
            b = lanes(instr.rs2, count)
            acc = lanes(instr.rd, 1)
            return [acc[0] + math.fsum(x * y for x, y in zip(a, b))]
        if kind in ("fmadd", "fmsub", "fnmsub", "fnmadd"):
            a, b, c = (lanes(instr.rs1, 1), lanes(instr.rs2, 1),
                       lanes(instr.rs3, 1))
            p = a[0] * b[0]
            if kind in ("fnmsub", "fnmadd"):
                p = -p
            addend = c[0] if kind in ("fmadd", "fnmsub") else -c[0]
            return [p + addend]
        if kind == "vfmac":
            a, b, acc = (lanes(instr.rs1), lanes(instr.rs2),
                         lanes(instr.rd))
            return [acc[i] + a[i] * b[i] for i in range(n)]

        base = kind[2:] if kind.startswith("vf") else kind[1:]
        a = lanes(instr.rs1)
        b = lanes(instr.rs2) if instr.rs2 is not None else a
        if base == "add":
            return [a[i] + b[i] for i in range(n)]
        if base == "sub":
            return [a[i] - b[i] for i in range(n)]
        if base == "mul":
            return [a[i] * b[i] for i in range(n)]
        if base == "div":
            return [_fdiv(a[i], b[i]) for i in range(n)]
        if base in ("min", "max"):
            pick = min if base == "min" else max
            return [concrete[i] if math.isnan(a[i]) or math.isnan(b[i])
                    else pick(a[i], b[i]) for i in range(n)]
        if base in ("sgnj", "sgnjn", "sgnjx"):
            return [math.copysign(abs(a[i]), concrete[i])
                    if not math.isnan(a[i]) else concrete[i]
                    for i in range(n)]
        # Unknown FP kind: trust the machine (reseed from concrete).
        return list(concrete)  # pragma: no cover - future kinds

    def _record(self, state: SiteAbsState, kind: str, detail: str,
                lane: Optional[int] = None) -> None:
        self.violation_count += 1
        if len(self.violations) < _MAX_RECORDED:
            self.violations.append(BoundViolation(
                kind=kind, addr=state.site.addr, line=state.site.line,
                mnemonic=state.site.mnemonic, detail=detail, lane=lane))


def check_trip_contract(result: AbsintResult, trace,
                        config: AbsintConfig) -> List[BoundViolation]:
    """Post-run check that no loop exceeded the assumed trip bound.

    Loop entries are over-approximated by the execution counts of the
    non-body predecessors' terminators, so this can only under-report
    -- it is a sanity check on the trip contract, not a proof.
    """
    violations: List[BoundViolation] = []
    cfg = result.cfg
    for loop in cfg.merged_loops():
        header = cfg.blocks[loop.header]
        if not header.sites:
            continue
        executions = trace.executed(header.sites[0].addr)
        entries = 0
        for pred in header.preds:
            if pred in loop.body:
                continue
            last = cfg.blocks[pred].last
            if last is not None:
                entries += trace.executed(last.addr)
        cap = (config.trip_bound + 1) * max(1, entries)
        if executions > cap:
            site = header.sites[0]
            violations.append(BoundViolation(
                kind="trip-contract", addr=site.addr, line=site.line,
                mnemonic=site.mnemonic,
                detail=(f"loop header ran {executions} times over "
                        f"~{max(1, entries)} entries, beyond the "
                        f"assumed bound of {config.trip_bound} "
                        f"iterations per entry")))
    return violations


@dataclass
class ConfigValidation:
    """Validation outcome for one kernel x ftype x mode configuration."""

    kernel: str
    ftype: str
    mode: str
    checked_sites: int
    checked_values: int
    violation_count: int
    violations: List[BoundViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    def render(self) -> str:
        status = "ok" if self.ok else f"{self.violation_count} violation(s)"
        return (f"{self.kernel}/{self.ftype}/{self.mode}: {status} "
                f"({self.checked_values} values at "
                f"{self.checked_sites} site executions)")


@dataclass
class SoundnessReport:
    """Aggregated validation outcomes; unsound bounds are hard failures."""

    configs: List[ConfigValidation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.configs)

    def render_text(self) -> str:
        lines = [c.render() for c in self.configs]
        for c in self.configs:
            for violation in c.violations:
                lines.append(f"  {c.kernel}/{c.ftype}/{c.mode} "
                             + violation.render())
        total = sum(c.checked_values for c in self.configs)
        bad = sum(c.violation_count for c in self.configs)
        verdict = "SOUND" if bad == 0 else "UNSOUND"
        lines.append(f"validation: {verdict} -- {total} checked values, "
                     f"{bad} violation(s) across {len(self.configs)} "
                     f"configuration(s)")
        return "\n".join(lines)


def validate_kernel(name: str, ftype: str, mode: str,
                    config: Optional[AbsintConfig] = None,
                    seed: int = 0, frm: Optional[int] = None,
                    sr_key: int = 0) -> ConfigValidation:
    """Replay one configuration under the observer.

    ``frm``/``sr_key`` select the dynamic rounding mode of the replay
    run (e.g. stochastic rounding); the static verdict's 1-ulp error
    model covers every mode, so soundness must hold for all of them.
    """
    from ..harness.runner import run_kernel  # deferred: heavy import

    config = config or AbsintConfig()
    observer = AbsintObserver(config)
    run = run_kernel(KERNELS[name], ftype, mode, seed=seed,
                     injector=observer, frm=frm, sr_key=sr_key)
    observer.finish()
    violations = list(observer.violations)
    count = observer.violation_count
    trips = check_trip_contract(observer.result, run.trace, config)
    violations.extend(trips)
    count += len(trips)
    return ConfigValidation(
        kernel=name, ftype=ftype, mode=mode,
        checked_sites=observer.checked_sites,
        checked_values=observer.checked_values,
        violation_count=count, violations=violations)


def validate_matrix(kernels: Optional[Sequence[str]] = None,
                    ftypes: Sequence[str] = VALIDATION_FTYPES,
                    config: Optional[AbsintConfig] = None,
                    seed: int = 0) -> SoundnessReport:
    """Replay every buildable kernel x ftype x mode configuration."""
    from ..harness.runner import build_points  # deferred: heavy import

    report = SoundnessReport()
    for name, ftype, mode in build_points(ftypes, kernels):
        report.configs.append(
            validate_kernel(name, ftype, mode, config=config, seed=seed))
    return report
