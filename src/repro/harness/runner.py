"""Compile-stage-run-score harness for one benchmark configuration.

One :func:`run_kernel` call reproduces one bar of the paper's plots:
pick a benchmark, an FP type, a vectorization mode and a memory latency;
get back cycles, instruction mix, energy and quantified output quality.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterator, List,
                    NamedTuple, Optional, Sequence, Tuple)

import numpy as np

from .. import ReproError
from ..compiler import CompiledKernel, compile_source
from ..compiler.typesys import TYPE_KEYWORDS, FloatType
from ..energy import EnergyModel, EnergyReport
from ..fp.convert import from_double
from ..fp.formats import FloatFormat
from ..fp.rounding import set_sr_key
from ..fp.numpy_backend import from_bits, to_bits
from ..kernels import KERNELS, MANUAL_FTYPES, KernelSpec
from ..metrics import classification_error, sqnr_db
from ..sim import Simulator, Trace
from ..sim.timing import TimingConfig, TimingModel
from ..sim.traps import TrapInfo

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..profile import Profile

#: Arrays are staged above the assembler's data section.
ARRAY_BASE = 0x0020_0000
_ARG_REGS = list(range(10, 18))

#: The vectorization modes of the paper's build matrix.
MODES = ("scalar", "auto", "manual")

#: Per-point statuses a crash-isolated sweep can record.
POINT_STATUSES = ("ok", "trap", "budget_exceeded", "error")


class HarnessError(ReproError):
    """Misconfigured benchmark run."""


class KernelExecutionError(HarnessError):
    """A guest kernel ended abnormally (trap or exhausted budget)."""

    def __init__(self, message: str, exit_reason: str,
                 trap: Optional[TrapInfo] = None):
        super().__init__(message)
        self.exit_reason = exit_reason
        self.trap = trap


def _format_of(keyword: str) -> FloatFormat:
    ty = TYPE_KEYWORDS[keyword]
    if not isinstance(ty, FloatType):
        raise HarnessError(f"{keyword!r} is not a scalar FP type")
    return ty.fmt


def _dtype_for(width_bits: int) -> np.dtype:
    return {8: np.dtype("<u1"), 16: np.dtype("<u2"), 32: np.dtype("<u4")}[
        width_bits
    ]


@dataclass
class KernelRun:
    """Everything measured from one benchmark execution."""

    spec_name: str
    ftype: str
    mode: str
    mem_latency: int
    trace: Trace
    energy: EnergyReport
    outputs: Dict[str, np.ndarray]
    golden: Dict[str, np.ndarray]
    asm: str
    #: How the simulation ended ('halt' normally; 'trap' or
    #: 'budget_exceeded' only when ``run_kernel(..., trap_ok=True)``).
    exit_reason: str = "halt"
    trap: Optional[TrapInfo] = None
    #: Staged-array layout, name -> (address, size in bytes).  Fault
    #: campaigns use this to aim data-memory flips at live arrays.
    arrays: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: (base, size) of the loaded text section, for instruction flips.
    text_range: Optional[Tuple[int, int]] = None
    #: Static-analysis result from compilation (a
    #: :class:`repro.analysis.LintResult`); ``None`` if linting was off.
    lint: Optional[object] = None
    #: Aggregated cycle-attribution profile (a
    #: :class:`repro.profile.Profile`); ``None`` unless the run was
    #: made with ``run_kernel(..., profile=True)``.  Any other run
    #: profiles the same way through :func:`kernel_profile`.
    profile: Optional["Profile"] = None
    #: Host wall-clock seconds spent inside ``Simulator.run`` (the
    #: simulation phase only -- compile and staging excluded).  Host
    #: performance benchmarks derive guest MIPS from this.
    sim_seconds: float = 0.0

    @property
    def guest_mips(self) -> float:
        """Guest instructions per host microsecond (simulation phase)."""
        if self.sim_seconds <= 0.0:
            return 0.0
        return self.trace.instret / self.sim_seconds / 1e6

    def lint_findings(self, min_severity: str = "note") -> list:
        """Lint findings at or above ``min_severity``."""
        if self.lint is None:
            return []
        from ..analysis.lints import severity_at_least

        return [f for f in self.lint.findings
                if severity_at_least(f.severity, min_severity)]

    @property
    def cycles(self) -> int:
        return self.trace.cycles

    @property
    def instret(self) -> int:
        return self.trace.instret

    def sqnr_db(self, output: Optional[str] = None) -> float:
        """SQNR of one output (or of all FP outputs concatenated)."""
        names = [output] if output else [
            name for name in self.outputs
            if np.issubdtype(self.outputs[name].dtype, np.floating)
        ]
        ref = np.concatenate([np.ravel(self.golden[n]) for n in names])
        got = np.concatenate([np.ravel(self.outputs[n]) for n in names])
        return sqnr_db(ref, got)

    def classification_error(self, label_output: str = "labels") -> float:
        return classification_error(
            self.golden[label_output], self.outputs[label_output]
        )


def _stage_args(spec: KernelSpec, ftype: str, run_params: Dict[str, int],
                data: Dict) -> tuple:
    """Lay out one point's kernel arguments.

    Returns ``(regs, stores, array_at)``: the initial register file,
    the ``(addr, bytes)`` bulk writes to apply before execution, and
    the ``name -> (addr, count, fmt-or-None)`` output map.
    """
    if len(spec.args) > len(_ARG_REGS):
        raise HarnessError(f"{spec.name}: too many arguments")
    cursor = ARRAY_BASE
    array_at: Dict[str, tuple] = {}  # name -> (addr, count, fmt-or-None)
    regs: Dict[int, int] = {}
    stores: list = []
    for arg, reg in zip(spec.args, _ARG_REGS):
        if arg.kind == "param":
            key = arg.name if arg.elem == "auto" else arg.elem
            regs[reg] = int(run_params[key]) & 0xFFFFFFFF
        elif arg.kind == "scalar":
            fmt = _format_of(ftype if arg.elem == "auto" else arg.elem)
            regs[reg] = from_double(float(data[arg.name]), fmt)
        elif arg.kind == "array":
            fmt = _format_of(ftype if arg.elem == "auto" else arg.elem)
            values = np.asarray(data[arg.name], dtype=np.float64).ravel()
            bits = to_bits(values, fmt).astype(_dtype_for(fmt.width))
            stores.append((cursor, bits.tobytes()))
            array_at[arg.name] = (cursor, values.size, fmt)
            regs[reg] = cursor
            cursor += ((values.size * fmt.width // 8 + 15) // 16) * 16 + 16
        elif arg.kind == "iarray":
            values = np.asarray(data[arg.name], dtype="<i4").ravel()
            stores.append((cursor, values.tobytes()))
            array_at[arg.name] = (cursor, values.size, None)
            regs[reg] = cursor
            cursor += ((values.size * 4 + 15) // 16) * 16 + 16
        else:
            raise HarnessError(f"unknown arg kind {arg.kind!r}")
    return regs, stores, array_at


def _read_outputs(spec: KernelSpec, memory, array_at) -> Dict[str, np.ndarray]:
    outputs: Dict[str, np.ndarray] = {}
    for name in spec.outputs:
        addr, count, fmt = array_at[name]
        if fmt is None:
            raw = memory.read_block(addr, count * 4)
            outputs[name] = np.frombuffer(raw, dtype="<i4").copy()
        else:
            raw = memory.read_block(addr, count * fmt.width // 8)
            bits = np.frombuffer(raw, dtype=_dtype_for(fmt.width))
            outputs[name] = from_bits(bits.astype(np.uint64), fmt)
    return outputs


def build_error(spec: KernelSpec, ftype: str, mode: str) -> Optional[str]:
    """Why ``(spec, ftype, mode)`` has no program, or ``None`` if it has."""
    if mode not in MODES:
        return f"unknown mode {mode!r} (pick from {MODES})"
    if mode == "manual" and spec.manual_source_fn is None:
        return f"{spec.name} has no manual-vectorized form"
    if mode == "manual" and ftype not in MANUAL_FTYPES:
        return (f"{spec.name} has no manual-vectorized form for {ftype!r} "
                f"(manual builds take {', '.join(MANUAL_FTYPES)})")
    return None


def build_inputs(spec: KernelSpec, ftype: str,
                 mode: str) -> Tuple[str, Dict[str, object]]:
    """The ``compile_source`` source and keywords of one point.

    The one place a point's build is decided: :func:`build_kernel`
    compiles exactly this, and :func:`repro.harness.parallel.
    program_fingerprint` hashes it.  ``mode='manual'`` takes the
    hand-vectorized source; ``'auto'`` turns the loop vectorizer on;
    the spec's ``compile_opts`` ride along in every mode.
    """
    problem = build_error(spec, ftype, mode)
    if problem is not None:
        raise HarnessError(problem)
    source_fn = spec.manual_source_fn if mode == "manual" else spec.source_fn
    return (source_fn(ftype),
            dict(spec.compile_opts, vectorize_loops=(mode == "auto")))


def build_kernel(spec: KernelSpec, ftype: str, mode: str,
                 lint: bool = True) -> CompiledKernel:
    """Compile the program :func:`run_kernel` runs for this point.

    Verification, ``repro lint``/``analyze`` and the committed baselines
    all build through here, so what they check is what runs.  Raises
    :class:`HarnessError` for a point :func:`build_error` rejects.
    """
    source, opts = build_inputs(spec, ftype, mode)
    return compile_source(source, lint=lint, **opts)


def build_points(ftypes: Sequence[str],
                 kernels: Optional[Sequence[str]] = None,
                 modes: Sequence[str] = MODES
                 ) -> Iterator[Tuple[str, str, str]]:
    """Every buildable ``(kernel, ftype, mode)``, kernel-major.

    Kernels default to all registered ones, sorted; points
    :func:`build_error` rejects are skipped.
    """
    for name in kernels or sorted(KERNELS):
        for ftype in ftypes:
            for mode in modes:
                if build_error(KERNELS[name], ftype, mode) is None:
                    yield name, ftype, mode


class _Staged(NamedTuple):
    """One seed's drawn data and argument layout (see :func:`_stage_args`)."""

    data: Dict
    run_params: Dict[str, int]
    regs: Dict[int, int]
    stores: list
    array_at: Dict[str, tuple]


def _stage_seed(spec: KernelSpec, ftype: str,
                params: Optional[Dict[str, int]], seed: int) -> _Staged:
    """Draw ``seed``'s kernel data and lay out the arguments for it."""
    run_params = dict(spec.params)
    run_params.update(params or {})
    data = spec.make_data(run_params, np.random.default_rng(seed))
    return _Staged(data, run_params,
                   *_stage_args(spec, ftype, run_params, data))


#: One energy model prices every run; its per-mnemonic cache holds pure
#: values, so threads filling it concurrently store the same numbers.
_ENERGY = EnergyModel()


def _score(spec: KernelSpec, ftype: str, mode: str, mem_latency: int,
           kernel: CompiledKernel, staged: _Staged, result,
           trap_ok: bool, **measured) -> KernelRun:
    """Read back and score one finished simulation.

    An abnormal exit raises :class:`KernelExecutionError` unless
    ``trap_ok``.  ``measured`` holds the engine-specific fields
    (``sim_seconds``).
    """
    if not result.ok and not trap_ok:
        raise KernelExecutionError(
            f"{spec.name} [{ftype}, {mode}] ended with "
            f"{result.exit_reason}: {result.detail}",
            exit_reason=result.exit_reason, trap=result.trap,
        )
    outputs = _read_outputs(spec, result.machine.memory, staged.array_at)
    return KernelRun(
        spec_name=spec.name,
        ftype=ftype,
        mode=mode,
        mem_latency=mem_latency,
        trace=result.trace,
        energy=_ENERGY.estimate(result.trace, mem_latency),
        outputs=outputs,
        golden=spec.golden(staged.data, staged.run_params),
        asm=kernel.asm,
        exit_reason=result.exit_reason,
        trap=result.trap,
        arrays={
            name: (addr, count * (4 if fmt is None else fmt.width // 8))
            for name, (addr, count, fmt) in staged.array_at.items()
        },
        text_range=(kernel.program.text_base,
                    4 * len(kernel.program.words)),
        lint=kernel.lint_result,
        **measured,
    )


def run_kernel(
    spec: KernelSpec,
    ftype: str = "float",
    mode: str = "scalar",
    mem_latency: int = 1,
    params: Optional[Dict[str, int]] = None,
    seed: int = 0,
    max_instructions: int = 50_000_000,
    injector: Optional[Callable] = None,
    trap_ok: bool = False,
    profile: bool = False,
    fast_path: Optional[bool] = None,
    frm: Optional[int] = None,
    sr_key: int = 0,
) -> KernelRun:
    """Run one (benchmark, type, vectorization, latency) configuration.

    ``mode``: ``scalar`` (no vectorization), ``auto`` (compiler pass) or
    ``manual`` (the hand-vectorized source; requires the spec to provide
    one and ``ftype`` to be a smallFloat type).

    ``injector`` is an optional per-instruction step hook (typically a
    :class:`repro.faults.FaultInjector`) threaded into the simulator.
    An abnormal guest exit (trap, exhausted instruction budget) raises
    :class:`KernelExecutionError` unless ``trap_ok`` is set, in which
    case the partial outputs are read back and returned as usual with
    ``exit_reason``/``trap`` recording what happened.

    ``profile=True`` attaches the run's cycle-attribution
    :class:`repro.profile.Profile` as ``KernelRun.profile``.  It is
    built after the run from the trace (:func:`kernel_profile`), so it
    changes neither the engine that runs nor any counter.

    ``frm`` (if given) is written to ``fcsr.frm`` before the run, so
    compiled kernels -- whose FP ops carry ``rm=dyn`` -- round in that
    mode; pass ``int(RoundingMode.SR)`` to enable stochastic rounding,
    seeded by ``sr_key`` (see :func:`repro.fp.rounding.set_sr_key`).
    """
    kernel = build_kernel(spec, ftype, mode)
    staged = _stage_seed(spec, ftype, params, seed)
    sim = Simulator(kernel.program, mem_latency=mem_latency,
                    fast_path=fast_path)
    for addr, payload in staged.stores:
        sim.machine.memory.write_block(addr, payload)
    if frm is not None:
        sim.machine.csr.frm = frm
    sim_start = time.perf_counter()
    prev_key = set_sr_key(sr_key)
    try:
        result = sim.run(spec.entry, args=staged.regs,
                         max_instructions=max_instructions,
                         step_hook=injector)
    finally:
        set_sr_key(prev_key)
    sim_seconds = time.perf_counter() - sim_start
    run = _score(spec, ftype, mode, mem_latency, kernel, staged, result,
                 trap_ok, sim_seconds=sim_seconds)
    if profile:
        run.profile = kernel_profile(run, seed, spec)
    return run


def kernel_profile(run: KernelRun, seed: int,
                   spec: Optional[KernelSpec] = None) -> "Profile":
    """The cycle-attribution profile of a finished run, on any engine.

    Works for a :func:`run_kernel` run, a :func:`run_kernel_batch` lane
    or a cached outcome alike: the program comes from
    :func:`build_kernel` (memoized, so it is the one that ran) and the
    cycles from ``run.trace``.  ``seed`` labels the profile's context;
    ``spec`` defaults to the registered kernel named ``run.spec_name``.
    """
    from ..profile import build_profile

    program = build_kernel(spec or KERNELS[run.spec_name], run.ftype,
                           run.mode).program
    return build_profile(
        program, run.trace,
        TimingModel(TimingConfig(mem_latency=run.mem_latency)),
        exit_reason=run.exit_reason,
        context={"kernel": run.spec_name, "ftype": run.ftype,
                 "mode": run.mode, "mem_latency": run.mem_latency,
                 "seed": seed})


def run_kernel_batch(
    spec: KernelSpec,
    ftype: str = "float",
    mode: str = "scalar",
    mem_latency: int = 1,
    params: Optional[Dict[str, int]] = None,
    seeds: Sequence[int] = (0,),
    max_instructions: int = 50_000_000,
    trap_ok: bool = False,
    frm: Optional[int] = None,
    sr_keys: Optional[Sequence[int]] = None,
) -> List[KernelRun]:
    """Run one configuration for many seeds at once, in lockstep.

    The program is compiled once and every seed becomes one lane of a
    :func:`repro.sim.lockstep.run_lockstep` batch, so the aggregate
    guest MIPS scales with the number of lanes.  Each returned
    :class:`KernelRun` is bit-identical (trace, counters, outputs,
    fcsr, exit reason) to the matching per-seed :func:`run_kernel`
    call; ``sim_seconds`` is the batch wall time divided by the lane
    count, so summed host-time accounting stays meaningful.

    A step hook (``injector``) is deliberately not offered here -- use
    :func:`run_kernel` for those points.  Profile a lane after the run
    with :func:`kernel_profile`; it matches the scalar run's profile.

    ``frm`` matches the :func:`run_kernel` parameter; ``sr_keys`` (one
    per seed, default all-zero) seed each lane's stochastic-rounding
    PRF; lanes with different keys stay batched, each drawing from its
    own key.
    """
    kernel = build_kernel(spec, ftype, mode)
    if not seeds:
        return []
    from ..sim.lockstep import Lane, run_lockstep

    if sr_keys is not None and len(sr_keys) != len(seeds):
        raise HarnessError(
            f"sr_keys has {len(sr_keys)} entries for {len(seeds)} seeds")
    staged = [_stage_seed(spec, ftype, params, seed) for seed in seeds]
    lanes = [Lane(s.regs, s.stores,
                  sr_key=0 if sr_keys is None else sr_keys[idx])
             for idx, s in enumerate(staged)]

    sim_start = time.perf_counter()
    results = run_lockstep(kernel.program, lanes, entry=spec.entry,
                           max_instructions=max_instructions,
                           mem_latency=mem_latency,
                           frm=0 if frm is None else frm)
    per_lane_seconds = (time.perf_counter() - sim_start) / len(lanes)
    return [_score(spec, ftype, mode, mem_latency, kernel, s, result,
                   trap_ok, sim_seconds=per_lane_seconds)
            for s, result in zip(staged, results)]


# ----------------------------------------------------------------------
# Crash-isolated execution
# ----------------------------------------------------------------------
@dataclass
class SafeRunOutcome:
    """Result of one crash-isolated kernel run.

    ``status`` is one of :data:`POINT_STATUSES`; ``run`` is populated
    for 'ok' always, and best-effort for 'trap'/'budget_exceeded' (the
    partial outputs were still readable).  ``detail`` carries the trap
    diagnostic or host-error message for abnormal outcomes.
    """

    status: str
    run: Optional[KernelRun] = None
    trap: Optional[TrapInfo] = None
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def run_kernel_safe(spec: KernelSpec, *args, **kwargs) -> SafeRunOutcome:
    """:func:`run_kernel`, isolated: never raises on guest misbehaviour.

    Any trap, exhausted instruction budget, or host-side error inside
    one point of a sweep is folded into the returned status, so a
    multi-point experiment always completes.  Accepts every
    :func:`run_kernel` keyword, notably ``max_instructions`` (the
    per-point watchdog budget) and ``injector``.
    """
    kwargs["trap_ok"] = True
    try:
        run = run_kernel(spec, *args, **kwargs)
    except ReproError as exc:
        return SafeRunOutcome(status="error", detail=f"{exc}")
    except Exception as exc:  # host bug: contain it, but say so loudly
        return SafeRunOutcome(
            status="error", detail=f"{type(exc).__name__}: {exc}")
    return classify_run(run)


def classify_run(run: KernelRun) -> SafeRunOutcome:
    """Fold a completed :class:`KernelRun` into a  :class:`SafeRunOutcome`
    (the ok/trap/budget_exceeded triage of :func:`run_kernel_safe`)."""
    if run.exit_reason in ("halt", "ecall", "ebreak"):
        return SafeRunOutcome(status="ok", run=run)
    if run.exit_reason == "trap":
        return SafeRunOutcome(status="trap", run=run, trap=run.trap,
                              detail=str(run.trap) if run.trap else "trap")
    return SafeRunOutcome(status="budget_exceeded", run=run,
                          detail="instruction budget exceeded")
