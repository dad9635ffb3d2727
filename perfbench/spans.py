"""Span recorder that times the program's layers from outside.

Tracing lives in the benchmark, not in the program: while a traced run
is active, :func:`install` swaps the public functions each layer
exposes for timing wrappers, and :meth:`Tracer.restore` puts the
originals back.  Spans stay in memory; a span's self time is its
duration minus the time of the spans it directly encloses (per thread).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from common import p50

#: Layers whose enclosing spans only mark the harness entry point; their
#: self time is harness glue that no finer span accounts for.
HARNESS_ENTRY = ("harness.run_kernel", "harness.run_kernel_batch")


class Span:
    __slots__ = ("name", "start", "end", "child", "meta")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.end = start
        self.child = 0.0
        self.meta = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.seconds - self.child


class Tracer:
    """Collects spans from wrapped callables, on any thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self.missing: List[str] = []
        self._local = threading.local()
        self._undo: List[Callable[[], None]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             annotate: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call; ``annotate(args, kwargs,
        result)`` attaches a value to the span as ``meta``."""
        stack_of, record, clock = self._stack, self.spans.append, \
            time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span = Span(name, clock())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if stack:
                    stack[-1].child += span.end - span.start
                record(span)
            if annotate is not None:
                span.meta = annotate(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str,
              annotate: Optional[Callable] = None,
              wrapper: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        traced wrapper, remembering the original for :meth:`restore`."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        traced = (wrapper or self.wrap)(name, original, annotate)
        setattr(owner, attr, traced)
        self._undo.append(lambda: setattr(owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    def by_name(self) -> Dict[str, List[Span]]:
        groups: Dict[str, List[Span]] = defaultdict(list)
        for span in self.spans:
            groups[span.name].append(span)
        return groups

    def harness_other(self) -> float:
        """Self time of the harness entry spans: unattributed glue."""
        return sum(s.self_seconds for s in self.spans
                   if s.name in HARNESS_ENTRY)

    def covered(self) -> float:
        """Seconds that some layer span other than harness glue holds."""
        return sum(s.self_seconds for s in self.spans) - self.harness_other()


def _fp_path(ftype: str, frm) -> str:
    """Which FP route a lockstep batch takes: IEEE RNE, guest, or SR."""
    from repro.fp import registry
    from repro.fp.rounding import RoundingMode

    if frm is not None and int(frm) == int(RoundingMode.SR):
        return "sr"
    return "guest" if registry.by_keyword(ftype).is_guest else "ieee"


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer under ``src/repro``."""
    from repro import compiler
    from repro.analysis import lints
    from repro.compiler import pipeline
    from repro.energy import model as energy
    from repro.harness import parallel, runner
    from repro.kernels import KERNELS
    from repro.serve import server, verify
    from repro.sim import lockstep, simulator

    for owner in (runner, compiler):
        tracer.patch(owner, "compile_source", "compiler.compile",
                     annotate=lambda args, kwargs, result: (
                         args, tuple(sorted(kwargs.items()))))
    for attr, name in (("parse", "compiler.parse"),
                       ("analyze", "compiler.semantic"),
                       ("fold_constants", "compiler.semantic"),
                       ("vectorize", "compiler.vectorize"),
                       ("generate", "compiler.codegen"),
                       ("assemble", "isa.assemble")):
        tracer.patch(pipeline, attr, name)
    for owner in (lints, verify):
        tracer.patch(owner, "lint_program", "analysis.lint")

    tracer.patch(simulator.Simulator, "run", "sim.run",
                 annotate=lambda a, k, result: result.trace.instret)
    tracer.patch(runner, "run_kernel", "harness.run_kernel")

    local = tracer._local

    def batch_wrapper(name, fn, annotate):
        traced = tracer.wrap(name, fn)

        @functools.wraps(fn)
        def with_path(*args, **kwargs):
            ftype = args[1] if len(args) > 1 else kwargs.get("ftype", "float")
            local.fp_path = _fp_path(ftype, kwargs.get("frm"))
            return traced(*args, **kwargs)

        return with_path

    for owner in (runner, parallel):
        tracer.patch(owner, "run_kernel_batch", "harness.run_kernel_batch",
                     wrapper=batch_wrapper)
    tracer.patch(lockstep, "run_lockstep", "lockstep.run",
                 annotate=lambda a, k, results: (
                     getattr(local, "fp_path", "ieee"), len(results),
                     sum(r.trace.instret for r in results)))
    tracer.patch(runner, "_stage_args", "harness.stage")
    tracer.patch(runner, "_read_outputs", "harness.readback")
    tracer.patch(energy.EnergyModel, "estimate", "energy.estimate")
    tracer.patch(server.ReproServeApp, "run_kernel", "serve.app")
    tracer.patch(verify.StaticVerifier, "verify", "analysis.verify",
                 annotate=lambda a, k, result: result[1])

    originals = dict(KERNELS)
    for key, spec in originals.items():
        KERNELS[key] = dataclasses.replace(
            spec,
            make_data=tracer.wrap("kernels.make_data", spec.make_data),
            golden=tracer.wrap("kernels.golden", spec.golden))
    tracer._undo.append(lambda: KERNELS.update(originals))


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """The per-layer metrics that come straight from the spans."""
    groups = tracer.by_name()

    def total(name):
        return sum(s.seconds for s in groups.get(name, ()))

    compiles = groups.get("compiler.compile", [])
    sims = groups.get("sim.run", [])
    sim_instret = sum(s.meta or 0 for s in sims)
    metrics = {
        "compiler.parse_s": total("compiler.parse"),
        "compiler.semantic_s": total("compiler.semantic"),
        "compiler.vectorize_s": total("compiler.vectorize"),
        "compiler.codegen_s": total("compiler.codegen"),
        "isa.assemble_s": total("isa.assemble"),
        "analysis.lint_s": total("analysis.lint"),
        "compiler.calls": float(len(compiles)),
        "compiler.distinct_ratio": (
            len({s.meta for s in compiles}) / len(compiles)
            if compiles else 0.0),
        "sim.run_s": total("sim.run"),
        "sim.instret": float(sim_instret),
        "sim.ns_per_instr": (1e9 * total("sim.run") / sim_instret
                             if sim_instret else 0.0),
        "harness.stage_s": total("harness.stage"),
        "harness.readback_s": total("harness.readback"),
        "kernels.make_data_s": total("kernels.make_data"),
        "kernels.golden_s": total("kernels.golden"),
        "energy.estimate_s": total("energy.estimate"),
        "harness.other_s": tracer.harness_other(),
    }
    batches = [s for s in groups.get("lockstep.run", ()) if s.meta]
    metrics["lockstep.run_s"] = total("lockstep.run")
    metrics["lockstep.lanes"] = float(sum(s.meta[1] for s in batches))
    for path in ("ieee", "guest", "sr"):
        mine = [s for s in batches if s.meta[0] == path]
        lane_instr = sum(s.meta[2] for s in mine)
        metrics[f"lockstep.ns_per_lane_instr.{path}"] = (
            1e9 * sum(s.seconds for s in mine) / lane_instr
            if lane_instr else 0.0)
    verifies = [s.seconds * 1e3 for s in groups.get("analysis.verify", ())
                if s.meta is False]
    metrics["analysis.verify_ms_p50"] = p50(verifies)
    return metrics
