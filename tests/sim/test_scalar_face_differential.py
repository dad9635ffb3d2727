"""FP rows on the scalar codec face against the same rows on the core.

The add, sub, mul, fma, fmulex, fmacex, fcvt and vfdotpex rows bind
:mod:`repro.fp.batch`'s scalar face, which rounds under RNE through the
codec tables and calls the softfloat core for everything else.  This
suite re-binds those rows to the pure core (the packed rows, lane maps
of their scalar rows, follow), reruns whole kernels, and requires every
observable to match: outputs, cycles, ``fcsr`` and the full
:class:`~repro.sim.Trace`, Counter insertion order included.
"""

from functools import partial

import numpy as np
import pytest

from repro.fp import arith, simd
from repro.fp.convert import fcvt_f2f
from repro.harness import runner
from repro.kernels import KERNELS
from repro.sim import Simulator, block_cache_clear, executor, semantics

from .test_fast_path_differential import assert_traces_identical


def _fma_core(negate_product, negate_addend):
    return lambda F: lambda a, b, c, rm: arith.ffma(
        F.fmt, a, b, c, rm, negate_product, negate_addend)


#: The scalar rows that bind the face, each with its pure-core binding.
CORE_BINDINGS = {
    "fadd": lambda F: partial(arith.fadd, F.fmt),
    "fsub": lambda F: partial(arith.fsub, F.fmt),
    "fmul": lambda F: partial(arith.fmul, F.fmt),
    "fmadd": _fma_core(False, False),
    "fmsub": _fma_core(False, True),
    "fnmsub": _fma_core(True, False),
    "fnmadd": _fma_core(True, True),
    "fmulex": lambda F: partial(arith.fmul_widen, F.src, F.dst),
    "fmacex": lambda F: lambda acc, a, b, rm: arith.fma_mixed(
        F.src, F.dst, a, b, acc, rm),
    "fcvt_f2f": lambda F: partial(fcvt_f2f, F.src, F.fmt),
    "vfdotpex": lambda F: partial(simd.vfdotpex, F.src, F.dst, F.flen),
}

POINTS = [(kernel, ftype, mode)
          for kernel in ("gemm", "svm", "syr2k")
          for ftype, mode in (("float", "scalar"), ("float16", "auto"),
                              ("float16alt", "auto"), ("float8", "auto"))]
POINTS += [("nn_softmax", "posit16", "auto"), ("gemm", "posit8", "auto")]


def _clear_bindings():
    """Drop every cached binding of a row: the reference loop's
    handlers, the block engine's operand plans and its blocks."""
    executor._BOUND.clear()
    semantics._xreg_plan.cache_clear()
    block_cache_clear()


def _run(point):
    """Run one point; returns the run and its final ``fcsr``."""
    sims = []

    class Recording(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    kernel, ftype, mode = point
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "Simulator", Recording)
        run = runner.run_kernel(KERNELS[kernel], ftype, mode, seed=5)
    (sim,) = sims
    return run, sim.machine.csr.fcsr


@pytest.fixture(scope="module")
def face_runs():
    _clear_bindings()
    return {point: _run(point) for point in POINTS}


@pytest.mark.parametrize("point", POINTS, ids=["-".join(p) for p in POINTS])
def test_rows_on_the_core_match_the_face(point, face_runs, monkeypatch):
    try:
        for kind, core in CORE_BINDINGS.items():
            monkeypatch.setattr(semantics.SEMANTICS[kind], "op", core)
        _clear_bindings()
        run, fcsr = _run(point)
    finally:
        monkeypatch.undo()
        _clear_bindings()
    face, face_fcsr = face_runs[point]
    label = "/".join(point)
    assert face.cycles == run.cycles, label
    assert face_fcsr == fcsr, label
    assert_traces_identical(run.trace, face.trace, label)
    assert face.outputs.keys() == run.outputs.keys()
    for name, got in face.outputs.items():
        np.testing.assert_array_equal(
            np.asarray(got).view(np.uint8),
            np.asarray(run.outputs[name]).view(np.uint8), err_msg=label)
