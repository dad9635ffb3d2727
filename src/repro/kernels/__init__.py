"""Benchmark kernel registry (the paper's evaluation workloads).

Six benchmarks, as in Section V-A: five Polybench/C kernels (GEMM, ATAX,
SYRK, SYR2K, FDTD-2D) plus the EMG-gesture SVM, each described by a
:class:`KernelSpec` that the harness uses to compile, stage data, run
and score any (type x vectorization x memory-latency) configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, List, Optional

from . import data as _data
from . import golden as _golden
from . import polybench as _polybench
from . import svm as _svm


@dataclass(frozen=True)
class ArgSpec:
    """One kernel argument.

    kind:
        ``param``  -- an integer taken from the params dict;
        ``scalar`` -- an FP scalar from the data dict (passed as bits);
        ``array``  -- an FP array staged into simulator memory;
        ``iarray`` -- an int32 array staged into simulator memory.
    elem:
        For FP arrays/scalars: the element type -- ``"auto"`` follows
        the benchmark's type substitution, a keyword (e.g. ``"float"``)
        pins it (the mixed-precision SVM keeps binary32 scores).
        For ``param`` args: the key in the params dict when it differs
        from the argument name (``"auto"`` means same name).
    """

    name: str
    kind: str
    elem: str = "auto"


@dataclass(frozen=True)
class KernelSpec:
    """Everything the harness needs to run one benchmark."""

    name: str
    entry: str
    params: Dict[str, int]
    args: List[ArgSpec]
    outputs: List[str]
    make_data: Callable
    golden: Callable
    source_fn: Callable[[str], str]
    manual_source_fn: Optional[Callable[[str], str]] = None
    #: Output name holding class labels (classification benchmarks).
    label_output: Optional[str] = None
    #: Extra keyword arguments the harness forwards to
    #: :func:`repro.compiler.compile_source` (e.g. the NN kernels set
    #: ``expanding_reductions`` so ``mode='auto'`` emits ``vfdotpex``).
    compile_opts: Dict[str, object] = field(default_factory=dict)


KERNELS: Dict[str, KernelSpec] = {}

#: The types every hand-vectorized (``manual_source_fn``) source takes.
MANUAL_FTYPES = tuple(_polybench._VECTOR_INFO)


def _register(spec: KernelSpec) -> KernelSpec:
    KERNELS[spec.name] = spec
    return spec


GEMM = _register(KernelSpec(
    name="gemm",
    entry="gemm",
    params={"n": 12},
    args=[
        ArgSpec("n", "param"),
        ArgSpec("alpha", "scalar"),
        ArgSpec("beta", "scalar"),
        ArgSpec("A", "array"),
        ArgSpec("B", "array"),
        ArgSpec("C", "array"),
    ],
    outputs=["C"],
    make_data=_data.make_gemm_data,
    golden=_golden.gemm_ref,
    source_fn=lambda t: _polybench.source("gemm", t),
    manual_source_fn=lambda t: _polybench.manual_source("gemm", t),
))

ATAX = _register(KernelSpec(
    name="atax",
    entry="atax",
    params={"m": 12, "n": 12},
    args=[
        ArgSpec("m", "param"),
        ArgSpec("n", "param"),
        ArgSpec("A", "array"),
        ArgSpec("x", "array"),
        ArgSpec("y", "array"),
        ArgSpec("tmp", "array"),
    ],
    outputs=["y", "tmp"],
    make_data=_data.make_atax_data,
    golden=_golden.atax_ref,
    source_fn=lambda t: _polybench.source("atax", t),
    manual_source_fn=lambda t: _polybench.manual_source("atax", t),
))

SYRK = _register(KernelSpec(
    name="syrk",
    entry="syrk",
    params={"n": 10, "m": 12},
    args=[
        ArgSpec("n", "param"),
        ArgSpec("m", "param"),
        ArgSpec("alpha", "scalar"),
        ArgSpec("beta", "scalar"),
        ArgSpec("A", "array"),
        ArgSpec("C", "array"),
    ],
    outputs=["C"],
    make_data=_data.make_syrk_data,
    golden=_golden.syrk_ref,
    source_fn=lambda t: _polybench.source("syrk", t),
    manual_source_fn=lambda t: _polybench.manual_source("syrk", t),
))

SYR2K = _register(KernelSpec(
    name="syr2k",
    entry="syr2k",
    params={"n": 10, "m": 12},
    args=[
        ArgSpec("n", "param"),
        ArgSpec("m", "param"),
        ArgSpec("alpha", "scalar"),
        ArgSpec("beta", "scalar"),
        ArgSpec("A", "array"),
        ArgSpec("B", "array"),
        ArgSpec("C", "array"),
    ],
    outputs=["C"],
    make_data=_data.make_syr2k_data,
    golden=_golden.syr2k_ref,
    source_fn=lambda t: _polybench.source("syr2k", t),
    manual_source_fn=lambda t: _polybench.manual_source("syr2k", t),
))

FDTD2D = _register(KernelSpec(
    name="fdtd2d",
    entry="fdtd2d",
    params={"t_max": 2, "nx": 8, "ny": 12},
    args=[
        ArgSpec("t_max", "param"),
        ArgSpec("nx", "param"),
        ArgSpec("ny", "param"),
        ArgSpec("ex", "array"),
        ArgSpec("ey", "array"),
        ArgSpec("hz", "array"),
        ArgSpec("fict", "array"),
    ],
    outputs=["ex", "ey", "hz"],
    make_data=_data.make_fdtd2d_data,
    golden=_golden.fdtd2d_ref,
    source_fn=lambda t: _polybench.source("fdtd2d", t),
    manual_source_fn=lambda t: _polybench.manual_source("fdtd2d", t),
))

SVM = _register(KernelSpec(
    name="svm",
    entry="svm",
    params={"nsamples": 32, "nclasses": 4, "nfeatures": 16},
    args=[
        ArgSpec("ns", "param", elem="nsamples"),
        ArgSpec("nc", "param", elem="nclasses"),
        ArgSpec("nf", "param", elem="nfeatures"),
        ArgSpec("W", "array"),
        ArgSpec("X", "array"),
        ArgSpec("bias", "array"),
        ArgSpec("scores", "array"),
        ArgSpec("labels", "iarray"),
    ],
    outputs=["scores", "labels"],
    make_data=_data.make_svm_data,
    golden=_golden.svm_ref,
    source_fn=_svm.source,
    manual_source_fn=None,  # manual form exists for the mixed scheme
    label_output="labels",
))

#: The mixed-precision SVM of the case study (Section V-C): smallFloat
#: data, binary32 accumulation/scores.
SVM_MIXED = _register(KernelSpec(
    name="svm_mixed",
    entry="svm",
    params={"nsamples": 32, "nclasses": 4, "nfeatures": 16},
    args=[
        ArgSpec("ns", "param", elem="nsamples"),
        ArgSpec("nc", "param", elem="nclasses"),
        ArgSpec("nf", "param", elem="nfeatures"),
        ArgSpec("W", "array"),
        ArgSpec("X", "array"),
        ArgSpec("bias", "array"),
        ArgSpec("scores", "array", elem="float"),
        ArgSpec("labels", "iarray"),
    ],
    outputs=["scores", "labels"],
    make_data=_data.make_svm_data,
    golden=_golden.svm_ref,
    source_fn=_svm.mixed_source,
    manual_source_fn=_svm.mixed_manual_source,
    label_output="labels",
))

#: The six benchmarks of the paper's Figures 1-3 and Table III.
BENCHMARK_NAMES = ["svm", "gemm", "atax", "syrk", "syr2k", "fdtd2d"]

__all__ = [
    "ArgSpec",
    "KernelSpec",
    "KERNELS",
    "MANUAL_FTYPES",
    "BENCHMARK_NAMES",
    "GEMM",
    "ATAX",
    "SYRK",
    "SYR2K",
    "FDTD2D",
    "SVM",
    "SVM_MIXED",
]

# Tail import: registering the NN workload suite (repro.nn.specs) here
# means every KERNELS consumer sees the NN kernels without importing
# repro.nn itself.  The needed names (KernelSpec, _register, KERNELS)
# are all bound above, so the partial-module import is safe.
import_module("..nn", __package__)
