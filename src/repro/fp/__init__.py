"""Bit-exact smallFloat arithmetic (the paper's transprecision FPU).

Public surface:

* Formats: :data:`BINARY8`, :data:`BINARY16`, :data:`BINARY16ALT`,
  :data:`BINARY32`, :data:`BINARY64`, :func:`lookup`,
  :func:`vector_lanes`, :func:`supported_vector_formats` (Table II).
* Scalar ops: :mod:`repro.fp.arith`, :mod:`repro.fp.compare`,
  :mod:`repro.fp.convert` -- each returns ``(bits, fflags)``.
* Packed SIMD (Xfvec/Xfaux): :mod:`repro.fp.simd`.
* Ergonomic values: :class:`SmallFloat`.
* Fast emulation: :mod:`repro.fp.numpy_backend` (FlexFloat substitute).
* Format registry: :mod:`repro.fp.registry` -- the pluggable
  :class:`NumberFormat` protocol; :mod:`repro.fp.posit` (Xposit) and
  :mod:`repro.fp.mx` (Xmx8) are the first guest codec families and
  self-register on import below.
"""

from . import arith, compare, convert, numpy_backend, registry, simd
from . import mx, posit  # noqa: F401  (self-registering guest formats)
from .flags import DZ, NV, NX, OF, UF, GuestIllegal, flag_names, format_flags
from .formats import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    BINARY64,
    FORMATS,
    SMALLFLOAT_FORMATS,
    FloatFormat,
    lookup,
    supported_vector_formats,
    vector_lanes,
)
from .rounding import RoundingMode, round_and_pack
from .unpacked import Kind, Unpacked, unpack
from .value import SmallFloat

from .mx import MX8
from .posit import POSIT8, POSIT16
from .registry import NumberFormat

__all__ = [
    "arith",
    "compare",
    "convert",
    "numpy_backend",
    "registry",
    "posit",
    "mx",
    "NumberFormat",
    "POSIT8",
    "POSIT16",
    "MX8",
    "simd",
    "NV",
    "DZ",
    "OF",
    "UF",
    "NX",
    "flag_names",
    "format_flags",
    "GuestIllegal",
    "BINARY8",
    "BINARY16",
    "BINARY16ALT",
    "BINARY32",
    "BINARY64",
    "FORMATS",
    "SMALLFLOAT_FORMATS",
    "FloatFormat",
    "lookup",
    "supported_vector_formats",
    "vector_lanes",
    "RoundingMode",
    "round_and_pack",
    "Kind",
    "Unpacked",
    "unpack",
    "SmallFloat",
]
