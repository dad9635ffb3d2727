"""Batch-axis vectorized smallFloat arithmetic with exact IEEE flags.

The lockstep engine (:mod:`repro.sim.lockstep`) executes one guest
instruction for N sweep points at once.  For the IEEE formats under
round-to-nearest-even -- the overwhelmingly dominant configuration of
every paper sweep -- this module computes the whole batch with a few
numpy operations while staying *bit-identical* to the softfloat core
(:mod:`repro.fp.arith`), flags included.

Correctness sketch (all arrays are binary64):

* Operands decode exactly: every smallFloat value is a binary64 value
  (p <= 24 << 53).  Products of two p-bit values are exact in binary64
  (2p <= 48).  Sums are captured exactly as a TwoSum pair ``(s, e)``
  with ``s = RN(a + b)`` and ``a + b = s + e``.
* The final rounding must be a *single* rounding of the exact value
  ``s + e`` to the target format.  Rounding s directly would double
  round, so ``s`` is first adjusted to *round-to-odd* (if ``e != 0``
  and s's last bit is even, nudge s one ulp toward e).  By the standard
  round-to-odd theorem, RNE_p(odd_q(x)) == RNE_p(x) for q >= 2p + 2;
  binary64 (53 bits) qualifies for every target here.  The two formats
  numpy cannot cast to directly (binary16alt, binary8) chain through an
  intermediate round-to-odd at binary32/binary16 -- legal because the
  intermediate keeps >= p + 2 bits and shares the target's emin, so
  subnormal grids align.
* Flags: NX  iff the exact value was not representable, i.e.
  ``e != 0 or decode(result) != s``.  OF iff the rounded result is
  infinite while the exact value is finite.  UF follows the RISC-V
  tininess-after-rounding rule: tiny iff |exact| < 2^emin *
  (1 - 2^-(p+1)) (the point below which unbounded-range rounding stays
  under 2^emin), decided exactly from ``(s, e)``; UF is raised only
  together with NX.
* Anything this module cannot prove exact falls back: operations on
  NaN/infinity operands, non-RNE rounding, non-IEEE guest formats, and
  dot products whose accumulation leaves the double-double window.
  Callers re-run those lanes through the scalar core.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

import numpy as np

from .flags import NV, OF, UF, NX
from .formats import FloatFormat
from .numpy_backend import from_bits

#: Formats with a vectorized batch path (IEEE layouts only; guest
#: formats such as posit/MX always take the per-element codec path).
_SUPPORTED = ("binary32", "binary16", "binary16alt", "binary8")

_U32 = np.uint32
_U64 = np.uint64


class _QuietDepth(threading.local):
    """Per-thread nesting depth of :class:`quiet_errors` regions.

    numpy's error state is per thread, so the depth that says "this
    thread already silenced warnings" must be too: a process-global
    count would let one thread's region skip ``errstate`` on another."""

    depth = 0


_quiet_depth = _QuietDepth()


class quiet_errors:
    """Silence invalid/overflow FP warnings for a whole region.

    The lockstep engine enters this once per run so the per-op
    ``np.errstate`` context (a measurable per-call cost at batch sizes
    of a few dozen) collapses to a no-op flag check.  The region covers
    the calling thread only, like numpy's error state."""

    def __enter__(self):
        if _quiet_depth.depth == 0:
            self._old = np.seterr(invalid="ignore", over="ignore")
        else:
            self._old = None
        _quiet_depth.depth += 1
        return self

    def __exit__(self, *exc):
        _quiet_depth.depth -= 1
        if self._old is not None:
            np.seterr(**self._old)
        return False


def _quiet(fn):
    """Silence invalid/overflow warnings: NaN and infinity lanes flow
    through the vector arithmetic as placeholders before the fallback
    mask routes them to the scalar core."""

    def wrapper(*args, **kwargs):
        if _quiet_depth.depth:
            return fn(*args, **kwargs)
        with np.errstate(invalid="ignore", over="ignore"):
            return fn(*args, **kwargs)

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def batchable(fmt: FloatFormat) -> bool:
    """True when ``fmt`` has a vectorized RNE fast path."""
    return getattr(fmt, "ieee", True) and fmt.name in _SUPPORTED


# ----------------------------------------------------------------------
# Exact decode
# ----------------------------------------------------------------------
_TABLES: Dict[str, np.ndarray] = {}


def _table(fmt: FloatFormat) -> np.ndarray:
    """Bit pattern -> exact binary64 value, for widths <= 16."""
    table = _TABLES.get(fmt.name)
    if table is None:
        table = from_bits(np.arange(1 << fmt.width, dtype=np.uint64), fmt)
        table.setflags(write=False)
        _TABLES[fmt.name] = table
    return table


@_quiet
def decode(fmt: FloatFormat, bits: np.ndarray) -> np.ndarray:
    """Exact binary64 values of packed ``fmt`` bit patterns."""
    if fmt.width == 32:
        if bits.dtype != np.uint32 or not bits.flags.c_contiguous:
            bits = np.ascontiguousarray(bits, dtype=np.uint32)
        return bits.view(np.float32).astype(np.float64)
    return _table(fmt)[bits]


# ----------------------------------------------------------------------
# Round-to-odd helpers
# ----------------------------------------------------------------------
def _cast(v: np.ndarray, dtype) -> np.ndarray:
    """``astype`` with overflow warnings silenced (cheap when a
    :class:`quiet_errors` region is already active)."""
    if _quiet_depth.depth:
        return v.astype(dtype)
    with np.errstate(over="ignore"):
        return v.astype(dtype)


def _odd_fix64(s: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Adjust ``s = RN(x)`` so RNE-rounding it equals RNE-rounding x.

    ``x = s + e`` exactly.  Where the residual is non-zero and s's last
    significand bit is even, nudge s one binary64 ulp toward the
    residual (round-to-odd).
    """
    fix = (e != 0) & ((s.view(_U64) & _U64(1)) == 0)
    if not fix.any():
        return s
    direction = np.where(e > 0, np.inf, -np.inf)
    return np.where(fix, np.nextafter(s, direction), s)


def _odd_cast(v: np.ndarray, dtype) -> np.ndarray:
    """Round-to-odd cast of finite binary64 values to f32/f16.

    Never yields an infinity for finite input: an overflowing cast is
    pulled back to the (odd-mantissa) largest finite value, preserving
    every downstream RNE decision including overflow-to-infinity.
    """
    f = _cast(v, dtype)
    back = f.astype(np.float64)
    inexact = back != v
    if inexact.any():
        u = f.view({np.dtype(np.float32): _U32,
                    np.dtype(np.float16): np.uint16}[f.dtype])
        fix = inexact & ((u & type(u[0])(1)) == 0)
        if fix.any():
            direction = np.where(v > back, dtype(np.inf), dtype(-np.inf))
            f = np.where(fix, np.nextafter(f, direction), f)
    return f


# ----------------------------------------------------------------------
# Encoders: binary64 (already round-to-odd adjusted) -> (bits, value)
# ----------------------------------------------------------------------
def _encode_b32(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float32)
    return f.view(_U32).astype(_U32), f.astype(np.float64)


def _encode_b16(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    f = _cast(v, np.float16)
    return f.view(np.uint16).astype(_U32), f.astype(np.float64)


def _encode_b16alt(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Through round-to-odd binary32 (same emin; 24 >= 8 + 2 bits), then
    # the classic carry-propagating RNE truncation of the low 16 bits.
    b = _odd_cast(v, np.float32).view(_U32)
    r = (b + _U32(0x7FFF) + ((b >> _U32(16)) & _U32(1))) >> _U32(16)
    return r, (r << _U32(16)).view(np.float32).astype(np.float64)


def _encode_b8(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # Through round-to-odd binary16 (same emin; 11 >= 3 + 2 bits).
    b = _odd_cast(v, np.float16).view(np.uint16).astype(_U32)
    r = (b + _U32(0x7F) + ((b >> _U32(8)) & _U32(1))) >> _U32(8)
    return r, _TABLES["binary8"][r]


_ENCODERS = {
    "binary32": _encode_b32,
    "binary16": _encode_b16,
    "binary16alt": _encode_b16alt,
    "binary8": _encode_b8,
}

#: Underflow-tininess thresholds: |exact| < 2^emin * (1 - 2^-(p+1))
#: means unbounded-range RNE stays below the smallest normal.
_TINY: Dict[str, float] = {}


def _tiny_threshold(fmt: FloatFormat) -> float:
    t = _TINY.get(fmt.name)
    if t is None:
        t = float(np.ldexp(1.0 - 2.0 ** -(fmt.precision + 1), fmt.emin))
        _TINY[fmt.name] = t
    return t


def _finish(fmt: FloatFormat, s: np.ndarray, e) -> Tuple[np.ndarray, np.ndarray]:
    """Round the exact value ``s + e`` into ``fmt`` with exact flags.

    ``s`` must be the binary64 RN of the exact value and ``e`` the exact
    residual (``None`` means exact-in-binary64, e.g. products).  Inputs
    must be finite; non-finite lanes are the caller's fallback problem.
    Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    if fmt.width == 8:
        _table(fmt)  # _encode_b8 indexes the table directly
    v = s if e is None else _odd_fix64(s, e)
    bits, q = _ENCODERS[fmt.name](v)
    inexact = q != s
    if e is not None:
        inexact = inexact | (e != 0)
    flags = inexact.astype(np.uint8) * np.uint8(NX)
    overflow = np.isinf(q)
    if overflow.any():
        flags = flags | overflow.astype(np.uint8) * np.uint8(OF)
    mag = np.abs(s)
    tiny = mag < _tiny_threshold(fmt)
    if e is not None:
        tiny = tiny | ((mag == _tiny_threshold(fmt)) & (e != 0)
                       & (np.signbit(e) != np.signbit(s)))
    underflow = inexact & tiny
    if underflow.any():
        flags = flags | underflow.astype(np.uint8) * np.uint8(UF)
    return bits, flags


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's exact TwoSum: a + b == s + e with s = RN(a + b)."""
    s = a + b
    bv = s - a
    e = (a - (s - bv)) + (b - bv)
    return s, e


# ----------------------------------------------------------------------
# Batched operations.  All take/return uint32 bit-pattern arrays and
# return ``(bits, flags, fallback)``: lanes in ``fallback`` must be
# recomputed through the scalar core (the vector results there are
# placeholders).
# ----------------------------------------------------------------------
@_quiet
def add(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
        sub: bool = False) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    a64 = decode(fmt, a)
    b64 = decode(fmt, b)
    if sub:
        b64 = -b64
    fallback = ~(np.isfinite(a64) & np.isfinite(b64))
    s, e = _two_sum(a64, b64)
    if fallback.any():  # keep the finisher warning-free
        s = np.where(fallback, 0.0, s)
        e = np.where(fallback, 0.0, e)
    bits, flags = _finish(fmt, s, e)
    return bits, flags, fallback


@_quiet
def mul(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a * b`` rounded into ``fmt``; ``src`` (default ``fmt``) is the
    operand format -- a narrower ``src`` models fmulex."""
    opfmt = src or fmt
    a64 = decode(opfmt, a)
    b64 = decode(opfmt, b)
    fallback = ~(np.isfinite(a64) & np.isfinite(b64))
    s = a64 * b64  # exact: 2p <= 48 bits
    if fallback.any():
        s = np.where(fallback, 0.0, s)
    bits, flags = _finish(fmt, s, None)
    return bits, flags, fallback


@_quiet
def fma(fmt: FloatFormat, a: np.ndarray, b: np.ndarray, c: np.ndarray,
        negate_product: bool = False, negate_addend: bool = False,
        src: FloatFormat = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused multiply-add ``(-1)^np * a*b + (-1)^na * c`` (one rounding).

    ``src`` (default ``fmt``) is the format of ``a``/``b``; a narrower
    ``src`` models the expanding fmacex, whose product stays exact in
    binary64 just the same (2 * p_src <= 48)."""
    opfmt = src or fmt
    a64 = decode(opfmt, a)
    b64 = decode(opfmt, b)
    c64 = decode(fmt, c)
    fallback = ~(np.isfinite(a64) & np.isfinite(b64) & np.isfinite(c64))
    prod = a64 * b64  # exact
    if negate_product:
        prod = -prod
    if negate_addend:
        c64 = -c64
    s, e = _two_sum(prod, c64)
    if fallback.any():
        s = np.where(fallback, 0.0, s)
        e = np.where(fallback, 0.0, e)
    bits, flags = _finish(fmt, s, e)
    return bits, flags, fallback


@_quiet
def cvt(src: FloatFormat, dst: FloatFormat,
        a: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Format conversion (fcvt.f2f): exact value, one rounding."""
    a64 = decode(src, a)
    fallback = ~np.isfinite(a64)
    s = a64
    if fallback.any():
        s = np.where(fallback, 0.0, s)
    bits, flags = _finish(dst, s, None)
    return bits, flags, fallback


def _signaling(fmt: FloatFormat, bits: np.ndarray,
               nan: np.ndarray) -> np.ndarray:
    quiet_bit = _U32(1 << (fmt.man_bits - 1))
    return nan & ((bits.astype(_U32) & quiet_bit) == 0)


@_quiet
def cmp(fmt: FloatFormat, op: str, a: np.ndarray,
        b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """feq/flt/fle across the batch.  No fallback lanes: NaN semantics
    are computed exactly (quiet compare for eq, signaling for lt/le)."""
    a64 = decode(fmt, a)
    b64 = decode(fmt, b)
    a_nan = np.isnan(a64)
    b_nan = np.isnan(b64)
    if op == "eq":
        result = a64 == b64
        invalid = _signaling(fmt, a, a_nan) | _signaling(fmt, b, b_nan)
    elif op == "lt":
        result = a64 < b64
        invalid = a_nan | b_nan
    else:  # "le"
        result = a64 <= b64
        invalid = a_nan | b_nan
    return result.astype(_U32), invalid.astype(np.uint8) * np.uint8(NV)


@_quiet
def dotp(src: FloatFormat, dst: FloatFormat, acc: np.ndarray,
         a_lanes: List[np.ndarray], b_lanes: List[np.ndarray],
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vfdotpex.s.*: exact expanding dot product with one dst rounding.

    The exact accumulation is tracked as a double-double ``(hi, lo)``
    grown with TwoSum; any lane whose accumulation sheds a bit past the
    106-bit window (or touches a non-finite value, or sums to exactly
    zero, whose sign needs the scalar core's rule) is marked fallback.
    """
    hi = decode(dst, acc)
    ok = np.isfinite(hi)
    lo = np.zeros_like(hi)
    exact = np.ones(hi.shape, dtype=bool)
    for a_bits, b_bits in zip(a_lanes, b_lanes):
        a64 = decode(src, a_bits)
        b64 = decode(src, b_bits)
        ok &= np.isfinite(a64) & np.isfinite(b64)
        term = a64 * b64  # exact: 2p <= 22 bits
        sh, eh = _two_sum(hi, term)
        sl, el = _two_sum(lo, eh)
        exact &= el == 0
        hi, lo = _two_sum(sh, sl)  # renormalize, exactly
    fallback = ~ok | ~exact | (hi == 0.0)
    if fallback.any():
        hi = np.where(fallback, 0.0, hi)
        lo = np.where(fallback, 0.0, lo)
    bits, flags = _finish(dst, hi, lo)
    return bits, flags, fallback
