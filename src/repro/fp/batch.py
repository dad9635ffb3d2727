"""Batch-axis vectorized smallFloat arithmetic with exact flags.

The lockstep engine (:mod:`repro.sim.lockstep`) executes one guest
instruction for N sweep points at once.  Under round-to-nearest-even
this module computes the whole batch with a few numpy operations while
staying *bit-identical* to the softfloat core (:mod:`repro.fp.arith`),
flags included, for binary32 and for every registered format of 16 bits
or less: the IEEE smallFloats, posit8/posit16 and MX8.

Correctness sketch (all arrays are binary64):

* Operands decode exactly: every such value is a binary64 value.
  Products of two p-bit values are exact in binary64 (2p <= 48).  Sums
  are captured exactly as a TwoSum pair ``(s, e)`` with
  ``s = RN(a + b)`` and ``a + b = s + e``.
* The final rounding must be a *single* rounding of the exact value
  ``s + e``.  ``s`` is first adjusted to *round-to-odd* (if ``e != 0``
  and s's last bit is even, nudge s one ulp toward e).  Every split
  point below has at most p + 2 significant bits, so it is even in
  binary64: the adjusted ``s`` lands on a split point only when the
  exact value does, and otherwise sits on the same side of every split
  point as the exact value.
* One codec table per format of 16 bits or less, built lazily from its
  decode table: the sorted *split points* of positive binary64 values
  -- the RNE ties between neighbouring encodings, plus the region
  edges -- and the result bits and flags of each open interval and of
  each point.  Rounding is then one ``searchsorted`` and a gather.  The
  ties are the arithmetic midpoints for IEEE formats and MX8's E4M3
  elements; for posits they are the odd patterns of posit(n+1, es),
  since a tie on the encoding grid is a geometric midpoint wherever
  regime growth truncates exponent bits.  The results below the lowest
  tie and above the highest one (IEEE/E4M3 underflow to zero and
  overflow to inf or NaN; posit saturation at minpos and maxpos) are
  taken from the scalar core itself.  binary32 has 2^32 patterns and
  keeps numpy's float32 cast.
* Flags: NX iff the exact value was not representable, i.e.
  ``e != 0 or decode(result) != s``.  OF and UF come from the region
  and are raised only together with NX.  UF follows the RISC-V
  tininess-after-rounding rule for IEEE and E4M3: tiny iff
  |exact| < 2^emin * (1 - 2^-(p+1)), the point below which
  unbounded-range rounding stays under 2^emin.
* Anything this module cannot prove exact falls back: operations on
  NaN/NaR/infinity operands and dot products whose accumulation leaves
  the double-double window.  Callers re-run those lanes through the
  scalar core, as they do for every rounding mode but RNE.
"""

from __future__ import annotations

import threading
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from .convert import double_to_bits, fcvt_f2f, to_double
from .flags import NV, OF, UF, NX
from .formats import BINARY32, BINARY64, FloatFormat
from .rounding import RoundingMode
from .unpacked import unpack

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
    return fmt.width <= 16 or fmt is BINARY32


# ----------------------------------------------------------------------
# Decode tables
# ----------------------------------------------------------------------
#: numpy float dtypes by exponent width: an IEEE format with the same
#: exponent field decodes by shifting its pattern into the carrier.
_CARRIERS = {5: (np.float16, np.uint16, 10), 8: (np.float32, np.uint32, 23)}


def _posit_values(n: int, es: int, body: np.ndarray) -> np.ndarray:
    """Exact values of the positive posit(n, es) patterns ``body``
    (``0 < body < 2**(n-1)``, int32): :meth:`PositFormat.decode
    <repro.fp.posit.PositFormat.decode>` over a whole array."""
    # The regime is the run of bits equal to the top body bit.
    r0 = body >> (n - 2)
    ones = np.where(r0 == 1, ~body & ((1 << (n - 1)) - 1), body)
    run = (n - 1) - np.frexp(ones)[1]
    rest = np.maximum(n - 2 - run, 0)  # bits after the regime terminator
    e_bits = np.minimum(rest, es)
    frac_bits = rest - e_bits
    e = ((body >> frac_bits) & ((1 << e_bits) - 1)) << (es - e_bits)
    scale = (np.where(r0 == 1, run - 1, -run) << es) + e
    return np.ldexp((1 << frac_bits) | (body & ((1 << frac_bits) - 1)),
                    scale - frac_bits)


def _values(fmt: FloatFormat) -> np.ndarray:
    """Exact binary64 value of every ``fmt`` pattern, indexed by pattern."""
    es = getattr(fmt, "es", None)
    if es is not None:
        # Negation is the two's complement: pattern 2**(n-1) + j holds
        # minus the value of body 2**(n-1) - j; 2**(n-1) itself is NaR.
        half = 1 << (fmt.width - 1)
        pos = _posit_values(fmt.width, es, np.arange(1, half, dtype=np.int32))
        return np.concatenate([[0.0], pos, [np.nan], -pos[::-1]])
    carrier = _CARRIERS.get(getattr(fmt, "exp_bits", None))
    if carrier is not None:
        dtype, utype, man_bits = carrier
        shifted = (np.arange(1 << fmt.width, dtype=utype)
                   << utype(man_bits - fmt.man_bits))
        with np.errstate(invalid="ignore"):
            return shifted.view(dtype).astype(np.float64)
    # Formats of a few hundred patterns (MX8) decode one by one.
    return np.array([to_double(b, fmt) for b in range(1 << fmt.width)])


class _Codec(NamedTuple):
    """The RNE codec table of one format of 16 bits or less.

    Region ``2i`` is the open interval just below ``points[i]``, region
    ``2i + 1`` is ``points[i]`` itself and region ``2 * len(points)``
    lies above the last point."""

    values: np.ndarray  #: pattern -> exact binary64 value
    points: np.ndarray  #: sorted split points of |x|, 0.0 first
    pos: np.ndarray  #: region -> result bits of a positive value
    neg: np.ndarray  #: region -> result bits of a negative value
    flags: np.ndarray  #: region -> OF/UF, raised when inexact


_CODECS: Dict[str, _Codec] = {}


def _build(fmt: FloatFormat) -> _Codec:
    values = _values(fmt)
    values.setflags(write=False)
    # Patterns 0 .. top-1 are +0 and the positive finite values in
    # increasing order; pattern ``top`` is their overflow neighbour.
    top = int(np.argmax(~np.isfinite(values)))
    grid = values[:top]
    assert (np.diff(grid) > 0).all(), f"{fmt.name}: grid not monotone"
    # ties[b] separates pattern b from b + 1.
    es = getattr(fmt, "es", None)
    if es is not None:
        ties = _posit_values(fmt.width + 1, es,
                             np.arange(1, 2 * top, 2, dtype=np.int32))
        tiny = None  # posits raise UF only when saturating at minpos
    else:
        ties = np.append((grid[:-1] + grid[1:]) / 2,
                         grid[-1] + (grid[-1] - grid[-2]) / 2)
        tiny = fmt.min_normal_value * (1 - 2.0 ** -(fmt.precision + 1))
    edges = [0.0] if tiny is None else [0.0, tiny]  # neither is a tie
    points = np.sort(np.append(ties, edges))
    below = ties.searchsorted(points)  # ties under each point
    on_tie = ties.take(below, mode="clip") == points
    grid_index = np.empty(2 * len(points) + 1, dtype=np.int64)
    grid_index[0::2] = np.append(below, top)
    grid_index[1::2] = np.where(on_tie, below + (below & 1), below)
    # Past either end of the grid the scalar core decides: zero or
    # minpos below the lowest tie, inf, NaN or maxpos above the highest.
    result = np.arange(top + 1, dtype=np.uint32)
    edge_flags = np.zeros(top + 1, dtype=np.uint8)
    for index, probe in ((0, ties[0] / 2), (top, ties[-1] * 2)):
        result[index], flags = fcvt_f2f(BINARY64, fmt, double_to_bits(probe),
                                        RoundingMode.RNE)
        edge_flags[index] = flags & ~NX
    pos = result[grid_index]
    flags = edge_flags[grid_index]
    pos[1], flags[1] = fmt.zero(0), 0  # the split point 0.0: exact zero
    if tiny is not None:
        upper = np.append(points, np.inf)
        flags[0::2] |= (upper <= tiny) * np.uint8(UF)
        flags[1::2] |= (points < tiny) * np.uint8(UF)
    # The format's own bit-level negation, over the whole array.
    neg = fmt.neg_bits(pos.astype(np.int32)).astype(np.uint32)
    for table in (points, pos, neg, flags):
        table.setflags(write=False)
    return _Codec(values, points, pos, neg, flags)


def _codec(fmt: FloatFormat) -> _Codec:
    codec = _CODECS.get(fmt.name)
    if codec is None:
        codec = _CODECS[fmt.name] = _build(fmt)
    return codec


@_quiet
def decode(fmt: FloatFormat, bits: np.ndarray) -> np.ndarray:
    """Exact binary64 values of packed ``fmt`` bit patterns."""
    if fmt.width == 32:
        return bits.astype(_U32, copy=False).view(np.float32).astype(np.float64)
    return _codec(fmt).values[bits]


# ----------------------------------------------------------------------
# Rounding: binary64 -> (bits, flags)
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


#: binary32's tininess edge, 2^-126 * (1 - 2^-25).
_B32_TINY = float(np.ldexp(1.0 - 2.0 ** -25, -126))


def _finish(fmt: FloatFormat, s: np.ndarray, e) -> Tuple[np.ndarray, np.ndarray]:
    """Round the exact value ``s + e`` into ``fmt`` with exact flags.

    ``s`` must be the binary64 RN of the exact value and ``e`` the exact
    residual (``None`` means exact-in-binary64, e.g. products).  Inputs
    must be finite; non-finite lanes are the caller's fallback problem.
    Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    v = s if e is None else _odd_fix64(s, e)
    mag = np.abs(v)
    if fmt.width == 32:
        f = _cast(v, np.float32)
        bits = f.view(_U32)
        q = f.astype(np.float64)
        region = (np.isinf(q) * np.uint8(OF)
                  | (mag < _B32_TINY) * np.uint8(UF))
    else:
        codec = _codec(fmt)
        points = codec.points
        i = points.searchsorted(mag)
        code = 2 * i + (points.take(i, mode="clip") == mag)
        bits = np.where(np.signbit(v), codec.neg[code], codec.pos[code])
        q, region = codec.values[bits], codec.flags[code]
    inexact = q != v
    if e is not None:
        inexact |= e != 0
    return bits, (region | np.uint8(NX)) * inexact


@_quiet
def encode(fmt: FloatFormat, x: np.ndarray) -> np.ndarray:
    """RNE-encode binary64 values into ``fmt`` bit patterns (uint32),
    NaN and infinities included: the scalar ``from_double`` over an
    array."""
    finite = np.isfinite(x)
    bits, _ = _finish(fmt, np.where(finite, x, 0.0), None)
    if not finite.all():
        special = np.where(np.isnan(x), fmt.quiet_nan,
                           np.where(x > 0, fmt.inf(0), fmt.inf(1)))
        bits = np.where(finite, bits, special).astype(_U32)
    return bits


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
    """The NaN lanes the scalar core unpacks as signaling NaNs."""
    snan = np.zeros_like(nan)
    for lane in np.flatnonzero(nan):
        snan[lane] = unpack(int(bits[lane]), fmt).is_snan
    return snan


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
