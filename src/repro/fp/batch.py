"""Round-to-nearest-even smallFloat arithmetic through one codec, with
exact flags, in two faces.

* The *batch face* computes one guest instruction for N sweep points
  at once, for the lockstep engine (:mod:`repro.sim.lockstep`), with a
  few numpy operations per op (:func:`add`, :func:`mul`, :func:`fma`,
  :func:`cvt`, :func:`dotp`, ...).
* The *scalar face* computes one operation at a time, for every scalar
  engine and serve (:func:`scalar_add`, :func:`scalar_mul`,
  :func:`scalar_fma`, :func:`scalar_cvt`, :func:`scalar_dotp`): the
  same binary64 arithmetic and the same tables on Python floats, with a
  ``bisect`` where the batch face calls ``searchsorted``.  Each is a
  drop-in for its softfloat-core op and calls that op for everything it
  does not round itself.

Both stay *bit-identical* to the softfloat core (:mod:`repro.fp.arith`),
flags included, for binary32 and for every registered format of 16 bits
or less: the IEEE smallFloats, posit8/posit16 and MX8.  The core stays
the reference every test compares against.

Correctness sketch (binary64 arithmetic, per lane or per call):

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
  each point.  Rounding is then one ``searchsorted`` (a ``bisect`` on
  the scalar face) and a gather.  Each column is one
  :class:`array.array`, which numpy reads through a view.  The
  ties are the arithmetic midpoints for IEEE formats and MX8's E4M3
  elements; for posits they are the odd patterns of posit(n+1, es),
  since a tie on the encoding grid is a geometric midpoint wherever
  regime growth truncates exponent bits.  The results below the lowest
  tie and above the highest one (IEEE/E4M3 underflow to zero and
  overflow to inf or NaN; posit saturation at minpos and maxpos) are
  taken from the scalar core itself.  binary32 has 2^32 patterns and
  keeps numpy's float32 cast; the scalar face rounds binary32 and
  binary16 through the C casts of :mod:`struct`, which round to
  nearest even (an overflow, which ``struct`` refuses, goes to the
  core).
* Flags: NX iff the exact value was not representable, i.e.
  ``e != 0 or decode(result) != s``.  OF and UF come from the region
  and are raised only together with NX.  UF follows the RISC-V
  tininess-after-rounding rule for IEEE and E4M3: tiny iff
  |exact| < 2^emin * (1 - 2^-(p+1)), the point below which
  unbounded-range rounding stays under 2^emin.
* Anything this module cannot prove exact falls back: operations on
  NaN/NaR/infinity operands and dot products whose accumulation leaves
  the double-double window or sums to exactly zero.  The batch face
  marks those lanes for its caller to re-run through the scalar core;
  the scalar face calls the core itself.

The other rounding modes (RTZ, RDN, RUP, RMM and stochastic rounding)
take an exact integer path for the IEEE formats (binary8, binary16,
binary16alt, binary32): each op forms the scalar core's exact
``(sign, sig, exp)`` per lane in int64 and :func:`round_pack` rounds it
line for line like :func:`repro.fp.rounding.ieee_round_and_pack`,
including the keyed stochastic-rounding draw over a per-lane key array.
The draw hashes the raw ``(sig, discard)``, so every op keeps the
scalar core's operand alignment exactly.  Lanes whose significand would
not fit in 63 bits (far-apart addends) fall back, as do NaN and
infinity operands.  Ops whose result never depends on the mode (exact
widening conversions, expanding products that always fit) keep the RNE
codec path under every mode; posit and MX8 lanes under other modes all
fall back.
"""

from __future__ import annotations

import struct
import threading
from array import array
from bisect import bisect_right
from functools import partial
from math import copysign, inf, nextafter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from . import arith, simd
from .convert import double_to_bits, fcvt_f2f, to_double
from .flags import NV, OF, UF, NX
from .formats import BINARY32, BINARY64, FloatFormat, vector_lanes
from .rounding import RoundingMode
from .unpacked import unpack

_U32 = np.uint32
_U64 = np.uint64
_I64 = np.int64
_RNE = RoundingMode.RNE


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
    """True when ``fmt`` has the RNE codec (both faces)."""
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


class _Tables(NamedTuple):
    """The columns of one format's RNE codec (of 16 bits or less) as
    :class:`array.array`: compact, and cheap to index from Python.

    Region ``2i`` is the open interval just below ``points[i]``, region
    ``2i + 1`` is ``points[i]`` itself and region ``2 * len(points)``
    lies above the last point."""

    values: array  #: pattern -> exact binary64 value
    points: array  #: sorted split points of |x|, 0.0 first
    pos: array  #: region -> result bits of a positive value
    neg: array  #: region -> result bits of a negative value
    flags: array  #: region -> OF/UF, raised when inexact


class _Codec(NamedTuple):
    """The codec table of one format, with two faces over one buffer
    per column: read-only numpy views for the batch face, and
    :attr:`scalar`, the columns themselves, for the scalar face."""

    values: np.ndarray
    points: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    flags: np.ndarray
    scalar: _Tables


_CODECS: Dict[str, _Codec] = {}
_CODEC_LOCK = threading.Lock()
_TYPECODES = {np.dtype(np.float64): "d", np.dtype(np.uint32): "I",
              np.dtype(np.uint8): "B"}


def _shared(tables) -> _Codec:
    """The codec over ``tables`` (numpy arrays in :class:`_Tables`
    order), each moved into an :class:`array.array` that a read-only
    numpy view shares."""
    columns = _Tables(*(array(_TYPECODES[t.dtype], t.tobytes())
                        for t in tables))
    views = [np.frombuffer(c, dtype=t.dtype) for c, t in zip(columns, tables)]
    for view in views:
        view.setflags(write=False)
    return _Codec(*views, scalar=columns)


def _build(fmt: FloatFormat) -> _Codec:
    values = _values(fmt)
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
    return _shared((values, points, pos, neg, flags))


def _codec(fmt: FloatFormat) -> _Codec:
    """The codec table of ``fmt``, built once per process on first use
    (serve threads share it)."""
    codec = _CODECS.get(fmt.name)
    if codec is None:
        with _CODEC_LOCK:
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


def _lookup(fmt: FloatFormat, v: np.ndarray):
    """RNE bits of the finite binary64 values ``v`` (uint32), with the
    codec region of each (None for binary32, which casts)."""
    if fmt.width == 32:
        return _cast(v, np.float32).view(_U32), None
    codec = _codec(fmt)
    points = codec.points
    mag = np.abs(v)
    i = points.searchsorted(mag)
    code = 2 * i + (points.take(i, mode="clip") == mag)
    return np.where(np.signbit(v), codec.neg[code], codec.pos[code]), code


def _finish(fmt: FloatFormat, s: np.ndarray, e) -> Tuple[np.ndarray, np.ndarray]:
    """Round the exact value ``s + e`` into ``fmt`` with exact flags.

    ``s`` must be the binary64 RN of the exact value and ``e`` the exact
    residual (``None`` means exact-in-binary64, e.g. products).  Inputs
    must be finite; non-finite lanes are the caller's fallback problem.
    Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    v = s if e is None else _odd_fix64(s, e)
    bits, code = _lookup(fmt, v)
    if code is None:
        q = bits.view(np.float32).astype(np.float64)
        region = (np.isinf(q) * np.uint8(OF)
                  | (np.abs(v) < _B32_TINY) * np.uint8(UF))
    else:
        codec = _codec(fmt)
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
    if finite.all():
        return _lookup(fmt, x)[0]
    bits = _lookup(fmt, np.where(finite, x, 0.0))[0]
    special = np.where(np.isnan(x), fmt.quiet_nan,
                       np.where(x > 0, fmt.inf(0), fmt.inf(1)))
    return np.where(finite, bits, special).astype(_U32)


def _two_sum(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Knuth's exact TwoSum: a + b == s + e with s = RN(a + b)."""
    s = a + b
    bv = s - a
    e = (a - (s - bv)) + (b - bv)
    return s, e


# ----------------------------------------------------------------------
# Directed and stochastic rounding: exact int64 lanes, IEEE formats only
# ----------------------------------------------------------------------
def _ieee(*fmts: FloatFormat) -> bool:
    """True when every format has the IEEE codec :func:`round_pack`
    mirrors (posits and MX8 bring their own packers)."""
    return all(isinstance(f, FloatFormat) for f in fmts)


def _all_fallback(n: int):
    """``(bits, flags, fallback)`` handing all ``n`` lanes to the scalar
    core."""
    return (np.zeros(n, dtype=_U32), np.zeros(n, dtype=np.uint8),
            np.ones(n, dtype=bool))


#: The integer path costs about 80 numpy calls per op whatever the
#: width, some 100-130 us on a 2-vCPU VM, against about 3.5 us per
#: lane for the scalar core under stochastic rounding: narrower batches
#: round lane by lane (docs/performance.md, "SR in lockstep").
EXACT_MIN_LANES = 32

#: 8-bit binary ops under one mode and key: all 65,536 results, built
#: once through the integer path, by (op, mode, key).  A few at a time.
_PAIR_TABLES: Dict[tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_PAIR_TABLE_LIMIT = 8
_PAIR_LOCK = threading.Lock()


def _directed(label: tuple, exact, fmts, operands, rm: RoundingMode, keys):
    """Route an op under a mode other than RNE: ``exact(*operands, rm,
    keys)`` is its integer path.  Binary ops on 8-bit IEEE formats whose
    lanes share one key gather from a table of every operand pair;
    other IEEE ops take the integer path on batches of at least
    :data:`EXACT_MIN_LANES`; everything else falls back whole."""
    n = operands[0].shape[0]
    if not _ieee(*fmts):
        return _all_fallback(n)
    if len(operands) == 2 and max(f.width for f in fmts) <= 8:
        key = 0
        if keys is not None:
            key = int(keys[0])
            if np.count_nonzero(keys != keys[0]):
                key = None
        if key is not None:
            tkey = label + (rm, key)
            table = _PAIR_TABLES.get(tkey)
            if table is None:
                pairs = np.arange(1 << 16, dtype=_U32)
                table = exact(pairs >> 8, pairs & 255, rm, None if keys is None
                              else np.full(1 << 16, key, _U64))
                with _PAIR_LOCK:  # serve threads share the tables
                    while len(_PAIR_TABLES) >= _PAIR_TABLE_LIMIT:
                        del _PAIR_TABLES[next(iter(_PAIR_TABLES))]
                    _PAIR_TABLES[tkey] = table
            index = (operands[0] << 8) | operands[1]
            return tuple(t[index] for t in table)
    if n < EXACT_MIN_LANES:
        return _all_fallback(n)
    return exact(*operands, rm, keys)


_FIELDS: Dict[str, Tuple[np.ndarray, ...]] = {}


def _fields(fmt: FloatFormat) -> Tuple[np.ndarray, ...]:
    """Per sign-and-exponent field of IEEE ``fmt``: the sign, the
    exponent of the significand's LSB, the hidden bit and finiteness."""
    tables = _FIELDS.get(fmt.name)
    if tables is None:
        top = np.arange(2 << fmt.exp_bits, dtype=_I64)
        biased = top & fmt.exp_mask
        tables = _FIELDS[fmt.name] = (
            top >> fmt.exp_bits,
            np.maximum(biased, 1) - (fmt.bias + fmt.man_bits),
            (biased != 0) * _I64(1 << fmt.man_bits),
            biased != fmt.exp_mask)
    return tables


def _unpack(fmt: FloatFormat, bits: np.ndarray):
    """The scalar core's exact ``(sign, sig, exp)`` of IEEE ``bits``
    (:func:`repro.fp.unpacked.ieee_decode` over int64 lanes) and the
    mask of finite lanes.  Zeros have ``sig == 0``."""
    sign, exp, hidden, finite = _fields(fmt)
    b = bits.astype(_I64)  # int64 indices gather fastest
    top = b >> fmt.man_bits
    return sign[top], (b & fmt.man_mask) | hidden[top], exp[top], finite[top]


def _bit_length(sig: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of int64 lanes ``0 <= sig < 2**63``, as int64
    (zero lanes read -1)."""
    e = np.frexp(sig.astype(np.float64))[1].astype(_I64)
    if sig.max() >> 53:
        # Past 2**53 the float conversion can round up to the next
        # power of two, one more than the true bit length.
        e -= (sig >> np.maximum(e - 1, 0)) == 0
    return e


def _clamp(shift: np.ndarray, limit: int) -> np.ndarray:
    """Shift counts clamped to ``0 .. limit``: numpy shifts by 64 or
    more, or by negative counts, are not portable."""
    return np.minimum(np.maximum(shift, 0), limit)


def _u64(value: int) -> np.ndarray:
    """A 0-d uint64 constant (cheaper per ufunc call than a scalar)."""
    return np.array(value, dtype=_U64)


#: ``rounding._sr_draw``'s constants: the discard multiplier, and by
#: sign the term a negative value folds in.
_GOLDEN = _u64(0x9E3779B97F4A7C15)
_SIGN_TERM = np.array([0, -0x61C8864680B583EB & ((1 << 64) - 1)],
                      dtype=_U64)
_MIX1 = _u64(0xBF58476D1CE4E5B9)
_MIX2 = _u64(0x94D049BB133111EB)
_S27, _S30, _S31 = _u64(27), _u64(30), _u64(31)


def _mix64(x: np.ndarray) -> np.ndarray:
    """``rounding._mix64`` (the splitmix64 finalizer) in wrapping uint64,
    in place on ``x``."""
    x ^= x >> _S30
    x *= _MIX1
    x ^= x >> _S27
    x *= _MIX2
    x ^= x >> _S31
    return x


def _sr_draw(keys: np.ndarray, sign: np.ndarray, sig: np.ndarray,
             discard: np.ndarray) -> np.ndarray:
    """``rounding._sr_draw`` per lane, keyed by ``keys`` (uint64).  A
    significand below 2**64 folds into the state in one step."""
    x = discard.view(_U64) * _GOLDEN
    x ^= keys
    x ^= _SIGN_TERM[sign]
    x ^= sig.view(_U64)
    return _mix64(_mix64(x))


def _shift_right_round(sig, discard, rm, sign, keys):
    """``rounding._shift_right_round`` over int64 lanes: ``sig`` shifted
    right by ``discard`` bits (left when negative), rounded per ``rm``.
    Returns ``(rounded, inexact)``.  Shifts clamp at 63: a significand
    below 2**63 shifted right by 63 is already zero, and only a zero
    significand shifts left that far."""
    right = _clamp(discard, 63)
    kept = sig >> right
    dropped = sig - (kept << right)
    kept <<= _clamp(-discard, 63)  # exact: at most p bits, or a zero
    inexact = dropped != 0
    if rm == RoundingMode.RTZ:
        return kept, inexact
    if rm == RoundingMode.RDN:
        up = inexact & (sign == 1)
    elif rm == RoundingMode.RUP:
        up = inexact & (sign == 0)
    elif rm == RoundingMode.RMM:
        # The round bit is bit ``discard - 1``: zero from bit 63 up.
        up = (dropped >> _clamp(discard - 1, 63)) & 1
    elif rm == RoundingMode.SR:
        draw = _sr_draw(keys, sign, sig, discard)
        dropped = dropped.view(_U64)
        # Up with probability dropped / 2**discard: compare against
        # the draw's top ``discard`` bits (exact lanes have nothing
        # dropped and never round up).
        up = dropped > (draw >> _clamp(64 - discard, 63).view(_U64))
        far = discard > 64
        if np.count_nonzero(far):
            # Past 64 discarded bits: the top 64 bits of ``dropped``
            # against the whole draw.
            up[far] = ((dropped[far] >> _clamp(discard[far] - 64, 63)
                        .view(_U64)) > draw[far])
    else:
        raise ValueError(f"no integer path for mode {rm!r}")
    kept += up
    return kept, inexact


def round_pack(fmt: FloatFormat, sign: np.ndarray, sig: np.ndarray,
               exp: np.ndarray, rm: RoundingMode, keys=None,
               ) -> Tuple[np.ndarray, np.ndarray]:
    """Round ``(-1)**sign * sig * 2**exp`` into IEEE ``fmt`` per lane.

    :func:`repro.fp.rounding.round_and_pack` and ``ieee_round_and_pack``
    over int64 lanes with ``0 <= sig < 2**63``, for every mode but RNE;
    ``keys`` (uint64, one per lane) key the stochastic-rounding draw.
    Returns ``(bits, flags)`` as uint32/uint8 arrays.
    """
    p, man_bits = fmt.precision, fmt.man_bits
    nbits = _bit_length(sig)
    msb = exp + nbits
    msb -= 1
    # A zero significand takes the subnormal branch and packs to the
    # signed zero, exactly.
    normal = msb >= fmt.emin
    normal &= sig != 0
    every = np.count_nonzero(normal) == normal.size
    # Normal lanes keep p bits; subnormal lanes pin the LSB at
    # 2**(emin - man_bits).
    discard = nbits - p
    if not every:
        discard = np.where(normal, discard, (fmt.emin - man_bits) - exp)
    rounded, inexact = _shift_right_round(sig, discard, rm, sign, keys)
    # Rounding may carry out of a normal significand.  A normal one
    # brings its hidden bit, which adds one to the biased exponent
    # field; a subnormal one that rounded up to 2**man_bits is the
    # smallest normal's pattern.
    carry = rounded >> p
    exp_out = msb + carry
    mag = exp_out + (fmt.bias - 1)
    mag <<= man_bits
    mag += rounded >> carry
    if not every:
        mag = np.where(normal, mag, rounded)
    flags = inexact.view(np.uint8) * np.uint8(NX)
    over = exp_out > fmt.emax
    if not every:
        over &= normal
    if np.count_nonzero(over):
        inf = fmt.exp_mask << man_bits
        # RTZ saturates; RDN/RUP saturate on the side they cannot cross.
        saturate = {RoundingMode.RTZ: 1, RoundingMode.RDN: 1 - sign,
                    RoundingMode.RUP: sign}.get(rm, 0)
        mag = np.where(over, inf - saturate, mag)
        flags |= over.view(np.uint8) * np.uint8(OF | NX)
    if not every:
        # Tininess after rounding: an inexact subnormal-range result is
        # tiny unless rounding at p bits with unbounded exponent carries
        # it up to 2**emin, which only a value just below 2**emin can do.
        tiny = inexact & ~normal
        edge = np.flatnonzero(tiny & (msb == fmt.emin - 1))
        if edge.size:
            again, _ = _shift_right_round(
                sig[edge], nbits[edge] - p, rm, sign[edge],
                None if keys is None else keys[edge])
            tiny[edge] = (again >> p) == 0
        flags |= tiny.view(np.uint8) * np.uint8(UF)
    mag |= sign << (fmt.width - 1)
    return mag.astype(_U32), flags


def _exact_sum(terms, rm: RoundingMode):
    """``arith._exact_sum`` over int64 lanes: each term is ``(sign, sig,
    exp, width)`` with ``sig < 2**width``.  Zero terms drop out and the
    live ones align at their smallest exponent; an exact zero sum takes
    the rounding mode's cancellation sign.  Returns ``(sign, sig, exp,
    fits)``: ``fits`` is False where an aligned term would reach
    2**(63 - bit_length(len(terms))), so the signed sum stays below
    2**63."""
    room = 63 - len(terms).bit_length()
    zeros = [sig == 0 for _, sig, _, _ in terms]
    exp = np.minimum.reduce([np.where(zero, _NEVER, e)
                             for zero, (_, _, e, _) in zip(zeros, terms)])
    total, fits = 0, True
    for zero, (sign, sig, e, width) in zip(zeros, terms):
        shift = e - exp
        fits = fits & (zero | (shift <= room - width))
        term = sig << _clamp(shift, room - width)
        total = total + np.where(sign == 1, -term, term)
    cancel = 1 if rm == RoundingMode.RDN else 0
    return np.where(total == 0, cancel, total < 0), np.abs(total), exp, fits


#: The exponent of a lane with no live term (above every real one).
_NEVER = 1 << 30


def _round_sum(fmt: FloatFormat, a, b, rm: RoundingMode, keys, ok):
    """``arith._round_sum`` over two ``(sign, sig, exp, width)`` terms,
    plus the both-zero rule of ``fadd`` and ``fma_mixed``: equal signs
    keep theirs.  ``ok`` marks the lanes with finite operands.  Returns
    ``(bits, flags, fallback)``."""
    sign, sig, exp, fits = _exact_sum([a, b], rm)
    if np.count_nonzero(sig) < sig.size:
        sign = np.where((sig == 0) & (a[0] == b[0]), a[0], sign)
    bits, flags = round_pack(fmt, sign, sig, exp, rm, keys)
    return bits, flags, ~(ok & fits)


# The integer paths of the ops below: operands, then ``rm, keys``.
def _add(fmt, sub, a, b, rm, keys):
    sa, ma, ea, ok = _unpack(fmt, a)
    sb, mb, eb, ok_b = _unpack(fmt, b)
    p = fmt.precision
    return _round_sum(fmt, (sa, ma, ea, p), (sb ^ sub, mb, eb, p), rm, keys,
                      ok & ok_b)


def _mul(src, dst, a, b, rm, keys):
    sa, ma, ea, ok = _unpack(src, a)
    sb, mb, eb, ok_b = _unpack(src, b)
    bits, flags = round_pack(dst, sa ^ sb, ma * mb, ea + eb, rm, keys)
    return bits, flags, ~(ok & ok_b)


def _fma(src, dst, negate_product, negate_addend, a, b, c, rm, keys):
    sa, ma, ea, ok = _unpack(src, a)
    sb, mb, eb, ok_b = _unpack(src, b)
    sc, mc, ec, ok_c = _unpack(dst, c)
    prod = (sa ^ sb ^ negate_product, ma * mb, ea + eb, 2 * src.precision)
    addend = (sc ^ negate_addend, mc, ec, dst.precision)
    return _round_sum(dst, prod, addend, rm, keys, ok & ok_b & ok_c)


def _cvt(src, dst, a, rm, keys):
    sign, sig, exp, ok = _unpack(src, a)
    bits, flags = round_pack(dst, sign, sig, exp, rm, keys)
    return bits, flags, ~ok


def _dotp(src, dst, k, acc, *lanes):
    """``vfdotpex``'s exact sum: ``acc``, ``k`` a-lanes, ``k`` b-lanes,
    ``rm``, ``keys``."""
    rm, keys = lanes[-2:]
    sc, mc, ec, ok = _unpack(dst, acc)
    terms = [(sc, mc, ec, dst.precision)]
    for a_bits, b_bits in zip(lanes[:k], lanes[k:2 * k]):
        sa, ma, ea, ok_a = _unpack(src, a_bits)
        sb, mb, eb, ok_b = _unpack(src, b_bits)
        ok = ok & ok_a & ok_b
        terms.append((sa ^ sb, ma * mb, ea + eb, 2 * src.precision))
    sign, sig, exp, fits = _exact_sum(terms, rm)
    bits, flags = round_pack(dst, sign, sig, exp, rm, keys)
    return bits, flags, ~(ok & fits)


def _exact_in(dst: FloatFormat, values: np.ndarray) -> bool:
    """True when every (finite) binary64 value in ``values`` is a ``dst``
    value: an op whose results all are never rounds, in any mode."""
    return not _finish(dst, values, None)[1].any()


_MODE_FREE: Dict[Tuple[str, str, str], bool] = {}


def _mode_free(op: str, src: FloatFormat, dst: FloatFormat) -> bool:
    """Whether ``op`` (``cvt`` or ``mul``) from ``src`` into ``dst``
    is exact for every operand, so its RNE path serves every mode:
    widening conversions, and expanding products of 8-bit formats that
    always fit (every product is checked)."""
    key = (op, src.name, dst.name)
    free = _MODE_FREE.get(key)
    if free is None:
        free = False
        if src.width <= 16 and batchable(dst):
            values = _codec(src).values
            values = values[np.isfinite(values)]
            if op == "mul":
                free = src.width <= 8 and _exact_in(
                    dst, np.multiply.outer(values, values).ravel())
            else:
                free = _exact_in(dst, values)
        _MODE_FREE[key] = free
    return free


# ----------------------------------------------------------------------
# Batched operations.  All take/return uint32 bit-pattern arrays and
# return ``(bits, flags, fallback)``: lanes in ``fallback`` must be
# recomputed through the scalar core (the vector results there are
# placeholders).  The rounding ops take the mode and, for stochastic
# rounding, one uint64 key per lane.
# ----------------------------------------------------------------------
@_quiet
def add(fmt: FloatFormat, a: np.ndarray, b: np.ndarray, sub: bool = False,
        rm: RoundingMode = _RNE, keys=None,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    if rm is not _RNE:
        return _directed(("add", fmt.name, sub), partial(_add, fmt, sub),
                         (fmt,), (a, b), rm, keys)
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
        src: FloatFormat = None, rm: RoundingMode = _RNE, keys=None,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a * b`` rounded into ``fmt``; ``src`` (default ``fmt``) is the
    operand format -- a narrower ``src`` models fmulex."""
    opfmt = src or fmt
    if rm is not _RNE and not (src and _mode_free("mul", src, fmt)):
        return _directed(("mul", opfmt.name, fmt.name),
                         partial(_mul, opfmt, fmt), (opfmt, fmt), (a, b),
                         rm, keys)
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
        src: FloatFormat = None, rm: RoundingMode = _RNE, keys=None,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused multiply-add ``(-1)^np * a*b + (-1)^na * c`` (one rounding).

    ``src`` (default ``fmt``) is the format of ``a``/``b``; a narrower
    ``src`` models the expanding fmacex, whose product stays exact in
    binary64 just the same (2 * p_src <= 48)."""
    opfmt = src or fmt
    if rm is not _RNE:
        return _directed(("fma",), partial(_fma, opfmt, fmt, negate_product,
                                           negate_addend),
                         (opfmt, fmt), (a, b, c), rm, keys)
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
def cvt(src: FloatFormat, dst: FloatFormat, a: np.ndarray,
        rm: RoundingMode = _RNE, keys=None,
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Format conversion (fcvt.f2f): exact value, one rounding."""
    if rm is not _RNE and not _mode_free("cvt", src, dst):
        return _directed(("cvt",), partial(_cvt, src, dst), (src, dst), (a,),
                         rm, keys)
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
def minmax(fmt: FloatFormat, a: np.ndarray, b: np.ndarray,
           pick_max: bool) -> Tuple[np.ndarray, np.ndarray]:
    """fmin/fmax across the batch (``compare._minmax``): a NaN yields
    the other operand, two NaNs the canonical NaN, any signaling NaN
    raises NV, and -0 orders below +0.  The result is an operand's
    own pattern; no fallback lanes."""
    a64 = decode(fmt, a)
    b64 = decode(fmt, b)
    a_nan = np.isnan(a64)
    b_nan = np.isnan(b64)
    # Equal values are the same pattern except for zeros of two signs.
    if pick_max:
        take_a = (a64 > b64) | ((a64 == b64)
                                & (np.signbit(a64) <= np.signbit(b64)))
    else:
        take_a = (a64 < b64) | ((a64 == b64)
                                & (np.signbit(a64) >= np.signbit(b64)))
    out = np.where(take_a | b_nan, a, b).astype(_U32)
    both = a_nan & b_nan
    if both.any():
        out[both] = fmt.quiet_nan
    invalid = _signaling(fmt, a, a_nan) | _signaling(fmt, b, b_nan)
    return out, invalid.astype(np.uint8) * np.uint8(NV)


@_quiet
def dotp(src: FloatFormat, dst: FloatFormat, acc: np.ndarray,
         a_lanes: List[np.ndarray], b_lanes: List[np.ndarray],
         rm: RoundingMode = _RNE, keys=None,
         ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """vfdotpex.s.*: exact expanding dot product with one dst rounding.

    Under RNE the exact accumulation is tracked as a double-double
    ``(hi, lo)`` grown with TwoSum; any lane whose accumulation sheds a
    bit past the 106-bit window (or touches a non-finite value, or sums
    to exactly zero, whose sign needs the scalar core's rule) is marked
    fallback.  Other modes sum the exact int64 terms like ``vfdotpex``.
    """
    if rm is not _RNE:
        return _directed(("dotp",), partial(_dotp, src, dst, len(a_lanes)),
                         (src, dst), (acc, *a_lanes, *b_lanes), rm, keys)
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


# ----------------------------------------------------------------------
# The scalar face: the same codec, one value at a time.  Each factory
# returns a drop-in for the scalar core's op on its formats (operands,
# then ``rm``; returns ``(bits, flags)``).  Under RNE it decodes through
# the ``values`` column (binary32 through ``struct``), computes in
# binary64 exactly as the batch face does, and rounds with one
# ``bisect`` on ``points``.  binary16 and binary32 round through the C
# casts ``struct`` performs instead, which are correctly rounded under
# RNE and several times cheaper than a bisect.  Every other mode, every
# non-finite operand and every fallback case of the batch face calls
# the core; formats without a codec get the core op itself.
# ----------------------------------------------------------------------
_PACK_F64 = struct.Struct("<d").pack
_UNPACK_U64 = struct.Struct("<Q").unpack
_UNPACK_F32 = struct.Struct("<f").unpack
_PACK_U32 = struct.Struct("<I").pack
_UNPACK_F32X2 = struct.Struct("<ff").unpack
_PACK_U32X2 = struct.Struct("<II").pack

#: IEEE formats ``struct`` packs natively: (value code, pattern code).
#: Packing rounds to nearest even and refuses an overflow.
_NATIVE = {"binary16": ("<e", "<H"), "binary32": ("<f", "<I")}

#: A rounder: ``(s, e) -> (bits, flags)``, or None where the core must
#: decide; ``s + e`` is the exact value as :func:`_finish` takes it, with
#: ``e`` 0.0 when ``s`` is exact.
Rounder = Callable[[float, float], Optional[Tuple[int, int]]]


def _odd_fix(s: float, e: float) -> float:
    """:func:`_odd_fix64` of one value (``e != 0``)."""
    if _UNPACK_U64(_PACK_F64(s))[0] & 1:
        return s
    return nextafter(s, inf if e > 0 else -inf)


def _decoders(fmt: FloatFormat):
    """``(decode1, decode2)``: pattern -> exact binary64 value (NaN for
    NaN and NaR), and a pair of patterns -> a pair of values.  Plain
    functions: they are cheaper to call than ``array.__getitem__``, and
    binary32 pairs unpack through one ``struct`` call."""
    if fmt.width == 32:
        return (lambda a: _UNPACK_F32(_PACK_U32(a))[0],
                lambda a, b: _UNPACK_F32X2(_PACK_U32X2(a, b)))
    values = _codec(fmt).scalar.values
    return lambda a: values[a], lambda a, b: (values[a], values[b])


def _native_rounder(fmt: FloatFormat) -> Rounder:
    """:func:`_finish` of one finite value through ``struct``'s cast."""
    value_code, bits_code = _NATIVE[fmt.name]
    pack = struct.Struct(value_code).pack
    unpack_value = struct.Struct(value_code).unpack
    unpack_bits = struct.Struct(bits_code).unpack
    # The RISC-V tininess edge, as in :func:`_build`.
    tiny = fmt.min_normal_value * (1 - 2.0 ** -(fmt.precision + 1))

    def round_(s: float, e: float):
        if e:
            s = _odd_fix(s, e)
        try:
            packed = pack(s)
        except OverflowError:
            return None
        if not e and unpack_value(packed)[0] == s:
            return unpack_bits(packed)[0], 0
        return unpack_bits(packed)[0], (UF | NX) if -tiny < s < tiny else NX
    return round_


def _rounder(fmt: FloatFormat) -> Rounder:
    """:func:`_finish` of one finite value."""
    if fmt.name in _NATIVE:
        return _native_rounder(fmt)
    values, points, pos, neg, flags = _codec(fmt).scalar
    zero, neg_zero = pos[1], neg[1]

    def round_(s: float, e: float):
        if e:
            s = _odd_fix(s, e)
        if s > 0.0:
            # points[0] is 0.0, so j >= 1: region 2j is the open
            # interval below points[j], 2j - 1 is points[j - 1].
            j = bisect_right(points, s)
            code = 2 * j - (points[j - 1] == s)
            bits = pos[code]
        elif s < 0.0:
            m = -s
            j = bisect_right(points, m)
            code = 2 * j - (points[j - 1] == m)
            bits = neg[code]
        else:
            return (neg_zero if copysign(1.0, s) < 0.0 else zero), 0
        if e or values[bits] != s:
            return bits, flags[code] | NX
        return bits, 0
    return round_


def _exact_sums(fmt: FloatFormat) -> bool:
    """Whether every sum of two finite ``fmt`` values is exact in
    binary64, so TwoSum can be skipped.  Every value of every format
    here is a multiple of the least positive one, so a sum is exact when
    twice the largest value spans at most 53 bits of that quantum
    (``tests/fp/test_scalar_codec.py`` checks the premise per table)."""
    return 2 * fmt.max_value / fmt.min_positive_value <= 2.0 ** 53


def scalar_add(fmt: FloatFormat, sub: bool = False):
    """``arith.fadd`` (``fsub`` when ``sub``) on ``fmt``: ``fn(a, b, rm)``."""
    core = arith.fsub if sub else arith.fadd
    if not batchable(fmt):
        return partial(core, fmt)
    decode2, round_ = _decoders(fmt)[1], _rounder(fmt)
    two_sum = not _exact_sums(fmt)

    def add(a: int, b: int, rm: RoundingMode):
        if rm is _RNE:
            x, y = decode2(a, b)
            if sub:
                y = -y
            s = x + y
            if s - s == 0.0:  # both finite: binary32 sums stay finite
                e = 0.0
                if two_sum:
                    t = s - x
                    e = (x - (s - t)) + (y - t)
                r = round_(s, e)
                if r is not None:
                    return r
        return core(fmt, a, b, rm)
    return add


def scalar_mul(fmt: FloatFormat, src: FloatFormat = None):
    """``arith.fmul`` on ``fmt``, or with a narrower ``src`` the
    expanding ``arith.fmul_widen``: ``fn(a, b, rm)``."""
    if src is None:
        src, core = fmt, partial(arith.fmul, fmt)
    else:
        core = partial(arith.fmul_widen, src, fmt)
    if not (batchable(src) and batchable(fmt)):
        return core
    decode2, round_ = _decoders(src)[1], _rounder(fmt)

    def mul(a: int, b: int, rm: RoundingMode):
        if rm is _RNE:
            x, y = decode2(a, b)
            s = x * y  # exact: 2p <= 48 bits
            if s - s == 0.0:
                r = round_(s, 0.0)
                if r is not None:
                    return r
        return core(a, b, rm)
    return mul


def scalar_fma(fmt: FloatFormat, negate_product: bool = False,
               negate_addend: bool = False, src: FloatFormat = None):
    """``arith.ffma`` on ``fmt`` (``arith.fma_mixed`` with a narrower
    ``src`` for ``a`` and ``b``): ``fn(a, b, c, rm)``."""
    src = src or fmt

    def core(a, b, c, rm):
        return arith.fma_mixed(src, fmt, a, b, c, rm, negate_product,
                               negate_addend)
    if not (batchable(src) and batchable(fmt)):
        return core
    decode2, decode_c, round_ = (_decoders(src)[1], _decoders(fmt)[0],
                                 _rounder(fmt))

    def fma(a: int, b: int, c: int, rm: RoundingMode):
        if rm is _RNE:
            x, y = decode2(a, b)
            x *= y  # exact
            y = decode_c(c)
            if negate_product:
                x = -x
            if negate_addend:
                y = -y
            s = x + y
            if s - s == 0.0:  # every operand finite
                t = s - x
                r = round_(s, (x - (s - t)) + (y - t))
                if r is not None:
                    return r
        return core(a, b, c, rm)
    return fma


def scalar_cvt(src: FloatFormat, dst: FloatFormat):
    """``convert.fcvt_f2f`` from ``src`` into ``dst``: ``fn(a, rm)``."""
    core = partial(fcvt_f2f, src, dst)
    if not (batchable(src) and batchable(dst)):
        return core
    decode1, round_ = _decoders(src)[0], _rounder(dst)

    def cvt(a: int, rm: RoundingMode):
        if rm is _RNE:
            s = decode1(a)
            if s - s == 0.0:
                r = round_(s, 0.0)
                if r is not None:
                    return r
        return core(a, rm)
    return cvt


def scalar_dotp(src: FloatFormat, dst: FloatFormat, flen: int):
    """``simd.vfdotpex`` of ``src`` lanes into ``dst``:
    ``fn(acc, a, b, rm)`` on packed registers.  The sum grows as a
    double-double, as in :func:`dotp`; a sum that sheds a bit past the
    window or is exactly zero goes to the core."""
    core = partial(simd.vfdotpex, src, dst, flen)
    if not (batchable(src) and batchable(dst)) or not vector_lanes(src, flen):
        return core  # no vector form: the core raises
    decode2, decode_acc, round_ = (_decoders(src)[1], _decoders(dst)[0],
                                   _rounder(dst))
    mask = src.bits_mask
    shifts = range(0, flen, src.width)

    def dot(acc: int, a: int, b: int, rm: RoundingMode):
        if rm is _RNE:
            hi, lo = decode_acc(acc), 0.0
            for k in shifts:
                x, y = decode2((a >> k) & mask, (b >> k) & mask)
                term = x * y
                sh = hi + term
                t = sh - hi
                eh = (hi - (sh - t)) + (term - t)
                sl = lo + eh
                t = sl - lo
                if (lo - (sl - t)) + (eh - t):
                    break  # a bit left the window
                hi = sh + sl
                t = hi - sh
                lo = (sh - (hi - t)) + (sl - t)
            else:
                # NaN and infinity stick in ``hi``.
                if hi - hi == 0.0 and hi:
                    r = round_(hi, lo)
                    if r is not None:
                        return r
        return core(acc, a, b, rm)
    return dot
