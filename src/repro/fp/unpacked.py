"""Codec between bit patterns and exact unpacked floating-point values.

An :class:`Unpacked` value classifies a bit pattern and, for finite
values, carries the *exact* value as ``(-1)**sign * sig * 2**exp`` with
an arbitrary-precision integer significand.  This representation lets
the arithmetic core (:mod:`repro.fp.arith`) compute exactly and round
once at the end.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Tuple

from . import formats
from .formats import FloatFormat


class Kind(enum.Enum):
    """Classification of a floating-point datum."""

    ZERO = "zero"
    FINITE = "finite"  # normal or subnormal, non-zero
    INF = "inf"
    NAN = "nan"


@dataclass(frozen=True)
class Unpacked:
    """A decoded floating-point value.

    For ``FINITE`` values, ``value == (-1)**sign * sig * 2**exp`` with
    ``sig > 0``.  For the other kinds only ``sign`` (and for NaNs
    ``signaling``) is meaningful.
    """

    kind: Kind
    sign: int = 0
    sig: int = 0
    exp: int = 0
    signaling: bool = False

    # Convenience predicates, precomputed: the arithmetic core checks
    # these on every operand of every operation, so they are plain
    # attributes rather than properties.  Construction is rare (unpack
    # results are memoized), reads are hot.
    is_nan: bool = field(init=False, repr=False, compare=False, default=False)
    is_snan: bool = field(init=False, repr=False, compare=False, default=False)
    is_inf: bool = field(init=False, repr=False, compare=False, default=False)
    is_zero: bool = field(init=False, repr=False, compare=False, default=False)
    is_finite: bool = field(init=False, repr=False, compare=False, default=False)

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # frozen dataclass
        kind = self.kind
        set_(self, "is_nan", kind is Kind.NAN)
        set_(self, "is_snan", kind is Kind.NAN and self.signaling)
        set_(self, "is_inf", kind is Kind.INF)
        set_(self, "is_zero", kind is Kind.ZERO)
        set_(self, "is_finite", kind is Kind.ZERO or kind is Kind.FINITE)

    def to_float(self) -> float:
        """The exact value as a Python float (may overflow to inf).

        Intended for tests and diagnostics; library code rounds through
        :func:`repro.fp.rounding.round_and_pack` instead.
        """
        if self.kind is Kind.NAN:
            return float("nan")
        if self.kind is Kind.INF:
            return float("-inf") if self.sign else float("inf")
        if self.kind is Kind.ZERO:
            return -0.0 if self.sign else 0.0
        magnitude = self.sig * (2.0 ** self.exp)
        return -magnitude if self.sign else magnitude


# Decoded values are immutable, the hot formats are at most 16 bits
# wide (<= 65536 patterns), and wider formats touch a bounded working
# set per run -- so unpack() memoizes per format.  The cache is keyed
# by id(fmt) with the format pinned in the entry, which keeps lookups
# cheap while making id reuse impossible for live entries.
_UNPACK_CACHE: Dict[int, Tuple[FloatFormat, Dict[int, Unpacked]]] = {}
_UNPACK_CACHE_LIMIT = 1 << 16


def unpack(bits: int, fmt: FloatFormat) -> Unpacked:
    """Decode ``bits`` (an unsigned integer of ``fmt.width`` bits).

    Bits above the format width are rejected so that packing errors in
    SIMD lane handling fail loudly instead of corrupting silently.
    """
    entry = _UNPACK_CACHE.get(id(fmt))
    if entry is None or entry[0] is not fmt:
        entry = (fmt, {})
        _UNPACK_CACHE[id(fmt)] = entry
    memo = entry[1]
    cached = memo.get(bits)
    if cached is not None:
        return cached
    value = _unpack_uncached(bits, fmt)
    if len(memo) < _UNPACK_CACHE_LIMIT:
        memo[bits] = value
    return value


def _unpack_uncached(bits: int, fmt: FloatFormat) -> Unpacked:
    if bits < 0 or bits > fmt.bits_mask:
        raise ValueError(
            f"bit pattern {bits:#x} out of range for {fmt.name} ({fmt.width} bits)"
        )
    # Dispatch through the format's codec: IEEE formats land in
    # ieee_decode below, guest formats (posit, MX) bring their own.
    return fmt.decode(bits)


def ieee_decode(bits: int, fmt: FloatFormat) -> Unpacked:
    """Decode an IEEE-754-style encoding (the FloatFormat codec)."""
    sign = (bits >> (fmt.width - 1)) & 1
    biased = (bits >> fmt.man_bits) & fmt.exp_mask
    mantissa = bits & fmt.man_mask

    if biased == fmt.exp_mask:
        if mantissa == 0:
            return Unpacked(Kind.INF, sign=sign)
        quiet = bool(mantissa & (1 << (fmt.man_bits - 1)))
        return Unpacked(Kind.NAN, sign=sign, signaling=not quiet)
    if biased == 0:
        if mantissa == 0:
            return Unpacked(Kind.ZERO, sign=sign)
        # Subnormal: no hidden bit, exponent pinned at emin.
        return Unpacked(
            Kind.FINITE, sign=sign, sig=mantissa, exp=fmt.emin - fmt.man_bits
        )
    sig = mantissa | (1 << fmt.man_bits)
    exp = biased - fmt.bias - fmt.man_bits
    return Unpacked(Kind.FINITE, sign=sign, sig=sig, exp=exp)


def from_python_float(value: float) -> Unpacked:
    """Unpack a Python float (an IEEE binary64) into an exact value."""
    import struct

    from .formats import BINARY64

    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return unpack(bits, BINARY64)


# FloatFormat.decode/classify call these; formats.py cannot import them.
formats._ieee_decode = ieee_decode
formats._unpack = unpack
