"""Codec between bit patterns and exact unpacked floating-point values.

An :class:`Unpacked` value classifies a bit pattern and, for finite
values, carries the *exact* value as ``(-1)**sign * sig * 2**exp`` with
an arbitrary-precision integer significand.  This representation lets
the arithmetic core (:mod:`repro.fp.arith`) compute exactly and round
once at the end.
"""

from __future__ import annotations

import enum
from dataclasses import FrozenInstanceError
from typing import Dict, Tuple

from . import formats
from .formats import FloatFormat


class Kind(enum.Enum):
    """Classification of a floating-point datum."""

    ZERO = "zero"
    FINITE = "finite"  # normal or subnormal, non-zero
    INF = "inf"
    NAN = "nan"


#: The kinds as module constants: the core classifies every operand,
#: and an enum class-attribute lookup per check is measurable.
ZERO, FINITE, INF, NAN = Kind.ZERO, Kind.FINITE, Kind.INF, Kind.NAN


class Unpacked:
    """A decoded floating-point value (immutable).

    For ``FINITE`` values, ``value == (-1)**sign * sig * 2**exp`` with
    ``sig > 0``.  For the other kinds only ``sign`` (and for NaNs
    ``signaling``) is meaningful.

    Instances are shared through the :func:`unpack` memo, so they
    refuse assignment and deletion.  Equality, hashing and ``repr``
    depend on the five fields ``kind, sign, sig, exp, signaling``.
    """

    # The predicates are precomputed slots rather than properties: the
    # arithmetic core checks them on every operand of every operation.
    __slots__ = ("kind", "sign", "sig", "exp", "signaling",
                 "is_nan", "is_snan", "is_inf", "is_zero", "is_finite")

    def __init__(self, kind: Kind, sign: int = 0, sig: int = 0, exp: int = 0,
                 signaling: bool = False) -> None:
        (set_kind, set_sign, set_sig, set_exp, set_signaling, set_nan,
         set_snan, set_inf, set_zero, set_finite) = _SLOT_SETTERS
        set_kind(self, kind)
        set_sign(self, sign)
        set_sig(self, sig)
        set_exp(self, exp)
        set_signaling(self, signaling)
        nan = kind is NAN
        set_nan(self, nan)
        set_snan(self, nan and signaling)
        set_inf(self, kind is INF)
        set_zero(self, kind is ZERO)
        set_finite(self, kind is ZERO or kind is FINITE)

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return (self.kind, self.sign, self.sig, self.exp, self.signaling)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(kind={self.kind!r}, "
                f"sign={self.sign!r}, sig={self.sig!r}, exp={self.exp!r}, "
                f"signaling={self.signaling!r})")

    def __reduce__(self):
        # Slot state would be restored through __setattr__; rebuild.
        return type(self), self._key()

    def to_float(self) -> float:
        """The exact value as a Python float (may overflow to inf).

        Intended for tests and diagnostics; library code rounds through
        :func:`repro.fp.rounding.round_and_pack` instead.
        """
        if self.kind is NAN:
            return float("nan")
        if self.kind is INF:
            return float("-inf") if self.sign else float("inf")
        if self.kind is ZERO:
            return -0.0 if self.sign else 0.0
        magnitude = self.sig * (2.0 ** self.exp)
        return -magnitude if self.sign else magnitude


#: Direct slot writers in ``__slots__`` order: construction bypasses the
#: refusing ``__setattr__`` (and is cheaper than ``object.__setattr__``).
_SLOT_SETTERS = tuple(getattr(Unpacked, name).__set__
                      for name in Unpacked.__slots__)

# Decoded values are immutable, so unpack() memoizes them per format.
# Formats up to 16 bits fit whole (<= 65536 patterns).  binary32 does
# not: a sweep fills its memo, after which misses decode without
# caching.  Its memo stays anyway: operands repeat (loop constants,
# reloaded data), and a memo hit makes fmul.s about 2-3x cheaper than
# decoding both operands; bypassing the memo for wide formats made the
# fig1 sweep no faster.  The cache is keyed by id(fmt) with the format
# pinned in the entry, which keeps lookups cheap while making id reuse
# impossible for live entries.
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
    if bits < 0 or bits > fmt.bits_mask:
        raise ValueError(
            f"bit pattern {bits:#x} out of range for {fmt.name} ({fmt.width} bits)"
        )
    # Dispatch through the format's codec: IEEE formats land in
    # ieee_decode below, guest formats (posit, MX) bring their own.
    value = fmt.decode(bits)
    if len(memo) < _UNPACK_CACHE_LIMIT:
        memo[bits] = value
    return value


def ieee_decode(bits: int, fmt: FloatFormat) -> Unpacked:
    """Decode an IEEE-754-style encoding (the FloatFormat codec)."""
    man_bits = fmt.man_bits
    exp_mask = fmt.exp_mask
    sign = (bits >> (fmt.width - 1)) & 1
    biased = (bits >> man_bits) & exp_mask
    mantissa = bits & fmt.man_mask

    if 0 < biased < exp_mask:  # normal: the common case
        return Unpacked(FINITE, sign, mantissa | (1 << man_bits),
                        biased - fmt.bias - man_bits)
    if biased:
        if mantissa == 0:
            return Unpacked(INF, sign)
        quiet = bool(mantissa & (1 << (man_bits - 1)))
        return Unpacked(NAN, sign, signaling=not quiet)
    if mantissa == 0:
        return Unpacked(ZERO, sign)
    # Subnormal: no hidden bit, exponent pinned at emin.
    return Unpacked(FINITE, sign, mantissa, fmt.emin - man_bits)


def from_python_float(value: float) -> Unpacked:
    """Unpack a Python float (an IEEE binary64) into an exact value."""
    import struct

    from .formats import BINARY64

    (bits,) = struct.unpack("<Q", struct.pack("<d", value))
    return unpack(bits, BINARY64)


# FloatFormat.decode/classify call these; formats.py cannot import them.
formats._ieee_decode = ieee_decode
formats._unpack = unpack
