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


class _Fields:
    """The slots of :class:`Unpacked`, writable: construction fills an
    instance of :class:`_Writable` and then makes it an ``Unpacked``."""

    # The predicates are precomputed slots rather than properties: the
    # arithmetic core checks them on every operand of every operation.
    __slots__ = ("kind", "sign", "sig", "exp", "signaling",
                 "is_nan", "is_snan", "is_inf", "is_zero", "is_finite")


class _Writable(_Fields):
    __slots__ = ()


_new = object.__new__


class Unpacked(_Fields):
    """A decoded floating-point value (immutable).

    For ``FINITE`` values, ``value == (-1)**sign * sig * 2**exp`` with
    ``sig > 0``.  For the other kinds only ``sign`` (and for NaNs
    ``signaling``) is meaningful.

    Instances are shared through the :func:`unpack` memo, so they
    refuse assignment and deletion.  Equality, hashing and ``repr``
    depend on the five fields ``kind, sign, sig, exp, signaling``.
    """

    __slots__ = ()

    def __new__(cls, kind: Kind, sign: int = 0, sig: int = 0, exp: int = 0,
                signaling: bool = False) -> "Unpacked":
        # Plain slot stores on a writable twin, then one class switch
        # (the two share one layout): a quarter of the cost of ten
        # descriptor calls past the refusing ``__setattr__``, and the
        # fields stay slots, which read three times faster than a
        # tuple's.
        self = _new(_Writable)
        self.kind = kind
        self.sign = sign
        self.sig = sig
        self.exp = exp
        self.signaling = signaling
        nan = kind is NAN
        self.is_nan = nan
        self.is_snan = nan and signaling
        self.is_inf = kind is INF
        self.is_zero = kind is ZERO
        self.is_finite = kind is ZERO or kind is FINITE
        self.__class__ = cls
        return self

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


# Decoded values are immutable, so unpack() memoizes them per format,
# for formats of 16 bits or less: every pattern fits (<= 65536
# entries).  Wider formats decode on every call: under RNE, binary32
# add, mul, fma, conversions and dot products round through
# repro.fp.batch's scalar face, which never unpacks (docs/performance.md,
# "Scalar RNE on the codec").  The cache is keyed by id(fmt) with the
# format pinned in the entry, which keeps lookups cheap while making id
# reuse impossible for live entries.
_UNPACK_CACHE: Dict[int, Tuple[FloatFormat, Dict[int, Unpacked]]] = {}


def unpack(bits: int, fmt: FloatFormat) -> Unpacked:
    """Decode ``bits`` (an unsigned integer of ``fmt.width`` bits).

    Bits above the format width are rejected so that packing errors in
    SIMD lane handling fail loudly instead of corrupting silently.
    """
    entry = _UNPACK_CACHE.get(id(fmt))
    if entry is None or entry[0] is not fmt:
        entry = (fmt, {} if fmt.width <= 16 else None)
        _UNPACK_CACHE[id(fmt)] = entry
    memo = entry[1]
    if memo is not None:
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
    if memo is not None:
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
