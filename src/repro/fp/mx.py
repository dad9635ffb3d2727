"""The Xmx8 guest extension: the MX8 block format (OCP Microscaling).

MX block formats [OCP MX spec 1.0; MXDOTP, Islamoglu et al.] pair a
group of narrow FP elements with one shared power-of-two scale:

* **element**: FP8 E4M3FN -- 1 sign / 4 exponent / 3 mantissa bits,
  bias 7, subnormals, *no infinities* and a single NaN mantissa code
  (``S.1111.111``), freeing the top binade for normal values up to 448;
* **scale**: an 8-bit E8M0 exponent byte (bias 127, all-ones = NaN),
  shared by every element of the block.

The scalar :class:`MX8Format` registered here is the element codec: it
rides the generic softfloat core exactly like any other format, so
``fadd.mx``/``fmul.mx`` etc. operate on unscaled E4M3FN elements.  The
block layout lives in :func:`pack_block` / :func:`unpack_block`, and
:func:`block_dotp` implements the ``vfdotpmx`` accumulator: a 3-lane
block dot product scaled by both operands' shared exponents, expanding
into a binary32 accumulator with a *single* rounding -- the MX
counterpart of the paper's ``vfdotpex`` expanding dot product.

E4M3FN is deliberately *not* expressible as a :class:`FloatFormat`: the
top biased exponent is not an inf/NaN escape (only mantissa 0b111 is
NaN), so the codec below is its own NumberFormat implementation.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from . import registry
from .convert import from_double, to_double
from .flags import NX, OF, UF
from .formats import BINARY32
from .registry import (
    CLASS_NEG_NORMAL,
    CLASS_NEG_SUBNORMAL,
    CLASS_NEG_ZERO,
    CLASS_POS_NORMAL,
    CLASS_POS_SUBNORMAL,
    CLASS_POS_ZERO,
    CLASS_QNAN,
    NumberFormat,
)
from .rounding import RoundingMode, _shift_right_round, round_and_pack
from .unpacked import Kind, Unpacked, unpack

#: E4M3FN element geometry.
_EXP_BITS = 4
_MAN_BITS = 3
_BIAS = 7
_EMIN = -6  # smallest normal exponent
_EMAX = 8  # 448 = 0b1.110 * 2**8
_NAN_MAN = 0b111

#: E8M0 shared-scale geometry (an unsigned biased exponent byte).
SCALE_BIAS = 127
SCALE_NAN = 0xFF

#: Elements per 32-bit block register: scale byte + 3 element lanes.
BLOCK_LANES = 3

#: Energy row: the element ALU prices like binary8 (same width, similar
#: datapath); ``dotp`` prices the MXDOTP-style block unit, slightly
#: above the binary8 SIMD dot product to pay for the scale adder.
_MX8_ENERGY: Dict[str, float] = {
    "arith": 2.4, "fma": 3.0, "div": 7.0, "misc": 1.6, "dotp": 8.2,
}


class MX8Format(NumberFormat):
    """The MX8 element format: FP8 E4M3FN with a registry codec."""

    ieee = False
    is_guest = True
    #: No packed-SIMD forms: MX8 vector work goes through the block
    #: dot-product unit (``vfdotpmx``), not lane-wise packed ops.
    has_vector = False
    has_inf = False
    has_block_dotp = True
    ext_name = "Xmx8"

    name = "mx8"
    suffix = "mx"
    c_keyword = "mx8"
    width = 8
    guest_fmt2 = 0b10
    cvt_code = 10
    quiet_nan = 0x7F

    # ------------------------------------------------------------------
    # Special values (sign-magnitude defaults from NumberFormat apply)
    # ------------------------------------------------------------------
    def inf(self, sign: int) -> int:
        # No infinity: overflow materializes the NaN code.
        return self.with_sign(self.quiet_nan, sign)

    def zero(self, sign: int) -> int:
        return self.sign_mask if sign else 0

    def max_finite_signed(self, sign: int) -> int:
        return self.with_sign(0x7E, sign)  # 0b0.1111.110 = 448

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def decode(self, bits: int):
        sign = (bits >> 7) & 1
        biased = (bits >> _MAN_BITS) & ((1 << _EXP_BITS) - 1)
        man = bits & ((1 << _MAN_BITS) - 1)
        if biased == (1 << _EXP_BITS) - 1 and man == _NAN_MAN:
            return Unpacked(Kind.NAN, sign=sign, signaling=False)
        if biased == 0:
            if man == 0:
                return Unpacked(Kind.ZERO, sign=sign)
            return Unpacked(Kind.FINITE, sign=sign, sig=man,
                            exp=_EMIN - _MAN_BITS)
        return Unpacked(Kind.FINITE, sign=sign, sig=man | (1 << _MAN_BITS),
                        exp=biased - _BIAS - _MAN_BITS)

    def round_pack(self, sign: int, sig: int, exp: int, rm) -> Tuple[int, int]:
        p = _MAN_BITS + 1
        nbits = sig.bit_length()
        msb_exp = exp + nbits - 1
        flags = 0
        if msb_exp >= _EMIN:
            rounded, inexact = _shift_right_round(sig, nbits - p, rm, sign)
            exp_out = msb_exp
            if rounded.bit_length() > p:
                rounded >>= 1
                exp_out += 1
            if inexact:
                flags |= NX
            mantissa = rounded & ((1 << _MAN_BITS) - 1)
            # The S.1111.111 encoding is NaN, so 0b1.111 * 2**EMAX (480)
            # overflows even though its biased exponent is in range.
            if exp_out > _EMAX or (exp_out == _EMAX and mantissa == _NAN_MAN):
                return self._overflow(rm, sign), flags | OF | NX
            biased = exp_out + _BIAS
            return (sign << 7) | (biased << _MAN_BITS) | mantissa, flags
        # Subnormal range (same tininess-after-rounding shape as IEEE).
        discard = (_EMIN - _MAN_BITS) - exp
        rounded, inexact = _shift_right_round(sig, discard, rm, sign)
        if inexact:
            flags |= NX
            unbounded, _ = _shift_right_round(sig, nbits - p, rm, sign)
            unbounded_msb = msb_exp + (1 if unbounded.bit_length() > p else 0)
            if unbounded_msb < _EMIN:
                flags |= UF
        if rounded.bit_length() > _MAN_BITS:
            return (sign << 7) | (1 << _MAN_BITS), flags  # smallest normal
        return (sign << 7) | rounded, flags

    def _overflow(self, rm, sign: int) -> int:
        # E4M3FN overflow: nearest modes produce NaN (no inf to round
        # to); directed modes saturate at +-448 like IEEE saturating
        # modes do at max finite.  SR follows the nearest modes.
        if rm in (RoundingMode.RNE, RoundingMode.RMM, RoundingMode.SR):
            return self.inf(sign)
        if rm == RoundingMode.RTZ:
            return self.max_finite_signed(sign)
        if rm == RoundingMode.RDN:
            return self.max_finite_signed(0) if sign == 0 else self.inf(1)
        if rm == RoundingMode.RUP:
            return self.inf(0) if sign == 0 else self.max_finite_signed(1)
        raise ValueError(f"cannot overflow with mode {rm!r}")

    def classify(self, bits: int) -> int:
        u = unpack(bits, self)
        if u.is_nan:
            return CLASS_QNAN  # E4M3FN has no signaling NaN
        if u.is_zero:
            return CLASS_NEG_ZERO if u.sign else CLASS_POS_ZERO
        subnormal = ((bits >> _MAN_BITS) & ((1 << _EXP_BITS) - 1)) == 0
        if u.sign:
            return CLASS_NEG_SUBNORMAL if subnormal else CLASS_NEG_NORMAL
        return CLASS_POS_SUBNORMAL if subnormal else CLASS_POS_NORMAL

    # ------------------------------------------------------------------
    # Exact values / analysis hooks
    # ------------------------------------------------------------------
    @property
    def max_value(self) -> float:
        return 448.0

    @property
    def min_normal_value(self) -> float:
        return float(2.0 ** _EMIN)

    @property
    def machine_epsilon(self) -> float:
        return float(2.0 ** -_MAN_BITS)

    @property
    def min_positive_value(self) -> float:
        return float(2.0 ** (_EMIN - _MAN_BITS))

    def rnd_abs(self, mag: float) -> float:
        # Same shape as the IEEE bound: relative eps * mag plus one
        # minimum-subnormal ulp, each widened one binary64 ulp upward.
        up = math.inf
        return math.nextafter(
            math.nextafter(self.machine_epsilon * mag, up)
            + self.min_positive_value, up)

    def energy_row(self) -> Dict[str, float]:
        return dict(_MX8_ENERGY)

    def block_dotp(self, acc_bits: int, block_a: int, block_b: int,
                   rm) -> Tuple[int, int]:
        # Resolves to the module-level helper below at call time.
        return block_dotp(acc_bits, block_a, block_b, rm)

    def decode_lanes(self, bits: int, flen: int = 32) -> List[float]:
        # A packed MX8 register image is a shared-scale block, not
        # independent lanes: decoded values carry the block scale.
        return decode_block(bits)


MX8 = MX8Format()
registry.register(MX8)


# ----------------------------------------------------------------------
# Block layout: one 32-bit register = E8M0 scale byte | 3 element lanes
# ----------------------------------------------------------------------
def pack_block(scale: int, elements: Iterable[int]) -> int:
    """Pack an E8M0 scale byte and up to 3 E4M3FN elements into 32 bits.

    Lane 0 sits in the low byte; missing lanes are zero-filled.
    """
    elems = list(elements)
    if len(elems) > BLOCK_LANES:
        raise ValueError(f"MX8 block holds {BLOCK_LANES} lanes, got {len(elems)}")
    word = (scale & 0xFF) << (8 * BLOCK_LANES)
    for lane, e in enumerate(elems):
        word |= (e & 0xFF) << (8 * lane)
    return word


def unpack_block(word: int) -> Tuple[int, List[int]]:
    """Split a 32-bit block register into (scale, [lane0, lane1, lane2])."""
    scale = (word >> (8 * BLOCK_LANES)) & 0xFF
    elems = [(word >> (8 * lane)) & 0xFF for lane in range(BLOCK_LANES)]
    return scale, elems


def block_scale_value(scale: int) -> int:
    """The unbiased shared exponent of an E8M0 scale byte."""
    return scale - SCALE_BIAS


def choose_scale(values: Iterable[float]) -> int:
    """Pick the E8M0 scale for a block of values (OCP MX recipe).

    The shared exponent is ``floor(log2(max |v|)) - emax_elem`` so the
    largest element lands in the element format's top binade.
    """
    amax = max((abs(v) for v in values if v and math.isfinite(v)), default=0.0)
    if amax == 0.0:
        return SCALE_BIAS  # scale 2**0 for an all-zero block
    shared = int(math.floor(math.log2(amax))) - _EMAX
    return max(0, min(0xFE, shared + SCALE_BIAS))


def quantize_block(values: Iterable[float],
                   rm: RoundingMode = RoundingMode.RNE) -> int:
    """Quantize up to 3 Python floats into a packed MX8 block."""
    vals = list(values)
    scale = choose_scale(vals)
    shift = -block_scale_value(scale)
    elems = []
    for v in vals:
        scaled = math.ldexp(v, shift) if math.isfinite(v) else v
        if math.isfinite(scaled):
            # OCP MX conversion clamps to the element maximum: a lane
            # in the top binade but beyond 448 saturates, it does not
            # become the E4M3FN NaN.
            scaled = max(-MX8.max_value, min(MX8.max_value, scaled))
        elems.append(from_double(scaled, MX8, rm))
    return pack_block(scale, elems)


def decode_block(word: int) -> List[float]:
    """The exact values of a block's lanes as Python floats."""
    scale, elems = unpack_block(word)
    if scale == SCALE_NAN:
        return [math.nan] * BLOCK_LANES
    s = block_scale_value(scale)
    # ldexp(nan, s) is nan, so NaN elements pass through unharmed.
    return [math.ldexp(to_double(e, MX8), s) for e in elems]


def block_dotp(acc_bits: int, block_a: int, block_b: int,
               rm: RoundingMode) -> Tuple[int, int]:
    """``vfdotpmx.s.mx``: binary32 acc += 2**(sa+sb) * sum(a[i]*b[i]).

    The lane products and their sum are computed exactly (arbitrary
    precision), scaled by both blocks' shared exponents, added to the
    accumulator and rounded *once* into binary32 -- the same
    single-rounding contract as the host ``vfdotpex`` expanding dot
    product.  A NaN scale or element, or a NaN accumulator, yields the
    canonical binary32 quiet NaN.
    """
    sa, elems_a = unpack_block(block_a)
    sb, elems_b = unpack_block(block_b)
    uacc = unpack(acc_bits, BINARY32)
    if sa == SCALE_NAN or sb == SCALE_NAN or uacc.is_nan:
        return BINARY32.quiet_nan, 0
    terms = []
    if not uacc.is_zero:
        if uacc.is_inf:
            return acc_bits, 0
        terms.append((uacc.sign, uacc.sig, uacc.exp))
    shift = block_scale_value(sa) + block_scale_value(sb)
    for ea, eb in zip(elems_a, elems_b):
        ua, ub = unpack(ea, MX8), unpack(eb, MX8)
        if ua.is_nan or ub.is_nan:
            return BINARY32.quiet_nan, 0
        if ua.is_zero or ub.is_zero:
            continue
        terms.append((ua.sign ^ ub.sign, ua.sig * ub.sig,
                      ua.exp + ub.exp + shift))
    if not terms:
        return acc_bits if not uacc.is_zero else BINARY32.zero(uacc.sign), 0
    common = min(exp for _, _, exp in terms)
    total = sum((sig << (exp - common)) * (-1 if sign else 1)
                for sign, sig, exp in terms)
    if total == 0:
        # Exact cancellation: +0 except in RDN, mirroring fadd.
        return BINARY32.zero(1 if rm == RoundingMode.RDN else 0), 0
    sign = 1 if total < 0 else 0
    return round_and_pack(BINARY32, sign, abs(total), common, rm)
