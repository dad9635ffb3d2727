"""The Xposit guest extension: posit8 and posit16 codecs.

Posits [Gustafson & Yonemoto 2017; Posit Standard 2022] trade IEEE's
fixed exponent field for *tapered* precision: a unary regime field
spends bits on dynamic range only when the magnitude is extreme, leaving
more fraction bits near 1.0.  Key differences from IEEE that the
registry hooks absorb:

* a single zero (``0b0...0``) and a single non-value **NaR**
  (``0b10...0``) instead of signed zeros/infs and NaN payloads;
* negation is **two's complement** of the whole encoding, not a sign
  bit flip;
* no subnormals and no overflow to infinity: results beyond
  ``[minpos, maxpos]`` saturate (with OF/UF + NX flags in this
  implementation, so harnesses can still detect range exhaustion);
* rounding is round-to-nearest-even *on the encoding grid*, which this
  module implements by building the exact unbounded encoding as a big
  integer and reusing the core :func:`_shift_right_round` primitive --
  the posit encoding is monotone in the body bits, so binary carries
  propagate across fraction/exponent/regime boundaries correctly.

The formats registered here follow the 2022 standard sizes used by the
"posits on RISC-V" line of work (PERCIVAL, Xposit): ``posit8`` with
``es=0`` and ``posit16`` with ``es=1``, both quire-free (fused ops
round once into the destination format, like the host smallFloat FMA).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from . import registry
from .flags import NX, OF, UF
from .registry import (
    CLASS_NEG_NORMAL,
    CLASS_POS_NORMAL,
    CLASS_POS_ZERO,
    CLASS_QNAN,
    NumberFormat,
)
from .rounding import _shift_right_round
from .unpacked import Kind, Unpacked

#: Energy per operation class in pJ.  Derived from the PERCIVAL /
#: PPU-lite synthesis comparisons (posit ALUs come in ~20-25% above an
#: IEEE FPU of the same width in UMC65-class nodes) scaled onto this
#: repo's FPnew-based table so cross-format comparisons stay coherent.
_POSIT_ENERGY: Dict[str, Dict[str, float]] = {
    "posit8": {"arith": 2.9, "fma": 3.6, "div": 8.0, "misc": 1.8,
               "vec_arith": 6.4, "vec_fma": 8.2, "vec_div": 18.0,
               "dotp": 8.8},
    "posit16": {"arith": 4.4, "fma": 5.5, "div": 15.5, "misc": 2.2,
                "vec_arith": 7.0, "vec_fma": 9.0, "vec_div": 23.0,
                "dotp": 9.6},
}


class PositFormat(NumberFormat):
    """A standard posit format with ``n`` bits and ``es`` exponent bits."""

    ieee = False
    is_guest = True
    has_vector = True
    has_inf = False
    ext_name = "Xposit"

    def __init__(self, name: str, n: int, es: int, suffix: str,
                 c_keyword: str, guest_fmt2: int, cvt_code: int) -> None:
        if n < 3:
            raise ValueError("posit width must be at least 3")
        self.name = name
        self.width = n
        self.es = es
        self.suffix = suffix
        self.c_keyword = c_keyword
        self.guest_fmt2 = guest_fmt2
        self.cvt_code = cvt_code
        #: NaR -- the single non-value; routed through the NaN paths.
        self.quiet_nan = 1 << (n - 1)
        #: Largest scale: maxpos = 2**((n-2) * 2**es).
        self.max_scale = (n - 2) << es
        #: Body (encoding without the sign bit) of maxpos / minpos.
        self.max_body = (1 << (n - 1)) - 1
        self.min_body = 1

    # ------------------------------------------------------------------
    # Bit-level operations: two's-complement negation
    # ------------------------------------------------------------------
    def neg_bits(self, bits: int) -> int:
        # Two's complement; 0 and NaR are their own negations.
        return (-bits) & self.bits_mask

    def abs_bits(self, bits: int) -> int:
        if self.sign_of(bits) and bits != self.quiet_nan:
            return self.neg_bits(bits)
        return bits

    def with_sign(self, bits: int, sign: int) -> int:
        mag = self.abs_bits(bits)
        return self.neg_bits(mag) if (sign & 1) else mag

    # ------------------------------------------------------------------
    # Special values
    # ------------------------------------------------------------------
    def inf(self, sign: int) -> int:
        # No infinity: the closest notion is NaR.
        return self.quiet_nan

    def zero(self, sign: int) -> int:
        return 0  # single unsigned zero

    def max_finite_signed(self, sign: int) -> int:
        return self.neg_bits(self.max_body) if sign else self.max_body

    # ------------------------------------------------------------------
    # Codec
    # ------------------------------------------------------------------
    def decode(self, bits: int):
        if bits == 0:
            return Unpacked(Kind.ZERO, sign=0)
        if bits == self.quiet_nan:
            return Unpacked(Kind.NAN, sign=1, signaling=False)
        n = self.width
        sign = (bits >> (n - 1)) & 1
        body = ((-bits) & self.bits_mask) if sign else bits
        # Scan the regime: a run of identical bits from bit n-2 down,
        # terminated by the opposite bit (or the end of the word).
        r0 = (body >> (n - 2)) & 1
        run = 1
        pos = n - 3
        while pos >= 0 and ((body >> pos) & 1) == r0:
            run += 1
            pos -= 1
        k = (run - 1) if r0 else -run
        regime_len = run + (1 if pos >= 0 else 0)
        rest = n - 1 - regime_len  # bits left for exponent + fraction
        e_bits = min(self.es, rest)
        frac_bits = rest - e_bits
        e_field = (body >> frac_bits) & ((1 << e_bits) - 1) if e_bits else 0
        # A truncated exponent field is padded with zeros on the right.
        e = e_field << (self.es - e_bits)
        frac = body & ((1 << frac_bits) - 1)
        scale = (k << self.es) + e
        sig = (1 << frac_bits) | frac
        return Unpacked(Kind.FINITE, sign=sign, sig=sig,
                        exp=scale - frac_bits)

    def round_pack(self, sign: int, sig: int, exp: int, rm) -> Tuple[int, int]:
        n = self.width
        nbits = sig.bit_length()
        scale = exp + nbits - 1  # exponent of the value's MSB
        k = scale >> self.es
        e = scale - (k << self.es)
        fb = nbits - 1  # fraction bits below the hidden bit
        # Unbounded-precision encoding body: regime, exponent, fraction.
        if k >= 0:
            regime = ((1 << (k + 1)) - 1) << 1  # k+1 ones, terminating 0
            regime_len = k + 2
        else:
            regime = 1  # -k zeros, terminating 1
            regime_len = -k + 1
        full = ((regime << self.es) | e) << fb | (sig - (1 << fb))
        full_len = regime_len + self.es + fb
        body, inexact = _shift_right_round(full, full_len - (n - 1), rm, sign)
        flags = NX if inexact else 0
        if body > self.max_body:
            # Rounded past maxpos: posits saturate, never round to NaR.
            body = self.max_body
            flags |= OF | NX
        elif body < self.min_body:
            # Rounded below minpos: never round a non-zero value to zero.
            body = self.min_body
            flags |= UF | NX
        bits = self.neg_bits(body) if sign else body
        return bits, flags

    def classify(self, bits: int) -> int:
        if bits == 0:
            return CLASS_POS_ZERO  # the single zero reads as +0
        if bits == self.quiet_nan:
            return CLASS_QNAN  # NaR
        # All other posits are "normal"; there are no subnormals/infs.
        return CLASS_NEG_NORMAL if self.sign_of(bits) else CLASS_POS_NORMAL

    # ------------------------------------------------------------------
    # Exact values / analysis hooks
    # ------------------------------------------------------------------
    @property
    def max_value(self) -> float:
        return float(2.0 ** self.max_scale)

    @property
    def min_positive_value(self) -> float:
        return float(2.0 ** -self.max_scale)

    @property
    def min_normal_value(self) -> float:
        # Posits have no subnormals: every value is "normal".
        return self.min_positive_value

    @property
    def machine_epsilon(self) -> float:
        # Around 1.0 the regime is 2 bits, leaving n-2-es fraction bits.
        return float(2.0 ** -(self.width - 2 - self.es))

    def rnd_abs(self, mag: float) -> float:
        """Max grid gap over ``[-mag, mag]`` (tapered precision!).

        The gap grows with the magnitude's regime length, so the bound
        is evaluated at ``mag`` itself: scale ``s >= log2(mag)``, the
        posit holding it keeps ``F = n-1-regime_len-es`` fraction bits,
        and adjacent posits there differ by ``2**(s-F)``.  The full gap
        (not half) covers directed rounding modes; one binade of slack
        from the frexp ceiling keeps it sound at binade boundaries.
        """
        if mag <= 0.0:
            return self.min_positive_value
        _, s = math.frexp(mag)  # mag = m * 2**s with m in [0.5, 1)
        s = max(-self.max_scale, min(self.max_scale, s))
        k = s >> self.es
        regime_len = (k + 2) if k >= 0 else (-k + 1)
        frac_bits = max(0, self.width - 1 - regime_len - self.es)
        return float(2.0 ** (s - frac_bits))

    def energy_row(self) -> Dict[str, float]:
        return _POSIT_ENERGY.get(self.name, {})


POSIT8 = PositFormat("posit8", n=8, es=0, suffix="p8", c_keyword="posit8",
                     guest_fmt2=0b00, cvt_code=8)
POSIT16 = PositFormat("posit16", n=16, es=1, suffix="p16",
                      c_keyword="posit16", guest_fmt2=0b01, cvt_code=9)

registry.register(POSIT8)
registry.register(POSIT16)
