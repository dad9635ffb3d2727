"""Rounding modes and the central round-and-pack routine.

Every arithmetic operation in :mod:`repro.fp` reduces its result to an
*exact* value ``(-1)**sign * sig * 2**exp`` over Python's arbitrary
precision integers (division and square root additionally carry a sticky
bit folded into the significand's LSB).  This module performs the single
rounding step that converts such an exact value into a target format's
bit pattern, raising the correct IEEE exception flags.

RISC-V exposes five rounding modes in the ``frm`` field of ``fcsr`` and
in the instruction ``rm`` field; the smallFloat extensions reuse the
same modes.  Tininess is detected *after* rounding, matching the RISC-V
specification (and FPnew, the hardware this reproduction models).
"""

from __future__ import annotations

import enum
import threading
from typing import Tuple

from . import formats
from .flags import NX, OF, UF, GuestIllegal
from .formats import FloatFormat


class RoundingMode(enum.IntEnum):
    """RISC-V rounding modes (values match the ``rm`` encoding)."""

    #: Round to nearest, ties to even.
    RNE = 0b000
    #: Round towards zero.
    RTZ = 0b001
    #: Round down (towards negative infinity).
    RDN = 0b010
    #: Round up (towards positive infinity).
    RUP = 0b011
    #: Round to nearest, ties to max magnitude (away from zero).
    RMM = 0b100
    #: Stochastic rounding (the Xfsr extension): round up with
    #: probability equal to the discarded fraction, decided by a
    #: deterministic counter-based PRF keyed per execution lane (see
    #: :func:`set_sr_key`).  Claims the previously reserved ``frm``
    #: encoding 5; encoding 6 stays reserved and still traps.
    SR = 0b101
    #: Dynamic: take the rounding mode from ``fcsr.frm``.
    #: (Repurposed by Xf16alt to select the alternate 16-bit format;
    #: when it appears as an *operating* mode it is resolved before any
    #: arithmetic is performed.)
    DYN = 0b111


_RNE = RoundingMode.RNE

#: The six operational rounding modes (DYN must be resolved first).
OPERATIONAL_MODES = (
    RoundingMode.RNE,
    RoundingMode.RTZ,
    RoundingMode.RDN,
    RoundingMode.RUP,
    RoundingMode.RMM,
    RoundingMode.SR,
)


# ----------------------------------------------------------------------
# Stochastic rounding PRF
# ----------------------------------------------------------------------
# SR must be reproducible (same program, same data, same key -> same
# bits) and engine-independent (the scalar, fast-path and lockstep
# engines retire the same instruction schedule per lane but may batch
# work differently).  A stateful stream generator would make results
# depend on global evaluation order, so the draw is a stateless keyed
# PRF instead: its "counter" is the exact value being rounded -- the
# full significand, the discard width and the sign -- mixed with a
# per-lane key.  Identical rounding events therefore reuse one draw,
# while any two distinct exact values draw independently.  Across keys
# the draw is uniform, so E[SR(x)] over keys equals x exactly:
# P(round up) == dropped / 2**discard.

_M64 = (1 << 64) - 1

class _SrKey(threading.local):
    """The ambient SR key, one per thread.  The harness and the lockstep
    engine set it per lane around execution (see :func:`set_sr_key`);
    the default key 0 is a valid lane key, so bare :class:`Simulator`
    runs are still deterministic.  Per thread, because a server runs
    kernels with different keys on concurrent workers."""

    key = 0


_SR_KEY = _SrKey()


def set_sr_key(key: int) -> int:
    """Install the ambient SR lane key; returns the previous key.

    The key seeds the stochastic-rounding PRF for every SR-rounded
    operation on the calling thread until the next call.  Callers must restore the previous
    key (try/finally) so nested scopes -- the lockstep engine draining
    lanes into scalar simulators, for example -- stay correct.
    """
    previous = _SR_KEY.key
    _SR_KEY.key = key & _M64
    return previous


def get_sr_key() -> int:
    """The ambient SR lane key (see :func:`set_sr_key`)."""
    return _SR_KEY.key


def _mix64(x: int) -> int:
    """The splitmix64 finalizer: a strong 64-bit mixing bijection."""
    x &= _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def _sr_draw(sign: int, sig: int, discard: int) -> int:
    """A uniform 64-bit draw for the rounding event ``(sign, sig, discard)``.

    The significand is folded into the state 64 bits at a time, so
    arbitrary-precision exact values (wide accumulations, division
    stickies) contribute every bit to the draw.
    """
    x = (_SR_KEY.key
         ^ (discard * 0x9E3779B97F4A7C15)
         ^ (-0x61C8864680B583EB if sign else 0)) & _M64
    while sig:
        x = _mix64(x ^ (sig & _M64))
        sig >>= 64
    return _mix64(x)


def _sr_round_up(sign: int, sig: int, discard: int, dropped: int) -> bool:
    """Stochastic decision: increment with probability dropped/2**discard."""
    draw = _sr_draw(sign, sig, discard)
    if discard <= 64:
        # Scale the draw down to ``discard`` uniform bits: exact
        # probability dropped / 2**discard.
        return dropped > (draw >> (64 - discard))
    # Beyond 64 discarded bits compare the top 64: the probability is
    # correct to within 2**-64, far below any representable epsilon.
    return (dropped >> (discard - 64)) > draw


def _round_up(rm: RoundingMode, sign: int, lsb: int, round_bit: int, sticky: int) -> bool:
    """Decide whether to increment the kept significand.

    Args:
        rm: Operational rounding mode.
        sign: Sign of the value being rounded (1 = negative).
        lsb: Least significant *kept* bit.
        round_bit: The first discarded bit.
        sticky: 1 if any lower discarded bit is non-zero.
    """
    if rm == RoundingMode.RNE:
        return bool(round_bit and (sticky or lsb))
    if rm == RoundingMode.RTZ:
        return False
    if rm == RoundingMode.RDN:
        return bool(sign and (round_bit or sticky))
    if rm == RoundingMode.RUP:
        return bool((not sign) and (round_bit or sticky))
    if rm == RoundingMode.RMM:
        return bool(round_bit)
    raise ValueError(f"cannot round with mode {rm!r}")


def _shift_right_round(
    sig: int, discard: int, rm: RoundingMode, sign: int
) -> Tuple[int, bool]:
    """Shift ``sig`` right by ``discard`` bits, rounding per ``rm``.

    Returns ``(rounded_significand, inexact)``.  ``discard`` may be zero
    or negative (a left shift, which is always exact).
    """
    if discard <= 0:
        return sig << (-discard), False
    kept = sig >> discard
    dropped = sig & ((1 << discard) - 1)
    if dropped == 0:
        return kept, False
    if rm == RoundingMode.SR:
        if _sr_round_up(sign, sig, discard, dropped):
            kept += 1
        return kept, True
    round_bit = (sig >> (discard - 1)) & 1
    sticky = 1 if (dropped & ((1 << (discard - 1)) - 1)) else 0
    if _round_up(rm, sign, kept & 1, round_bit, sticky):
        kept += 1
    return kept, True


def _overflow_result(fmt: FloatFormat, rm: RoundingMode, sign: int) -> int:
    """Pick the overflow result mandated by IEEE 754 for each mode.

    RNE/RMM round to infinity (as does SR: a value past the overflow
    threshold is nearer infinity than any finite value in expectation);
    RTZ saturates at the largest finite value; RDN/RUP saturate in the
    direction that cannot be crossed.
    """
    if rm in (RoundingMode.RNE, RoundingMode.RMM, RoundingMode.SR):
        return fmt.inf(sign)
    if rm == RoundingMode.RTZ:
        return fmt.max_finite_signed(sign)
    if rm == RoundingMode.RDN:
        return fmt.max_finite_signed(sign) if sign == 0 else fmt.neg_inf
    if rm == RoundingMode.RUP:
        return fmt.pos_inf if sign == 0 else fmt.max_finite_signed(sign)
    raise ValueError(f"cannot overflow with mode {rm!r}")


def round_and_pack(
    fmt: FloatFormat, sign: int, sig: int, exp: int, rm: RoundingMode
) -> Tuple[int, int]:
    """Round the exact value ``(-1)**sign * sig * 2**exp`` into ``fmt``.

    This is the single funnel through which every finite arithmetic
    result passes.  ``sig`` must be non-negative; a zero significand
    yields a zero of the given sign.  A caller that truncated lower-order
    bits (division, square root) must have folded a sticky bit into the
    LSB of ``sig`` so that rounding decisions remain correct.

    Returns:
        ``(bits, flags)`` -- the encoded result and the accrued IEEE
        exception flags (some subset of OF, UF, NX).
    """
    if sig < 0:
        raise ValueError("significand must be non-negative")
    if sig == 0:
        return fmt.zero(sign), 0
    # Dispatch through the format's codec: IEEE formats land in
    # ieee_round_and_pack below, guest formats bring their own packer.
    return fmt.round_pack(sign, sig, exp, rm)


def ieee_round_and_pack(
    fmt: FloatFormat, sign: int, sig: int, exp: int, rm: RoundingMode
) -> Tuple[int, int]:
    """Round-and-pack for IEEE-754-style formats (the FloatFormat codec)."""
    p = fmt.precision
    nbits = sig.bit_length()
    # Exponent of the value's most significant bit.
    msb_exp = exp + nbits - 1

    flags = 0

    if msb_exp >= fmt.emin:
        # Normal-range candidate: keep exactly p significand bits.
        discard = nbits - p
        if discard <= 0:
            rounded = sig << -discard  # exact
        elif rm is _RNE:
            # Round to nearest, ties to even, inline: the hot case.
            rounded = sig >> discard
            half = 1 << (discard - 1)
            dropped = sig & ((half << 1) - 1)
            if dropped:
                flags = NX
                if dropped > half or (dropped == half and rounded & 1):
                    rounded += 1
        else:
            rounded, inexact = _shift_right_round(sig, discard, rm, sign)
            if inexact:
                flags = NX
        exp_out = msb_exp
        if rounded >> p:  # rounding carried out, e.g. 0b1111 -> 0b10000
            rounded >>= 1
            exp_out += 1
        if exp_out > fmt.emax:
            return _overflow_result(fmt, rm, sign), flags | OF | NX
        biased = exp_out + fmt.bias
        mantissa = rounded & fmt.man_mask
        bits = (sign << (fmt.width - 1)) | (biased << fmt.man_bits) | mantissa
        return bits, flags

    # ------------------------------------------------------------------
    # Subnormal range: the significand LSB is pinned at 2**(emin - man_bits).
    # ------------------------------------------------------------------
    discard = (fmt.emin - fmt.man_bits) - exp
    rounded, inexact = _shift_right_round(sig, discard, rm, sign)
    if inexact:
        flags |= NX
        # Tininess after rounding: round as if the exponent range were
        # unbounded and check whether the result still lies below the
        # smallest normal.  (RISC-V / IEEE 754-2008 "after rounding".)
        # Only subnormal-range candidates can be tiny, and UF is only
        # raised together with NX, so the check is deferred to here.
        unbounded_sig, _ = _shift_right_round(sig, nbits - p, rm, sign)
        unbounded_msb_exp = msb_exp + (1 if unbounded_sig.bit_length() > p else 0)
        if unbounded_msb_exp < fmt.emin:
            flags |= UF
    if rounded.bit_length() > fmt.man_bits:
        # Rounded up into the smallest normal number.
        bits = (sign << (fmt.width - 1)) | fmt.min_normal
        return bits, flags
    bits = (sign << (fmt.width - 1)) | rounded
    return bits, flags


def resolve_rm(rm: RoundingMode, frm: RoundingMode) -> RoundingMode:
    """Resolve an instruction rounding mode against ``fcsr.frm``.

    ``DYN`` defers to the CSR; anything else is taken verbatim.  A
    reserved mode raises :class:`~repro.fp.flags.GuestIllegal`, the
    illegal-instruction trap hardware would take.
    """
    mode = frm if rm == RoundingMode.DYN else rm
    if mode not in OPERATIONAL_MODES:
        raise GuestIllegal(f"reserved rounding mode {mode!r}")
    return mode


# FloatFormat.round_pack calls this; formats.py cannot import it.
formats._ieee_round_and_pack = ieee_round_and_pack
