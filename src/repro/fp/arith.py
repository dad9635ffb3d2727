"""Correctly rounded softfloat arithmetic for every smallFloat format.

This is the functional model of FPnew, the transprecision FPU the paper
evaluates.  Operands are unpacked into exact integer-scaled values,
combined with exact big-integer arithmetic (division and square root
keep ``p + 2`` result bits plus a sticky bit), and rounded exactly once
through :func:`repro.fp.rounding.round_and_pack`.

All functions return ``(result_bits, fflags)``.  NaN handling follows
RISC-V: operations never propagate NaN payloads; any NaN input yields
the canonical quiet NaN, and signaling NaNs additionally raise NV.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

from .flags import DZ, NV
from .formats import FloatFormat
from .rounding import RoundingMode, round_and_pack
from .unpacked import Unpacked, unpack

Result = Tuple[int, int]


# ----------------------------------------------------------------------
# Special-value helpers
# ----------------------------------------------------------------------
def _nan_result(fmt: FloatFormat, *operands: Unpacked) -> Result:
    """Canonical quiet NaN; NV iff any operand NaN is signaling."""
    flags = NV if any(u.is_snan for u in operands) else 0
    return fmt.quiet_nan, flags


def _invalid(fmt: FloatFormat) -> Result:
    """Canonical quiet NaN with the invalid-operation flag."""
    return fmt.quiet_nan, NV


def _cancel_zero_sign(rm: RoundingMode) -> int:
    """Sign of an exact-cancellation zero: -0 only when rounding down."""
    return 1 if rm == RoundingMode.RDN else 0


# ----------------------------------------------------------------------
# Exact combination of finite unpacked values
# ----------------------------------------------------------------------
def _exact_sum(
    terms: Sequence[Tuple[int, int, int]]
) -> Optional[Tuple[int, int, int]]:
    """Exactly sum n ``(sign, sig, exp)`` terms; ``None`` on cancellation.

    Zero terms (``sig == 0``) are permitted and ignored.
    """
    live = [(s, m, e) for (s, m, e) in terms if m != 0]
    if not live:
        return None
    common = min(e for (_, _, e) in live)
    total = 0
    for sign, sig, exp in live:
        scaled = sig << (exp - common)
        total += -scaled if sign else scaled
    if total == 0:
        return None
    if total < 0:
        return 1, -total, common
    return 0, total, common


def _round_sum(
    fmt: FloatFormat,
    sign_a: int, sig_a: int, exp_a: int,
    sign_b: int, sig_b: int, exp_b: int,
    rm: RoundingMode,
) -> Result:
    """Round the exact sum of two ``(sign, sig, exp)`` terms once.

    The two-term form of :func:`_exact_sum`, for ``fadd`` and
    ``fma_mixed``: a zero term drops out, otherwise both significands
    align at the smaller exponent.  Exact cancellation gives the
    rounding mode's zero; callers handle the sum of two zeros.
    """
    if not sig_b:
        return round_and_pack(fmt, sign_a, sig_a, exp_a, rm)
    if not sig_a:
        return round_and_pack(fmt, sign_b, sig_b, exp_b, rm)
    if exp_a > exp_b:
        sig_a <<= exp_a - exp_b
        exp_a = exp_b
    else:
        sig_b <<= exp_b - exp_a
    if sign_a == sign_b:
        return round_and_pack(fmt, sign_a, sig_a + sig_b, exp_a, rm)
    sig_a -= sig_b
    if sig_a > 0:
        return round_and_pack(fmt, sign_a, sig_a, exp_a, rm)
    if sig_a < 0:
        return round_and_pack(fmt, sign_b, -sig_a, exp_a, rm)
    return fmt.zero(_cancel_zero_sign(rm)), 0


# ----------------------------------------------------------------------
# Addition / subtraction
# ----------------------------------------------------------------------
def fadd(fmt: FloatFormat, a: int, b: int, rm: RoundingMode) -> Result:
    """``a + b``, correctly rounded in ``fmt``."""
    ua, ub = unpack(a, fmt), unpack(b, fmt)
    if not (ua.is_finite and ub.is_finite):
        if ua.is_nan or ub.is_nan:
            return _nan_result(fmt, ua, ub)
        if ua.is_inf and ub.is_inf and ua.sign != ub.sign:
            return _invalid(fmt)  # inf - inf
        return fmt.inf(ua.sign if ua.is_inf else ub.sign), 0
    if ua.is_zero and ub.is_zero:
        # IEEE: equal signs keep the sign, opposite signs give the
        # cancellation zero of the rounding mode.
        if ua.sign == ub.sign:
            return fmt.zero(ua.sign), 0
        return fmt.zero(_cancel_zero_sign(rm)), 0
    return _round_sum(fmt, ua.sign, ua.sig, ua.exp, ub.sign, ub.sig, ub.exp,
                      rm)


def fsub(fmt: FloatFormat, a: int, b: int, rm: RoundingMode) -> Result:
    """``a - b``: addition with the second operand's sign flipped."""
    ub = unpack(b, fmt)
    if ub.is_nan:
        # Flipping a NaN's sign bit must not quiet it; recompute directly.
        ua = unpack(a, fmt)
        return _nan_result(fmt, ua, ub)
    return fadd(fmt, a, fmt.neg_bits(b), rm)


# ----------------------------------------------------------------------
# Multiplication
# ----------------------------------------------------------------------
def fmul(fmt: FloatFormat, a: int, b: int, rm: RoundingMode) -> Result:
    """``a * b``, correctly rounded in ``fmt``."""
    ua, ub = unpack(a, fmt), unpack(b, fmt)
    sign = ua.sign ^ ub.sign
    if not (ua.is_finite and ub.is_finite):
        if ua.is_nan or ub.is_nan:
            return _nan_result(fmt, ua, ub)
        if ua.is_zero or ub.is_zero:
            return _invalid(fmt)  # 0 * inf
        return fmt.inf(sign), 0
    # A zero factor makes sig == 0, which rounds to the signed zero.
    return round_and_pack(fmt, sign, ua.sig * ub.sig, ua.exp + ub.exp, rm)


# ----------------------------------------------------------------------
# Division
# ----------------------------------------------------------------------
def fdiv(fmt: FloatFormat, a: int, b: int, rm: RoundingMode) -> Result:
    """``a / b``, correctly rounded in ``fmt``."""
    ua, ub = unpack(a, fmt), unpack(b, fmt)
    if ua.is_nan or ub.is_nan:
        return _nan_result(fmt, ua, ub)
    sign = ua.sign ^ ub.sign
    if ua.is_inf:
        if ub.is_inf:
            return _invalid(fmt)  # inf / inf
        return fmt.inf(sign), 0
    if ub.is_inf:
        return fmt.zero(sign), 0
    if ub.is_zero:
        if ua.is_zero:
            return _invalid(fmt)  # 0 / 0
        return fmt.inf(sign), DZ
    if ua.is_zero:
        return fmt.zero(sign), 0

    # Long-divide with enough quotient bits that the folded sticky bit
    # sits strictly below the rounding position: p + 3 bits suffice.
    shift = fmt.precision + 3 + max(0, ub.sig.bit_length() - ua.sig.bit_length())
    quotient, remainder = divmod(ua.sig << shift, ub.sig)
    exp = ua.exp - ub.exp - shift
    # Fold the sticky bit below the quotient's LSB.
    sig = (quotient << 1) | (1 if remainder else 0)
    return round_and_pack(fmt, sign, sig, exp - 1, rm)


# ----------------------------------------------------------------------
# Square root
# ----------------------------------------------------------------------
def fsqrt(fmt: FloatFormat, a: int, rm: RoundingMode) -> Result:
    """``sqrt(a)``, correctly rounded in ``fmt``."""
    ua = unpack(a, fmt)
    if ua.is_nan:
        return _nan_result(fmt, ua)
    if ua.is_zero:
        return fmt.zero(ua.sign), 0  # sqrt(-0) == -0
    if ua.sign:
        return _invalid(fmt)
    if ua.is_inf:
        return fmt.pos_inf, 0

    sig, exp = ua.sig, ua.exp
    if exp & 1:
        sig <<= 1
        exp -= 1
    # Scale so the integer root carries at least p + 3 bits.
    want = 2 * (fmt.precision + 3)
    extra = max(0, want - sig.bit_length())
    extra += extra & 1  # keep the exponent even
    sig <<= extra
    exp -= extra
    root = math.isqrt(sig)
    remainder = sig - root * root
    out_sig = (root << 1) | (1 if remainder else 0)
    return round_and_pack(fmt, 0, out_sig, exp // 2 - 1, rm)


# ----------------------------------------------------------------------
# Fused multiply-add (one rounding, per IEEE)
# ----------------------------------------------------------------------
def ffma(
    fmt: FloatFormat,
    a: int,
    b: int,
    c: int,
    rm: RoundingMode,
    negate_product: bool = False,
    negate_addend: bool = False,
) -> Result:
    """Fused ``±(a * b) ± c`` with a single rounding step.

    The four RISC-V fused ops map onto the two negation knobs:
    ``fmadd`` (False, False), ``fmsub`` (False, True),
    ``fnmsub`` (True, False), ``fnmadd`` (True, True).
    """
    return fma_mixed(fmt, fmt, a, b, c, rm, negate_product, negate_addend)


def fma_mixed(
    src_fmt: FloatFormat,
    dst_fmt: FloatFormat,
    a: int,
    b: int,
    c: int,
    rm: RoundingMode,
    negate_product: bool = False,
    negate_addend: bool = False,
) -> Result:
    """FMA with ``a, b`` in ``src_fmt`` and ``c``/result in ``dst_fmt``.

    With ``src_fmt == dst_fmt`` this is the ordinary fused op; with a
    narrower source it models the *expanding* multiply-accumulate of the
    Xfaux extension (``fmacex.s.h`` etc.), which skips the explicit
    conversion instructions the paper identifies as overhead (Fig. 5).
    """
    ua, ub = unpack(a, src_fmt), unpack(b, src_fmt)
    uc = unpack(c, dst_fmt)
    prod_sign = ua.sign ^ ub.sign ^ (1 if negate_product else 0)
    add_sign = uc.sign ^ (1 if negate_addend else 0)

    if not (ua.is_finite and ub.is_finite and uc.is_finite):
        if ua.is_nan or ub.is_nan or uc.is_nan:
            return _nan_result(dst_fmt, ua, ub, uc)
        # Invalid: 0 * inf in the product (regardless of the addend).
        if (ua.is_inf and ub.is_zero) or (ua.is_zero and ub.is_inf):
            return _invalid(dst_fmt)
        if ua.is_inf or ub.is_inf:
            if uc.is_inf and prod_sign != add_sign:
                return _invalid(dst_fmt)  # inf - inf
            return dst_fmt.inf(prod_sign), 0
        return dst_fmt.inf(add_sign), 0

    prod_sig = ua.sig * ub.sig
    if prod_sig == 0 and uc.is_zero:
        if prod_sign == add_sign:
            return dst_fmt.zero(prod_sign), 0
        return dst_fmt.zero(_cancel_zero_sign(rm)), 0
    return _round_sum(dst_fmt, prod_sign, prod_sig, ua.exp + ub.exp,
                      add_sign, uc.sig, uc.exp, rm)


def fmul_widen(
    src_fmt: FloatFormat, dst_fmt: FloatFormat, a: int, b: int, rm: RoundingMode
) -> Result:
    """Expanding multiply (``fmulex``): narrow operands, wide result.

    Because the product of two ``src_fmt`` values always fits a format
    with at least double the precision, the common cases are exact.
    """
    ua, ub = unpack(a, src_fmt), unpack(b, src_fmt)
    sign = ua.sign ^ ub.sign
    if not (ua.is_finite and ub.is_finite):
        if ua.is_nan or ub.is_nan:
            return _nan_result(dst_fmt, ua, ub)
        if ua.is_zero or ub.is_zero:
            return _invalid(dst_fmt)  # 0 * inf
        return dst_fmt.inf(sign), 0
    return round_and_pack(dst_fmt, sign, ua.sig * ub.sig, ua.exp + ub.exp, rm)
