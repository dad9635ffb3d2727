"""Guest-format division and square root against exact rationals.

Exhaustive over the finite, nonzero operands of posit8 and mx8, in every
deterministic rounding mode.  The oracle computes each quotient or root
as a :class:`fractions.Fraction`, truncates it to 96 bits plus a sticky
bit, and lets the format's codec round that; the core's own quotient and
root are sized from ``fmt.precision``, so a precision bound that is too
small shows up as a mismatch.  Independently of the codec, every result
inside the format's range must be the exact value or one of its two
neighbours among the format's finite values.
"""

import math
from bisect import bisect_left
from fractions import Fraction

import pytest

from repro.fp import arith
from repro.fp.mx import MX8
from repro.fp.posit import POSIT8
from repro.fp.rounding import RoundingMode
from repro.fp.unpacked import unpack

MODES = (RoundingMode.RNE, RoundingMode.RTZ, RoundingMode.RDN,
         RoundingMode.RUP, RoundingMode.RMM)
EXTRA = 96  # oracle bits below the binary point of the truncated value


def _value(fmt, bits):
    u = unpack(bits, fmt)
    if not u.is_finite:
        return None
    if u.is_zero:
        return Fraction(0)
    v = Fraction(u.sig) * Fraction(2) ** u.exp
    return -v if u.sign else v


def _finite_nonzero(fmt):
    """``(bits, sign, sig, exp)`` of every finite nonzero encoding."""
    out = []
    for bits in range(1 << fmt.width):
        u = unpack(bits, fmt)
        if u.is_finite and not u.is_zero:
            out.append((bits, u.sign, u.sig, u.exp))
    return out


def _finite_values(fmt):
    return sorted({v for bits in range(1 << fmt.width)
                   if (v := _value(fmt, bits)) is not None})


def _round_quotient(fmt, sign, num, den, exp, rm):
    """``(-1)**sign * num/den * 2**exp`` rounded by ``fmt``'s codec from
    a truncation to EXTRA more bits than ``num/den`` needs, plus a
    sticky bit."""
    shift = EXTRA + den.bit_length()
    sig, rem = divmod(num << shift, den)
    return fmt.round_pack(sign, (sig << 1) | (1 if rem else 0),
                          exp - shift - 1, rm)


def _round_sqrt(fmt, sig, exp, rm):
    """sqrt(sig * 2**exp) rounded like :func:`_round_quotient`."""
    if exp & 1:
        sig, exp = sig << 1, exp - 1
    shift = EXTRA
    whole = sig << (2 * shift)
    root = math.isqrt(whole)
    sticky = 1 if root * root != whole else 0
    return fmt.round_pack(0, (root << 1) | sticky, exp // 2 - shift - 1, rm)


def _assert_neighbour(values, q, r):
    """``r`` is ``q`` or one of its two neighbours in ``values``."""
    if r is None or not values[0] <= q <= values[-1]:
        return  # overflow and saturation follow the format's own rules
    at = bisect_left(values, q)
    assert r == values[at] or (at and r == values[at - 1]), (q, r)


@pytest.mark.parametrize("fmt", [POSIT8, MX8], ids=lambda f: f.name)
def test_fdiv_matches_exact_quotient(fmt):
    operands = _finite_nonzero(fmt)
    values = _finite_values(fmt)
    for rm in MODES:
        for a, sa, ma, ea in operands:
            for b, sb, mb, eb in operands:
                got = arith.fdiv(fmt, a, b, rm)
                assert got == _round_quotient(fmt, sa ^ sb, ma, mb, ea - eb,
                                              rm), (rm, a, b)
                if rm is RoundingMode.RNE:
                    q = Fraction(ma << max(ea - eb, 0), mb << max(eb - ea, 0))
                    _assert_neighbour(values, -q if sa ^ sb else q,
                                      _value(fmt, got[0]))


@pytest.mark.parametrize("fmt", [POSIT8, MX8], ids=lambda f: f.name)
def test_fsqrt_matches_exact_root(fmt):
    values = _finite_values(fmt)
    for rm in MODES:
        for a, sign, sig, exp in _finite_nonzero(fmt):
            if sign:
                continue
            got = arith.fsqrt(fmt, a, rm)
            assert got == _round_sqrt(fmt, sig, exp, rm), (rm, a)
            # The root lies between the result's neighbours (checked
            # exactly by squaring).
            r = _value(fmt, got[0])
            at = values.index(r)
            low = values[at - 1] if at else r
            high = values[at + 1] if at + 1 < len(values) else r
            v = Fraction(sig) * Fraction(2) ** exp
            assert max(low, 0) ** 2 <= v <= high * high, (rm, a)
