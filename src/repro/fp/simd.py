"""Packed-SIMD sub-word operations over the FP register file (Xfvec).

The "Xfvec" extension (paper Section III-B) adds vector forms of every
scalar operation for each format narrower than FLEN.  A vector lives in
a single FLEN-bit FP register: lane 0 occupies the least-significant
bits.  At FLEN=32 this gives 2x binary16 / 2x binary16alt / 4x binary8
lanes (paper Table II).

This module also implements the cast-and-pack instructions (``vfcpk*``)
and the *expanding* dot products of "Xfaux" (``vfdotpex``), which the
paper introduces because "convert scalars and assemble vectors" had
emerged as a main bottleneck of transprecision computing.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple

from . import arith, compare
from .arith import (  # shared internals
    _cancel_zero_sign,
    _exact_sum,
    _invalid,
    _nan_result,
)
from .convert import fcvt_f2f, fcvt_from_int, fcvt_to_int
from .flags import GuestIllegal
from .formats import FloatFormat, vector_lanes
from .rounding import RoundingMode, round_and_pack
from .unpacked import unpack

Result = Tuple[int, int]


# ----------------------------------------------------------------------
# Lane plumbing
# ----------------------------------------------------------------------
def lane_count(fmt: FloatFormat, flen: int) -> int:
    """Number of lanes; :class:`GuestIllegal` when there is no vector form."""
    lanes = vector_lanes(fmt, flen)
    if lanes is None:
        raise GuestIllegal(f"{fmt.name} has no vector form at FLEN={flen}")
    return lanes


#: (id(fmt), flen) -> (fmt, lane bit offsets); the format is pinned in
#: the entry so a reused id can never match (as in repro.fp.unpacked).
_LANE_SHIFTS: Dict[Tuple[int, int], Tuple[FloatFormat, Tuple[int, ...]]] = {}


def _lane_shifts(fmt: FloatFormat, flen: int) -> Tuple[int, ...]:
    """Bit offset of each lane, lane 0 first (cached per format and FLEN)."""
    entry = _LANE_SHIFTS.get((id(fmt), flen))
    if entry is None or entry[0] is not fmt:
        width = fmt.width
        shifts = tuple(range(0, lane_count(fmt, flen) * width, width))
        entry = _LANE_SHIFTS[(id(fmt), flen)] = (fmt, shifts)
    return entry[1]


def split_lanes(reg: int, fmt: FloatFormat, flen: int) -> List[int]:
    """Split an FLEN-bit register into lane bit patterns (lane 0 first)."""
    mask = fmt.bits_mask
    return [(reg >> shift) & mask for shift in _lane_shifts(fmt, flen)]


def join_lanes(values: Sequence[int], fmt: FloatFormat, flen: int) -> int:
    """Pack lane bit patterns back into an FLEN-bit register."""
    lanes = lane_count(fmt, flen)
    if len(values) != lanes:
        raise ValueError(f"expected {lanes} lanes, got {len(values)}")
    reg = 0
    for i, v in enumerate(values):
        if v < 0 or v > fmt.bits_mask:
            raise ValueError(f"lane value {v:#x} out of range for {fmt.name}")
        reg |= v << (i * fmt.width)
    return reg


def replicate(scalar_bits: int, fmt: FloatFormat, flen: int) -> int:
    """Broadcast a scalar into every lane (the ``.r``-variant operand)."""
    return join_lanes([scalar_bits & fmt.bits_mask] * lane_count(fmt, flen), fmt, flen)


# ----------------------------------------------------------------------
# Lane-wise binary / unary operations
# ----------------------------------------------------------------------
def _lanewise2(
    op: Callable[..., Result], fmt: FloatFormat, flen: int, a: int, b: int,
    *args,
) -> Result:
    """``op(fmt, a[i], b[i], *args)`` per lane in lane order, flags ORed."""
    mask = fmt.bits_mask
    reg, flags = 0, 0
    # Inline split/join: op results are already in-range packed bits.
    for shift in _lane_shifts(fmt, flen):
        bits, f = op(fmt, (a >> shift) & mask, (b >> shift) & mask, *args)
        reg |= bits << shift
        flags |= f
    return reg, flags


def vfadd(fmt: FloatFormat, flen: int, a: int, b: int, rm: RoundingMode) -> Result:
    """Lane-wise addition (``vfadd.<fmt>``)."""
    return _lanewise2(arith.fadd, fmt, flen, a, b, rm)


def vfsub(fmt: FloatFormat, flen: int, a: int, b: int, rm: RoundingMode) -> Result:
    """Lane-wise subtraction (``vfsub.<fmt>``)."""
    return _lanewise2(arith.fsub, fmt, flen, a, b, rm)


def vfmul(fmt: FloatFormat, flen: int, a: int, b: int, rm: RoundingMode) -> Result:
    """Lane-wise multiplication (``vfmul.<fmt>``)."""
    return _lanewise2(arith.fmul, fmt, flen, a, b, rm)


def vfdiv(fmt: FloatFormat, flen: int, a: int, b: int, rm: RoundingMode) -> Result:
    """Lane-wise division (``vfdiv.<fmt>``)."""
    return _lanewise2(arith.fdiv, fmt, flen, a, b, rm)


def vfsqrt(fmt: FloatFormat, flen: int, a: int, rm: RoundingMode) -> Result:
    """Lane-wise square root (``vfsqrt.<fmt>``)."""
    out, flags = [], 0
    for la in split_lanes(a, fmt, flen):
        bits, f = arith.fsqrt(fmt, la, rm)
        out.append(bits)
        flags |= f
    return join_lanes(out, fmt, flen), flags


def vfmin(fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise minNum (``vfmin.<fmt>``)."""
    return _lanewise2(compare.fmin, fmt, flen, a, b)


def vfmax(fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise maxNum (``vfmax.<fmt>``)."""
    return _lanewise2(compare.fmax, fmt, flen, a, b)


def vfmac(
    fmt: FloatFormat, flen: int, acc: int, a: int, b: int, rm: RoundingMode
) -> Result:
    """Lane-wise fused multiply-accumulate: ``acc[i] += a[i] * b[i]``."""
    # _lanewise2 calls the op once per lane, lane 0 first.
    accs = iter(split_lanes(acc, fmt, flen))
    return _lanewise2(
        lambda fmt, x, y: arith.ffma(fmt, x, y, next(accs), rm),
        fmt, flen, a, b)


def vfsgnj(fmt: FloatFormat, flen: int, a: int, b: int) -> int:
    """Lane-wise sign injection."""
    out = [
        compare.fsgnj(fmt, la, lb)
        for la, lb in zip(split_lanes(a, fmt, flen), split_lanes(b, fmt, flen))
    ]
    return join_lanes(out, fmt, flen)


def _vcmp(op, fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise comparison producing a per-lane bit mask in rd."""
    mask, flags = 0, 0
    for i, (la, lb) in enumerate(
        zip(split_lanes(a, fmt, flen), split_lanes(b, fmt, flen))
    ):
        bit, f = op(fmt, la, lb)
        mask |= bit << i
        flags |= f
    return mask, flags


def vfeq(fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise quiet equality; result mask in an integer register."""
    return _vcmp(compare.feq, fmt, flen, a, b)


def vflt(fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise signaling less-than mask."""
    return _vcmp(compare.flt, fmt, flen, a, b)


def vfle(fmt: FloatFormat, flen: int, a: int, b: int) -> Result:
    """Lane-wise signaling less-or-equal mask."""
    return _vcmp(compare.fle, fmt, flen, a, b)


# ----------------------------------------------------------------------
# Vector conversions
# ----------------------------------------------------------------------
def vfcvt_f2f(
    src_fmt: FloatFormat,
    dst_fmt: FloatFormat,
    flen: int,
    a: int,
    rm: RoundingMode,
) -> Result:
    """Lane-wise float-to-float conversion between equal-width formats.

    Used for ``vfcvt.h.ah`` / ``vfcvt.ah.h``; width-changing vector
    conversions go through cast-and-pack instead (as in the paper).
    """
    if src_fmt.width != dst_fmt.width:
        raise ValueError("vector f2f conversion requires equal widths")
    out, flags = [], 0
    for lane in split_lanes(a, src_fmt, flen):
        bits, f = fcvt_f2f(src_fmt, dst_fmt, lane, rm)
        out.append(bits)
        flags |= f
    return join_lanes(out, dst_fmt, flen), flags


def vfcvt_to_int(
    fmt: FloatFormat, flen: int, a: int, rm: RoundingMode, signed: bool = True
) -> Result:
    """Lane-wise conversion to same-width integers (``vfcvt.x.<fmt>``)."""
    out, flags = [], 0
    for lane in split_lanes(a, fmt, flen):
        bits, f = fcvt_to_int(fmt, lane, rm, signed=signed, xlen=fmt.width)
        out.append(bits)
        flags |= f
    return join_lanes(out, fmt, flen), flags


def vfcvt_from_int(
    fmt: FloatFormat, flen: int, a: int, rm: RoundingMode, signed: bool = True
) -> Result:
    """Lane-wise conversion from same-width integers (``vfcvt.<fmt>.x``)."""
    out, flags = [], 0
    lanes = lane_count(fmt, flen)
    for i in range(lanes):
        raw = (a >> (i * fmt.width)) & fmt.bits_mask
        bits, f = fcvt_from_int(fmt, raw, rm, signed=signed, xlen=fmt.width)
        out.append(bits)
        flags |= f
    return join_lanes(out, fmt, flen), flags


# ----------------------------------------------------------------------
# Cast-and-pack (vfcpk)
# ----------------------------------------------------------------------
def vfcpk(
    dst_fmt: FloatFormat,
    src_fmt: FloatFormat,
    flen: int,
    dest: int,
    a: int,
    b: int,
    pair_index: int,
    rm: RoundingMode,
) -> Result:
    """Convert two ``src_fmt`` scalars and pack them into a lane pair.

    ``vfcpka`` fills lanes {0, 1} (``pair_index = 0``), ``vfcpkb`` lanes
    {2, 3} (``pair_index = 1``), and so on; untouched lanes keep their
    previous contents from ``dest``.  This is the paper's answer to the
    scalar-convert-then-assemble bottleneck (Section III-B).
    """
    lanes = lane_count(dst_fmt, flen)
    lo_lane = pair_index * 2
    if lo_lane + 1 >= lanes + 1 and lanes != 1:
        raise GuestIllegal(
            f"pair index {pair_index} out of range for {lanes} lanes")
    ca, fa = fcvt_f2f(src_fmt, dst_fmt, a, rm)
    cb, fb = fcvt_f2f(src_fmt, dst_fmt, b, rm)
    out = split_lanes(dest, dst_fmt, flen)
    out[lo_lane] = ca
    if lo_lane + 1 < lanes:
        out[lo_lane + 1] = cb
    return join_lanes(out, dst_fmt, flen), fa | fb


# ----------------------------------------------------------------------
# Expanding dot products (Xfaux)
# ----------------------------------------------------------------------
def vfdotpex(
    src_fmt: FloatFormat,
    dst_fmt: FloatFormat,
    flen: int,
    acc: int,
    a: int,
    b: int,
    rm: RoundingMode,
) -> Result:
    """Expanding SIMD dot product: ``acc += sum_i a[i] * b[i]``.

    ``acc`` and the result are ``dst_fmt`` scalars (binary32 in the
    paper's ``vfdotpex.h``); the products are computed exactly and the
    whole accumulation is rounded once, modelling a fused hardware
    datapath.
    """
    shifts = _lane_shifts(src_fmt, flen)
    mask = src_fmt.bits_mask
    ua = [unpack((a >> shift) & mask, src_fmt) for shift in shifts]
    ub = [unpack((b >> shift) & mask, src_fmt) for shift in shifts]
    uacc = unpack(acc, dst_fmt)

    if uacc.is_nan or any(u.is_nan for u in ua + ub):
        return _nan_result(dst_fmt, uacc, *ua, *ub)

    terms = []
    inf_signs = set()
    if uacc.is_inf:
        inf_signs.add(uacc.sign)
    else:
        terms.append((uacc.sign, uacc.sig, uacc.exp))
    for x, y in zip(ua, ub):
        if x.is_inf or y.is_inf:
            if x.is_zero or y.is_zero:
                return _invalid(dst_fmt)  # 0 * inf in some lane
            inf_signs.add(x.sign ^ y.sign)
            continue
        terms.append((x.sign ^ y.sign, x.sig * y.sig, x.exp + y.exp))
    if inf_signs:
        if len(inf_signs) > 1:
            return _invalid(dst_fmt)  # inf - inf across lanes
        return dst_fmt.inf(inf_signs.pop()), 0

    exact = _exact_sum(terms)
    if exact is None:
        return dst_fmt.zero(_cancel_zero_sign(rm)), 0
    sign, sig, exp = exact
    return round_and_pack(dst_fmt, sign, sig, exp, rm)
