"""Packed-SIMD lane plumbing, cast-and-pack and the expanding dot product.

The "Xfvec" extension (paper Section III-B) adds vector forms of every
scalar operation for each format narrower than FLEN.  A vector lives in
a single FLEN-bit FP register: lane 0 occupies the least-significant
bits.  At FLEN=32 this gives 2x binary16 / 2x binary16alt / 4x binary8
lanes (paper Table II).  Those vector forms are lane maps of their
scalar rows (:mod:`repro.sim.semantics`); this module keeps only the
lane plumbing (:func:`lane_count`, :func:`split_lanes`,
:func:`join_lanes`, :func:`replicate`) and the two packed operations
that are not lane maps:

* cast-and-pack (``vfcpk*``), which converts two scalars into a lane
  pair, the paper's answer to "convert scalars and assemble vectors"
  emerging as a main bottleneck of transprecision computing;
* the *expanding* dot product of "Xfaux" (``vfdotpex``), which rounds
  the whole sum once.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .arith import (  # shared internals
    _cancel_zero_sign,
    _exact_sum,
    _invalid,
    _nan_result,
)
from .convert import fcvt_f2f
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
