"""Packed-SIMD rows against the softfloat core, spec by spec.

Every packed row but cast-and-pack and ``vfdotpex`` is the lane map of
its scalar row in :mod:`repro.sim.semantics`.  This suite checks each
registered packed spec at FLEN 32 and 64 against a lane loop written
here over the core's scalar functions (:mod:`repro.fp.arith`,
:mod:`repro.fp.compare`, :mod:`repro.fp.convert`): edge and random
operands, every static rounding mode, stochastic rounding included.  At
FLEN 32 the row's batch form (lockstep's) must agree on every lane it
does not hand back.  A format with no vector form at a FLEN still binds,
and raises :class:`GuestIllegal` when called.
"""

import random
from functools import partial

import numpy as np
import pytest

from repro.fp import arith, compare, convert
from repro.fp.flags import GuestIllegal
from repro.fp.formats import vector_lanes
from repro.fp.rounding import RoundingMode, set_sr_key
from repro.isa.instructions import all_specs, spec_by_mnemonic
from repro.sim.semantics import SEMANTICS, formats

MODES = (RoundingMode.RNE, RoundingMode.RTZ, RoundingMode.RDN,
         RoundingMode.RUP, RoundingMode.RMM, RoundingMode.SR)
SR_KEY = 0x5EED
N_TUPLES = 48

#: Each packed kind's scalar compute on the core, ``(F, *lanes, rm)``.
CORE = {
    "vfadd": lambda F, a, b, rm: arith.fadd(F.fmt, a, b, rm),
    "vfsub": lambda F, a, b, rm: arith.fsub(F.fmt, a, b, rm),
    "vfmul": lambda F, a, b, rm: arith.fmul(F.fmt, a, b, rm),
    "vfdiv": lambda F, a, b, rm: arith.fdiv(F.fmt, a, b, rm),
    "vfsqrt": lambda F, a, rm: arith.fsqrt(F.fmt, a, rm),
    "vfmac": lambda F, c, a, b, rm: arith.ffma(F.fmt, a, b, c, rm),
    "vfmin": lambda F, a, b, rm: compare.fmin(F.fmt, a, b),
    "vfmax": lambda F, a, b, rm: compare.fmax(F.fmt, a, b),
    "vfsgnj": lambda F, a, b, rm: (compare.fsgnj(F.fmt, a, b), 0),
    "vfsgnjn": lambda F, a, b, rm: (compare.fsgnjn(F.fmt, a, b), 0),
    "vfsgnjx": lambda F, a, b, rm: (compare.fsgnjx(F.fmt, a, b), 0),
    "vfeq": lambda F, a, b, rm: compare.feq(F.fmt, a, b),
    "vflt": lambda F, a, b, rm: compare.flt(F.fmt, a, b),
    "vfle": lambda F, a, b, rm: compare.fle(F.fmt, a, b),
    "vfcvt_f2f": lambda F, a, rm: convert.fcvt_f2f(F.src, F.fmt, a, rm),
    "vfcvt_x_f": lambda F, a, rm: convert.fcvt_to_int(
        F.fmt, a, rm, signed=True, xlen=F.fmt.width),
    "vfcvt_f_x": lambda F, a, rm: convert.fcvt_from_int(
        F.fmt, a, rm, signed=True, xlen=F.fmt.width),
}
#: Kinds whose result sets bit *i* from lane *i*.
MASKS = {"vfeq", "vflt", "vfle"}

CASES = [(spec.mnemonic, flen)
         for spec in sorted(all_specs(), key=lambda s: s.mnemonic)
         if spec.vec and spec.kind in CORE for flen in (32, 64)]


def lane_loop(kind, F, operands, rm):
    """The packed op written out: the core per lane, flags ORed."""
    width, mask = F.fmt.width, F.fmt.bits_mask
    out = flags = 0
    for i, shift in enumerate(range(0, F.flen, width)):
        bits, f = CORE[kind](F, *[(r >> shift) & mask for r in operands], rm)
        out |= bits << (i if kind in MASKS else shift)
        flags |= f
    return out, flags


def edge_lanes(fmt):
    """Lane patterns at the format's special values and encoding edges."""
    sign, mask = fmt.sign_mask, fmt.bits_mask
    lanes = {0, 1, 2, sign, sign | 1, sign - 1, mask, fmt.quiet_nan,
             fmt.max_finite_signed(0), fmt.max_finite_signed(1),
             fmt.zero(1), fmt.inf(0), fmt.inf(1)}
    if fmt.has_inf:
        lanes.add(fmt.inf(0) | 1)  # a signaling NaN
    return sorted(lanes)


def operand_tuples(F, count, arity, rng):
    """Registers of edge lanes (mixed and replicated) and random bits."""
    width = F.fmt.width
    pool = edge_lanes(F.fmt)
    shifts = range(0, F.flen, width)
    tuples = []
    for t in range(count):
        regs = []
        for _ in range(arity):
            if t % 3 == 0:
                regs.append(rng.getrandbits(F.flen))
            elif t % 3 == 1:
                lane = rng.choice(pool)
                regs.append(sum(lane << s for s in shifts))
            else:
                regs.append(sum(rng.choice(pool) << s for s in shifts))
        tuples.append(regs)
    return tuples


def call(fn, row, operands, rm):
    """A row's compute as ``(bits, flags)``."""
    result = fn(*operands, rm) if row.rounds else fn(*operands)
    return result if row.flags else (result, 0)


@pytest.mark.parametrize("mnemonic,flen", CASES,
                         ids=[f"{m}-{flen}" for m, flen in CASES])
def test_packed_row_is_the_core_lane_by_lane(mnemonic, flen):
    spec = spec_by_mnemonic(mnemonic)
    row, F = SEMANTICS[spec.kind], formats(spec, flen)
    arity = len(spec.syntax) - 1 + row.acc
    fn = row.op(F)  # binds even where there are no lanes
    if vector_lanes(F.fmt, flen) is None:
        with pytest.raises(GuestIllegal):
            fn(*[0] * arity, *([RoundingMode.RNE] if row.rounds else []))
        assert row.batch(F) is None
        return
    rng = random.Random(f"{mnemonic}/{flen}")
    tuples = operand_tuples(F, N_TUPLES, arity, rng)
    modes = MODES if row.rounds else (None,)
    previous = set_sr_key(0)
    try:
        want = {}
        for t, operands in enumerate(tuples):
            for rm in modes:
                set_sr_key(SR_KEY + t)
                want[t, rm] = lane_loop(spec.kind, F, operands, rm)
                assert call(fn, row, operands, rm) == want[t, rm], (
                    mnemonic, flen, rm, [hex(r) for r in operands])
    finally:
        set_sr_key(previous)
    vector = row.batch(F) if flen == 32 else None
    if vector is None:
        return
    columns = [np.array(c, dtype=np.uint32) for c in zip(*tuples)]
    keys = np.arange(len(tuples), dtype=np.uint64) + np.uint64(SR_KEY)
    for rm in modes:
        bits, flags, fallback = (vector(*columns, rm=rm, keys=keys)
                                 if row.rounds else vector(*columns))
        for t, operands in enumerate(tuples):
            if fallback is None or not fallback[t]:
                assert (int(bits[t]), int(flags[t])) == want[t, rm], (
                    mnemonic, rm, [hex(r) for r in operands])


def test_rebinding_a_scalar_row_rebinds_its_packed_row(monkeypatch):
    F = formats(spec_by_mnemonic("vfadd.h"), 32)
    one, two = 0x3C003C00, 0x40004000  # binary16 1.0 and 2.0 in both lanes
    assert SEMANTICS["vfadd"].op(F)(one, two, RoundingMode.RNE) == (
        0x42004200, 0)  # 3.0
    monkeypatch.setattr(SEMANTICS["fadd"], "op",
                        lambda F: partial(arith.fsub, F.fmt))
    assert SEMANTICS["vfadd"].op(F)(one, two, RoundingMode.RNE) == (
        0xBC00BC00, 0)  # -1.0
