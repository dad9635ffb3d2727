"""Packed-SIMD (Xfvec) and expanding (Xfaux) operation tests.

The lane-wise forms are the packed semantics rows (lane maps of their
scalar rows), reached here through their instruction specs; cast-and-pack
and the expanding dot product are :mod:`repro.fp.simd`'s own.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32, NV, RoundingMode
from repro.fp.arith import fmul
from repro.fp.convert import from_double, to_double
from repro.fp.simd import (
    join_lanes,
    lane_count,
    replicate,
    split_lanes,
    vfcpk,
    vfdotpex,
)
from repro.isa.instructions import spec_by_mnemonic
from repro.sim.semantics import SEMANTICS, Formats, formats

RNE = RoundingMode.RNE
F16, F8, F32 = BINARY16, BINARY8, BINARY32


def row(mnemonic, flen=32):
    """The compute the semantics row binds for ``mnemonic`` at ``flen``."""
    spec = spec_by_mnemonic(mnemonic)
    return SEMANTICS[spec.kind].op(formats(spec, flen))


def pack16(*values):
    return join_lanes([from_double(v, F16) for v in values], F16, 32)


def unpack16(reg):
    return [to_double(b, F16) for b in split_lanes(reg, F16, 32)]


def pack8(*values):
    return join_lanes([from_double(v, F8) for v in values], F8, 32)


def unpack8(reg):
    return [to_double(b, F8) for b in split_lanes(reg, F8, 32)]


class TestLanePlumbing:
    def test_lane_counts(self):
        assert lane_count(F16, 32) == 2
        assert lane_count(F8, 32) == 4
        assert lane_count(F16, 64) == 4
        assert lane_count(F8, 64) == 8

    def test_no_vector_form_raises(self):
        with pytest.raises(ValueError):
            lane_count(F32, 32)

    def test_split_join_roundtrip(self):
        reg = 0xDEADBEEF
        assert join_lanes(split_lanes(reg, F16, 32), F16, 32) == reg
        assert join_lanes(split_lanes(reg, F8, 32), F8, 32) == reg

    def test_lane0_is_least_significant(self):
        reg = pack16(1.0, 2.0)
        assert reg & 0xFFFF == from_double(1.0, F16)
        assert reg >> 16 == from_double(2.0, F16)

    def test_join_rejects_wrong_lane_count(self):
        with pytest.raises(ValueError):
            join_lanes([0, 0, 0], F16, 32)

    def test_join_rejects_oversized_lane(self):
        with pytest.raises(ValueError):
            join_lanes([0x1FFFF, 0], F16, 32)

    def test_replicate(self):
        reg = replicate(from_double(3.0, F8), F8, 32)
        assert unpack8(reg) == [3.0] * 4


class TestLanewiseArithmetic:
    def test_vfadd_h(self):
        got = row("vfadd.h")(pack16(1.0, 10.0), pack16(2.0, -4.0), RNE)[0]
        assert unpack16(got) == [3.0, 6.0]

    def test_vfsub_h(self):
        got = row("vfsub.h")(pack16(5.0, 1.0), pack16(2.0, 4.0), RNE)[0]
        assert unpack16(got) == [3.0, -3.0]

    def test_vfmul_b_four_lanes(self):
        got = row("vfmul.b")(pack8(1.0, 2.0, 3.0, 4.0), pack8(2.0, 2.0, 2.0, 2.0), RNE)[0]
        assert unpack8(got) == [2.0, 4.0, 6.0, 8.0]

    def test_vfsqrt(self):
        got = row("vfsqrt.h")(pack16(9.0, 16.0), RNE)[0]
        assert unpack16(got) == [3.0, 4.0]

    def test_vfmac_is_fused_per_lane(self):
        acc = pack16(1.0, 2.0)
        got = row("vfmac.h")(acc, pack16(2.0, 3.0), pack16(4.0, 5.0), RNE)[0]
        assert unpack16(got) == [9.0, 17.0]

    def test_vfmin_vfmax(self):
        a, b = pack16(1.0, 5.0), pack16(2.0, -3.0)
        assert unpack16(row("vfmin.h")(a, b)[0]) == [1.0, -3.0]
        assert unpack16(row("vfmax.h")(a, b)[0]) == [2.0, 5.0]

    def test_vfsgnj(self):
        got = row("vfsgnj.h")(pack16(1.5, 2.5), pack16(-1.0, 1.0))
        assert unpack16(got) == [-1.5, 2.5]

    def test_flags_accumulate_across_lanes(self):
        # Lane 0 fine, lane 1 is inf - inf -> NV.
        a = join_lanes([from_double(1.0, F16), F16.pos_inf], F16, 32)
        b = join_lanes([from_double(1.0, F16), F16.neg_inf], F16, 32)
        _, flags = row("vfadd.h")(a, b, RNE)
        assert flags & NV

    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_vector_equals_scalar_per_lane(self, a, b):
        """Each vector lane behaves exactly like the scalar operation."""
        vec, _ = row("vfmul.h")(a, b, RNE)
        for la, lb, lv in zip(
            split_lanes(a, F16, 32), split_lanes(b, F16, 32), split_lanes(vec, F16, 32)
        ):
            assert lv == fmul(F16, la, lb, RNE)[0]

    def test_flen64_lanes(self):
        reg_a = join_lanes([from_double(v, F16) for v in (1.0, 2.0, 3.0, 4.0)], F16, 64)
        reg_b = join_lanes([from_double(v, F16) for v in (10.0, 20.0, 30.0, 40.0)], F16, 64)
        got, _ = row("vfadd.h", 64)(reg_a, reg_b, RNE)
        assert [to_double(b, F16) for b in split_lanes(got, F16, 64)] == [
            11.0,
            22.0,
            33.0,
            44.0,
        ]


class TestVectorComparisons:
    def test_vfeq_mask(self):
        mask, _ = row("vfeq.h")(pack16(1.0, 2.0), pack16(1.0, 3.0))
        assert mask == 0b01

    def test_vflt_mask(self):
        mask, _ = row("vflt.b")(pack8(1.0, 5.0, -1.0, 0.0), pack8(2.0, 4.0, 0.0, 0.0))
        assert mask == 0b0101


class TestVectorConversions:
    def test_vfcvt_h_to_ah(self):
        reg = pack16(1.5, -2.0)
        got, _ = row("vfcvt.ah.h")(reg, RNE)
        vals = [to_double(b, BINARY16ALT) for b in split_lanes(got, BINARY16ALT, 32)]
        assert vals == [1.5, -2.0]

    def test_vfcvt_width_mismatch_rejected(self):
        convert = SEMANTICS["vfcvt_f2f"].op(Formats(F8, F16, F8, 32))
        with pytest.raises(ValueError):
            convert(0, RNE)

    def test_vfcvt_to_int(self):
        got, _ = row("vfcvt.x.h")(pack16(3.7, -2.2), RNE)
        lanes = split_lanes(got, F16, 32)
        assert lanes[0] == 4
        assert lanes[1] == (-2) & 0xFFFF

    def test_vfcvt_from_int(self):
        reg = (0xFFFE << 16) | 7  # lanes: 7, -2 as int16
        got, _ = row("vfcvt.h.x")(reg, RNE)
        assert unpack16(got) == [7.0, -2.0]


class TestCastAndPack:
    def test_vfcpk_h_s(self):
        """Paper Table I: vfcpk.h.s rd[] = {(f16)rs1, (f16)rs2}."""
        a = from_double(1.5, F32)
        b = from_double(-2.25, F32)
        got, flags = vfcpk(F16, F32, 32, 0, a, b, 0, RNE)
        assert unpack16(got) == [1.5, -2.25]
        assert flags == 0

    def test_vfcpk_rounds_on_narrowing(self):
        a = from_double(1.0 + 2.0 ** -20, F32)
        got, flags = vfcpk(F16, F32, 32, 0, a, a, 0, RNE)
        assert unpack16(got) == [1.0, 1.0]
        assert flags  # inexact

    def test_vfcpkb_fills_upper_pair(self):
        lo = vfcpk(F8, F32, 32, 0, from_double(1.0, F32), from_double(2.0, F32), 0, RNE)[0]
        full = vfcpk(F8, F32, 32, lo, from_double(3.0, F32), from_double(4.0, F32), 1, RNE)[0]
        assert unpack8(full) == [1.0, 2.0, 3.0, 4.0]

    def test_vfcpk_preserves_untouched_lanes(self):
        base = pack8(9.0, 8.0, 7.0, 6.0)
        got = vfcpk(F8, F32, 32, base, from_double(1.0, F32), from_double(2.0, F32), 0, RNE)[0]
        assert unpack8(got) == [1.0, 2.0, 7.0, 6.0]


class TestExpandingDotProduct:
    def test_vfdotpex_h(self):
        """Paper Table I: vfdopex.h rd = (fp32) dotp(rs1[], rs2[])."""
        acc = from_double(10.0, F32)
        got, flags = vfdotpex(F16, F32, 32, acc, pack16(1.0, 2.0), pack16(3.0, 4.0), RNE)
        assert to_double(got, F32) == 10.0 + 3.0 + 8.0
        assert flags == 0

    def test_vfdotpex_b_four_lanes(self):
        acc = from_double(0.0, F32)
        got, _ = vfdotpex(
            F8, F32, 32, acc, pack8(1.0, 2.0, 3.0, 4.0), pack8(1.0, 1.0, 1.0, 1.0), RNE
        )
        assert to_double(got, F32) == 10.0

    def test_single_rounding_beats_lane_unpacking(self):
        """The fused expanding dot product keeps bits a binary16
        round-per-step accumulation would lose."""
        a = pack16(1.0 + 2.0 ** -10, 1.0 - 2.0 ** -10)
        b = pack16(1.0 - 2.0 ** -10, 1.0 + 2.0 ** -10)
        acc = from_double(-2.0, F32)
        got, _ = vfdotpex(F16, F32, 32, acc, a, b, RNE)
        # Exact: 2*(1 - 2^-20) - 2 = -2^-19.
        assert to_double(got, F32) == -(2.0 ** -19)

    def test_nan_lane_gives_canonical_nan(self):
        a = join_lanes([F16.quiet_nan, from_double(1.0, F16)], F16, 32)
        got, flags = vfdotpex(F16, F32, 32, 0, a, pack16(1.0, 1.0), RNE)
        assert got == F32.quiet_nan
        assert flags == 0

    def test_inf_minus_inf_across_lanes_invalid(self):
        a = join_lanes([F16.pos_inf, F16.neg_inf], F16, 32)
        b = pack16(1.0, 1.0)
        got, flags = vfdotpex(F16, F32, 32, 0, a, b, RNE)
        assert got == F32.quiet_nan
        assert flags == NV

    def test_zero_times_inf_lane_invalid(self):
        a = join_lanes([F16.pos_inf, from_double(1.0, F16)], F16, 32)
        b = pack16(0.0, 1.0)
        _, flags = vfdotpex(F16, F32, 32, 0, a, b, RNE)
        assert flags == NV
