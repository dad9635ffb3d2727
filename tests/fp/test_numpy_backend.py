"""Cross-validation of the fast numpy backend against the softfloat core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32, RoundingMode
from repro.fp.arith import fadd, fmul
from repro.fp.convert import from_double, to_double
from repro.fp.numpy_backend import from_bits, quantize, to_bits

RNE = RoundingMode.RNE
ALL_FORMATS = [BINARY8, BINARY16, BINARY16ALT, BINARY32]
FMT_IDS = [f.name for f in ALL_FORMATS]


@pytest.mark.parametrize("fmt", ALL_FORMATS, ids=FMT_IDS)
class TestQuantize:
    @given(value=st.floats(allow_nan=False, allow_infinity=False, width=64))
    @settings(max_examples=300, deadline=None)
    def test_matches_softfloat(self, fmt, value):
        got = float(quantize(value, fmt))
        want = to_double(from_double(value, fmt), fmt)
        if np.isnan(want):
            assert np.isnan(got)
        else:
            assert got == want, f"{fmt.name}: {value!r}"
            assert np.signbit(got) == np.signbit(want)

    def test_specials(self, fmt):
        assert np.isnan(quantize(np.nan, fmt))
        assert quantize(np.inf, fmt) == np.inf
        assert quantize(-np.inf, fmt) == -np.inf
        assert quantize(0.0, fmt) == 0.0
        assert np.signbit(quantize(-0.0, fmt))

    def test_idempotent(self, fmt):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1000) * 10
        q = quantize(x, fmt)
        assert np.array_equal(quantize(q, fmt), q, equal_nan=True)

    def test_non_contiguous_input(self, fmt):
        """Strided views (e.g. a column slice) must quantize like their
        contiguous copies -- the fast path reinterprets bits in place
        and can only do so on a contiguous last axis."""
        rng = np.random.default_rng(23)
        base = rng.standard_normal((64, 8)) * 10
        snapshot = base.copy()
        col = base[:, 3]          # stride 8 doubles, not contiguous
        rev = base[0, ::-1]       # negative stride
        assert not col.flags.c_contiguous
        for view in (col, rev):
            got = quantize(view, fmt)
            want = quantize(np.ascontiguousarray(view), fmt)
            assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(base, snapshot)  # input stays untouched

    def test_bits_roundtrip(self, fmt):
        rng = np.random.default_rng(5)
        x = quantize(rng.standard_normal(2000) * 100, fmt)
        assert np.array_equal(from_bits(to_bits(x, fmt), fmt), x)

    def test_bits_match_softfloat_encoding(self, fmt):
        rng = np.random.default_rng(17)
        values = rng.standard_normal(300) * 50
        got = to_bits(values, fmt)
        want = np.array([from_double(v, fmt) for v in values], dtype=np.uint64)
        assert np.array_equal(got, want)


class TestQuantizeExhaustive:
    def test_all_binary8_patterns(self):
        """from_bits/to_bits cover all 256 binary8 encodings."""
        bits = np.arange(256, dtype=np.uint64)
        values = from_bits(bits, BINARY8)
        back = to_bits(values, BINARY8)
        nan_mask = np.isnan(values)
        assert np.array_equal(back[~nan_mask], bits[~nan_mask])
        assert np.all(back[nan_mask] == BINARY8.quiet_nan)

    def test_all_binary16_patterns_against_numpy(self):
        bits16 = np.arange(1 << 16, dtype=np.uint16)
        f16 = bits16.view(np.float16).astype(np.float64)
        q = quantize(f16, BINARY16)
        assert np.array_equal(q, f16, equal_nan=True)

    def test_float64_midpoints_round_to_even(self):
        # 1 + 2^-11 is the midpoint between 1.0 and 1 + 2^-10.
        assert float(quantize(1.0 + 2.0 ** -11, BINARY16)) == 1.0
        assert (
            float(quantize(1.0 + 3 * 2.0 ** -11, BINARY16)) == 1.0 + 2 * 2.0 ** -10
        )

    def test_overflow_to_inf(self):
        assert float(quantize(1.0e30, BINARY16)) == np.inf
        assert float(quantize(-1.0e30, BINARY8)) == -np.inf

    def test_underflow_to_zero(self):
        assert float(quantize(1.0e-30, BINARY16)) == 0.0
        assert np.signbit(quantize(-1.0e-30, BINARY16))

    def test_subnormal_quantization(self):
        v = 2.0 ** -24 * 3  # 3 * min_subnormal of binary16
        assert float(quantize(v, BINARY16)) == v
        assert float(quantize(2.0 ** -24 * 2.9, BINARY16)) == v


class TestRepresentable:
    def test_mask(self):
        x = np.array([1.0, 1.0 + 2.0 ** -20, 65504.0, 1e9])
        assert (quantize(x, BINARY16) == x).tolist() == [True, False, True, False]


class TestEmulator:
    """Whole-kernel emulation in one format: quantize after every op."""

    @given(
        a=st.floats(-1e4, 1e4),
        b=st.floats(-1e4, 1e4),
    )
    @settings(max_examples=200, deadline=None)
    def test_add_matches_softfloat(self, a, b):
        qa, qb = quantize(a, BINARY16), quantize(b, BINARY16)
        got = float(quantize(qa + qb, BINARY16))
        ba, bb = from_double(a, BINARY16), from_double(b, BINARY16)
        want = to_double(fadd(BINARY16, ba, bb, RNE)[0], BINARY16)
        assert got == want or (np.isnan(got) and np.isnan(want))

    @given(
        a=st.floats(-100, 100),
        b=st.floats(-100, 100),
    )
    @settings(max_examples=200, deadline=None)
    def test_mul_matches_softfloat_binary8(self, a, b):
        qa, qb = quantize(a, BINARY8), quantize(b, BINARY8)
        got = float(quantize(qa * qb, BINARY8))
        ba, bb = from_double(a, BINARY8), from_double(b, BINARY8)
        want = to_double(fmul(BINARY8, ba, bb, RNE)[0], BINARY8)
        assert got == want or (np.isnan(got) and np.isnan(want))

    def test_div_by_zero_gives_inf(self):
        with np.errstate(divide="ignore"):
            assert float(quantize(np.float64(1.0) / 0.0, BINARY16)) == np.inf

    def test_dot_with_wide_accumulator(self):
        """Models the Xfaux expanding accumulation of the case study."""
        n = 3000  # past 1.0 the binary16 accumulator stagnates (ties to even)
        term = float(quantize(2.0 ** -11 * 1.0, BINARY16))
        narrow = wide = 0.0
        for _ in range(n):
            narrow = float(quantize(narrow + term, BINARY16))
            wide = float(quantize(wide + term, BINARY32))
        assert wide == pytest.approx(n * 2.0 ** -11, rel=1e-3)
        assert narrow == 1.0  # stagnated exactly at 1.0
        assert narrow < wide  # precision loss is visible

    def test_sqrt(self):
        assert float(quantize(np.sqrt(quantize(9.0, BINARY8)), BINARY8)) == 3.0

    def test_fma_single_rounding(self):
        a = quantize(1.0 + 2.0 ** -10, BINARY16)
        b = quantize(1.0 - 2.0 ** -10, BINARY16)
        got = float(quantize(a * b - 1.0, BINARY16))
        assert got == -(2.0 ** -20)
