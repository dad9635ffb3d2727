"""The vectorized RNE codec of :mod:`repro.fp.batch` against the scalar core.

Every format of 16 bits or less rounds through one codec table: sorted
binary64 split points plus the result bits and flags of each region.
These tests pin the tables to the softfloat core under RNE:

* 8-bit formats, exhaustively: all 65,536 operand pairs through add,
  sub, mul and the three compares, fma over a fixed addend set, and
  every pattern converted to every other batchable format;
* 16-bit formats: the decode table against ``to_double`` for every
  pattern, encoding at every split point and both of its binary64
  neighbours, every pattern converted to every other batchable format,
  and 100,000 sampled operand pairs per op.

Lanes the batch marks as fallback (NaN, NaR and infinity operands) are
patched through the scalar core, as the lockstep engine does.
"""

import numpy as np
import pytest

from repro.fp import (BINARY8, BINARY16, BINARY16ALT, BINARY32, MX8, POSIT8,
                      POSIT16, RoundingMode)
from repro.fp import batch as fpbatch
from repro.fp.arith import fadd, ffma, fmul, fsub
from repro.fp.compare import feq, fle, flt
from repro.fp.convert import double_to_bits, fcvt_f2f, to_double
from repro.fp.formats import BINARY64

RNE = RoundingMode.RNE
BYTE_FORMATS = [BINARY8, POSIT8, MX8]
HALF_FORMATS = [BINARY16, BINARY16ALT, POSIT16]
BATCHABLE = BYTE_FORMATS + HALF_FORMATS + [BINARY32]
SAMPLES = 100_000


def _ids(formats):
    return [f.name for f in formats]


def _u32(values):
    return np.asarray(values, dtype=np.uint32)


def _check(label, batch_result, scalar, operands):
    """Compare a batch op's ``(bits, flags[, fallback])`` against the
    scalar op lane by lane, after patching the fallback lanes."""
    bits, flags, *rest = batch_result
    bits = np.asarray(bits, dtype=np.int64).copy()
    flags = np.asarray(flags, dtype=np.int64).copy()
    columns = [np.asarray(o).tolist() for o in operands]
    want = np.array([scalar(*ops) for ops in zip(*columns)], dtype=np.int64)
    if rest and rest[0] is not None:
        lanes = np.flatnonzero(rest[0])
        bits[lanes], flags[lanes] = want[lanes, 0], want[lanes, 1]
    bad = np.flatnonzero((bits != want[:, 0]) | (flags != want[:, 1]))
    assert not bad.size, [
        (label, [hex(c[i]) for c in columns], hex(bits[i]), int(flags[i]),
         hex(want[i, 0]), int(want[i, 1])) for i in bad[:5]]


def _binary_ops(fmt, a, b):
    yield "add", fpbatch.add(fmt, a, b), lambda x, y: fadd(fmt, x, y, RNE)
    yield ("sub", fpbatch.add(fmt, a, b, sub=True),
           lambda x, y: fsub(fmt, x, y, RNE))
    yield "mul", fpbatch.mul(fmt, a, b), lambda x, y: fmul(fmt, x, y, RNE)
    for op, scalar in (("eq", feq), ("lt", flt), ("le", fle)):
        yield (op, fpbatch.cmp(fmt, op, a, b),
               lambda x, y, s=scalar: s(fmt, x, y))


def _encode_one(fmt, value):
    return fcvt_f2f(BINARY64, fmt, double_to_bits(value), RNE)[0]


def _check_fma(fmt, a, b, c, negate_product=False, negate_addend=False):
    _check(f"{fmt.name} fma",
           fpbatch.fma(fmt, a, b, c, negate_product=negate_product,
                       negate_addend=negate_addend),
           lambda x, y, z: ffma(fmt, x, y, z, RNE,
                                negate_product=negate_product,
                                negate_addend=negate_addend),
           (a, b, c))


def _check_cvt_all(src):
    patterns = _u32(np.arange(1 << src.width))
    for dst in BATCHABLE:
        if dst is not src:
            _check(f"{src.name}->{dst.name}", fpbatch.cvt(src, dst, patterns),
                   lambda x, d=dst: fcvt_f2f(src, d, x, RNE), (patterns,))


# ----------------------------------------------------------------------
# 8-bit formats: every operand pair
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def byte_pairs():
    grid = np.arange(256, dtype=np.uint32)
    return np.repeat(grid, 256), np.tile(grid, 256)


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=_ids(BYTE_FORMATS))
def test_byte_format_binary_ops_exhaustive(fmt, byte_pairs):
    a, b = byte_pairs
    for op, result, scalar in _binary_ops(fmt, a, b):
        _check(f"{fmt.name} {op}", result, scalar, (a, b))


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=_ids(BYTE_FORMATS))
def test_byte_format_fma_exhaustive(fmt, byte_pairs):
    a, b = byte_pairs
    addends = (fmt.zero(0), _encode_one(fmt, 1.0), 1,
               fmt.max_finite_signed(1))
    for addend in addends:
        _check_fma(fmt, a, b, _u32(np.full(a.shape, addend)))
    _check_fma(fmt, a, b, _u32(np.full(a.shape, addends[1])),
               negate_product=True, negate_addend=True)


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=_ids(BYTE_FORMATS))
def test_byte_format_cvt_exhaustive(fmt):
    _check_cvt_all(fmt)


# ----------------------------------------------------------------------
# 16-bit formats: tables, split points, conversions and samples
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", HALF_FORMATS, ids=_ids(HALF_FORMATS))
def test_half_format_decode_table_matches_to_double(fmt):
    got = fpbatch.decode(fmt, _u32(np.arange(1 << fmt.width)))
    want = np.array([to_double(b, fmt) for b in range(1 << fmt.width)])
    same = (got == want) & (np.signbit(got) == np.signbit(want))
    assert (same | (np.isnan(got) & np.isnan(want))).all()


@pytest.mark.parametrize("fmt", HALF_FORMATS, ids=_ids(HALF_FORMATS))
def test_half_format_split_points_encode_like_scalar(fmt):
    points = fpbatch._codec(fmt).points
    probes = np.concatenate([points, np.nextafter(points, np.inf),
                             np.nextafter(points, -np.inf)])
    probes = np.concatenate([probes, -probes])
    _check(f"{fmt.name} encode", fpbatch._finish(fmt, probes, None),
           lambda x: fcvt_f2f(BINARY64, fmt, double_to_bits(x), RNE),
           (probes,))


@pytest.mark.parametrize("fmt", HALF_FORMATS, ids=_ids(HALF_FORMATS))
def test_half_format_cvt_exhaustive(fmt):
    _check_cvt_all(fmt)


@pytest.mark.parametrize("fmt", HALF_FORMATS, ids=_ids(HALF_FORMATS))
def test_half_format_sampled_ops(fmt):
    rng = np.random.default_rng(23)
    a, b, c = (_u32(rng.integers(0, 1 << fmt.width, SAMPLES))
               for _ in range(3))
    for op, result, scalar in _binary_ops(fmt, a, b):
        _check(f"{fmt.name} {op}", result, scalar, (a, b))
    _check_fma(fmt, a, b, c)


@pytest.mark.parametrize("fmt", BYTE_FORMATS + HALF_FORMATS,
                         ids=_ids(BYTE_FORMATS + HALF_FORMATS))
def test_table_builds_in_under_50_ms(fmt):
    fpbatch._build(fmt)  # warm numpy's code paths
    best = min(_timed(fpbatch._build, fmt) for _ in range(5))
    assert best < 0.05, f"{fmt.name}: {best * 1e3:.1f} ms"


def _timed(fn, *args):
    import time

    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
