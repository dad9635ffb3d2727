"""The integer path of :mod:`repro.fp.batch` against the scalar core.

Under RTZ, RDN, RUP, RMM and stochastic rounding the IEEE formats round
through :func:`repro.fp.batch.round_pack`, which mirrors
``rounding.ieee_round_and_pack`` over int64 lanes with one SR key per
lane.  Bits and flags must equal the scalar core's once the fallback
lanes are patched, for:

* binary8, exhaustively: all 65,536 operand pairs through add, sub and
  mul (one shared key: the pair table; three keys mixed across lanes:
  the integer path), fma and fmacex over fixed addends, vfdotpex over
  sampled accumulators, every pattern converted to and from every IEEE
  format;
* binary16, binary16alt and binary32: 100,000 sampled pairs per op and
  mode from subnormal-heavy and far-exponent pools;
* ``round_pack`` itself on exact values whose discard passes 64 bits;
* min/max, whose batch form serves every format.
"""

import numpy as np
import pytest

from repro.fp import (BINARY8, BINARY16, BINARY16ALT, BINARY32, MX8, POSIT8,
                      RoundingMode)
from repro.fp import batch as fpbatch
from repro.fp.arith import fadd, fma_mixed, ffma, fmul, fsub
from repro.fp.compare import fmax, fmin
from repro.fp.convert import fcvt_f2f
from repro.fp.rounding import ieee_round_and_pack, set_sr_key
from repro.fp.simd import vfdotpex

MODES = [RoundingMode.RTZ, RoundingMode.RDN, RoundingMode.RUP,
         RoundingMode.RMM, RoundingMode.SR]
KEYS = (0, 0x5DEECE66D, (1 << 64) - 3)
WIDE = [BINARY16, BINARY16ALT, BINARY32]
SAMPLES = 100_000


def _ids(items):
    return [getattr(i, "name", str(i)) for i in items]


def _u32(values):
    return np.asarray(values, dtype=np.uint32)


def _keys(n, mixed):
    """One uint64 key per lane: the three keys in turn, or the second
    key on every lane."""
    if mixed:
        return np.array(KEYS, dtype=np.uint64)[np.arange(n) % len(KEYS)]
    return np.full(n, KEYS[1], dtype=np.uint64)


def _scalar(fn, columns, rm, keys):
    """``fn(*operands, rm)`` per lane under that lane's SR key."""
    prev = set_sr_key(0)
    try:
        out = []
        for ops, key in zip(zip(*columns), keys.tolist()):
            set_sr_key(key)
            out.append(fn(*ops, rm))
    finally:
        set_sr_key(prev)
    return np.array(out, dtype=np.int64).reshape(-1, 2)


def _check(label, result, fn, operands, rm, keys):
    bits, flags, fallback = result
    columns = [np.asarray(o).tolist() for o in operands]
    want = _scalar(fn, columns, rm, keys)
    bits = np.asarray(bits, dtype=np.int64).copy()
    flags = np.asarray(flags, dtype=np.int64).copy()
    bits[fallback], flags[fallback] = want[fallback, 0], want[fallback, 1]
    bad = np.flatnonzero((bits != want[:, 0]) | (flags != want[:, 1]))
    assert not bad.size, [
        (label, rm.name, [hex(c[i]) for c in columns], hex(bits[i]),
         int(flags[i]), hex(want[i, 0]), int(want[i, 1])) for i in bad[:5]]
    return fallback


def _binary(fmt, a, b, rm, keys):
    for label, result, fn in [
        ("add", fpbatch.add(fmt, a, b, rm=rm, keys=keys),
         lambda x, y, r: fadd(fmt, x, y, r)),
        ("sub", fpbatch.add(fmt, a, b, sub=True, rm=rm, keys=keys),
         lambda x, y, r: fsub(fmt, x, y, r)),
        ("mul", fpbatch.mul(fmt, a, b, rm=rm, keys=keys),
         lambda x, y, r: fmul(fmt, x, y, r)),
    ]:
        _check(f"{fmt.name} {label}", result, fn, (a, b), rm, keys)


@pytest.fixture(scope="module")
def byte_pairs():
    grid = np.arange(256, dtype=np.uint32)
    return np.repeat(grid, 256), np.tile(grid, 256)


# ----------------------------------------------------------------------
# binary8, exhaustively
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mixed", [False, True], ids=["one-key", "mixed-keys"])
@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
def test_binary8_binary_ops_exhaustive(rm, mixed, byte_pairs):
    a, b = byte_pairs
    _binary(BINARY8, a, b, rm, _keys(a.size, mixed))


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
def test_binary8_fma_and_fmacex_exhaustive(rm, byte_pairs):
    a, b = byte_pairs
    keys = _keys(a.size, True)
    for addend in (0x00, 0x3C, 0x01, 0xFB):  # +0, 1.0, min subnormal, -max
        c = _u32(np.full(a.size, addend))
        _check("binary8 fmsub", fpbatch.fma(BINARY8, a, b, c,
                                            negate_addend=True, rm=rm,
                                            keys=keys),
               lambda x, y, z, r: ffma(BINARY8, x, y, z, r,
                                       negate_addend=True),
               (a, b, c), rm, keys)
    for addend in (0x00000000, 0x3F800000, 0x00000001, 0xC7000000):
        c = _u32(np.full(a.size, addend))
        _check("fmacex.s.b", fpbatch.fma(BINARY32, a, b, c, src=BINARY8,
                                         rm=rm, keys=keys),
               lambda x, y, z, r: fma_mixed(BINARY8, BINARY32, x, y, z, r),
               (a, b, c), rm, keys)


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
def test_binary8_vfdotpex_over_sampled_accumulators(rm, byte_pairs):
    a, b = byte_pairs
    rng = np.random.default_rng(5)
    # Four binary8 lanes per register: pair every pattern with a shuffle
    # of the others, accumulating into sampled binary32 values.
    a_reg = a | (np.roll(a, 7) << 8) | (b << 16) | (np.roll(b, 3) << 24)
    b_reg = b | (np.roll(b, 11) << 8) | (a << 16) | (np.roll(a, 5) << 24)
    acc = np.concatenate([
        rng.normal(size=a.size // 2).astype(np.float32).view(np.uint32),
        _u32(rng.choice([0, 0x80000000, 0x00000001, 0x7F7FFFFF,
                         0x3F800000, 0x4B800000], a.size - a.size // 2))])
    keys = _keys(a.size, True)
    shifts = range(0, 32, 8)
    fallback = _check(
        "vfdotpex.s.b",
        fpbatch.dotp(BINARY8, BINARY32, acc,
                     [(a_reg >> s) & 255 for s in shifts],
                     [(b_reg >> s) & 255 for s in shifts], rm=rm, keys=keys),
        lambda c, x, y, r: vfdotpex(BINARY8, BINARY32, 32, c, x, y, r),
        (acc, a_reg, b_reg), rm, keys)
    assert fallback.mean() < 0.4  # NaN/inf lanes are about 22%


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
@pytest.mark.parametrize("other", WIDE, ids=_ids(WIDE))
def test_binary8_converts_to_and_from_every_ieee_format(other, rm):
    patterns = _u32(np.arange(256))
    keys = _keys(256, True)
    _check(f"binary8->{other.name}", fpbatch.cvt(BINARY8, other, patterns,
                                                 rm=rm, keys=keys),
           lambda x, r: fcvt_f2f(BINARY8, other, x, r), (patterns,), rm, keys)
    rng = np.random.default_rng(9)
    wide = _u32(rng.integers(0, 1 << other.width, 20_000, dtype=np.int64))
    keys = _keys(wide.size, True)
    _check(f"{other.name}->binary8", fpbatch.cvt(other, BINARY8, wide,
                                                 rm=rm, keys=keys),
           lambda x, r: fcvt_f2f(other, BINARY8, x, r), (wide,), rm, keys)


# ----------------------------------------------------------------------
# binary16, binary16alt and binary32: sampled pools
# ----------------------------------------------------------------------
def _pool(fmt, rng, n):
    """Patterns with random signs from three pools: uniform, subnormal
    and near-subnormal exponents, and the two ends of the exponent
    range (far-apart addends, overflow, products far below the
    subnormal range)."""
    field = 1 << fmt.man_bits
    man = rng.integers(0, field, n, dtype=np.int64)
    biased = np.concatenate([
        rng.integers(0, fmt.exp_mask + 1, n // 3),
        rng.integers(0, 4, n // 3),
        rng.choice([0, 1, 2, fmt.exp_mask - 2, fmt.exp_mask - 1],
                   n - 2 * (n // 3))])
    sign = rng.integers(0, 2, n, dtype=np.int64) << (fmt.width - 1)
    return _u32(rng.permutation(sign | (biased << fmt.man_bits) | man))


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
@pytest.mark.parametrize("fmt", WIDE, ids=_ids(WIDE))
def test_wide_format_sampled_ops(fmt, rm):
    rng = np.random.default_rng(fmt.width + rm)
    a, b = _pool(fmt, rng, SAMPLES), _pool(fmt, rng, SAMPLES)
    # Exact cancellation: b = a on a slice, so a - b is zero.
    b[:SAMPLES // 20] = a[:SAMPLES // 20]
    _binary(fmt, a, b, rm, _keys(SAMPLES, True))


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
def test_binary32_fma_sampled(rm):
    rng = np.random.default_rng(31)
    a, b, c = (_pool(BINARY32, rng, SAMPLES // 2) for _ in range(3))
    keys = _keys(a.size, True)
    _check("fmadd.s", fpbatch.fma(BINARY32, a, b, c, rm=rm, keys=keys),
           lambda x, y, z, r: ffma(BINARY32, x, y, z, r), (a, b, c), rm, keys)


def test_far_apart_addends_fall_back():
    """Addends 2**200 apart would need a 200-bit significand."""
    a = _u32([0x7E800000, 0x7E800000])  # 2**126
    b = _u32([0x00000001, 0x3F800000])  # 2**-149, 1.0
    keys = _keys(2, True)
    rm = RoundingMode.SR
    fallback = _check("far add", fpbatch.add(BINARY32, a, b, rm=rm,
                                             keys=keys),
                      lambda x, y, r: fadd(BINARY32, x, y, r), (a, b), rm,
                      keys)
    assert fallback.all()


@pytest.mark.parametrize("rm", MODES, ids=_ids(MODES))
def test_round_pack_past_64_discarded_bits(rm):
    """Exact values far below binary32's subnormal range discard more
    than 64 bits; round_pack must clamp its shifts and still agree."""
    rng = np.random.default_rng(64)
    n = 20_000
    sig = rng.integers(1, 1 << 62, n, dtype=np.int64) >> rng.integers(
        0, 62, n)
    sig[sig == 0] = 1
    exp = rng.integers(-320, 140, n).astype(np.int64)
    sign = rng.integers(0, 2, n).astype(np.int64)
    keys = _keys(n, True)
    bits, flags = fpbatch.round_pack(BINARY32, sign, sig, exp, rm, keys)
    want = _scalar(lambda s, m, e, r: ieee_round_and_pack(BINARY32, s, m, e,
                                                          r),
                   [sign.tolist(), sig.tolist(), exp.tolist()], rm, keys)
    discard = (BINARY32.emin - BINARY32.man_bits) - exp
    assert (discard > 64).sum() > 1000
    bad = np.flatnonzero((bits != want[:, 0]) | (flags != want[:, 1]))
    assert not bad.size, [(int(sign[i]), int(sig[i]), int(exp[i]))
                          for i in bad[:5]]


def test_exact_widening_is_mode_free():
    assert fpbatch._mode_free("cvt", BINARY8, BINARY32)
    assert fpbatch._mode_free("cvt", BINARY16, BINARY32)
    assert fpbatch._mode_free("mul", BINARY8, BINARY32)
    assert not fpbatch._mode_free("cvt", BINARY32, BINARY8)
    assert not fpbatch._mode_free("cvt", BINARY16ALT, BINARY16)


def test_guest_formats_fall_back_whole_under_directed_modes(byte_pairs):
    a, b = byte_pairs
    bits, flags, fallback = fpbatch.add(POSIT8, a, b, rm=RoundingMode.RTZ)
    assert fallback.all()


# ----------------------------------------------------------------------
# min/max
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", [BINARY8, POSIT8, MX8],
                         ids=_ids([BINARY8, POSIT8, MX8]))
def test_minmax_exhaustive(fmt, byte_pairs):
    a, b = byte_pairs
    for pick_max, scalar in ((False, fmin), (True, fmax)):
        bits, flags = fpbatch.minmax(fmt, a, b, pick_max)
        want = np.array([scalar(fmt, x, y) for x, y in
                         zip(a.tolist(), b.tolist())], dtype=np.int64)
        assert (bits == want[:, 0]).all() and (flags == want[:, 1]).all()


@pytest.mark.parametrize("fmt", WIDE, ids=_ids(WIDE))
def test_minmax_sampled(fmt):
    rng = np.random.default_rng(3)
    a, b = _pool(fmt, rng, 20_000), _pool(fmt, rng, 20_000)
    b[:2000] = a[:2000] ^ (1 << (fmt.width - 1))  # +-x and +-0 pairs
    for pick_max, scalar in ((False, fmin), (True, fmax)):
        bits, flags = fpbatch.minmax(fmt, a, b, pick_max)
        want = np.array([scalar(fmt, x, y) for x, y in
                         zip(a.tolist(), b.tolist())], dtype=np.int64)
        assert (bits == want[:, 0]).all() and (flags == want[:, 1]).all()


def test_pair_tables_stay_bounded():
    """One table per (op, mode, key); the oldest go past the limit."""
    a = _u32(np.arange(256))
    b = _u32(np.arange(256)[::-1])
    rm = RoundingMode.SR
    for key in range(fpbatch._PAIR_TABLE_LIMIT + 3):
        keys = np.full(a.size, key, dtype=np.uint64)
        _check(f"binary8 mul key {key}",
               fpbatch.mul(BINARY8, a, b, rm=rm, keys=keys),
               lambda x, y, r: fmul(BINARY8, x, y, r), (a, b), rm, keys)
    assert len(fpbatch._PAIR_TABLES) == fpbatch._PAIR_TABLE_LIMIT
