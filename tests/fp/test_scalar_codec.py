"""The scalar face of :mod:`repro.fp.batch` against the scalar core.

Every RNE op the batch face implements has a scalar form that the
simulator's FP rows bind: ``scalar_add`` (and sub), ``scalar_mul``
(and fmulex), ``scalar_fma`` (and fmacex), ``scalar_cvt`` and
``scalar_dotp`` (vfdotpex).  Each is a drop-in for the core op, so these
tests call both with the same operands and compare ``(bits, flags)``:

* 8-bit formats, exhaustively: all 65,536 operand pairs through add,
  sub and mul, and fma over a fixed addend set;
* binary16, binary16alt, posit16 and binary32: 100,000 sampled operand
  pairs (triples for fma) per op, plus every 16-bit pattern converted
  to every other format;
* edge pools: subnormal results, the tininess edge, the overflow
  threshold, the split points (ties) and their binary64 neighbours,
  signed zeros and exact cancellation, addends far enough apart that
  the sum is inexact in binary64 (the round-to-odd fix), and dot
  products that leave the double-double window or cancel to zero.

The other rounding modes go to the core unchanged; one test checks
that they still match.
"""

import math
import random
from functools import partial

import numpy as np
import pytest

from repro.fp import (BINARY8, BINARY16, BINARY16ALT, BINARY32, MX8, POSIT8,
                      POSIT16, RoundingMode, simd)
from repro.fp import batch as fpbatch
from repro.fp.arith import fadd, fma_mixed, fmul, fmul_widen, fsub
from repro.fp.convert import double_to_bits, fcvt_f2f, to_double
from repro.fp.flags import OF
from repro.fp.formats import BINARY64, FloatFormat

RNE = RoundingMode.RNE
BYTE_FORMATS = [BINARY8, POSIT8, MX8]
WIDE_FORMATS = [BINARY16, BINARY16ALT, POSIT16, BINARY32]
BATCHABLE = BYTE_FORMATS + WIDE_FORMATS
IEEE_FORMATS = [BINARY8, BINARY16, BINARY16ALT, BINARY32]
SAMPLES = 100_000
#: The addend set of the exhaustive fma checks, by name.
ADDENDS = ("zero", "one", "least", "-max")


def _ids(formats):
    return [f.name for f in formats]


def _check(label, face, core, operands, rm=RNE):
    """``face`` and ``core`` agree on every operand tuple."""
    bad = [ops for ops in operands if face(*ops, rm) != core(*ops, rm)]
    assert not bad, [(label, [hex(o) for o in ops], face(*ops, rm),
                      core(*ops, rm)) for ops in bad[:5]]


def _encode(fmt, value):
    return fcvt_f2f(BINARY64, fmt, double_to_bits(value), RNE)[0]


def _ops(fmt):
    """``(name, face, core)`` of the binary ops on ``fmt``."""
    return [("add", fpbatch.scalar_add(fmt), partial(fadd, fmt)),
            ("sub", fpbatch.scalar_add(fmt, sub=True), partial(fsub, fmt)),
            ("mul", fpbatch.scalar_mul(fmt), partial(fmul, fmt))]


def _fmas(fmt, src=None):
    """``(label, face, core)`` of the four fused sign variants."""
    src = src or fmt
    for negate_product in (False, True):
        for negate_addend in (False, True):
            yield ((negate_product, negate_addend),
                   fpbatch.scalar_fma(fmt, negate_product, negate_addend,
                                      src=src),
                   lambda a, b, c, rm, p=negate_product, q=negate_addend:
                   fma_mixed(src, fmt, a, b, c, rm, p, q))


def _addend(fmt, name):
    return {"zero": fmt.zero(0), "one": _encode(fmt, 1.0), "least": 1,
            "-max": fmt.max_finite_signed(1)}[name]


def _samples(fmt, n, arity, seed):
    rng = random.Random(seed)
    return [tuple(rng.getrandbits(fmt.width) for _ in range(arity))
            for _ in range(n)]


# ----------------------------------------------------------------------
# 8-bit formats: every operand pair
# ----------------------------------------------------------------------
BYTE_PAIRS = [(a, b) for a in range(256) for b in range(256)]


@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=_ids(BYTE_FORMATS))
def test_byte_format_binary_ops_exhaustive(fmt):
    for name, face, core in _ops(fmt):
        _check(f"{fmt.name} {name}", face, core, BYTE_PAIRS)


@pytest.mark.parametrize("addend", ADDENDS)
@pytest.mark.parametrize("fmt", BYTE_FORMATS, ids=_ids(BYTE_FORMATS))
def test_byte_format_fma_exhaustive(fmt, addend):
    c = _addend(fmt, addend)
    triples = [(a, b, c) for a, b in BYTE_PAIRS]
    for signs, face, core in _fmas(fmt):
        _check(f"{fmt.name} fma {signs}", face, core, triples)


# ----------------------------------------------------------------------
# Wider formats: sampled operands and every conversion
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fmt", WIDE_FORMATS, ids=_ids(WIDE_FORMATS))
def test_wide_format_binary_ops_sampled(fmt):
    pairs = _samples(fmt, SAMPLES, 2, seed=27)
    for name, face, core in _ops(fmt):
        _check(f"{fmt.name} {name}", face, core, pairs)


@pytest.mark.parametrize("fmt", WIDE_FORMATS, ids=_ids(WIDE_FORMATS))
def test_wide_format_fma_sampled(fmt):
    triples = _samples(fmt, SAMPLES, 3, seed=28)
    face = fpbatch.scalar_fma(fmt)
    _check(f"{fmt.name} fma", face,
           lambda a, b, c, rm: fma_mixed(fmt, fmt, a, b, c, rm), triples)
    for signs, face, core in _fmas(fmt):
        _check(f"{fmt.name} fma {signs}", face, core, triples[:5_000])


@pytest.mark.parametrize("src", BATCHABLE, ids=_ids(BATCHABLE))
def test_cvt_every_pattern(src):
    patterns = ([(b,) for b in range(1 << src.width)] if src.width <= 16
                else _samples(src, SAMPLES, 1, seed=29))
    for dst in BATCHABLE:
        if dst is not src:
            _check(f"{src.name}->{dst.name}", fpbatch.scalar_cvt(src, dst),
                   partial(fcvt_f2f, src, dst), patterns)


@pytest.mark.parametrize("src", BYTE_FORMATS + WIDE_FORMATS[:3],
                         ids=_ids(BYTE_FORMATS + WIDE_FORMATS[:3]))
def test_expanding_ops_sampled(src):
    """fmulex and fmacex: ``src`` operands, binary32 result."""
    rng = random.Random(30)
    triples = [(rng.getrandbits(src.width), rng.getrandbits(src.width),
                rng.getrandbits(32)) for _ in range(20_000)]
    _check(f"fmulex {src.name}", fpbatch.scalar_mul(BINARY32, src=src),
           partial(fmul_widen, src, BINARY32), [t[:2] for t in triples])
    for signs, face, core in _fmas(BINARY32, src=src):
        _check(f"fmacex {src.name} {signs}", face, core, triples)


# ----------------------------------------------------------------------
# Edge pools
# ----------------------------------------------------------------------
def _round_probes(fmt):
    """Binary64 values on the RNE split points of ``fmt`` that matter
    most, each with both binary64 neighbours, both signs: the ties
    between neighbouring encodings (sampled for binary32), the tininess
    edge and the overflow threshold."""
    if fmt.width <= 16:
        points = list(fpbatch._codec(fmt).points)
    else:
        rng = random.Random(31)
        points = []
        for _ in range(SAMPLES):
            bits = rng.getrandbits(fmt.width - 1)
            low, high = to_double(bits, fmt), to_double(bits + 1, fmt)
            if math.isfinite(high):
                points.append((low + high) / 2)
    points.append(fmt.min_normal_value * (1 - 2.0 ** -(fmt.precision + 1)))
    if isinstance(fmt, FloatFormat):
        # The overflow threshold, max plus half an ulp, and the binade
        # above max.
        half = 2.0 ** (math.frexp(fmt.max_value)[1] - 1 - fmt.precision)
        points += [fmt.max_value + half, fmt.max_value + 2 * half]
    probes = []
    for v in points:
        for p in (v, math.nextafter(v, math.inf),
                  math.nextafter(v, -math.inf)):
            probes += [(p,), (-p,)]
    return probes


@pytest.mark.parametrize("fmt", BATCHABLE, ids=_ids(BATCHABLE))
def test_rounder_on_split_points_and_edges(fmt):
    """One rounding of an exact binary64 value, as the core converts it
    from binary64.  A None hands the value to the core; only overflows
    may do that."""
    round_ = fpbatch._rounder(fmt)

    def face(v, rm):
        got = round_(v, 0.0)
        if got is None:
            bits, flags = fcvt_f2f(BINARY64, fmt, double_to_bits(v), rm)
            assert flags & OF, (fmt.name, v)  # only overflows go back
            return bits, flags
        return got

    _check(f"{fmt.name} round", face,
           lambda v, rm: fcvt_f2f(BINARY64, fmt, double_to_bits(v), rm),
           _round_probes(fmt))


def _small_patterns(fmt):
    """Zeros, subnormals and the lowest normals, both signs."""
    if fmt in (POSIT8, POSIT16, MX8):
        low = range(0, 1 << min(fmt.width - 2, 10))
    else:
        low = range(0, 3 << fmt.man_bits)
        if len(low) > 600:
            low = random.Random(32).sample(low, 600)
    sign = 1 << (fmt.width - 1)
    return list(low) + [b | sign for b in low]


@pytest.mark.parametrize("fmt", BATCHABLE, ids=_ids(BATCHABLE))
def test_subnormal_results(fmt):
    """Sums and differences of tiny values, and products that land in
    the subnormal range (UF, tininess after rounding)."""
    small = _small_patterns(fmt)
    rng = random.Random(33)
    pairs = [(rng.choice(small), rng.choice(small)) for _ in range(20_000)]
    halves = [_encode(fmt, 2.0 ** -k) for k in range(1, 8)]
    for name, face, core in _ops(fmt):
        operands = pairs
        if name == "mul":
            operands = [(a, h) for a in small[:2000] for h in halves]
        _check(f"{fmt.name} {name}", face, core, operands)


@pytest.mark.parametrize("fmt", BATCHABLE, ids=_ids(BATCHABLE))
def test_signed_zeros_and_exact_cancellation(fmt):
    rng = random.Random(34)
    values = [rng.getrandbits(fmt.width) for _ in range(3000)]
    zeros = [fmt.zero(0), fmt.zero(1)]
    pairs = ([(v, fmt.neg_bits(v)) for v in values]
             + [(v, v) for v in values]
             + [(a, b) for a in zeros for b in zeros]
             + [(z, v) for z in zeros for v in values[:500]])
    for name, face, core in _ops(fmt):
        _check(f"{fmt.name} {name}", face, core, pairs)
    # fma: a product cancelled by its addend, and zero products.
    one = _encode(fmt, 1.0)
    triples = ([(v, one, fmt.neg_bits(v)) for v in values]
               + [(z, v, w) for z in zeros for v in values[:300]
                  for w in zeros])
    for signs, face, core in _fmas(fmt):
        _check(f"{fmt.name} fma {signs}", face, core, triples)


@pytest.mark.parametrize("fmt", [BINARY32, BINARY16ALT],
                         ids=_ids([BINARY32, BINARY16ALT]))
def test_far_apart_addends_take_the_odd_fix(fmt):
    """Addends more than 2**60 apart, so binary64 cannot hold the exact
    sum: the TwoSum residual is non-zero and the round-to-odd fix
    decides."""
    rng = random.Random(35)
    finite = []
    while len(finite) < 20_000:
        bits = rng.getrandbits(fmt.width)
        v = to_double(bits, fmt)
        if math.isfinite(v) and v:
            finite.append((abs(v), bits))
    finite.sort()
    cut = len(finite) // 100
    big = [b for _, b in finite[-cut:]]
    tiny = [b for _, b in finite[:cut]]
    assert finite[-cut][0] > finite[cut][0] * 2.0 ** 60
    pairs =[(rng.choice(big), rng.choice(tiny)) for _ in range(20_000)]
    pairs += [(b, a) for a, b in pairs[:5000]]
    residual = 0
    for a, b in pairs:
        x, y = to_double(a, fmt), to_double(b, fmt)
        residual += (x + y) - x != y
    assert residual > len(pairs) // 2
    for name, face, core in _ops(fmt)[:2]:
        _check(f"{fmt.name} {name}", face, core, pairs)
    one = _encode(fmt, 1.0)
    # (1 + 2**-h)**2 = 1 + 2**(1-h) + 2**-(2h) lies on a tie of ``fmt``:
    # only the residual of a far addend says which way it rounds.
    h = (fmt.precision + 1) // 2
    root = _encode(fmt, 1.0 + 2.0 ** -h)
    assert to_double(root, fmt) ** 2 == 1.0 + 2.0 ** (1 - h) + 2.0 ** -(2 * h)
    on_tie = [(root, root, c) for c in tiny] + [(a, one, b) for a, b in pairs]
    for signs, face, core in _fmas(fmt):
        _check(f"{fmt.name} fma {signs}", face, core, on_tie[:10_000])


DOTP_SOURCES = [BINARY8, BINARY16, BINARY16ALT, POSIT8, POSIT16]


@pytest.mark.parametrize("src", DOTP_SOURCES, ids=_ids(DOTP_SOURCES))
def test_dotp_sampled_and_window_edges(src):
    """vfdotpex: random operands, accumulators far above the products
    (the sum needs the double-double's low word), and exact
    cancellation to zero."""
    flen = 32
    face = fpbatch.scalar_dotp(src, BINARY32, flen)
    core = partial(simd.vfdotpex, src, BINARY32, flen)
    rng = random.Random(36)
    lanes = flen // src.width

    def packed(values):
        return sum(v << (k * src.width) for k, v in enumerate(values))

    def rand_reg():
        return packed([rng.getrandbits(src.width) for _ in range(lanes)])

    operands = [(rng.getrandbits(32), rand_reg(), rand_reg())
                for _ in range(20_000)]
    # Far accumulators: the products land in the low word.
    one = _encode(src, 1.0)
    small = _encode(src, 0.75)
    for exp in (60, 80, 100, 127):
        acc = _encode(BINARY32, 2.0 ** exp + 2.0 ** (exp - 23))
        operands += [(acc, packed([small] * lanes), packed([one] * lanes)),
                     (acc | 1 << 31, rand_reg(), rand_reg())]
    # Cancellation: acc = -(sum of the products), exactly.
    for _ in range(2000):
        a = [rng.getrandbits(src.width) for _ in range(lanes)]
        b = [rng.getrandbits(src.width) for _ in range(lanes)]
        total = sum(to_double(x, src) * to_double(y, src)
                    for x, y in zip(a, b))
        if math.isfinite(total):
            acc = _encode(BINARY32, -total)
            operands.append((acc, packed(a), packed(b)))
    zeros = [BINARY32.zero(0), BINARY32.zero(1)]
    operands += [(z, packed([src.zero(0)] * lanes), rand_reg())
                 for z in zeros for _ in range(50)]
    _check(f"vfdotpex {src.name}", face, core, operands)


@pytest.mark.parametrize("src,k", [(BINARY16ALT, 60), (POSIT16, 40)],
                         ids=["binary16alt", "posit16"])
def test_dotp_far_products(src, k):
    """Sums binary64 cannot hold: acc + 2**k lies on a binary32 tie and
    a product more than 53 bits below decides it (the double-double's
    low word carries it to the round-to-odd fix); and a product more
    than 53 bits below a non-zero low word, which the double-double
    sheds, so the face hands the sum to the core."""
    flen = 32
    face = fpbatch.scalar_dotp(src, BINARY32, flen)
    core = partial(simd.vfdotpex, src, BINARY32, flen)
    acc = _encode(BINARY32, 2.0 ** (k + 24))  # its ulp is 2**(k + 1)
    least = src.min_positive_value
    assert (2.0 ** (k + 24) + 2.0 ** k) + least * least == (
        2.0 ** (k + 24) + 2.0 ** k)

    def packed(*lanes):
        return lanes[0] | lanes[1] << src.width

    tiny = _encode(src, least)
    on_tie = [(acc, packed(_encode(src, 2.0 ** (k // 2)), tiny),
               packed(_encode(src, 2.0 ** (k // 2)), t))
              for t in (tiny, src.neg_bits(tiny))]
    _check(f"vfdotpex {src.name} tie", face, core, on_tie)
    assert len({face(*ops, RNE) for ops in on_tie}) == 2
    one = _encode(src, 1.0)
    low = _encode(src, 2.0 ** -2)
    shed = [(acc, packed(low, tiny), packed(one, t))
            for t in (tiny, src.neg_bits(tiny))]
    _check(f"vfdotpex {src.name} shed", face, core, shed)


def test_other_modes_go_to_the_core():
    for fmt in IEEE_FORMATS + [POSIT16]:
        pairs = _samples(fmt, 2000, 2, seed=38)
        for mode in RoundingMode:
            if mode in (RNE, RoundingMode.DYN):
                continue
            for name, face, core in _ops(fmt):
                _check(f"{fmt.name} {name} {mode.name}", face, core, pairs,
                       rm=mode)


def test_formats_without_a_codec_get_the_core():
    face = fpbatch.scalar_add(BINARY64)
    assert face.func is fadd and face.args == (BINARY64,)


@pytest.mark.parametrize("fmt", BATCHABLE, ids=_ids(BATCHABLE))
def test_values_are_multiples_of_the_least_positive_one(fmt):
    """The premise of ``_exact_sums``, which lets add skip TwoSum."""
    if fmt.width > 16:
        assert not fpbatch._exact_sums(fmt)
        return
    values = fpbatch._codec(fmt).values
    grid = values[np.isfinite(values) & (values > 0)]
    assert grid.min() == fmt.min_positive_value
    assert (np.fmod(grid, grid.min()) == 0).all()
