"""Bit-identity pin for the scalar softfloat core.

Every ``(bits, flags)`` result of the core over a fixed, seeded operand
set is hashed per section and compared against the digests committed
below.  A change to :mod:`repro.fp.unpacked`, :mod:`repro.fp.arith`,
:mod:`repro.fp.rounding` or :mod:`repro.fp.simd` that alters a single
result bit or flag in any format, rounding mode or operation fails here
and names the section it broke.

Operands: per format, uniform random bit patterns (these hit NaNs,
infinities, zeros and subnormals) plus random normals near 1.0 (these
exercise the normal-range rounding path with real carries and
cancellations).  Modes: the five IEEE modes plus stochastic rounding
under a fixed :func:`repro.fp.rounding.set_sr_key`.

To regenerate after an *intended* change of results, run::

    PYTHONPATH=src python tests/fp/test_core_digest.py

and paste the printed dictionary over ``EXPECTED``.  An unintended
digest change is a bug in the core, not a reason to regenerate.
"""

import copy
import hashlib
import pickle
import random

import pytest

from repro.fp import BINARY8, BINARY16, BINARY16ALT, BINARY32, registry
from repro.fp import arith, simd
from repro.fp.convert import from_double
from repro.fp.formats import vector_lanes
from repro.fp.rounding import RoundingMode, set_sr_key
from repro.fp.unpacked import Unpacked, unpack

MODES = (
    RoundingMode.RNE,
    RoundingMode.RTZ,
    RoundingMode.RDN,
    RoundingMode.RUP,
    RoundingMode.RMM,
    RoundingMode.SR,
)
SR_KEY = 0x5EED_CAFE
SEED = 20190325
N_RANDOM = 256    # uniform bit patterns per format
N_NEAR_ONE = 256  # normals in +-[0.5, 2) per format
N_TUPLES = 640    # scalar operand tuples per format and mode
N_VECTOR = 192    # vector operand tuples per format and mode
FLEN = 32
MIXED = ((BINARY8, BINARY32), (BINARY16, BINARY32), (BINARY16ALT, BINARY32))

EXPECTED = {
    'divsqrt.mx8': '92c55336814935f7',
    'divsqrt.posit16': '39cc7b77c9d50f50',
    'divsqrt.posit8': '24137990e61aa8b9',
    'mixed.binary16.binary32': '9760cd4f3644d21b',
    'mixed.binary16alt.binary32': 'c9d9ad002ec04444',
    'mixed.binary8.binary32': '7862f18cc81fc2f8',
    'scalar.binary16': 'e92ecc1ee8835d0e',
    'scalar.binary16alt': 'c91597c11db65ad1',
    'scalar.binary32': '8025723a13050520',
    'scalar.binary64': 'c1f6b5106805afd8',
    'scalar.binary8': '7f535ddebfcafad6',
    'scalar.mx8': '5d57d4ecd52b5449',
    'scalar.posit16': '5403af9994c8e19f',
    'scalar.posit8': '7a023443d7e1fc2f',
    'vector.binary16': '4eba294325a9209f',
    'vector.binary16alt': '2e88dc44a1f8d2b3',
    'vector.binary8': '948be58e54ea2380',
    'vector.posit16': '11e0982413a138b5',
    'vector.posit8': '8fe5cadbecc76f3a',
}


def _pool(fmt, rng):
    pool = [rng.getrandbits(fmt.width) for _ in range(N_RANDOM)]
    for _ in range(N_NEAR_ONE):
        x = rng.uniform(0.5, 2.0)
        pool.append(from_double(-x if rng.getrandbits(1) else x, fmt))
    return pool


def _pick(pool, rng, n):
    return [pool[rng.randrange(len(pool))] for _ in range(n)]


def _pack(lanes, fmt):
    reg = 0
    for i, bits in enumerate(lanes):
        reg |= bits << (i * fmt.width)
    return reg


class _Recorder:
    def __init__(self):
        self.hashes = {}

    def section(self, name):
        return self.hashes.setdefault(name, hashlib.sha256())

    def digests(self):
        return {k: h.hexdigest()[:16] for k, h in sorted(self.hashes.items())}


def _record(h, result):
    bits, flags = result
    h.update(b"%x,%x;" % (bits, flags))


def _scalar(rec, fmt, rng):
    pool = _pool(fmt, rng)
    for rm in MODES:
        h = rec.section(f"scalar.{fmt.name}")
        # Guest-format division and square root are pinned in sections
        # of their own, added after the scalar ones.
        hd = h if fmt.ieee else rec.section(f"divsqrt.{fmt.name}")
        a, b, c = (_pick(pool, rng, N_TUPLES) for _ in range(3))
        for x, y, z in zip(a, b, c):
            _record(h, arith.fadd(fmt, x, y, rm))
            _record(h, arith.fsub(fmt, x, y, rm))
            _record(h, arith.fmul(fmt, x, y, rm))
            _record(hd, arith.fdiv(fmt, x, y, rm))
            _record(hd, arith.fsqrt(fmt, x, rm))
            for neg_p in (False, True):
                for neg_a in (False, True):
                    _record(h, arith.ffma(fmt, x, y, z, rm, neg_p, neg_a))


def _mixed(rec, src, dst, rng):
    src_pool, dst_pool = _pool(src, rng), _pool(dst, rng)
    h = rec.section(f"mixed.{src.name}.{dst.name}")
    for rm in MODES:
        a, b = _pick(src_pool, rng, N_TUPLES), _pick(src_pool, rng, N_TUPLES)
        c = _pick(dst_pool, rng, N_TUPLES)
        for x, y, z in zip(a, b, c):
            _record(h, arith.fmul_widen(src, dst, x, y, rm))
            for neg_p in (False, True):
                for neg_a in (False, True):
                    _record(h, arith.fma_mixed(src, dst, x, y, z, rm,
                                               neg_p, neg_a))


def _vector(rec, fmt, lanes, rng):
    pool, acc_pool = _pool(fmt, rng), _pool(BINARY32, rng)
    h = rec.section(f"vector.{fmt.name}")
    for rm in MODES:
        for _ in range(N_VECTOR):
            acc, a, b = (_pack(_pick(pool, rng, lanes), fmt) for _ in range(3))
            _record(h, simd.vfadd(fmt, FLEN, a, b, rm))
            _record(h, simd.vfmul(fmt, FLEN, a, b, rm))
            _record(h, simd.vfmac(fmt, FLEN, acc, a, b, rm))
            acc32 = _pick(acc_pool, rng, 1)[0]
            _record(h, simd.vfdotpex(fmt, BINARY32, FLEN, acc32, a, b, rm))


def core_digests():
    """Per-section digests of the core over the seeded operand set."""
    rng = random.Random(SEED)
    rec = _Recorder()
    previous = set_sr_key(SR_KEY)
    try:
        formats = sorted(registry.all_formats(), key=lambda f: f.name)
        for fmt in formats:
            _scalar(rec, fmt, rng)
        for src, dst in MIXED:
            _mixed(rec, src, dst, rng)
        for fmt in formats:
            lanes = vector_lanes(fmt, FLEN)
            if lanes:
                _vector(rec, fmt, lanes, rng)
    finally:
        set_sr_key(previous)
    return rec.digests()


def test_core_digests_are_pinned():
    got = core_digests()
    assert sorted(got) == sorted(EXPECTED), "section list changed"
    changed = {k: got[k] for k in EXPECTED if got[k] != EXPECTED[k]}
    assert not changed, f"softfloat results changed in {sorted(changed)}"


@pytest.mark.parametrize("fmt", [BINARY8, BINARY16, BINARY32],
                         ids=lambda f: f.name)
def test_unpacked_is_immutable(fmt):
    u = unpack(from_double(1.5, fmt), fmt)
    with pytest.raises(AttributeError):
        u.sig = 7
    with pytest.raises(AttributeError):
        u.is_nan = True
    with pytest.raises(AttributeError):
        del u.sign
    assert u.sig == 3 << (fmt.man_bits - 1) and not u.is_nan
    for clone in (copy.deepcopy(u), pickle.loads(pickle.dumps(u))):
        assert clone == u and not clone.is_nan and clone.is_finite


def test_equal_decodes_hash_equal():
    rng = random.Random(SEED)
    for fmt in registry.all_formats():
        for bits in [rng.getrandbits(fmt.width) for _ in range(64)]:
            cached, fresh = unpack(bits, fmt), fmt.decode(bits)
            assert cached == fresh and hash(cached) == hash(fresh)
            assert repr(cached) == repr(fresh)
            key = (fresh.kind, fresh.sign, fresh.sig, fresh.exp,
                   fresh.signaling)
            assert hash(fresh) == hash(key)
    one = unpack(from_double(1.0, BINARY16), BINARY16)
    assert one != unpack(from_double(-1.0, BINARY16), BINARY16)
    assert one != (one.kind, one.sign, one.sig, one.exp, one.signaling)
    assert repr(one) == ("Unpacked(kind=<Kind.FINITE: 'finite'>, sign=0, "
                         "sig=1024, exp=-10, signaling=False)")
    assert isinstance(one, Unpacked)


if __name__ == "__main__":
    import pprint
    import time

    start = time.perf_counter()
    digests = core_digests()
    pprint.pprint(digests, width=76)
    print(f"# {time.perf_counter() - start:.2f} s")
