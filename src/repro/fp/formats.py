"""Floating-point format descriptors for the smallFloat extensions.

The paper (Section III) defines three *smallFloat* formats next to the
standard IEEE binary32/binary64:

* ``binary16``    -- IEEE 754 half precision, 1 sign / 5 exponent / 10
  mantissa bits (extension ``Xf16``).
* ``binary16alt`` -- a custom 16-bit format with the dynamic range of
  binary32: 1 sign / 8 exponent / 7 mantissa bits, i.e. the format
  nowadays known as bfloat16 (extension ``Xf16alt``).
* ``binary8``     -- a custom 8-bit minifloat with 1 sign / 5 exponent /
  2 mantissa bits (extension ``Xf8``), as specified in the companion
  transprecision-platform paper [Tagliavini et al., DATE 2018].

Every format follows IEEE 754 conventions: a biased exponent, a hidden
leading significand bit for normal numbers, gradual underflow via
subnormals, signed zeroes/infinities and quiet/signaling NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from . import registry
from .registry import (
    CLASS_NEG_INF,
    CLASS_NEG_NORMAL,
    CLASS_NEG_SUBNORMAL,
    CLASS_NEG_ZERO,
    CLASS_POS_INF,
    CLASS_POS_NORMAL,
    CLASS_POS_SUBNORMAL,
    CLASS_POS_ZERO,
    CLASS_QNAN,
    CLASS_SNAN,
    NumberFormat,
)


#: The IEEE codec behind FloatFormat's NumberFormat hooks.  It lives in
#: :mod:`.unpacked` and :mod:`.rounding`, which import this module to
#: keep it at the bottom of the dependency stack, so they bind these
#: names once they have loaded (``repro.fp`` imports both on start-up)
#: rather than each call importing them.
_ieee_decode = _unpack = _ieee_round_and_pack = None


@dataclass(frozen=True)
class FloatFormat(NumberFormat):
    """An IEEE-754-style binary interchange format.

    Attributes:
        name: Human-readable format name (e.g. ``"binary16"``).
        exp_bits: Width of the biased exponent field.
        man_bits: Width of the (explicit) trailing significand field.
        suffix: Instruction-mnemonic suffix used by the ISA extensions
            (``s`` for binary32, ``h`` for binary16, ``ah`` for
            binary16alt, ``b`` for binary8, ``d`` for binary64).
        c_keyword: The C type keyword introduced by the compiler support
            (Section IV), or the pre-existing C type name.

    The derived geometry (``width``, masks, well-known encodings) is
    precomputed at construction: the softfloat core reads these values
    on every unpack/round, and recomputing them per access dominated
    simulation profiles.  Identity, equality and hashing still depend
    only on the five defining fields.
    """

    name: str
    exp_bits: int
    man_bits: int
    suffix: str
    c_keyword: str
    #: rs2 sub-code naming this format as a conversion operand
    #: (the paper's SRC_CODE table; not part of format identity).
    cvt_code: int = field(default=0, compare=False)

    # IEEE formats are the host family: encoded in OP-FP, with true
    # infinities.
    ieee = True
    is_guest = False
    has_inf = True
    has_vector = True

    # ------------------------------------------------------------------
    # Derived geometry (filled in by __post_init__)
    # ------------------------------------------------------------------
    #: Total storage width in bits (sign + exponent + mantissa).
    width: int = field(init=False, repr=False, compare=False, default=0)
    #: Significand precision p, including the hidden bit.
    precision: int = field(init=False, repr=False, compare=False, default=0)
    #: Exponent bias (2^(exp_bits-1) - 1).
    bias: int = field(init=False, repr=False, compare=False, default=0)
    #: Largest unbiased exponent of a normal number.
    emax: int = field(init=False, repr=False, compare=False, default=0)
    #: Smallest unbiased exponent of a normal number (1 - bias).
    emin: int = field(init=False, repr=False, compare=False, default=0)
    #: All-ones pattern of the exponent field (NaN/inf exponent).
    exp_mask: int = field(init=False, repr=False, compare=False, default=0)
    #: All-ones pattern of the trailing significand field.
    man_mask: int = field(init=False, repr=False, compare=False, default=0)
    #: Bit mask selecting the sign bit.
    sign_mask: int = field(init=False, repr=False, compare=False, default=0)
    #: All-ones pattern of the full encoding width.
    bits_mask: int = field(init=False, repr=False, compare=False, default=0)
    #: The canonical quiet NaN (positive, MSB of mantissa set) -- the
    #: RISC-V convention of never propagating NaN payloads.
    quiet_nan: int = field(init=False, repr=False, compare=False, default=0)
    #: Encoding of +infinity.
    pos_inf: int = field(init=False, repr=False, compare=False, default=0)
    #: Encoding of -infinity.
    neg_inf: int = field(init=False, repr=False, compare=False, default=0)
    #: Encoding of the largest positive finite value.
    max_finite: int = field(init=False, repr=False, compare=False, default=0)
    #: Encoding of the smallest positive normal value.
    min_normal: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        set_ = object.__setattr__  # frozen dataclass
        width = 1 + self.exp_bits + self.man_bits
        exp_mask = (1 << self.exp_bits) - 1
        man_mask = (1 << self.man_bits) - 1
        bias = (1 << (self.exp_bits - 1)) - 1
        set_(self, "width", width)
        set_(self, "precision", self.man_bits + 1)
        set_(self, "bias", bias)
        set_(self, "emax", bias)
        set_(self, "emin", 1 - bias)
        set_(self, "exp_mask", exp_mask)
        set_(self, "man_mask", man_mask)
        set_(self, "sign_mask", 1 << (width - 1))
        set_(self, "bits_mask", (1 << width) - 1)
        set_(self, "quiet_nan",
             (exp_mask << self.man_bits) | (1 << (self.man_bits - 1)))
        set_(self, "pos_inf", exp_mask << self.man_bits)
        set_(self, "neg_inf", (1 << (width - 1)) | (exp_mask << self.man_bits))
        set_(self, "max_finite",
             ((exp_mask - 1) << self.man_bits) | man_mask)
        set_(self, "min_normal", 1 << self.man_bits)

    # ------------------------------------------------------------------
    # Rarely used encodings (kept as properties)
    # ------------------------------------------------------------------
    @property
    def pos_zero(self) -> int:
        """Encoding of +0.0."""
        return 0

    @property
    def neg_zero(self) -> int:
        """Encoding of -0.0."""
        return self.sign_mask

    @property
    def min_subnormal(self) -> int:
        """Encoding of the smallest positive subnormal value."""
        return 1

    def inf(self, sign: int) -> int:
        """Encoding of infinity with the given sign (0 or 1)."""
        return self.neg_inf if sign else self.pos_inf

    def zero(self, sign: int) -> int:
        """Encoding of zero with the given sign (0 or 1)."""
        return self.neg_zero if sign else self.pos_zero

    def max_finite_signed(self, sign: int) -> int:
        """Encoding of the largest-magnitude finite value with a sign."""
        return (self.sign_mask | self.max_finite) if sign else self.max_finite

    # ------------------------------------------------------------------
    # NumberFormat codec hooks (IEEE semantics; the implementations
    # live in unpacked/rounding, which bind them here once they load)
    # ------------------------------------------------------------------
    def decode(self, bits: int):
        return _ieee_decode(bits, self)

    def round_pack(self, sign: int, sig: int, exp: int, rm) -> Tuple[int, int]:
        return _ieee_round_and_pack(self, sign, sig, exp, rm)

    def classify(self, bits: int) -> int:
        u = _unpack(bits, self)
        if u.is_nan:
            return CLASS_SNAN if u.signaling else CLASS_QNAN
        if u.is_inf:
            return CLASS_NEG_INF if u.sign else CLASS_POS_INF
        if u.is_zero:
            return CLASS_NEG_ZERO if u.sign else CLASS_POS_ZERO
        subnormal = ((bits >> self.man_bits) & self.exp_mask) == 0
        if u.sign:
            return CLASS_NEG_SUBNORMAL if subnormal else CLASS_NEG_NORMAL
        return CLASS_POS_SUBNORMAL if subnormal else CLASS_POS_NORMAL

    # ------------------------------------------------------------------
    # Exact values (for tests, metrics and documentation)
    # ------------------------------------------------------------------
    @property
    def max_value(self) -> float:
        """The largest finite value as a Python float."""
        return float((2 - 2 ** -self.man_bits) * 2 ** self.emax)

    @property
    def min_normal_value(self) -> float:
        """The smallest positive normal value as a Python float."""
        return float(2.0 ** self.emin)

    @property
    def machine_epsilon(self) -> float:
        """Distance from 1.0 to the next representable value."""
        return float(2.0 ** -self.man_bits)

    @property
    def min_positive_value(self) -> float:
        """The smallest positive (subnormal) value as a Python float."""
        return float(2.0 ** (self.emin - self.man_bits))

    @property
    def dynamic_range_db(self) -> float:
        """Dynamic range max/min-subnormal in dB (20*log10)."""
        return 20.0 * math.log10(self.max_value / self.min_positive_value)

    # ------------------------------------------------------------------
    # Analysis / energy hooks
    # ------------------------------------------------------------------
    def rnd_abs(self, mag: float) -> float:
        """Sound absolute rounding-error bound over ``[-mag, mag]``.

        Relative error ``eps * mag`` plus one minimum-subnormal ulp to
        cover the flush into the subnormal range, each step widened one
        binary64 ulp upward so the bound stays sound under the float
        arithmetic computing it.
        """
        up = math.inf
        ulp_min = 2.0 ** (self.emin - self.man_bits)
        return math.nextafter(
            math.nextafter(self.machine_epsilon * mag, up) + ulp_min, up)

    def energy_row(self) -> Dict[str, float]:
        return _IEEE_ENERGY.get(self.suffix, {})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FloatFormat({self.name}: 1+{self.exp_bits}+{self.man_bits}, "
            f"bias={self.bias})"
        )


# ----------------------------------------------------------------------
# Per-format energy rows (UMC65 FPnew numbers; see repro.energy.model
# for provenance).  Keyed by suffix; consumed through energy_row().
# ----------------------------------------------------------------------
_IEEE_ENERGY: Dict[str, Dict[str, float]] = {
    "s": {"arith": 6.6, "fma": 8.4, "div": 28.0, "misc": 3.0,
          "vec_arith": 11.2, "vec_fma": 14.5, "vec_div": 48.0},
    "h": {"arith": 3.7, "fma": 4.6, "div": 14.0, "misc": 2.0,
          "vec_arith": 6.2, "vec_fma": 8.0, "vec_div": 22.0, "dotp": 8.6},
    "ah": {"arith": 3.5, "fma": 4.4, "div": 13.0, "misc": 2.0,
           "vec_arith": 6.0, "vec_fma": 7.8, "vec_div": 21.0, "dotp": 8.4},
    "b": {"arith": 2.4, "fma": 3.0, "div": 7.0, "misc": 1.6,
          "vec_arith": 5.6, "vec_fma": 7.0, "vec_div": 16.0, "dotp": 7.8},
}


# ----------------------------------------------------------------------
# The format zoo of the smallFloat extensions
# ----------------------------------------------------------------------
BINARY8 = FloatFormat("binary8", exp_bits=5, man_bits=2, suffix="b",
                      c_keyword="float8", cvt_code=3)
BINARY16 = FloatFormat("binary16", exp_bits=5, man_bits=10, suffix="h",
                       c_keyword="float16", cvt_code=2)
BINARY16ALT = FloatFormat(
    "binary16alt", exp_bits=8, man_bits=7, suffix="ah", c_keyword="float16alt",
    cvt_code=6
)
BINARY32 = FloatFormat("binary32", exp_bits=8, man_bits=23, suffix="s",
                       c_keyword="float", cvt_code=0)
BINARY64 = FloatFormat("binary64", exp_bits=11, man_bits=52, suffix="d",
                       c_keyword="double", cvt_code=1)

for _fmt in (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY64):
    registry.register(_fmt)
del _fmt

#: All formats known to the library, keyed by name.
FORMATS: Dict[str, FloatFormat] = {
    f.name: f for f in (BINARY8, BINARY16, BINARY16ALT, BINARY32, BINARY64)
}

#: Formats keyed by ISA mnemonic suffix (``fadd.h`` -> ``h``).
FORMATS_BY_SUFFIX: Dict[str, FloatFormat] = {f.suffix: f for f in FORMATS.values()}

#: Formats keyed by the C keyword exposed by the compiler extension.
FORMATS_BY_KEYWORD: Dict[str, FloatFormat] = {f.c_keyword: f for f in FORMATS.values()}

#: The smallFloat formats proper (smaller than 32 bits).
SMALLFLOAT_FORMATS: Tuple[FloatFormat, ...] = (BINARY16, BINARY16ALT, BINARY8)


def lookup(spec) -> NumberFormat:
    """Resolve a format from a ``NumberFormat``, name, suffix or keyword.

    Delegates to the format registry, so guest formats (posit, MX) are
    resolved too.  Unknown specs raise :class:`registry.FormatLookupError`
    (a ``ReproError``) enumerating every registered name/suffix/keyword.

    >>> lookup("binary16") is BINARY16
    True
    >>> lookup("h") is BINARY16
    True
    >>> lookup("float8") is BINARY8
    True
    """
    return registry.lookup(spec)


# ----------------------------------------------------------------------
# Vector geometry (paper Table II)
# ----------------------------------------------------------------------
def vector_lanes(fmt: FloatFormat, flen: int) -> Optional[int]:
    """Number of SIMD lanes of ``fmt`` in an FLEN-bit FP register.

    Implements paper Table II: vectorial operations exist for every
    supported format *strictly narrower* than FLEN; a format wider than
    or equal to FLEN is held as a scalar (or not at all).

    Returns the lane count ``n``, or ``None`` when the format has no
    vector form at this FLEN (the "x" entries in Table II).

    >>> vector_lanes(BINARY16, 32)
    2
    >>> vector_lanes(BINARY8, 64)
    8
    >>> vector_lanes(BINARY32, 32) is None
    True
    """
    if flen not in (16, 32, 64):
        raise ValueError(f"FLEN must be 16, 32 or 64, got {flen}")
    if not fmt.has_vector:
        return None
    if fmt.width >= flen:
        return None
    return flen // fmt.width


def supported_vector_formats(flen: int) -> Dict[str, Optional[int]]:
    """The full Table II row for a given FLEN.

    Maps format name -> lane count (``None`` when unsupported), for the
    formats listed in the paper's Table II (F, Xf16, Xf16alt, Xf8).
    """
    return {
        fmt.name: vector_lanes(fmt, flen)
        for fmt in (BINARY32, BINARY16, BINARY16ALT, BINARY8)
    }
