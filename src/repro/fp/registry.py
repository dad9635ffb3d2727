"""The pluggable number-format registry.

The paper's smallFloat formats are IEEE-style minifloats, but the
transprecision design space is wider: posits (tapered precision, no
inf/subnormals), block formats with a shared exponent (MX), logarithmic
formats...  This module turns "a floating-point format" into a plugin
interface so those families can ride the whole stack -- assembler,
softfloat core, SIMD, lint, abstract interpretation, tuner and energy
model -- without per-format branches outside their own module.

A format is an object implementing the :class:`NumberFormat` protocol:

* **codec**: :meth:`~NumberFormat.decode` (bits -> exact unpacked value)
  and :meth:`~NumberFormat.round_pack` (exact value -> bits + flags).
  Every arithmetic funnel (:func:`repro.fp.unpacked.unpack`,
  :func:`repro.fp.rounding.round_and_pack`) dispatches through these
  two hooks, which is what makes :mod:`repro.fp.arith` format-generic.
* **bit-level ops**: :meth:`~NumberFormat.sign_of`,
  :meth:`~NumberFormat.with_sign`, :meth:`~NumberFormat.neg_bits`,
  :meth:`~NumberFormat.abs_bits`, :meth:`~NumberFormat.classify`
  (sign injection and fclass are *encoding*-specific: IEEE flips a sign
  bit, a posit takes the two's complement).
* **identity**: ``name`` / ``suffix`` (mnemonic, ``fadd.<suffix>``) /
  ``c_keyword`` (the kernel-language type) and lane geometry (``width``,
  ``has_vector``).
* **ISA metadata** for guest formats: ``guest_fmt2`` (the 2-bit format
  code in the CUSTOM-opcode encodings), ``cvt_code`` (the rs2 sub-code
  naming the format as a conversion operand) and ``ext_name``.
* **analysis/energy hooks**: :meth:`~NumberFormat.rnd_abs` (a sound
  absolute rounding-error bound for the abstract interpreter) and
  :meth:`~NumberFormat.energy_row` (per-operation-class pJ costs for
  the energy model).

Registration (:func:`register`) checks for name/suffix/keyword
collisions, then notifies subscribers (:func:`on_register`): the ISA
layer uses that callback to derive instruction specs for every format,
including ones registered after import.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from .. import ReproError

# ----------------------------------------------------------------------
# fclass result bits (RISC-V F extension layout).  They live here, at
# the bottom of the dependency stack, because every format codec needs
# them to implement classify(); repro.fp.compare re-exports them.
# ----------------------------------------------------------------------
CLASS_NEG_INF = 1 << 0
CLASS_NEG_NORMAL = 1 << 1
CLASS_NEG_SUBNORMAL = 1 << 2
CLASS_NEG_ZERO = 1 << 3
CLASS_POS_ZERO = 1 << 4
CLASS_POS_SUBNORMAL = 1 << 5
CLASS_POS_NORMAL = 1 << 6
CLASS_POS_INF = 1 << 7
CLASS_SNAN = 1 << 8
CLASS_QNAN = 1 << 9


class FormatRegistryError(ReproError):
    """A format could not be registered (name/suffix/keyword collision)."""


class FormatLookupError(ReproError, KeyError):
    """A format spec did not resolve against the registry.

    Subclasses ``KeyError`` too, so pre-registry callers using
    ``except KeyError`` keep working.
    """

    def __str__(self) -> str:  # KeyError repr()s its argument; undo that
        return self.args[0] if self.args else ""


class NumberFormat:
    """Base class / protocol for a registrable number format.

    Subclasses must provide the identity attributes (``name``,
    ``suffix``, ``c_keyword``, ``width``) and the codec pair
    (:meth:`decode` / :meth:`round_pack`).  The bit-level defaults below
    implement sign-magnitude encodings with the sign in the top bit
    (IEEE and IEEE-like formats); formats with a different negation rule
    (posits) override them.
    """

    # -- identity / classification flags ------------------------------
    #: True for the IEEE-754-style interchange formats (the host family
    #: encoded in OP-FP).
    ieee: bool = False
    #: Guest formats are non-IEEE extensions encoded in the CUSTOM
    #: opcode spaces rather than OP-FP.
    is_guest: bool = True
    #: Whether SIMD (vector) instruction forms exist for this format.
    has_vector: bool = True
    #: Whether the format encodes infinities.  Formats without them
    #: (posit, MX8) saturate on overflow and produce their NaN where
    #: IEEE would produce an infinity; the abstract interpreter uses
    #: this to model division by zero and overflow soundly.
    has_inf: bool = False
    #: Whether the format defines a shared-exponent *block* dot product
    #: (``vfdotpmx``); such formats implement :meth:`block_dotp`.
    has_block_dotp: bool = False
    #: 2-bit format code inside the guest CUSTOM encodings (guests only).
    guest_fmt2: int = 0
    #: rs2 sub-code naming this format as a conversion *operand*.
    #: IEEE formats use the paper's SRC_CODE table; guests get 8+.
    cvt_code: int = 0
    #: ISA extension name (``Xposit``, ``Xmx8``...; guests only).
    ext_name: str = ""

    # -- identity attributes subclasses must define -------------------
    name: str
    suffix: str
    c_keyword: str
    width: int

    @property
    def kernel_type(self) -> bool:
        """Usable as a kernel-language element type (fits a register)."""
        return self.width <= 32

    # -- codec (must be implemented) ----------------------------------
    def decode(self, bits: int):
        """Decode ``bits`` into an exact :class:`repro.fp.unpacked.Unpacked`."""
        raise NotImplementedError

    def round_pack(self, sign: int, sig: int, exp: int, rm) -> Tuple[int, int]:
        """Round the exact value ``(-1)**sign * sig * 2**exp`` into bits.

        Returns ``(bits, fflags)``.  ``sig`` is strictly positive; the
        generic :func:`repro.fp.rounding.round_and_pack` funnel handles
        the zero-significand case before dispatching here.
        """
        raise NotImplementedError

    # -- special-value encodings (must be implemented) ----------------
    #: Canonical quiet NaN encoding (posit: NaR; MX8: the NaN code).
    quiet_nan: int
    #: Encoding of +0.0 (shared zero for formats without signed zero).
    pos_zero: int = 0

    def inf(self, sign: int) -> int:
        """Encoding of the overflow "infinity" result, or the closest
        notion the format has (posit/MX8 have no infinity: NaR / NaN)."""
        raise NotImplementedError

    def zero(self, sign: int) -> int:
        """Encoding of zero with the given sign (collapsed when the
        format has a single zero)."""
        raise NotImplementedError

    def max_finite_signed(self, sign: int) -> int:
        """Encoding of the largest-magnitude finite value with a sign."""
        raise NotImplementedError

    # -- bit-level operations (sign-magnitude defaults) ---------------
    @property
    def sign_mask(self) -> int:
        return 1 << (self.width - 1)

    @property
    def bits_mask(self) -> int:
        return (1 << self.width) - 1

    def sign_of(self, bits: int) -> int:
        """The sign (0/1) carried by an encoding."""
        return (bits >> (self.width - 1)) & 1

    def with_sign(self, bits: int, sign: int) -> int:
        """Rebuild ``bits`` carrying ``sign`` (fsgnj primitive)."""
        return (bits & ~self.sign_mask & self.bits_mask) | (
            (sign & 1) << (self.width - 1))

    def neg_bits(self, bits: int) -> int:
        """The encoding of the negated value (fneg primitive)."""
        return (bits ^ self.sign_mask) & self.bits_mask

    def abs_bits(self, bits: int) -> int:
        """The encoding of the absolute value (fabs primitive)."""
        return self.with_sign(bits, 0)

    def classify(self, bits: int) -> int:
        """The RISC-V ``fclass`` 10-bit one-hot mask for ``bits``."""
        raise NotImplementedError

    # -- exact values / analysis hooks --------------------------------
    @property
    def max_value(self) -> float:
        """Largest finite value as a Python float."""
        raise NotImplementedError

    @property
    def min_normal_value(self) -> float:
        """Smallest positive "full-precision" value as a Python float."""
        raise NotImplementedError

    @property
    def machine_epsilon(self) -> float:
        """Distance from 1.0 to the next representable value."""
        raise NotImplementedError

    @property
    def dynamic_range_db(self) -> float:
        """Dynamic range max/min-representable in dB (20*log10)."""
        import math

        return 20.0 * math.log10(self.max_value / self.min_positive_value)

    @property
    def min_positive_value(self) -> float:
        """Smallest positive representable value as a Python float."""
        raise NotImplementedError

    def rnd_abs(self, mag: float) -> float:
        """A sound absolute rounding-error bound over ``[-mag, mag]``.

        The abstract interpreter widens every rounded interval by this
        amount; soundness requires ``|round(x) - x| <= rnd_abs(mag)``
        for every ``|x| <= mag`` in range (overflow is tracked
        separately via ``max_value``).
        """
        raise NotImplementedError

    def energy_row(self) -> Dict[str, float]:
        """Per-operation-class energy costs in pJ.

        Recognized keys: ``arith``, ``fma``, ``div``, ``misc`` (scalar)
        and ``vec_arith``, ``vec_fma``, ``vec_div`` (packed-SIMD), plus
        ``dotp`` for a format-specific dot-product unit.  Missing keys
        fall back to the energy model's documented defaults.
        """
        return {}

    def block_dotp(self, acc_bits: int, block_a: int, block_b: int,
                   rm) -> Tuple[int, int]:
        """Shared-exponent block dot product (``vfdotpmx``).

        Only meaningful when :attr:`has_block_dotp` is true; takes the
        binary32 accumulator bits plus two packed operand blocks and
        returns ``(binary32 bits, fflags)`` with a single rounding.
        """
        raise NotImplementedError

    def decode_lanes(self, bits: int, flen: int = 32) -> List[float]:
        """Decode a packed register image into per-lane binary64 values.

        The default splits ``flen`` bits into ``flen // width`` lanes of
        this format.  Block formats override it: an MX8 register image
        is a shared-scale block whose decoded lane values already
        include the scale.
        """
        from .convert import to_double

        mask = self.bits_mask
        return [to_double((bits >> (i * self.width)) & mask, self)
                for i in range(flen // self.width)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


# ----------------------------------------------------------------------
# The registry proper
# ----------------------------------------------------------------------
_BY_NAME: Dict[str, NumberFormat] = {}
_BY_SUFFIX: Dict[str, NumberFormat] = {}
_BY_KEYWORD: Dict[str, NumberFormat] = {}
_CALLBACKS: List[Callable[[NumberFormat], None]] = []


def register(fmt: NumberFormat) -> NumberFormat:
    """Register a format, rejecting name/suffix/keyword collisions.

    Re-registering the *same object* is an idempotent no-op (module
    reloads); registering a different object under an existing name,
    suffix or C keyword raises :class:`FormatRegistryError`.
    """
    for table, key, what in ((_BY_NAME, fmt.name, "name"),
                             (_BY_SUFFIX, fmt.suffix, "suffix"),
                             (_BY_KEYWORD, fmt.c_keyword, "C keyword")):
        existing = table.get(key)
        if existing is not None and existing is not fmt:
            raise FormatRegistryError(
                f"cannot register format {fmt.name!r}: {what} {key!r} "
                f"is already taken by {existing.name!r}")
    if _BY_NAME.get(fmt.name) is fmt:
        return fmt  # already registered
    _BY_NAME[fmt.name] = fmt
    _BY_SUFFIX[fmt.suffix] = fmt
    _BY_KEYWORD[fmt.c_keyword] = fmt
    for callback in list(_CALLBACKS):
        callback(fmt)
    return fmt


def on_register(callback: Callable[[NumberFormat], None]) -> None:
    """Subscribe to registrations; replayed for already-known formats.

    The ISA layer derives instruction specs per format this way, so a
    format registered after :mod:`repro.isa` imported still gets its
    instructions.
    """
    _CALLBACKS.append(callback)
    for fmt in list(_BY_NAME.values()):
        callback(fmt)


def all_formats() -> Tuple[NumberFormat, ...]:
    """Every registered format, in registration order."""
    return tuple(_BY_NAME.values())


def guest_formats() -> Tuple[NumberFormat, ...]:
    """Registered non-IEEE guest formats, in registration order."""
    return tuple(f for f in _BY_NAME.values() if f.is_guest)


def kernel_ftypes() -> Tuple[str, ...]:
    """C keywords of formats usable as kernel element types."""
    return tuple(f.c_keyword for f in _BY_NAME.values() if f.kernel_type)


def by_suffix(suffix: str) -> NumberFormat:
    """The format owning a mnemonic suffix (``fadd.<suffix>``)."""
    fmt = _BY_SUFFIX.get(suffix)
    if fmt is None:
        raise _lookup_error(suffix)
    return fmt


def by_keyword(keyword: str) -> NumberFormat:
    """The format behind a kernel-language type keyword."""
    fmt = _BY_KEYWORD.get(keyword)
    if fmt is None:
        raise _lookup_error(keyword)
    return fmt


def by_name(name: str) -> NumberFormat:
    """The format registered under a given name."""
    fmt = _BY_NAME.get(name)
    if fmt is None:
        raise _lookup_error(name)
    return fmt


def lookup(spec) -> NumberFormat:
    """Resolve a :class:`NumberFormat`, name, suffix or C keyword."""
    if isinstance(spec, NumberFormat):
        return spec
    for table in (_BY_NAME, _BY_SUFFIX, _BY_KEYWORD):
        fmt = table.get(spec)
        if fmt is not None:
            return fmt
    raise _lookup_error(spec)


def _lookup_error(spec) -> FormatLookupError:
    return FormatLookupError(
        f"unknown number format: {spec!r} "
        f"(registered names: {', '.join(sorted(_BY_NAME)) or 'none'}; "
        f"suffixes: {', '.join(sorted(_BY_SUFFIX)) or 'none'}; "
        f"keywords: {', '.join(sorted(_BY_KEYWORD)) or 'none'})")
