"""The type system of the kernel language, with smallFloat extensions.

Section IV of the paper: "we have extended the standard C/C++ type
system by introducing a new set of keywords (float8, float16 and
float16alt) and extending the conversion rules to guarantee a correct
behavior".  This module is that type system:

* scalar types: ``int``, ``float``, ``float16``, ``float16alt``,
  ``float8`` (each FP type carries its :class:`~repro.fp.formats.FloatFormat`);
* vector types ``float16v`` / ``float8v`` for manual vectorization
  (2 and 4 lanes in a 32-bit register, paper Table II);
* pointer types for array parameters.

Conversion rules: FP types order by (range, precision) rank; mixing two
FP types in an arithmetic operation promotes to the higher-ranked one.
``float16`` and ``float16alt`` are unordered (one has more precision,
the other more range), so mixing them requires an explicit cast --
exactly the GCC extension's behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import ReproError
from ..fp import registry
from ..fp.formats import (
    BINARY8,
    BINARY16,
    BINARY16ALT,
    BINARY32,
    FloatFormat,
)
from ..fp.registry import NumberFormat


class TypeError_(ReproError):
    """A type-checking failure (named to avoid shadowing the builtin)."""


@dataclass(frozen=True)
class Type:
    """Base class for all kernel-language types."""

    name: str

    @property
    def size(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntType(Type):
    @property
    def size(self) -> int:
        return 4


@dataclass(frozen=True)
class FloatType(Type):
    fmt: FloatFormat = None

    @property
    def size(self) -> int:
        return self.fmt.width // 8

    @property
    def suffix(self) -> str:
        """ISA mnemonic suffix (``fadd.<suffix>``)."""
        return self.fmt.suffix


@dataclass(frozen=True)
class VecType(Type):
    """A packed vector of smallFloat lanes filling one 32-bit register."""

    elem: FloatType = None

    @property
    def size(self) -> int:
        return 4

    @property
    def lanes(self) -> int:
        return 4 // self.elem.size

    @property
    def suffix(self) -> str:
        return self.elem.suffix


@dataclass(frozen=True)
class PtrType(Type):
    elem: Type = None

    @property
    def size(self) -> int:
        return 4


@dataclass(frozen=True)
class VoidType(Type):
    @property
    def size(self) -> int:
        raise TypeError_("void has no size")


INT = IntType("int")
FLOAT = FloatType("float", BINARY32)
FLOAT16 = FloatType("float16", BINARY16)
FLOAT16ALT = FloatType("float16alt", BINARY16ALT)
FLOAT8 = FloatType("float8", BINARY8)
FLOAT16V = VecType("float16v", elem=FLOAT16)
FLOAT16ALTV = VecType("float16altv", elem=FLOAT16ALT)
FLOAT8V = VecType("float8v", elem=FLOAT8)
VOID = VoidType("void")

#: Keyword -> scalar/vector type.
TYPE_KEYWORDS = {
    t.name: t
    for t in (INT, FLOAT, FLOAT16, FLOAT16ALT, FLOAT8, FLOAT16V,
              FLOAT16ALTV, FLOAT8V, VOID)
}

#: Scalar FP type per format suffix.
FLOAT_BY_SUFFIX = {"s": FLOAT, "h": FLOAT16, "ah": FLOAT16ALT, "b": FLOAT8}

#: Vector type per element type.
VEC_OF = {FLOAT16: FLOAT16V, FLOAT16ALT: FLOAT16ALTV, FLOAT8: FLOAT8V}

# Promotion ranks.  float16 and float16alt share a rank: neither
# subsumes the other, so implicit mixing is rejected.
_RANK = {FLOAT8: 0, FLOAT16: 1, FLOAT16ALT: 1, FLOAT: 2}


def _register_format_types(fmt: NumberFormat) -> None:
    """Derive kernel-language types for a newly registered format.

    The IEEE formats above are statically defined (their singletons are
    compared by identity across the compiler); everything else --
    posit8, mx8, formats registered by tests -- gets a scalar type
    keyed by its C keyword, a promotion rank by width (same-width
    distinct formats are unordered, like float16 vs float16alt), and a
    vector type when the format supports packed SIMD.
    """
    if not fmt.kernel_type or fmt.c_keyword in TYPE_KEYWORDS:
        return
    ty = FloatType(fmt.c_keyword, fmt)
    TYPE_KEYWORDS[ty.name] = ty
    FLOAT_BY_SUFFIX[fmt.suffix] = ty
    _RANK[ty] = 0 if fmt.width <= 8 else (1 if fmt.width <= 16 else 2)
    if fmt.has_vector and fmt.width <= 16:
        vty = VecType(fmt.c_keyword + "v", elem=ty)
        TYPE_KEYWORDS[vty.name] = vty
        VEC_OF[ty] = vty


registry.on_register(_register_format_types)


def is_float(ty: Type) -> bool:
    return isinstance(ty, FloatType)


def is_vector(ty: Type) -> bool:
    return isinstance(ty, VecType)


def promote(a: Type, b: Type) -> Type:
    """The common type of a binary arithmetic operation.

    Implements the extended conversion rules:  int op int -> int;
    int op FP -> FP; FP op FP -> the higher-ranked format; equal-rank
    distinct formats (float16 vs float16alt) are an error.
    """
    if a == b:
        return a
    if isinstance(a, IntType) and isinstance(b, IntType):
        return INT
    if isinstance(a, IntType) and is_float(b):
        return b
    if is_float(a) and isinstance(b, IntType):
        return a
    if is_float(a) and is_float(b):
        ra, rb = _RANK[a], _RANK[b]
        if ra == rb:
            raise TypeError_(
                f"implicit mixing of {a} and {b} is ambiguous; "
                "use an explicit cast"
            )
        return a if ra > rb else b
    if is_vector(a) and is_vector(b) and a == b:
        return a
    raise TypeError_(f"no common type for {a} and {b}")


def can_convert(src: Type, dst: Type) -> bool:
    """May ``src`` convert (implicitly, on assignment) to ``dst``?

    Assignment conversion is permissive among scalars -- like C, any
    arithmetic type assigns to any other, with rounding on narrowing.
    Vectors only assign to the identical vector type; pointers must
    match exactly.
    """
    if src == dst:
        return True
    scalars = (IntType, FloatType)
    if isinstance(src, scalars) and isinstance(dst, scalars):
        return True
    return False
