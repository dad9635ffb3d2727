"""The "F" extension and the paper's smallFloat ISA extensions.

Encoding choices follow Section III of the paper:

* The 16-bit formats occupy the previously-unused ``fmt = 0b10`` pattern
  of the OP-FP format field; ``binary8`` repurposes the quad-precision
  pattern ``fmt = 0b11`` ("it is highly unlikely embedded implementations
  targeted towards low precision FP will also implement 128-bit floats").
* ``binary16alt`` is selected through unused states of the rounding-mode
  field: rm-bearing operations pin ``rm = 0b101`` (rounding then comes
  from ``fcsr``); comparison/sign/classify operations set funct3 bit 2;
  conversions flag an alt *operand* through bit 2 of the rs2 sub-code.
* The vectorial extension "Xfvec" lives in a previously-unused prefix of
  the integer ``OP`` opcode: ``funct7[6:5] = 0b11``, with
  ``funct7[4:0]`` selecting the operation and ``funct3`` carrying the
  vector format (bit 2 marks the ``.r`` replicated-scalar variants).
* "Xfaux" expanding operations use the unused funct5 values ``0b10101``
  (fmulex) and ``0b10110`` (fmacex) of OP-FP, and ``0b10001`` of the
  vectorial space (vfdotpex).

The full layout is documented in ``docs/isa_manual.md``.

**Format-registry integration.**  The instruction tables are *derived*
from the number-format registry (:mod:`repro.fp.registry`) rather than
from a hardcoded format list: a callback subscribed via
``registry.on_register`` stamps out the per-format instruction set when
a format is registered, so guest formats added after import still get
their instructions.  IEEE formats land in the paper's OP-FP / Xfvec
encodings above; non-IEEE *guest* formats (Xposit, Xmx8) use the
CUSTOM opcode spaces reserved by the base ISA:

* **CUSTOM-0** (``0b0001011``): guest scalar operations, with
  ``funct7 = funct5 << 2 | fmt2`` mirroring the OP-FP funct5 layout and
  the format's 2-bit ``guest_fmt2`` code in the low bits.  Conversions
  to a guest format use funct5 ``0b01000`` (rs2 names the source via
  its ``cvt_code``); conversions *from* a guest into an IEEE format use
  funct5 ``0b01001`` in the guest's own space (rs2 names the IEEE
  destination).
* **CUSTOM-1** (``0b0101011``): guest packed-SIMD, ``funct7 =
  vecop << 2 | fmt2`` with funct3 bit 2 marking ``.r`` replication.
* **CUSTOM-2** (``0b1011011``): guest fused multiply-add (R4 form,
  funct3 selects the fmadd/fmsub/fnmsub/fnmadd variant, bits 26:25
  carry ``fmt2``; rounding always comes from ``fcsr``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..fp import registry
from ..fp.formats import vector_lanes
from ..fp.registry import NumberFormat
from .instructions import (
    OP_FMADD,
    OP_FMSUB,
    OP_FNMADD,
    OP_FNMSUB,
    OP_FP,
    OP_LOAD_FP,
    OP_OP,
    OP_STORE_FP,
    InstrSpec,
    register,
)

#: Guest (non-IEEE) extension opcode spaces.
OP_CUSTOM0 = 0b0001011  # guest scalar
OP_CUSTOM1 = 0b0101011  # guest packed-SIMD
OP_CUSTOM2 = 0b1011011  # guest fused multiply-add (R4)

#: OP-FP fmt field codes.  "q" (0b11) is repurposed for binary8.
FMT2: Dict[str, int] = {"s": 0b00, "d": 0b01, "h": 0b10, "b": 0b11}

#: rs2 sub-codes naming a *source* format in fcvt.f.f encodings.
#: Bit 2 marks the alternate 16-bit format.
SRC_CODE: Dict[str, int] = {"s": 0, "d": 1, "h": 2, "b": 3, "ah": 6}

#: The pinned rounding-mode state that selects binary16alt.
RM_ALT = 0b101

#: Scalar extension name per format suffix.
EXT_OF: Dict[str, str] = {"s": "F", "h": "Xf16", "ah": "Xf16alt", "b": "Xf8"}

#: Vector format codes in funct3[1:0] of Xfvec encodings.  The "s"
#: entry exists for FLEN=64 implementations (paper Table II's first
#: column: 2 binary32 lanes); executing it on an FLEN=32 core is an
#: illegal instruction.
VEC_FMT: Dict[str, int] = {"h": 0b00, "ah": 0b01, "b": 0b10, "s": 0b11}

#: Load/store funct3 width codes in LOAD-FP / STORE-FP.
WIDTH_OF: Dict[str, int] = {"b": 0b000, "h": 0b001, "s": 0b010}

_VEC_PREFIX = 0b11 << 5

#: Xfvec operation codes (funct7[4:0]).
VECOP: Dict[str, int] = {
    "vfadd": 0b00000,
    "vfsub": 0b00001,
    "vfmul": 0b00010,
    "vfdiv": 0b00011,
    "vfmin": 0b00100,
    "vfmax": 0b00101,
    "vfsqrt": 0b00110,
    "vfmac": 0b00111,
    "vfsgnj": 0b01000,
    "vfsgnjn": 0b01001,
    "vfsgnjx": 0b01010,
    "vfeq": 0b01011,
    "vflt": 0b01100,
    "vfle": 0b01101,
    "vfcpka": 0b01110,
    "vfcpkb": 0b01111,
    "vfcvt": 0b10000,
    "vfdotpex": 0b10001,
}


def _fp(mn: str, f5: int, fmt: str, *, funct3=None, rs2_fixed=None, syntax,
        kind: str, src_fmt=None, has_rm=False, rm_fixed=None,
        ext: Optional[str] = None) -> None:
    """Register one scalar OP-FP instruction."""
    fmt2 = FMT2["h"] if fmt == "ah" else FMT2[fmt]
    register(
        InstrSpec(
            mn,
            "R",
            OP_FP,
            funct3=funct3,
            funct7=(f5 << 2) | fmt2,
            rs2_fixed=rs2_fixed,
            syntax=syntax,
            kind=kind,
            ext=ext or EXT_OF[fmt],
            fp_fmt=fmt,
            src_fmt=src_fmt,
            has_rm=has_rm,
            rm_fixed=rm_fixed,
        )
    )


def _register_scalar_format(fmt: str) -> None:
    """Register the full "F"-mirroring scalar set for one format."""
    alt = fmt == "ah"
    rm_pin = RM_ALT if alt else None
    # Arithmetic (rm-bearing; the alt format pins rm and rounds via fcsr).
    for mn, f5 in [("fadd", 0b00000), ("fsub", 0b00001), ("fmul", 0b00010),
                   ("fdiv", 0b00011)]:
        _fp(f"{mn}.{fmt}", f5, fmt, syntax=("frd", "frs1", "frs2"), kind=mn,
            has_rm=not alt, rm_fixed=rm_pin)
    _fp(f"fsqrt.{fmt}", 0b01011, fmt, rs2_fixed=0, syntax=("frd", "frs1"),
        kind="fsqrt", has_rm=not alt, rm_fixed=rm_pin)

    # Sign injection / min / max (funct3 is an opcode field; alt sets bit 2).
    bump = 0b100 if alt else 0
    for mn, f3 in [("fsgnj", 0), ("fsgnjn", 1), ("fsgnjx", 2)]:
        _fp(f"{mn}.{fmt}", 0b00100, fmt, funct3=f3 | bump,
            syntax=("frd", "frs1", "frs2"), kind=mn)
    for mn, f3 in [("fmin", 0), ("fmax", 1)]:
        _fp(f"{mn}.{fmt}", 0b00101, fmt, funct3=f3 | bump,
            syntax=("frd", "frs1", "frs2"), kind=mn)

    # Comparisons (result to an integer register).
    for mn, f3 in [("fle", 0), ("flt", 1), ("feq", 2)]:
        _fp(f"{mn}.{fmt}", 0b10100, fmt, funct3=f3 | bump,
            syntax=("rd", "frs1", "frs2"), kind=mn)

    # Classification.
    _fp(f"fclass.{fmt}", 0b11100, fmt, funct3=1 | bump, rs2_fixed=0,
        syntax=("rd", "frs1"), kind="fclass")

    # Integer conversions (alt formats flag themselves in rs2 bit 2,
    # keeping the rounding-mode field available).
    alt_rs2 = 0b100 if alt else 0
    _fp(f"fcvt.w.{fmt}", 0b11000, fmt, rs2_fixed=alt_rs2 | 0,
        syntax=("rd", "frs1"), kind="fcvt_w_f", has_rm=True)
    _fp(f"fcvt.wu.{fmt}", 0b11000, fmt, rs2_fixed=alt_rs2 | 1,
        syntax=("rd", "frs1"), kind="fcvt_wu_f", has_rm=True)
    _fp(f"fcvt.{fmt}.w", 0b11010, fmt, rs2_fixed=alt_rs2 | 0,
        syntax=("frd", "rs1"), kind="fcvt_f_w", has_rm=True)
    _fp(f"fcvt.{fmt}.wu", 0b11010, fmt, rs2_fixed=alt_rs2 | 1,
        syntax=("frd", "rs1"), kind="fcvt_f_wu", has_rm=True)

    # Raw bit moves (format-width agnostic; the alt format shares the
    # binary16 pattern, a 16-bit move is a 16-bit move).
    if not alt:
        _fp(f"fmv.x.{fmt}", 0b11100, fmt, funct3=0, rs2_fixed=0,
            syntax=("rd", "frs1"), kind="fmv_x_f")
        _fp(f"fmv.{fmt}.x", 0b11110, fmt, funct3=0, rs2_fixed=0,
            syntax=("frd", "rs1"), kind="fmv_f_x")

    # Fused multiply-add family (R4 encodings).
    for mn, opcode, kind in [("fmadd", OP_FMADD, "fmadd"),
                             ("fmsub", OP_FMSUB, "fmsub"),
                             ("fnmsub", OP_FNMSUB, "fnmsub"),
                             ("fnmadd", OP_FNMADD, "fnmadd")]:
        register(
            InstrSpec(
                f"{mn}.{fmt}",
                "R4",
                opcode,
                funct7=FMT2["h"] if alt else FMT2[fmt],
                syntax=("frd", "frs1", "frs2", "frs3"),
                kind=kind,
                ext=EXT_OF[fmt],
                fp_fmt=fmt,
                has_rm=not alt,
                rm_fixed=rm_pin,
            )
        )


def _register_loads_stores(fmt: str) -> None:
    suffix = {"s": "w", "h": "h", "b": "b"}[fmt]
    register(InstrSpec(f"fl{suffix}", "I", OP_LOAD_FP, funct3=WIDTH_OF[fmt],
                       syntax=("frd", "mem"), kind="flw",
                       ext=EXT_OF[fmt], fp_fmt=fmt))
    register(InstrSpec(f"fs{suffix}", "S", OP_STORE_FP, funct3=WIDTH_OF[fmt],
                       syntax=("frs2", "mem"), kind="fsw",
                       ext=EXT_OF[fmt], fp_fmt=fmt))


def _register_ieee_cvt(dst: str, src: str) -> None:
    """One float-to-float conversion between IEEE kernel formats."""
    alt_dst = dst == "ah"
    _fp(
        f"fcvt.{dst}.{src}",
        0b01000,
        dst,
        rs2_fixed=SRC_CODE[src],
        syntax=("frd", "frs1"),
        kind="fcvt_f2f",
        src_fmt=src,
        has_rm=not alt_dst,
        rm_fixed=RM_ALT if alt_dst else None,
        ext=EXT_OF[dst] if dst != "s" else EXT_OF[src],
    )


def _register_xfaux_scalar(src: str) -> None:
    """Expanding multiply and multiply-accumulate (Table I: fmacex.s.h)."""
    alt = src == "ah"
    _fp(f"fmulex.s.{src}", 0b10101, src, syntax=("frd", "frs1", "frs2"),
        kind="fmulex", src_fmt=src, has_rm=not alt,
        rm_fixed=RM_ALT if alt else None, ext="Xfaux")
    _fp(f"fmacex.s.{src}", 0b10110, src, syntax=("frd", "frs1", "frs2"),
        kind="fmacex", src_fmt=src, has_rm=not alt,
        rm_fixed=RM_ALT if alt else None, ext="Xfaux")


def _vec(mn: str, code: int, fmt: str, *, syntax, kind: str, rs2_fixed=None,
         repl=False, src_fmt=None, ext="Xfvec") -> None:
    register(
        InstrSpec(
            mn,
            "R",
            OP_OP,
            funct3=(0b100 if repl else 0) | VEC_FMT[fmt],
            funct7=_VEC_PREFIX | code,
            rs2_fixed=rs2_fixed,
            syntax=syntax,
            kind=kind,
            ext=ext,
            fp_fmt=fmt,
            src_fmt=src_fmt,
            vec=True,
            repl=repl,
        )
    )


def _register_xfvec(fmt: str) -> None:
    rrr = ("frd", "frs1", "frs2")
    for mn in ["vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax", "vfmac"]:
        _vec(f"{mn}.{fmt}", VECOP[mn], fmt, syntax=rrr, kind=mn)
        _vec(f"{mn}.r.{fmt}", VECOP[mn], fmt, syntax=rrr, kind=mn, repl=True)
    _vec(f"vfsqrt.{fmt}", VECOP["vfsqrt"], fmt, rs2_fixed=0,
         syntax=("frd", "frs1"), kind="vfsqrt")
    for mn in ["vfsgnj", "vfsgnjn", "vfsgnjx"]:
        _vec(f"{mn}.{fmt}", VECOP[mn], fmt, syntax=rrr, kind=mn)
    for mn in ["vfeq", "vflt", "vfle"]:
        _vec(f"{mn}.{fmt}", VECOP[mn], fmt, syntax=("rd", "frs1", "frs2"),
             kind=mn)
    # Cast-and-pack from two binary32 scalars (paper: vfcpk.h.s).
    # Not defined for binary32 lanes: a same-format pack is a plain
    # move sequence, not a conversion.
    if fmt != "s":
        _vec(f"vfcpka.{fmt}.s", VECOP["vfcpka"], fmt, syntax=rrr,
             kind="vfcpka", src_fmt="s")
    if fmt == "b":  # four lanes -> a second pair-filling instruction
        _vec(f"vfcpkb.{fmt}.s", VECOP["vfcpkb"], fmt, syntax=rrr,
             kind="vfcpkb", src_fmt="s")
    # Vector conversions (rs2 sub-codes, mirroring scalar fcvt).
    _vec(f"vfcvt.x.{fmt}", VECOP["vfcvt"], fmt, rs2_fixed=0,
         syntax=("frd", "frs1"), kind="vfcvt_x_f")
    _vec(f"vfcvt.{fmt}.x", VECOP["vfcvt"], fmt, rs2_fixed=1,
         syntax=("frd", "frs1"), kind="vfcvt_f_x")
    # Expanding SIMD dot product (Table I: vfdopex.h).  The binary32
    # lanes of an FLEN=64 core would expand into binary64, which
    # this FLEN<=64 model does not provide.
    if fmt != "s":
        _vec(f"vfdotpex.s.{fmt}", VECOP["vfdotpex"], fmt, syntax=rrr,
             kind="vfdotpex", src_fmt=fmt, ext="Xfaux")
        _vec(f"vfdotpex.s.r.{fmt}", VECOP["vfdotpex"], fmt, syntax=rrr,
             kind="vfdotpex", src_fmt=fmt, ext="Xfaux", repl=True)
    # Same-width float-to-float vector conversions (h <-> ah only).
    if fmt == "ah":
        _vec("vfcvt.h.ah", VECOP["vfcvt"], "h", rs2_fixed=0b01001,
             syntax=("frd", "frs1"), kind="vfcvt_f2f", src_fmt="ah")
        _vec("vfcvt.ah.h", VECOP["vfcvt"], "ah", rs2_fixed=0b01000,
             syntax=("frd", "frs1"), kind="vfcvt_f2f", src_fmt="h")


# ----------------------------------------------------------------------
# Guest (non-IEEE) formats: CUSTOM-0/1/2 opcode spaces
# ----------------------------------------------------------------------
def _gfp(mn: str, f5: int, fmt: NumberFormat, *, funct3=None, rs2_fixed=None,
         syntax, kind: str, fp_fmt: Optional[str] = None, src_fmt=None,
         has_rm=False) -> None:
    """Register one guest scalar instruction on CUSTOM-0."""
    register(
        InstrSpec(
            mn,
            "R",
            OP_CUSTOM0,
            funct3=funct3,
            funct7=(f5 << 2) | fmt.guest_fmt2,
            rs2_fixed=rs2_fixed,
            syntax=syntax,
            kind=kind,
            ext=fmt.ext_name,
            fp_fmt=fp_fmt or fmt.suffix,
            src_fmt=src_fmt,
            has_rm=has_rm,
        )
    )


def _register_guest_scalar(fmt: NumberFormat) -> None:
    """The "F"-mirroring scalar set for a guest format, on CUSTOM-0."""
    sfx = fmt.suffix
    rrr = ("frd", "frs1", "frs2")
    for mn, f5 in [("fadd", 0b00000), ("fsub", 0b00001), ("fmul", 0b00010),
                   ("fdiv", 0b00011)]:
        _gfp(f"{mn}.{sfx}", f5, fmt, syntax=rrr, kind=mn, has_rm=True)
    _gfp(f"fsqrt.{sfx}", 0b01011, fmt, rs2_fixed=0, syntax=("frd", "frs1"),
         kind="fsqrt", has_rm=True)
    for mn, f3 in [("fsgnj", 0), ("fsgnjn", 1), ("fsgnjx", 2)]:
        _gfp(f"{mn}.{sfx}", 0b00100, fmt, funct3=f3, syntax=rrr, kind=mn)
    for mn, f3 in [("fmin", 0), ("fmax", 1)]:
        _gfp(f"{mn}.{sfx}", 0b00101, fmt, funct3=f3, syntax=rrr, kind=mn)
    for mn, f3 in [("fle", 0), ("flt", 1), ("feq", 2)]:
        _gfp(f"{mn}.{sfx}", 0b10100, fmt, funct3=f3,
             syntax=("rd", "frs1", "frs2"), kind=mn)
    _gfp(f"fclass.{sfx}", 0b11100, fmt, funct3=1, rs2_fixed=0,
         syntax=("rd", "frs1"), kind="fclass")
    _gfp(f"fcvt.w.{sfx}", 0b11000, fmt, rs2_fixed=0, syntax=("rd", "frs1"),
         kind="fcvt_w_f", has_rm=True)
    _gfp(f"fcvt.wu.{sfx}", 0b11000, fmt, rs2_fixed=1, syntax=("rd", "frs1"),
         kind="fcvt_wu_f", has_rm=True)
    _gfp(f"fcvt.{sfx}.w", 0b11010, fmt, rs2_fixed=0, syntax=("frd", "rs1"),
         kind="fcvt_f_w", has_rm=True)
    _gfp(f"fcvt.{sfx}.wu", 0b11010, fmt, rs2_fixed=1, syntax=("frd", "rs1"),
         kind="fcvt_f_wu", has_rm=True)
    _gfp(f"fmv.x.{sfx}", 0b11100, fmt, funct3=0, rs2_fixed=0,
         syntax=("rd", "frs1"), kind="fmv_x_f")
    _gfp(f"fmv.{sfx}.x", 0b11110, fmt, funct3=0, rs2_fixed=0,
         syntax=("frd", "rs1"), kind="fmv_f_x")
    # Expanding multiply / MAC into binary32 (the Xfaux pattern; the
    # softfloat core is exact, so it is format-generic for free).
    _gfp(f"fmulex.s.{sfx}", 0b10101, fmt, syntax=rrr, kind="fmulex",
         src_fmt=sfx, has_rm=True)
    _gfp(f"fmacex.s.{sfx}", 0b10110, fmt, syntax=rrr, kind="fmacex",
         src_fmt=sfx, has_rm=True)
    # Fused multiply-add family: one R4 opcode (CUSTOM-2), funct3 selects
    # the variant, bits 26:25 carry the guest fmt code.  No rm field --
    # rounding comes from fcsr, as in the Xf16alt trick.
    for variant, mn in enumerate(["fmadd", "fmsub", "fnmsub", "fnmadd"]):
        register(
            InstrSpec(
                f"{mn}.{sfx}",
                "R4",
                OP_CUSTOM2,
                funct3=variant,
                funct7=fmt.guest_fmt2,
                syntax=("frd", "frs1", "frs2", "frs3"),
                kind=mn,
                ext=fmt.ext_name,
                fp_fmt=sfx,
            )
        )


def _gvec(mn: str, code: int, fmt: NumberFormat, *, syntax, kind: str,
          rs2_fixed=None, repl=False, src_fmt=None) -> None:
    """Register one guest packed-SIMD instruction on CUSTOM-1."""
    register(
        InstrSpec(
            mn,
            "R",
            OP_CUSTOM1,
            funct3=0b100 if repl else 0b000,
            funct7=(code << 2) | fmt.guest_fmt2,
            rs2_fixed=rs2_fixed,
            syntax=syntax,
            kind=kind,
            ext=fmt.ext_name,
            fp_fmt=fmt.suffix,
            src_fmt=src_fmt,
            vec=True,
            repl=repl,
        )
    )


def _register_guest_vector(fmt: NumberFormat) -> None:
    """Packed-SIMD set for a guest format (sub-32-bit lanes only)."""
    sfx = fmt.suffix
    rrr = ("frd", "frs1", "frs2")
    for mn in ["vfadd", "vfsub", "vfmul", "vfdiv", "vfmin", "vfmax", "vfmac"]:
        _gvec(f"{mn}.{sfx}", VECOP[mn], fmt, syntax=rrr, kind=mn)
        _gvec(f"{mn}.r.{sfx}", VECOP[mn], fmt, syntax=rrr, kind=mn, repl=True)
    _gvec(f"vfsqrt.{sfx}", VECOP["vfsqrt"], fmt, rs2_fixed=0,
          syntax=("frd", "frs1"), kind="vfsqrt")
    for mn in ["vfsgnj", "vfsgnjn", "vfsgnjx"]:
        _gvec(f"{mn}.{sfx}", VECOP[mn], fmt, syntax=rrr, kind=mn)
    for mn in ["vfeq", "vflt", "vfle"]:
        _gvec(f"{mn}.{sfx}", VECOP[mn], fmt, syntax=("rd", "frs1", "frs2"),
              kind=mn)
    # Expanding SIMD dot product into binary32 (exact sum, one rounding).
    _gvec(f"vfdotpex.s.{sfx}", VECOP["vfdotpex"], fmt, syntax=rrr,
          kind="vfdotpex", src_fmt=sfx)
    _gvec(f"vfdotpex.s.r.{sfx}", VECOP["vfdotpex"], fmt, syntax=rrr,
          kind="vfdotpex", src_fmt=sfx, repl=True)


#: Block-format dot product (Xmx8's vfdotpmx): free Xfvec-space code.
VECOP_BLOCK_DOTP = 0b10010


def _register_guest_block_dotp(fmt: NumberFormat) -> None:
    """``vfdotpmx.s.<sfx>``: one shared-exponent block per operand
    register, exact dot product accumulated into a binary32 scalar."""
    _gvec(f"vfdotpmx.s.{fmt.suffix}", VECOP_BLOCK_DOTP, fmt,
          syntax=("frd", "frs1", "frs2"), kind="vfdotpmx",
          src_fmt=fmt.suffix)


# ----------------------------------------------------------------------
# Registry-driven registration
# ----------------------------------------------------------------------
_SEEN: List[NumberFormat] = []


def _register_cvt_pair(dst: NumberFormat, src: NumberFormat) -> None:
    """Float-to-float conversion between two registered kernel formats."""
    if dst.ieee and src.ieee:
        _register_ieee_cvt(dst.suffix, src.suffix)
    elif dst.is_guest:
        # Convert *to* a guest: lives in the guest's CUSTOM-0 space,
        # rs2 names the source via its conversion sub-code.
        _gfp(f"fcvt.{dst.suffix}.{src.suffix}", 0b01000, dst,
             rs2_fixed=src.cvt_code, syntax=("frd", "frs1"),
             kind="fcvt_f2f", src_fmt=src.suffix, has_rm=True)
    else:
        # Convert *from* a guest into an IEEE format: still encoded in
        # the guest's space (funct5 0b01001), rs2 names the destination.
        _gfp(f"fcvt.{dst.suffix}.{src.suffix}", 0b01001, src,
             rs2_fixed=dst.cvt_code, syntax=("frd", "frs1"),
             kind="fcvt_f2f", fp_fmt=dst.suffix, src_fmt=src.suffix,
             has_rm=True)


def _register_format(fmt: NumberFormat) -> None:
    """on_register hook: stamp out the instruction set for one format.

    Derives everything from the format object itself (suffix, width,
    guest_fmt2, flags), so a format registered after import -- e.g. by a
    test or a plugin -- gets its instructions without touching this
    module.  binary64 is a host container format (kernel_type is False)
    and gets no kernel instructions, matching the FLEN=32 model.
    """
    if not fmt.kernel_type:
        return
    sfx = fmt.suffix
    if fmt.ieee:
        _register_scalar_format(sfx)
        if sfx in WIDTH_OF:
            _register_loads_stores(sfx)
        if sfx != "s":
            _register_xfaux_scalar(sfx)
        if sfx in VEC_FMT:
            _register_xfvec(sfx)
    else:
        _register_guest_scalar(fmt)
        if vector_lanes(fmt, 32):
            _register_guest_vector(fmt)
        if fmt.has_block_dotp:
            _register_guest_block_dotp(fmt)
    for other in _SEEN:
        _register_cvt_pair(fmt, other)
        _register_cvt_pair(other, fmt)
    _SEEN.append(fmt)


registry.on_register(_register_format)
