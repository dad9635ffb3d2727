"""Fast vectorized smallFloat emulation (the FlexFloat substitute).

The paper's QoR table (Table III) and the precision-tuning case study
(Section V-C) require running kernels under many candidate precisions.
Driving the bit-exact softfloat core element by element would be
needlessly slow for that purpose, so this module represents smallFloat
values as *format-representable binary64 numbers* and quantizes after
every operation.

Correctness argument: binary64 carries 53 significand bits, which is at
least ``2p + 2`` for every emulated format (p = 24 for binary32, 11 for
binary16, 8 for binary16alt, 3 for binary8).  By the classical innocuous
double-rounding theorem, computing +, -, *, /, sqrt in binary64 over
format-representable operands and rounding the binary64 result to the
format yields exactly the correctly rounded format result.

Rounding is round-to-nearest-even through the codec tables of
:mod:`repro.fp.batch` -- the same tables the lockstep engine rounds
with, for every format of 16 bits or less, posit and MX8 included.
binary32 and binary64 use numpy's own casts and views.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from . import batch
from .formats import FloatFormat

ArrayLike = Union[np.ndarray, float, int]


def quantize(x: ArrayLike, fmt: FloatFormat) -> np.ndarray:
    """Round binary64 values to the nearest ``fmt`` value (as binary64).

    NaNs stay NaN and infinities keep their sign; overflow and
    underflow follow the format's RNE rule (IEEE: to infinity and to
    zero; posits saturate at maxpos and minpos; MX8 overflows to NaN).
    """
    arr = np.asarray(x, dtype=np.float64)
    if fmt.width == 64:
        return arr.copy()
    return from_bits(to_bits(arr, fmt), fmt)


def to_bits(x: ArrayLike, fmt: FloatFormat) -> np.ndarray:
    """Encode binary64 values into ``fmt`` bit patterns (uint64).

    Values are rounded to nearest-even first, so arbitrary binary64
    inputs are accepted; NaNs encode to the canonical quiet NaN.
    """
    arr = np.asarray(x, dtype=np.float64)
    if fmt.width == 64:
        return arr.view(np.uint64).copy()
    return batch.encode(fmt, arr).astype(np.uint64)


def from_bits(bits: ArrayLike, fmt: FloatFormat) -> np.ndarray:
    """Decode bit patterns into binary64 values (exact)."""
    b = np.asarray(bits, dtype=np.uint64)
    if fmt.width == 64:
        return b.view(np.float64).copy()
    return batch.decode(fmt, b)
