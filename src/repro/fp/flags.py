"""IEEE 754 exception flags, laid out as in the RISC-V ``fflags`` CSR.

The RISC-V ``fflags`` register packs the five accrued exception flags as

    bit 4: NV (invalid operation)
    bit 3: DZ (divide by zero)
    bit 2: OF (overflow)
    bit 1: UF (underflow)
    bit 0: NX (inexact)

Every operation in :mod:`repro.fp` returns a flag mask using these
constants; the simulator ORs them into the ``fcsr`` CSR.
"""

from __future__ import annotations

from typing import List

#: Invalid operation (e.g. 0 * inf, sqrt of a negative, signaling NaN).
NV = 0b10000
#: Division by zero (finite / 0).
DZ = 0b01000
#: Overflow (result rounded beyond the largest finite value).
OF = 0b00100
#: Underflow (tiny after rounding *and* inexact, per RISC-V).
UF = 0b00010
#: Inexact (result had to be rounded).
NX = 0b00001

#: Every flag at once (the mask of valid fflags bits).
ALL = NV | DZ | OF | UF | NX


class GuestIllegal(ValueError):
    """An operation the guest program may not perform: an illegal instruction.

    Raised where the *guest* is at fault -- a reserved rounding mode, a
    vector form that does not exist at the machine's FLEN -- and caught
    by the simulator engines, which take an illegal-instruction trap.
    Every other exception from an FP operation is a host bug and
    propagates.  It subclasses ``ValueError``, so callers that catch
    ``ValueError`` around an FP operation still see it.
    """


_NAMES = [(NV, "NV"), (DZ, "DZ"), (OF, "OF"), (UF, "UF"), (NX, "NX")]


def flag_names(mask: int) -> List[str]:
    """Decode a flag mask into mnemonic names, MSB first.

    >>> flag_names(NV | NX)
    ['NV', 'NX']
    >>> flag_names(0)
    []
    """
    return [name for bit, name in _NAMES if mask & bit]


def format_flags(mask: int) -> str:
    """Human-readable rendering of a flag mask (``"NV|NX"`` or ``"-"``)."""
    names = flag_names(mask)
    return "|".join(names) if names else "-"
