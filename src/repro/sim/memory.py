"""Byte-addressable sparse memory with a configurable access latency.

The paper's Figures 2 and 3 sweep the data-memory latency: L1 = 1 cycle
(a tightly-coupled data memory / level-1 cache hit), L2 = 10 cycles and
L3 = 100 cycles.  The latency lives here as a property of the memory;
the timing model charges it per data access.
"""

from __future__ import annotations

from typing import Dict

from .. import ReproError

_PAGE_BITS = 12
_PAGE_SIZE = 1 << _PAGE_BITS
_PAGE_MASK = _PAGE_SIZE - 1

#: Named latency levels from the paper (Section V-B).
LATENCY_LEVELS = {"L1": 1, "L2": 10, "L3": 100}


class MemoryAccessError(ReproError):
    """Access outside the 32-bit physical address space.

    Carries the faulting address, size and access kind (``'load'`` or
    ``'store'``) so the simulator can map it to the right mcause code
    and fill ``mtval``.
    """

    def __init__(self, message: str, addr: int = 0, size: int = 0,
                 access: str = "load"):
        super().__init__(message)
        self.addr = addr
        self.size = size
        self.access = access


def __getattr__(name: str):
    # Deprecated alias of :class:`MemoryAccessError` (pre-1.1 name),
    # kept importable but warning on access.
    if name == "MemoryError_":
        import warnings

        warnings.warn(
            "MemoryError_ is deprecated; use MemoryAccessError",
            DeprecationWarning,
            stacklevel=2,
        )
        return MemoryAccessError
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Memory:
    """Sparse paged memory, little-endian, 32-bit address space."""

    def __init__(self, latency: int = 1):
        if latency < 1:
            raise ValueError("memory latency must be at least 1 cycle")
        self.latency = latency
        #: Page number -> its 4 KiB ``bytearray``, created on first
        #: touch.  Public: generated block code indexes it directly, and
        #: the lockstep engine swaps in a drained lane's pages.
        self.pages: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    def _page(self, addr: int) -> bytearray:
        page = self.pages.get(addr >> _PAGE_BITS)
        if page is None:
            page = bytearray(_PAGE_SIZE)
            self.pages[addr >> _PAGE_BITS] = page
        return page

    @staticmethod
    def _check(addr: int, size: int, access: str = "load") -> None:
        if addr < 0 or addr + size > (1 << 32):
            raise MemoryAccessError(
                f"{access} at {addr:#x} (+{size}) out of range",
                addr=addr, size=size, access=access,
            )

    # ------------------------------------------------------------------
    # Scalar accesses
    # ------------------------------------------------------------------
    def read(self, addr: int, size: int) -> int:
        """Read ``size`` bytes as an unsigned little-endian integer."""
        self._check(addr, size)
        if (addr & _PAGE_MASK) + size <= _PAGE_SIZE:
            page = self._page(addr)
            off = addr & _PAGE_MASK
            return int.from_bytes(page[off:off + size], "little")
        return int.from_bytes(self.read_block(addr, size), "little")

    def write(self, addr: int, value: int, size: int) -> None:
        """Write ``size`` bytes little-endian (value is masked)."""
        self._check(addr, size, access="store")
        data = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")
        if (addr & _PAGE_MASK) + size <= _PAGE_SIZE:
            page = self._page(addr)
            off = addr & _PAGE_MASK
            page[off:off + size] = data
        else:
            self.write_block(addr, data)

    def read_u8(self, addr: int) -> int:
        return self.read(addr, 1)

    def read_u16(self, addr: int) -> int:
        return self.read(addr, 2)

    def read_u32(self, addr: int) -> int:
        return self.read(addr, 4)

    def write_u8(self, addr: int, value: int) -> None:
        self.write(addr, value, 1)

    def write_u16(self, addr: int, value: int) -> None:
        self.write(addr, value, 2)

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, value, 4)

    # ------------------------------------------------------------------
    # Bulk accesses (program loading, array staging)
    # ------------------------------------------------------------------
    def read_block(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        out = bytearray()
        while size:
            off = addr & _PAGE_MASK
            chunk = min(size, _PAGE_SIZE - off)
            out += self._page(addr)[off:off + chunk]
            addr += chunk
            size -= chunk
        return bytes(out)

    def write_block(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data), access="store")
        offset = 0
        while offset < len(data):
            off = (addr + offset) & _PAGE_MASK
            chunk = min(len(data) - offset, _PAGE_SIZE - off)
            self._page(addr + offset)[off:off + chunk] = data[
                offset:offset + chunk
            ]
            offset += chunk
