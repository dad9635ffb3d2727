"""Instruction-set simulator with a RISCY-like cycle model."""

from .blocks import (BLOCK_CACHE_SIZE, BlockCacheInfo, block_cache_clear,
                     block_cache_info)
from .csr import CsrFile, IllegalCsr
from .executor import EbreakTrap, EcallTrap, execute
from .machine import Machine
from .memory import LATENCY_LEVELS, Memory, MemoryAccessError
from .simulator import (
    EXIT_REASONS,
    HALT_ADDRESS,
    STACK_TOP,
    RunResult,
    SimulationError,
    Simulator,
)
from .timing import STALL_CAUSES, CycleBreakdown, TimingConfig, TimingModel
from .tracer import CATEGORIES, Trace, classify
from .traps import (
    CAUSE_ILLEGAL_INSTRUCTION,
    CAUSE_INSTRUCTION_ACCESS_FAULT,
    CAUSE_LOAD_ACCESS_FAULT,
    CAUSE_NAMES,
    CAUSE_STORE_ACCESS_FAULT,
    ArchitecturalTrap,
    TrapInfo,
)

__all__ = [
    "BLOCK_CACHE_SIZE",
    "BlockCacheInfo",
    "block_cache_clear",
    "block_cache_info",
    "CsrFile",
    "IllegalCsr",
    "EbreakTrap",
    "EcallTrap",
    "execute",
    "Machine",
    "LATENCY_LEVELS",
    "Memory",
    "MemoryAccessError",
    "MemoryError_",
    "EXIT_REASONS",
    "HALT_ADDRESS",
    "STACK_TOP",
    "RunResult",
    "SimulationError",
    "Simulator",
    "STALL_CAUSES",
    "CycleBreakdown",
    "TimingConfig",
    "TimingModel",
    "CATEGORIES",
    "Trace",
    "classify",
    "CAUSE_ILLEGAL_INSTRUCTION",
    "CAUSE_INSTRUCTION_ACCESS_FAULT",
    "CAUSE_LOAD_ACCESS_FAULT",
    "CAUSE_STORE_ACCESS_FAULT",
    "CAUSE_NAMES",
    "ArchitecturalTrap",
    "TrapInfo",
]


def __getattr__(name: str):
    # The deprecated pre-1.1 MemoryError_ alias is resolved lazily so
    # that merely importing repro.sim does not warn; accessing it does.
    if name == "MemoryError_":
        from . import memory

        return memory.MemoryError_
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
