"""repro.nn: low-precision neural-network workload suite.

Six NN kernels -- MLP forward, MLP training (forward + backward + SGD),
im2col conv2d, softmax, layernorm and single-head attention -- written
in the repro kernel language with smallFloat data and binary32
expanding accumulation, registered as :class:`repro.kernels.KernelSpec`
entries so they run through every harness surface (tuning, faults,
profiling, lockstep sweeps, serving).

Compiled in ``mode='auto'`` the suite's reduction loops emit
``vfdotpex.s.*`` (``compile_opts={'expanding_reductions': True}``);
block formats additionally get the fused-block ``vfdotpmx`` route via
:func:`run_fused_block`.  Stochastic rounding is available everywhere
through ``run_kernel(..., frm=int(RoundingMode.SR), sr_key=...)``.
"""

# Importing .specs registers the NN kernels.
from .specs import (NN_ATTENTION, NN_CONV2D, NN_KERNEL_NAMES, NN_LAYERNORM,
                    NN_MLP_FWD, NN_MLP_TRAIN, NN_SOFTMAX)
from .block import (BLOCK_KERNELS, BlockFormatError, BlockRun,
                    fused_block_kernels, run_fused_block)
from .sources import manual_source, narrow_source, source

__all__ = [
    "BLOCK_KERNELS",
    "BlockFormatError",
    "BlockRun",
    "NN_ATTENTION",
    "NN_CONV2D",
    "NN_KERNEL_NAMES",
    "NN_LAYERNORM",
    "NN_MLP_FWD",
    "NN_MLP_TRAIN",
    "NN_SOFTMAX",
    "fused_block_kernels",
    "manual_source",
    "narrow_source",
    "run_fused_block",
    "source",
]
