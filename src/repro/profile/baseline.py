"""Profile baseline over a small deterministic configuration matrix.

``compute_profile_baseline`` runs a fixed set of (kernel, ftype, mode)
points through the profiler at L1 latency and distills each into a
stable summary: cycle/instret/stall totals, the hottest loop and its
cycle share, and the per-format flop counts.  The committed snapshot
lives at ``benchmarks/results/profile_baseline.json``;
``tests/profile/test_baseline.py`` recomputes it and checks it with
:func:`repro.analysis.serialize.check_baseline`, so compiler or timing
changes that move cycles around show up as a reviewable baseline diff
instead of silent drift.  To regenerate, delete the snapshot, rerun the
test and review the diff.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: The default (kernel, ftype, mode) matrix -- small enough to run in a
#: CI smoke step, wide enough to pin scalar vs vector and 16 vs 8 bit.
DEFAULT_MATRIX: Tuple[Tuple[str, str, str], ...] = (
    ("gemm", "float16", "scalar"),
    ("gemm", "float16", "auto"),
    ("gemm", "float8", "auto"),
    ("atax", "float16", "scalar"),
    ("atax", "float16", "auto"),
    ("svm", "float8", "auto"),
)


def _summarize(profile) -> Dict[str, object]:
    hot_loop = None
    loops = profile.hot_loops(1)
    if loops:
        loop = loops[0]
        hot_loop = {
            "name": loop.name,
            "function": loop.function,
            "depth": loop.depth,
            "iterations": loop.iterations,
            "total_cycles": loop.total_cycles,
            "share": (round(loop.total_cycles / profile.cycles, 6)
                      if profile.cycles else 0.0),
        }
    hot_block = None
    blocks = profile.hot_blocks(1)
    if blocks:
        block = blocks[0]
        hot_block = {"name": block.name, "cycles": block.cycles,
                     "instret": block.instret, "visits": block.visits}
    return {
        "cycles": profile.cycles,
        "instret": profile.instret,
        "stalls": dict(profile.stall_totals),
        "blocks_executed": len(profile.blocks),
        "loops_executed": len(profile.loops),
        "hot_loop": hot_loop,
        "hot_block": hot_block,
        "flops_by_format": dict(profile.roofline.flops_by_format),
        "bytes_total": profile.roofline.bytes_total,
    }


def compute_profile_baseline(
    matrix: Optional[List[Tuple[str, str, str]]] = None,
) -> Dict[str, object]:
    """Profile every matrix point; returns the baseline payload."""
    from ..harness import run_kernel
    from ..kernels import KERNELS
    from .export import PROFILE_SCHEMA_VERSION

    configs: Dict[str, object] = {}
    for kernel, ftype, mode in (matrix or list(DEFAULT_MATRIX)):
        run = run_kernel(KERNELS[kernel], ftype=ftype, mode=mode,
                         mem_latency=1, seed=0, profile=True)
        configs[f"{kernel}/{ftype}/{mode}"] = _summarize(run.profile)
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "configs": configs,
        "config_count": len(configs),
    }
