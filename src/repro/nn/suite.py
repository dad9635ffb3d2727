"""The NN-suite QoR benchmark: one deterministic payload, committed.

:func:`compute_nn_suite` produces ``benchmarks/results/nn_suite.json``;
``tests/nn/test_suite_baseline`` recomputes it and checks it with
:func:`repro.analysis.serialize.check_baseline`, failing on any drift.
To regenerate, delete the snapshot, rerun the test and review the
diff.  Sections:

``qor``
    SQNR and retired-instruction count for every NN kernel over every
    kernel-capable format, scalar and auto-vectorized.
``expanding_vs_narrow``
    MLP forward with binary32 expanding accumulation vs the same kernel
    accumulating in the narrow format -- the paper's core claim, which
    must hold (positive delta) for every 8-bit format.
``sr_vs_rne``
    MLP training loss-trajectory divergence from the binary32 run,
    round-to-nearest vs stochastic rounding averaged over lane keys.
``fused_block``
    The ``vfdotpmx`` fused-block route on MX8.
``differential``
    Scalar solo runs vs the batched lockstep engine, which must retire
    bit-identical outputs per lane.
"""

from __future__ import annotations

import dataclasses
from typing import Dict

import numpy as np

from ..fp.rounding import RoundingMode
from ..kernels import KERNELS
from ..metrics import loss_divergence
from . import sources
from .block import BLOCK_KERNELS, run_fused_block
from .specs import NN_KERNEL_NAMES

#: Formats the QoR sweep covers (every kernel-capable keyword).
QOR_FTYPES = ("float", "float16", "float16alt", "float8",
              "posit8", "posit16")

#: 8-bit formats for the expanding-vs-narrow comparison (plus the
#: 16-bit ones, reported for context).
NARROW_FTYPES = ("float8", "posit8", "float16", "float16alt")

#: Sub-32-bit training formats for the SR-vs-RNE comparison.
SR_FTYPES = ("float8", "posit8", "float16alt", "float16")

#: Lane keys averaged for the stochastic-rounding leg.
SR_KEYS = (1, 2, 3)

#: Training length for the loss-trajectory comparison.
SR_STEPS = 8

#: Seeds (= lockstep lanes) for the differential section.
DIFF_SEEDS = (0, 1, 2)


def _round(value: float) -> float:
    return round(float(value), 4)


def compute_nn_suite() -> Dict:
    from ..harness.runner import run_kernel, run_kernel_batch

    payload: Dict = {"kernels": list(NN_KERNEL_NAMES)}

    qor = {}
    for name in NN_KERNEL_NAMES:
        spec = KERNELS[name]
        for ftype in QOR_FTYPES:
            for mode in ("scalar", "auto"):
                run = run_kernel(spec, ftype, mode)
                qor[f"{name}/{ftype}/{mode}"] = {
                    "sqnr_db": _round(run.sqnr_db()),
                    "instret": int(run.trace.instret),
                }
    payload["qor"] = qor

    spec = KERNELS["nn_mlp_fwd"]
    narrow_spec = dataclasses.replace(
        spec,
        source_fn=lambda t: sources.narrow_source("nn_mlp_fwd", t),
        manual_source_fn=None, compile_opts={})
    evn = {}
    for ftype in NARROW_FTYPES:
        wide = run_kernel(spec, ftype, "scalar")
        narrow = run_kernel(narrow_spec, ftype, "scalar")
        evn[ftype] = {
            "expanding_db": _round(wide.sqnr_db()),
            "narrow_db": _round(narrow.sqnr_db()),
            "delta_db": _round(wide.sqnr_db() - narrow.sqnr_db()),
        }
    payload["expanding_vs_narrow"] = evn

    train = KERNELS["nn_mlp_train"]
    params = dict(train.params, steps=SR_STEPS)
    ref = run_kernel(train, "float", "scalar", params=params)
    ref_losses = ref.outputs["losses"]
    sr = {}
    for ftype in SR_FTYPES:
        rne = run_kernel(train, ftype, "scalar", params=params)
        rne_div = loss_divergence(ref_losses, rne.outputs["losses"])
        divs = []
        for key in SR_KEYS:
            run = run_kernel(train, ftype, "scalar", params=params,
                             frm=int(RoundingMode.SR), sr_key=key)
            divs.append(loss_divergence(ref_losses, run.outputs["losses"]))
        mean = float(np.mean(divs))
        sr[ftype] = {
            "steps": SR_STEPS,
            "rne_divergence": _round(rne_div),
            "sr_divergence_mean": _round(mean),
            "sr_keys": list(SR_KEYS),
            "improves": bool(mean < rne_div),
        }
    payload["sr_vs_rne"] = sr

    fused = {}
    for name in BLOCK_KERNELS:
        run = run_fused_block(name, "mx8")
        fused[name] = {
            "sqnr_db": _round(run.sqnr_db()),
            "per_output": {out: _round(db)
                           for out, db in sorted(run.sqnr.items())},
            "dotp_count": int(run.dotp_count),
            "instret": int(run.instret),
        }
    payload["fused_block"] = fused

    diff = {}
    for name in NN_KERNEL_NAMES:
        spec = KERNELS[name]
        batch = run_kernel_batch(spec, "float8", "scalar",
                                 seeds=list(DIFF_SEEDS))
        identical = True
        for seed, lane in zip(DIFF_SEEDS, batch):
            solo = run_kernel(spec, "float8", "scalar", seed=seed)
            for out in spec.outputs:
                if not np.array_equal(solo.outputs[out], lane.outputs[out]):
                    identical = False
        diff[name] = {"lanes": len(DIFF_SEEDS),
                      "bit_identical": identical}
    payload["differential"] = diff

    return payload
