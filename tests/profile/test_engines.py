"""The profile is engine-independent: reference, block and lockstep lane.

A profile is built after the run from the trace, so the same point must
profile to the same JSON whichever engine executed it.  The sample
covers the five float types, the three build modes and L1/L2 latency;
the lockstep lane shares its batch with a second seed, so divergent
control flow is part of the check.
"""

import json

import pytest

from repro.harness import kernel_profile, run_kernel
from repro.harness.runner import run_kernel_batch
from repro.kernels import KERNELS

SAMPLE = [
    ("gemm", "float16", "manual", 1),
    ("atax", "float", "scalar", 10),
    ("atax", "float8", "auto", 1),
    ("syrk", "float16alt", "manual", 10),
    ("svm", "posit16", "auto", 10),
    ("nn_softmax", "float16", "scalar", 1),
]


@pytest.mark.parametrize("name,ftype,mode,latency", SAMPLE)
def test_every_engine_profiles_identically(name, ftype, mode, latency):
    spec = KERNELS[name]
    runs = {
        "reference": run_kernel(spec, ftype, mode, mem_latency=latency,
                                fast_path=False),
        "block": run_kernel(spec, ftype, mode, mem_latency=latency),
        "lockstep": run_kernel_batch(spec, ftype, mode, mem_latency=latency,
                                     seeds=[0, 1])[0],
    }
    payloads = {engine: json.dumps(kernel_profile(run, 0).to_payload())
                for engine, run in runs.items()}
    assert payloads["block"] == payloads["reference"]
    assert payloads["lockstep"] == payloads["reference"]
    assert json.dumps(run_kernel(spec, ftype, mode, mem_latency=latency,
                                 profile=True).profile.to_payload()) \
        == payloads["reference"]
