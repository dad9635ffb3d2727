"""The committed NN-suite snapshot matches what the suite computes today.

``benchmarks/results/nn_suite.json`` records the suite's QoR claims;
drift in either direction fails here, forcing the diff into review.
Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_nn_suite.py
"""

import os

from repro.analysis.serialize import read_canonical
from repro.nn.suite import compute_nn_suite

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "nn_suite.json")


def _committed():
    return read_canonical(BASELINE_PATH)


def test_suite_matches_committed_snapshot():
    committed = _committed()
    current = compute_nn_suite()
    for section in ("kernels", "qor", "expanding_vs_narrow", "sr_vs_rne",
                    "fused_block", "differential"):
        assert current[section] == committed[section], \
            f"nn_suite drift in section {section!r}"


def test_committed_expanding_beats_narrow_on_8bit():
    evn = _committed()["expanding_vs_narrow"]
    for ftype in ("float8", "posit8"):
        assert evn[ftype]["delta_db"] > 0.0, ftype


def test_committed_sr_beats_rne_sub16bit():
    sr = _committed()["sr_vs_rne"]
    assert any(row["improves"] for ftype, row in sr.items()
               if ftype in ("float8", "posit8", "float16alt"))
    assert sr["float8"]["improves"]


def test_committed_lockstep_bit_identical():
    for name, row in _committed()["differential"].items():
        assert row["bit_identical"], name
