"""The committed NN-suite snapshot matches what the suite computes today.

``benchmarks/results/nn_suite.json`` records the suite's QoR claims;
drift in either direction, in any section, fails here, forcing the diff
into review.  To regenerate, delete the snapshot, rerun this test (it
writes the file and fails) and review the diff.
"""

import os

from repro.analysis.serialize import check_baseline, read_canonical
from repro.nn.suite import compute_nn_suite

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "nn_suite.json")


def _committed():
    return read_canonical(BASELINE_PATH)


def test_suite_matches_committed_snapshot():
    check_baseline(BASELINE_PATH, compute_nn_suite())


def test_committed_expanding_beats_narrow_on_8bit():
    evn = _committed()["expanding_vs_narrow"]
    for ftype in ("float8", "posit8"):
        assert evn[ftype]["delta_db"] > 0.0, ftype


def test_committed_sr_beats_rne_sub16bit():
    sr = _committed()["sr_vs_rne"]
    assert sr["float8"]["improves"]
    assert sr["posit8"]["improves"]


def test_committed_lockstep_bit_identical():
    for name, row in _committed()["differential"].items():
        assert row["bit_identical"], name


def test_committed_fused_block_holds_qor():
    # The fused-block route exercises vfdotpmx and holds QoR.
    for name, row in _committed()["fused_block"].items():
        assert row["dotp_count"] > 0, name
        assert row["sqnr_db"] > 15.0, name
