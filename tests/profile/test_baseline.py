"""The committed profile baseline matches what the profiler reports.

``benchmarks/results/profile_baseline.json`` is the reviewed snapshot
of where each matrix configuration's cycles go.  Drift -- cycles moving
between loops, stall causes appearing, flop counts changing -- fails
here, forcing the baseline diff into review.  To regenerate, delete the
snapshot, rerun this test (it writes the file and fails) and review the
diff.
"""

import os

from repro.analysis.serialize import check_baseline, read_canonical
from repro.profile import PROFILE_SCHEMA_VERSION
from repro.profile.baseline import compute_profile_baseline

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "profile_baseline.json")


def _committed():
    return read_canonical(BASELINE_PATH)


def test_baseline_matches_committed_snapshot():
    check_baseline(BASELINE_PATH, compute_profile_baseline())


def test_baseline_is_schema_versioned():
    assert _committed()["schema_version"] == PROFILE_SCHEMA_VERSION


def test_baseline_accounting_is_exact():
    # Every cycle is accounted: one issue slot + attributed stalls.
    for key, summary in _committed()["configs"].items():
        assert summary["instret"] + sum(summary["stalls"].values()) \
            == summary["cycles"], key


def test_baseline_hot_loops_dominate():
    # The paper's kernels spend their time in loops: the hottest one
    # must hold the majority of the run.
    for key, summary in _committed()["configs"].items():
        assert summary["hot_loop"] is not None, key
        assert summary["hot_loop"]["share"] > 0.5, key
