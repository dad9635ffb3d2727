"""The committed profile baseline matches what the profiler reports.

``benchmarks/results/profile_baseline.json`` is the reviewed snapshot
of where each matrix configuration's cycles go.  Drift -- cycles moving
between loops, stall causes appearing, flop counts changing -- fails
here, forcing the baseline diff into review.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_profile_baseline.py
"""

import os

from repro.analysis.serialize import read_canonical
from repro.profile import PROFILE_SCHEMA_VERSION
from repro.profile.baseline import compute_profile_baseline

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "profile_baseline.json")


def _committed():
    return read_canonical(BASELINE_PATH)


def test_baseline_matches_committed_snapshot():
    committed = _committed()
    current = compute_profile_baseline()
    assert current["schema_version"] == committed["schema_version"]
    assert current["config_count"] == committed["config_count"]
    for key, config in committed["configs"].items():
        assert current["configs"][key] == config, f"baseline drift in {key}"


def test_baseline_is_schema_versioned():
    assert _committed()["schema_version"] == PROFILE_SCHEMA_VERSION


def test_baseline_accounting_is_exact():
    for key, summary in _committed()["configs"].items():
        assert summary["instret"] + sum(summary["stalls"].values()) \
            == summary["cycles"], key


def test_baseline_hot_loops_dominate():
    for key, summary in _committed()["configs"].items():
        assert summary["hot_loop"]["share"] > 0.5, key
