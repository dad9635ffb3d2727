"""The committed lint baseline matches what the analyzer reports today.

``benchmarks/results/lint_baseline.json`` is the reviewed snapshot of
every finding over every kernel build configuration.  Drift in either
direction -- new findings (a codegen or analyzer change) or vanished
ones (a check silently stopped firing) -- fails here, forcing the
baseline diff into review.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_lint_baseline.py
"""

import os
import time

from repro.analysis.baseline import compute_baseline
from repro.analysis.serialize import read_canonical

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "lint_baseline.json")


def test_baseline_matches_committed_snapshot():
    committed = read_canonical(BASELINE_PATH)
    started = time.monotonic()
    current = compute_baseline()
    elapsed = time.monotonic() - started
    assert current["config_count"] == committed["config_count"]
    assert current["totals_by_check"] == committed["totals_by_check"]
    assert current["totals_by_severity"] == committed["totals_by_severity"]
    for key, config in committed["configs"].items():
        assert current["configs"][key] == config, f"baseline drift in {key}"
    # Acceptance bound: the full sweep stays well under 10 seconds.
    assert elapsed < 10.0


def test_baseline_contains_no_errors():
    committed = read_canonical(BASELINE_PATH)
    assert committed["totals_by_severity"].get("error", 0) == 0


def test_baseline_names_the_expanding_dot_product():
    committed = read_canonical(BASELINE_PATH)
    atax = committed["configs"]["atax/float8/auto"]
    assert any(f.get("suggestion") == "vfdotpex.s.b"
               for f in atax["findings"])
