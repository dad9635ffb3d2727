"""The committed lint baseline matches what the analyzer reports today.

``benchmarks/results/lint_baseline.json`` is the reviewed snapshot of
every finding over every kernel build configuration.  Drift in either
direction -- new findings (a codegen or analyzer change) or vanished
ones (a check silently stopped firing) -- fails here, forcing the
baseline diff into review.  To regenerate, delete the snapshot, rerun
this test (it writes the file and fails) and review the diff.
"""

import os
import time

from repro.analysis.baseline import compute_baseline
from repro.analysis.serialize import check_baseline, read_canonical

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "lint_baseline.json")


def test_baseline_matches_committed_snapshot():
    started = time.monotonic()
    current = compute_baseline()
    elapsed = time.monotonic() - started
    check_baseline(BASELINE_PATH, current)
    # Acceptance bound: the full sweep stays well under 10 seconds.
    assert elapsed < 10.0


def test_baseline_contains_no_errors():
    committed = read_canonical(BASELINE_PATH)
    assert committed["totals_by_severity"].get("error", 0) == 0
    # Compiled output must never trip the correctness checks.
    for check in ("use-before-def", "format-mismatch", "redundant-convert",
                  "uninitialized-load"):
        assert committed["totals_by_check"].get(check, 0) == 0, check


def test_baseline_names_the_expanding_dot_product():
    committed = read_canonical(BASELINE_PATH)
    # smallFloat reduction loops accumulate narrow unless they use the
    # expanding operations ...
    assert committed["totals_by_check"]["narrow-accumulation"] > 0
    # ... and a float8 dot-product-shaped kernel names the expanding
    # SIMD dot product as the fix.
    atax = committed["configs"]["atax/float8/auto"]
    assert any(f.get("suggestion") == "vfdotpex.s.b"
               for f in atax["findings"])
