"""The committed absint baseline matches what the analyzer reports today.

``benchmarks/results/absint_baseline.json`` is the reviewed snapshot of
every static precision risk over every kernel build configuration.
Drift in either direction -- new risks (a codegen or transfer-function
change) or vanished ones (widening silently loosened) -- fails here,
forcing the baseline diff into review.  To regenerate, delete the
snapshot, rerun this test (it writes the file and fails) and review
the diff.
"""

import os
import time

from repro.analysis.absint_baseline import compute_absint_baseline
from repro.analysis.serialize import check_baseline, read_canonical

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "absint_baseline.json")


def test_absint_baseline_matches_committed_snapshot():
    started = time.monotonic()
    current = compute_absint_baseline()
    elapsed = time.monotonic() - started
    check_baseline(BASELINE_PATH, current)
    # Acceptance bound: the full sweep stays well under 10 seconds.
    assert elapsed < 10.0


def test_absint_baseline_has_no_budget_risks():
    # The error budget is disarmed by default, so the committed
    # snapshot may not contain budget risks.
    committed = read_canonical(BASELINE_PATH)
    assert committed["totals_by_kind"].get("budget", 0) == 0


def test_absint_baseline_flags_narrow_accumulation():
    committed = read_canonical(BASELINE_PATH)
    assert committed["totals_by_kind"].get("overflow", 0) > 0
    atax = committed["configs"]["atax/float8/auto"]
    assert any(r.get("suggestion") in ("fmacex.s.b", "vfdotpex.s.b")
               for r in atax["risks"])


def test_absint_baseline_expanding_svm_has_no_narrow_overflow():
    # The manually vectorized mixed-precision SVM accumulates through
    # the expanding vfdotpex into binary32: no smallFloat format is at
    # risk of overflow, even though float8 inputs feed it.  Remaining
    # overflow flags, if any, concern only the binary32 outer
    # accumulation under the conservative 4096-trip extrapolation.
    committed = read_canonical(BASELINE_PATH)
    svm_mixed = committed["configs"]["svm_mixed/float8/manual"]
    assert not any(r["kind"] == "overflow" and r["fmt"] != "binary32"
                   for r in svm_mixed["risks"])
