"""The committed absint baseline matches what the analyzer reports today.

``benchmarks/results/absint_baseline.json`` is the reviewed snapshot of
every static precision risk over every kernel build configuration.
Drift in either direction -- new risks (a codegen or transfer-function
change) or vanished ones (widening silently loosened) -- fails here,
forcing the baseline diff into review.  Regenerate with::

    PYTHONPATH=src python -m pytest benchmarks/bench_absint_baseline.py
"""

import os
import time

from repro.analysis.absint_baseline import compute_absint_baseline
from repro.analysis.serialize import read_canonical

BASELINE_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                             os.pardir, "benchmarks", "results",
                             "absint_baseline.json")


def test_absint_baseline_matches_committed_snapshot():
    committed = read_canonical(BASELINE_PATH)
    started = time.monotonic()
    current = compute_absint_baseline()
    elapsed = time.monotonic() - started
    assert current["config_count"] == committed["config_count"]
    assert current["totals_by_kind"] == committed["totals_by_kind"]
    for key, config in committed["configs"].items():
        assert current["configs"][key] == config, f"baseline drift in {key}"
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
