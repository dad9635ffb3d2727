"""Tuner pre-screen micro-benchmark: skipped simulations, wall clock.

Runs the Section V-C SVM case study twice -- with and without the
static overflow pre-screen -- and records, per constraint, the tuned
assignment, the number of evaluations, the number of statically
rejected candidates; the wall-clock time of each full tuning run is
printed, not committed.
The point of the pre-screen is that the tuner reaches the *same*
assignment while evaluating provably-doomed candidates zero times.
"""

import time

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.tuning import make_gesture_case, run_case_study


def _timed_run(case, static_prescreen):
    started = time.perf_counter()
    results = run_case_study(case, static_prescreen=static_prescreen)
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_tuner_prescreen(benchmark):
    case = make_gesture_case()
    baseline, baseline_s = _timed_run(case, static_prescreen=False)
    screened, screened_s = _timed_run(case, static_prescreen=True)
    benchmark(run_case_study, case, static_prescreen=True)

    rows = []
    for constraint in ("strict", "relaxed"):
        off, on = baseline[constraint], screened[constraint]
        rows.append({
            "constraint": constraint,
            "assignment": on.assignment,
            "evaluations_without_prescreen": off.evaluations,
            "evaluations_with_prescreen": on.evaluations,
            "skipped_candidates": on.skipped,
            "skip_reasons": [reason for _, reason in on.skipped_candidates],
        })
        # The pre-screen must never change the tuning outcome, only
        # remove evaluations of candidates it proves unsafe.
        assert on.assignment == off.assignment, constraint
        assert on.evaluations <= off.evaluations, constraint
        assert on.evaluations + on.skipped >= off.evaluations, constraint
    # At least one provably-overflowing accumulator candidate must be
    # pruned somewhere in the study (the relaxed descent reaches the
    # float16 accumulator, whose partial sums provably exceed 65504).
    assert any(row["skipped_candidates"] > 0 for row in rows)

    check_baseline(result_path("tuner_prescreen"), {"rows": rows})

    # Wall clock varies run to run, so it is printed, never committed.
    print(f"\nTuner pre-screen -- wall clock "
          f"{baseline_s:.2f}s -> {screened_s:.2f}s")
    for row in rows:
        print(f"  {row['constraint']}: "
              f"{row['evaluations_without_prescreen']} -> "
              f"{row['evaluations_with_prescreen']} evaluations, "
              f"{row['skipped_candidates']} statically skipped")
