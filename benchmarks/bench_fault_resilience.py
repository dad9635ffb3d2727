"""Fault resilience: QoR degradation vs flip count per FP format.

Not a paper figure -- a robustness study the smallFloat formats invite:
the paper motivates narrow FP with error-tolerant application domains,
so we measure how each format's output quality degrades when actual bit
flips land in the FP registers and staged data of the paper's GEMM and
SVM workloads.  For every (kernel, format, flips-per-run) cell one
deterministic campaign runs; the JSON dump records masked/SDC/trap
rates and the mean SQNR drop so the sweep is comparable across
revisions.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.faults import run_campaign

KERNELS = ("gemm", "svm")
FTYPES = ("float16", "float16alt", "float8")
FLIP_COUNTS = (1, 2, 4)
RUNS = 12
SEED = 2026
TARGETS = ("freg", "mem")


def _cell(kernel, ftype, flips):
    campaign = run_campaign(
        kernel, ftype=ftype, mode="scalar", runs=RUNS,
        flips_per_run=flips, targets=TARGETS, seed=SEED,
    )
    row = campaign.summary()
    row["reference_instret"] = campaign.reference_instret
    return row


def test_fault_resilience(benchmark):
    benchmark.pedantic(
        lambda: _cell("gemm", "float16", 1), rounds=1, iterations=1,
    )
    rows = [
        _cell(kernel, ftype, flips)
        for kernel in KERNELS
        for ftype in FTYPES
        for flips in FLIP_COUNTS
    ]
    check_baseline(result_path("fault_resilience"), rows)

    print("\nFault resilience -- QoR degradation vs flip count")
    print(f"  {'kernel':<6s}{'type':<11s}{'flips':>6s}{'masked':>8s}"
          f"{'SDC':>7s}{'trap':>7s}{'dSQNR':>9s}")
    for row in rows:
        drop = row["mean_sqnr_drop_db"]
        print(f"  {row['kernel']:<6s}{row['ftype']:<11s}"
              f"{row['flips_per_run']:>6d}{row['masked_rate']:>8.0%}"
              f"{row['sdc_rate']:>7.0%}{row['trap_rate']:>7.0%}"
              + (f"{drop:>8.1f}dB" if drop is not None else f"{'n/a':>9s}"))

    # --- shape assertions -------------------------------------------------
    for row in rows:
        # Crash isolation: every trial landed in a recorded status.
        total = (row["ok"] + row["trap"] + row["budget_exceeded"]
                 + row["error"])
        assert total == RUNS
        # Host-side failures would mean the containment leaked.
        assert row["error"] == 0
    for kernel in KERNELS:
        for ftype in FTYPES:
            cells = [r for r in rows
                     if r["kernel"] == kernel and r["ftype"] == ftype]
            by_flips = {r["flips_per_run"]: r for r in cells}
            # More flips never *increase* the masked rate beyond 1 flip.
            assert (by_flips[4]["masked_rate"]
                    <= by_flips[1]["masked_rate"] + 1e-9)
