"""Format shootout: binary8 vs posit8 vs MX8, accuracy and energy.

All contenders are one byte per element and ride the identical scalar
pipeline, so differences come purely from how each format spends its
8 bits.  The asserted structure: both non-IEEE guests beat binary8 on
SQNR everywhere (posits taper precision toward 1.0 where these kernels
live; MX8 moves range into a shared block scale), and every 8-bit
build saves energy against the binary32 baseline.
"""

import math

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import cached_run, format_shootout

BENCH_ORDER = ["svm", "gemm", "atax", "syrk", "syr2k", "fdtd2d"]
FTYPES = ("float8", "posit8", "mx8")


def test_format_shootout(benchmark):
    rows = format_shootout()
    benchmark.pedantic(
        lambda: cached_run("gemm", "posit8", "scalar").sqnr_db(),
        rounds=1, iterations=1,
    )
    check_baseline(result_path("format_shootout"), rows)

    def row(bench, ftype):
        return next(r for r in rows
                    if r["benchmark"] == bench and r["ftype"] == ftype)

    print("\nFormat shootout -- SQNR (dB) / energy vs float")
    print("  " + " ".join(f"{b:>8s}" for b in [""] + BENCH_ORDER))
    for ftype in FTYPES:
        cells = [f"{row(b, ftype)['sqnr_db']:8.1f}" for b in BENCH_ORDER]
        print(f"  {ftype:>10s} " + " ".join(cells))

    # --- shape assertions -------------------------------------------------
    assert {r["ftype"] for r in rows} == set(FTYPES)
    assert {r["benchmark"] for r in rows} == set(BENCH_ORDER)
    for r in rows:
        point = (r["benchmark"], r["ftype"])
        # Every format runs every kernel through the common pipeline.
        assert r["status"] == "ok", point
        assert math.isfinite(r["sqnr_db"]), point
        assert r["cycles"] > 0, point
        # One-byte storage beats binary32 on energy across the board.
        assert r["energy_vs_float"] < 1.0, point
    for bench in BENCH_ORDER:
        f8 = row(bench, "float8")["sqnr_db"]
        # binary8's 2-bit mantissa loses to both guests' encodings.
        assert row(bench, "posit8")["sqnr_db"] > f8, bench
        assert row(bench, "mx8")["sqnr_db"] > f8, bench
