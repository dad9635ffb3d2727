"""Fig. 3: energy of smallFloat types (normalized to float) vs latency.

Paper: ~30% average savings for the 16-bit types and ~50% for binary8
with data in L1.  Our measured savings run higher (~45-50% / ~70%)
because our builds achieve higher speedups than the paper's toolchain
(see EXPERIMENTS.md); every ordering is preserved: binary8 saves more
than binary16, both save at every latency level, and the normalized
energy stays below 1 throughout.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import (
    cached_run,
    fig3_average_savings,
    fig3_energy,
)


def test_fig3_energy(benchmark):
    rows = fig3_energy()
    benchmark.pedantic(
        lambda: cached_run("syrk", "float8", "manual", 10).energy.total,
        rounds=1, iterations=1,
    )
    check_baseline(result_path("fig3_energy"), rows)

    print("\nFig. 3 -- energy normalized to float")
    benches = sorted({r["benchmark"] for r in rows})
    for bench in benches:
        cells = []
        for ftype in ("float16", "float8"):
            for level in ("L1", "L2", "L3"):
                value = next(r["normalized"] for r in rows
                             if r["benchmark"] == bench
                             and r["ftype"] == ftype
                             and r["level"] == level)
                cells.append(f"{value:.2f}")
        print(f"  {bench:<8s} " + "  ".join(f"{c:>5s}" for c in cells))

    savings = fig3_average_savings(rows)
    print("  average savings:",
          {ft: {k: f"{v:.1%}" for k, v in s.items()}
           for ft, s in savings.items()})

    # --- shape assertions -------------------------------------------------
    for level in ("L1", "L2", "L3"):
        # Both types save energy; binary8 saves more than binary16.
        assert 0.20 < savings["float16"][level] < 0.60
        assert 0.40 < savings["float8"][level] < 0.80
        assert savings["float8"][level] > savings["float16"][level]
    # Normalized energy below the float baseline everywhere.
    assert all(r["normalized"] < 1.0 for r in rows)
