"""Fig. 6: the mixed-precision case study's speedup/energy/accuracy.

The paper's claim, asserted verbatim: "the mixed-precision scheme
allows speedup and energy savings comparable to those achievable with
float16, but achieves the same accuracy of the original float version".
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import cached_run, fig6_mixed_precision


def test_fig6_mixed_precision(benchmark):
    rows = fig6_mixed_precision()
    benchmark.pedantic(
        lambda: cached_run("svm_mixed", "float16", "auto").cycles,
        rounds=1, iterations=1,
    )
    check_baseline(result_path("fig6_mixed_precision"), rows)

    print("\nFig. 6 -- SVM precision schemes vs float")
    print(f"  {'scheme':<14s} {'speedup':>8s} {'energy':>8s} "
          f"{'error':>7s} {'SQNR':>7s}")
    for row in rows:
        print(f"  {row['scheme']:<14s} {row['speedup']:8.2f} "
              f"{row['energy_normalized']:8.2f} "
              f"{row['classification_error']:7.3f} {row['sqnr_db']:7.1f}")

    by = {r["scheme"]: r for r in rows}

    # Uniform smallFloat substitution speeds things up...
    assert by["float16"]["speedup"] > 1.2
    assert by["float8"]["speedup"] > by["float16"]["speedup"]
    # ...and mixed precision is comparable to float16 (within ~20%).
    ratio = by["mixed(auto)"]["speedup"] / by["float16"]["speedup"]
    assert ratio > 0.75
    assert by["mixed(manual)"]["speedup"] >= by["mixed(auto)"]["speedup"]
    # Energy: mixed saves vs float, comparable to float16.
    assert by["mixed(manual)"]["energy_normalized"] < 0.85
    # Accuracy: mixed matches the float baseline exactly, while
    # uniform float8 misclassifies some gestures.
    assert by["float"]["classification_error"] == 0.0
    assert by["mixed(auto)"]["classification_error"] == 0.0
    assert by["mixed(manual)"]["classification_error"] == 0.0
    assert by["float8"]["classification_error"] > 0.0
    # The mixed scheme's scores are *more* accurate than uniform f16
    # (binary32 accumulation), embodying transprecision's promise.
    assert by["mixed(auto)"]["sqnr_db"] > by["float16"]["sqnr_db"]
