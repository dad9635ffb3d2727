"""Fig. 4: instruction-count breakdown for the mixed-precision SVM.

The paper's observations, all asserted here:

* auto-vectorization converts float scalar calculations into scalar and
  vectorial float16 ones and significantly reduces memory instructions;
* the auto build pays extra ALU/conversion overhead that eats into the
  savings;
* the manual build removes the scalar float16 ops and conversion
  overhead (via cast-and-pack/expanding ops) and reduces ALU work.
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import cached_run, fig4_breakdown


def test_fig4_breakdown(benchmark):
    data = fig4_breakdown()
    benchmark.pedantic(
        lambda: cached_run("svm_mixed", "float16", "manual").instret,
        rounds=1, iterations=1,
    )
    check_baseline(result_path("fig4_breakdown"), data)

    categories = list(next(iter(data.values())).keys())
    print("\nFig. 4 -- SVM instruction breakdown (mixed precision)")
    print("  " + " ".join(f"{c:>9s}" for c in ["variant"] + categories))
    for variant in ("original", "auto", "manual"):
        cells = [f"{data[variant][c]:9d}" for c in categories]
        print(f"  {variant:>9s} " + " ".join(cells))
        print(f"            total = {sum(data[variant].values())}")

    original, auto, manual = data["original"], data["auto"], data["manual"]

    # Memory instructions drop with vectorization (packed loads).
    assert auto["mem"] < original["mem"]
    assert manual["mem"] <= auto["mem"]
    # float work becomes (vector) float16 work.
    assert original["vfloat16"] == 0
    assert auto["vfloat16"] > 0
    assert auto["float"] < original["float"]
    # The auto build pays conversion overhead; manual removes it.
    assert auto["conv"] > manual["conv"]
    # Manual uses the expanding dot product instead.
    assert manual["expand"] > 0 and auto["expand"] == 0
    # Total instruction count: manual < auto < original.
    assert (sum(manual.values()) < sum(auto.values())
            < sum(original.values()))
