"""Fig. 5: automatic vs manual vectorization of a dot-product loop.

The paper shows the auto build computing ``vfmul.h`` then unpacking each
lane with ``srli`` + ``fcvt.s.h`` + ``fadd.s``, while the manual build
uses the Xfaux expanding operation -- "manual vectorization enables to
remove the conversion instructions, reducing by 25% the instruction
count".
"""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import fig5_codegen


def test_fig5_codegen(benchmark):
    result = benchmark(fig5_codegen)
    check_baseline(result_path("fig5_codegen"), {
        "auto_loop_instructions": result["auto_loop_instructions"],
        "manual_loop_instructions": result["manual_loop_instructions"],
        "reduction": result["reduction"],
    })

    print("\nFig. 5 -- dot-product inner loops")
    print(f"  auto:   {result['auto_loop_instructions']} instructions")
    print(result["auto_asm"])
    print(f"  manual: {result['manual_loop_instructions']} instructions")
    print(result["manual_asm"])
    print(f"  reduction: {result['reduction']:.0%}")

    # The auto loop shows the exact Fig. 5 pattern.
    assert "vfmul.h" in result["auto_asm"]
    assert "srli" in result["auto_asm"]
    assert "fcvt.s.h" in result["auto_asm"]
    assert "fadd.s" in result["auto_asm"]
    # The manual loop replaces all of it with the expanding dot product.
    assert "vfdotpex.s.h" in result["manual_asm"]
    assert "fcvt" not in result["manual_asm"]
    # Instruction-count reduction in the ballpark of the paper's 25%.
    assert 0.15 <= result["reduction"] <= 0.45
