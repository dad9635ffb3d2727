"""Table II: supported vector formats as FLEN changes."""

from conftest import result_path

from repro.analysis.serialize import check_baseline
from repro.harness.experiments import table2_vector_formats

#: Paper Table II, verbatim.
EXPECTED = {
    64: {"binary32": 2, "binary16": 4, "binary16alt": 4, "binary8": 8},
    32: {"binary32": None, "binary16": 2, "binary16alt": 2, "binary8": 4},
    16: {"binary32": None, "binary16": None, "binary16alt": None,
         "binary8": 2},
}


def test_table2_vector_formats(benchmark):
    table = benchmark(table2_vector_formats)
    assert table == EXPECTED
    check_baseline(result_path("table2_vector_formats"), table)
    print("\nTable II -- vector length n per format and FLEN")
    header = ["FLEN", "F", "Xf16", "Xf16alt", "Xf8"]
    print("  " + "  ".join(f"{h:>8s}" for h in header))
    for flen in (64, 32, 16):
        row = table[flen]
        cells = [
            str(row[name]) if row[name] else "x"
            for name in ("binary32", "binary16", "binary16alt", "binary8")
        ]
        print("  " + "  ".join(f"{c:>8s}" for c in [str(flen)] + cells))
